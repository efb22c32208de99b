"""Shared infrastructure for the benchmark harness.

Each ``bench_<experiment>.py`` regenerates one table or figure of the
paper via the experiment registry, times it with pytest-benchmark, and
writes the rendered artifact to ``benchmarks/results/<id>.txt`` so a
full benchmark run leaves the complete set of reproduced tables and
figures on disk.  Every timed benchmark also drops a machine-readable
``BENCH_<name>.json`` (mean/min/max seconds) next to the artifacts so
CI and scripts can track performance without parsing pytest output.

``BENCH_SCALE`` shrinks workload inputs; the shapes asserted here are
scale-robust.  Both cache levels are disabled/cleared around every
measured run so each experiment pays its own profiling cost — with
the persistent disk cache left on, a second benchmark run would time
a cache hit instead of the profiler.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import time

from repro.analysis import experiments

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

HISTORY_FILE = "BENCH_history.jsonl"


def _git(directory: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", *args], cwd=directory, capture_output=True, text=True, timeout=10
    )


def git_sha(directory: pathlib.Path = None) -> str:
    """The checkout's short commit sha, ``"unknown"`` outside a checkout.

    A tracked file that differs from ``HEAD`` appends ``-dirty``, so a
    run of uncommitted code is not recorded under its parent commit.
    Files under ``benchmarks/results/`` do not count: they are tracked,
    and every benchmark run rewrites them.
    """
    directory = directory if directory is not None else pathlib.Path(__file__).parent
    try:
        head = _git(directory, "rev-parse", "--short", "HEAD")
        sha = head.stdout.strip()
        if head.returncode != 0 or not sha:
            return "unknown"
        diff = _git(
            directory, "diff", "--quiet", "HEAD", "--",
            ":(top)", ":(top,exclude)benchmarks/results",
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return f"{sha}-dirty" if diff.returncode == 1 else sha


def append_history(bench: str, metric: str, value: float, sha: str = None) -> None:
    """Append one (bench, metric, value, git-sha) record to the history.

    ``BENCH_history.jsonl`` is the consolidated bench trajectory:
    every benchmark run appends its headline numbers here, so
    ``repro dash`` can plot performance over commits instead of only
    comparing against the single committed baseline.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "bench": bench,
        "metric": metric,
        "value": value,
        "git_sha": sha if sha is not None else git_sha(),
        "timestamp": time.time(),
    }
    with open(RESULTS_DIR / HISTORY_FILE, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True))
        handle.write("\n")


def write_bench_json(benchmark, name: str, **extra) -> None:
    """Persist one benchmark's timing stats as ``BENCH_<name>.json``.

    Best-effort: pytest-benchmark may be running with ``--benchmark-
    disable`` (the CI smoke mode), in which case there are no stats and
    nothing is written.  Every write also appends the mean to
    ``BENCH_history.jsonl`` (see :func:`append_history`).
    """
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    if stats is None:
        return
    payload = {
        "name": name,
        "mean_s": stats.mean,
        "min_s": stats.min,
        "max_s": stats.max,
        "stddev_s": stats.stddev,
        "rounds": stats.rounds,
    }
    payload.update(extra)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    append_history(name, "mean_s", stats.mean)


def run_experiment(benchmark, experiment_id: str, scale: float = BENCH_SCALE):
    """Time one experiment end to end and persist its artifact."""

    def setup():
        experiments.clear_caches()
        return (), {}

    def measured():
        with experiments.caching_disabled():
            return experiments.run(experiment_id, scale=scale)

    result = benchmark.pedantic(
        measured,
        setup=setup,
        rounds=1,
        iterations=1,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    artifact = RESULTS_DIR / f"{experiment_id}.txt"
    artifact.write_text(f"== {result.title} ==\n{result.text}\n")
    benchmark.extra_info["experiment"] = experiment_id
    benchmark.extra_info["scale"] = scale
    write_bench_json(benchmark, experiment_id, experiment=experiment_id, scale=scale)
    assert result.text.strip(), f"{experiment_id} produced no output"
    return result
