"""One measured phase of the ``offline`` or ``profile`` workload.

Run by ``run.py`` in a fresh process with a clean environment::

    python3 e2ebench/phase.py cold --out result.json --spawned-at T

Phases: ``cold`` and ``warm`` run the deterministic experiments (the
cache directory in ``REPRO_CACHE_DIR`` starts empty for ``cold``);
``threaded`` and ``tier2`` profile every program on its train and test
inputs on that engine; ``rounds`` builds those inputs once and then
forks ``--pairs`` processes per engine, engines in turn, each of which
profiles every input as a ``threaded``/``tier2`` phase would.
``--setup-only`` stops after set-up, which run.py uses to sample set-up
time several times.  ``--trace`` installs the layer wrappers of
:mod:`ledger` and adds a self-time ledger to the result.  The result is
one JSON object written to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import reference_sample  # noqa: E402
from ledger import Recorder, ledger_rows, self_times  # noqa: E402

#: the experiment oracle: sha256 of each rendered artifact at this scale.
ORACLE_SCALE = 0.25
DIGESTS = Path(__file__).resolve().parent / "digests.json"

PROFILE_VARIANTS = ("train", "test")
PROFILE_ENGINES = ("threaded", "tier2")


def artifact_digest(title: str, text: str) -> str:
    """Digest of an experiment's text in the committed artifact layout."""
    return hashlib.sha256(f"== {title} ==\n{text}\n".encode()).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# layer wrappers
# ----------------------------------------------------------------------


def _count_dataset(rec, args, kwargs, result):
    rec.count("workloads.datasets")


def _count_run(rec, args, kwargs, result):
    rec.count("isa.runs")
    rec.count("isa.instructions", result.instructions_executed)


def _count_record_batch(rec, args, kwargs, result):
    rec.count("core.record_events", len(args[2]))


def _count_record_fold(rec, args, kwargs, result):
    rec.count("core.record_events", args[2].n)


def _count_capture(rec, args, kwargs, result):
    rec.count("core.captures")


def _count_replay(rec, args, kwargs, result):
    rec.count("core.replay_events", len(args[0].site_ids))


def _count_fold(rec, args, kwargs, result):
    rec.count("core.fold_events", result.n)


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count_store(rec, args, kwargs, result):
    rec.count("core.cache_bytes", _file_bytes(args[0]))


def _count_load(rec, args, kwargs, result):
    if result is not None:
        rec.count("core.cache_hits")
        rec.count("core.cache_bytes", _file_bytes(args[0]))


#: (module, [Class.]function, layer, counter) of each wrapped entry point
#: a profiled run goes through.
PROFILE_WRAPS = [
    ("repro.workloads.registry", "Workload.dataset", "workloads.dataset", _count_dataset),
    ("repro.isa.assembler", "Assembler.assemble", "isa.assemble", None),
    ("repro.isa.machine", "Machine.run", "isa.run", _count_run),
    ("repro.core.profile", "ProfileDatabase.record_batch", "core.record", _count_record_batch),
    ("repro.core.profile", "ProfileDatabase.record_fold", "core.record", _count_record_fold),
]

#: ... and of every further layer the experiments call into.  A name
#: imported with ``from x import f`` is patched in each module that
#: binds it as well as where it is defined.
OFFLINE_WRAPS = PROFILE_WRAPS + [
    ("repro.analysis.experiments", "run", "analysis", None),
    ("repro.workloads.harness", "capture_workload_events", "core.capture", _count_capture),
    ("repro.analysis.experiments", "capture_workload_events", "core.capture", _count_capture),
    ("repro.core.tracestore", "replay_profile", "core.replay", _count_replay),
    ("repro.core.tracestore", "replay_site_traces", "core.replay", _count_replay),
    ("repro.core.tracestore", "replay_global_events", "core.replay", _count_replay),
    ("repro.core.diskcache", "cache_store", "core.cache_store", _count_store),
    ("repro.core.diskcache", "cache_load", "core.cache_load", _count_load),
    ("repro.core.fold", "fold_values", "core.fold", _count_fold),
    ("repro.core.profile", "fold_values", "core.fold", _count_fold),
    ("repro.core.tracestore", "fold_values", "core.fold", _count_fold),
    ("repro.core.profile", "SiteProfile.metrics", "core.metrics", None),
    ("repro.core.sampling", "SamplingProfiler.record", "core.sampling", None),
    ("repro.core.sampling", "SamplingProfiler.record_batch", "core.sampling", None),
    ("repro.predictors.harness", "evaluate_bank", "predictors", None),
    ("repro.predictors.harness", "evaluate_filtered", "predictors", None),
    ("repro.analysis.exp_predictors", "evaluate_bank", "predictors", None),
    ("repro.analysis.exp_predictors", "evaluate_filtered", "predictors", None),
    ("repro.predictors.vht", "ValueHistoryTable.replay", "predictors", None),
    ("repro.predictors.classify", "lvp_filter", "predictors", None),
    ("repro.analysis.exp_predictors", "lvp_filter", "predictors", None),
    ("repro.specialize.analysis", "find_candidates", "specialize", None),
    ("repro.analysis.exp_specialize", "find_candidates", "specialize", None),
    ("repro.analysis.report", "find_candidates", "specialize", None),
    ("repro.specialize.memoize", "memoizability", "specialize", None),
    ("repro.analysis.exp_extensions", "memoizability", "specialize", None),
    ("repro.isa.optimize", "specialize_procedure", "specialize", None),
    ("repro.isa.optimize", "patch_call_site", "specialize", None),
    ("repro.isa.optimize", "written_registers", "specialize", None),
]


def install_wraps(rec: Recorder, table) -> None:
    for module, path, layer, counter in table:
        # import_module, not attribute access: a package may export a
        # function under its submodule's name (repro.predictors.classify).
        owner = importlib.import_module(module)
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name)
        rec.wrap(owner, attr, layer, counter)


#: ledger row name of each layer, as printed.
ROW_NAMES = {
    "workloads.dataset": "workloads.dataset_s",
    "isa.assemble": "isa.assemble_s",
    "isa.run": "isa.run_s",
    "core.record": "core.record_s",
    "core.capture": "core.capture_s",
    "core.replay": "core.replay_s",
    "core.cache_store": "core.cache_store_s",
    "core.cache_load": "core.cache_load_s",
    "core.fold": "core.fold_s",
    "core.metrics": "core.metrics_s",
    "core.sampling": "core.sampling_s",
    "predictors": "predictors_s",
    "specialize": "specialize_s",
    "analysis": "analysis.self_s",
    "gc": "gc_s",
    "unattributed": "unattributed_s",
}


def ledger(rec: Recorder, wall: float, upto: int) -> dict:
    rows = ledger_rows(self_times(rec.spans(upto)), wall)
    out = {ROW_NAMES[layer]: seconds for layer, seconds in rows.items()}
    out["spans"] = upto
    out["span_groups"] = rec.groups(upto)
    return out


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------


def run_offline(args, result: dict, rec) -> None:
    from repro.analysis import experiments
    from repro.core import diskcache

    diskcache.source_tree_hash()
    selected = [e for e in experiments.all_experiments() if e.deterministic]
    result["ready"] = time.monotonic()
    if args.setup_only:
        return
    oracle = json.loads(DIGESTS.read_text()) if args.scale == ORACLE_SCALE else None
    gc.collect()
    if rec is not None:
        from repro.obs import METRICS

        METRICS.enable()
        install_wraps(rec, OFFLINE_WRAPS)
        rec.install_gc()
    # run_all's serial path, one call per experiment, so a raise is
    # counted and the remaining experiments still run.  ``failures``
    # maps an experiment id to what went wrong with it.  Untraced, the
    # reference loop is sampled between experiments; its time is left
    # out of the pass's.
    digests, failures, ref_s = {}, {}, []
    sample = (lambda: ref_s.append(reference_sample())) if rec is None else (lambda: None)
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for exp in selected:
        sample()
        try:
            out = experiments.run(exp.id, args.scale)
        except Exception as error:  # noqa: BLE001 - counted as a failed op
            failures[exp.id] = f"raised {type(error).__name__}: {error}"
            continue
        digests[exp.id] = artifact_digest(out.title, out.text)
        if oracle is not None and oracle.get(exp.id) != digests[exp.id]:
            failures[exp.id] = "text differs from its digest"
    sample()
    wall = time.perf_counter() - wall0 - sum(ref_s)
    result.update(
        wall_s=wall,
        cpu_s=time.process_time() - cpu0 - sum(ref_s),
        ref_s=ref_s,
        attempted=len(selected),
        failures=failures,
        digests=digests,
        oracle_checked=oracle is not None,
    )
    if rec is not None:
        upto = len(rec.start)
        rec.remove()
        from repro.obs import METRICS

        counters = METRICS.snapshot()["counters"]
        METRICS.disable()
        result["ledger"] = ledger(rec, wall, upto)
        result["counters"] = dict(rec.counters)
        for name in ("tnv.clears", "tnv.promotions", "tnv.bottom_evictions"):
            result["counters"][name] = counters.get(name, 0)


def _profile_once(program, dataset, engine: str):
    from repro.core.profile import ProfileDatabase
    from repro.isa.instrument import ProfileTarget, ValueProfiler
    from repro.isa.machine import Machine

    database = ProfileDatabase(name=dataset.name)
    observer = ValueProfiler(
        program,
        database,
        targets=(ProfileTarget.INSTRUCTIONS, ProfileTarget.LOADS),
        buffered=True,
    )
    machine = Machine(program, observer=observer, engine=engine)
    machine.set_input(dataset.values)
    run = machine.run()
    return run, database, machine


def _collect(rec) -> None:
    """Full collection before a timed region, kept out of the ledger."""
    if rec is not None:
        rec.gc_paused = True
    gc.collect()
    if rec is not None:
        rec.gc_paused = False


def _build_inputs(args, rec):
    """Every (program, input) pair, built before timing (part of set-up)."""
    from repro.core import diskcache
    from repro.workloads.registry import all_workloads

    diskcache.source_tree_hash()
    if rec is not None:
        install_wraps(rec, PROFILE_WRAPS)
        rec.install_gc()
    build0 = time.perf_counter()
    inputs = [
        (workload.program(), workload.dataset(variant, scale=args.scale))
        for workload in all_workloads()
        for variant in PROFILE_VARIANTS
    ]
    build = time.perf_counter() - build0
    if rec is not None:
        rec.gc_paused = True
    return inputs, build


TIER2_STATS = ("quickened", "deopts", "guard_hits")


def _timed_run(program, dataset, engine: str, rec) -> dict:
    """One profiled run of one input after a full collection; its record.

    The reference loop is sampled just before the run.
    """
    _collect(rec)
    ref = reference_sample()
    cpu0 = time.process_time()
    started = time.perf_counter()
    run, database, machine = _profile_once(program, dataset, engine)
    elapsed = time.perf_counter() - started
    run_cpu = time.process_time() - cpu0
    if rec is not None:
        rec.gc_paused = True
    stats = machine.tier2_stats()
    return {
        "input": dataset.name,
        "ref_s": ref,
        "seconds": elapsed,
        "cpu_s": run_cpu,
        "instructions": run.instructions_executed,
        "output_ok": list(run.output) == list(dataset.expected_output),
        "digest": hashlib.sha256(database.to_json().encode()).hexdigest(),
        "tier2": None if stats is None else {key: stats[key] for key in TIER2_STATS},
        "peak_rss_mb": _peak_rss_mb(),
    }


def _sweep(inputs, engine: str, run_one) -> dict:
    """Every input profiled once on ``engine``, in order, by ``run_one``."""
    runs = [run_one(program, dataset) for program, dataset in inputs]
    result = {
        "engine": engine,
        "ref_s": [r["ref_s"] for r in runs] + [reference_sample()],
        "wall_s": sum(r["seconds"] for r in runs),
        "cpu_s": sum(r["cpu_s"] for r in runs),
        "instructions": sum(r["instructions"] for r in runs),
        "runs": runs,
        "attempted": len(runs),
        "failures": {
            r["input"]: "output differs from the reference" for r in runs if not r["output_ok"]
        },
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }
    if engine == "tier2":
        result["tier2"] = {key: sum(r["tier2"][key] for r in runs) for key in TIER2_STATS}
    return result


def run_profile(args, result: dict, rec) -> None:
    engine = args.phase
    inputs, build = _build_inputs(args, rec)
    result["ready"] = time.monotonic()
    if args.setup_only:
        if rec is not None:
            rec.remove()
        return
    result.update(_sweep(inputs, engine, lambda p, d: _timed_run(p, d, engine, rec)))
    result["build_s"] = build
    if rec is not None:
        upto = len(rec.start)
        result["counters"] = dict(rec.counters)
        # Warm-up: the first input again in the same process; the
        # difference is what the first run paid for decoding/codegen.
        program, dataset = inputs[0]
        _collect(rec)
        started = time.perf_counter()
        _profile_once(program, dataset, engine)
        result["warmup_s"] = result["runs"][0]["seconds"] - (time.perf_counter() - started)
        rec.remove()
        result["ledger"] = ledger(rec, build + result["wall_s"], upto)


def _forked(job):
    """``job()`` in a forked child; its JSON-able result.

    Forking is safe here because the parent runs no thread of its own:
    the one other thread, OpenBLAS's worker started by importing numpy,
    is shut down by OpenBLAS's own ``pthread_atfork`` handler before
    each fork.  The child reports any exception to the parent and
    always leaves through ``os._exit``, never back into the caller.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        code = 1
        try:
            payload = json.dumps(job()).encode()
            code = 0
        except BaseException as error:  # noqa: BLE001 - reported to the parent
            payload = json.dumps({"error": repr(error)}).encode()
        finally:
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(payload)
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    out = json.loads(payload) if payload else {"error": f"child exited with {status}"}
    if status != 0 or "error" in out:
        raise RuntimeError(f"forked sweep failed: {out.get('error', status)}")
    return out


def run_rounds(args, result: dict, rec) -> None:
    """``--pairs`` sweeps per engine, engines in turn, each in a forked child.

    Every child starts from the same state -- modules imported, inputs
    built, nothing run -- the state of a fresh ``threaded``/``tier2``
    phase process that has just set up, so each sweep pays its engine's
    warm-up.
    """
    inputs, build = _build_inputs(args, None)
    result["ready"] = time.monotonic()
    if args.setup_only:
        return
    gc.collect()
    sweeps = {engine: [] for engine in PROFILE_ENGINES}
    for _ in range(args.pairs):
        for engine in PROFILE_ENGINES:
            sweeps[engine].append(_forked(
                lambda: _sweep(inputs, engine, lambda p, d: _timed_run(p, d, engine, None))
            ))
    result.update(
        sweeps=sweeps,
        build_s=build,
        peak_rss_mb=max(s["peak_rss_mb"] for runs in sweeps.values() for s in runs),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("cold", "warm") + PROFILE_ENGINES + ("rounds",))
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pairs", type=int, default=1,
                        help="rounds: sweeps per engine")
    args = parser.parse_args(argv)
    offline = args.phase in ("cold", "warm")
    if args.scale is None:
        args.scale = ORACLE_SCALE if offline else 1.0
    rec = Recorder() if args.trace else None
    result = {"phase": args.phase, "scale": args.scale}
    run_phase = run_offline if offline else run_rounds if args.phase == "rounds" else run_profile
    run_phase(args, result, rec)
    result["setup_s"] = result["ready"] - args.spawned_at
    result["peak_rss_mb"] = max(result.get("peak_rss_mb", 0.0), _peak_rss_mb())
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
