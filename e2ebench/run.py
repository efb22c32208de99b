"""End-to-end benchmark of the value-profiling reproduction.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload offline|profile|serve \\
        --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory for why each was chosen):

* ``offline`` -- the 20 deterministic experiments at scale 0.25, a cold
  pass that fills an empty private cache and a warm pass that reads it,
  each in a fresh process;
* ``profile`` -- the 8 programs on their train and test inputs at scale
  1.0 under the buffered value profiler, swept on the ``threaded`` and
  ``tier2`` engines in turn, each sweep in a fresh forked process, as
  many sweeps as ``--seconds`` buys; each engine's median sweep counts;
* ``serve`` -- ``repro serve`` in its own process under a seeded
  open-loop load with ``/profile`` queries alongside.

The times of ``offline`` and ``profile`` are host-adjusted: scaled by
how much slower than at full speed a fixed reference loop, sampled
between their operations, ran meanwhile (see ``common.host_adjusted``).

Every output is checked.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer ledger with
``--trace 1``.  The exit code is non-zero if any check failed, or if the
program's sources are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import layers  # noqa: E402
from common import host_adjusted, median, quantile  # noqa: E402

#: set-up is sampled this many times per process kind; the median counts.
SETUP_SAMPLES = 3
#: no phase process may run longer than this.
PHASE_TIMEOUT_S = 170.0
#: nominal seconds of one profile sweep on the host the benchmark was
#: written on: ``--seconds`` buys a fixed number of sweeps, so the
#: medians are always over the same number of them.
PROFILE_SWEEP_S = 6.0

#: serve: offered load, batch size, query rate, and the p99 ack limit.
SERVE_RATE_EPS = 60_000
#: the client's own default (``ServeClient.push_events``).
SERVE_BATCH = 1024
SERVE_QUERY_INTERVAL_S = 1.0
SERVE_P99_LIMIT_MS = 500.0
SERVE_STREAM = "serve-bench"


class BenchError(Exception):
    """A process under test failed to start, crashed or hung."""


class Context:
    def __init__(self, args, workdir: Path) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.smoke = args.smoke
        self.workdir = workdir
        self._serial = 0
        #: serve: the server's CPU and the generator's, when there are two.
        cpus = sorted(os.sched_getaffinity(0))
        self.serve_cpus = (cpus[0], cpus[1]) if len(cpus) >= 2 else (None, None)

    def fresh_dir(self, stem: str) -> Path:
        self._serial += 1
        path = self.workdir / f"{stem}-{self._serial}"
        path.mkdir(parents=True)
        return path


# ----------------------------------------------------------------------
# phase processes (offline, profile)
# ----------------------------------------------------------------------


def spawn_phase(ctx: Context, phase: str, cache: Path, args: Sequence[str] = ()) -> dict:
    """Run one phase (see phase.py) in a fresh process; its JSON result."""
    run_dir = ctx.fresh_dir(phase)
    out = run_dir / "result.json"
    cmd = [sys.executable, str(HERE / "phase.py"), phase, "--out", str(out), *args]
    if ctx.smoke:
        cmd += ["--scale", "0.02"]
    with open(run_dir / "log.txt", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd + ["--spawned-at", repr(spawned)],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=common.clean_env(cache),
            cwd=run_dir,
            # its own process group, so that the kill below reaches the
            # children a ``rounds`` process forks as well
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=PHASE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"phase {phase} exceeded {PHASE_TIMEOUT_S:.0f}s") from None
        finally:
            # Whatever is left of the group: the phase if it hung, or a
            # child it forked if it died mid-sweep.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0 or not out.exists():
        tail = (run_dir / "log.txt").read_text(errors="replace")[-2000:]
        raise BenchError(f"phase {phase} exited with {code}:\n{tail}")
    return json.loads(out.read_text())


def setup_total(samples: Dict[str, List[float]]) -> float:
    """Sum over the workload's kinds of process of each one's median set-up."""
    return sum(median(values) for values in samples.values())


OFFLINE_PHASES = ("cold", "warm")


def measure_offline(ctx: Context, trace: bool):
    """The untraced result, and with ``trace`` the traced one.

    Untraced and traced passes alternate (cold, cold, warm, warm), so
    the overhead is taken between neighbours in time.
    """
    modes = (False, True) if trace else (False,)
    caches = {mode: ctx.fresh_dir("cache") for mode in modes}
    setups = {phase: [] for phase in OFFLINE_PHASES}
    if not trace:
        # Spawns that stop once set up give the other set-up samples.
        for phase in OFFLINE_PHASES:
            for _ in range(SETUP_SAMPLES - 1):
                cache = ctx.fresh_dir("cache")
                setups[phase].append(spawn_phase(ctx, phase, cache, ["--setup-only"])["setup_s"])
    passes: Dict[bool, Dict[str, dict]] = {mode: {} for mode in modes}
    for phase in OFFLINE_PHASES:
        for mode in modes:
            result = spawn_phase(ctx, phase, caches[mode], ["--trace"] if mode else [])
            if not (ctx.smoke or result["oracle_checked"]):
                raise BenchError(f"phase {phase} ran off the digests' scale")
            passes[mode][phase] = result
    results = [_offline_result(passes[mode], setups) for mode in modes]
    return results[0], (results[1] if trace else None)


def _offline_result(passes: Dict[str, dict], setups) -> dict:
    cold, warm = passes["cold"], passes["warm"]
    # ``<phase> <experiment>`` -> why it failed; one entry per experiment.
    failures = {
        f"{phase} {eid}": why
        for phase, result in passes.items()
        for eid, why in result["failures"].items()
    }
    for eid, digest in cold["digests"].items():
        if warm["digests"].get(eid, digest) != digest:
            failures.setdefault(f"warm {eid}", "text differs from the cold pass")
    result = {
        "phases": passes,
        "attempted": cold["attempted"] + warm["attempted"],
        "failures": failures,
        "setup_samples": {phase: setups[phase] + [passes[phase]["setup_s"]] for phase in passes},
        "peak_rss_mb": max(cold["peak_rss_mb"], warm["peak_rss_mb"]),
    }
    if cold["ref_s"]:  # untraced: the host-adjusted figures
        adjusted = {
            key: {phase: host_adjusted(passes[phase][key], passes[phase]["ref_s"])
                  for phase in OFFLINE_PHASES}
            for key in ("wall_s", "cpu_s")
        }
        result.update(
            named={f"{phase}_s": adjusted["wall_s"][phase] for phase in OFFLINE_PHASES},
            wall_s=sum(adjusted["wall_s"].values()),
            cpu_s=sum(adjusted["cpu_s"].values()),
            measured={key: cold[key] + warm[key] for key in ("wall_s", "cpu_s")},
            ref_s=cold["ref_s"] + warm["ref_s"],
        )
    return result


PROFILE_ENGINES = ("threaded", "tier2")


def measure_profile(ctx: Context, trace: bool):
    """The untraced result, and with ``trace`` the traced one.

    Untraced, a ``rounds`` process builds the inputs and forks sweeps on
    both engines in turn, as many pairs as ``--seconds`` buys; two more
    spawns that stop once set up give the other set-up samples.  Traced,
    a traced process per engine runs after them.
    """
    cache = ctx.fresh_dir("cache")
    pairs = max(1, int(ctx.seconds // (len(PROFILE_ENGINES) * PROFILE_SWEEP_S)))
    rounds = spawn_phase(ctx, "rounds", cache, ["--pairs", str(pairs)])
    setups = [rounds["setup_s"]] + [
        spawn_phase(ctx, "rounds", cache, ["--setup-only"])["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    untraced = _profile_result(rounds, setups)
    if not trace:
        return untraced, None
    traced = {"phases": {}, "attempted": 0, "failures": {}}
    for engine in PROFILE_ENGINES:
        result = traced["phases"][engine] = spawn_phase(ctx, engine, cache, ["--trace"])
        traced["attempted"] += result["attempted"]
        for run in result["runs"]:
            why = result["failures"].get(run["input"])
            if why is None and untraced["digests"].get(run["input"]) != run["digest"]:
                why = "profile differs from the untraced sweeps'"
            if why is not None:
                traced["failures"][f"{engine} {run['input']}"] = why
    return untraced, traced


def _profile_result(rounds: dict, setups: List[float]) -> dict:
    """Each engine's median sweep, host-adjusted, over its sweeps."""
    sweeps = rounds["sweeps"]
    # Every sweep profiles the same inputs: the first threaded sweep is
    # the baseline, and any run whose profile differs fails.
    # ``<engine>#<sweep> <input>`` -> why; one entry per run.
    baseline = {run["input"]: run["digest"] for run in sweeps["threaded"][0]["runs"]}
    failures = {}
    for engine in PROFILE_ENGINES:
        for index, sweep in enumerate(sweeps[engine]):
            for run in sweep["runs"]:
                why = sweep["failures"].get(run["input"])
                if why is None and baseline.get(run["input"]) != run["digest"]:
                    why = "profile differs from the first threaded sweep's"
                if why is not None:
                    failures[f"{engine}#{index} {run['input']}"] = why
    # Each engine's median sweep, host-adjusted, is what counts.
    adjusted = {
        key: {engine: median([host_adjusted(sweep[key], sweep["ref_s"]) for sweep in sweeps[engine]])
              for engine in PROFILE_ENGINES}
        for key in ("wall_s", "cpu_s")
    }
    every = [sweep for engine in PROFILE_ENGINES for sweep in sweeps[engine]]
    return {
        # Median sweeps as measured: the reference a traced process is
        # held to.
        "phases": {
            engine: {"wall_s": median([s["wall_s"] for s in sweeps[engine]]),
                     "build_s": rounds["build_s"]}
            for engine in PROFILE_ENGINES
        },
        "digests": baseline,
        "attempted": sum(sweep["attempted"] for sweep in every),
        "failures": failures,
        "named": {
            f"{engine}_mips": sweeps[engine][0]["instructions"] / adjusted["wall_s"][engine] / 1e6
            for engine in PROFILE_ENGINES
        },
        "wall_s": sum(adjusted["wall_s"].values()),
        "cpu_s": sum(adjusted["cpu_s"].values()),
        "measured": {
            key: sum(median([s[key] for s in sweeps[engine]]) for engine in PROFILE_ENGINES)
            for key in ("wall_s", "cpu_s")
        },
        "ref_s": [ref for sweep in every for ref in sweep["ref_s"]],
        "setup_samples": {"rounds": setups},
        "peak_rss_mb": rounds["peak_rss_mb"],
    }


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

_SERVING = re.compile(r"ingest ([\w.:-]+):(\d+), http ([\w.:-]+):(\d+)")


def pinned(cpu: Optional[int]):
    """A ``preexec_fn`` that pins the child to ``cpu`` (None: any CPU)."""
    return None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))


class Server:
    """``repro serve`` in its own process, with its inline runtime."""

    def __init__(self, ctx: Context, cpu: Optional[int]) -> None:
        run_dir = ctx.fresh_dir("server")
        snapshots = run_dir / "snapshots"
        snapshots.mkdir()
        self._log = open(run_dir / "log.txt", "wb")
        cmd = [
            sys.executable, "-m", "repro", "serve", "--runtime", "inline",
            "--port", "0", "--http-port", "0", "--snapshot-dir", str(snapshots),
        ]
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=common.clean_env(ctx.fresh_dir("cache")),
            cwd=run_dir,
            preexec_fn=pinned(cpu),
        )
        try:
            line = self._read_line(timeout=60.0)
            match = _SERVING.search(line)
            if match is None:
                raise BenchError(f"server did not start: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.host = match.group(1)
        self.ingest_port = int(match.group(2))
        self.http_port = int(match.group(4))

    def _read_line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise BenchError("server printed nothing")
        return self.proc.stdout.readline().decode(errors="replace")

    def stop(self) -> None:
        """Graceful stop (SIGTERM), then kill; always waits for exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _client(server: Server, on_ack=None):
    from loadgen import timed_client_class

    client = timed_client_class()(
        server.host, server.ingest_port, client_id="bench",
        stream=SERVE_STREAM, on_ack=on_ack,
    )
    client.connect()
    return client


def serve_setup_probe(ctx: Context) -> float:
    server = Server(ctx, ctx.serve_cpus[0])
    try:
        client = _client(server)
        ready = time.monotonic() - server.spawned
        client.close(flush=False)
    finally:
        server.stop()
    return ready


def measure_serve(ctx: Context, trace: bool):
    """The untraced result, and with ``trace`` the traced one."""
    untraced = _serve_once(ctx, traced=False)
    return untraced, (_serve_once(ctx, traced=True) if trace else None)


def _serve_once(ctx: Context, traced: bool) -> dict:
    import loadgen
    from repro.obs.hist import Histogram
    from repro.serve import protocol
    from repro.serve.client import ClientError

    from ledger import Recorder, self_times

    rate = 5_000 if ctx.smoke else SERVE_RATE_EPS
    batches_total = max(1, int(ctx.seconds * rate / SERVE_BATCH))
    # Input preparation: not part of set-up.
    stream = loadgen.make_stream(ctx.seed, batches_total, SERVE_BATCH, loadgen.program_traces())
    sites, batches = loadgen.make_batches(stream, SERVE_BATCH)
    del stream
    # The generator's own heap must not stall it: a full collection of
    # the prepared inputs mid-run would show up as ack latency.
    gc.collect()
    gc.freeze()

    setups = [] if traced else [serve_setup_probe(ctx) for _ in range(SETUP_SAMPLES - 1)]
    loop = loadgen.OpenLoop(start=0.0, interval=SERVE_BATCH / rate)
    queries = loadgen.QueryLog()
    rec = Recorder() if traced else None
    server_cpu, generator_cpu = ctx.serve_cpus
    affinity = os.sched_getaffinity(0)
    if generator_cpu is not None:
        # This thread, and the query thread it starts, off the server's CPU.
        os.sched_setaffinity(0, {generator_cpu})
    server = Server(ctx, server_cpu)
    sampler = None
    try:
        client = _client(server, on_ack=loop.record_ack)
        setups.append(time.monotonic() - server.spawned)
        ids = client.define_sites(sites)
        if ids != list(range(len(sites))):
            raise BenchError("client interned sites out of order")
        if rec is not None:
            rec.wrap(protocol, "encode_frame", "serve.encode",
                     lambda r, a, k, out: r.count("serve.bytes_sent", len(out)))
        pid = server.proc.pid
        sampler = subprocess.Popen(
            [sys.executable, str(HERE / "sampler.py")],
            stdout=subprocess.PIPE,
            preexec_fn=pinned(server_cpu),
        )
        cpu0 = common.proc_cpu_s(pid)
        gen0 = time.process_time()
        loop.start = time.monotonic() + 0.05
        done = threading.Event()
        asker = threading.Thread(
            target=loadgen.query_loop,
            args=(server.host, server.http_port, SERVE_QUERY_INTERVAL_S,
                  loop.start + SERVE_QUERY_INTERVAL_S / 2, done, queries),
        )
        asker.start()
        inflight = []
        try:
            loadgen.produce(client, loop, batches, inflight)
        finally:
            done.set()
            asker.join()
        try:
            client.flush()
        except ClientError:
            pass  # never-acked batches count as infinitely late
        finished = time.monotonic()
        cpu = common.proc_cpu_s(pid) - cpu0
        gen_cpu = time.process_time() - gen0
        sampler.send_signal(signal.SIGTERM)
        ref_s = json.loads(sampler.communicate(timeout=30)[0] or "[]")
        if not ref_s:
            raise BenchError("the reference sampler took no samples")
        if rec is not None:
            rec.remove()
        stats_status, stats_body = loadgen.http_get(server.host, server.http_port, "/stats")
        status, served = loadgen.http_get(
            server.host, server.http_port, "/profile?format=json"
        )
        rss = common.proc_peak_rss_mb(pid)
        counters = dict(client.counters)
        client.close(flush=False)
    finally:
        if sampler is not None and sampler.poll() is None:
            sampler.kill()
            sampler.wait()
        server.stop()
        os.sched_setaffinity(0, affinity)
        gc.unfreeze()

    # ``batch <k>``, ``query <k>``, and the two checks after timing,
    # ``stats`` and ``fold`` -> why; one entry per operation.
    failures = {f"batch {k}": "never acked" for k in range(len(loop.sent)) if k not in loop.acked}
    failures.update(queries.failures)
    if stats_status != 200:
        failures["stats"] = f"/stats returned {stats_status}"
    expected = loadgen.offline_fold(sites, batches, loop.acked, SERVE_STREAM).to_json() + "\n"
    if status != 200 or served.decode() != expected:
        failures["fold"] = "/profile?format=json differs from the offline fold of the acked events"
    latencies = loop.latencies()
    acked_events = sum(len(batches[k][0]) for k in loop.acked)
    named = {
        "ack_p50_ms": quantile(latencies, 0.5) * 1e3,
        "ack_p99_ms": quantile(latencies, 0.99) * 1e3,
        "query_p50_ms": median(queries.seconds) * 1e3 if queries.seconds else math.inf,
        "capacity_eps": acked_events / host_adjusted(cpu, ref_s) if cpu > 0 else 0.0,
    }
    result = {
        "attempted": len(loop.sent) + queries.attempted + 2,
        "failures": failures,
        "named": named,
        "wall_s": finished - loop.start,
        "cpu_s": host_adjusted(cpu, ref_s),
        "measured": {"wall_s": finished - loop.start, "cpu_s": cpu},
        "ref_s": ref_s,
        "gen_cpu_s": gen_cpu,
        "setup_samples": {"server": setups},
        "peak_rss_mb": rss,
    }
    stats = json.loads(stats_body) if stats_status == 200 else {}
    hists = {name: Histogram.from_snapshot(snap) for name, snap in stats.get("hists", {}).items()}
    shards = stats.get("shards", [])
    journal = hists["serve.journal_sync"].total if "serve.journal_sync" in hists else 0.0
    fold = hists["serve.shard_fold"].total if "serve.shard_fold" in hists else 0.0
    http = hists["serve.http_request"].total if "serve.http_request" in hists else 0.0
    server_e2e = hists["serve.batch_e2e"].quantile(0.5) if "serve.batch_e2e" in hists else 0.0
    sent_to_ack = loop.send_latencies()
    layer_values = {
        "serve.retries": counters["retries"],
        "serve.flow_pauses": counters["flow_pauses"],
        "serve.gen_late_p99_ms": quantile(loop.lateness(), 0.99) * 1e3,
        "serve.inflight_max": max(inflight) if inflight else 0,
        "serve.wire_p50_ms": (median(sent_to_ack) - server_e2e) * 1e3 if sent_to_ack else 0.0,
        "serve.server_cpu_s": cpu,
        "serve.server_e2e_p50_ms": server_e2e * 1e3,
        "serve.journal_s": journal,
        "serve.fold_s": fold,
        "serve.query_s": http,
        "serve.server_other_s": cpu - journal - fold - http,
        "serve.wal_records": sum(s.get("counters", {}).get("wal_records", 0) for s in shards),
        "serve.checkpoints": sum(s.get("counters", {}).get("checkpoints", 0) for s in shards),
        "serve.http_p50_ms": (
            hists["serve.http_request"].quantile(0.5) * 1e3 if "serve.http_request" in hists else 0.0
        ),
        "serve.queries": stats.get("counters", {}).get("serve.queries", 0),
    }
    if rec is not None:
        layer_values["serve.encode_s"] = self_times(rec.spans()).get("serve.encode", 0.0)
        layer_values["serve.bytes_sent"] = rec.counters.get("serve.bytes_sent", 0)
    result["layers"] = layer_values
    return result


MEASURE = {"offline": measure_offline, "profile": measure_profile, "serve": measure_serve}

#: units of the workloads' own figures, printed before the result line.
NAMED_UNITS = {name: unit for name, unit, _ in layers.NAMED_ROWS}


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "wall_s": "s",
    "cpu_s": "s",
}


def end_to_end(result: dict) -> Dict[str, dict]:
    setup = setup_total(result["setup_samples"])
    if "ref_s" in result:
        # Set-up ran in the same stretch of host time as the samples.
        setup = host_adjusted(setup, result["ref_s"])
    values = {
        "setup_s": setup,
        "peak_rss_mb": result["peak_rss_mb"],
        "wall_s": result["wall_s"],
        "cpu_s": result["cpu_s"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(MEASURE))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not common.program_present():
        print(f"e2ebench: no program sources under {common.SRC}", file=sys.stderr)
        return 2
    common.scrub_repro_env()
    sys.path.insert(0, str(common.SRC))

    workdir = common.ROOT / ".bench_runs" / f"{args.workload}-{os.getpid()}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    ctx = Context(args, workdir)
    measure = MEASURE[args.workload]
    try:
        calibration = [common.calibrate()]
        result, traced = measure(ctx, trace=bool(args.trace))
        calibration.append(common.calibrate())
    except BenchError as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    failures = dict(result["failures"])
    if traced is not None:
        failures.update({f"traced {op}": why for op, why in traced["failures"].items()})
    attempted = result["attempted"] + (traced["attempted"] if traced else 0)
    for op, why in list(failures.items())[:20]:
        print(f"FAILED {op}: {why}")
    named = result["named"]
    print(f"{args.workload}: " + "  ".join(
        f"{name}={value:.4g} {NAMED_UNITS[name]}" for name, value in named.items()
    ))
    if args.workload == "serve":
        met = named["ack_p99_ms"] <= SERVE_P99_LIMIT_MS
        print(f"serve: ack p99 limit {SERVE_P99_LIMIT_MS:g} ms {'met' if met else 'MISSED'}")
    if "ref_s" in result:
        print(f"host speed: reference loop {median(result['ref_s']) * 1e3:.3f} ms median over "
              f"{len(result['ref_s'])} samples ({common.REFERENCE_S * 1e3:g} ms at full speed); "
              + "; ".join(f"{key} {result[key]:.4g} s reported, {value:.4g} s measured"
                          for key, value in result["measured"].items()))
    print("setup samples (s): " + json.dumps(result["setup_samples"]))
    print("host: " + json.dumps(dict(common.host_facts(), calibration_s=calibration)))
    if traced is None:
        metrics = end_to_end(result)
    else:
        metrics = layers.per_layer(args.workload, result, traced, median(calibration))
        for line in layers.ledger_lines(args.workload, metrics):
            print(line)
    bad = common.check_names(metrics)
    if bad:
        raise SystemExit(f"invalid metric names: {bad}")
    for metric in metrics.values():
        # A never-acked batch makes a latency infinite; JSON has no inf.
        if not math.isfinite(metric["value"]):
            metric["value"] = sys.float_info.max
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
