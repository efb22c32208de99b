"""Micro-benchmarks of the profiling core itself.

The paper reports profiling *overhead* (ATOM full value profiling slows
programs by an order of magnitude).  These benchmarks track the cost of
the same primitive operations in this implementation: recording into a
TNV table, recording into a full profile, simulating with and without
instrumentation, and sampled recording.  Each per-event benchmark has a
batched twin (``record_many`` / ``record_batch`` / buffered profiling)
so the speedup of the batched fast path is tracked over time.
"""

import random
import time
from array import array
from collections import Counter
from typing import Tuple

from helpers import append_history, write_bench_json

from repro.core import columns
from repro.core.metrics import ValueStreamStats
from repro.core.profile import ProfileDatabase
from repro.core.sampling import ConvergentSampling, SamplingProfiler
from repro.core.sites import load_site
from repro.core.tnv import TNVTable
from repro.core.tracestore import EventTrace, replay_profile
from repro.isa.instrument import ProfileTarget, ValueProfiler
from repro.isa.machine import Machine
from repro.serve.shard import ShardCore
from repro.workloads.registry import get_workload

_RNG = random.Random(20_250_705)
_VALUES = [_RNG.randrange(64) for _ in range(10_000)]
_SITE = load_site("bench", "main", 0)


def test_tnv_record_throughput(benchmark):
    def record_all():
        table = TNVTable()
        record = table.record
        for value in _VALUES:
            record(value)
        return table

    table = benchmark(record_all)
    assert table.total == len(_VALUES)
    write_bench_json(benchmark, "tnv_record")


def test_tnv_record_many_throughput(benchmark):
    def record_all():
        table = TNVTable()
        table.record_many(_VALUES)
        return table

    table = benchmark(record_all)
    assert table.total == len(_VALUES)
    write_bench_json(benchmark, "tnv_record_many")


def test_exact_stats_record_throughput(benchmark):
    def record_all():
        stats = ValueStreamStats()
        stats.record_many(_VALUES)
        return stats

    stats = benchmark(record_all)
    assert stats.total == len(_VALUES)


def test_profile_database_record_throughput(benchmark):
    def record_all():
        db = ProfileDatabase()
        for value in _VALUES:
            db.record(_SITE, value)
        return db

    db = benchmark(record_all)
    assert db.total_executions() == len(_VALUES)
    write_bench_json(benchmark, "database_record")


def test_profile_database_record_batch_throughput(benchmark):
    def record_all():
        db = ProfileDatabase()
        db.record_batch(_SITE, _VALUES)
        return db

    db = benchmark(record_all)
    assert db.total_executions() == len(_VALUES)
    write_bench_json(benchmark, "database_record_batch")


def test_sampled_record_throughput(benchmark):
    def record_all():
        profiler = SamplingProfiler(ConvergentSampling(burst=100, base_skip=900))
        for value in _VALUES:
            profiler.record(_SITE, value)
        return profiler

    profiler = benchmark(record_all)
    assert profiler.seen() == len(_VALUES)
    write_bench_json(benchmark, "sampled_record")


def test_sampled_record_batch_throughput(benchmark):
    def record_all():
        profiler = SamplingProfiler(ConvergentSampling(burst=100, base_skip=900))
        profiler.record_batch(_SITE, _VALUES)
        return profiler

    profiler = benchmark(record_all)
    assert profiler.seen() == len(_VALUES)
    write_bench_json(benchmark, "sampled_record_batch")


def test_tnv_record_grouped_throughput(benchmark):
    """The columnar fast path: pre-deduplicated pairs, no re-count."""
    interval = TNVTable().clear_interval
    chunks = [
        _VALUES[start : start + interval]
        for start in range(0, len(_VALUES), interval)
    ]
    groups = [(Counter(chunk), len(chunk)) for chunk in chunks]

    def record_all():
        table = TNVTable()
        for counts, n in groups:
            table.record_grouped(counts, n)
        return table

    table = benchmark(record_all)
    assert table.total == len(_VALUES)
    write_bench_json(benchmark, "tnv_record_grouped")


# ----------------------------------------------------------------------
# replay → fold throughput (the columnar hot path's headline number)
# ----------------------------------------------------------------------

_REPLAY_EVENTS = 400_000
_REPLAY_SITES = 30


def _synthetic_trace(events: int = _REPLAY_EVENTS, sites: int = _REPLAY_SITES) -> EventTrace:
    """A realistic interleaved trace: hot sites, skewed repetitive values."""
    rng = random.Random(20_260_807)
    site_objs = [load_site("bench", "replay", pc) for pc in range(sites)]
    site_ids = array("I", (rng.randrange(sites) for _ in range(events)))
    values = array("q", (rng.randrange(64) if rng.random() < 0.7 else rng.randrange(1 << 20) for _ in range(events)))
    return EventTrace(
        program="bench",
        variant="train",
        scale=1.0,
        sites=site_objs,
        site_ids=site_ids,
        values=values,
        result=None,
        dataset=None,
    )


_TARGETS = (ProfileTarget.LOADS,)


def _events_per_second(trace: EventTrace, fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(trace)
        best = min(best, time.perf_counter() - start)
    return len(trace) / best


def _replay_per_event(trace: EventTrace) -> ProfileDatabase:
    """The pre-fold per-event reference: one ``record`` call per event."""
    database = ProfileDatabase()
    record = database.record
    for site, value in trace.events(_TARGETS):
        record(site, value)
    return database


def test_replay_fold_throughput(benchmark, monkeypatch):
    """Replay→fold pipeline: the default replay, its numpy-free gather,
    and per-event replay.

    Every replay folds each site's run with the one ``Counter`` kernel;
    they differ in how ``EventTrace.site_values`` gathers the runs.
    Both replays must equal the per-event reference.  Emits
    ``BENCH_replay_fold.json`` with:

    * ``events_per_s_default`` / ``events_per_s_default_mean``: the
      default replay, timed by the benchmark (best / mean round); it
      gathers with numpy's argsort when ``numpy`` is true;
    * ``events_per_s_python``: the replay with numpy hidden from the
      gather (the per-event loop), best of five;
    * ``events_per_s_event``: one ``record`` call per event, best of
      five;
    * ``speedup_python_vs_event``: the ratio of those two.
    """
    trace = _synthetic_trace()
    reference = _replay_per_event(trace).to_json()

    def replay_default():
        return replay_profile(trace, _TARGETS)

    assert benchmark(replay_default).to_json() == reference
    event_eps = _events_per_second(trace, _replay_per_event)
    numpy_gather = columns._np is not None
    monkeypatch.setattr(columns, "_np", None)
    assert replay_profile(trace, _TARGETS).to_json() == reference
    python_eps = _events_per_second(trace, lambda t: replay_profile(t, _TARGETS))

    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    if stats is None:
        return
    # Best-vs-best: the other numbers are best-of-N, so the default
    # replay's uses the benchmark's min too.
    default_eps = len(trace) / stats.min
    write_bench_json(
        benchmark,
        "replay_fold",
        events=len(trace),
        sites=_REPLAY_SITES,
        numpy=numpy_gather,
        events_per_s_default=default_eps,
        events_per_s_default_mean=len(trace) / stats.mean,
        events_per_s_python=python_eps,
        events_per_s_event=event_eps,
        speedup_python_vs_event=python_eps / event_eps,
    )
    append_history("replay_fold", "events_per_s_default", default_eps)
    append_history("replay_fold", "events_per_s_python", python_eps)
    append_history("replay_fold", "events_per_s_event", event_eps)


# ----------------------------------------------------------------------
# serve shard: flush, checkpoint encode, restore
# ----------------------------------------------------------------------

_SHARD_SITES = 10_000
_SHARD_HOT = 100
_SHARD_WINDOW = 16_384
_SHARD_BATCH = 64
_SHARD_TAIL = 200


def _shard_window(rng: random.Random) -> Tuple[array, array]:
    """One flush window of a skewed serve-shaped stream: 85% of its
    events on 100 hot sites, the rest spread over 10,000 cold ones, so
    most of the window's runs are one event long; mostly small values."""
    ids = array("I", (
        rng.randrange(_SHARD_HOT) if rng.random() < 0.85 else rng.randrange(_SHARD_SITES)
        for _ in range(_SHARD_WINDOW)
    ))
    values = array("q", (
        rng.randrange(16) if rng.random() < 0.8 else rng.randrange(1 << 20)
        for _ in range(_SHARD_WINDOW)
    ))
    return ids, values


def _submit(core: ShardCore, ids: array, values: array, seq: int, journal: bool) -> int:
    """Submit two columns as one client's batches from ``seq``; returns the next seq."""
    for start in range(0, len(ids), _SHARD_BATCH):
        end = start + _SHARD_BATCH
        assert core.submit("c", seq, ids[start:end], values[start:end], journal=journal) == [seq]
        seq += 1
    return seq


def _warm_shard(directory) -> Tuple[ShardCore, int, random.Random]:
    """A shard holding a row for each of the 10,000 sites, every event
    folded; returns it, its next seq and the stream's generator."""
    rng = random.Random(20_261_022)
    core = ShardCore(0, str(directory), telemetry=False)
    sites = [load_site("bench", "shard", pc) for pc in range(_SHARD_SITES)]
    core.define("c", range(_SHARD_SITES), sites)
    every = array("I", range(_SHARD_SITES))
    seq = _submit(core, every, array("q", (pc % 7 for pc in every)), 0, journal=False)
    seq = _submit(core, *_shard_window(rng), seq, journal=False)
    assert len(core.db) == _SHARD_SITES
    return core, seq, rng


def test_shard_flush_throughput(benchmark, tmp_path):
    """One shard flush of a 16,384-event window over a warm 10,000-site
    shard: the gather and the database's recording of its runs."""
    core, seq, rng = _warm_shard(tmp_path)
    windows = [_shard_window(rng) for _ in range(4)]
    state = {"seq": seq, "round": 0}

    def setup():
        ids, values = windows[state["round"] % len(windows)]
        state["round"] += 1
        state["seq"] = _submit(core, ids, values, state["seq"], journal=False)
        return (), {}

    benchmark.pedantic(core.flush, setup=setup, rounds=20, warmup_rounds=1)
    assert sum(profile.executions for profile in core.db) == core.counters["events"]
    write_bench_json(benchmark, "shard_flush", events=_SHARD_WINDOW, sites=_SHARD_SITES)
    core.close()


def test_shard_checkpoint_encode(benchmark, tmp_path):
    """One checkpoint of a warm 10,000-site shard with exact statistics:
    pickling the client maps and the database, writing and renaming the
    snapshot, truncating the journal."""
    core, _, _ = _warm_shard(tmp_path)
    benchmark(core.checkpoint)
    write_bench_json(
        benchmark, "shard_checkpoint", sites=_SHARD_SITES,
        snapshot_bytes=core.snapshot_path.stat().st_size,
    )
    core.close()


def test_shard_restore(benchmark, tmp_path):
    """Restoring a warm 10,000-site shard from its snapshot and a
    200-batch journal tail, up to a database every event is folded into."""
    core, seq, rng = _warm_shard(tmp_path)
    core.checkpoint()
    ids, values = _shard_window(rng)
    tail = _SHARD_TAIL * _SHARD_BATCH
    _submit(core, ids[:tail], values[:tail], seq, journal=True)
    expected = core.db.to_json()
    core.close()

    def restore():
        restored = ShardCore(0, str(tmp_path), telemetry=False, restore=True)
        len(restored.db)
        restored.close()
        return restored

    assert benchmark(restore).db.to_json() == expected
    write_bench_json(benchmark, "shard_restore", sites=_SHARD_SITES, tail_batches=_SHARD_TAIL)


def _run_go(observer=None):
    workload = get_workload("go")
    dataset = workload.dataset("train", scale=0.1)
    machine = Machine(workload.program(), observer=observer)
    machine.set_input(dataset.values)
    return machine.run()


def test_simulator_uninstrumented(benchmark):
    result = benchmark(_run_go)
    assert result.halted
    write_bench_json(benchmark, "simulate")


def test_simulator_with_value_profiling(benchmark):
    workload = get_workload("go")

    def run():
        db = ProfileDatabase()
        observer = ValueProfiler(
            workload.program(), db, targets=(ProfileTarget.INSTRUCTIONS, ProfileTarget.LOADS)
        )
        return _run_go(observer)

    result = benchmark(run)
    assert result.halted
    write_bench_json(benchmark, "simulate_profiled")


def test_simulator_with_buffered_value_profiling(benchmark):
    workload = get_workload("go")

    def run():
        db = ProfileDatabase()
        observer = ValueProfiler(
            workload.program(),
            db,
            targets=(ProfileTarget.INSTRUCTIONS, ProfileTarget.LOADS),
            buffered=True,
        )
        # Machine.run flushes the buffers when the program halts.
        return _run_go(observer)

    result = benchmark(run)
    assert result.halted
    write_bench_json(benchmark, "simulate_profiled_buffered")
