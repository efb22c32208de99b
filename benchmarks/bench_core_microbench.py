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
