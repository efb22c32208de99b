"""Tests for the simulate-once/replay-many event-trace store.

The store's contract is strict: every replay view must be
*indistinguishable* from the live observer it replaces — same profile
database JSON, same per-site trace dicts (including iteration order and
cap/drop accounting), same global event order.  These tests pin that
contract on real workload streams, plus the serialization round-trip
the disk cache depends on.
"""

import pickle
import sys
import zlib
from array import array
from types import FunctionType

import pytest

from repro.analysis import experiments
from repro.core import diskcache, sites, tracestore
from repro.core.profile import ProfileDatabase
from repro.core.sites import Site
from repro.core.tracestore import (
    EventTrace,
    TraceCaptureObserver,
    TraceStoreError,
    replay_global_events,
    replay_profile,
    replay_site_traces,
)
from repro.errors import MachineError
from repro.isa import instrument
from repro.isa.instrument import (
    ALL_TARGETS,
    GlobalTraceCollector,
    ProfileTarget,
    ValueProfiler,
    ValueTraceCollector,
)
from repro.isa.machine import Machine
from repro.obs.flight import FLIGHT
from repro.obs.jitlog import JITLOG
from repro.obs.metrics import METRICS
from repro.workloads.harness import capture_workload_events
from repro.workloads.registry import get_workload, workload_names

from tests.serve.harness import profile_state

SCALE = 0.1
NAME = "compress"


@pytest.fixture(scope="module")
def captured():
    """One captured trace of the reference workload, shared module-wide."""
    workload = get_workload(NAME)
    program = workload.program()
    dataset = workload.dataset("train", scale=SCALE)
    capture = TraceCaptureObserver(program)
    machine = Machine(program, observer=capture)
    machine.set_input(dataset.values)
    result = machine.run()
    return EventTrace(
        program=NAME,
        variant="train",
        scale=SCALE,
        sites=capture.sites,
        site_ids=capture.site_ids,
        values=capture.values,
        result=result,
        dataset=dataset,
        call_pcs=capture.call_pcs,
    )


@pytest.fixture
def isolated_store(tmp_path, monkeypatch):
    """A fresh, enabled disk cache and an empty in-process memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    enabled = experiments.cache_enabled()
    experiments.set_cache_enabled(True)
    experiments.clear_caches()
    yield tmp_path
    experiments.clear_caches()
    experiments.set_cache_enabled(enabled)


def _live_machine(observer):
    workload = get_workload(NAME)
    machine = Machine(workload.program(), observer=observer)
    machine.set_input(workload.dataset("train", scale=SCALE).values)
    machine.run()


class TestSerialization:
    def test_payload_roundtrip_preserves_stream(self, captured):
        payload = pickle.loads(pickle.dumps(captured.to_payload()))
        restored = EventTrace.from_payload(payload)
        assert restored.sites == captured.sites
        assert restored.site_ids == captured.site_ids
        assert restored.values == captured.values
        assert restored.call_pcs == captured.call_pcs
        assert restored.pc_counts is None
        assert restored.program == NAME
        assert list(restored.result.output) == list(captured.result.output)

    def test_unknown_format_rejected(self, captured):
        payload = captured.to_payload()
        payload["format"] = 999
        with pytest.raises(TraceStoreError):
            EventTrace.from_payload(payload)

    def test_column_length_mismatch_rejected(self, captured):
        import zlib
        from array import array

        payload = captured.to_payload()
        truncated = array("q", list(captured.values)[:-1])
        payload["values"] = zlib.compress(truncated.tobytes(), 1)
        with pytest.raises(TraceStoreError):
            EventTrace.from_payload(payload)


class TestReplayEquivalence:
    @pytest.mark.parametrize(
        "targets",
        [
            (ProfileTarget.INSTRUCTIONS,),
            (ProfileTarget.LOADS,),
            (ProfileTarget.LOADS, ProfileTarget.MEMORY),
            tuple(ALL_TARGETS),
        ],
        ids=["instructions", "loads", "loads+memory", "all"],
    )
    def test_replay_profile_matches_live_profiler(self, captured, targets):
        live = ProfileDatabase(name=NAME)
        _live_machine(
            ValueProfiler(get_workload(NAME).program(), live, targets=targets)
        )
        replayed = replay_profile(captured, targets, name=NAME)
        assert replayed.to_json() == live.to_json()

    def test_replay_site_traces_matches_live_collector(self, captured):
        collector = ValueTraceCollector(
            get_workload(NAME).program(), targets=(ProfileTarget.LOADS,)
        )
        _live_machine(collector)
        traces, dropped = replay_site_traces(captured, (ProfileTarget.LOADS,))
        assert traces == collector.traces
        assert list(traces) == list(collector.traces), "site order differs"
        assert dropped == collector.dropped == 0

    def test_replay_site_traces_cap_matches_live_cap(self, captured):
        collector = ValueTraceCollector(
            get_workload(NAME).program(),
            targets=(ProfileTarget.INSTRUCTIONS,),
            max_per_site=5,
        )
        _live_machine(collector)
        traces, dropped = replay_site_traces(
            captured, (ProfileTarget.INSTRUCTIONS,), max_per_site=5
        )
        assert traces == collector.traces
        assert dropped == collector.dropped > 0

    def test_replay_global_events_matches_live_collector(self, captured):
        collector = GlobalTraceCollector(
            get_workload(NAME).program(),
            targets=(ProfileTarget.INSTRUCTIONS, ProfileTarget.LOADS),
            max_events=1000,
        )
        _live_machine(collector)
        (sites, site_ids, values), dropped = replay_global_events(
            captured,
            (ProfileTarget.INSTRUCTIONS, ProfileTarget.LOADS),
            max_events=1000,
        )
        # Replay hands out the trace's own site table; the live
        # collector numbers only the sites it saw.  Decoded, the two
        # event columns are the same.
        assert sites is captured.sites
        assert len(site_ids) == len(values) == len(collector.site_ids) == 1000
        assert [sites[sid] for sid in site_ids] == [
            collector.sites[sid] for sid in collector.site_ids
        ]
        assert values == collector.values
        assert dropped == collector.dropped > 0
        assert collector.sites == list(
            dict.fromkeys(collector.sites[sid] for sid in collector.site_ids)
        ), "live site table is not in first-appearance order"

    @pytest.mark.parametrize(
        "targets",
        [(ProfileTarget.MEMORY,), tuple(ALL_TARGETS)],
        ids=["memory", "all"],
    )
    def test_replay_global_events_uncapped_matches_live(self, captured, targets):
        collector = GlobalTraceCollector(get_workload(NAME).program(), targets=targets)
        _live_machine(collector)
        (sites, site_ids, values), dropped = replay_global_events(captured, targets)
        assert [sites[sid] for sid in site_ids] == [
            collector.sites[sid] for sid in collector.site_ids
        ]
        assert values == collector.values
        assert all(type(value) is int for value in values)
        assert dropped == collector.dropped == 0


def _runs_by_site(trace, targets):
    """Per-site runs grouped straight from the per-event stream: the
    oracle both gathers of ``site_values`` must reproduce."""
    runs = {}
    for site, value in trace.events(targets):
        runs.setdefault(site, []).append(value)
    return list(runs.items())


#: every family alone, all of them, and all of them keyed by call site.
GATHER_VIEWS = [((target,), False) for target in ProfileTarget] + [
    (tuple(ALL_TARGETS), False),
    (tuple(ALL_TARGETS), True),
]


@pytest.fixture(params=["numpy", "python"])
def gather(request, monkeypatch):
    """Run under one per-site gather (:func:`repro.core.columns.gather`):
    numpy's argsort, or the loop; the python leg hides numpy from the
    trace store's renumbering too."""
    from repro.core import columns, tracestore

    if request.param == "numpy":
        if columns._np is None:
            pytest.skip("numpy not installed")
    else:
        monkeypatch.setattr(columns, "_np", None)
        monkeypatch.setattr(tracestore, "_np", None)
    return request.param


class TestGatherEquivalence:
    """Both per-site gathers must replay byte-identically.

    ``EventTrace.site_values`` groups a trace by site with one stable
    argsort when numpy imports and with a per-event loop otherwise.
    Either way the runs are lists of Python ints, the sites come in
    first-appearance order, and every replay built on them matches
    the live profiler.
    """

    @pytest.mark.parametrize(
        "targets",
        [(ProfileTarget.LOADS,), tuple(ALL_TARGETS)],
        ids=["loads", "all"],
    )
    def test_replay_profile_matches_live(self, captured, gather, targets):
        live = ProfileDatabase(name=NAME)
        _live_machine(
            ValueProfiler(get_workload(NAME).program(), live, targets=targets)
        )
        replayed = replay_profile(captured, targets, name=NAME)
        assert replayed.to_json() == live.to_json()

    @pytest.mark.parametrize(
        "targets,context",
        GATHER_VIEWS,
        ids=[target.value for target in ProfileTarget] + ["all", "context"],
    )
    def test_site_values_equal_per_event_grouping(
        self, captured, gather, targets, context
    ):
        trace = captured.with_parameter_context() if context else captured
        runs = trace.site_values(targets)
        assert runs == _runs_by_site(trace, targets)
        assert all(type(run) is list for _, run in runs)
        assert all(type(value) is int for _, run in runs for value in run)


class TestValueTraceCollectorDropped:
    def test_uncapped_collection_drops_nothing(self):
        collector = ValueTraceCollector(get_workload(NAME).program())
        _live_machine(collector)
        assert collector.dropped == 0
        assert sum(len(t) for t in collector.traces.values()) > 0

    def test_cap_accounts_for_every_discarded_event(self):
        full = ValueTraceCollector(get_workload(NAME).program())
        _live_machine(full)
        capped = ValueTraceCollector(get_workload(NAME).program(), max_per_site=3)
        _live_machine(capped)
        total = sum(len(t) for t in full.traces.values())
        kept = sum(len(t) for t in capped.traces.values())
        assert capped.dropped == total - kept > 0
        assert all(len(t) <= 3 for t in capped.traces.values())


@pytest.mark.slow
class TestProvenanceSurfaced:
    def test_table_predictors_reports_trace_provenance(self):
        from repro.analysis import experiments

        result = experiments.run("table-predictors", scale=0.1)
        provenance = result.data["trace_provenance"]
        assert set(provenance) == set(experiments.programs())
        for info in provenance.values():
            assert info["source"] in ("replay", "simulation")
            assert info["events"] > 0
            assert info["dropped"] == 0


class TestCapturedRunResult:
    """A captured trace carries the uninstrumented run's result, so
    ``table-benchmarks`` reads its instruction counts from the store."""

    @pytest.mark.parametrize("name,variant", [("compress", "train"), ("li", "test")])
    def test_captured_result_equals_uninstrumented_run(self, name, variant):
        from repro.workloads.harness import capture_workload_events, run_workload

        trace = capture_workload_events(name, variant, scale=SCALE)
        expected = run_workload(name, variant, scale=SCALE)
        assert trace.result == expected
        assert EventTrace.from_payload(trace.to_payload()).result == expected
        assert trace.dataset == get_workload(name).dataset(variant, scale=SCALE)


def _capture_on(engine, name, variant):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_ENGINE", engine)
        return capture_workload_events(name, variant, scale=SCALE)


def _same_capture(trace, expected):
    assert trace.sites == expected.sites
    assert trace.site_ids == expected.site_ids
    assert trace.values == expected.values
    assert trace.call_pcs == expected.call_pcs
    assert trace.pc_counts == expected.pc_counts
    assert trace.result == expected.result
    assert trace.dataset == expected.dataset


def _profile_slots(database):
    """Every slot of every site profile, sites in the database's order."""
    return [(profile.site, profile_state(profile)) for profile in database]


CAPTURE_ENGINES = ("simple", "threaded", "tier2")
PROGRAM_INPUTS = [
    (name, variant) for name in workload_names() for variant in ("train", "test")
]


@pytest.fixture(scope="module")
def capture_columns():
    """Captures per (program, input, engine) and their live oracles, made once."""
    traces, pc_counts, context = {}, {}, {}

    def trace(name, variant, engine):
        key = (name, variant, engine)
        if key not in traces:
            traces[key] = _capture_on(engine, name, variant)
        return traces[key]

    def counted(name, variant):
        if (name, variant) not in pc_counts:
            workload = get_workload(name)
            machine = Machine(workload.program(), count_pcs=True)
            machine.set_input(workload.dataset(variant, scale=SCALE).values)
            machine.run()
            pc_counts[name, variant] = machine.pc_counts
        return pc_counts[name, variant]

    def live_context(name, variant):
        if (name, variant) not in context:
            workload = get_workload(name)
            database = ProfileDatabase(name=name)
            machine = Machine(
                workload.program(),
                observer=ValueProfiler(
                    workload.program(),
                    database,
                    targets=(ProfileTarget.PARAMETERS,),
                    parameter_context=True,
                ),
            )
            machine.set_input(workload.dataset(variant, scale=SCALE).values)
            machine.run()
            context[name, variant] = database
        return context[name, variant]

    yield trace, counted, live_context
    traces.clear()


@pytest.mark.parametrize("engine", CAPTURE_ENGINES)
@pytest.mark.parametrize("name,variant", PROGRAM_INPUTS)
class TestCaptureColumns:
    """Every engine captures the simple engine's event columns, and the
    call-pc and pc-count columns equal what live runs observe."""

    def test_pc_counts_equal_count_pcs_run(self, capture_columns, name, variant, engine):
        trace_of, counted, _ = capture_columns
        trace = trace_of(name, variant, engine)
        if engine == "tier2":
            # Counting would stop tier-2 quickening; the capture keeps its tier.
            assert trace.pc_counts is None
        else:
            assert list(trace.pc_counts) == counted(name, variant)

    def test_context_replay_equals_live_profiler(self, capture_columns, name, variant, engine):
        trace_of, _, live_context = capture_columns
        trace = trace_of(name, variant, engine)
        live = live_context(name, variant)
        replayed = replay_profile(
            trace, (ProfileTarget.PARAMETERS,), name=name, parameter_context=True
        )
        assert _profile_slots(replayed) == _profile_slots(live)
        assert replayed.to_json() == live.to_json()

    def test_columns_survive_payload_roundtrip(self, capture_columns, name, variant, engine):
        trace = capture_columns[0](name, variant, engine)
        restored = EventTrace.from_payload(pickle.loads(pickle.dumps(trace.to_payload())))
        assert restored.call_pcs == trace.call_pcs
        assert restored.pc_counts == trace.pc_counts
        _same_capture(restored, trace)

    def test_event_columns_equal_simple_capture(self, capture_columns, name, variant, engine):
        trace_of = capture_columns[0]
        trace = trace_of(name, variant, engine)
        expected = trace_of(name, variant, "simple")
        assert trace.sites == expected.sites
        assert [site.opcode for site in trace.sites] == [site.opcode for site in expected.sites]
        assert trace.site_ids == expected.site_ids
        assert trace.values == expected.values
        assert trace.call_pcs == expected.call_pcs


def _calls_into(modules, action):
    """``action()``'s result, and how many Python calls it made into
    ``modules`` or into :class:`Site`'s dataclass-generated methods."""
    files = {module.__file__ for module in modules}
    generated = {
        method.__code__ for method in vars(Site).values()
        if isinstance(method, FunctionType) and method.__code__.co_filename != sites.__file__
    }
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and (frame.f_code.co_filename in files or frame.f_code in generated):
            calls += 1

    sys.setprofile(count)
    try:
        result = action()
    finally:
        sys.setprofile(None)
    return result, calls


def _machine_capture(engine, budget=None):
    """An observer capturing ``NAME``/train on ``engine``, and its machine,
    run to its halt (first to ``budget`` instructions, when given)."""
    workload = get_workload(NAME)
    program = workload.program()
    capture = TraceCaptureObserver(program)
    machine = Machine(program, observer=capture, engine=engine)
    machine.set_input(workload.dataset("train", scale=SCALE).values)
    if budget is not None:
        with pytest.raises(MachineError, match="budget"):
            machine.run(max_instructions=budget)
    machine.run()
    return capture, machine


class TestFrameFreeCapture:
    """On the threaded and tier-2 engines a captured event runs no
    Python frame: what the capture calls into Python for is bounded by
    its sites, its calls and its program, never by its events."""

    @pytest.mark.parametrize("engine", ["threaded", "tier2"])
    def test_python_calls_do_not_grow_with_events(self, engine):
        def capture():
            observer, machine = _machine_capture(engine)
            return observer, machine, observer.sites

        (observer, machine, site_table), calls = _calls_into(
            (tracestore, instrument, sites), capture
        )
        budget = (2 * len(site_table) + machine.dynamic_calls
                  + 8 * len(machine.program.instructions))
        assert len(observer.values) > 5 * budget
        assert calls <= budget

    def test_metrics_count_every_captured_event(self):
        METRICS.reset()
        METRICS.enable()
        try:
            capture, _ = _machine_capture("threaded")
            counters = METRICS.snapshot()["counters"]
        finally:
            METRICS.disable()
            METRICS.reset()
        assert counters["profiler.events"] == len(capture.values)

    def test_flight_ring_gets_events_in_program_order(self):
        FLIGHT.enable()
        try:
            # A budget error exits midway; the run then continues.
            capture, _ = _machine_capture("threaded", budget=10_000)
            ring = [(site, value) for _, site, value in FLIGHT.events()]
            total = FLIGHT.total_events
        finally:
            FLIGHT.disable()
            FLIGHT.reset()
        events = list(zip(map(capture.sites.__getitem__, capture.site_ids), capture.values))
        assert total == len(events)
        assert ring == events[-len(ring):]


class TestCallPcColumn:
    def test_merged_replay_ignores_call_pcs(self, captured):
        live = ProfileDatabase(name=NAME)
        _live_machine(
            ValueProfiler(
                get_workload(NAME).program(), live, targets=(ProfileTarget.PARAMETERS,)
            )
        )
        replayed = replay_profile(captured, (ProfileTarget.PARAMETERS,), name=NAME)
        assert _profile_slots(replayed) == _profile_slots(live)

    @pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
    def test_length_mismatch_raises(self, captured, change):
        call_pcs = array("I", captured.call_pcs)
        if change < 0:
            call_pcs.pop()
        else:
            call_pcs.append(0)
        payload = captured.to_payload()
        payload["call_pcs"] = zlib.compress(call_pcs.tobytes(), 1)
        trace = EventTrace.from_payload(payload)
        with pytest.raises(TraceStoreError, match="call-pc column"):
            replay_profile(trace, (ProfileTarget.PARAMETERS,), parameter_context=True)


def _truncate(column):
    def corrupt(payload):
        payload[column] = payload[column][:-7]
    return corrupt


def _garbage(column):
    def corrupt(payload):
        payload[column] = b"not a zlib stream" * 4
    return corrupt


def _ragged(column):
    def corrupt(payload):
        payload[column] = zlib.compress(b"\x01\x02\x03", 1)
    return corrupt


def _drop(key):
    def corrupt(payload):
        del payload[key]
    return corrupt


def _format_1(payload):
    """The layout the first trace format wrote: no call pcs, no pc counts."""
    del payload["call_pcs"]
    del payload["pc_counts"]
    payload["format"] = 1


CORRUPTIONS = {
    "truncated-values": _truncate("values"),
    "garbage-values": _garbage("values"),
    "truncated-call-pcs": _truncate("call_pcs"),
    "garbage-pc-counts": _garbage("pc_counts"),
    "ragged-site-ids": _ragged("site_ids"),
    "ragged-call-pcs": _ragged("call_pcs"),
    "ragged-pc-counts": _ragged("pc_counts"),
    "missing-call-pcs": _drop("call_pcs"),
    "format-1": _format_1,
}


class TestCorruptEntries:
    """A malformed trace-store entry reads as a miss and is re-captured."""

    @pytest.fixture(scope="class")
    def fresh(self):
        return _capture_on("threaded", NAME, "train")

    @pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
    def test_from_payload_raises_trace_store_error(self, fresh, corrupt):
        payload = fresh.to_payload()
        corrupt(payload)
        with pytest.raises(TraceStoreError):
            EventTrace.from_payload(payload)

    @pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
    def test_corrupt_entry_is_recaptured(self, fresh, isolated_store, monkeypatch, corrupt):
        monkeypatch.setenv("REPRO_ENGINE", "threaded")
        assert fresh.pc_counts is not None
        payload = fresh.to_payload()
        corrupt(payload)
        path = diskcache.cache_path("events", (NAME, "train", SCALE))
        diskcache.cache_store(path, payload)

        captures = []

        def counting_capture(*args, **kwargs):
            captures.append(args)
            return capture_workload_events(*args, **kwargs)

        monkeypatch.setattr(experiments, "capture_workload_events", counting_capture)
        _same_capture(experiments.load_events(NAME, "train", SCALE), fresh)
        assert len(captures) == 1
        # The re-capture replaced the corrupt entry.
        _same_capture(EventTrace.from_payload(diskcache.cache_load(path)), fresh)


class TestTier2Capture:
    """A tier-2 capture keeps its tier: it quickens and counts no pcs."""

    @pytest.fixture
    def tier2_journaled(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "tier2")
        JITLOG.reset()
        JITLOG.enable()
        yield
        JITLOG.disable()
        JITLOG.reset()

    def test_capture_quickens_and_counts_no_pcs(self, tier2_journaled):
        trace = capture_workload_events(NAME, "train", scale=SCALE)
        assert any(event["type"] == "quicken" for event in JITLOG.events())
        assert trace.meta["engine"] == "tier2"
        assert trace.pc_counts is None

    @pytest.mark.slow
    def test_basic_blocks_render_as_on_simple_engine(
        self, isolated_store, tier2_journaled, monkeypatch
    ):
        replayed = experiments.run("table-basic-blocks", scale=SCALE).text
        assert any(event["type"] == "quicken" for event in JITLOG.events())
        assert experiments.load_events(NAME, "train", SCALE).pc_counts is None
        monkeypatch.setenv("REPRO_ENGINE", "simple")
        experiments.clear_caches()
        replay_before = experiments.replay_enabled()
        experiments.set_replay_enabled(False)
        try:
            fresh = experiments.run("table-basic-blocks", scale=SCALE).text
        finally:
            experiments.set_replay_enabled(replay_before)
        assert replayed == fresh
