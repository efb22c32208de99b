"""Unit tests for the tier-2 specialization journal (repro.obs.jitlog)."""

import json

import pytest

from repro.errors import ObsFileError
from repro.obs.jitlog import DEFAULT_CAPACITY, EVENT_TYPES, JitLog, load_jitlog
from repro.obs.metrics import METRICS


@pytest.fixture(autouse=True)
def _clean_metrics():
    METRICS.disable()
    METRICS.reset()
    yield
    METRICS.disable()
    METRICS.reset()


def _log(capacity=DEFAULT_CAPACITY) -> JitLog:
    log = JitLog()
    log.enable(capacity=capacity)
    return log


def test_emit_records_typed_events_in_order():
    log = _log()
    log.emit("hot", 10, "p", 4, count=8)
    log.emit("quicken", 11, "p", 4, mode="guarded", bindings=[[3, 7]])
    events = log.events()
    assert [e["seq"] for e in events] == [0, 1]
    assert [e["type"] for e in events] == ["hot", "quicken"]
    assert events[0] == {"seq": 0, "clock": 10, "type": "hot",
                         "program": "p", "block": 4, "count": 8}
    assert log.counts == {"hot": 1, "quicken": 1}
    assert log.total_events == 2
    assert log.dropped == 0


def test_unknown_event_type_fails_loudly():
    log = _log()
    with pytest.raises(ValueError, match="unknown jitlog event type"):
        log.emit("quickened", 0, "p", 0)


def test_ring_is_bounded_and_counts_drops():
    log = _log(capacity=4)
    for i in range(10):
        log.emit("deopt", i, "p", i)
    assert len(log) == 4
    assert log.total_events == 10
    assert log.dropped == 6
    # Oldest events drop first; seq numbering survives the trim.
    assert [e["seq"] for e in log.events()] == [6, 7, 8, 9]
    assert log.counts["deopt"] == 10


def test_enable_rejects_silly_capacity():
    log = JitLog()
    with pytest.raises(ValueError, match="capacity"):
        log.enable(capacity=0)


def test_disable_keeps_ring_readable():
    log = _log()
    log.emit("hot", 1, "p", 0)
    log.disable()
    assert not log.enabled
    assert len(log) == 1
    # Re-enabling resets for a fresh run.
    log.enable()
    assert len(log) == 0


def test_emit_bumps_metrics_counters_when_enabled():
    METRICS.reset()
    METRICS.enable()
    log = _log()
    log.emit("guard_fail", 5, "p", 2, reg=3, expected=1, observed=2)
    log.emit("guard_fail", 6, "p", 2, reg=3, expected=1, observed=9)
    snapshot = METRICS.snapshot()
    assert snapshot["counters"]["machine.tier2.jitlog.guard_fail"] == 2


def test_jsonl_round_trip(tmp_path):
    log = _log()
    log.emit("hot", 1, "p", 0, count=8)
    log.emit("quicken", 2, "p", 0, mode="fused", bindings=[])
    path = str(tmp_path / "jitlog.jsonl")
    log.write_jsonl(path, reason="test")
    header, events = load_jitlog(path)
    assert header["jitlog"] is True
    assert header["reason"] == "test"
    assert header["total_events"] == 2
    assert header["retained"] == 2
    assert header["dropped"] == 0
    assert header["counts"] == {"hot": 1, "quicken": 1}
    assert events == log.events()


@pytest.mark.parametrize(
    "line,text",
    [("{\"seq\": 1,", "not JSON: "), ("\"quicken\"", "a JSON string, not an object")],
    ids=["truncated", "not-an-object"],
)
def test_load_refuses_a_malformed_line(tmp_path, line, text):
    """A journal line that is not a JSON object raises the documented
    :class:`ObsFileError`, naming the file and the 1-based line."""
    log = _log()
    log.emit("hot", 1, "p", 0, count=8)
    path = str(tmp_path / "jitlog.jsonl")
    log.write_jsonl(path)
    with open(path, "a") as handle:
        handle.write(line + "\n")
    with pytest.raises(ObsFileError, match=f"line 3: {text}") as caught:
        load_jitlog(path)
    assert str(caught.value).startswith(f"{path}, line 3: ")


def test_jsonl_is_byte_stable(tmp_path):
    a, b = _log(), _log()
    for log in (a, b):
        log.emit("hot", 1, "p", 0, count=8, unstable=[2, 5])
        log.emit("reject", 1, "p", 0, reason="benefit", net=-1.5)
    pa, pb = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    a.write_jsonl(pa)
    b.write_jsonl(pb)
    assert open(pa, "rb").read() == open(pb, "rb").read()
    # Every line is sorted-keys JSON.
    for line in open(pa):
        record = json.loads(line)
        assert list(record) == sorted(record)


def test_merge_resequences_and_folds_counts():
    parent, worker = _log(), _log()
    parent.emit("hot", 1, "p", 0)
    worker.emit("hot", 5, "q", 2)
    worker.emit("deopt", 6, "q", 2, fails=3)
    parent.merge(worker.to_payload())
    events = parent.events()
    assert [e["seq"] for e in events] == [0, 1, 2]
    assert [e["program"] for e in events] == ["p", "q", "q"]
    # Worker clocks are preserved (worker-local event clocks are
    # deterministic in their own right).
    assert events[1]["clock"] == 5
    assert parent.counts == {"hot": 2, "deopt": 1}
    assert parent.total_events == 3


def test_merge_carries_worker_drops():
    parent, worker = _log(), _log(capacity=2)
    for i in range(5):
        worker.emit("deopt", i, "q", 0)
    parent.merge(worker.to_payload())
    assert len(parent) == 2
    assert parent.total_events == 5
    assert parent.dropped == 3


def test_merge_in_fixed_order_is_deterministic():
    def worker(name):
        log = _log()
        log.emit("quicken", 1, name, 0, mode="fused")
        return log.to_payload()

    payloads = [worker("a"), worker("b"), worker("c")]
    one, two = _log(), _log()
    for payload in payloads:
        one.merge(payload)
    for payload in payloads:
        two.merge(payload)
    assert one.events() == two.events()


def test_write_map_reflects_final_block_shape(tmp_path):
    log = _log()
    log.emit("quicken", 1, "p", 16, mode="guarded", pc_range=[16, 23],
             fused=8, bindings=[[3, 7], [5, 1]])
    log.emit("requicken", 2, "p", 16, bindings=[[3, 9]])
    log.emit("quicken", 3, "p", 40, mode="fused", pc_range=[40, 44],
             fused=5, bindings=[])
    log.emit("despecialize", 4, "p", 40, requickens=2)
    path = str(tmp_path / "jit.map")
    log.write_map(path)
    lines = open(path).read().splitlines()
    assert lines == [
        f"{16:x} {8:x} t2_p_b16_guarded1",
        f"{40:x} {5:x} t2_p_b40_fused0",
    ]


def test_event_types_catalog_is_closed():
    # The taxonomy the docs promise; a new event type must update both.
    assert EVENT_TYPES == {
        "hot", "quicken", "reject", "guard_fail", "deopt",
        "requicken", "despecialize", "preheat", "cache_hit", "cache_miss",
    }
