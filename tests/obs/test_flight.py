"""Tests for the flight recorder.

The recorder's contract: a fixed-size ring that retains the most
recent events (oldest first on read-out), dumps with a provenance
header, and is written automatically by the experiment runner's
exception path so a crashed run leaves its last events on disk.
"""

import json

import pytest

from repro.analysis import experiments
from repro.core.sites import instruction_site
from repro.errors import ExperimentError, ObsFileError
from repro.obs.flight import FLIGHT, FlightRecorder, load_flight


@pytest.fixture
def recorder():
    rec = FlightRecorder()
    rec.enable(capacity=4)
    return rec


SITE = instruction_site("prog", "main", 0, "add")
OTHER = instruction_site("prog", "main", 4, "load")


class TestRing:
    def test_disabled_by_default(self):
        assert not FlightRecorder().enabled

    def test_records_in_order(self, recorder):
        recorder.record(SITE, 1)
        recorder.record(SITE, 2)
        assert recorder.events() == [(0, SITE, 1), (1, SITE, 2)]
        assert len(recorder) == 2
        assert recorder.total_events == 2

    def test_overflow_keeps_most_recent(self, recorder):
        for value in range(10):
            recorder.record(SITE, value)
        events = recorder.events()
        assert len(events) == 4  # capacity
        assert [tick for tick, _, _ in events] == [6, 7, 8, 9]
        assert [value for _, _, value in events] == [6, 7, 8, 9]
        assert recorder.total_events == 10

    def test_record_batch(self, recorder):
        recorder.record_batch(SITE, [10, 20])
        recorder.record_batch(OTHER, [30])
        assert [(s, v) for _, s, v in recorder.events()] == [
            (SITE, 10),
            (SITE, 20),
            (OTHER, 30),
        ]

    def test_enable_validates_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder().enable(capacity=0)

    def test_reset_rewinds(self, recorder):
        recorder.record(SITE, 1)
        recorder.reset()
        assert recorder.events() == []
        assert recorder.total_events == 0


class TestDump:
    def test_dump_header_and_events(self, recorder, tmp_path):
        for value in range(10):
            recorder.record(SITE, value)
        path = recorder.dump(str(tmp_path / "flight.jsonl"), reason="test")
        header, events = load_flight(path)
        assert header == {
            "flight": True,
            "reason": "test",
            "capacity": 4,
            "total_events": 10,
            "retained": 4,
            "dropped": 6,
        }
        assert [e["value"] for e in events] == [6, 7, 8, 9]
        assert events[0]["site"] == SITE.qualified_name()
        assert events[0]["kind"] == "instruction"
        assert recorder.last_dump == path

    def test_dump_is_valid_jsonl(self, recorder, tmp_path):
        recorder.record(SITE, ("tuple", "value"))  # non-JSON value reprs
        path = recorder.dump(str(tmp_path / "flight.jsonl"))
        for line in open(path):
            json.loads(line)

    @pytest.mark.parametrize(
        "damage,problem",
        [
            (lambda lines: ["{not json"] + lines[1:], (1, "not JSON: ")),
            (lambda lines: lines[:2] + ["", "[7]"] + lines[2:], (4, "a JSON array, not an object")),
        ],
        ids=["header-not-json", "event-not-an-object"],
    )
    def test_load_refuses_a_malformed_line(self, recorder, tmp_path, damage, problem):
        """A dump line that is not a JSON object raises the documented
        :class:`ObsFileError`, naming the file and the 1-based line."""
        for value in range(3):
            recorder.record(SITE, value)
        path = recorder.dump(str(tmp_path / "flight.jsonl"))
        lines = open(path).read().splitlines()
        with open(path, "w") as handle:
            handle.write("\n".join(damage(lines)) + "\n")
        line, text = problem
        with pytest.raises(ObsFileError, match=f"line {line}: {text}") as caught:
            load_flight(path)
        assert caught.value.path == path and caught.value.line == line

    def test_dump_on_crash_disabled_returns_none(self):
        assert FlightRecorder().dump_on_crash("anything") is None


class TestCrashDump:
    def test_experiment_raise_dumps_ring(self, tmp_path, monkeypatch):
        """The runner's exception path writes the ring before re-raising."""
        monkeypatch.chdir(tmp_path)

        def exploding(scale):
            FLIGHT.record(SITE, 42)
            raise RuntimeError("mid-run failure")

        experiments._ensure_loaded()
        monkeypatch.setitem(
            experiments._REGISTRY,
            "test-explode",
            experiments.Experiment("test-explode", "boom", "none", "none", exploding),
        )
        FLIGHT.enable(capacity=8)
        try:
            with pytest.raises(RuntimeError, match="mid-run failure"):
                experiments.run("test-explode")
        finally:
            FLIGHT.disable()
            FLIGHT.reset()
        dump = tmp_path / "flight-crash-test-explode.jsonl"
        assert dump.is_file()
        header, events = load_flight(str(dump))
        assert header["reason"] == "crash:test-explode"
        assert events[-1]["value"] == 42
        assert events[-1]["site"] == SITE.qualified_name()

    def test_no_dump_when_disabled(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ExperimentError):
            experiments.run("no-such-experiment")
        assert not list(tmp_path.glob("flight-crash-*.jsonl"))
