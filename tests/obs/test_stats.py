"""The replay-fold section of ``repro stats``."""

from repro.obs.stats import fold_stats, render_fold

SNAPSHOT = {
    "counters": {
        "tracestore.fold_events": 1_180_191,
        "tracestore.fold_sites": 9_652,
        "tracestore.fold_chunks": 10_003,
        "tracestore.replays": 56,
    },
    "gauges": {},
    "timers": {},
}


def test_fold_stats_reads_the_fold_counters():
    assert fold_stats(SNAPSHOT) == {
        "events_folded": 1_180_191,
        "sites_folded": 9_652,
        "runs_split": 10_003,
    }


def test_fold_stats_default_to_zero():
    assert fold_stats({"counters": {}}) == {
        "events_folded": 0,
        "sites_folded": 0,
        "runs_split": 0,
    }


def test_render_fold_shows_one_row_of_counts():
    text = render_fold(SNAPSHOT)
    lines = text.splitlines()
    assert lines[0] == "Replay fold (columnar hot path)"
    header = next(line for line in lines if "events folded" in line)
    assert header.split() == ["events", "folded", "sites", "runs", "split"]
    row = lines[-1].split()
    assert row == ["1180191", "9652", "10003"]
    assert "kernel" not in text and "active" not in text
