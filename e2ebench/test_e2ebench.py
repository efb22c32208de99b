"""Self-tests of the benchmark: ``python3 -m pytest e2ebench -q``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import layers  # noqa: E402
import ledger  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(common.SRC))


# -- the open-loop scheduler --------------------------------------------


def test_latency_is_timed_from_the_due_time():
    loop = loadgen.OpenLoop(start=100.0, interval=0.5)
    loop.record_send(0, 100.0)
    loop.record_send(1, 101.25)  # a stall: sent 0.75 s after it was due
    loop.record_send(2, 101.3)
    loop.record_ack(0, 100.01)
    loop.record_ack(1, 101.3)
    loop.record_ack(2, 101.31)
    assert loop.latencies() == pytest.approx([0.01, 0.8, 0.31])
    assert loop.lateness() == pytest.approx([0.0, 0.75, 0.3])
    assert loop.send_latencies() == pytest.approx([0.01, 0.05, 0.01])


def test_never_acked_batch_is_infinitely_late():
    loop = loadgen.OpenLoop(start=0.0, interval=1.0)
    for k in range(4):
        loop.record_send(k, float(k))
    for k in (0, 1, 3):
        loop.record_ack(k, k + 0.002)
    latencies = loop.latencies()
    assert math.isinf(latencies[2])
    assert common.quantile(latencies, 0.5) == pytest.approx(0.002)
    assert math.isinf(common.quantile(latencies, 0.99))


def test_first_ack_wins_and_sends_stay_in_order():
    loop = loadgen.OpenLoop(start=0.0, interval=1.0)
    loop.record_send(0, 0.0)
    loop.record_ack(0, 0.5)
    loop.record_ack(0, 0.9)  # a duplicate ack after a resend
    assert loop.latencies() == [0.5]
    with pytest.raises(ValueError):
        loop.record_send(2, 2.0)


# -- the serve stream and its operations -------------------------------


def _traces():
    return {
        name: [((name, i % 3), i) for i in range(length)]
        for name, length in (("a", 10), ("b", 7))
    }


def test_stream_replays_each_program_in_order_from_a_seeded_offset():
    traces = _traces()
    stream = loadgen.make_stream(5, 12, 4, traces)
    assert stream == loadgen.make_stream(5, 12, 4, traces)
    assert stream != loadgen.make_stream(6, 12, 4, traces)
    assert len(stream) == 12 * 4
    following = {}
    for k in range(12):
        batch = stream[4 * k:4 * k + 4]
        name = batch[0][0][0]
        events = traces[name]
        start = events.index(batch[0])
        # one program per batch, its trace in order, wrapping at the end
        assert batch == [events[(start + i) % len(events)] for i in range(4)]
        # and the next batch of that program carries on where this one ended
        assert following.get(name, start) == start
        following[name] = (start + 4) % len(events)


def test_batches_intern_sites_in_first_appearance_order():
    sites, batches = loadgen.make_batches([("x", 1), ("y", 2), ("x", 3), ("z", 4)], 3)
    assert sites == ["x", "y", "z"]
    assert batches == [([0, 1, 0], [1, 2, 3]), ([2], [4])]


def test_a_failed_query_counts_as_one_operation():
    import http.server
    import threading

    class Refuse(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(500)
            self.end_headers()

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Refuse)
    serving = threading.Thread(target=server.serve_forever)
    serving.start()
    log, done = loadgen.QueryLog(), threading.Event()
    asker = threading.Thread(
        target=loadgen.query_loop,
        args=("127.0.0.1", server.server_address[1], 0.01, 0.0, done, log),
    )
    try:
        asker.start()
        while log.attempted < 3:
            done.wait(0.01)
    finally:
        done.set()
        asker.join()
        server.shutdown()
        serving.join()
        server.server_close()
    assert log.attempted >= 3
    assert len(log.failures) == log.attempted == len(log.seconds)


# -- host-adjusted times ---------------------------------------------------


def test_host_adjusted_scales_by_the_reference_loop():
    full = common.REFERENCE_S
    assert common.host_adjusted(3.0, [full, full]) == pytest.approx(3.0)
    # the host ran at half speed on average while the 3 s were measured
    assert common.host_adjusted(3.0, [full, 3 * full]) == pytest.approx(1.5)


def test_offline_reports_host_adjusted_passes():
    full = common.REFERENCE_S

    def passes(text="same"):
        return {
            phase: {"phase": phase, "wall_s": wall, "cpu_s": wall / 2, "ref_s": refs,
                    "digests": {"a": text}, "failures": {}, "attempted": 1,
                    "setup_s": 0.5, "peak_rss_mb": 100.0}
            for phase, wall, refs in (("cold", 4.0, [2 * full]), ("warm", 3.0, [full]))
        }

    result = run._offline_result(passes(), {"cold": [0.25], "warm": []})
    assert result["named"] == pytest.approx({"cold_s": 2.0, "warm_s": 3.0})
    assert (result["wall_s"], result["cpu_s"]) == pytest.approx((5.0, 2.5))
    assert result["measured"] == pytest.approx({"wall_s": 7.0, "cpu_s": 3.5})
    assert result["setup_samples"] == {"cold": [0.25, 0.5], "warm": [0.5]}
    assert result["failures"] == {}
    warm_differs = passes()
    warm_differs["warm"]["digests"] = {"a": "other"}
    assert run._offline_result(warm_differs, {"cold": [], "warm": []})["failures"] == {
        "warm a": "text differs from the cold pass"
    }


def test_profile_takes_each_engines_median_sweep():
    full = common.REFERENCE_S

    def sweep(seconds, slowdown=1.0, digest="d"):
        runs = [{"input": f"i{k}", "seconds": s, "cpu_s": s, "digest": digest}
                for k, s in enumerate(seconds)]
        return {"runs": runs, "failures": {}, "attempted": len(runs), "wall_s": sum(seconds),
                "cpu_s": sum(seconds), "ref_s": [slowdown * full], "instructions": 1_000_000}

    rounds = {
        "sweeps": {"threaded": [sweep([1.0, 3.0]), sweep([2.0, 6.0], slowdown=2.0),
                                sweep([1.0, 1.0])],
                   "tier2": [sweep([2.0, 2.0]), sweep([1.0, 9.0], digest="x")]},
        "build_s": 0.5, "peak_rss_mb": 12.0,
    }
    result = run._profile_result(rounds, [0.3, 0.4, 0.5])
    # threaded: adjusted sweeps 4, 4, 2 -> 4; tier2: 4, 10 -> 7
    assert result["wall_s"] == pytest.approx(4.0 + 7.0)
    assert result["named"]["threaded_mips"] == pytest.approx(0.25)
    assert result["measured"] == pytest.approx({"wall_s": 4.0 + 7.0, "cpu_s": 4.0 + 7.0})
    assert result["attempted"] == 10
    assert set(result["failures"]) == {"tier2#1 i0", "tier2#1 i1"}
    assert result["phases"]["tier2"] == {"wall_s": 7.0, "build_s": 0.5}
    assert run.setup_total(result["setup_samples"]) == 0.4


# -- self time and the ledger -------------------------------------------


def test_self_time_with_nested_and_overlapping_children():
    spans = [
        (0.0, 10.0, -1, "outer"),
        (1.0, 4.0, 0, "a"),      # overlaps the next child on [3, 4]
        (3.0, 6.0, 0, "b"),
        (2.0, 3.0, 1, "c"),      # nested in a: not a direct child of outer
        (9.0, 12.0, 0, "d"),     # runs past the parent: clipped to [9, 10]
        (20.0, 21.0, -1, "gc"),  # a root of its own
    ]
    totals = ledger.self_times(spans)
    assert totals["outer"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert totals["a"] == pytest.approx(3.0 - 1.0)
    assert totals["b"] == pytest.approx(3.0)
    assert totals["c"] == pytest.approx(1.0)
    assert totals["d"] == pytest.approx(3.0)
    assert totals["gc"] == pytest.approx(1.0)


def test_covered_merges_overlaps_once():
    assert ledger.covered((0, 10), [(1, 3), (2, 5), (4, 6), (8, 20)]) == pytest.approx(7.0)
    assert ledger.covered((0, 10), []) == 0.0


def test_rows_plus_unattributed_sum_to_wall():
    rows = ledger.ledger_rows({"x": 2.0, "y": 3.5}, wall=6.0)
    assert rows["unattributed"] == pytest.approx(0.5)
    assert sum(rows.values()) == pytest.approx(6.0)


def test_recorder_attributes_nested_calls_and_groups():
    ticks = iter(range(100))
    rec = ledger.Recorder(clock=lambda: float(next(ticks)))
    owner = types.SimpleNamespace()
    owner.inner = lambda: None
    owner.outer = lambda: owner.inner()
    rec.wrap(owner, "inner", "inner")
    rec.wrap(owner, "outer", "outer")
    owner.outer()
    owner.outer()
    rec.remove()
    totals = ledger.self_times(rec.spans())
    # clock ticks: outer 0..3 around inner 1..2, then 4..7 around 5..6
    assert totals == {"outer": pytest.approx(4.0), "inner": pytest.approx(2.0)}
    assert rec.groups() == 2
    assert list(rec.group) == [0, 0, 2, 2]


# -- wrappers are removed ------------------------------------------------


@pytest.mark.parametrize("table", ["PROFILE_WRAPS", "OFFLINE_WRAPS"])
def test_wrappers_are_removed_after_the_run(table):
    import phase

    rec = ledger.Recorder()
    phase.install_wraps(rec, getattr(phase, table))
    patches = rec.patches
    assert patches
    for owner, attr, original in patches:
        assert getattr(owner, attr) is not original
    rec.install_gc()
    rec.remove()
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, f"{owner}.{attr} still wrapped"
    assert rec._on_gc not in __import__("gc").callbacks


# -- metric names ----------------------------------------------------------


def _benchmark_json():
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_valid():
    names = [name for name, _, _ in layers.catalogue()] + list(run.END_TO_END_UNITS)
    assert common.check_names(names) == []
    assert len(set(names)) == len(names)
    assert len(layers.catalogue()) <= 128


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row) for row in layers.catalogue()
    ]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.MEASURE)


# -- smoke runs ----------------------------------------------------------------


def _bench(*args, cwd=common.ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "e2ebench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("workload", sorted(run.MEASURE))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_scale_smoke(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _benchmark_json()
    wanted = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "offline", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
