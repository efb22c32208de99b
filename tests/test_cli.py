"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import METRICS, TRACER, reset_logging


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_parses_scale(self):
        args = build_parser().parse_args(["run", "table-load-values", "--scale", "0.5"])
        assert args.experiment == "table-load-values"
        assert args.scale == 0.5

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "go"])
        assert args.variant == "train"
        assert args.kind == "load"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table-load-values" in out
        assert "fig-convergence" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "compress" in out and "147.vortex" in out

    def test_run_experiment(self, capsys):
        assert main(["run", "table-benchmarks", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Benchmark" in out

    def test_run_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "table-flying-pigs"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("shards", ["0", "256"])
    def test_serve_refuses_a_shard_count_outside_1_to_255(self, shards, capsys):
        assert main(["serve", "--shards", shards, "--port", "0", "--http-port", "0"]) == 1
        assert f"need 1 to 255 shards, got {shards}" in capsys.readouterr().err

    def test_profile_workload(self, capsys):
        assert main(["profile", "go", "--scale", "0.1", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out

    def test_profile_unknown_workload_fails_cleanly(self, capsys):
        assert main(["profile", "doom"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_profile_other_kind(self, capsys):
        assert main(["profile", "go", "--scale", "0.1", "--kind", "instruction"]) == 0

    def test_diff_command(self, capsys):
        assert main(["diff", "go", "--scale", "0.1", "--min-executions", "5"]) == 0
        out = capsys.readouterr().out
        assert "profile diff" in out
        assert "correlation" in out

    def test_report_command(self, capsys):
        assert main(["report", "gcc", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Value profile report" in out
        assert "Site classification" in out

    def test_run_with_json_export(self, tmp_path, capsys):
        out_file = tmp_path / "data.json"
        assert main(["run", "table-benchmarks", "--scale", "0.1", "--json", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["experiment"] == "table-benchmarks"
        assert "compress" in payload["data"]

    def test_profile_with_json_export(self, tmp_path, capsys):
        out_file = tmp_path / "profile.json"
        assert main(["profile", "go", "--scale", "0.1", "--json", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["workload"] == "go"
        assert payload["kind"] == "load"
        assert payload["sites"], "expected per-site metrics rows"
        site = payload["sites"][0]
        assert "site" in site and "executions" in site and "inv_top1" in site
        assert payload["total"]["executions"] > 0


class TestObservability:
    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        from repro.analysis import experiments

        # The L1 memo survives across main() calls within one process;
        # start cold so cache.misses / profile spans are observable.
        experiments.clear_caches()
        yield
        METRICS.disable()
        METRICS.reset()
        TRACER.disable()
        TRACER.drain()
        reset_logging()

    def test_run_writes_metrics_snapshot(self, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.json"
        code = main(
            ["run", "table-load-values", "--scale", "0.1", "--no-cache",
             "--metrics", str(metrics_file)]
        )
        assert code == 0
        snap = json.loads(metrics_file.read_text())
        assert snap["counters"]["profile.sites_created"] > 0
        assert snap["counters"]["machine.instructions"] > 0
        assert "experiment.table-load-values" in snap["timers"]
        # deterministic snapshots: comparable sections are key-sorted
        assert list(snap["counters"]) == sorted(snap["counters"])

    def test_run_writes_parseable_trace(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.jsonl"
        code = main(
            ["run", "table-load-values", "--scale", "0.1", "--no-cache",
             "--trace", str(trace_file)]
        )
        assert code == 0
        spans = [json.loads(line) for line in trace_file.read_text().splitlines()]
        assert spans, "expected at least one span"
        names = {s["name"] for s in spans}
        assert "experiment" in names
        # The replay era: a profiled run is one event capture plus a
        # replay of the stored stream, not a live profile-workload span.
        assert "capture-events" in names
        assert "replay-profile" in names
        # schema: every record closed with an id/timing, parent ids valid
        ids = {s["span_id"] for s in spans}
        assert len(ids) == len(spans), "span ids must be unique"
        for span in spans:
            assert span["duration_s"] >= 0.0
            assert span["t_start_s"] >= 0.0
            assert span["parent_id"] is None or span["parent_id"] in ids

    def test_output_byte_identical_with_obs_enabled(self, tmp_path, capsys):
        argv = ["run", "table-benchmarks", "--scale", "0.1"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(
            argv
            + ["--trace", str(tmp_path / "t.jsonl"), "--metrics", str(tmp_path / "m.json"),
               "--log-level", "debug"]
        ) == 0
        observed = capsys.readouterr().out
        assert observed == plain

    def test_log_level_writes_progress_to_stderr(self, capsys):
        assert main(
            ["run", "table-load-values", "--scale", "0.1", "--log-level", "info"]
        ) == 0
        err = capsys.readouterr().err
        assert "running experiment table-load-values" in err

    def test_obs_disabled_after_main_returns(self, tmp_path, capsys):
        main(["run", "table-load-values", "--scale", "0.1",
              "--metrics", str(tmp_path / "m.json")])
        assert not METRICS.enabled
        assert not TRACER.enabled

    def test_stats_from_metrics(self, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.json"
        main(["run", "table-sampling-accuracy", "--scale", "0.1", "--no-cache",
              "--metrics", str(metrics_file)])
        capsys.readouterr()
        assert main(["stats", "--metrics", str(metrics_file)]) == 0
        out = capsys.readouterr().out
        assert "Profile cache behavior" in out
        assert "sampling overhead" in out.lower()
        assert "thesis" in out.lower()

    def test_stats_profile_cache_counts_replayed_lookups(self, tmp_path, capsys):
        """A default run replays; its profile-cache table still counts
        every memo lookup, as an L1 hit or a miss."""
        metrics_file = tmp_path / "metrics.json"
        main(["run", "table-load-values", "--scale", "0.15", "--no-cache",
              "--metrics", str(metrics_file)])
        capsys.readouterr()
        assert main(["stats", "--metrics", str(metrics_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        table = lines[lines.index("Profile cache behavior"):]
        lookups, hits, misses = (int(cell) for cell in table[3].split()[:3])
        assert lookups == hits + misses > 0

    def test_stats_from_trace(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.jsonl"
        main(["run", "table-load-values", "--scale", "0.1", "--no-cache",
              "--trace", str(trace_file)])
        capsys.readouterr()
        assert main(["stats", "--trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "time sinks" in out.lower()
        # the actual work spans dominate self time
        assert "capture-events" in out

    def test_stats_without_inputs_fails(self, capsys):
        assert main(["stats"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_unreadable_metrics_fails(self, tmp_path, capsys):
        assert main(["stats", "--metrics", str(tmp_path / "missing.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestTelemetryCommands:
    """The PR-5 surfaces: --timeseries/--flight capture, stats --json,
    inspect, and dash."""

    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        from repro.analysis import experiments
        from repro.obs.flight import FLIGHT
        from repro.obs.timeseries import TIMESERIES

        experiments.clear_caches()
        yield
        METRICS.disable()
        METRICS.reset()
        TRACER.disable()
        TRACER.drain()
        TIMESERIES.disable()
        TIMESERIES.reset()
        FLIGHT.disable()
        FLIGHT.reset()
        reset_logging()

    def test_run_writes_timeseries_jsonl(self, tmp_path, capsys):
        series_file = tmp_path / "series.jsonl"
        code = main(
            ["run", "table-load-values", "--scale", "0.1", "--no-cache",
             "--timeseries", str(series_file),
             "--timeseries-interval", "1000"]
        )
        assert code == 0
        samples = [json.loads(line) for line in series_file.read_text().splitlines()]
        assert samples, "expected at least one sample"
        ticks = [s["tick"] for s in samples]
        assert ticks == sorted(ticks)
        assert any(s["counters"] for s in samples)

    def test_run_writes_timeseries_prometheus(self, tmp_path, capsys):
        series_file = tmp_path / "series.prom"
        code = main(
            ["run", "table-load-values", "--scale", "0.1", "--no-cache",
             "--timeseries", str(series_file),
             "--timeseries-interval", "1000"]
        )
        assert code == 0
        text = series_file.read_text()
        assert "# TYPE repro_" in text

    def test_run_writes_flight_dump(self, tmp_path, capsys):
        dump_file = tmp_path / "flight.jsonl"
        code = main(
            ["run", "table-load-values", "--scale", "0.1", "--no-cache",
             "--flight", "--flight-dump", str(dump_file)]
        )
        assert code == 0
        lines = dump_file.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["flight"] is True
        assert header["reason"] == "cli-exit"
        assert header["total_events"] > 0
        event = json.loads(lines[1])
        assert "site" in event and "value" in event and "tick" in event

    def test_telemetry_disabled_after_main_returns(self, tmp_path, capsys):
        from repro.obs.flight import FLIGHT
        from repro.obs.timeseries import TIMESERIES

        main(["run", "table-load-values", "--scale", "0.1",
              "--timeseries", str(tmp_path / "s.jsonl"), "--flight"])
        assert not TIMESERIES.enabled
        assert not FLIGHT.enabled

    def test_run_writes_jitlog_capture(self, tmp_path, capsys, monkeypatch):
        from repro.obs.jitlog import JITLOG, load_jitlog

        monkeypatch.setenv("REPRO_ENGINE", "tier2")
        journal_file = tmp_path / "jitlog.jsonl"
        map_file = tmp_path / "jit.map"
        code = main(
            ["run", "table-isa-specialization", "--scale", "0.1",
             "--no-cache", "--no-replay",
             "--jitlog", str(journal_file), "--jitlog-map", str(map_file)]
        )
        assert code == 0
        assert not JITLOG.enabled, "the journal must not leak past main()"
        header, events = load_jitlog(str(journal_file))
        assert header["jitlog"] is True and header["total_events"] > 0
        assert events and {"seq", "clock", "type", "program", "block"} <= set(events[0])
        assert any(e["type"] == "quicken" for e in events)
        for line in map_file.read_text().splitlines():
            start, size, symbol = line.split()
            int(start, 16), int(size, 16)
            assert symbol.startswith("t2_")

    def test_tier2_report_command(self, tmp_path, capsys):
        json_file = tmp_path / "deck.json"
        assert main(["tier2-report", "compress", "--json", str(json_file)]) == 0
        text = capsys.readouterr().out
        assert "tier-2 specialization journal" in text
        assert "Predicted vs observed invariance" in text
        payload = json.loads(json_file.read_text())
        assert payload["workload"] == "compress"
        assert payload["event_counts"].get("quicken", 0) >= 1
        assert payload["thrashing"], "compress shows a thrashing operand"

    def test_tier2_report_unknown_workload_fails_cleanly(self, capsys):
        assert main(["tier2-report", "no-such-workload"]) != 0
        assert "no-such-workload" in capsys.readouterr().err

    def test_stats_json_export(self, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.json"
        main(["run", "table-load-values", "--scale", "0.1", "--no-cache",
              "--metrics", str(metrics_file)])
        capsys.readouterr()
        json_file = tmp_path / "stats.json"
        assert main(
            ["stats", "--metrics", str(metrics_file), "--json", str(json_file)]
        ) == 0
        payload = json.loads(json_file.read_text())
        for key in ("interpreter", "cache", "tracestore", "sampling",
                    "counters", "gauges", "timers"):
            assert key in payload
        assert payload["interpreter"]["instructions"] > 0

    def test_stats_json_does_not_change_text(self, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.json"
        main(["run", "table-load-values", "--scale", "0.1",
              "--metrics", str(metrics_file)])
        capsys.readouterr()
        assert main(["stats", "--metrics", str(metrics_file)]) == 0
        plain = capsys.readouterr().out
        assert main(["stats", "--metrics", str(metrics_file),
                     "--json", str(tmp_path / "s.json")]) == 0
        assert capsys.readouterr().out == plain

    def test_inspect_overview(self, capsys):
        assert main(["inspect", "compress", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "TNV health" in out
        assert "drill down with --site N" in out

    def test_inspect_site_detail(self, capsys):
        assert main(["inspect", "compress", "--scale", "0.1", "--site", "0"]) == 0
        out = capsys.readouterr().out
        assert "TNV contents" in out
        assert "trajectory" in out

    def test_inspect_site_out_of_range(self, capsys):
        assert main(
            ["inspect", "compress", "--scale", "0.1", "--site", "9999"]
        ) == 2
        assert "out of range" in capsys.readouterr().err

    def test_dash_writes_html(self, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.json"
        main(["run", "table-load-values", "--scale", "0.1", "--no-cache",
              "--metrics", str(metrics_file)])
        capsys.readouterr()
        out_file = tmp_path / "dash.html"
        assert main(
            ["dash", "--metrics", str(metrics_file),
             "--bench-dir", str(tmp_path), "-o", str(out_file)]
        ) == 0
        html = out_file.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "repro-stats" in html
        assert str(out_file) in capsys.readouterr().out
