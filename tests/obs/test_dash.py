"""Tests for the HTML dashboard and the bench-history trail it plots.

The dashboard's contract: self-contained HTML (inline CSS/SVG, no
external references) rendered from whichever artifacts exist, a bench
section comparing ``BENCH_history.jsonl`` against the committed
``BENCH_*.json`` baselines, and the same stats payload ``repro stats
--json`` writes embedded for scripting.
"""

import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.obs.dash import hbar, render_dashboard, sparkline

REPO = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture
def artifacts(tmp_path):
    """A minimal but complete set of dashboard inputs."""
    metrics = tmp_path / "metrics.json"
    metrics.write_text(
        json.dumps(
            {
                "counters": {
                    "cache.memory_hits": 3,
                    "cache.misses": 1,
                    "machine.instructions": 1_000,
                    "machine.runs": 2,
                },
                "gauges": {},
                "timers": {
                    "experiment.table-load-values": {
                        "count": 1,
                        "total_s": 1.5,
                        "max_s": 1.5,
                        "min_s": 1.5,
                    },
                    "machine.run": {
                        "count": 2,
                        "total_s": 0.5,
                        "max_s": 0.3,
                        "min_s": 0.2,
                    },
                },
            }
        )
    )
    series = tmp_path / "series.jsonl"
    with open(series, "w") as handle:
        for tick in (100, 200, 300):
            handle.write(
                json.dumps(
                    {"tick": tick, "counters": {"machine.instructions": tick * 3}, "gauges": {}}
                )
                + "\n"
            )
    bench_dir = tmp_path / "results"
    bench_dir.mkdir()
    (bench_dir / "BENCH_table-load-values.json").write_text(
        json.dumps({"name": "table-load-values", "mean_s": 1.0, "min_s": 0.9})
    )
    with open(bench_dir / "BENCH_history.jsonl", "w") as handle:
        for value, sha in ((1.00, "aaa1111"), (1.10, "bbb2222")):
            handle.write(
                json.dumps(
                    {
                        "bench": "table-load-values",
                        "metric": "mean_s",
                        "value": value,
                        "git_sha": sha,
                        "timestamp": 0,
                    }
                )
                + "\n"
            )
    return {
        "metrics": str(metrics),
        "timeseries": str(series),
        "bench_dir": str(bench_dir),
    }


class TestPrimitives:
    def test_sparkline_is_inline_svg(self):
        svg = sparkline([1.0, 3.0, 2.0])
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert "http" not in svg  # no external references

    def test_sparkline_needs_two_points(self):
        assert sparkline([1.0]) == ""

    def test_hbar_clamps(self):
        assert 'class="bar" width="160.0"' in hbar(2.0)
        assert 'class="bar" width="0.0"' in hbar(-1.0)


class TestRenderDashboard:
    def test_no_artifacts(self):
        html = render_dashboard()
        assert "no artifacts to report" in html

    def test_full_render_is_self_contained(self, artifacts):
        html = render_dashboard(
            metrics_path=artifacts["metrics"],
            timeseries_path=artifacts["timeseries"],
            bench_dir=artifacts["bench_dir"],
        )
        assert html.startswith("<!DOCTYPE html>")
        for marker in (
            "Per-experiment wall clock",
            "Cache &amp; replay hit rates",
            "Time series",
            "Bench trajectory vs baselines",
            "repro-stats",
        ):
            assert marker in html
        # Self-contained: no external stylesheet/script/image loads.
        for needle in ("http://", "https://", "<link", "src="):
            assert needle not in html

    def test_bench_delta_against_baseline(self, artifacts):
        html = render_dashboard(bench_dir=artifacts["bench_dir"])
        assert "+10.0%" in html  # 1.10 latest vs 1.00 baseline
        assert "bbb2222" in html

    def test_embedded_payload_parses(self, artifacts):
        html = render_dashboard(metrics_path=artifacts["metrics"])
        _, _, rest = html.partition('id="repro-stats">')
        embedded, _, _ = rest.partition("</script>")
        payload = json.loads(embedded)
        assert payload["cache"]["lookups"] == 4
        assert payload["interpreter"]["instructions"] == 1_000

    def test_missing_artifacts_degrade(self, tmp_path):
        html = render_dashboard(
            metrics_path=str(tmp_path / "nope.json"),
            timeseries_path=str(tmp_path / "nope.jsonl"),
            bench_dir=str(tmp_path / "nope"),
        )
        assert "no artifacts to report" in html


class TestBenchHistory:
    @pytest.fixture
    def helpers(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "bench_helpers_under_test", REPO / "benchmarks" / "helpers.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        monkeypatch.setattr(module, "RESULTS_DIR", tmp_path)
        yield module
        del sys.modules[spec.name]

    def test_append_history_records(self, helpers, tmp_path):
        helpers.append_history("table-x", "mean_s", 1.25, sha="abc1234")
        helpers.append_history("table-x", "mean_s", 1.30, sha="def5678")
        lines = (tmp_path / helpers.HISTORY_FILE).read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["value"] for r in records] == [1.25, 1.3]
        assert records[0]["git_sha"] == "abc1234"
        assert all(r["bench"] == "table-x" and r["metric"] == "mean_s" for r in records)

    def test_append_history_defaults_to_current_sha(self, helpers, tmp_path):
        helpers.append_history("table-y", "mean_s", 0.5)
        (record,) = [
            json.loads(line)
            for line in (tmp_path / helpers.HISTORY_FILE).read_text().splitlines()
        ]
        assert record["git_sha"]  # real sha inside the repo, "unknown" outside

    @pytest.fixture
    def checkout(self, tmp_path):
        """A throwaway repository with one source file and one result."""
        if shutil.which("git") is None:
            pytest.skip("git is not installed")
        repo = tmp_path / "checkout"
        (repo / "benchmarks" / "results").mkdir(parents=True)
        (repo / "main.py").write_text("print(1)\n")
        (repo / "benchmarks" / "results" / "BENCH_x.json").write_text("{}\n")

        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                 "-c", "commit.gpgsign=false", *args],
                cwd=repo, capture_output=True, text=True, check=True,
            ).stdout.strip()

        git("init", "-q")
        git("add", "-A")
        git("commit", "-q", "-m", "seed")
        return repo, git("rev-parse", "--short", "HEAD")

    def test_git_sha_of_clean_tree_is_bare(self, helpers, checkout):
        repo, sha = checkout
        assert helpers.git_sha(repo) == sha

    def test_git_sha_marks_edited_tracked_file_dirty(self, helpers, checkout):
        repo, sha = checkout
        (repo / "main.py").write_text("print(2)\n")
        assert helpers.git_sha(repo) == f"{sha}-dirty"

    def test_git_sha_ignores_rewritten_results(self, helpers, checkout):
        repo, sha = checkout
        (repo / "benchmarks" / "results" / "BENCH_x.json").write_text('{"mean": 1}\n')
        assert helpers.git_sha(repo) == sha
