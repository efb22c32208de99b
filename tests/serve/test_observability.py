"""Serve-plane observability: /metrics, span trees, histograms, slow ops.

The contract under test is the PR 8 tentpole: a live Prometheus scrape
that works with no obs flag set, end-to-end trace propagation that
yields ONE coherent span tree even across shard death and client
reconnects (every server-side span parented under its batch's client
span), histograms whose merges survive shard generations, and the
slow-op log / shard-health surfaces in ``/stats``.
"""

import json

import pytest

from repro.obs.hist import Histogram
from repro.obs.trace import TRACER
from repro.serve.server import ServeServer

from tests.serve.harness import DropFirstSend, ServeCluster, make_stream


@pytest.fixture
def tracer():
    """The process tracer, enabled and drained/disabled around the test."""
    TRACER.enable()
    yield TRACER
    TRACER.drain()
    TRACER.disable()


def _span_tree(spans):
    """Index spans and assert structural validity: unique ids, no orphans."""
    by_id = {}
    for span in spans:
        assert span["span_id"] not in by_id, f"duplicate span id {span['span_id']}"
        by_id[span["span_id"]] = span
    for span in spans:
        parent = span["parent_id"]
        assert parent is None or parent in by_id, (
            f"orphan span {span['name']} ({span['span_id']}): "
            f"parent {parent} not in trace"
        )
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    return by_id, by_name


def _assert_serve_tree(spans, shards):
    """Every server-side span hangs under its batch's client span."""
    by_id, by_name = _span_tree(spans)
    batch_ids = {span["span_id"] for span in by_name.get("serve.batch", [])}
    assert batch_ids, "no client serve.batch spans recorded"
    for name in ("serve.enqueue", "serve.journal", "serve.fold", "serve.ack"):
        for span in by_name.get(name, []):
            assert span["parent_id"] in batch_ids, (
                f"{name} span {span['span_id']} not under a client batch span"
            )
    # each acked batch folded on every shard: journal/fold spans per shard
    assert len(by_name["serve.fold"]) == shards * len(by_name["serve.ack"])
    return by_name


# ----------------------------------------------------------------------
# /metrics scrape
# ----------------------------------------------------------------------


class TestMetricsEndpoint:
    def test_scrape_works_with_no_obs_flags(self):
        """The acceptance check: a live 2-shard ingest scrapes Prometheus
        text with e2e latency buckets and per-shard queue gauges, with
        the global obs registry never enabled."""
        with ServeCluster(shards=2) as cluster:
            cluster.push_events("c1", make_stream(num_sites=12, num_events=800))
            text = cluster.http("/metrics")
        lines = text.splitlines()
        assert "# TYPE repro_serve_batch_e2e histogram" in lines
        assert any(
            line.startswith('repro_serve_batch_e2e_bucket{le="') for line in lines
        )
        count = next(
            line for line in lines if line.startswith("repro_serve_batch_e2e_count")
        )
        assert int(count.split()[-1]) > 0
        for shard in (0, 1):
            assert f'repro_serve_shard_queue_depth{{shard="{shard}"}}' in text
            assert f'repro_serve_shard_up{{shard="{shard}"}} 1' in text
        assert any(line.startswith("repro_serve_batches ") for line in lines)

    def test_scrape_shows_zeroed_families_before_traffic(self):
        """Eager histogram creation: a scrape before any ingest already
        exposes every family, so dashboards don't 404 on cold starts."""
        with ServeCluster(shards=1) as cluster:
            text = cluster.http("/metrics")
        for family in (
            "repro_serve_batch_e2e",
            "repro_serve_journal_sync",
            "repro_serve_shard_fold",
            "repro_serve_http_request",
            "repro_serve_batch_events",
        ):
            assert f"# TYPE {family} histogram" in text
            assert f"{family}_count 0" in text

    def test_content_type_is_prometheus_text(self):
        import urllib.request

        with ServeCluster(shards=1) as cluster:
            url = f"http://127.0.0.1:{cluster.http_port}/metrics"
            with urllib.request.urlopen(url, timeout=10) as response:
                assert response.headers["Content-Type"].startswith("text/plain")


# ----------------------------------------------------------------------
# trace propagation
# ----------------------------------------------------------------------


class TestTracePropagation:
    def test_single_tree_inline(self, tracer):
        with ServeCluster(shards=2) as cluster:
            cluster.push_events("c1", make_stream(num_sites=10, num_events=600))
        by_name = _assert_serve_tree(tracer.drain(), shards=2)
        acked = len(by_name["serve.ack"])
        assert len(by_name["serve.batch"]) == acked
        assert len(by_name["serve.enqueue"]) == acked

    def test_tree_survives_shard_kill_and_restart(self, tracer, tmp_path):
        """SIGKILL-style shard death between pushes: spans from both shard
        generations join the same tree — no orphans, no duplicate ids."""
        with ServeCluster(shards=2, snapshot_dir=str(tmp_path)) as cluster:
            cluster.push_events("c1", make_stream(num_sites=10, num_events=400))
            cluster.checkpoint()
            cluster.kill_shard(0)
            cluster.restart_shard(0)
            cluster.push_events(
                "c2", make_stream(num_sites=10, num_events=400, seed=1)
            )
        _assert_serve_tree(tracer.drain(), shards=2)

    def test_tree_survives_dropped_frame_retry(self, tracer):
        """A dropped-then-retried batch reuses its deterministic span ids,
        so the retry cannot orphan children or duplicate the enqueue span."""
        with ServeCluster(shards=2) as cluster:
            hook = DropFirstSend([1, 3])
            cluster.push_events(
                "c1",
                make_stream(num_sites=8, num_events=600),
                batch_size=32,
                frame_hook=hook,
            )
            assert hook.dropped == [1, 3]
        _assert_serve_tree(tracer.drain(), shards=2)

    def test_disabled_tracer_records_nothing(self):
        with ServeCluster(shards=1) as cluster:
            cluster.push_events("c1", make_stream(num_events=200))
        assert TRACER.drain() == []

    def test_untraced_done_reports_carry_no_spans(self, monkeypatch):
        """Shard spans are built only while the tracer is on: untraced,
        every done-report's telemetry has an empty span list, and the
        server's histograms count exactly what they count traced."""
        reports = []
        on_done = ServeServer._on_done

        def spy(server, shard_index, client, seq, telemetry=None):
            reports.append(telemetry)
            return on_done(server, shard_index, client, seq, telemetry)

        monkeypatch.setattr(ServeServer, "_on_done", spy)
        counts = {}
        for traced in (False, True):
            reports.clear()
            if traced:
                TRACER.enable()
            try:
                with ServeCluster(shards=2) as cluster:
                    cluster.push_events(
                        "c1", make_stream(num_sites=8, num_events=640), batch_size=64
                    )
                    hists = cluster.server.hists
                    counts[traced] = {
                        name: hists[name].count
                        for name in ("serve.journal_sync", "serve.shard_fold", "serve.batch_e2e")
                    }
            finally:
                TRACER.drain()
                TRACER.disable()
            applied = [telemetry for telemetry in reports if telemetry is not None]
            assert len(applied) == 2 * 10  # every batch applied on both shards
            assert all(bool(telemetry["spans"]) is traced for telemetry in applied)
        assert counts[False] == counts[True] == {
            "serve.journal_sync": 20, "serve.shard_fold": 20, "serve.batch_e2e": 10,
        }


# ----------------------------------------------------------------------
# histograms across generations
# ----------------------------------------------------------------------


class TestServeHistograms:
    def test_client_hist_counts_every_acked_batch(self):
        with ServeCluster(shards=2) as cluster:
            client = cluster.push_events(
                "c1", make_stream(num_sites=8, num_events=640), batch_size=64
            )
        hist = client.hists["serve.client_batch_e2e"]
        assert hist.count == client.counters["batches"]
        assert hist.quantile(0.99) >= hist.quantile(0.5) > 0.0

    def test_fold_hists_accumulate_across_shard_generations(self, tmp_path):
        """Observations ride done-reports into server-side histograms, so
        a shard generation swap loses nothing already reported and the
        replacement keeps folding into the same family."""
        with ServeCluster(shards=1, snapshot_dir=str(tmp_path)) as cluster:
            cluster.push_events(
                "c1", make_stream(num_sites=8, num_events=320), batch_size=64
            )
            before = cluster.server.hists["serve.shard_fold"].count
            assert before > 0
            cluster.checkpoint()
            cluster.kill_shard(0)
            cluster.restart_shard(0)
            cluster.push_events(
                "c2",
                make_stream(num_sites=8, num_events=320, seed=1),
                batch_size=64,
            )
            after = cluster.server.hists["serve.shard_fold"].count
            assert after > before
            # the restarted shard's journal replay is muted: its private
            # hist only holds the post-restart live folds
            stats = cluster.http_json("/stats")
            shard_fold = stats["shards"][0]["hists"]["shard.fold"]
            assert shard_fold["count"] == after - before

    def test_stats_hists_merge_associatively(self):
        """The /stats histogram snapshots combine in any order — the
        property that lets an aggregator scrape several servers."""
        with ServeCluster(shards=2) as cluster:
            cluster.push_events("c1", make_stream(num_sites=8, num_events=400))
            stats = cluster.http_json("/stats")
        snaps = [shard["hists"]["shard.fold"] for shard in stats["shards"]]
        forward = Histogram.from_snapshot(snaps[0])
        forward.merge_snapshot(snaps[1])
        backward = Histogram.from_snapshot(snaps[1])
        backward.merge_snapshot(snaps[0])
        assert forward.snapshot() == backward.snapshot()
        assert forward.count == sum(snap["count"] for snap in snaps)


# ----------------------------------------------------------------------
# slow-op log + shard health
# ----------------------------------------------------------------------


class TestSlowOpsAndHealth:
    def test_zero_threshold_logs_every_fold_and_request(self):
        with ServeCluster(shards=1, slow_op_threshold=0.0) as cluster:
            cluster.push_events("c1", make_stream(num_events=200))
            stats = cluster.http_json("/stats")
        assert stats["slow_op_threshold"] == 0.0
        assert stats["counters"]["serve.slow_ops"] > 0
        ops = {record["op"] for record in stats["slow_ops"]}
        assert "shard0.fold" in ops
        for record in stats["slow_ops"]:
            assert record["seconds"] >= 0.0
            assert "op" in record and "detail" in record

    def test_default_threshold_logs_nothing_for_fast_ops(self):
        with ServeCluster(shards=1) as cluster:
            cluster.push_events("c1", make_stream(num_events=200))
            stats = cluster.http_json("/stats")
        assert stats["slow_ops"] == []
        assert "serve.slow_ops" not in stats["counters"]

    def test_stats_carries_shard_health(self, tmp_path):
        with ServeCluster(shards=2, snapshot_dir=str(tmp_path)) as cluster:
            cluster.push_events("c1", make_stream(num_sites=12, num_events=600))
            cluster.merged_database()  # a query folds the pending columns
            cluster.checkpoint()
            stats = cluster.http_json("/stats")
            snapshot_sizes = [
                (tmp_path / f"shard-{index:03d}.snap").stat().st_size
                for index in range(2)
            ]
        for shard, snapshot_size in zip(stats["shards"], snapshot_sizes):
            assert shard["journal_bytes"] == 0  # checkpoint truncated it
            assert shard["snapshot_bytes"] == snapshot_size
            assert shard["snapshot_age_s"] is not None
            assert shard["last_fold_age_s"] is not None
            assert shard["last_fold_tick"] > 0
            assert shard["hists"]["shard.fold"]["count"] > 0
            assert shard["hists"]["shard.checkpoint"]["count"] == 1
            assert shard["counters"]["checkpoint_failures"] == 0
            assert shard["alive"] is True
            flushes = shard["hists"]["shard.flush"]["count"]
            assert flushes >= 1
            assert shard["counters"]["flushes"] == flushes

    def test_journal_bytes_grow_until_checkpoint(self, tmp_path):
        with ServeCluster(shards=1, snapshot_dir=str(tmp_path)) as cluster:
            cluster.push_events("c1", make_stream(num_events=300))
            grown = cluster.http_json("/stats")["shards"][0]["journal_bytes"]
            assert grown > 0
            cluster.checkpoint()
            reset = cluster.http_json("/stats")["shards"][0]["journal_bytes"]
            assert reset == 0


# ----------------------------------------------------------------------
# live dashboard
# ----------------------------------------------------------------------


class TestLiveDashboard:
    def test_renders_against_running_cluster(self):
        from repro.obs.dash import render_live_dashboard

        with ServeCluster(shards=2, slow_op_threshold=0.0) as cluster:
            cluster.push_events("c1", make_stream(num_sites=12, num_events=600))
            cluster.checkpoint()
            html = render_live_dashboard(
                f"http://127.0.0.1:{cluster.http_port}"
            )
        for section in (
            "Shard health",
            "snapshot B",
            "Serve latency histograms",
            "serve.batch_e2e",
            "shard0.shard.checkpoint",
            "Producer sessions",
            "Slow operations",
            "raw /metrics scrape",
        ):
            assert section in html
        embedded = html.split('id="repro-live">')[1].split("</script>")[0]
        payload = json.loads(embedded)
        assert payload["healthz"]["shards"] == 2

    def test_unreachable_daemon_raises_oserror(self):
        from repro.obs.dash import render_live_dashboard

        with pytest.raises(OSError):
            render_live_dashboard("http://127.0.0.1:1", timeout=0.5)
