"""Multi-client serving smoke: 2 shards, 3 producers, live queries.

This is the CI face of ``docs/serving.md``: it stands up a sharded
serve cluster, streams three concurrent producers into it — one
replaying a *real* captured workload trace (compress/train) and two
synthetic value streams — while a query thread hits the HTTP surface
the whole time, then asserts the served ``/profile`` is byte-identical
to an offline fold of the exact same events.

The smoke also exercises the serve metrics plane end to end: the run
is traced (every producer batch must yield one coherent span tree with
all server-side spans under their client batch spans), ``/metrics`` is
scraped mid-ingest and at settle (latency buckets + per-shard gauges
asserted), and the headline numbers — ingest events/s, client-observed
p50/p99 batch e2e latency — land in ``benchmarks/results/
BENCH_serve.json`` and the consolidated ``BENCH_history.jsonl``.

A restore leg closes the run: it forces ``/checkpoint``, stops the
cluster with no final checkpoint, starts a second cluster with
``restore=True`` on the same snapshot directory, and requires every
producer's resume point, the ``/profile`` JSON and the deep profile
state to match the first cluster's.

Exit status is the verdict (assertions fail loudly); ``--log-dir``
captures the harness event log, the span trace, the final ``/metrics``
scrape and a machine-readable summary so CI can upload them as
artifacts.

Run directly (no pytest needed)::

    PYTHONPATH=src:. python benchmarks/serve_smoke.py --scale 0.1
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
import tempfile
import threading
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.analysis.experiments import load_events  # noqa: E402
from repro.core.tracestore import TARGET_KINDS  # noqa: E402
from repro.obs.hist import Histogram  # noqa: E402
from repro.obs.trace import TRACER  # noqa: E402

from benchmarks.helpers import RESULTS_DIR, append_history  # noqa: E402
from tests.serve.harness import (  # noqa: E402
    ServeCluster,
    assert_same_profile_state,
    make_stream,
    offline_reference,
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.1,
                        help="compress/train input scale (default 0.1)")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--queue-size", type=int, default=32)
    parser.add_argument("--batch-size", type=int, default=512)
    parser.add_argument("--synthetic-events", type=int, default=4000,
                        help="events per synthetic producer")
    parser.add_argument("--log-dir", default=None,
                        help="write harness log + summary JSON here")
    return parser.parse_args(argv)


def synthetic_stream(program: str, num_events: int, seed: int):
    """A synthetic producer stream on its own (disjoint) site space."""
    return [
        (dataclasses.replace(site, program=program), value)
        for site, value in make_stream(
            num_sites=10, num_events=num_events, seed=seed
        )
    ]


def restore_leg(args, snapshot_dir, producers, clients, expected_json, offline):
    """Restart on the stopped cluster's snapshots; nothing acked is lost."""
    with ServeCluster(
        shards=args.shards,
        queue_size=args.queue_size,
        snapshot_dir=snapshot_dir,
        restore=True,
    ) as restored:
        for client_id, stream, _ in producers:
            # Reconnecting names the session's stream (the /profile JSON
            # carries it) and checks the welcome resume point.
            client = restored.client(client_id, stream=stream)
            assert client._next_seq == clients[client_id]._next_seq, client_id
            client.close()
        restored_json = restored.http("/profile?format=json")
        restored_db = restored.merged_database()
    assert restored_json == expected_json, "restored /profile JSON diverged"
    assert_same_profile_state(restored_db, offline)


def main(argv=None) -> int:
    args = parse_args(argv)
    log_dir = pathlib.Path(args.log_dir) if args.log_dir else None
    if log_dir:
        log_dir.mkdir(parents=True, exist_ok=True)

    # The real-workload producer replays the same event stream the
    # offline pipeline folds (every profiled family, in trace order).
    trace = load_events("compress", "train", args.scale)
    compress_events = list(trace.events(list(TARGET_KINDS)))
    producers = [
        ("compress", "compress.train", compress_events),
        ("synth-1", "smoke.one",
         synthetic_stream("smoke1", args.synthetic_events, seed=101)),
        ("synth-2", "smoke.two",
         synthetic_stream("smoke2", args.synthetic_events, seed=202)),
    ]
    total_events = sum(len(events) for _, _, events in producers)
    print(f"serve smoke: {args.shards} shards, "
          f"{len(producers)} producers, {total_events} events")

    query_counts = {"stats": 0, "profile": 0, "metrics": 0, "depth_gauge_seen": 0}
    errors = []
    clients = {}
    snapshots = tempfile.TemporaryDirectory(prefix="repro-serve-smoke-")
    TRACER.enable()
    with ServeCluster(
        log_path=str(log_dir / "serve-smoke-harness.log") if log_dir else None,
        shards=args.shards,
        queue_size=args.queue_size,
        snapshot_dir=snapshots.name,
    ) as cluster:
        done = threading.Event()

        def produce(client_id, stream, events):
            try:
                clients[client_id] = cluster.push_events(
                    client_id, events, stream=stream,
                    batch_size=args.batch_size,
                )
            except Exception as error:  # surfaced after join
                errors.append(f"{client_id}: {error!r}")

        def query_while_ingesting():
            while not done.is_set():
                stats = cluster.http_json("/stats")
                query_counts["stats"] += 1
                # The depth gauge appears with the first routed batch.
                if "serve.queue_depth" in stats["gauges"]:
                    query_counts["depth_gauge_seen"] += 1
                cluster.http("/profile?kind=load&top=5")
                query_counts["profile"] += 1
                # The Prometheus endpoint must hold up under live load.
                cluster.http("/metrics")
                query_counts["metrics"] += 1
                time.sleep(0.02)

        threads = [
            threading.Thread(target=produce, args=spec, name=spec[0])
            for spec in producers
        ]
        querier = threading.Thread(target=query_while_ingesting)
        querier.start()
        ingest_t0 = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ingest_seconds = time.monotonic() - ingest_t0
        done.set()
        querier.join()
        if errors:
            raise SystemExit("producer failures: " + "; ".join(errors))

        # One settled poll: the depth gauge must be exported (it updates
        # with every routed batch; mid-ingest polls can miss it only when
        # the whole ingest outpaces the query thread).
        final_stats = cluster.http_json("/stats")
        if "serve.queue_depth" in final_stats["gauges"]:
            query_counts["depth_gauge_seen"] += 1

        # Settled /metrics scrape: the acceptance-criteria assertions.
        scrape = cluster.http("/metrics")
        assert "# TYPE repro_serve_batch_e2e histogram" in scrape
        assert 'repro_serve_batch_e2e_bucket{le="' in scrape
        e2e_count = int(next(
            line for line in scrape.splitlines()
            if line.startswith("repro_serve_batch_e2e_count")
        ).split()[-1])
        assert e2e_count > 0, "no batch e2e observations in the scrape"
        for shard in range(args.shards):
            assert f'repro_serve_shard_queue_depth{{shard="{shard}"}}' in scrape
            assert f'repro_serve_shard_up{{shard="{shard}"}} 1' in scrape

        merged = cluster.merged_database()
        got_json = cluster.http("/profile?format=json")
        counters = dict(cluster.server.counters)

        # Restore leg, first half: a forced checkpoint, then a crash-like
        # stop (no final checkpoint).
        restore_t0 = time.monotonic()
        assert cluster.http_json("/checkpoint") == {"checkpointed": args.shards}
        cluster.stop(checkpoint=False)
        restore_seconds = time.monotonic() - restore_t0

    # Span-tree validation: one coherent tree, every server-side span
    # under its batch's client span, ids unique, no orphans.
    spans = TRACER.drain()
    TRACER.disable()
    by_id, by_name = {}, {}
    for span in spans:
        assert span["span_id"] not in by_id, f"duplicate id {span['span_id']}"
        by_id[span["span_id"]] = span
        by_name.setdefault(span["name"], []).append(span)
    for span in spans:
        assert span["parent_id"] is None or span["parent_id"] in by_id, (
            f"orphan span {span['name']} ({span['span_id']})"
        )
    batch_ids = {span["span_id"] for span in by_name.get("serve.batch", [])}
    assert batch_ids, "tracing was on but no client batch spans recorded"
    for name in ("serve.enqueue", "serve.journal", "serve.fold", "serve.ack"):
        for span in by_name.get(name, []):
            assert span["parent_id"] in batch_ids, f"{name} not under a batch"
    span_counts = {name: len(group) for name, group in sorted(by_name.items())}

    # Client-observed batch e2e latency, merged across all producers.
    e2e = Histogram("latency")
    for client in clients.values():
        e2e.merge(client.hists["serve.client_batch_e2e"])

    # Offline control: one database folding every producer's events.
    # Producers own disjoint site sets, so cross-producer interleaving
    # cannot affect any per-site state; the database name mirrors the
    # server's merged-stream naming so the JSON is byte-comparable.
    all_events = [pair for _, _, events in producers for pair in events]
    streams = sorted(stream for _, stream, _ in producers)
    offline = offline_reference(all_events, name="+".join(streams))

    assert counters.get("serve.events") == total_events, counters
    assert query_counts["profile"] >= 1, "no queries landed mid-ingest"
    assert query_counts["depth_gauge_seen"] >= 1, "depth gauge never surfaced"
    assert_same_profile_state(merged, offline)
    expected_json = offline.to_json() + "\n"
    assert got_json == expected_json, "served /profile JSON diverged"

    restore_t0 = time.monotonic()
    restore_leg(args, snapshots.name, producers, clients, expected_json, offline)
    restore_seconds += time.monotonic() - restore_t0
    snapshots.cleanup()

    events_per_s = total_events / ingest_seconds if ingest_seconds else 0.0
    bench = {
        "name": "serve",
        "shards": args.shards,
        "events": total_events,
        "ingest_seconds": round(ingest_seconds, 6),
        "events_per_s": round(events_per_s, 1),
        "batch_e2e_p50_s": round(e2e.quantile(0.5), 6),
        "batch_e2e_p99_s": round(e2e.quantile(0.99), 6),
        "batches": e2e.count,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_serve.json").write_text(
        json.dumps(bench, indent=2, sort_keys=True) + "\n"
    )
    append_history("serve", "events_per_s", bench["events_per_s"])
    append_history("serve", "batch_e2e_p50_s", bench["batch_e2e_p50_s"])
    append_history("serve", "batch_e2e_p99_s", bench["batch_e2e_p99_s"])

    summary = {
        "shards": args.shards,
        "producers": len(producers),
        "events": total_events,
        "queries_mid_ingest": dict(query_counts),
        "counters": counters,
        "byte_identical": True,
        "restore_leg_s": round(restore_seconds, 3),
        "bench": bench,
        "span_counts": span_counts,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    if log_dir:
        (log_dir / "serve-smoke-summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        (log_dir / "serve-smoke-metrics.prom").write_text(scrape)
        with open(log_dir / "serve-smoke-spans.jsonl", "w") as handle:
            for span in spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
    print(
        "serve smoke: OK — served profile byte-identical to offline fold "
        f"and after a restore ({restore_seconds:.2f}s leg); "
        f"{len(spans)} spans in one tree, "
        f"{bench['events_per_s']:.0f} events/s, "
        f"p99 batch e2e {bench['batch_e2e_p99_s'] * 1e3:.1f}ms"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
