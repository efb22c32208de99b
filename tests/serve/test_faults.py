"""Fault injection: worker death, mid-stream disconnects, wire chaos.

Every test here asserts the same end state — merged profiles identical
to the offline fold of the same stream — because the service's whole
failure contract is "faults cost retries and latency, never data that
was acknowledged."
"""

import errno
import os
import pathlib
import threading
import time
import urllib.error

import pytest

from repro.serve import protocol as proto
from repro.serve import shard as shard_module
from repro.serve.shard import ShardCore

from tests.serve.harness import (
    DropFirstSend,
    DuplicateEverySend,
    ServeCluster,
    SwapAdjacentSends,
    assert_same_profile_state,
    make_sites,
    make_stream,
    offline_reference,
)


def _wait_for(predicate, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def test_kill_and_restore_loses_nothing_acked(tmp_path):
    """Everything flushed (= acked) survives a SIGKILL + restore."""
    events = make_stream(num_sites=8, num_events=1000, seed=5)
    with ServeCluster(
        shards=2,
        queue_size=16,
        checkpoint_interval=7,  # odd on purpose: WAL tail + snapshot both live
        snapshot_dir=str(tmp_path),
    ) as cluster:
        client = cluster.client("c1", stream="s")
        client.push_events(events[:500], batch_size=25)
        client.flush()
        cluster.kill_shard(0)
        cluster.restart_shard(0)
        client.push_events(events[500:], batch_size=25)
        client.flush()
        client.close()
        merged = cluster.merged_database()
    assert_same_profile_state(merged, offline_reference(events))


def test_kill_mid_ingest_recovers_via_retries(tmp_path):
    """Kill a shard while batches are in flight: the unacked window is
    re-delivered by the client, acked batches come back from disk, and
    the final state is exact."""
    events = make_stream(num_sites=8, num_events=1200, seed=6)
    with ServeCluster(
        shards=2,
        queue_size=8,
        checkpoint_interval=5,
        snapshot_dir=str(tmp_path),
    ) as cluster:
        cluster.set_shard_delay(0, 0.01)  # keep batches in flight at kill time
        failures = []

        def produce():
            try:
                client = cluster.client(
                    "c1", stream="s", retry_interval=0.1, timeout=30, window=8
                )
                client.push_events(events, batch_size=24)
                client.flush()
                client.close()
            except Exception as error:  # pragma: no cover - surfaced below
                failures.append(error)

        producer = threading.Thread(target=produce)
        producer.start()
        assert _wait_for(
            lambda: cluster.server.counters.get("serve.batches", 0) >= 5
        ), "producer never got going"
        dropped = cluster.kill_shard(0)
        cluster.log(f"killed mid-ingest; {dropped} queued batches dropped")
        time.sleep(0.1)
        cluster.set_shard_delay(0, 0.0)
        cluster.restart_shard(0)
        producer.join(timeout=60)
        assert not producer.is_alive(), "producer wedged after shard kill"
        assert not failures, failures
        merged = cluster.merged_database()
        stats = cluster.http_json("/stats")
    assert_same_profile_state(merged, offline_reference(events))
    assert stats["counters"]["serve.shard_kills"] == 1
    assert stats["counters"]["serve.shard_restarts"] == 1


def test_kill_with_a_definition_queued_redefines_on_restart(tmp_path):
    """A shard killed with a definition item still in its queue loses
    the item with the queue; the restart defines every session's sites
    on the rebuilt core again, so the client's resends of the batches
    that use those sites apply, and the fold is exact."""
    sites = make_sites(8)
    owned = [site for site in sites[4:] if proto.shard_for_site(site, 2) == 0]
    assert owned, "shard 0 must own one of the sites defined late"
    early = [(site, index % 5) for index, site in enumerate(sites[:4] * 6)]
    late = [(site, index % 3) for index, site in enumerate(sites * 6)]
    with ServeCluster(
        shards=2, queue_size=16, checkpoint_interval=None, snapshot_dir=str(tmp_path)
    ) as cluster:
        client = cluster.client("c1", stream="s", retry_interval=0.1, timeout=30)
        client.push_events(early, batch_size=8)
        client.flush()
        runner = cluster.server.runners[0]
        cluster.set_shard_delay(0, 30.0)  # shard 0 sits on the next item
        client.push_events(early[:8] + late, batch_size=8)
        assert _wait_for(lambda: runner.depth() >= 2), "no items queued"
        queued = cluster.call(lambda: [item[1] for item in runner.queue._queue])
        assert None in queued, "the late sites' definition item is not queued"
        cluster.kill_shard(0)
        cluster.set_shard_delay(0, 0.0)
        cluster.restart_shard(0)
        client.flush()
        client.close()
        merged = cluster.merged_database()
        stats = cluster.http_json("/stats")
    assert_same_profile_state(merged, offline_reference(early + early[:8] + late))
    assert stats["counters"].get("serve.poisoned_batches", 0) == 0


def test_failed_definition_is_defined_again_before_its_sites_are_used(
    tmp_path, monkeypatch
):
    """A definition whose journal write fails once (as on a full disk)
    defines nothing; the runner defines every session's sites again
    before its next item, so every batch is acked, the fold is exact,
    and the journal restores to the same state."""
    events = make_stream(num_sites=8, num_events=400, seed=31)
    real_append = ShardCore._journal_append
    failed = []

    def append_failing_once(core, record):
        if record[0] == shard_module._DEFINE and not failed:
            failed.append(core.index)
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_append(core, record)

    monkeypatch.setattr(ShardCore, "_journal_append", append_failing_once)
    with ServeCluster(
        shards=2, checkpoint_interval=None, snapshot_dir=str(tmp_path)
    ) as cluster:
        client = cluster.client("c1", stream="s", retry_interval=0.2, timeout=30)
        client.push_events(events, batch_size=25)
        client.flush()
        client.close()
        merged = cluster.merged_database()
        stats = cluster.http_json("/stats")
        cluster.stop(checkpoint=False)
    assert failed, "no definition was journaled"
    assert stats["counters"]["serve.failed_definitions"] == 1
    assert stats["counters"].get("serve.poisoned_batches", 0) == 0
    assert stats["counters"]["serve.acks"] == 16
    assert_same_profile_state(merged, offline_reference(events))

    with ServeCluster(shards=2, snapshot_dir=str(tmp_path), restore=True) as restored:
        merged = restored.merged_database()
    assert_same_profile_state(merged, offline_reference(events))


def test_failed_checkpoint_is_not_a_poisoned_batch(tmp_path, monkeypatch):
    """A checkpoint that fails (``os.replace`` raising once, as on a full
    disk) costs nothing acked: the triggering batch is acked, the old
    snapshot and the journal stay, the next batch does not re-attempt,
    and the next interval's checkpoint succeeds."""
    events = make_stream(num_sites=6, num_events=130, seed=23)
    batches = [events[start:start + 10] for start in range(0, len(events), 10)]
    real_replace = os.replace
    snapshot_replaces = []

    def replace_failing_once(src, dst):
        if str(dst).endswith(".snap"):
            snapshot_replaces.append(dst)
            if len(snapshot_replaces) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
        return real_replace(src, dst)

    monkeypatch.setattr(shard_module.os, "replace", replace_failing_once)

    def push(cluster, client, chunk):
        for batch in chunk:
            client.push_events(batch, batch_size=10)
        client.flush()  # every batch acked
        return cluster.http_json("/stats")  # runs after the shard's step

    with ServeCluster(
        shards=1, checkpoint_interval=4, snapshot_dir=str(tmp_path)
    ) as cluster:
        core = cluster.server.runners[0].core
        client = cluster.client("c1", stream="s")
        push(cluster, client, batches[:4])  # checkpoint 1 succeeds
        first_snapshot = core.snapshot_path.read_bytes()

        stats = push(cluster, client, batches[4:8])  # checkpoint 2 fails
        shard = stats["shards"][0]
        assert len(snapshot_replaces) == 2
        assert stats["counters"]["serve.acks"] == 8
        assert stats["counters"].get("serve.poisoned_batches", 0) == 0
        assert shard["counters"]["checkpoint_failures"] == 1
        assert shard["counters"]["checkpoints"] == 1
        assert core.snapshot_path.read_bytes() == first_snapshot
        assert not core.snapshot_path.with_suffix(".snap.tmp").exists()
        assert [record[2] for record in core._read_journal()] == [4, 5, 6, 7]

        stats = push(cluster, client, batches[8:9])  # no re-attempt
        assert len(snapshot_replaces) == 2
        assert stats["shards"][0]["counters"]["checkpoints"] == 1

        stats = push(cluster, client, batches[9:12])  # next interval succeeds
        assert len(snapshot_replaces) == 3
        assert stats["shards"][0]["counters"]["checkpoints"] == 2
        assert stats["shards"][0]["counters"]["checkpoint_failures"] == 1
        assert core._read_journal() == []

        push(cluster, client, batches[12:])  # a journal-only tail
        client.close()
        cluster.stop(checkpoint=False)

    with ServeCluster(
        shards=1, checkpoint_interval=4, snapshot_dir=str(tmp_path), restore=True
    ) as restored:
        merged = restored.merged_database()
    assert_same_profile_state(merged, offline_reference(events))


def test_checkpoint_starts_after_its_batch_is_acked(tmp_path, monkeypatch):
    """The batch that triggers a checkpoint is acked before the
    checkpoint begins: ``serve.acks`` already counts it on entry."""
    events = make_stream(num_sites=4, num_events=60, seed=24)
    acks_at_checkpoint = []
    real_checkpoint = ShardCore.checkpoint

    with ServeCluster(
        shards=1, checkpoint_interval=3, snapshot_dir=str(tmp_path)
    ) as cluster:
        def checkpoint(core):
            acks_at_checkpoint.append(cluster.server.counters.get("serve.acks", 0))
            real_checkpoint(core)

        monkeypatch.setattr(ShardCore, "checkpoint", checkpoint)
        cluster.push_events("c1", events, batch_size=10)  # six batches
        cluster.http_json("/stats")
    assert acks_at_checkpoint[:2] == [3, 6]


def test_restarting_a_live_shard_closes_its_journal(tmp_path):
    """A restart without a kill closes the live core before rebuilding
    it from snapshot + journal, and the stream stays exact."""
    events = make_stream(num_sites=8, num_events=400, seed=32)
    with ServeCluster(
        shards=2, checkpoint_interval=None, snapshot_dir=str(tmp_path)
    ) as cluster:
        client = cluster.client("c1", stream="s")
        client.push_events(events[:200], batch_size=25)
        client.flush()
        live = cluster.server.runners[0].core
        journal = live._wal_file
        assert journal is not None and not journal.closed
        cluster.restart_shard(0)
        assert cluster.server.runners[0].core is not live
        client.push_events(events[200:], batch_size=25)
        client.flush()
        client.close()
        merged = cluster.merged_database()
    assert journal.closed
    assert_same_profile_state(merged, offline_reference(events))


def test_failed_final_checkpoint_still_stops_every_shard(monkeypatch):
    """A final checkpoint failing on shard 0 (``os.replace`` raising
    ENOSPC) does not cut the stop short: shard 1 is still checkpointed,
    every journal is closed, the time-series collector is disabled and
    the temporary snapshot directory removed; then the error surfaces."""
    from repro.obs.timeseries import TIMESERIES

    real_replace = os.replace

    def replace_failing_shard_0(src, dst):
        if str(dst).endswith("shard-000.snap"):
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_replace(src, dst)

    with ServeCluster(
        shards=2, checkpoint_interval=None, timeseries_interval=1000
    ) as cluster:
        cluster.push_events("c1", make_stream(num_sites=8, num_events=200))
        cores = [runner.core for runner in cluster.server.runners]
        snapshot_dir = pathlib.Path(cluster.server.snapshot_dir)
        assert TIMESERIES.enabled
        monkeypatch.setattr(shard_module.os, "replace", replace_failing_shard_0)
        with pytest.raises(OSError) as raised:
            cluster.stop()
    assert raised.value.errno == errno.ENOSPC
    assert [core.counters["checkpoints"] for core in cores] == [0, 1]
    assert [core._wal_file for core in cores] == [None, None]
    assert not TIMESERIES.enabled
    assert not snapshot_dir.exists()


def test_disconnect_mid_batch_leaves_no_partial_fold():
    """A frame truncated by connection loss must apply zero events."""
    sites = make_sites(4)
    full_batches = [
        ([sites[0], sites[1], sites[0]], [1, 2, 1]),
        ([sites[2]], [7]),
    ]
    with ServeCluster(shards=2) as cluster:
        cluster.half_frame_disconnect(
            "ghost", full_batches, [sites[3], sites[0]], [99, 99]
        )
        assert _wait_for(
            lambda: cluster.server.counters.get("serve.events", 0) >= 4
        ), "complete batches never applied"
        time.sleep(0.2)  # give a partial fold every chance to appear
        merged = cluster.merged_database()
        stats = cluster.http_json("/stats")
    expected = offline_reference(
        [(site, value) for sites_, values in full_batches
         for site, value in zip(sites_, values)]
    )
    assert_same_profile_state(merged, expected)
    assert sites[3] not in merged  # the truncated batch's new site never appeared
    assert stats["counters"]["serve.events"] == 4


def test_dropped_frames_are_recovered_by_retry():
    events = make_stream(num_sites=6, num_events=300, seed=7)
    hook = DropFirstSend({1, 4})
    with ServeCluster(shards=2) as cluster:
        client = cluster.client(
            "c1", retry_interval=0.05, timeout=20, frame_hook=hook
        )
        client.push_events(events, batch_size=30)
        client.flush()
        client.close()
        merged = cluster.merged_database()
    assert hook.dropped == [1, 4]
    assert client.counters["retries"] >= 1
    assert_same_profile_state(merged, offline_reference(events))


def test_duplicated_frames_are_deduplicated():
    events = make_stream(num_sites=6, num_events=300, seed=8)
    hook = DuplicateEverySend()
    with ServeCluster(shards=2) as cluster:
        client = cluster.client("c1", timeout=20, frame_hook=hook)
        client.push_events(events, batch_size=30)
        client.flush()
        client.close()
        merged = cluster.merged_database()
        counters = cluster.http_json("/stats")["counters"]
    assert hook.duplicated == client.counters["batches"]
    # every second copy is either a full duplicate or a redundant retry
    assert (
        counters.get("serve.duplicate_batches", 0)
        + counters.get("serve.retried_batches", 0)
        >= 1
    )
    assert_same_profile_state(merged, offline_reference(events))


def test_reordered_frames_are_applied_in_order():
    events = make_stream(num_sites=6, num_events=300, seed=9)
    hook = SwapAdjacentSends()
    with ServeCluster(shards=2) as cluster:
        client = cluster.client(
            "c1", retry_interval=0.1, timeout=20, frame_hook=hook
        )
        client.push_events(events, batch_size=30)  # 10 batches: 5 swapped pairs
        client.flush()
        client.close()
        merged = cluster.merged_database()
        counters = cluster.http_json("/stats")["counters"]
    assert hook.swapped >= 4
    assert counters.get("serve.reordered_batches", 0) >= 1
    assert_same_profile_state(merged, offline_reference(events))


def test_client_reconnect_resumes_from_welcome():
    """Abort mid-stream, reconnect with the same identity, finish."""
    events = make_stream(num_sites=6, num_events=600, seed=10)
    with ServeCluster(shards=2) as cluster:
        client = cluster.client("c1", stream="s", timeout=20)
        client.push_events(events[:300], batch_size=30)
        client.flush()
        client.abort()  # hard drop, no goodbye
        client.connect()  # same object: unacked empty, welcome resyncs seq
        client.push_events(events[300:], batch_size=30)
        client.flush()
        client.close()
        merged = cluster.merged_database()
    assert_same_profile_state(merged, offline_reference(events))


def test_reconnect_resends_batches_lost_to_shard_kill(tmp_path):
    """A batch routed but killed out of a shard before journaling must
    stay above the welcome resume point, so a reconnecting client keeps
    and resends it (regression: it was dropped as durable and lost)."""
    events = make_stream(num_sites=8, num_events=600, seed=21)
    with ServeCluster(
        shards=2, checkpoint_interval=None, snapshot_dir=str(tmp_path)
    ) as cluster:
        # Retries effectively off: recovery may only come from the
        # reconnect handshake, which is exactly what is under test.
        client = cluster.client("c1", stream="s", timeout=30, retry_interval=30)
        client.push_events(events[:500], batch_size=25)
        client.flush()
        # Stall shard 1 so the final batch is routed (pending created,
        # sequence advanced) but never journaled there, then kill it.
        cluster.set_shard_delay(1, 30.0)
        client.push_events(events[500:], batch_size=100)  # one batch
        assert _wait_for(lambda: cluster.server.sessions["c1"].pending)
        cluster.kill_shard(1)
        client.abort()
        cluster.set_shard_delay(1, 0.0)
        cluster.restart_shard(1)
        client.connect()  # welcome.next must keep the lost batch buffered
        assert client.unacked >= 1
        client.flush()
        client.close()
        merged = cluster.merged_database()
    assert_same_profile_state(merged, offline_reference(events))


def test_malformed_batch_is_rejected_without_wedging_shards():
    """A binary batch body whose length disagrees with its header — here
    one event's bytes short — is refused at the wire boundary with an
    error frame; the shards never see it and healthy clients keep
    working afterwards."""
    events = make_stream(num_sites=6, num_events=200, seed=22)
    payload = proto.site_to_payload(make_sites(1)[0])
    body = proto.encode_frame(proto.batch(0, [0, 0], [1, 2]))[4:]
    with ServeCluster(shards=2) as cluster:
        replies = cluster.exchange_raw(
            proto.encode_frame(proto.hello("evil", ""))[4:],
            proto.encode_frame(proto.sites_frame(0, [payload]))[4:],
            body[:-12],
        )
        assert [message["t"] for message in replies] == ["welcome", "error"]
        assert "does not hold" in replies[-1]["message"]
        cluster.push_events("c1", events)
        merged = cluster.merged_database()
        stats = cluster.http_json("/stats")
    assert_same_profile_state(merged, offline_reference(events))
    assert stats["counters"].get("serve.poisoned_batches", 0) == 0
    assert stats["clients"]["evil"]["expected_seq"] == 0


def test_bad_query_params_return_400():
    """Malformed ?top / ?kind values are client errors, not 500s."""
    with ServeCluster(shards=1) as cluster:
        for path in ("/profile?top=abc", "/profile?kind=bogus", "/inspect?kind=nope"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                cluster.http(path)
            with excinfo.value:  # the error holds the response open
                assert excinfo.value.code == 400, path
