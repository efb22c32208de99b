"""Snapshot/restore: checkpoints, journal replay, and the golden test.

The contract: restore(snapshot + journal tail) reconstructs exactly the
state the server acked — so a rolling restart is invisible in every
query surface, byte for byte.
"""

import pickle
import shutil
import struct
import time
from array import array
from pathlib import Path

import pytest

from repro.core.profile import TNVConfig
from repro.core.sites import SiteKind
from repro.serve import protocol as proto
from repro.serve.shard import (
    JOURNAL_MAGIC,
    SNAPSHOT_FORMAT_VERSION,
    SNAPSHOT_MAGIC,
    ShardCore,
    ShardStateError,
    resume_seq,
)

from tests.serve.harness import (
    ServeCluster,
    assert_same_profile_state,
    db_state,
    make_sites,
    make_stream,
    object_graph_dumps,
    offline_reference,
)

#: a client's id for each synthetic site: its index in ``make_sites``.
SITE_IDS = {site: sid for sid, site in enumerate(make_sites(16))}

#: a snapshot and a journal written by a shard of format 3, the format
#: before sites were defined once, and by one of format 4, the format
#: before a shard's local ids were its database's site ids (each 40
#: events over 3 sites, 2 batches in the snapshot and 2 in the journal).
FORMATS = {3: Path(__file__).parent / "format3", 4: Path(__file__).parent / "format4"}


def _header(stamp=SNAPSHOT_FORMAT_VERSION, magic=SNAPSHOT_MAGIC):
    return b"%s %d\n" % (magic, stamp)


def _split_snapshot(path):
    """A snapshot's header line and its state, unpickled."""
    header, _, body = path.read_bytes().partition(b"\n")
    return header + b"\n", pickle.loads(body)


def _feed_core(core, events, seq_base=0, batch_size=20, client="c"):
    """Push a stream into one core as single-shard batches, each site
    defined before its first batch (defining it again maps nothing)."""
    seq = seq_base
    for start in range(0, len(events), batch_size):
        batch = events[start : start + batch_size]
        sites = list(dict.fromkeys(site for site, _ in batch))
        core.define(client, [SITE_IDS[site] for site in sites], sites)
        ids = array("I", [SITE_IDS[site] for site, _ in batch])
        values = array("q", [value for _, value in batch])
        assert core.submit(client, seq, ids, values) == [seq]
        seq += 1
    return seq


def test_core_checkpoint_restore_round_trip(tmp_path):
    events = make_stream(num_sites=6, num_events=500, seed=20)
    config = TNVConfig(capacity=6, steady=3, clear_interval=64)
    core = ShardCore(0, str(tmp_path), config=config, exact=True)
    seq = _feed_core(core, events[:300])
    core.checkpoint()
    _feed_core(core, events[300:], seq_base=seq)  # journal-only tail
    straight_state = db_state(core.db)
    applied = dict(core.applied)
    core.close()

    restored = ShardCore(0, str(tmp_path), config=config, exact=True, restore=True)
    assert db_state(restored.db) == straight_state
    assert restored.applied == applied
    assert restored.counters["restores"] == 1
    restored.close()


def test_core_restore_is_idempotent_and_dedups_overlap(tmp_path):
    """Crash between snapshot-rename and journal-truncate: the journal
    still holds pre-snapshot records, which replay as duplicates."""
    events = make_stream(num_sites=5, num_events=200, seed=21)
    core = ShardCore(0, str(tmp_path), exact=True)
    seq = _feed_core(core, events)
    # Snapshot *without* truncating the journal — the crash window.
    wal_bytes = core.wal_path.read_bytes()
    core.checkpoint()
    core.close()
    core.wal_path.write_bytes(wal_bytes)  # resurrect the stale journal

    restored = ShardCore(0, str(tmp_path), exact=True, restore=True)
    assert restored.counters["duplicates"] >= seq  # every record deduped
    assert_same_profile_state(restored.db, offline_reference(events))
    restored.close()


def test_core_restore_tolerates_torn_journal_tail(tmp_path):
    events = make_stream(num_sites=5, num_events=200, seed=22)
    core = ShardCore(0, str(tmp_path), exact=True)
    _feed_core(core, events)
    core.close()
    with open(core.wal_path, "ab") as handle:
        handle.write(b"\x00\x00\x10\x00partial-record-then-crash")
    restored = ShardCore(0, str(tmp_path), exact=True, restore=True)
    assert_same_profile_state(restored.db, offline_reference(events))
    restored.close()


@pytest.mark.parametrize("torn", [b"\x00\x00\x10\x00partial-record", None], ids=["record", "header"])
def test_a_restore_cuts_a_torn_journal_before_appending_to_it(tmp_path, torn):
    """A torn tail (or a torn header on a fresh journal) is cut off at
    restore, so the records appended after it replay at the next
    restore instead of being read as part of the torn one."""
    events = make_stream(num_sites=5, num_events=300, seed=28)
    core = ShardCore(0, str(tmp_path), exact=True)
    seq = _feed_core(core, events[:200]) if torn is not None else 0
    core.close()
    with open(core.wal_path, "ab") as handle:
        handle.write(torn if torn is not None else _header(magic=JOURNAL_MAGIC)[:9])
    restored = ShardCore(0, str(tmp_path), exact=True, restore=True)
    start = 200 if torn is not None else 0
    _feed_core(restored, events[start:], seq_base=seq)
    restored.close()
    again = ShardCore(0, str(tmp_path), exact=True, restore=True)
    assert_same_profile_state(again.db, offline_reference(events))
    again.close()


def test_restore_reads_object_graph_snapshot(tmp_path):
    """A snapshot whose database was pickled as an object graph, as
    every snapshot was before the columnar encoding, still restores
    and continues exactly."""
    events = make_stream(num_sites=6, num_events=500, seed=26)
    config = TNVConfig(capacity=6, steady=3, clear_interval=40)
    core = ShardCore(0, str(tmp_path), config=config, exact=True)
    seq = _feed_core(core, events[:300])
    core.checkpoint()
    header, payload = _split_snapshot(core.snapshot_path)
    payload["db"] = core.db  # the live database, not the decoded copy
    core.snapshot_path.write_bytes(header + object_graph_dumps(payload))
    core.close()

    restored = ShardCore(0, str(tmp_path), config=config, exact=True, restore=True)
    assert_same_profile_state(restored.db, offline_reference(events[:300], config=config))
    _feed_core(restored, events[300:], seq_base=seq)
    assert_same_profile_state(restored.db, offline_reference(events, config=config))
    restored.close()


def test_snapshot_identity_checks(tmp_path):
    core = ShardCore(0, str(tmp_path), exact=True)
    _feed_core(core, make_stream(num_sites=3, num_events=50, seed=23))
    core.checkpoint()
    core.close()
    wrong = tmp_path / "shard-001.snap"
    wrong.write_bytes(core.snapshot_path.read_bytes())
    with pytest.raises(ShardStateError, match="belongs to shard"):
        ShardCore(1, str(tmp_path), exact=True, restore=True)
    core.snapshot_path.write_bytes(_header() + b"not a pickle")
    with pytest.raises(ShardStateError, match="unreadable"):
        ShardCore(0, str(tmp_path), exact=True, restore=True)


@pytest.mark.parametrize("stamp", [1, 2, 3, 4])
def test_format_1_state_is_refused_not_replayed(tmp_path, stamp):
    """Shard state of an older format — a snapshot stamped 1 to 4, a
    journal stamped so, or a journal whose records are format 3's
    ``(client, seq, site_payloads, runs)`` or format 1's five fields —
    raises instead of being replayed into the profiles."""
    core = ShardCore(0, str(tmp_path), exact=True)
    _feed_core(core, make_stream(num_sites=3, num_events=40, seed=27))
    core.checkpoint()
    core.close()
    _, state = _split_snapshot(core.snapshot_path)
    core.snapshot_path.write_bytes(_header(stamp) + pickle.dumps(state))
    with pytest.raises(ShardStateError, match=f"unsupported snapshot format {stamp}"):
        ShardCore(0, str(tmp_path), exact=True, restore=True)

    core.snapshot_path.unlink()
    core.wal_path.write_bytes(_header(stamp, JOURNAL_MAGIC))
    with pytest.raises(ShardStateError, match=f"unsupported journal format {stamp}"):
        ShardCore(0, str(tmp_path), exact=True, restore=True)
    payload = proto.site_to_payload(make_stream(num_sites=1, num_events=1)[0][0])
    records = [("c", 0, [payload], [[5, 5]]), ("c", 1, [payload], [0], [7])]
    for record in records:
        _write_journal(core.wal_path, [pickle.dumps(record)])
        with pytest.raises(ShardStateError, match=f"not of format {SNAPSHOT_FORMAT_VERSION}"):
            ShardCore(0, str(tmp_path), exact=True, restore=True)


@pytest.mark.parametrize("name", ["shard-000.snap", "shard-000.wal"])
def test_state_written_by_a_format_3_shard_is_refused(tmp_path, name):
    """A snapshot or journal that a shard of format 3 wrote (committed
    under ``format3/``) is refused by its format before any of its
    state loads: neither has a header line."""
    shutil.copy(FORMATS[3] / name, tmp_path / name)
    expected = "no format header" if name.endswith(".snap") else "format 4 or earlier"
    with pytest.raises(ShardStateError, match=expected):
        ShardCore(0, str(tmp_path), exact=True, restore=True)


@pytest.mark.parametrize("name", ["shard-000.snap", "shard-000.wal"])
def test_state_written_by_a_format_4_shard_is_refused(tmp_path, name):
    """A snapshot or journal that a shard of format 4 wrote (committed
    under ``format4/``) is refused naming format 4 before any of its
    state loads: the snapshot's header says 4, and the journal has no
    header line."""
    shutil.copy(FORMATS[4] / name, tmp_path / name)
    expected = (
        "unsupported snapshot format 4 " if name.endswith(".snap") else "format 4 or earlier"
    )
    with pytest.raises(ShardStateError, match=expected):
        ShardCore(0, str(tmp_path), exact=True, restore=True)


def test_a_torn_journal_header_replays_nothing(tmp_path):
    """A crash while the first record of a fresh journal was written
    can leave part of the header line: nothing in it was acked."""
    core = ShardCore(0, str(tmp_path), exact=True)
    core.close()
    core.wal_path.write_bytes(_header(magic=JOURNAL_MAGIC)[:7])
    restored = ShardCore(0, str(tmp_path), exact=True, restore=True)
    assert len(restored.db) == 0 and restored.applied == {}
    restored.close()


#: a pickle naming a class this build lacks: unpickling it raises
#: ``AttributeError``, not ``UnpicklingError``.
_MISSING_CLASS = b"\x80\x04crepro.serve.shard\nNoSuchThing\n."


def _write_journal(path, bodies):
    """A journal of the current format holding ``bodies`` as its records."""
    path.write_bytes(
        _header(magic=JOURNAL_MAGIC)
        + b"".join(struct.pack(">I", len(body)) + body for body in bodies)
    )


@pytest.mark.parametrize(
    "body,error",
    [(b"n" * 22, "UnpicklingError"), (_MISSING_CLASS, "AttributeError")],
    ids=["not-a-pickle", "missing-class"],
)
def test_unreadable_journal_record_is_refused(tmp_path, body, error):
    """A whole journal record that does not unpickle names the journal
    and the record's byte offset; only a torn final record is skipped."""
    core = ShardCore(0, str(tmp_path), exact=True)
    core.close()
    good = pickle.dumps(("batch", "c", 0, array("I"), array("q")))
    _write_journal(core.wal_path, [good, body])
    offset = len(_header(magic=JOURNAL_MAGIC)) + struct.calcsize(">I") + len(good)
    with pytest.raises(ShardStateError) as caught:
        ShardCore(0, str(tmp_path), exact=True, restore=True)
    message = str(caught.value)
    assert str(core.wal_path) in message
    assert f"at byte {offset} " in message
    assert error in message


@pytest.mark.parametrize(
    "body,error",
    [(_MISSING_CLASS, "AttributeError"), (pickle.dumps([1, 2]), "holds a list")],
    ids=["missing-class", "not-a-dict"],
)
def test_unreadable_snapshot_is_refused(tmp_path, body, error):
    core = ShardCore(0, str(tmp_path), exact=True)
    core.close()
    core.snapshot_path.write_bytes(_header() + body)
    with pytest.raises(ShardStateError) as caught:
        ShardCore(0, str(tmp_path), exact=True, restore=True)
    message = str(caught.value)
    assert str(core.snapshot_path) in message
    assert error in message


def test_resume_seq_is_min_over_shards():
    assert resume_seq([]) == 0
    assert resume_seq([-1, -1]) == 0
    assert resume_seq([4, 7, 4]) == 5


def _golden_restore(tmp_path, config=None):
    """checkpoint → kill server → --restore, against an uninterrupted
    control run over the same stream; returns the events and the
    restored run's merged database."""
    events = make_stream(num_sites=10, num_events=1200, seed=24)
    snapdir = str(tmp_path / "snaps")
    kwargs = dict(shards=2, queue_size=16, checkpoint_interval=None, config=config)

    # Interrupted run: part 1 checkpointed, part 2 journal-only, then a
    # stop with no final checkpoint (the crash).
    with ServeCluster(snapshot_dir=snapdir, **kwargs) as first:
        client = first.client("c1", stream="synth.train")
        client.push_events(events[:700], batch_size=35)
        client.flush()
        first.checkpoint()
        client.push_events(events[700:900], batch_size=35)
        client.flush()
        client.close()
        first.stop(checkpoint=False)

    # Restored run finishes the stream.
    with ServeCluster(snapshot_dir=snapdir, restore=True, **kwargs) as second:
        client = second.client("c1", stream="synth.train")
        # The welcome resume point is exactly the batches already applied.
        assert client._next_seq == 26  # 20 + 6 batches of 35
        client.push_events(events[900:], batch_size=35)
        client.flush()
        client.close()
        restored_text = second.profile_text(kind="load", top=15)
        restored_json = second.http("/profile?format=json")
        restored_db = second.merged_database()

    # Uninterrupted control run over the same stream.
    with ServeCluster(**kwargs) as control:
        control.push_events("c1", events, stream="synth.train", batch_size=35)
        control_text = control.profile_text(kind="load", top=15)
        control_json = control.http("/profile?format=json")

    assert restored_text == control_text
    assert restored_json == control_json
    assert_same_profile_state(
        restored_db, offline_reference(events, config=config, name="synth.train")
    )
    return events, restored_db


def test_replayed_site_table_journals_nothing_after_restore(tmp_path):
    """A ``--restore`` restart whose client reconnects and replays its
    whole site table: every site is already defined on its shard, so
    no journal grows until the next batch, and the stream continues
    exactly."""
    events = make_stream(num_sites=10, num_events=600, seed=28)
    snapdir = tmp_path / "snaps"
    kwargs = dict(shards=2, queue_size=16, checkpoint_interval=None)
    with ServeCluster(snapshot_dir=str(snapdir), **kwargs) as first:
        client = first.client("c1", stream="synth.train")
        client.push_events(events[:300], batch_size=30)
        client.flush()
        first.checkpoint()
        client.push_events(events[300:450], batch_size=30)
        client.flush()
        client.close()
        first.stop(checkpoint=False)
    journals = {path.name: path.read_bytes() for path in snapdir.glob("*.wal")}
    assert any(journals.values())

    with ServeCluster(snapshot_dir=str(snapdir), restore=True, **kwargs) as second:
        records = [runner.core.counters["wal_records"] for runner in second.server.runners]
        client.port = second.ingest_port
        client.connect()  # replays the whole table in one sites frame

        def defined():
            session = second.server.sessions.get("c1")
            return (
                session is not None
                and len(session.sites) == 10
                and all(runner.depth() == 0 for runner in second.server.runners)
            )

        deadline = time.monotonic() + 10
        while not second.call(defined):
            assert time.monotonic() < deadline, "the site table never arrived"
            time.sleep(0.02)
        assert [runner.core.counters["wal_records"] for runner in second.server.runners] == records
        assert {path.name: path.read_bytes() for path in snapdir.glob("*.wal")} == journals
        client.push_events(events[450:], batch_size=30)
        client.flush()
        client.close()
        restored = second.merged_database()
    assert_same_profile_state(restored, offline_reference(events))


def test_golden_restore_profile_byte_identical(tmp_path):
    """checkpoint → kill server → --restore: /profile is byte-identical
    to an uninterrupted run over the same stream."""
    _golden_restore(tmp_path)


def test_golden_restore_crosses_tnv_clears(tmp_path):
    """The same, with a clear interval short enough that every site's
    table clears before the checkpoint and several times after the
    restore — so the restored steady sets and clear phases decide the
    promotions and evictions that follow."""
    config = TNVConfig(capacity=6, steady=3, clear_interval=7)
    events, restored = _golden_restore(tmp_path, config)
    before_restore = offline_reference(events[:900], config=config)
    for profile in restored:
        table_then = before_restore.profile_for(profile.site).tnv
        assert table_then.clears >= 2 and table_then._steady_values
        assert profile.tnv.clears - table_then.clears >= 3


def test_http_endpoints_surface(tmp_path):
    """The query surface: health, inspect, timeseries, checkpoint, 404."""
    events = make_stream(num_sites=6, num_events=400, seed=25)
    with ServeCluster(
        shards=2, snapshot_dir=str(tmp_path), timeseries_interval=100
    ) as cluster:
        cluster.push_events("c1", events, stream="s", batch_size=40)
        health = cluster.http_json("/healthz")
        assert health["status"] == "ok" and health["alive"] == [True, True]
        inspect = cluster.http("/inspect?kind=load&top=5")
        assert "site" in inspect.lower()
        series = cluster.http_json("/timeseries")
        assert series["enabled"] is True and series["samples"]
        assert cluster.http_json("/checkpoint") == {"checkpointed": 2}
        assert (tmp_path / "shard-000.snap").exists()
        assert (tmp_path / "shard-001.snap").exists()
        try:
            cluster.http("/nope")
            assert False, "expected 404"
        except Exception as error:
            assert "404" in str(error)
