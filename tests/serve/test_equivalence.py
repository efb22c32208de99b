"""Sharded-fold equivalence: any partition == single-process fold.

The property the whole service stands on: per-site profile state
depends only on the site's own value subsequence, so hashing the site
space across shards and folding per-shard sub-batches yields state
identical to one process recording the stream event by event — TNV
entry order, health counters and exact statistics included.  The same
holds when a shard buffers its sub-batches into pending id and value columns
and folds them only at reads, checkpoints and a size bound.  The
properties cut their sub-batches with the router's own split
(:func:`repro.core.columns.partition`) and run under both gathers
(numpy's argsort and the pure-Python loop), which the shards' flushes
and the split share with the trace store.
"""

import tempfile
import threading
from array import array

import pytest

from repro.analysis.tables import profile_table
from repro.core.columns import partition
from repro.core.profile import ProfileDatabase, TNVConfig
from repro.core.sites import SiteKind
from repro.serve import protocol as proto
from repro.serve import shard as shard_module
from repro.serve.shard import ShardCore

from tests.serve.harness import (
    GATHERS,
    ServeCluster,
    assert_same_profile_state,
    gather_mode,
    make_sites,
    make_stream,
    offline_reference,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def split_batches(events, batch_sizes):
    """Cut ``events`` into batches, cycling through ``batch_sizes``."""
    batches = []
    position = 0
    sizes = list(batch_sizes)
    while position < len(events):
        size = max(1, sizes[len(batches) % len(sizes)] if sizes else 64)
        batches.append(events[position : position + size])
        position += size
    return batches


def owners(sites, shards):
    return bytes(proto.shard_for_site(site, shards) for site in sites)


def define_everywhere(cores, sites, client="c"):
    """Define the client site table ``sites`` on ``cores`` as the
    router does: each core gets the ids and sites it owns."""
    owner = owners(sites, len(cores))
    for index, core in enumerate(cores):
        sids = [sid for sid in range(len(sites)) if owner[sid] == index]
        core.define(client, sids, [sites[sid] for sid in sids])


def route(batch, sites, shards):
    """One batch as the server routes it, through the router's own
    split: an ``(ids, values)`` sub-batch for every shard.

    ``batch`` holds ``(sid, value)`` events over the client site table
    ``sites``; shards that own none of the batch's sites get an empty
    sub-batch, so per-shard sequences stay gapless.
    """
    return partition(
        array("I", [sid for sid, _ in batch]),
        array("q", [value for _, value in batch]),
        owners(sites, shards),
        shards,
    )


def merge_cores(cores, config):
    merged = ProfileDatabase(config=config, exact=True)
    for core in cores:
        merged.merge(core.db)
    return merged


def fold_through_shards(events, sites, batch_sizes, shards, config, client="c"):
    """Route a ``(sid, value)`` stream through real ShardCores, return
    the merge."""
    with tempfile.TemporaryDirectory() as tmp:
        cores = [
            ShardCore(index, tmp, config=config, exact=True)
            for index in range(shards)
        ]
        define_everywhere(cores, sites, client)
        for seq, batch in enumerate(split_batches(events, batch_sizes)):
            for core, (ids, values) in zip(cores, route(batch, sites, shards)):
                done = core.submit(client, seq, ids, values, journal=False)
                assert done == [seq]
        merged = merge_cores(cores, config)
        for core in cores:
            core.close()
        return merged


@pytest.mark.parametrize("gather", GATHERS)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_any_partition_matches_single_process(gather, data):
    sites = make_sites(6)
    events = data.draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 7)),
            min_size=0,
            max_size=120,
        ),
        label="events",
    )
    shards = data.draw(st.integers(1, 3), label="shards")
    batch_sizes = data.draw(
        st.lists(st.integers(1, 17), min_size=1, max_size=5), label="batch_sizes"
    )
    # Small TNV knobs so clearing/steady-state logic actually fires
    # inside these short streams.
    config = TNVConfig(capacity=4, steady=2, clear_interval=16)
    with gather_mode(gather):
        merged = fold_through_shards(events, sites, batch_sizes, shards, config)
    reference = offline_reference(
        [(sites[index], value) for index, value in events], config=config, exact=True
    )
    assert_same_profile_state(merged, reference)


@pytest.mark.parametrize("gather", GATHERS)
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_buffered_folds_survive_reads_checkpoints_and_kills(gather, data):
    """Pending columns never show, and never get lost or folded twice.

    The client defines each site just before the first batch that uses
    it, as the production client does, so definition items interleave
    with sub-batches.  Between submits the schedule reads the merged
    database, checkpoints every shard (as ``/checkpoint`` does), kills
    one shard and restarts it from its snapshot and journal, or
    restarts every shard (``--restore``) with the client replaying its
    whole site table, which must journal nothing.  A shard can also die
    with a definition item still queued: it never arrives, and the
    restart defines the session's sites again, as
    :meth:`ServeServer.restart_shard` does.  The flush bound is drawn
    small, so bound-triggered flushes land anywhere in the schedule.
    Every read must equal the per-event fold of everything submitted
    so far.
    """
    sites = make_sites(6)
    events = data.draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 7)),
            min_size=0,
            max_size=160,
        ),
        label="events",
    )
    shards = data.draw(st.integers(1, 3), label="shards")
    batch_sizes = data.draw(
        st.lists(st.integers(1, 17), min_size=1, max_size=5), label="batch_sizes"
    )
    bound = data.draw(st.integers(1, 40), label="flush_bound")
    config = TNVConfig(capacity=4, steady=2, clear_interval=16)
    schedule = st.lists(
        st.sampled_from(["read", "checkpoint", "kill", "restore"]), max_size=3
    )
    owner = owners(sites, shards)
    defined = set()

    def owned(index, sids):
        return sorted(sid for sid in sids if owner[sid] == index)

    def define(core, sids):
        return core.define("c", sids, [sites[sid] for sid in sids])

    def restart(index):
        core = ShardCore(index, tmp, config=config, exact=True, restore=True)
        define(core, owned(index, defined))
        return core

    with gather_mode(gather), pytest.MonkeyPatch.context() as patch, \
            tempfile.TemporaryDirectory() as tmp:
        patch.setattr(shard_module, "FLUSH_EVENTS", bound)
        cores = [
            ShardCore(index, tmp, config=config, exact=True)
            for index in range(shards)
        ]
        try:
            submitted = []
            for seq, batch in enumerate(split_batches(events, batch_sizes)):
                new = {sid for sid, _ in batch} - defined
                if new:
                    defined |= new
                    lost = data.draw(
                        st.sampled_from([None, *range(shards)]),
                        label=f"shard killed with batch {seq}'s definitions queued",
                    )
                    for index, core in enumerate(cores):
                        if index != lost and owned(index, new):
                            define(core, owned(index, new))
                    if lost is not None:
                        cores[lost].close()
                        cores[lost] = restart(lost)
                for core, (ids, values) in zip(cores, route(batch, sites, shards)):
                    assert core.submit("c", seq, ids, values) == [seq]
                submitted.extend((sites[index], value) for index, value in batch)
                for op in data.draw(schedule, label=f"after batch {seq}"):
                    if op == "read":
                        reference = offline_reference(submitted, config=config)
                        assert_same_profile_state(merge_cores(cores, config), reference)
                    elif op == "checkpoint":
                        for core in cores:
                            core.checkpoint()
                    elif op == "kill":
                        index = data.draw(st.integers(0, shards - 1), label="killed")
                        cores[index].close()
                        cores[index] = restart(index)
                    else:
                        for index, core in enumerate(cores):
                            core.close()
                            cores[index] = core = ShardCore(
                                index, tmp, config=config, exact=True, restore=True
                            )
                            records = core.counters["wal_records"]
                            assert define(core, owned(index, defined)) == 0
                            assert core.counters["wal_records"] == records
            reference = offline_reference(submitted, config=config)
            assert_same_profile_state(merge_cores(cores, config), reference)
        finally:
            for core in cores:
                core.close()


def test_record_batch_grouping_matches_per_event():
    """Pin the grouping identity the shard apply path relies on."""
    events = make_stream(num_sites=5, num_events=400, seed=11)
    config = TNVConfig(capacity=6, steady=3, clear_interval=50)
    per_event = offline_reference(events, config=config)
    grouped = ProfileDatabase(config=config, exact=True)
    # Whole-stream per-site grouping in first-appearance order — the
    # coarsest partition the service can produce.
    runs, order = {}, []
    for site, value in events:
        if site not in runs:
            runs[site] = []
            order.append(site)
        runs[site].append(value)
    for site in order:
        grouped.record_batch(site, runs[site])
    assert_same_profile_state(grouped, per_event)


def test_end_to_end_profile_byte_identity():
    """Acceptance: served /profile output is byte-identical to offline."""
    events = make_stream(num_sites=10, num_events=1500, seed=3)
    with ServeCluster(shards=3, queue_size=16, checkpoint_interval=100) as cluster:
        cluster.push_events("c1", events, stream="synth.train", batch_size=37)
        merged = cluster.merged_database()
        got_text = cluster.profile_text(kind="load", top=20)
        got_json = cluster.http("/profile?format=json")
    expected = offline_reference(events, name="synth.train")
    assert_same_profile_state(merged, expected)
    expected_text = profile_table(expected, SiteKind.LOAD, top=20).render()
    assert got_text == expected_text + "\n"
    assert got_json == expected.to_json() + "\n"


def test_concurrent_producers_with_queries_mid_stream():
    """Three disjoint producers at once, queried while ingesting."""
    streams = {
        f"client{index}": [
            (site, value)
            for site, value in make_stream(num_sites=6, num_events=800, seed=index)
        ]
        for index in range(3)
    }
    # Disjoint site spaces per producer (distinct program names).
    import dataclasses

    for index, (name, events) in enumerate(sorted(streams.items())):
        streams[name] = [
            (dataclasses.replace(site, program=f"prog{index}"), value)
            for site, value in events
        ]
    with ServeCluster(shards=2, queue_size=16) as cluster:
        errors = []

        def push(name, events):
            try:
                cluster.push_events(name, events, stream=name, batch_size=29)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append((name, error))

        threads = [
            threading.Thread(target=push, args=(name, events))
            for name, events in streams.items()
        ]
        for thread in threads:
            thread.start()
        # Query while ingest is in flight: must answer, not crash.
        cluster.http_json("/stats")
        cluster.http("/profile?kind=load&top=5")
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        merged = cluster.merged_database()
        final = cluster.http_json("/stats")
    reference = ProfileDatabase(exact=True)
    for name in sorted(streams):
        for site, value in streams[name]:
            reference.record(site, value)
    assert_same_profile_state(merged, reference)
    assert final["counters"]["serve.events"] == sum(
        len(events) for events in streams.values()
    )
