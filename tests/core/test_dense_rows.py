"""Dense site rows: a database numbers its sites and indexes rows by id.

Three promises are pinned here.  Recording runs by id
(:meth:`ProfileDatabase.record_runs`) leaves exactly the state per-event
recording leaves and counts exactly what ``record_batch`` counts, for
any split of a stream into runs and any order of interning.  The
queries list rows in the order sorting their sites gives, ties
included, though they compare no ``Site``.  And a union keeps every
lookup by ``Site`` working, though it copies no site table until one
is needed.
"""

import contextlib
import pickle
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import gather
from repro.core.profile import ProfileDatabase, TNVConfig
from repro.core.sites import Site, SiteKind, load_site
from repro.errors import ProfileError
from repro.obs.metrics import METRICS
from repro.obs.timeseries import TIMESERIES

from tests.serve.harness import profile_state

#: every site the properties draw from: two kinds, prefixes that tie.
SITES = [
    Site(kind, program, procedure, label, opcode)
    for kind, program, procedure, label, opcode in [
        (SiteKind.LOAD, "p", "main", "1", "ld"),
        (SiteKind.LOAD, "p", "main", "10", "ld"),
        (SiteKind.LOAD, "p", "", "2", ""),
        (SiteKind.LOAD, "q", "main", "1", "ld"),
        (SiteKind.INSTRUCTION, "p", "main", "1", "add"),
        (SiteKind.INSTRUCTION, "p", "helper", "7", "sub"),
        (SiteKind.MEMORY, "p", "", "0x10", ""),
    ]
]

CONFIGS = [
    TNVConfig(capacity=4, steady=2, clear_interval=5),
    TNVConfig(capacity=3, steady=0, clear_interval=None),
    TNVConfig(capacity=10, steady=5, clear_interval=2000),
]


@contextlib.contextmanager
def observing():
    """The metrics registry and a fine-grained time-series, on for the
    body and switched off and emptied after it."""
    METRICS.reset()
    METRICS.enable()
    TIMESERIES.reset()
    TIMESERIES.enable(interval=7)
    try:
        yield
    finally:
        TIMESERIES.disable()
        TIMESERIES.reset()
        METRICS.disable()
        METRICS.reset()


def _state(db):
    """Entry order and every slot of every row (health counters included)."""
    return [(profile.site, profile_state(profile)) for profile in db]


def _observe(record):
    """Run ``record`` from zeroed registries; return every ``profile.*``
    and ``tnv.*`` counter, the event clock and the samples' counters."""
    METRICS.reset()
    TIMESERIES.reset()
    record()
    counters = {
        name: value
        for name, value in METRICS.snapshot()["counters"].items()
        if name.startswith(("profile.", "tnv."))
    }
    samples = [sample["counters"] for sample in TIMESERIES.to_payload()["samples"]]
    return counters, TIMESERIES.events, samples


def _windows(events, cuts):
    """The stream cut into flush windows at the (sorted) ``cuts``."""
    bounds = sorted({min(cut, len(events)) for cut in cuts} | {0, len(events)})
    return [events[start:end] for start, end in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"clear{c.clear_interval}")
@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(
        st.tuples(st.integers(0, len(SITES) - 1), st.integers(-3, 5)), max_size=120
    ),
    cuts=st.lists(st.integers(0, 120), max_size=8),
    interning=st.permutations(range(len(SITES))),
    exact=st.booleans(),
)
def test_record_runs_equals_per_event_record(config, events, cuts, interning, exact):
    """Each window gathered by id and recorded with ``record_runs`` —
    sites interned in any order first — equals recording every event
    with ``record``: the same rows in the same order, every slot equal.
    It counts exactly what ``record_batch`` over the same runs counts,
    and advances and samples the event clock alike."""
    windows = _windows([(SITES[index], value) for index, value in events], cuts)

    per_event = ProfileDatabase(config=config, exact=exact)
    by_site = ProfileDatabase(config=config, exact=exact)
    by_id = ProfileDatabase(config=config, exact=exact)
    for index in interning:
        by_id.intern(SITES[index])
    ids = {site: by_id.site_id(site) for site in SITES}

    def runs(window):
        return gather(
            array("I", (ids[site] for site, _ in window)),
            array("q", (value for _, value in window)),
            by_id.interned,
        )

    def record_per_event():
        for site, value in (event for window in windows for event in window):
            per_event.record(site, value)

    def record_by_site():
        for window in windows:
            for sid, values in runs(window):
                by_site.record_batch(SITES[interning[sid]], values)

    def record_by_id():
        for window in windows:
            by_id.record_runs(runs(window))

    with observing():
        event_counters, _, _ = _observe(record_per_event)
        site_counters, site_clock, site_samples = _observe(record_by_site)
        id_counters, id_clock, id_samples = _observe(record_by_id)
    assert _state(by_id) == _state(per_event) == _state(by_site)
    assert by_id.to_json() == per_event.to_json()
    assert (id_counters, id_clock, id_samples) == (site_counters, site_clock, site_samples)
    # What per-event recording counts too: the rows and the clearing passes.
    for name, value in event_counters.items():
        assert id_counters.get(name, 0) == value, name
    assert by_id.interned == len(SITES)
    assert len(by_id) == len({site for site, _ in (e for w in windows for e in w)})


def test_record_runs_skips_empty_runs_and_counts_one_event_runs():
    db = ProfileDatabase(config=CONFIGS[0])
    sid = db.intern(SITES[0])
    with observing():
        counters, clock, _ = _observe(lambda: db.record_runs([(sid, [])]))
        assert len(db) == 0 and clock == 0
        assert not any(counters.values())
        counters, clock, _ = _observe(lambda: db.record_runs([(sid, [4]), (sid, [4, 0])]))
    assert counters["profile.sites_created"] == 1
    assert counters["profile.batches"] == 2
    assert counters["profile.batch_events"] == counters["tnv.batch_records"] == 3
    assert clock == 3
    profile = db.profile_for(SITES[0])
    assert (profile.executions, profile.lvp(), profile.pct_zeros()) == (3, 0.5, 1 / 3)


def test_interning_creates_no_row():
    db = ProfileDatabase()
    assert [db.intern(site) for site in SITES[:3]] == [0, 1, 2]
    assert db.intern(SITES[1]) == 1
    # Equal sites share an id, whatever their opcodes.
    assert db.intern(Site(SiteKind.LOAD, "p", "main", "10", "other")) == 1
    assert db.site_id(SITES[3]) is None
    assert len(db) == 0 and db.sites() == [] and SITES[0] not in db
    with pytest.raises(ProfileError):
        db.profile_for(SITES[0])
    db.record_runs([(2, [1])])
    assert [profile.site for profile in db] == [SITES[2]]
    restored = pickle.loads(pickle.dumps(db))
    assert restored.interned == 3 and restored.site_id(SITES[1]) == 1
    assert _state(restored) == _state(db)


@st.composite
def recorded_databases(draw):
    """A database recorded in a drawn order, with executions drawn from a
    small range so that ties in count are common."""
    labels = ["1", "10", "2", "", "a"]
    sites = draw(
        st.lists(
            st.builds(
                Site,
                kind=st.sampled_from([SiteKind.LOAD, SiteKind.INSTRUCTION, SiteKind.PARAMETER]),
                program=st.sampled_from(["p", "q", ""]),
                procedure=st.sampled_from(["", "main", "m"]),
                label=st.sampled_from(labels),
                opcode=st.sampled_from(["", "ld"]),
            ),
            max_size=25,
        )
    )
    db = ProfileDatabase()
    for site in sites:
        db.record_batch(site, [draw(st.integers(0, 3))] * draw(st.integers(1, 3)))
    return db


def _sorted_by_site(db, kind=None):
    return sorted(
        (profile for profile in db if kind is None or profile.site.kind == kind),
        key=lambda profile: profile.site,
    )


@settings(max_examples=150, deadline=None)
@given(db=recorded_databases(), kind=st.sampled_from([None, SiteKind.LOAD, SiteKind.PARAMETER]))
def test_queries_keep_the_order_sorting_by_site_gives(db, kind):
    """The stored keys order rows as ``Site`` comparison does: listings
    by site, and hottest-first rows with ties broken by site."""
    expected = _sorted_by_site(db, kind)
    assert db.profiles(kind) == expected
    assert db.sites(kind) == [profile.site for profile in expected]
    rows = [(profile.site, profile.metrics()) for profile in expected]
    assert db.metrics_by_site(kind) == sorted(
        rows, key=lambda row: (-row[1].executions, row[0])
    )
    predicate = lambda site: site.label.startswith("1")  # noqa: E731
    assert db.profiles(kind, predicate) == [p for p in expected if predicate(p.site)]
    restored = pickle.loads(pickle.dumps(db))
    assert restored.sites(kind) == db.sites(kind)
    assert restored.to_json() == db.to_json()


def test_union_indexes_adopted_sites_when_a_lookup_needs_them():
    """A union lists, queries and pickles the adopted rows; a lookup by
    ``Site`` finds the adopted sites, ids numbered on from the receiving
    table's."""
    shards = [ProfileDatabase(), ProfileDatabase(), ProfileDatabase()]
    rng = random.Random(5)
    for index, site in enumerate(SITES):
        shard = shards[index % 3]
        shard.intern(load_site("unrecorded", "x", index))
        shard.record_batch(site, [rng.randrange(3) for _ in range(rng.randrange(1, 5))])
    merged = ProfileDatabase()
    for shard in shards:
        merged.union(shard)
    assert merged.interned == sum(shard.interned for shard in shards)
    assert merged.to_json() == _merged_json(shards)
    assert [p.site for p in merged.profiles()] == sorted(SITES)
    restored = pickle.loads(pickle.dumps(merged))
    assert restored.to_json() == merged.to_json()
    for site in SITES:
        assert site in merged
        shard = shards[SITES.index(site) % 3]
        assert merged.profile_for(site) is shard.profile_for(site)
        assert restored.site_id(site) == merged.site_id(site)
    # Shard 1 comes after shard 0's six sites and numbers this one 2.
    assert merged.site_id(load_site("unrecorded", "x", 4)) == 6 + 2
    # Recording into the union goes to the adopted row; a new site is
    # numbered after every adopted one.
    executions = shards[1].profile_for(SITES[4]).executions
    merged.record(SITES[4], 9)
    assert shards[1].profile_for(SITES[4]).executions == executions + 1
    assert merged.intern(load_site("new", "x", 0)) == 14 == merged.interned - 1
    with pytest.raises(ProfileError, match="sharing 4 site"):
        merged.union(shards[2])


def _merged_json(shards):
    """The JSON of a database that merges the shards' rows one by one."""
    merged = ProfileDatabase()
    for shard in shards:
        merged.merge(shard)
    return merged.to_json()
