"""Pickling a ProfileDatabase: every slot survives, in order.

A database pickles as columns of builtins rebuilt by one module-level
constructor (:meth:`ProfileDatabase.__reduce__`).  These properties
pin what that encoding must keep: every slot of every profile — TNV
entries and exact histograms in stored order, the steady set, each
table's own configuration, the site's opcode — so that a restored
database not only looks the same but *continues* the same.  Pickles in
the form written before the encoding existed must still load.
"""

import copy
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profile import ProfileDatabase, TNVConfig
from repro.core.sites import Site, SiteKind, load_site
from repro.errors import ProfileError

from tests.serve.harness import db_state, object_graph_dumps

VALUES = st.one_of(st.integers(-2, 6), st.none(), st.sampled_from(["a", "b", ""]))


@st.composite
def configs(draw):
    capacity = draw(st.integers(2, 5))
    return TNVConfig(
        capacity=capacity,
        steady=draw(st.integers(0, capacity - 1)),
        clear_interval=draw(st.one_of(st.none(), st.integers(1, 9))),
    )


@st.composite
def site_lists(draw, min_size=1, max_size=6):
    """Distinct sites; opcodes vary, though ``Site`` equality ignores them."""
    labels = draw(
        st.lists(st.integers(0, 20), min_size=min_size, max_size=max_size, unique=True)
    )
    return [
        Site(
            kind=draw(st.sampled_from(list(SiteKind))),
            program="prog",
            procedure=draw(st.sampled_from(["", "main", "helper"])),
            label=f"s{label}",
            opcode=draw(st.sampled_from(["", "ld", "add"])),
        )
        for label in labels
    ]


def event_lists(sites, max_size=80):
    return st.lists(
        st.tuples(st.sampled_from(sites), VALUES), min_size=0, max_size=max_size
    )


def feed(db, events, chunk=7):
    """Record ``events`` through the batched fold path, ``chunk`` at a time."""
    for start in range(0, len(events), chunk):
        runs = {}
        for site, value in events[start:start + chunk]:
            runs.setdefault(site, []).append(value)
        for site, values in runs.items():
            db.record_batch(site, values)


@st.composite
def databases(draw):
    """A database of 1–6 recorded sites, possibly with one profile
    adopted through ``merge`` from a database under another config."""
    config = draw(configs())
    db = ProfileDatabase(config=config, exact=draw(st.booleans()), name="p.train")
    sites = draw(site_lists())
    feed(db, draw(event_lists(sites)))
    if draw(st.booleans()):
        other = ProfileDatabase(
            config=TNVConfig(
                capacity=config.capacity + 2,
                steady=config.capacity,
                clear_interval=draw(st.one_of(st.none(), st.integers(1, 9))),
            ),
            exact=draw(st.booleans()),
        )
        adopted = Site(SiteKind.MEMORY, "other", label="0x40", opcode="st")
        feed(other, [(adopted, value) for value in draw(st.lists(VALUES, max_size=40))])
        db.merge(other)
    return db


def full_state(db) -> tuple:
    """Database fields, site order, and every slot of every profile."""
    return (db.config, db.exact, db.name, list(db._profiles), db_state(db))


def assert_identical(actual, expected):
    assert full_state(actual) == full_state(expected)
    for profile in actual:
        if profile.exact is not None:
            assert type(profile.exact._histogram) is Counter


@settings(max_examples=80, deadline=None)
@given(databases())
def test_round_trip_keeps_every_slot_in_order(db):
    restored = pickle.loads(pickle.dumps(db, protocol=pickle.HIGHEST_PROTOCOL))
    assert_identical(restored, db)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_restored_database_continues_identically(data):
    db = data.draw(databases(), label="db")
    restored = pickle.loads(pickle.dumps(db, protocol=pickle.HIGHEST_PROTOCOL))
    sites = list(db._profiles) + data.draw(site_lists(0, 2), label="new sites")
    if sites:
        continuation = data.draw(event_lists(sites, max_size=60), label="continuation")
        feed(db, continuation)
        feed(restored, continuation)
    assert_identical(restored, db)


@settings(max_examples=40, deadline=None)
@given(databases())
def test_object_graph_pickle_still_loads(db):
    blob = object_graph_dumps(db)
    assert b"_rebuild_database" not in blob
    assert_identical(pickle.loads(blob), db)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_copy_shares_no_mutable_state(data):
    db = data.draw(databases(), label="db")
    before = full_state(db)
    clone = copy.copy(db)
    assert full_state(clone) == before
    if len(db):
        feed(clone, data.draw(event_lists(list(db._profiles)), label="events"))
    assert full_state(db) == before


def test_empty_database_round_trips():
    for exact in (True, False):
        db = ProfileDatabase(
            config=TNVConfig(capacity=3, steady=1, clear_interval=None),
            exact=exact,
            name="empty",
        )
        for blob in (pickle.dumps(db), object_graph_dumps(db)):
            restored = pickle.loads(blob)
            assert full_state(restored) == full_state(db)
            assert len(restored) == 0


def test_rows_of_another_layout_are_refused():
    """A pickle whose field lists do not fit this build's layout raises
    instead of shifting fields into the wrong slots: a field list more
    or fewer (a pickle written with other slots), a list of another
    length than the site count, or histogram sizes that do not add up
    to the flattened values.  Format 3's per-site rows are refused the
    same way."""
    db = ProfileDatabase()
    db.record_batch(load_site("prog", "main", 1), [0, 3, 3])
    db.record_batch(load_site("prog", "main", 2), [4])
    rebuild, args = db.__reduce__()
    config, exact, name, sites, tables, scalars, sizes, values, counts = args
    assert full_state(rebuild(*args)) == full_state(db)
    format_3_scalars = [(1, 1, 0, 3), (0, 0, 4, 4)]
    for bad in (
        (sites, tables[:-1], scalars, sizes, values, counts),
        (sites, tables, scalars + [[0, 0]], sizes, values, counts),
        (sites, tables, [column[:1] for column in scalars], sizes, values, counts),
        (sites, tables, format_3_scalars, sizes, values, counts),
        (sites, tables, scalars, sizes, values[:-1], counts),
        (sites, tables, scalars, [sizes[0] + 1, sizes[1]], values, counts),
        ([column[:1] for column in sites], tables, scalars, sizes, values, counts),
    ):
        with pytest.raises(ProfileError, match="pickled"):
            rebuild(config, exact, name, *bad)


def test_pickle_is_a_fixed_number_of_lists():
    """However many sites a database holds, its pickle is the same few
    flat lists: no container is built per site."""
    shapes = []
    for count in (1, 50):
        db = ProfileDatabase()
        for pc in range(count):
            db.record_batch(load_site("prog", "main", pc), [pc, 0, pc])
        _, (_, _, _, sites, tables, scalars, sizes, values, counts) = db.__reduce__()
        columns = [*sites, *tables, *scalars, sizes, values, counts]
        assert all(type(column) is list for column in columns)
        assert all(len(column) == count for column in [*sites, *tables, *scalars, sizes])
        assert not any(
            type(cell) in (tuple, list)
            for column in [*sites, *scalars, sizes, values, counts]
            for cell in column
        )
        shapes.append(len(columns))
    assert shapes[0] == shapes[1]
