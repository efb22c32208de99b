"""Tests for SiteProfile and ProfileDatabase."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fold import fold_values
from repro.core.profile import ProfileDatabase, SiteProfile, TNVConfig
from repro.core.sites import SiteKind, instruction_site, load_site, memory_site
from repro.errors import ProfileError
from repro.obs.metrics import METRICS
from repro.obs.timeseries import TIMESERIES

SITE_A = load_site("prog", "main", 1)
SITE_B = load_site("prog", "main", 2)
SITE_C = instruction_site("prog", "helper", 3, "add")


def make_profile(values, exact=True):
    profile = SiteProfile(SITE_A, TNVConfig(), exact=exact)
    for value in values:
        profile.record(value)
    return profile


class TestSiteProfile:
    def test_metrics_prefer_exact(self):
        profile = make_profile([1, 1, 2])
        assert profile.metrics().inv_top1 == pytest.approx(2 / 3)

    def test_tnv_only_mode(self):
        profile = make_profile([1, 1, 2], exact=False)
        assert profile.exact is None
        metrics = profile.metrics()
        assert metrics.inv_top1 == pytest.approx(2 / 3)
        assert metrics.executions == 3

    def test_lvp_tracked_without_exact(self):
        profile = make_profile([5, 5, 5, 1], exact=False)
        assert profile.lvp() == pytest.approx(2 / 3)

    def test_pct_zeros(self):
        profile = make_profile([0, 1, 0, 1])
        assert profile.pct_zeros() == pytest.approx(0.5)

    def test_merge_requires_same_site(self):
        a = SiteProfile(SITE_A, TNVConfig())
        b = SiteProfile(SITE_B, TNVConfig())
        with pytest.raises(ProfileError):
            a.merge(b)

    def test_merge_combines(self):
        a = make_profile([1, 1])
        b = make_profile([2])
        a.merge(b)
        assert a.executions == 3
        assert a.metrics().distinct == 2

    def test_merge_counts_lvp_hit_across_boundary(self):
        """Regression: merging [..., 7] with [7, ...] must count the
        boundary repeat, exactly as the concatenated stream would."""
        for left, right in [
            ([1, 7], [7, 2]),
            ([7], [7]),
            ([1, 2], [3, 4]),
            ([7, 7], [7, 7]),
        ]:
            merged = make_profile(left)
            merged.merge(make_profile(right))
            reference = make_profile(left + right)
            assert merged.lvp() == pytest.approx(reference.lvp()), (left, right)

    def test_merge_boundary_lvp_without_exact(self):
        merged = make_profile([5, 5], exact=False)
        merged.merge(make_profile([5, 5], exact=False))
        reference = make_profile([5, 5, 5, 5], exact=False)
        assert merged.lvp() == pytest.approx(reference.lvp())

    def test_merge_with_empty_side_keeps_lvp(self):
        merged = make_profile([3, 3, 4])
        merged.merge(SiteProfile(SITE_A, TNVConfig()))
        assert merged.lvp() == pytest.approx(make_profile([3, 3, 4]).lvp())
        empty = SiteProfile(SITE_A, TNVConfig())
        empty.merge(make_profile([3, 3, 4]))
        assert empty.lvp() == pytest.approx(make_profile([3, 3, 4]).lvp())

    def test_tnv_metrics_report_estimates(self):
        profile = make_profile([1] * 10)
        assert profile.tnv_metrics().inv_top1 == 1.0

    def test_each_scalar_is_kept_once(self):
        assert not {"_total", "_has_first", "_has_last"} & set(SiteProfile.__slots__)
        profile = make_profile([0, 4, 4])
        assert profile.executions == profile.tnv.total == 3
        assert profile.metrics().executions == 3

    def test_merging_a_tnv_only_profile_drops_the_histogram(self):
        """A histogram that saw only one side of a merge would report
        that side's executions and LVP against the merged counts."""
        merged = make_profile([1, 1, 2])
        merged.merge(make_profile([3, 3, 3, 3], exact=False))
        assert merged.exact is None
        assert merged.executions == 7
        row = merged.metrics()
        assert row == merged.tnv_metrics()
        assert row.executions == 7
        assert row.lvp == merged.lvp() == pytest.approx(4 / 6)
        assert row == make_profile([1, 1, 2, 3, 3, 3, 3], exact=False).metrics()


class TestProfileDatabase:
    def test_record_creates_sites(self):
        db = ProfileDatabase()
        db.record(SITE_A, 1)
        db.record(SITE_B, 2)
        assert len(db) == 2
        assert SITE_A in db

    def test_profile_for_unknown_raises(self):
        with pytest.raises(ProfileError):
            ProfileDatabase().profile_for(SITE_A)

    def test_sites_filter_by_kind(self):
        db = ProfileDatabase()
        db.record(SITE_A, 1)
        db.record(SITE_C, 2)
        assert db.sites(SiteKind.LOAD) == [SITE_A]
        assert db.sites(SiteKind.INSTRUCTION) == [SITE_C]
        assert len(db.sites()) == 2

    def test_profiles_predicate(self):
        db = ProfileDatabase()
        db.record(SITE_A, 1)
        db.record(SITE_B, 1)
        main_only = db.profiles(predicate=lambda s: s.label == "1")
        assert [p.site for p in main_only] == [SITE_A]

    def test_total_executions(self):
        db = ProfileDatabase()
        for _ in range(5):
            db.record(SITE_A, 1)
        db.record(SITE_C, 1)
        assert db.total_executions() == 6
        assert db.total_executions(SiteKind.LOAD) == 5

    def test_metrics_by_site_sorted_hottest_first(self):
        db = ProfileDatabase()
        db.record(SITE_B, 1)
        for _ in range(3):
            db.record(SITE_A, 1)
        rows = db.metrics_by_site(SiteKind.LOAD)
        assert rows[0][0] == SITE_A

    def test_summary_weights_by_executions(self):
        db = ProfileDatabase()
        for _ in range(90):
            db.record(SITE_A, 7)  # fully invariant
        for value in range(10):
            db.record(SITE_B, value)  # fully variant
        summary = db.summary(SiteKind.LOAD)
        assert summary.inv_top1 == pytest.approx(0.9 * 1.0 + 0.1 * 0.1)

    def test_summary_by_procedure(self):
        db = ProfileDatabase()
        db.record(SITE_A, 1)
        db.record(SITE_C, 2)
        grouped = db.summary_by_procedure()
        assert set(grouped) == {"main", "helper"}

    def test_summary_by_opcode(self):
        db = ProfileDatabase()
        db.record(SITE_C, 2)
        assert "add" in db.summary_by_opcode()

    def test_merge_databases(self):
        a, b = ProfileDatabase(), ProfileDatabase()
        a.record(SITE_A, 1)
        b.record(SITE_A, 1)
        b.record(SITE_B, 2)
        a.merge(b)
        assert a.profile_for(SITE_A).executions == 2
        assert SITE_B in a

    def test_merge_adopts_a_copy_of_a_missing_profile(self):
        """A site only the other database has joins as a copy: merging
        into the result again never reaches back into the source."""
        a, b, c = ProfileDatabase(), ProfileDatabase(), ProfileDatabase()
        a.record(SITE_A, 1)
        b.record(SITE_B, 7)
        c.record_batch(SITE_B, [7, 8])
        before = json.loads(b.to_json())
        a.merge(b)
        a.merge(c)
        assert a.profile_for(SITE_B).executions == 3
        assert b.profile_for(SITE_B).executions == 1
        assert b.profile_for(SITE_B).exact.histogram == {7: 1}
        assert json.loads(b.to_json()) == before

    def test_union_adopts_disjoint_databases(self):
        a, b = ProfileDatabase(), ProfileDatabase()
        a.record(SITE_A, 1)
        b.record(SITE_B, 2)
        b.record(SITE_C, 3)
        profile_b = b.profile_for(SITE_B)
        a.union(b)
        assert [p.site for p in a] == [SITE_A, SITE_B, SITE_C]
        assert a.profile_for(SITE_B) is profile_b

    def test_union_refuses_a_shared_site(self):
        a, b = ProfileDatabase(), ProfileDatabase()
        a.record(SITE_A, 1)
        b.record(SITE_A, 1)
        b.record(SITE_B, 2)
        with pytest.raises(ProfileError, match="sharing 1 site"):
            a.union(b)

    def test_iteration(self):
        db = ProfileDatabase()
        db.record(SITE_A, 1)
        assert [p.site for p in db] == [SITE_A]


#: the counters every batch pays for, whichever method records it.
_BATCH_COUNTERS = (
    "profile.sites_created",
    "profile.batches",
    "profile.batch_events",
    "tnv.batch_records",
    "tnv.clears",
)


@pytest.fixture
def observed():
    """The process-wide metrics registry and time-series collector,
    enabled for the test and switched off and emptied after it."""
    METRICS.reset()
    METRICS.enable()
    TIMESERIES.enable(interval=1_000_000)
    yield
    TIMESERIES.disable()
    TIMESERIES.reset()
    METRICS.disable()
    METRICS.reset()


def _fold_into(db, site, values):
    """``values`` as ``db.record_fold`` takes them: folded for the phase
    of the site's TNV table (a fresh table when the site is new)."""
    since = db.profile_for(site).tnv._since_clear if site in db else 0
    db.record_fold(site, fold_values(values, db.config.clear_interval, since))


def _accounting(record, runs):
    """(batch counters, time-series event clock) after recording ``runs``
    one ``record(site, values)`` call each, from zero."""
    METRICS.reset()
    TIMESERIES.reset()
    for site, values in runs:
        record(site, values)
    return {name: METRICS.counter(name) for name in _BATCH_COUNTERS}, TIMESERIES.events


class TestBatchAccounting:
    """``record_batch`` and ``record_fold`` share one lookup-and-accounting
    step: the same runs count the same way through either."""

    CONFIG = TNVConfig(capacity=4, steady=2, clear_interval=8)
    RUNS = [
        (SITE_A, [1, 2, 2, 3] * 5),
        (SITE_B, [0] * 9),
        (SITE_A, [4, 4, 1]),
        (SITE_C, list(range(12))),
    ]

    def test_record_batch_and_record_fold_count_alike(self, observed):
        batched = ProfileDatabase(config=self.CONFIG)
        folded = ProfileDatabase(config=self.CONFIG)
        by_batch = _accounting(batched.record_batch, self.RUNS)
        by_fold = _accounting(lambda site, values: _fold_into(folded, site, values), self.RUNS)
        assert by_fold == by_batch
        counters, events = by_batch
        assert counters["profile.sites_created"] == 3
        assert counters["profile.batches"] == 4
        assert counters["profile.batch_events"] == 44
        assert counters["tnv.batch_records"] == 44
        assert counters["tnv.clears"] == 4  # every 8 events: 23 on A, 9 on B, 12 on C
        assert events == 44
        assert folded.to_json() == batched.to_json()

    def test_empty_run_creates_and_counts_nothing(self, observed):
        for record in (
            lambda db, site: db.record_batch(site, []),
            lambda db, site: _fold_into(db, site, []),
        ):
            db = ProfileDatabase(config=self.CONFIG)
            counters, events = _accounting(lambda site, values: record(db, site), self.RUNS)
            assert len(db) == 0
            assert counters == dict.fromkeys(_BATCH_COUNTERS, 0)
            assert events == 0


class TestSerialization:
    def test_roundtrip_preserves_headline_numbers(self):
        db = ProfileDatabase(name="run1")
        for value in [1, 1, 1, 0, 2]:
            db.record(SITE_A, value)
        for value in [4, 4]:
            db.record(memory_site("prog", 8), value)
        clone = ProfileDatabase.from_json(db.to_json())
        assert clone.name == "run1"
        assert len(clone) == 2
        original = db.profile_for(SITE_A)
        restored = clone.profile_for(SITE_A)
        assert restored.executions == original.executions
        assert restored.lvp() == pytest.approx(original.lvp())
        assert restored.pct_zeros() == pytest.approx(original.pct_zeros())
        assert restored.tnv.top_value() == original.tnv.top_value()

    def test_restored_database_is_tnv_only(self):
        db = ProfileDatabase()
        db.record(SITE_A, 1)
        clone = ProfileDatabase.from_json(db.to_json())
        assert clone.profile_for(SITE_A).exact is None

    @pytest.mark.parametrize("damage", ["executions", "first", "last"])
    def test_from_json_refuses_entries_to_json_never_writes(self, damage):
        """An entry's count is its TNV table's total, and an entry with
        executions carries its first and last value."""
        db = ProfileDatabase()
        db.record_batch(SITE_A, [2, 2, 5])
        payload = json.loads(db.to_json())
        entry = payload["sites"][0]
        if damage == "executions":
            entry["executions"] += 1
        else:
            del entry[damage]
        with pytest.raises(ProfileError, match="executions"):
            ProfileDatabase.from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "text,named",
        [
            ("{}", "'config'"),
            ("[]", "array"),
            ("null", "null"),
            ('{"config": {}, "sites": [{"program": "p"}]}', "'kind'"),
            ('{"config": {}, "sites": {}}', "'sites' is a JSON object"),
            ("{", "does not parse"),
        ],
        ids=["empty-object", "array", "null", "site-without-kind", "sites-object", "cut"],
    )
    def test_from_json_refuses_malformed_input_naming_what(self, text, named):
        with pytest.raises(ProfileError, match=named):
            ProfileDatabase.from_json(text)

    @pytest.mark.parametrize(
        "path,value,named",
        [
            (("entries", 0, 1), "x", "its count is a JSON string"),
            (("entries", 0), [2], "not a \\[value, count\\] pair"),
            (("entries", 0), [[2], 1], "not a \\[value, count\\] pair"),
            (("capacity",), "10", "'capacity' is a JSON string"),
            (("clear_interval",), 2.5, "'clear_interval' is a JSON number"),
            (("total",), "3", "'total' is a JSON string"),
            (("clears",), None, "'clears' is a JSON null"),
            (("health", "evictions"), "0", "'evictions' is a JSON string"),
            (("steady",), 10, "steady part"),
        ],
        ids=["count", "short-pair", "list-value", "capacity", "interval", "total",
             "clears", "health", "steady-range"],
    )
    def test_from_json_refuses_retyped_tnv_fields(self, path, value, named):
        """A TNV table's fields are checked where they load, not where
        a later reader trips on them."""
        db = ProfileDatabase()
        db.record_batch(SITE_A, [2, 2, 5])
        payload = json.loads(db.to_json())
        node = payload["sites"][0]["tnv"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ProfileError, match=named):
            ProfileDatabase.from_json(json.dumps(payload))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_from_json_lets_only_profile_error_escape(self, data):
        """Truncated, retyped and key-dropped ``to_json`` output either
        raises :class:`ProfileError`, never anything else, or loads a
        database whose metrics and JSON render."""
        db = ProfileDatabase(name="p", config=TNVConfig(capacity=3, steady=1, clear_interval=4))
        db.record_batch(SITE_A, [0, 2, 2, 5, 2, 2])
        db.record_batch(memory_site("prog", 8), [9])
        text = db.to_json()
        if data.draw(st.booleans(), label="truncate"):
            text = text[: data.draw(st.integers(0, len(text) - 1), label="cut at")]
        else:
            payload = json.loads(text)
            for _ in range(data.draw(st.integers(1, 3), label="damages")):
                parent, key = data.draw(st.sampled_from(_json_slots(payload)), label="slot")
                if data.draw(st.booleans(), label="drop"):
                    del parent[key]
                else:
                    parent[key] = data.draw(_JSON_VALUES, label="new value")
            text = json.dumps(payload)
        try:
            loaded = ProfileDatabase.from_json(text)
        except ProfileError:
            return
        loaded.metrics_by_site()
        loaded.summary()
        assert ProfileDatabase.from_json(loaded.to_json()).to_json() == loaded.to_json()

    def test_config_roundtrip(self):
        db = ProfileDatabase(config=TNVConfig(capacity=6, steady=2, clear_interval=77))
        db.record(SITE_A, 1)
        clone = ProfileDatabase.from_json(db.to_json())
        assert clone.config.capacity == 6
        assert clone.config.clear_interval == 77


#: any JSON value, kept small.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _json_slots(node, slots=None):
    """Every ``(container, key)`` slot of a parsed JSON document."""
    slots = [] if slots is None else slots
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        slots.append((node, key))
        if isinstance(node[key], (dict, list)):
            _json_slots(node[key], slots)
    return slots


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=200))
def test_property_database_summary_matches_single_site_metrics(values):
    db = ProfileDatabase()
    for value in values:
        db.record(SITE_A, value)
    summary = db.summary(SiteKind.LOAD)
    direct = db.profile_for(SITE_A).metrics()
    assert summary.inv_top1 == pytest.approx(direct.inv_top1)
    assert summary.executions == direct.executions
