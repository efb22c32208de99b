"""Tests for the metric definitions (LVP, Inv-Top, Diff, %Zeros)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fold import is_zero
from repro.core.metrics import (
    SiteMetrics,
    ValueStreamStats,
    aggregate_metrics,
    mean_unweighted,
    weighted_mean,
)
from repro.core.profile import SiteProfile, TNVConfig
from repro.core.sites import load_site

SITE = load_site("prog", "main", 1)


def profile_of(values) -> SiteProfile:
    """A profile with exact statistics over ``values``, in order."""
    profile = SiteProfile(SITE, TNVConfig())
    profile.record_many(values)
    return profile


class TestValueStreamStats:
    """The exact stream statistics: the histogram's figures on
    :class:`ValueStreamStats`, the order-sensitive ones (LVP, %Zeros)
    on the :class:`SiteProfile` that owns the histogram."""

    def test_empty(self):
        stats = ValueStreamStats()
        assert stats.total == 0
        assert stats.invariance(1) == 0.0
        assert stats.distinct == 0
        profile = profile_of([])
        assert profile.lvp() == 0.0
        assert profile.pct_zeros() == 0.0

    def test_histogram_is_the_only_state(self):
        assert ValueStreamStats.__slots__ == ("_histogram",)
        stats = ValueStreamStats()
        stats.record_many([4, 4, 9])
        stats.record(4)
        assert stats.total == sum(stats.histogram.values()) == 4

    def test_constant_stream(self):
        profile = profile_of([5] * 10)
        assert profile.exact.invariance(1) == 1.0
        assert profile.lvp() == 1.0
        assert profile.exact.distinct == 1

    def test_lvp_excludes_first_execution(self):
        assert profile_of([1, 1]).lvp() == 1.0  # 1 hit / (2 - 1)

    def test_lvp_alternating(self):
        assert profile_of([1, 2, 1, 2, 1]).lvp() == 0.0

    def test_lvp_single_execution_is_zero(self):
        profile = profile_of([])
        profile.record(9)
        assert profile.lvp() == 0.0

    def test_invariance_top1_majority(self):
        stats = ValueStreamStats()
        stats.record_many([3, 3, 3, 1])
        assert stats.invariance(1) == pytest.approx(0.75)

    def test_invariance_topk_covers_everything(self):
        stats = ValueStreamStats()
        stats.record_many([1, 2, 3, 4])
        assert stats.invariance(4) == 1.0

    def test_pct_zeros(self):
        assert profile_of([0, 0, 5, 5]).pct_zeros() == pytest.approx(0.5)

    def test_diff_counts_distinct(self):
        stats = ValueStreamStats()
        stats.record_many([1, 1, 2, 3, 3, 3])
        assert stats.distinct == 3

    def test_top_deterministic_ties(self):
        stats = ValueStreamStats()
        stats.record_many([4, 2])
        assert stats.top(2) == stats.top(2)

    def test_metrics_snapshot(self):
        metrics = profile_of([0, 0, 0, 7]).metrics()
        assert metrics.executions == 4
        assert metrics.inv_top1 == pytest.approx(0.75)
        assert metrics.pct_zeros == pytest.approx(0.75)
        assert metrics.distinct == 2

    def test_merge(self):
        a, b = ValueStreamStats(), ValueStreamStats()
        a.record_many([1, 1])
        b.record_many([1, 2])
        a.merge(b)
        assert a.total == 4
        assert a.histogram[1] == 3
        assert a.distinct == 2

    def test_lvp_lower_bounds_invariance_relation(self):
        # A stream sorted by value maximizes LVP for its histogram;
        # sanity: sorted constant-heavy stream has LVP >= inv_top1 - 1/n.
        profile = profile_of(sorted([7] * 90 + list(range(10))))
        assert profile.lvp() >= profile.exact.invariance(1) - 0.05


class TestIsZero:
    def test_int_zero(self):
        assert is_zero(0)

    def test_float_zero(self):
        assert is_zero(0.0)

    def test_nonzero(self):
        assert not is_zero(3)

    def test_non_numeric(self):
        assert not is_zero("zero")


class TestAggregation:
    def _metrics(self, executions, inv):
        return SiteMetrics(
            executions=executions,
            lvp=inv,
            inv_top1=inv,
            inv_top_n=inv,
            distinct=1,
            pct_zeros=0.0,
        )

    def test_weighted_mean_empty(self):
        assert weighted_mean([]) == 0.0

    def test_weighted_mean_basic(self):
        assert weighted_mean([(1.0, 1), (0.0, 3)]) == pytest.approx(0.25)

    def test_aggregate_weights_by_executions(self):
        rows = [self._metrics(90, 1.0), self._metrics(10, 0.0)]
        agg = aggregate_metrics(rows)
        assert agg.inv_top1 == pytest.approx(0.9)
        assert agg.executions == 100

    def test_aggregate_empty(self):
        agg = aggregate_metrics([])
        assert agg.executions == 0
        assert agg.inv_top1 == 0.0

    def test_unweighted_mean_differs_from_weighted(self):
        rows = [self._metrics(90, 1.0), self._metrics(10, 0.0)]
        assert mean_unweighted(rows).inv_top1 == pytest.approx(0.5)

    def test_as_percentages(self):
        row = self._metrics(10, 0.5)
        rendered = row.as_percentages()
        assert rendered["Inv-Top1"] == pytest.approx(50.0)
        assert rendered["executions"] == 10


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=300))
def test_property_invariance_bounds(values):
    stats = ValueStreamStats()
    stats.record_many(values)
    inv1 = stats.invariance(1)
    assert 0.0 < inv1 <= 1.0
    assert inv1 >= 1.0 / len(values)
    # top-k coverage is monotone and reaches 1 at k = distinct
    assert stats.invariance(stats.distinct) == pytest.approx(1.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=300))
def test_property_lvp_counts_adjacent_pairs(values):
    expected_hits = sum(1 for a, b in zip(values, values[1:]) if a == b)
    assert profile_of(values).lvp() == pytest.approx(expected_hits / (len(values) - 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=200))
def test_property_zero_fraction(values):
    assert profile_of(values).pct_zeros() == pytest.approx(values.count(0) / len(values))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=100),
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=100),
)
def test_property_merge_equals_concatenation_for_histogram(a_values, b_values):
    merged = ValueStreamStats()
    merged.record_many(a_values)
    other = ValueStreamStats()
    other.record_many(b_values)
    merged.merge(other)

    reference = ValueStreamStats()
    reference.record_many(a_values + b_values)
    assert merged.histogram == reference.histogram
    assert merged.total == reference.total
    assert merged.invariance(1) == pytest.approx(reference.invariance(1))
