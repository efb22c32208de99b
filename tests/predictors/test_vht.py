"""Tests for the finite Value History Table."""

import pytest

from repro.core.sites import load_site
from repro.predictors.vht import ValueHistoryTable

SITE_A = load_site("p", "f", 1)
SITE_B = load_site("p", "f", 2)


def columns(events):
    """Intern ``(site, value)`` pairs into the table's column input."""
    sites, site_ids, values, ids = [], [], [], {}
    for site, value in events:
        if site not in ids:
            ids[site] = len(sites)
            sites.append(site)
        site_ids.append(ids[site])
        values.append(value)
    return sites, site_ids, values


class TestBasicOperation:
    def test_single_site_behaves_like_lvp(self):
        table = ValueHistoryTable(entries=16)
        stats = table.replay(*columns([(SITE_A, 7)] * 100))
        assert stats.hits == 99
        assert stats.predictions == 99

    def test_first_event_makes_no_prediction(self):
        table = ValueHistoryTable(entries=16)
        table.replay(*columns([(SITE_A, 1)]))
        assert table.stats.predictions == 0

    def test_occupancy_counted(self):
        table = ValueHistoryTable(entries=16)
        table.replay(*columns([(SITE_A, 1)]))
        table.replay(*columns([(SITE_B, 2)]))
        assert table.stats.occupied <= 2
        assert table.stats.occupied + table.stats.conflict_evictions == 2

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            ValueHistoryTable(entries=0)


class TestAliasing:
    def test_single_entry_table_thrashes(self):
        # Two sites forced into one entry: alternating access evicts
        # every time, so no prediction ever sticks.
        table = ValueHistoryTable(entries=1)
        events = []
        for _ in range(50):
            events.append((SITE_A, 1))
            events.append((SITE_B, 2))
        stats = table.replay(*columns(events))
        assert stats.hits == 0
        assert stats.conflict_evictions >= 98

    def test_large_table_avoids_thrash(self):
        table = ValueHistoryTable(entries=4096)
        events = []
        for _ in range(50):
            events.append((SITE_A, 1))
            events.append((SITE_B, 2))
        stats = table.replay(*columns(events))
        # With (almost certainly) distinct entries, both sites predict.
        assert stats.hit_rate_overall > 0.9 or stats.conflict_evictions > 0

    def test_filter_protects_predictable_site(self):
        # SITE_B is noise (never repeats); excluding it lets SITE_A's
        # entry survive even in a 1-entry table.
        events = []
        for i in range(50):
            events.append((SITE_A, 1))
            events.append((SITE_B, i))
        unfiltered = ValueHistoryTable(entries=1).replay(*columns(events))
        filtered = ValueHistoryTable(
            entries=1, site_filter=lambda s: s == SITE_A
        ).replay(*columns(events))
        assert unfiltered.hits == 0
        assert filtered.hits == 49
        assert filtered.filtered == 50  # SITE_B events never touched the table

    def test_conflict_rate_property(self):
        table = ValueHistoryTable(entries=1)
        table.replay(*columns([(SITE_A, 1), (SITE_B, 1), (SITE_A, 1)]))
        assert table.stats.conflict_rate == pytest.approx(2 / 3)


class TestStatsProperties:
    def test_empty_stats(self):
        stats = ValueHistoryTable(entries=4).stats
        assert stats.hit_rate_overall == 0.0
        assert stats.hit_rate_predicted == 0.0
        assert stats.conflict_rate == 0.0

    def test_hit_rates_differ_when_coverage_partial(self):
        table = ValueHistoryTable(entries=16, site_filter=lambda s: s == SITE_A)
        events = [(SITE_A, 5)] * 10 + [(SITE_B, 9)] * 10
        stats = table.replay(*columns(events))
        assert stats.hit_rate_predicted > stats.hit_rate_overall
