"""The columnar fold path must be indistinguishable from per-event recording.

:mod:`repro.core.fold` reduces a site's value run once — grouped
``(value, count)`` chunks split at clearing boundaries plus the
order-sensitive scalars — and every batch method consumes that
reduction (``TNVTable.record_grouped`` chunk by chunk,
``ValueStreamStats.record_fold``, ``SiteProfile.record_fold``).  Every
observable result must match the per-event path bit for bit: resident
TNV entries *and* their dict order, clear positions, health telemetry,
LVP/zero/first/last scalars, exact histograms, serialized JSON.  The
kernel must fold an ``array`` column exactly as it folds the same run
as a list.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fold import fold_values
from repro.core.metrics import ValueStreamStats
from repro.core.profile import ProfileDatabase, SiteProfile, TNVConfig
from repro.core.sites import load_site
from repro.core.tnv import TNVTable
from repro.errors import ProfileError

SITE = load_site("prog", "main", 1)

#: TNV shapes covering the paper default, clearing disabled, a tiny
#: interval (clears mid-run), and a degenerate steady part.
CONFIGS = [
    dict(capacity=10, steady=5, clear_interval=2000),
    dict(capacity=10, steady=5, clear_interval=None),
    dict(capacity=4, steady=2, clear_interval=7),
    dict(capacity=3, steady=0, clear_interval=5),
    dict(capacity=1, steady=0, clear_interval=3),
]

values_strategy = st.lists(st.integers(min_value=-6, max_value=6), max_size=300)
runs_strategy = st.lists(
    st.tuples(st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=20)),
    max_size=40,
)


def tnv_full_state(table: TNVTable):
    """Every bit of TNV state, health telemetry included; ``_entries``
    as an item list so dict insertion order is part of the comparison."""
    return (
        list(table._entries.items()),
        table.total,
        table.clears,
        table._since_clear,
        table.evictions,
        table.promotions,
        table.turnover,
        table.last_turnover,
        table.saturated_clears,
        table._steady_values,
        table._size_after_clear,
    )


def stats_state(stats: ValueStreamStats):
    """The histogram, items in stored order: insertion order is state."""
    return list(stats.histogram.items())


def profile_state(profile: SiteProfile):
    """Every slot of the profile (the zeros, LVP hits, first and last
    value live only there), the full TNV state, the histogram, and the
    rows built from them."""
    state = {slot: getattr(profile, slot) for slot in SiteProfile.__slots__}
    state["tnv"] = tnv_full_state(profile.tnv)
    state["exact"] = None if profile.exact is None else stats_state(profile.exact)
    state["metrics"] = profile.metrics()
    state["tnv_metrics"] = profile.tnv_metrics()
    return state


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: str(c["clear_interval"]))
@settings(max_examples=60, deadline=None)
@given(values=values_strategy)
def test_fold_values_matches_per_event_profile(config, values):
    per_event = SiteProfile(SITE, TNVConfig(**config))
    for value in values:
        per_event.record(value)
    folded = SiteProfile(SITE, TNVConfig(**config))
    if values:
        folded.record_fold(fold_values(values, config["clear_interval"]))
    assert profile_state(folded) == profile_state(per_event)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: str(c["clear_interval"]))
@settings(max_examples=40, deadline=None)
@given(head=values_strategy, tail=values_strategy)
def test_fold_splices_onto_nonempty_profile(config, head, tail):
    """A fold split for the table's mid-stream ``since_clear`` position
    must splice on exactly — boundary LVP hit and clear phase included."""
    per_event = SiteProfile(SITE, TNVConfig(**config))
    for value in head + tail:
        per_event.record(value)
    folded = SiteProfile(SITE, TNVConfig(**config))
    for value in head:
        folded.record(value)
    if tail:
        folded.record_fold(
            fold_values(tail, config["clear_interval"], folded.tnv._since_clear)
        )
    assert profile_state(folded) == profile_state(per_event)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: str(c["clear_interval"]))
@settings(max_examples=60, deadline=None)
@given(values=values_strategy)
def test_tnv_health_counters_match_per_event(config, values):
    per_event = TNVTable(**config)
    for value in values:
        per_event.record(value)
    batched = TNVTable(**config)
    batched.record_many(values)
    assert tnv_full_state(batched) == tnv_full_state(per_event)
    assert batched.health() == per_event.health()
    assert batched.to_dict() == per_event.to_dict()


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: str(c["clear_interval"]))
@settings(max_examples=40, deadline=None)
@given(runs=runs_strategy)
def test_record_many_matches_expanded_runs(config, runs):
    """Long runs of one value — many LVP hits, runs straddling clears —
    batched through ``record_many`` match the per-event stream."""
    expanded = [value for value, count in runs for _ in range(count)]
    per_event = SiteProfile(SITE, TNVConfig(**config))
    for value in expanded:
        per_event.record(value)
    batched = SiteProfile(SITE, TNVConfig(**config))
    for value, count in runs:
        batched.record_many([value] * count)
    assert profile_state(batched) == profile_state(per_event)
    one_shot = SiteProfile(SITE, TNVConfig(**config))
    one_shot.record_many(expanded)
    assert profile_state(one_shot) == profile_state(per_event)


@settings(max_examples=40, deadline=None)
@given(runs=runs_strategy)
def test_stream_stats_record_many_matches_expanded_runs(runs):
    expanded = [value for value, count in runs for _ in range(count)]
    per_event = ValueStreamStats()
    for value in expanded:
        per_event.record(value)
    batched = ValueStreamStats()
    for value, count in runs:
        batched.record_many([value] * count)
    assert stats_state(batched) == stats_state(per_event)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: str(c["clear_interval"]))
@settings(max_examples=40, deadline=None)
@given(values=values_strategy)
def test_kernels_produce_identical_folds(config, values):
    """An ``array('q')`` column and the same run as a plain list must
    fold identically — chunk maps in the same order with the same
    Python-int values."""
    interval = config["clear_interval"]
    from_list = fold_values(values, interval)
    from_column = fold_values(array("q", values), interval)
    assert from_column.n == from_list.n
    assert from_column.first == from_list.first
    assert from_column.last == from_list.last
    assert from_column.lvp_hits == from_list.lvp_hits
    assert from_column.zeros == from_list.zeros
    assert [
        (list(counts.items()), n) for counts, n in from_column.chunks
    ] == [(list(counts.items()), n) for counts, n in from_list.chunks]
    for counts, _ in from_column.chunks:
        assert all(type(value) is int for value in counts)


class TestGuards:
    def test_grouped_record_must_not_cross_clear_boundary(self):
        table = TNVTable(capacity=4, steady=2, clear_interval=10)
        table.record_many([1] * 7)
        with pytest.raises(ProfileError):
            table.record_grouped({1: 4}, 4)
        # Landing exactly on the boundary is fine and fires the clear.
        table.record_grouped({1: 3}, 3)
        assert table.clears == 1
        assert table._since_clear == 0

    def test_fold_for_wrong_table_phase_rejected(self):
        profile = SiteProfile(SITE, TNVConfig(capacity=4, steady=2, clear_interval=10))
        with pytest.raises(ProfileError):
            profile.record_fold(fold_values([1, 2, 3], 99))
        profile.record(5)
        with pytest.raises(ProfileError):
            profile.record_fold(fold_values([1, 2, 3], 10))  # since=0, table at 1


class TestDatabaseFold:
    def test_record_fold_matches_record_batch(self):
        import random

        rng = random.Random(99)
        sites = [load_site("prog", "main", pc) for pc in range(4)]
        config = TNVConfig(capacity=4, steady=2, clear_interval=50)
        runs = {site: [rng.randrange(8) for _ in range(rng.randrange(300))] for site in sites}

        batched = ProfileDatabase(config=config)
        folded = ProfileDatabase(config=config)
        for site, values in runs.items():
            batched.record_batch(site, values)
            folded.record_fold(site, fold_values(values, config.clear_interval))
        assert folded.to_json() == batched.to_json()
        for site in sites:
            if runs[site]:
                assert stats_state(folded.profile_for(site).exact) == stats_state(
                    batched.profile_for(site).exact
                )


# ----------------------------------------------------------------------
# the kernel against per-event recording, path by path
# ----------------------------------------------------------------------

#: a small clearing interval, so runs cross boundaries at short lengths.
_INTERVAL = 32
_CROSSING_CONFIG = dict(capacity=4, steady=2, clear_interval=_INTERVAL)


def _crossing_length(rng, since: int, boundaries: int) -> int:
    """A run length from ``since`` that crosses ``boundaries`` clears."""
    room = _INTERVAL - since
    if boundaries == 0:
        return rng.randint(1, room)
    return rng.randint(room + (boundaries - 1) * _INTERVAL + 1, room + boundaries * _INTERVAL)


def _record_both(head, tail):
    """(per-event, folded) profiles of ``head + tail``; the fold takes
    ``tail`` onto a profile that recorded ``head`` per event."""
    per_event = SiteProfile(SITE, TNVConfig(**_CROSSING_CONFIG))
    for value in head + tail:
        per_event.record(value)
    folded = SiteProfile(SITE, TNVConfig(**_CROSSING_CONFIG))
    for value in head:
        folded.record(value)
    folded.record_many(tail)
    return per_event, folded


@pytest.mark.parametrize("boundaries", [0, 1, 2, 3])
@pytest.mark.parametrize("distinct", ["few", "most"])
@pytest.mark.parametrize("history", [False, True], ids=["empty", "nonempty"])
def test_kernel_matches_per_event_on_every_path(boundaries, distinct, history, monkeypatch):
    """Runs crossing 0–3 clearing boundaries, on both sides of the
    recount crossover, into an empty and a non-empty exact histogram."""
    import random

    from repro.core import metrics as metrics_module

    recounts = []
    count_elements = metrics_module._count_elements

    def spy(mapping, values):
        recounts.append(len(values))
        return count_elements(mapping, values)

    monkeypatch.setattr(metrics_module, "_count_elements", spy)
    rng = random.Random(f"{boundaries}-{distinct}-{history}")
    paths = set()
    for _ in range(25):
        head = [rng.randrange(3) for _ in range(rng.randint(1, 40))] if history else []
        since = len(head) % _INTERVAL
        n = _crossing_length(rng, since, boundaries)
        if distinct == "few":
            tail = [rng.randrange(2) for _ in range(n)]
        else:
            tail = rng.sample(range(-1000, 1000), n)
        fold = fold_values(tail, _INTERVAL, since)
        assert len(fold.chunks) == boundaries + 1
        # The crossover rule: recount the run in C when there is more
        # than one map to merge and it is mostly distinct.
        maps = [counts for counts, _ in fold.chunks]
        recount = (history or len(maps) > 1) and (
            sum(map(len, maps)) * metrics_module.RECOUNT_EVENTS_PER_DISTINCT > n
        )
        paths.add(recount)
        recounts.clear()
        per_event, folded = _record_both(head, tail)
        assert profile_state(folded) == profile_state(per_event)
        assert bool(recounts) == recount
    if distinct == "few":
        assert False in paths, "no run merged its maps in Python"
    elif history or boundaries:
        assert True in paths, "no run was recounted in C"


class _Opaque:
    """Hashes like 0 but refuses to compare with an int, as some
    numeric wrappers do: ``== 0`` raises ``TypeError``."""

    __slots__ = ("tag",)

    def __init__(self, tag: int) -> None:
        self.tag = tag

    def __hash__(self) -> int:
        return 0

    def __eq__(self, other):
        if isinstance(other, _Opaque):
            return self.tag == other.tag
        raise TypeError("not comparable with a non-opaque value")


@pytest.mark.parametrize("boundaries", [0, 2])
def test_kernel_zeros_fallback_matches_per_event(boundaries):
    import random

    rng = random.Random(boundaries)
    head = [_Opaque(rng.randrange(3)) for _ in range(5)]
    n = _crossing_length(rng, len(head) % _INTERVAL, boundaries)
    tail = [_Opaque(rng.randrange(4)) for _ in range(n)]
    fold = fold_values(tail, _INTERVAL, len(head) % _INTERVAL)
    assert fold.zeros == 0
    per_event, folded = _record_both(head, tail)
    assert profile_state(folded) == profile_state(per_event)


# ----------------------------------------------------------------------
# the event-column helpers: one gather, and the router's split
# ----------------------------------------------------------------------

columns_strategy = st.lists(
    st.tuples(st.integers(0, 7), st.integers(-(2**63), 2**63 - 1)), max_size=200
)


@pytest.mark.parametrize("mode", ["numpy", "python"])
@settings(max_examples=150, deadline=None)
@given(events=columns_strategy, wanted=st.lists(st.booleans(), min_size=8, max_size=8))
def test_column_helpers_match_per_event_oracles(mode, events, wanted):
    """Both paths of :func:`gather` group by id in first-appearance
    order into runs of Python ints, both paths of :func:`partition`
    keep each owner's events in column order, and both paths of
    :func:`lookup` map each id through its table."""
    from repro.core import columns
    from repro.core.columns import gather, lookup, partition

    if mode == "numpy" and columns._np is None:
        pytest.skip("numpy not installed")
    ids = array("I", [sid for sid, _ in events])
    values = array("q", [value for _, value in events])
    owners = bytes(sid % 3 for sid in range(8))
    runs, kept = {}, {}
    for sid, value in events:
        runs.setdefault(sid, []).append(value)
        if wanted[sid]:
            kept.setdefault(sid, []).append(value)
    with pytest.MonkeyPatch.context() as patch:
        if mode == "python":
            patch.setattr(columns, "_np", None)
        assert gather(ids, values, 8) == list(runs.items())
        assert gather(ids, values, 1 << 17) == list(runs.items())  # ids too wide for uint16
        assert gather(ids, values, 8, wanted) == list(kept.items())
        assert all(type(value) is int for _, run in gather(ids, values, 8) for value in run)
        split = partition(ids, values, owners, 3)
        assert [(part.typecode, part_values.typecode) for part, part_values in split] == [("I", "q")] * 3
        assert [(list(part), list(part_values)) for part, part_values in split] == [
            ([sid for sid, _ in events if owners[sid] == owner],
             [value for sid, value in events if owners[sid] == owner])
            for owner in range(3)
        ]
        with pytest.raises(IndexError):
            partition(array("I", [0, 8]), array("q", [1, 2]), owners, 3)
        table = array("i", [5, -1, 7, 0, 1, 2, 3, 4])
        found = lookup(table, array("I", [sid for sid, _ in events if sid != 1]))
        assert found.typecode == "I"
        assert list(found) == [table[sid] for sid, _ in events if sid != 1]
        for bad in ([1], [8], [0, 9]):
            with pytest.raises(IndexError):
                lookup(table, array("I", bad))
