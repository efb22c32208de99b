"""Whole-trace kernels must be indistinguishable from per-event replay.

A predictor's :meth:`~repro.predictors.base.Predictor.guesses` may be a
fused rewrite of its ``predict``/``update`` loop; the base-class
``Predictor.guesses`` *is* that loop and serves as the oracle.  Over a
grid of constructor settings and traces drawn from small and wide int
alphabets, ``None`` and non-int hashables, the kernel must reproduce the
guess column, the scores, and the predictor's final state (dict order
included) — also when it resumes from a part-way state.  A hybrid's
column is :meth:`~repro.predictors.hybrid.HybridPredictor.select` over
its components' columns, as the harness computes it.

:meth:`ValueHistoryTable.replay` walks interned event columns; its
oracle is the per-event table it replaced, one
:class:`LastValuePredictor` per entry.
"""

import zlib
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sites import instruction_site, load_site
from repro.predictors.base import PredictionStats, Predictor, run_trace
from repro.predictors.context import FiniteContextPredictor, TwoLevelPredictor
from repro.predictors.harness import BankResult, evaluate_bank
from repro.predictors.hybrid import HybridPredictor, lvp_stride_hybrid, stride_2level_hybrid
from repro.predictors.last_value import LastValuePredictor
from repro.predictors.stride import StridePredictor
from repro.predictors.vht import ValueHistoryTable, VHTStats

#: constructor settings per class; the tight FCM and 2-level tables
#: reach the context-capacity, successor-decay and slot-replacement paths.
CONFIGS = {
    "lvp": LastValuePredictor,
    "lvp-2bit": lambda: LastValuePredictor(confidence_bits=2, threshold=2),
    "lvp-1bit": lambda: LastValuePredictor(confidence_bits=1, threshold=1),
    "lvp-threshold0": lambda: LastValuePredictor(confidence_bits=3, threshold=0),
    "stride": StridePredictor,
    "stride-plain": lambda: StridePredictor(two_delta=False),
    "2level": TwoLevelPredictor,
    "2level-small": lambda: TwoLevelPredictor(vht_size=2, history=2, counter_max=3),
    "2level-history0": lambda: TwoLevelPredictor(vht_size=1, history=0, counter_max=1),
    "fcm": FiniteContextPredictor,
    "fcm-tight": lambda: FiniteContextPredictor(order=1, max_contexts=3, max_successors=1),
    "fcm-order3": lambda: FiniteContextPredictor(order=3, max_contexts=6, max_successors=2),
    "hybrid(lvp+stride)": lvp_stride_hybrid,
    "hybrid(stride+2level)": stride_2level_hybrid,
    "hybrid(lvp+stride)-counter1": lambda: HybridPredictor(
        [LastValuePredictor(), StridePredictor()], counter_max=1
    ),
    "hybrid-3": lambda: HybridPredictor(
        [
            LastValuePredictor(confidence_bits=1, threshold=1),
            FiniteContextPredictor(order=1, max_contexts=4, max_successors=2),
            StridePredictor(two_delta=False),
        ],
        counter_max=3,
    ),
}

small_ints = st.integers(min_value=0, max_value=3)
wide_ints = st.integers(min_value=-(2**63), max_value=2**63 - 1)
others = st.one_of(
    st.none(),
    st.booleans(),
    st.text(alphabet="ab", max_size=2),
    st.tuples(small_ints),
    st.frozensets(small_ints, max_size=2),
)
traces = st.one_of(
    st.lists(small_ints, max_size=120),
    st.lists(st.one_of(wide_ints, st.integers(min_value=-3, max_value=3)), max_size=60),
    st.lists(st.one_of(st.none(), st.integers(min_value=-2, max_value=2)), max_size=80),
    st.lists(st.one_of(small_ints, others), max_size=80),
)


def full_state(obj):
    """Every attribute, recursively; dicts as item lists so insertion
    order counts, deques with their bound."""
    if isinstance(obj, Predictor):
        return (type(obj), {name: full_state(value) for name, value in vars(obj).items()})
    if isinstance(obj, dict):
        return [(key, full_state(value)) for key, value in obj.items()]
    if isinstance(obj, deque):
        return ("deque", list(obj), obj.maxlen)
    if isinstance(obj, list):
        return [full_state(item) for item in obj]
    return obj


def typed(column):
    """A column with each value's type, so ``1 == True`` cannot hide a
    difference."""
    return [(type(value), value) for value in column]


def reference_stats(predictor, trace):
    """The per-event scoring loop the harness used to run."""
    hits = no_prediction = 0
    for value in trace:
        guess = predictor.predict()
        if guess is None:
            no_prediction += 1
        elif guess == value:
            hits += 1
        predictor.update(value)
    return PredictionStats(predictor.name, len(trace), hits, no_prediction)


def kernel_guesses(predictor, trace):
    """The column as the harness computes it: a hybrid selects over its
    components' columns."""
    if isinstance(predictor, HybridPredictor):
        columns = [kernel_guesses(component, trace) for component in predictor.components]
        return predictor.select(trace, columns)
    return predictor.guesses(trace)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@settings(max_examples=60, deadline=None)
@given(trace=traces, data=st.data())
def test_kernel_matches_per_event_reference(config, trace, data):
    make = CONFIGS[config]
    split = data.draw(st.integers(min_value=0, max_value=len(trace)), label="split")
    oracle = make()
    expected = Predictor.guesses(oracle, trace)
    kernel = make()
    column = kernel_guesses(kernel, trace[:split])
    column += kernel_guesses(kernel, trace[split:])
    assert typed(column) == typed(expected)
    assert full_state(kernel) == full_state(oracle)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@settings(max_examples=30, deadline=None)
@given(trace=traces, container=st.sampled_from([iter, list, tuple, deque]))
def test_run_trace_scores_match_per_event_reference(config, trace, container):
    make = CONFIGS[config]
    oracle = make()
    expected = reference_stats(oracle, trace)
    kernel = make()
    assert run_trace(kernel, container(trace)) == expected
    assert full_state(kernel) == full_state(oracle)


@settings(max_examples=60, deadline=None)
@given(st.lists(traces, max_size=4))
def test_evaluate_bank_shares_columns_without_changing_scores(trace_list):
    # The standard bank shares lvp/stride/2level columns with both
    # hybrids; a component with its own settings must not be shared.
    bank = dict(CONFIGS)
    sites = {load_site("p", "f", index): trace for index, trace in enumerate(trace_list)}
    expected = []
    for name, make in bank.items():
        executions = hits = 0
        for trace in sites.values():
            stats = reference_stats(make(), trace)
            executions += stats.executions
            hits += stats.hits
        expected.append(BankResult(name, executions, hits, len(sites)))
    assert evaluate_bank(sites, bank) == expected


# ----------------------------------------------------------------------
# finite value-history table
# ----------------------------------------------------------------------

SITES = [load_site("p", "f", label) for label in range(3)] + [
    instruction_site("p", "g", label, "add") for label in range(3)
]


class ReferenceTable:
    """The per-event table: a fresh LastValuePredictor per claimed entry."""

    def __init__(self, entries, site_filter=None):
        self.site_filter = site_filter
        self.owners = [None] * entries
        self.predictors = [None] * entries
        self.stats = VHTStats(entries=entries)

    def process(self, site, value):
        stats = self.stats
        stats.events += 1
        if self.site_filter is not None and not self.site_filter(site):
            stats.filtered += 1
            return
        key = f"{site.kind.value}|{site.program}|{site.procedure}|{site.label}"
        index = zlib.crc32(key.encode()) % len(self.owners)
        if self.owners[index] != site:
            if self.owners[index] is not None:
                stats.conflict_evictions += 1
            else:
                stats.occupied += 1
            self.owners[index] = site
            self.predictors[index] = LastValuePredictor()
        guess = self.predictors[index].predict()
        if guess is not None:
            stats.predictions += 1
            if guess == value:
                stats.hits += 1
        self.predictors[index].update(value)


def interned(events, fresh_sites=False):
    """Column input for ``events``; ``fresh_sites`` rebuilds each site
    as an equal but distinct object, as a second trace's table would."""
    sites, site_ids, values, ids = [], [], [], {}
    for site, value in events:
        if site not in ids:
            ids[site] = len(sites)
            if fresh_sites:
                site = type(site)(site.kind, site.program, site.procedure, site.label)
            sites.append(site)
        site_ids.append(ids[site])
        values.append(value)
    return sites, site_ids, values


vht_events = st.lists(
    st.tuples(
        st.sampled_from(SITES),
        st.one_of(st.integers(min_value=0, max_value=2), st.none(), wide_ints),
    ),
    max_size=150,
)


@pytest.mark.parametrize("entries", [1, 2, 64])
@pytest.mark.parametrize("filtered", [False, True], ids=["unfiltered", "filtered"])
@settings(max_examples=60, deadline=None)
@given(events=vht_events, data=st.data())
def test_vht_replay_matches_per_event_table(entries, filtered, events, data):
    site_filter = None
    if filtered:
        kept = data.draw(st.sets(st.sampled_from(SITES)), label="kept")
        site_filter = kept.__contains__
    split = data.draw(st.integers(min_value=0, max_value=len(events)), label="split")
    reference = ReferenceTable(entries, site_filter)
    for site, value in events:
        reference.process(site, value)
    table = ValueHistoryTable(entries=entries, site_filter=site_filter)
    table.replay(*interned(events[:split]))
    stats = table.replay(*interned(events[split:], fresh_sites=True))
    assert stats == reference.stats
