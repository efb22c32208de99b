"""Predictor evaluation harness.

Replays per-site value traces (collected by
:func:`repro.workloads.trace_workload`) through a bank of predictors —
one fresh predictor instance per site, as in hardware where each table
entry serves one static instruction — and aggregates hit rates.

Also implements the Gabbay-style *filtered* evaluation: only sites a
value profile classifies as predictable occupy prediction-table
entries; everything else is never predicted.  The experiment reports
both the accuracy among predicted executions and the table pressure
(fraction of static sites occupying entries).

Both score guess columns (:meth:`Predictor.guesses`) rather than
calling the predictors per event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence

from repro.core.metrics import SiteMetrics
from repro.core.sites import Site
from repro.predictors.base import Predictor, Value, run_trace, score
from repro.predictors.classify import SiteFilter
from repro.predictors.context import FiniteContextPredictor, TwoLevelPredictor
from repro.predictors.hybrid import HybridPredictor, lvp_stride_hybrid, stride_2level_hybrid
from repro.predictors.last_value import LastValuePredictor
from repro.predictors.stride import StridePredictor

PredictorFactory = Callable[[], Predictor]

#: The predictor bank from the thesis' related-work comparison (§II.A).
STANDARD_BANK: Dict[str, PredictorFactory] = {
    "lvp": LastValuePredictor,
    "stride": StridePredictor,
    "2level": TwoLevelPredictor,
    "fcm": FiniteContextPredictor,
    "hybrid(lvp+stride)": lvp_stride_hybrid,
    "hybrid(stride+2level)": stride_2level_hybrid,
}


@dataclass(frozen=True)
class BankResult:
    """Aggregate accuracy of one predictor across all sites."""

    predictor: str
    executions: int
    hits: int
    sites: int

    @property
    def accuracy(self) -> float:
        if self.executions == 0:
            return 0.0
        return self.hits / self.executions


def evaluate_bank(
    traces: Mapping[Site, Sequence],
    bank: Optional[Mapping[str, PredictorFactory]] = None,
) -> List[BankResult]:
    """Run every predictor in ``bank`` over every trace.

    Returns one :class:`BankResult` per predictor, ordered as in the
    bank (``None`` selects :data:`STANDARD_BANK`).  Aggregation weights
    sites by execution count (sum of hits over sum of executions), the
    paper's convention.  Each factory must build a fresh predictor:
    on each trace a configuration's guess column is computed once and
    shared by every bank member (or hybrid component) built with it.
    """
    bank = dict(STANDARD_BANK if bank is None else bank)
    executions = dict.fromkeys(bank, 0)
    hits = dict.fromkeys(bank, 0)
    for trace in traces.values():
        shared: Dict[Hashable, List[Optional[Value]]] = {}
        for name, factory in bank.items():
            stats = score(name, trace, _shared_column(factory(), trace, shared))
            executions[name] += stats.executions
            hits[name] += stats.hits
    return [BankResult(name, executions[name], hits[name], len(traces)) for name in bank]


def _shared_column(
    predictor: Predictor, trace: Sequence, shared: Dict[Hashable, List[Optional[Value]]]
) -> List[Optional[Value]]:
    """A fresh ``predictor``'s guess column over ``trace``, looked up in
    (or added to) ``shared`` by configuration."""
    key = predictor.config()
    column = shared.get(key) if key is not None else None
    if column is None:
        if isinstance(predictor, HybridPredictor):
            components = [_shared_column(c, trace, shared) for c in predictor.components]
            column = predictor.select(trace, components)
        else:
            column = predictor.guesses(trace)
        if key is not None:
            shared[key] = column
    return column


@dataclass(frozen=True)
class FilteredResult:
    """Outcome of profile-guided filtered prediction."""

    predictor: str
    filter_name: str
    total_executions: int
    predicted_executions: int
    hits: int
    total_sites: int
    predicted_sites: int

    @property
    def accuracy_on_predicted(self) -> float:
        """Hit rate among executions the predictor handled."""
        if self.predicted_executions == 0:
            return 0.0
        return self.hits / self.predicted_executions

    @property
    def coverage(self) -> float:
        """Fraction of all executions that received a prediction."""
        if self.total_executions == 0:
            return 0.0
        return self.predicted_executions / self.total_executions

    @property
    def table_pressure(self) -> float:
        """Fraction of static sites occupying prediction-table entries."""
        if self.total_sites == 0:
            return 0.0
        return self.predicted_sites / self.total_sites


def evaluate_filtered(
    traces: Mapping[Site, Sequence],
    metrics: Mapping[Site, SiteMetrics],
    site_filter: SiteFilter,
    factory: PredictorFactory = LastValuePredictor,
    predictor_name: str = "lvp",
    filter_name: str = "profile",
) -> FilteredResult:
    """Predict only sites the profile marks predictable.

    ``metrics`` would come from a *training* profile; applying it to a
    test-input trace demonstrates the cross-input transfer the thesis
    argues for (Table V.5).
    """
    total_executions = sum(len(trace) for trace in traces.values())
    predicted_executions = 0
    hits = 0
    predicted_sites = 0
    for site, trace in traces.items():
        site_metrics = metrics.get(site)
        if site_metrics is None or not site_filter(site, site_metrics):
            continue
        predicted_sites += 1
        stats = run_trace(factory(), trace)
        predicted_executions += stats.executions
        hits += stats.hits
    return FilteredResult(
        predictor=predictor_name,
        filter_name=filter_name,
        total_executions=total_executions,
        predicted_executions=predicted_executions,
        hits=hits,
        total_sites=len(traces),
        predicted_sites=predicted_sites,
    )
