"""Value-profile metrics (thesis §III.C).

The thesis reports four metrics per site, plus an execution-weighted
aggregate across sites.  This module provides both:

* :class:`ValueStreamStats` — the exact value histogram of a stream,
  and nothing else.  It is the *reference* the bounded TNV table's
  invariance and distinct-value estimates are measured against.
* :class:`SiteMetrics` — the per-site result row: ``LVP``,
  ``Inv-Top(1)``, ``Inv-Top(N)`` ("Inv-All" in Table V.5's caption),
  ``Diff(L/I)`` and ``%Zeros``.  One method builds it,
  :meth:`repro.core.profile.SiteProfile.metrics`, from the profile's
  own scalars (executions, LVP hits, zeros) and either this histogram
  or the TNV table's estimates.
* :func:`weighted_mean` / :func:`aggregate_metrics` — the paper weights
  every per-program number by execution frequency, so a load executed a
  million times influences the average a million times more than a load
  executed once.
"""

from __future__ import annotations

from collections import Counter, _count_elements
from dataclasses import dataclass
from heapq import nlargest
from typing import Hashable, Iterable, List, Sequence, Tuple

from repro.core.fold import SiteFold

Value = Hashable

#: Number of top values contributing to "Inv-All" — the size of the
#: paper's TNV table.
TOP_N = 10

#: A run folds into a non-empty exact histogram by recounting its
#: events in C once it has more than one distinct value per this many
#: events; below that, merging its distinct ``(value, count)`` pairs in
#: Python is cheaper.  Measured with ``Counter`` histograms on a
#: 2-CPU x86-64 host under CPython 3.11: the Python merge cost 150–310
#: ns per distinct value, ``_count_elements`` 57–92 ns per event.
RECOUNT_EVENTS_PER_DISTINCT = 3


class ValueStreamStats:
    """The exact value histogram of one site's dynamic value stream.

    Unlike :class:`repro.core.tnv.TNVTable` this keeps the *full*
    histogram, so the invariance and distinct-value figures it yields
    are exact: it is the ground truth TNV-accuracy experiments measure
    the bounded table against.  It keeps nothing else.  The
    order-sensitive scalars (LVP hits, zeros, first and last value) and
    the execution count live once, on the
    :class:`~repro.core.profile.SiteProfile` that owns the histogram,
    and :meth:`~repro.core.profile.SiteProfile.metrics` builds the
    per-site row from both.
    """

    __slots__ = ("_histogram",)

    def __init__(self) -> None:
        self._histogram: Counter = Counter()

    def record(self, value: Value) -> None:
        """Record one dynamic execution producing ``value``."""
        self._histogram[value] += 1

    def record_many(self, values: Iterable[Value]) -> None:
        """Record a run of dynamic values in order.

        State-identical to per-value :meth:`record` calls: one C-level
        counting pass, which inserts new values in first-appearance
        order.
        """
        _count_elements(self._histogram, values)

    def record_fold(self, fold: SiteFold) -> None:
        """Fold an already-reduced run into the histogram.

        The columnar fast path: the run's counts arrive precomputed
        (one reduction, shared with the TNV table — see
        :mod:`repro.core.fold`) in first-appearance order.  A mostly
        distinct run (see :data:`RECOUNT_EVENTS_PER_DISTINCT`) with
        more than one map to merge is recounted with one C pass over
        :attr:`~repro.core.fold.SiteFold.values` instead of merging its
        distinct values one at a time.  Every path inserts new values in
        the same order.
        """
        n = fold.n
        if n == 0:
            return
        histogram = self._histogram
        chunks = fold.chunks
        recount = False
        if histogram or len(chunks) > 1:
            # A loop, not ``sum`` over a generator: most runs are one
            # event long, and a generator costs a frame per run.
            pairs = 0
            for counts, _ in chunks:
                pairs += len(counts)
            recount = pairs * RECOUNT_EVENTS_PER_DISTINCT > n
        if recount:
            _count_elements(histogram, fold.values)
        else:
            get = histogram.get
            for counts, _ in chunks:
                if histogram:
                    # ``Counter.update``'s loop, without its generic
                    # dispatch (a Mapping ABC check and a method call).
                    for value, count in counts.items():
                        histogram[value] = get(value, 0) + count
                else:
                    dict.update(histogram, counts)

    # ------------------------------------------------------------------

    @property
    def total(self) -> int:
        """Executions recorded: the sum of the histogram's counts."""
        return sum(self._histogram.values())

    @property
    def distinct(self) -> int:
        """``Diff(L/I)`` — number of different values seen."""
        return len(self._histogram)

    @property
    def histogram(self) -> Counter:
        """The full value histogram (do not mutate)."""
        return self._histogram

    def top(self, k: int) -> List[Tuple[Value, int]]:
        """Top-``k`` (value, count) pairs, hottest first, deterministic."""
        ranked = sorted(self._histogram.items(), key=lambda item: (-item[1], repr(item[0])))
        return ranked[:k]

    def invariance(self, k: int = 1) -> float:
        """``Inv-Top(k)``: fraction of executions covered by the top-k values.

        Sums the ``k`` largest counts without ranking the values: the
        sum does not depend on how :meth:`top` breaks ties, so it equals
        the sum of the counts ``top(k)`` returns.
        """
        counts = self._histogram.values()
        total = sum(counts)
        if total == 0:
            return 0.0
        return sum(nlargest(k, counts)) / total

    def merge(self, other: "ValueStreamStats") -> None:
        """Fold another stream's histogram into this one."""
        self._histogram.update(other._histogram)


@dataclass(frozen=True)
class SiteMetrics:
    """One row of the paper's per-site results.

    Attributes:
        executions: dynamic execution count of the site.
        lvp: last-value predictability in [0, 1].
        inv_top1: ``Inv-Top(1)`` invariance in [0, 1].
        inv_top_n: ``Inv-Top(N)`` / "Inv-All" invariance in [0, 1].
        distinct: ``Diff(L/I)`` — number of different values.
        pct_zeros: fraction of zero values in [0, 1].
    """

    executions: int
    lvp: float
    inv_top1: float
    inv_top_n: float
    distinct: int
    pct_zeros: float

    def as_percentages(self) -> dict:
        """Rendering helper: ratios scaled to percentages."""
        return {
            "executions": self.executions,
            "LVP": 100.0 * self.lvp,
            "Inv-Top1": 100.0 * self.inv_top1,
            "Inv-All": 100.0 * self.inv_top_n,
            "Diff": self.distinct,
            "%Zeros": 100.0 * self.pct_zeros,
        }


def weighted_mean(pairs: Iterable[Tuple[float, float]]) -> float:
    """Mean of ``value`` weighted by ``weight`` over (value, weight) pairs."""
    total_weight = 0.0
    accum = 0.0
    for value, weight in pairs:
        accum += value * weight
        total_weight += weight
    if total_weight == 0:
        return 0.0
    return accum / total_weight


def aggregate_metrics(rows: Sequence[SiteMetrics]) -> SiteMetrics:
    """Execution-weighted aggregate across sites (the paper's averages).

    ``distinct`` is aggregated as the execution-weighted mean number of
    different values, rounded — the thesis reports "average number of
    different values per load".
    """
    executions = sum(row.executions for row in rows)
    if executions == 0:
        return SiteMetrics(0, 0.0, 0.0, 0.0, 0, 0.0)

    def wavg(extract) -> float:
        return weighted_mean((extract(row), row.executions) for row in rows)

    return SiteMetrics(
        executions=executions,
        lvp=wavg(lambda r: r.lvp),
        inv_top1=wavg(lambda r: r.inv_top1),
        inv_top_n=wavg(lambda r: r.inv_top_n),
        distinct=round(wavg(lambda r: float(r.distinct))),
        pct_zeros=wavg(lambda r: r.pct_zeros),
    )


def mean_unweighted(rows: Sequence[SiteMetrics]) -> SiteMetrics:
    """Plain (per-site) mean, for contrast with the weighted aggregate."""
    if not rows:
        return SiteMetrics(0, 0.0, 0.0, 0.0, 0, 0.0)
    n = len(rows)
    return SiteMetrics(
        executions=sum(r.executions for r in rows) // n,
        lvp=sum(r.lvp for r in rows) / n,
        inv_top1=sum(r.inv_top1 for r in rows) / n,
        inv_top_n=sum(r.inv_top_n for r in rows) / n,
        distinct=round(sum(r.distinct for r in rows) / n),
        pct_zeros=sum(r.pct_zeros for r in rows) / n,
    )
