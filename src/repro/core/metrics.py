"""Value-profile metrics (thesis §III.C).

The thesis reports four metrics per site, plus an execution-weighted
aggregate across sites.  This module provides both:

* :class:`ValueStreamStats` — an exact, online accumulator over a value
  stream.  It maintains the full value histogram, the last value (for
  the LVP metric), and the zero count.  This is the *reference*
  implementation the bounded TNV table is measured against.
* :class:`SiteMetrics` — the per-site result row: ``LVP``,
  ``Inv-Top(1)``, ``Inv-Top(N)`` ("Inv-All" in Table V.5's caption),
  ``Diff(L/I)`` and ``%Zeros``.
* :func:`weighted_mean` / :func:`aggregate_metrics` — the paper weights
  every per-program number by execution frequency, so a load executed a
  million times influences the average a million times more than a load
  executed once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import nlargest
from itertools import islice
from operator import eq
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

Value = Hashable

#: Number of top values contributing to "Inv-All" — the size of the
#: paper's TNV table.
TOP_N = 10

#: Values considered "zero" for the %Zeros metric.  The ISA front end
#: records machine integers; the Python front end may record ``None``
#: or ``0.0`` which play the same "trivial value" role.
_ZERO_VALUES = frozenset({0})


def is_zero(value: Value) -> bool:
    """Whether ``value`` counts toward the %Zeros metric."""
    try:
        return value in _ZERO_VALUES or value == 0
    except TypeError:  # unhashable comparisons cannot happen; non-numeric can
        return False


class ValueStreamStats:
    """Exact online statistics over one site's dynamic value stream.

    Unlike :class:`repro.core.tnv.TNVTable` this keeps the *full*
    histogram, so its metrics are exact.  It exists (a) as ground truth
    for TNV-accuracy experiments and (b) to compute LVP, which a TNV
    table cannot produce because it stores no ordering information.
    """

    __slots__ = (
        "_histogram",
        "_total",
        "_zeros",
        "_lvp_hits",
        "_last",
        "_has_last",
        "_first",
        "_has_first",
    )

    def __init__(self) -> None:
        self._histogram: Counter = Counter()
        self._total = 0
        self._zeros = 0
        self._lvp_hits = 0
        self._last: Value = None
        self._has_last = False
        self._first: Value = None
        self._has_first = False

    def record(self, value: Value) -> None:
        """Record one dynamic execution producing ``value``."""
        self._total += 1
        self._histogram[value] += 1
        if is_zero(value):
            self._zeros += 1
        if self._has_last and value == self._last:
            self._lvp_hits += 1
        if not self._has_first:
            self._first = value
            self._has_first = True
        self._last = value
        self._has_last = True

    def record_many(self, values: Iterable[Value]) -> None:
        """Record a run of dynamic values in order.

        State-identical to per-value :meth:`record` calls, but counts
        duplicates with one C-level pass and updates the LVP adjacency
        count pairwise instead of paying a Python call per event.
        """
        if not isinstance(values, (list, tuple)):
            values = list(values)
        if not values:
            return
        counts = Counter(values)
        zeros = 0
        for value, count in counts.items():
            if is_zero(value):
                zeros += count
        # map+operator.eq runs the adjacency scan at C speed; the old
        # zip genexpr paid a Python-level comparison per event.
        hits = sum(map(eq, values, islice(values, 1, None))) if len(values) > 1 else 0
        self.record_parts(
            counts=counts,
            n=len(values),
            zeros=zeros,
            lvp_hits=hits,
            first=values[0],
            last=values[-1],
        )

    def record_run(self, value: Value, count: int) -> None:
        """Record ``count`` consecutive executions producing ``value``.

        State-identical to ``count`` :meth:`record` calls: the run
        contributes ``count - 1`` internal last-value hits, plus the
        run-boundary hit when it continues the previous value.
        """
        if count <= 0:
            return
        self.record_parts(
            counts={value: count},
            n=count,
            zeros=count if is_zero(value) else 0,
            lvp_hits=count - 1,
            first=value,
            last=value,
        )

    def record_grouped(self, pairs: Iterable[Tuple[Value, int]]) -> None:
        """Record run-length ``(value, count)`` pairs in stream order.

        Each pair stands for ``count`` consecutive executions of
        ``value``; the expanded stream is recorded exactly, including
        last-value hits across pair boundaries (adjacent pairs may
        carry equal values).
        """
        for value, count in pairs:
            self.record_run(value, count)

    def record_parts(
        self,
        counts: Dict[Value, int],
        n: int,
        zeros: int,
        lvp_hits: int,
        first: Value,
        last: Value,
    ) -> None:
        """Fold an already-reduced run into the statistics.

        The columnar fast path: a run's histogram, zero count and
        *internal* adjacency hits arrive precomputed (one reduction,
        shared with the TNV table — see :mod:`repro.core.fold`); this
        method only splices the run onto the stream recorded so far by
        adding the boundary last-value hit and advancing first/last.
        """
        if n == 0:
            return
        self._histogram.update(counts)
        self._total += n
        self._zeros += zeros
        self._lvp_hits += lvp_hits
        if self._has_last and first == self._last:
            self._lvp_hits += 1
        if not self._has_first:
            self._first = first
            self._has_first = True
        self._last = last
        self._has_last = True

    # ------------------------------------------------------------------

    @property
    def total(self) -> int:
        return self._total

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
        if self._total == 0:
            return 0.0
        return sum(nlargest(k, self._histogram.values())) / self._total

    def lvp(self) -> float:
        """Last-value predictability: P(value == previous value).

        The first execution has no predecessor and is excluded from the
        denominator, matching a last-value predictor that cannot predict
        its first encounter.
        """
        if self._total <= 1:
            return 0.0
        return self._lvp_hits / (self._total - 1)

    def pct_zeros(self) -> float:
        """Fraction of executions whose value was zero."""
        if self._total == 0:
            return 0.0
        return self._zeros / self._total

    def merge(self, other: "ValueStreamStats") -> None:
        """Fold another stream's histogram into this one.

        The merged state matches recording ``other``'s stream directly
        after this one: when ``other``'s first value equals this
        stream's last value, the run boundary itself is an LVP hit and
        is counted.
        """
        self._histogram.update(other._histogram)
        self._total += other._total
        self._zeros += other._zeros
        self._lvp_hits += other._lvp_hits
        if self._has_last and other._has_first and other._first == self._last:
            self._lvp_hits += 1
        if not self._has_first:
            self._first = other._first
            self._has_first = other._has_first
        if other._has_last:
            self._last = other._last
            self._has_last = True

    def metrics(self, top_n: int = TOP_N) -> "SiteMetrics":
        """Freeze the current state into a :class:`SiteMetrics` row.

        Takes the top counts once; Inv-Top(1) and Inv-Top(N) both come
        from that list, exactly as :meth:`invariance` computes them.
        """
        total = self._total
        if total == 0:
            inv_top1 = inv_top_n = 0.0
        else:
            counts = nlargest(max(top_n, 1), self._histogram.values())
            inv_top1 = counts[0] / total
            inv_top_n = sum(counts[:top_n]) / total
        return SiteMetrics(
            executions=total,
            lvp=self.lvp(),
            inv_top1=inv_top1,
            inv_top_n=inv_top_n,
            distinct=self.distinct,
            pct_zeros=self.pct_zeros(),
        )


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
