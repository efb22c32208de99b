"""The columnar fold kernel: the one batch path into every profile structure.

Per-event ``record`` on :class:`~repro.core.tnv.TNVTable`,
:class:`~repro.core.metrics.ValueStreamStats` and
:class:`~repro.core.profile.SiteProfile` is the specification; every
batch of values takes this kernel instead.  A site's value run is
reduced **once** into a :class:`SiteFold` — run-length splitting at
clearing-interval boundaries, per-chunk ``(value, count)`` group-by in
first-appearance order, plus the order-sensitive scalars (zeros,
first/last, and LVP adjacency hits counted on first read) the grouped
representation cannot carry — and one fold feeds each per-site
structure once: the profile's scalars
(:meth:`~repro.core.profile.SiteProfile.record_fold`, the only place
they are kept), its TNV table
(:meth:`~repro.core.tnv.TNVTable.record_grouped`, chunk by chunk) and
its exact histogram
(:meth:`~repro.core.metrics.ValueStreamStats.record_fold`).

One kernel does the reduction, in pure Python: one C-level counting
pass per clear-interval chunk (the counting helper behind ``Counter``,
which preserves first-appearance order) and, for a profile's LVP hits
only, a C-level ``sum(map(eq, ...))`` adjacency pass.  It outran a
sort-based vectorized kernel on the skewed small-integer runs the
workloads produce.

Only the step ahead of it is vectorized: the per-site gather
(:func:`repro.core.columns.gather`), which the trace store's replays
and a serve shard's flushes share, hands the kernel each site's run as
a list of Python ints.

Most runs are short (a live shard's buffered runs have a median length
of one event), so the kernel's fixed cost per call matters as much as
its cost per event: it counts into plain dicts rather than building a
``Counter`` per run, and a run that stays inside one clearing interval
is counted once, with no chunk split.  A run that crosses a clearing
boundary is counted once per chunk and never as a whole: the exact
histogram merges the chunk maps or recounts the run itself
(:meth:`~repro.core.metrics.ValueStreamStats.record_fold`).
"""

from __future__ import annotations

from collections import _count_elements
from dataclasses import dataclass, field
from itertools import islice
from operator import eq
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

Value = Hashable

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


@dataclass
class SiteFold:
    """One site's value run, reduced to the grouped representation.

    The fold carries everything the profile structures consume, so no
    per-event objects survive past the kernel:

    Attributes:
        n: total number of events in the run.
        first: first value of the run (``None`` iff ``n == 0``).
        last: last value of the run.
        zeros: events whose value is zero (:func:`is_zero`).
        chunks: ``(counts, n)`` per clearing-interval chunk, split
            exactly where per-event recording would clear; each chunk's
            map is first-appearance ordered, which is what makes grouped
            TNV admission bit-identical to per-event recording.
        interval: the clearing interval the chunks were split for.
        since: the table's ``since_clear`` position the split assumed.
        values: the run itself; the exact histogram may recount it in C
            instead of merging distinct values in Python.
    """

    n: int
    first: Value
    last: Value
    zeros: int
    chunks: List[Tuple[Dict[Value, int], int]]
    interval: Optional[int]
    since: int
    values: Sequence[Value]
    _lvp_hits: Optional[int] = field(default=None, repr=False, compare=False)

    @property
    def lvp_hits(self) -> int:
        """Adjacent-equal pairs *inside* the run (the recorder adds the
        run-boundary hit against its own previous value).

        Counted from :attr:`values` on first read, in one C pass
        (map+operator.eq beat both the zip genexpr and
        itertools.groupby on every tested distribution): a TNV table
        never reads it, so its fold skips the pass.
        """
        hits = self._lvp_hits
        if hits is None:
            values = self.values
            hits = self._lvp_hits = sum(map(eq, values, islice(values, 1, None)))
        return hits


def _chunk_bounds(n: int, interval: Optional[int], since: int) -> List[Tuple[int, int]]:
    """(start, end) chunk offsets mirroring ``record_many``'s splits."""
    if interval is None:
        return [(0, n)]
    bounds = []
    start = 0
    room = interval - since
    while start < n:
        end = start + room
        if end > n:
            end = n
        bounds.append((start, end))
        start = end
        room = interval
    return bounds


def fold_values(
    values: Sequence[Value],
    interval: Optional[int],
    since: int = 0,
) -> SiteFold:
    """Reduce one site's value run to its :class:`SiteFold`.

    ``interval``/``since`` must describe the TNV table the fold will be
    fed to (:meth:`~repro.core.profile.SiteProfile.record_fold`
    validates them), so chunk splits land exactly where per-event
    recording would clear.  Lists and tuples fold as they are; any
    other sequence is copied into a list first.  The fold keeps a
    reference to the run (:attr:`SiteFold.values`), so a caller that
    reuses its list must finish with the fold first.
    """
    if not isinstance(values, (list, tuple)):
        values = list(values)
    n = len(values)
    if n == 0:
        return SiteFold(0, None, None, 0, [], interval, since, values)
    # ``Counter``'s own C counting loop, into a plain dict: a ``Counter``
    # per run costs more to construct than a short run costs to count.
    # Every event is counted exactly once: the whole run when it stays
    # inside one clearing interval, else each chunk on its own.
    if interval is None or since + n <= interval:
        counts: Optional[Dict[Value, int]] = {}
        _count_elements(counts, values)
        chunks = [(counts, n)]
    else:
        counts = None
        chunks = []
        for start, end in _chunk_bounds(n, interval, since):
            chunk: Dict[Value, int] = {}
            _count_elements(chunk, values[start:end])
            chunks.append((chunk, end - start))
    try:
        # Everything ``== 0`` shares one dict slot (equal keys collide),
        # so the zero total is one lookup per map — exactly the
        # :func:`is_zero` test for values whose ``==`` doesn't raise.
        if counts is not None:
            zeros = counts.get(0, 0)
        else:
            zeros = sum(chunk.get(0, 0) for chunk, _ in chunks)
    except TypeError:
        zeros = sum(
            count
            for chunk, _ in chunks
            for value, count in chunk.items()
            if is_zero(value)
        )
    return SiteFold(n, values[0], values[n - 1], zeros, chunks, interval, since, values)
