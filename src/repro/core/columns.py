"""Event columns: the per-id gather, the router's split, a shard's lookup.

Events travel as two columns, ids (``array("I")``) and values
(``array("q")``).  :func:`gather` groups them into per-id runs of
Python ints, ids in order of first appearance; it is the one gather of
the package: the trace store's replays
(:meth:`repro.core.tracestore.EventTrace.site_values`) and a serve
shard's flushes (:meth:`repro.serve.shard.ShardCore.flush`) both call
it, and each run then folds through :func:`repro.core.fold.fold_values`.
The serve plane needs two more: the router's :func:`partition`, which
splits a batch's columns by owning shard, and a shard's :func:`lookup`,
which turns a client's site ids into the shard's own.

Each helper has two paths that give the same result: a vectorized one
when numpy imports, a pure-Python one otherwise.  The pure-Python paths
are C-level passes too, but at the serve shape (1,024-event batches,
two shards) they cost about ten times as much, and deleting the numpy
paths of :func:`partition` and :func:`lookup` alone raised serve's CPU
time by about 0.4 s a run (``docs/performance.md``, "Id-only shard
ingest").  numpy is imported here and not by :mod:`repro.core.fold`,
so a process that only records (the profilers, ``repro profile``)
never loads it.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import List, Optional, Sequence, Tuple

try:  # numpy is optional: it only vectorizes the helpers below.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised with numpy hidden
    _np = None


def gather(
    ids: array,
    values: array,
    size: int,
    wanted: Optional[Sequence[bool]] = None,
) -> List[Tuple[int, List[int]]]:
    """Two event columns grouped by id: ``(id, run)`` pairs, ids in order
    of first appearance.

    ``ids`` is an ``array("I")`` of ids below ``size`` and ``values`` the
    ``array("q")`` beside it; ``wanted``, when given, is indexed by id and
    drops the events of every id it maps to false.  Each run is a list
    of Python ints in column order, so folding it is the same as
    recording its events one by one.  With numpy the gather is one
    stable argsort of the id column; without it, one pass appending each
    event to its id's run.  Both give the same runs in the same order.
    """
    if _np is not None:
        sids = _np.frombuffer(ids, dtype=_np.uint32)
        column = _np.frombuffer(values, dtype=_np.int64)
        if wanted is not None:
            mask = _np.asarray(wanted, dtype=bool)[sids]
            if not mask.all():
                sids = sids[mask]
                column = column[mask]
        n = sids.shape[0]
        if n == 0:
            return []
        # A stable sort keeps each id's events in column order, so every
        # group starts with its id's earliest event; ordering the groups
        # by that event's position gives first appearance.  Ids below
        # 2**16 sort as uint16, which numpy's stable sort radix-sorts
        # (about 8x faster than its merge sort of uint32 here).
        keys = sids.astype(_np.uint16) if size <= 1 << 16 else sids
        perm = _np.argsort(keys, kind="stable")
        sorted_sids = sids[perm]
        starts = _np.flatnonzero(sorted_sids[1:] != sorted_sids[:-1]) + 1
        starts = _np.concatenate(([0], starts))
        ends = _np.append(starts[1:], n)
        order = _np.argsort(perm[starts])
        flat = column[perm].tolist()
        return [
            (sid, flat[start:end])
            for sid, start, end in zip(
                sorted_sids[starts[order]].tolist(),
                starts[order].tolist(),
                ends[order].tolist(),
            )
        ]
    sink: List[Optional[callable]] = [None] * size
    seen: List[int] = []
    runs: List[Optional[List[int]]] = [None] * size
    for sid, value in zip(ids, values):
        append = sink[sid]
        if append is None:
            if wanted is None or wanted[sid]:
                run: List[int] = []
                runs[sid] = run
                seen.append(sid)
                append = sink[sid] = run.append
            else:
                append = sink[sid] = _discard
        append(value)
    return [(sid, runs[sid]) for sid in seen]


def _discard(value) -> None:
    """Append-sink for the events of an unwanted id."""


def partition(
    ids: array, values: array, owners: bytes, parts: int
) -> List[Tuple[array, array]]:
    """Two event columns split by owner, each part's events in column order.

    ``owners[i]`` is the part (below ``parts``) that id ``i`` belongs to.
    Part ``k`` gets an ``(ids, values)`` pair of new ``array("I")`` and
    ``array("q")`` columns holding its events, empty when it owns none.
    An id outside ``owners`` raises :class:`IndexError` before any part
    is built.  With numpy the split is one gather of the owner column
    and one mask per part; without it, one C-level pass per column per
    part.
    """
    if _np is not None:
        sids = _np.frombuffer(ids, dtype=_np.uint32)
        owner = _np.frombuffer(owners, dtype=_np.uint8)[sids]
        column = _np.frombuffer(values, dtype=_np.int64)
        split = []
        for part in range(parts):
            mask = owner == part
            split.append(
                (array("I", sids[mask].tobytes()), array("q", column[mask].tobytes()))
            )
        return split
    owner = bytes(map(owners.__getitem__, ids))
    split = []
    for part in range(parts):
        select = bytearray(256)
        select[part] = 1
        mask = owner.translate(select)
        split.append((array("I", compress(ids, mask)), array("q", compress(values, mask))))
    return split


def lookup(table: array, ids: array) -> array:
    """``table[i]`` for each id ``i`` of ``ids``, as an ``array("I")``.

    ``table`` is an ``array("i")`` whose negative entries mark ids it
    holds nothing for; an id outside ``table`` or at a negative entry
    raises :class:`IndexError`.
    """
    if _np is not None:
        found = _np.frombuffer(table, dtype=_np.int32)[_np.frombuffer(ids, dtype=_np.uint32)]
        if found.shape[0] and found.min() < 0:
            raise IndexError("an id maps to no entry")
        return array("I", found.tobytes())
    try:
        return array("I", map(table.__getitem__, ids))
    except OverflowError:  # a negative entry in an unsigned column
        raise IndexError("an id maps to no entry") from None
