"""Spans around the program's layer entry points, and the self-time ledger.

The traced run installs wrappers on public functions of the program
(patched where each name is bound, since ``from x import f`` copies the
binding), records one span per call, times the garbage collector through
``gc.callbacks``, and removes every wrapper afterwards.  Spans live in
flat ``array`` columns until the run ends, so millions of them create no
Python objects for the collector to scan.

A layer's self time is the duration of its spans minus the part of each
span that its child spans cover.  Over a measured region the self times
of all layers plus ``unattributed`` add up to the region's wall time.
"""

from __future__ import annotations

import gc
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: layer name of collector pauses.
GC_LAYER = "gc"

#: ``(start, end, parent, layer)`` -- parent is an index or -1.
Span = Tuple[float, float, int, str]


def covered(interval: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``.

    Children may nest or overlap each other; each is clipped to the
    interval first, so no part of it is subtracted twice.
    """
    lo, hi = interval
    clipped = sorted(
        (max(lo, s), min(hi, e)) for s, e in children if min(hi, e) > max(lo, s)
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer self time: duration minus the union of direct children."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals: Dict[str, float] = {}
    for index, (start, end, _, layer) in enumerate(spans):
        own = end - start
        kids = children.get(index)
        if kids:
            own -= covered((start, end), kids)
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def ledger_rows(totals: Dict[str, float], wall: float) -> Dict[str, float]:
    """Self-time rows plus the explicit ``unattributed`` residual."""
    rows = dict(totals)
    rows["unattributed"] = wall - sum(totals.values())
    return rows


class Recorder:
    """Columnar in-memory span store with install/remove of wrappers.

    Each span carries the index of its group: the outermost span open
    when it started (one experiment, one program run).  Collector
    pauses are spans of the ``gc`` layer parented under whatever span
    was open when the collector ran.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.group = array("i")
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        # Bound once: creating a bound method allocates a tracked object,
        # and a collection between two appends would misalign the columns.
        self._push = self._stack.append
        self._pop = self._stack.pop
        self._appends = (
            self.group.append,
            self.parent.append,
            self.layer.append,
            self.end.append,
            self.start.append,
        )
        self._patches: List[Tuple[object, str, object]] = []
        self._gc_open: Optional[int] = None
        #: set outside measured regions: collector pauses there are
        #: not part of any ledger.
        self.gc_paused = False

    # -- spans ---------------------------------------------------------

    def layer_id(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return lid

    def open(self, lid: int) -> int:
        index = len(self.start)
        stack = self._stack
        parent = stack[-1] if stack else -1
        group, parents, layers, ends, starts = self._appends
        group(self.group[parent] if parent >= 0 else index)
        parents(parent)
        layers(lid)
        ends(0.0)
        self._push(index)
        starts(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def spans(self, upto: Optional[int] = None) -> List[Span]:
        n = len(self.start) if upto is None else upto
        names = self.layers
        return [
            (self.start[i], self.end[i], self.parent[i], names[self.layer[i]])
            for i in range(n)
        ]

    def groups(self, upto: Optional[int] = None) -> int:
        """How many distinct span groups (root spans) were recorded."""
        n = len(self.start) if upto is None else upto
        return sum(1 for i in range(n) if self.parent[i] < 0)

    # -- wrappers --------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        on_return: Optional[Callable[["Recorder", tuple, dict, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a module or a class that defines ``attr`` itself;
        ``on_return(recorder, args, kwargs, result)`` may add to counters.
        """
        # Not getattr: a class must define the method itself, or the
        # restore would leave a copy of the inherited one behind.
        original = vars(owner).get(attr)
        if original is None:
            raise AttributeError(f"{owner!r} does not define {attr}")
        lid = self.layer_id(layer)
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            index = open_(lid)
            try:
                result = original(*args, **kwargs)
            finally:
                close(index)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if self.gc_paused:
            return
        if phase == "start":
            self._gc_open = self.open(self.layer_id(GC_LAYER))
        elif self._gc_open is not None:
            self.close(self._gc_open)
            self._gc_open = None
            if info.get("generation") == 2:
                self.count("gc.gen2_collections")

    def remove(self) -> None:
        """Undo every patch, newest first, and detach the GC callback."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    @property
    def patches(self) -> List[Tuple[object, str, object]]:
        return list(self._patches)
