"""Structured run traces: hierarchical spans emitted as JSONL.

A span covers one phase of work (``run_all`` → experiment →
workload/profile phases → parallel jobs).  Spans nest through a stack
on the process-wide :data:`TRACER`; each closed span becomes one JSONL
record:

.. code-block:: json

    {"name": "experiment", "span_id": "s2", "parent_id": "s1",
     "t_start_s": 0.0123, "duration_s": 1.532,
     "attrs": {"experiment": "table-load-values", "scale": 1.0},
     "metrics": {"tnv.clears": 412, "cache.misses": 2}}

* Timings are **monotonic** (``time.monotonic`` relative to the
  tracer's enable time) — no wall-clock timestamps anywhere.
* ``metrics`` is the delta of :data:`repro.obs.metrics.METRICS`
  counters over the span — which counters moved, and by how much —
  so every span carries its own cost accounting.
* Span ids are sequential per tracer (``s1``, ``s2`` ...).  Worker
  processes run their own tracer with an id prefix (the experiment
  id), ship their spans home as plain dicts, and the parent re-parents
  the worker roots under its own open span
  (:meth:`Tracer.adopt`), so parent ids stay valid in the combined
  trace.  Worker spans carry a ``"worker"`` attr and their times are
  relative to the worker's own clock.

Disabled (the default), :meth:`Tracer.span` returns one shared no-op
context manager — no allocation, no clock read.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

from repro.obs.metrics import METRICS, load_jsonl


class _NullSpan:
    """Shared no-op stand-in handed out while the tracer is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span; append its record to the tracer on exit."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "attrs", "_t0", "_counters0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = ""
        self.parent_id: Optional[str] = None
        self._t0 = 0.0
        self._counters0: Optional[Dict[str, int]] = None

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self.span_id = tracer._next_id()
        self.parent_id = tracer._stack[-1].span_id if tracer._stack else None
        tracer._stack.append(self)
        if METRICS.enabled:
            self._counters0 = dict(METRICS._counters)
        self._t0 = time.monotonic()
        return self

    def __exit__(self, *exc) -> None:
        now = time.monotonic()
        tracer = self._tracer
        if tracer._stack and tracer._stack[-1] is self:
            tracer._stack.pop()
        record = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "t_start_s": round(self._t0 - tracer._epoch, 6),
            "duration_s": round(now - self._t0, 6),
            "attrs": self.attrs,
        }
        if self._counters0 is not None:
            before = self._counters0
            delta = {
                name: value - before.get(name, 0)
                for name, value in METRICS._counters.items()
                if value != before.get(name, 0)
            }
            record["metrics"] = dict(sorted(delta.items()))
        tracer._spans.append(record)


class Tracer:
    """Span factory and buffer; one per process, see :data:`TRACER`."""

    __slots__ = ("enabled", "_spans", "_stack", "_serial", "_prefix", "_epoch")

    def __init__(self) -> None:
        self.enabled = False
        self._spans: List[dict] = []
        self._stack: List[_Span] = []
        self._serial = 0
        self._prefix = ""
        self._epoch = 0.0

    def enable(self, prefix: str = "") -> None:
        """Start collecting spans.

        ``prefix`` namespaces span ids (worker processes pass their
        experiment id) so traces combined across processes keep unique
        ids.
        """
        self.enabled = True
        self._prefix = prefix
        self._serial = 0
        self._epoch = time.monotonic()

    def disable(self) -> None:
        self.enabled = False
        self._stack.clear()

    def _next_id(self) -> str:
        self._serial += 1
        if self._prefix:
            return f"{self._prefix}/s{self._serial}"
        return f"s{self._serial}"

    @property
    def epoch(self) -> float:
        """The monotonic instant ``t_start_s`` values are relative to."""
        return self._epoch

    def span(self, name: str, **attrs):
        """Open a span named ``name``; use as a context manager."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, attrs)

    def record_span(
        self,
        name: str,
        span_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        start_monotonic: Optional[float] = None,
        duration_s: float = 0.0,
        attrs: Optional[dict] = None,
    ) -> Optional[str]:
        """Append one complete span record, bypassing the stack.

        The context-manager stack models strictly nested phases of one
        thread of control; the serve plane's spans are neither — dozens
        of client batches are in flight at once and their child spans
        close on shard tasks and reconnect paths.
        Those callers mint their own deterministic ids (the wire trace
        context) and record finished spans directly.  ``list.append``
        is atomic under the GIL, so cross-thread emission is safe.

        Returns the span id, or ``None`` while disabled.
        """
        if not self.enabled:
            return None
        if span_id is None:
            span_id = self._next_id()
        if start_monotonic is None:
            start_monotonic = time.monotonic() - duration_s
        self._spans.append({
            "name": name,
            "span_id": span_id,
            "parent_id": parent_id,
            "t_start_s": round(start_monotonic - self._epoch, 6),
            "duration_s": round(duration_s, 6),
            "attrs": attrs or {},
        })
        return span_id

    def adopt(self, spans: List[dict]) -> None:
        """Fold worker-process spans into this tracer's buffer.

        Root spans (``parent_id is None``) are re-parented under the
        currently open span, so parent ids in the combined trace stay
        valid.  Records that carry an explicit parent pass through
        unchanged — the serve plane's shard spans arrive pre-parented
        under their batch's wire trace context.
        """
        if not self.enabled:
            return
        parent = self._stack[-1].span_id if self._stack else None
        for record in spans:
            if record.get("parent_id") is None:
                record = dict(record)
                record["parent_id"] = parent
            self._spans.append(record)

    def drain(self) -> List[dict]:
        """Return and clear every closed span collected so far."""
        spans = self._spans
        self._spans = []
        return spans

    def write_jsonl(self, path: str) -> None:
        """Drain the buffer to ``path`` as one JSON record per line."""
        spans = self.drain()
        with open(path, "w") as handle:
            for record in spans:
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")


#: The process-wide tracer every span-emitting code path uses.
TRACER = Tracer()


def load_trace(path: str) -> List[dict]:
    """Read a JSONL trace back as a list of span records.

    A line that is not a JSON object raises
    :class:`~repro.errors.ObsFileError` naming the file and the line.
    """
    return load_jsonl(path)
