"""Process-wide metrics registry: counters, gauges, timers, histograms.

One global :data:`METRICS` registry serves the whole package.  It is
**disabled by default**: every mutator starts with an ``enabled``
check, so an instrumentation point in disabled mode costs one method
call and one attribute test.  The truly hot per-event paths
(``TNVTable.record``, the interpreter loop) avoid even that by
recording only at batch/clear/run boundaries — see
``docs/observability.md`` for the full catalog and the overhead
guarantees.

Snapshots are plain dicts with deterministically ordered keys and no
wall-clock timestamps in the comparable sections (``counters`` and
``gauges``), so two runs that did the same work produce identical
comparable sections and diff cleanly; all timing lives under the
separate ``timers`` key.  Snapshots from worker processes merge
associatively: counters add, gauges take the max, timers combine
(count adds, total adds, max takes the max, min takes the min).

The registry is not thread-safe; the package is process-parallel, not
threaded, and each worker process owns its own registry.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

from repro.errors import ObsFileError
from repro.obs.hist import Histogram


class _Timer:
    """Times one ``with`` block into the registry (perf_counter)."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._registry.observe(self._name, time.perf_counter() - self._start)


class _NullTimer:
    """Shared no-op stand-in handed out while the registry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_TIMER = _NullTimer()


class MetricsRegistry:
    """Counters, gauges and timers behind a single ``enabled`` flag.

    Counter and gauge names are dotted strings
    (``"tnv.clears"``, ``"cache.memory_hits"``); the catalog of names
    the package emits lives in ``docs/observability.md``.
    """

    __slots__ = ("enabled", "_counters", "_gauges", "_timers", "_hists")

    def __init__(self) -> None:
        self.enabled = False
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        #: name -> [count, total_seconds, max_seconds, min_seconds]
        self._timers: Dict[str, List[float]] = {}
        self._hists: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded values (leaves the enabled flag alone)."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()
        self._hists.clear()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (no-op while disabled)."""
        if not self.enabled:
            return
        counters = self._counters
        counters[name] = counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest observed ``value``."""
        if not self.enabled:
            return
        self._gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Fold one duration into timer ``name``."""
        if not self.enabled:
            return
        timer = self._timers.get(name)
        if timer is None:
            self._timers[name] = [1, seconds, seconds, seconds]
        else:
            timer[0] += 1
            timer[1] += seconds
            if seconds > timer[2]:
                timer[2] = seconds
            if seconds < timer[3]:
                timer[3] = seconds

    def observe_hist(self, name: str, value: float, kind: str = "latency") -> None:
        """Fold one observation into histogram ``name`` (see obs.hist).

        Unlike timers — which keep only count/total/extremes — a
        histogram preserves the shape of the distribution, so p50/p99
        survive snapshot, merge and Prometheus exposition.
        """
        if not self.enabled:
            return
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = Histogram(kind=kind)
        hist.observe(value)

    def hist(self, name: str) -> Optional[Histogram]:
        return self._hists.get(name)

    def time(self, name: str):
        """Context manager timing its block into timer ``name``."""
        if not self.enabled:
            return _NULL_TIMER
        return _Timer(self, name)

    # ------------------------------------------------------------------
    # reading / combining
    # ------------------------------------------------------------------

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def counters(self) -> Dict[str, int]:
        """All counters, key-sorted (deterministic)."""
        return dict(sorted(self._counters.items()))

    def snapshot(self) -> dict:
        """Full deterministic-order snapshot of the registry.

        ``counters`` and ``gauges`` are the *comparable* sections: pure
        functions of the work performed, with no wall-clock content.
        ``timers`` carries the timing data and is expected to vary
        between runs.
        """
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "timers": {
                name: {
                    "count": int(t[0]),
                    "total_s": t[1],
                    "max_s": t[2],
                    "min_s": t[3],
                }
                for name, t in sorted(self._timers.items())
            },
            "hists": {
                name: hist.snapshot() for name, hist in sorted(self._hists.items())
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) in.

        Merging respects the enabled flag — a disabled registry stays
        empty — so workers that shipped metrics home cannot resurrect
        an observability layer the parent turned off.
        """
        if not self.enabled:
            return
        for name, value in snapshot.get("counters", {}).items():
            self._counters[name] = self._counters.get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            current = self._gauges.get(name)
            if current is None or value > current:
                self._gauges[name] = value
        for name, stats in snapshot.get("timers", {}).items():
            # Snapshots predating the min_s field merge as if each
            # observation were also the minimum — the only lossless
            # default available.
            min_s = stats.get("min_s", stats["max_s"])
            timer = self._timers.get(name)
            if timer is None:
                self._timers[name] = [
                    stats["count"],
                    stats["total_s"],
                    stats["max_s"],
                    min_s,
                ]
            else:
                timer[0] += stats["count"]
                timer[1] += stats["total_s"]
                if stats["max_s"] > timer[2]:
                    timer[2] = stats["max_s"]
                if min_s < timer[3]:
                    timer[3] = min_s
        for name, snap in snapshot.get("hists", {}).items():
            hist = self._hists.get(name)
            if hist is None:
                self._hists[name] = Histogram.from_snapshot(snap)
            else:
                hist.merge_snapshot(snap)

    def write(self, path: str) -> None:
        """Write the snapshot as sorted-key JSON (diff-friendly)."""
        with open(path, "w") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")


#: The process-wide registry every instrumentation point records into.
METRICS = MetricsRegistry()


def load_snapshot(path: str) -> Optional[dict]:
    """Read a snapshot written by :meth:`MetricsRegistry.write`.

    ``None`` when the file cannot be opened or is not JSON.  JSON that
    is not a snapshot — not an object, or a ``counters`` or ``gauges``
    section that is not an object of numbers, or a ``timers`` or
    ``hists`` section that is not an object of objects — raises
    :class:`~repro.errors.ObsFileError` naming the file and the section.
    """
    try:
        with open(path) as handle:
            snapshot = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(snapshot, dict):
        raise ObsFileError(path, f"holds a JSON {_json_type(snapshot)}, not a metrics snapshot")
    for section, kinds in (
        ("counters", (int, float)),
        ("gauges", (int, float)),
        ("timers", dict),
        ("hists", dict),
    ):
        entries = snapshot.get(section, {})
        if not isinstance(entries, dict):
            raise ObsFileError(path, f"its {section!r} is a JSON {_json_type(entries)}, not an object")
        for name, value in entries.items():
            if not isinstance(value, kinds) or isinstance(value, bool):
                raise ObsFileError(
                    path, f"its {section!r} entry {name!r} is a JSON {_json_type(value)}"
                )
    for name, timer in snapshot.get("timers", {}).items():
        for field, value in timer.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ObsFileError(
                    path, f"its timer {name!r} field {field!r} is a JSON {_json_type(value)}"
                )
    return snapshot


def load_jsonl(path: str) -> List[dict]:
    """Read a JSONL file of objects, one per non-blank line.

    The reader every line-oriented observability file shares (traces,
    flight-recorder dumps, jitlogs).  A line that is not JSON, or not a
    JSON object, raises :class:`~repro.errors.ObsFileError` naming the
    file and the line.
    """
    records = []
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ObsFileError(path, f"not JSON: {error}", line=number) from None
            if not isinstance(record, dict):
                raise ObsFileError(
                    path, f"a JSON {_json_type(record)}, not an object", line=number
                )
            records.append(record)
    return records


def _json_type(value) -> str:
    """JSON's name for the type of a value :func:`json.loads` returned."""
    for kind, name in (
        (bool, "boolean"), (dict, "object"), (list, "array"), (str, "string"),
        (int, "integer"), (float, "number"),
    ):
        if isinstance(value, kind):
            return name
    return "null"
