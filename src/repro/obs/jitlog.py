"""Jitlog: the tier-2 specialization journal.

The tier-2 engine (:mod:`repro.isa.tier2`) makes its quicken / guard /
deopt / despecialize decisions online, and until this module existed it
summarized a whole run in four aggregate counters.  :data:`JITLOG` is
the structured record of those decisions: a bounded ring of typed
events, each carrying the *reason* for the transition it describes, on
a deterministic event clock (instructions retired when the decision was
taken — never wall time), so two runs of the same workload at the same
scale produce byte-identical journals.

Event taxonomy (the ``type`` field):

========= ============================================================
``hot``          a counting stub crossed its threshold
``quicken``      a block compiled to a superinstruction (guarded or
                 plain fused); carries pc range, fused count, guard
                 bindings and the benefit-model terms
``reject``       specialization declined — ``reason`` says which
                 limit: ``benefit`` (model said no), ``min_fused``,
                 ``max_trace`` (trace growth truncated at the cap) or
                 ``max_quickened``
``guard_fail``   one guarded register mismatched at entry; carries
                 expected vs observed value and the entry count
``deopt``        a guarded entry fell back to the per-pc handlers
``requicken``    the block re-specialized with refreshed bindings
``despecialize`` the failure budget ran out; the block is permanently
                 unguarded
``preheat``      a stored profile lowered the block's threshold
``cache_hit`` / ``cache_miss``  generated-source code-cache outcome
========= ============================================================

Every event is a plain dict of deterministic scalars (ints, strings,
sorted ``[register, value]`` pairs) plus bookkeeping: ``seq`` (journal
sequence number), ``clock`` (instructions retired), ``program`` and
``block`` (leader pc).  Emission also bumps a
``machine.tier2.jitlog.<type>`` counter in the metrics registry when
metrics are enabled, which is how journal activity reaches ``repro
stats``, the time-series grid and the dashboard without any extra
plumbing.

Discipline matches the rest of :mod:`repro.obs`: disabled (the
default) the journal records nothing and costs one attribute test at
the — already rare — lifecycle points that consult it; the engine's
dispatch hot paths are untouched either way.  Enabled with no sink it
is a bounded ring (oldest events drop); ``--jitlog FILE`` exports
JSONL, ``--jitlog-map FILE`` a perf-map-style dump of the quickened pc
ranges.  Profiles and experiment output are byte-identical with the
journal on or off.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import METRICS as _METRICS, load_jsonl

#: default ring capacity: generously covers every lifecycle event of a
#: full-scale `repro all` (lifecycle events are rare by construction —
#: one per block transition, not per block entry).
DEFAULT_CAPACITY = 65_536

#: the closed set of event types; emission checks membership so a typo
#: in an instrumentation point fails loudly in tests, not silently in
#: a report.
EVENT_TYPES = frozenset({
    "hot", "quicken", "reject", "guard_fail", "deopt",
    "requicken", "despecialize", "preheat", "cache_hit", "cache_miss",
})


class JitLog:
    """Bounded ring journal of tier-2 specialization events."""

    __slots__ = ("enabled", "capacity", "_events", "_seq", "counts")

    def __init__(self) -> None:
        self.enabled = False
        self.capacity = DEFAULT_CAPACITY
        self._events: List[dict] = []
        self._seq = 0
        #: events ever emitted, per type (survives ring drops).
        self.counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def enable(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"jitlog capacity must be >= 1, got {capacity}")
        self.enabled = True
        self.capacity = capacity
        self.reset()

    def disable(self) -> None:
        """Stop recording; the ring stays readable until re-enabled."""
        self.enabled = False

    def reset(self) -> None:
        self._events = []
        self._seq = 0
        self.counts = {}

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------

    def emit(self, type: str, clock: int, program: str, block: int, **fields) -> None:
        """Append one event.  Callers guard on ``enabled`` themselves.

        ``fields`` must be deterministic scalars (or lists/sorted pairs
        of them) — anything landing here is serialized byte-for-byte
        into the exported journal.
        """
        if type not in EVENT_TYPES:
            raise ValueError(f"unknown jitlog event type {type!r}")
        seq = self._seq
        self._seq = seq + 1
        self.counts[type] = self.counts.get(type, 0) + 1
        event = {"seq": seq, "clock": clock, "type": type,
                 "program": program, "block": block}
        event.update(fields)
        events = self._events
        events.append(event)
        if len(events) > self.capacity:
            del events[: len(events) - self.capacity]
        if _METRICS.enabled:
            _METRICS.inc(f"machine.tier2.jitlog.{type}")

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    @property
    def total_events(self) -> int:
        """Events ever emitted (``seq`` values are 0-based indices)."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events the bounded ring no longer retains."""
        return self._seq - len(self._events)

    def events(self) -> List[dict]:
        """Retained events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    # cross-process shipping (``--jobs``)
    # ------------------------------------------------------------------

    def to_payload(self) -> dict:
        """Everything a worker ships home for :meth:`merge`."""
        return {
            "capacity": self.capacity,
            "total_events": self._seq,
            "counts": dict(self.counts),
            "events": self.events(),
        }

    def merge(self, payload: dict) -> None:
        """Fold one worker's journal in (parent merges in result order,
        so the combined journal is deterministic under ``--jobs``).
        Events are re-sequenced into this journal's own ``seq`` space;
        their clocks stay worker-local, which is still deterministic
        because each worker's event clock is."""
        for event in payload.get("events", ()):
            merged = dict(event)
            seq = self._seq
            self._seq = seq + 1
            merged["seq"] = seq
            self._events.append(merged)
        if len(self._events) > self.capacity:
            del self._events[: len(self._events) - self.capacity]
        for type_, count in payload.get("counts", {}).items():
            self.counts[type_] = self.counts.get(type_, 0) + count
        # Worker-side ring drops surface in the merged dropped count.
        self._seq += payload.get("total_events", 0) - len(payload.get("events", ()))

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def write_jsonl(self, path: str, reason: str = "cli-exit") -> str:
        """Write the journal to ``path`` as JSONL; returns the path.

        First line is a header with provenance (events seen, ring
        drops, per-type counts); every following line is one event,
        oldest first, keys sorted — byte-stable across identical runs.
        """
        events = self.events()
        with open(path, "w") as handle:
            header = {
                "jitlog": True,
                "reason": reason,
                "capacity": self.capacity,
                "total_events": self._seq,
                "retained": len(events),
                "dropped": self._seq - len(events),
                "counts": dict(sorted(self.counts.items())),
            }
            handle.write(json.dumps(header, sort_keys=True))
            handle.write("\n")
            for event in events:
                handle.write(json.dumps(event, sort_keys=True))
                handle.write("\n")
        return path

    def write_map(self, path: str) -> str:
        """Write a perf-map-style dump of the quickened pc ranges.

        One line per (program, block) that ever compiled, in the format
        external map consumers expect — ``START SIZE NAME`` with hex
        start/size — where NAME encodes program, leader pc, final mode
        and guard count: ``t2_<program>_b<start>_<mode><n>``.  Later
        events for a block (requicken, despecialize) supersede earlier
        ones, so the map reflects each block's final shape.
        """
        final: Dict[Tuple[str, int], Tuple[int, int, str, int]] = {}
        for event in self._events:
            type_ = event["type"]
            key = (event["program"], event["block"])
            if type_ == "quicken":
                pc_range = event.get("pc_range", [event["block"], event["block"]])
                final[key] = (pc_range[0], event.get("fused", 1),
                              event.get("mode", "fused"),
                              len(event.get("bindings", [])))
            elif type_ == "requicken" and key in final:
                start, size, _, _ = final[key]
                final[key] = (start, size, "guarded", len(event.get("bindings", [])))
            elif type_ == "despecialize" and key in final:
                start, size, _, _ = final[key]
                final[key] = (start, size, "fused", 0)
        with open(path, "w") as handle:
            for (program, block), (start, size, mode, guards) in sorted(final.items()):
                name = f"t2_{program}_b{block}_{mode}{guards}"
                handle.write(f"{start:x} {size:x} {name}\n")
        return path


def load_jitlog(path: str) -> Tuple[dict, List[dict]]:
    """Read a ``write_jsonl`` dump back as ``(header, events)``.

    A line that is not a JSON object raises
    :class:`~repro.errors.ObsFileError` naming the file and the line.
    """
    records = load_jsonl(path)
    if not records:
        return {}, []
    header, events = records[0], records[1:]
    if not header.get("jitlog"):
        # Headerless journal (hand-assembled fixture): treat every
        # line as an event.
        return {}, [header] + events
    return header, events


#: The process-wide journal; the tier-2 engine emits into it, parallel
#: workers run their own and ship events home for a deterministic merge.
JITLOG = JitLog()
