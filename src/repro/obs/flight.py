"""Flight recorder: a bounded ring of the most recent profile events.

A 54-second ``repro all`` that dies in its last experiment is only
diagnosable by re-running under ad-hoc prints — unless the run carries
a crash recorder.  :data:`FLIGHT` is that recorder: a fixed-size ring
buffer of the last N ``(tick, site, value)`` events, fed from the same
observer hooks both interpreter engines already dispatch to and from
the trace-store replay path, and dumped to JSONL automatically when an
experiment raises (:func:`repro.analysis.experiments.run`) or on
demand (``--flight-dump``).

Disabled (the default) it records nothing and costs one attribute test
at the points that consult it.  Enabled,
:class:`~repro.isa.instrument.ValueProfiler` tees its emit sink into
the ring at construction time, so it sees exactly the event stream the
profiler saw — under the simple engine via ``on_*`` callbacks, under
the threaded engine via the decode-time ``bind_*`` hooks; buffered
profilers tee whole batches at flush time, which is the order their
recorder consumed them.  A
:class:`~repro.core.tracestore.TraceCaptureObserver`, whose hooks only
append, tees the events it captured at each machine exit, in program
order.  Replay consumers (:mod:`repro.core.tracestore`) feed the ring
directly, in replay order.

The ring is per process.  Parallel workers each run their own; a crash
inside a worker dumps from that worker, named after the experiment
that raised, so ``--jobs N`` failures stay attributable.

The tier-2 engine (:mod:`repro.isa.tier2`) also tees its ``deopt`` and
``despecialize`` lifecycle decisions into the ring as synthetic
INSTRUCTION sites (opcode ``tier2.deopt`` / ``tier2.despecialize``,
label = block leader pc, value = the block's failure/requicken count),
so a crash dump shows the last specialization retreats next to the
last profile events — inline and under ``--jobs`` alike, since each
worker's engine feeds that worker's own ring.
"""

from __future__ import annotations

import json
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.core.sites import Site

#: default ring capacity — large enough to cover several clearing
#: intervals of the paper's 2000-record TNV configuration, small
#: enough to dump in milliseconds.
DEFAULT_CAPACITY = 65_536


class FlightRecorder:
    """Fixed-size ring of the last N (tick, site, value) events."""

    __slots__ = ("enabled", "capacity", "_ring", "_next", "_tick", "_last_dump")

    def __init__(self) -> None:
        self.enabled = False
        self.capacity = DEFAULT_CAPACITY
        self._ring: List[Optional[Tuple[int, Site, Hashable]]] = []
        self._next = 0
        self._tick = 0
        #: path of the most recent dump (None until one happens);
        #: surfaced by the CLI so crash dumps are discoverable.
        self._last_dump: Optional[str] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def enable(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"flight capacity must be >= 1, got {capacity}")
        self.enabled = True
        self.capacity = capacity
        self._ring = [None] * capacity
        self._next = 0
        self._tick = 0
        self._last_dump = None

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self._ring = [None] * self.capacity if self.enabled else []
        self._next = 0
        self._tick = 0
        self._last_dump = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record(self, site: Site, value: Hashable) -> None:
        """Append one event (the harness observer's recorder sink)."""
        tick = self._tick
        self._tick = tick + 1
        ring = self._ring
        index = self._next
        ring[index] = (tick, site, value)
        self._next = (index + 1) % len(ring)

    def record_batch(self, site: Site, values: Sequence[Hashable]) -> None:
        """Append a run of events for one site (replay-path sink)."""
        for value in values:
            self.record(site, value)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    @property
    def total_events(self) -> int:
        """Events ever recorded (ticks are 0-based event indices)."""
        return self._tick

    @property
    def last_dump(self) -> Optional[str]:
        return self._last_dump

    def events(self) -> List[Tuple[int, Site, Hashable]]:
        """Retained events, oldest first."""
        ring = self._ring
        index = self._next
        ordered = ring[index:] + ring[:index]
        return [event for event in ordered if event is not None]

    def __len__(self) -> int:
        return sum(1 for event in self._ring if event is not None)

    # ------------------------------------------------------------------
    # dumping
    # ------------------------------------------------------------------

    def dump(self, path: str, reason: str = "on-demand") -> str:
        """Write the ring to ``path`` as JSONL; returns the path.

        The first line is a header record carrying provenance (total
        events seen, how many the ring dropped, why the dump happened);
        every following line is one ``{"tick", "site", "value"}`` event,
        oldest first.
        """
        events = self.events()
        with open(path, "w") as handle:
            header = {
                "flight": True,
                "reason": reason,
                "capacity": self.capacity,
                "total_events": self._tick,
                "retained": len(events),
                "dropped": self._tick - len(events),
            }
            handle.write(json.dumps(header, sort_keys=True))
            handle.write("\n")
            for tick, site, value in events:
                handle.write(
                    json.dumps(
                        {
                            "tick": tick,
                            "site": site.qualified_name(),
                            "kind": site.kind.value,
                            "value": value,
                        },
                        sort_keys=True,
                        default=repr,
                    )
                )
                handle.write("\n")
        self._last_dump = path
        return path

    def dump_on_crash(self, label: str) -> Optional[str]:
        """Best-effort crash dump to ``flight-crash-<label>.jsonl``.

        Called from the experiment runner's exception path; never
        raises (a failing dump must not mask the original error).
        """
        if not self.enabled:
            return None
        safe = "".join(c if c.isalnum() or c in "-_." else "-" for c in label)
        try:
            return self.dump(f"flight-crash-{safe}.jsonl", reason=f"crash:{label}")
        except OSError:  # pragma: no cover - disk-full/readonly paths
            return None


def load_flight(path: str) -> Tuple[dict, List[dict]]:
    """Read a dump back as ``(header, events)``."""
    with open(path) as handle:
        lines = [line for line in (l.strip() for l in handle) if line]
    if not lines:
        return {}, []
    header = json.loads(lines[0])
    return header, [json.loads(line) for line in lines[1:]]


#: The process-wide recorder; the workload harness attaches an observer
#: for it while enabled, and the replay paths feed it directly.
FLIGHT = FlightRecorder()
