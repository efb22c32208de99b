"""Simulate-once / replay-many event-trace store.

One instrumented simulation of a (program, input) pair produces a
totally ordered stream of (site, value) events covering *every* profile
family — defining instructions, loads, memory stores, call parameters,
returns.  Everything the analysis layer derives (TNV profiles, per-site
value traces, sampling sweeps, prediction-table simulations) is a pure
function of that stream, so the suite only ever needs to pay the
interpreter cost once per input and can replay the stream for each
downstream consumer.

:class:`EventTrace` is the captured stream in columnar form: an
interned site table, a ``uint32`` site-id column and an ``int64`` value
column (the ISA is 64-bit two's complement, so every event value fits).
Replays filter by :class:`~repro.isa.instrument.ProfileTarget` — each
family's sub-stream is exactly the event sequence a live observer
subscribed to that family would have seen, in the same order.

Two further columns carry what the capture run knew beyond the
events: the call-site pc of every parameter event, so calling-context
parameter profiles replay (:meth:`EventTrace.with_parameter_context`),
and the run's per-pc execution counts, so basic-block counts need no
second run.

On disk a trace is one pickle under the source-hash-keyed cache
(:mod:`repro.core.diskcache`): the site table pickled as-is and the
columns as zlib-compressed raw bytes.  The repetitive site-id column
compresses to a few percent; values are stored at level 1 — cheap, and
still a large win on the mostly-small integers the workloads produce.
"""

from __future__ import annotations

import zlib
from array import array
from dataclasses import dataclass, field, replace
from itertools import compress, repeat
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.columns import gather
from repro.core.fold import fold_values
from repro.core.profile import ProfileDatabase, TNVConfig
from repro.core.sites import (
    Site,
    SiteKind,
    instruction_site,
    load_site,
    memory_site,
    parameter_site,
    return_site,
)
from repro.errors import ReproError
from repro.isa.instrument import ProfileTarget
from repro.isa.machine import AppendSink, CallSink, MachineObserver
from repro.obs.flight import FLIGHT as _FLIGHT
from repro.obs.metrics import METRICS as _METRICS
from repro.obs.timeseries import TIMESERIES as _TIMESERIES

try:  # numpy is optional: it only vectorizes the capture's renumbering.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised with numpy hidden
    _np = None

#: which site kind each profile target's events carry.  CALL/PYTHON
#: sites never flow through the machine-event capture path.
TARGET_KINDS: Dict[ProfileTarget, SiteKind] = {
    ProfileTarget.INSTRUCTIONS: SiteKind.INSTRUCTION,
    ProfileTarget.LOADS: SiteKind.LOAD,
    ProfileTarget.MEMORY: SiteKind.MEMORY,
    ProfileTarget.PARAMETERS: SiteKind.PARAMETER,
    ProfileTarget.RETURNS: SiteKind.RETURN,
}

#: bumped when the serialized trace layout changes.
TRACE_FORMAT_VERSION = 2


class TraceStoreError(ReproError):
    """A trace store payload was malformed."""


@dataclass
class EventTrace:
    """The full event stream of one instrumented simulation.

    Attributes:
        program: workload name.
        variant: input-set variant (``train``/``test``).
        scale: input-size multiplier the stream was captured at.
        sites: interned site table; ``site_ids`` indexes into it.
        site_ids: per-event site index, in program order.
        values: per-event value, in program order.
        result: the simulation's :class:`~repro.isa.machine.RunResult`.
        dataset: the exact input/expected-output pair simulated.
        call_pcs: the calling pc of each parameter event, in program
            order: one entry per event on a ``PARAMETER`` site.
        pc_counts: how many times each pc executed, or ``None`` when
            the capture did not count (tier-2 captures keep their tier).
        meta: capture provenance (engine, elapsed seconds, ...).
    """

    program: str
    variant: str
    scale: float
    sites: List[Site]
    site_ids: array
    values: array
    result: object
    dataset: object
    call_pcs: array = field(default_factory=lambda: array("I"))
    pc_counts: Optional[array] = None
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.site_ids)

    # ------------------------------------------------------------------
    # replay views
    # ------------------------------------------------------------------

    def _wanted(self, targets: Iterable[ProfileTarget]) -> List[bool]:
        kinds = {TARGET_KINDS[t] for t in targets}
        return [site.kind in kinds for site in self.sites]

    def events(
        self, targets: Iterable[ProfileTarget]
    ) -> Iterator[Tuple[Site, int]]:
        """(site, value) events of the selected families, in program order.

        This is the exact stream a live observer subscribed to
        ``targets`` would have seen — cross-site interleaving preserved,
        which global-order consumers (finite prediction tables, sampling
        policies with shared state) depend on.
        """
        wanted = self._wanted(targets)
        sites = self.sites
        return (
            (sites[sid], value)
            for sid, value in zip(self.site_ids, self.values)
            if wanted[sid]
        )

    def site_values(
        self, targets: Iterable[ProfileTarget]
    ) -> List[Tuple[Site, List[int]]]:
        """Per-site value runs, sites in order of first appearance.

        First-appearance ordering matches what any per-event consumer's
        site dict would have ended up with, so replayed dictionaries
        iterate identically to live-collected ones.  Each run is a list
        of Python ints in program order.

        The gather is :func:`repro.core.columns.gather`, the one a serve
        shard's flush uses: one stable argsort of the site-id column when
        numpy imports, one pass appending each event to its site's list
        otherwise.  Both give the same runs in the same order.
        """
        sites = self.sites
        return [
            (sites[sid], run)
            for sid, run in gather(
                self.site_ids, self.values, len(sites), self._wanted(targets)
            )
        ]

    def with_parameter_context(self) -> "EventTrace":
        """This trace with each parameter event keyed by its call site.

        The stream a live ``ValueProfiler(parameter_context=True)``
        sees: every ``arg{i}`` event moves to the ``arg{i}@{pc}`` site
        of its calling pc.  Those sites are appended to the site table
        in order of first event; every other event keeps its site id.
        """
        sites = list(self.sites)
        is_parameter = [site.kind is SiteKind.PARAMETER for site in sites]
        site_ids = array("I", self.site_ids)
        positions = list(
            compress(range(len(site_ids)), map(is_parameter.__getitem__, site_ids))
        )
        if len(positions) != len(self.call_pcs):
            raise TraceStoreError(
                f"call-pc column length mismatch: {len(self.call_pcs)} call "
                f"pcs vs {len(positions)} parameter events"
            )
        context_ids: Dict[Tuple[int, int], int] = {}
        for position, call_pc in zip(positions, self.call_pcs):
            key = (site_ids[position], call_pc)
            sid = context_ids.get(key)
            if sid is None:
                merged = sites[key[0]]
                sid = context_ids[key] = len(sites)
                sites.append(
                    parameter_site(
                        merged.program,
                        merged.procedure,
                        int(merged.label.removeprefix("arg")),
                        call_pc,
                    )
                )
            site_ids[position] = sid
        return replace(self, sites=sites, site_ids=site_ids)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_payload(self) -> dict:
        """Pickle-friendly dict with compressed event columns."""
        return {
            "format": TRACE_FORMAT_VERSION,
            "program": self.program,
            "variant": self.variant,
            "scale": self.scale,
            "sites": self.sites,
            "site_ids": _pack(self.site_ids),
            "values": _pack(self.values),
            "call_pcs": _pack(self.call_pcs),
            "pc_counts": None if self.pc_counts is None else _pack(self.pc_counts),
            "result": self.result,
            "dataset": self.dataset,
            "meta": self.meta,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "EventTrace":
        """Rebuild a trace; any malformed payload raises :class:`TraceStoreError`."""
        try:
            return cls._decode(payload)
        except (AttributeError, KeyError, TypeError, ValueError, zlib.error) as error:
            raise TraceStoreError(
                f"malformed trace payload: {type(error).__name__}: {error}"
            ) from error

    @classmethod
    def _decode(cls, payload: dict) -> "EventTrace":
        if payload.get("format") != TRACE_FORMAT_VERSION:
            raise TraceStoreError(
                f"unsupported trace format {payload.get('format')!r}"
            )
        site_ids = _unpack("I", payload["site_ids"])
        values = _unpack("q", payload["values"])
        if len(site_ids) != len(values):
            raise TraceStoreError(
                f"column length mismatch: {len(site_ids)} ids vs "
                f"{len(values)} values"
            )
        pc_counts = payload["pc_counts"]
        return cls(
            program=payload["program"],
            variant=payload["variant"],
            scale=payload["scale"],
            sites=payload["sites"],
            site_ids=site_ids,
            values=values,
            call_pcs=_unpack("I", payload["call_pcs"]),
            pc_counts=None if pc_counts is None else _unpack("q", pc_counts),
            result=payload["result"],
            dataset=payload["dataset"],
            meta=payload.get("meta", {}),
        )


def _pack(column: array) -> bytes:
    return zlib.compress(column.tobytes(), 1)


def _unpack(typecode: str, data: bytes) -> array:
    column = array(typecode)
    column.frombytes(zlib.decompress(data))
    return column


class TraceCaptureObserver(MachineObserver):
    """Observer that records every profile event into event columns.

    The captured stream is exactly the union of what per-family
    :class:`~repro.isa.instrument.ValueProfiler` observers would see,
    with sites from the same :mod:`repro.core.sites` constructors.  Each
    call also appends its calling pc to ``call_pcs`` once per argument.

    No captured event runs a Python frame on the threaded and tier-2
    engines.  Each static site (an instruction's define or load, a
    procedure's parameters or return) is interned when its hook is
    bound, as raw id ``~k`` for the ``k``-th, and the hook is an
    :class:`~repro.isa.machine.AppendSink` the engines render as two
    appends: the raw id and the value.  A store appends its address as
    its raw id, so no memory site is built or hashed per event.  A call
    extends the columns with its procedure's parameter ids, its
    arguments and its calling pc (a
    :class:`~repro.isa.machine.CallSink`).  The ``on_*`` methods append
    the same raw ids event by event, the ``simple`` engine's oracle.

    Reading :attr:`sites` or :attr:`site_ids` renumbers the raw ids into
    first-appearance order, making each memory site as it first
    appears: the columns a recorder that interns each site on first
    sight would hold.  The raw column itself never changes, so the ids
    bound into handlers stay valid when the machine runs again.
    """

    def __init__(self, program) -> None:
        self.program = program
        self.values: array = array("q")
        self.call_pcs: array = array("I")
        self._ids: array = array("q")
        #: interned static sites; raw id ``~k`` names ``_static[k]``.
        self._static: List[Site] = []
        self._static_ids: Dict[tuple, int] = {}
        self._store_sink = AppendSink(self.values.append, self._ids.append)
        #: ``(raw events, sites, site_ids)`` of the last renumber.
        self._read: Optional[Tuple[int, List[Site], array]] = None
        #: events already counted and teed by :meth:`flush`.
        self._flushed = 0

    # -- static sites ---------------------------------------------------

    def _intern(self, key: tuple, make_site, *args) -> int:
        """Raw id of the static site ``key``; ``make_site(program, *args)``
        builds it the first time."""
        sid = self._static_ids.get(key)
        if sid is None:
            sid = self._static_ids[key] = ~len(self._static)
            self._static.append(make_site(self.program.name, *args))
        return sid

    def _define_id(self, inst) -> int:
        return self._intern(("define", inst.pc), instruction_site,
                            inst.procedure, inst.pc, inst.opcode)

    def _load_id(self, inst) -> int:
        return self._intern(("load", inst.pc), load_site,
                            inst.procedure, inst.pc, inst.opcode)

    def _parameter_ids(self, procedure) -> List[int]:
        name = procedure.name
        return [self._intern(("parameter", name, index), parameter_site, name, index)
                for index in range(procedure.nargs)]

    def _return_id(self, procedure) -> int:
        return self._intern(("return", procedure.name), return_site, procedure.name)

    # -- the columns ----------------------------------------------------

    def _renumbered(self) -> Tuple[List[Site], array]:
        read = self._read
        if read is None or read[0] != len(self._ids):
            read = self._read = (len(self._ids), *_first_appearance(
                self._ids, self._static, self.program.name))
        return read[1], read[2]

    @property
    def sites(self) -> List[Site]:
        """The site table, in order of first event."""
        return self._renumbered()[0]

    @property
    def site_ids(self) -> array:
        """Each event's index into :attr:`sites`, in program order."""
        return self._renumbered()[1]

    def flush(self) -> None:
        """Count and tee the events captured since the last flush; the
        machine calls this on every exit, error exits included.

        With metrics on they add to ``profiler.events``; with the flight
        recorder on they reach its ring in program order.
        """
        start, end = self._flushed, len(self.values)
        if start == end:
            return
        self._flushed = end
        if _METRICS.enabled:
            _METRICS.inc("profiler.events", end - start)
        if _FLIGHT.enabled:
            sites, site_ids = self._renumbered()
            record = _FLIGHT.record
            for sid, value in zip(site_ids[start:], self.values[start:end]):
                record(sites[sid], value)

    # -- MachineObserver interface: the simple engine's oracle -----------

    def on_define(self, inst, value) -> None:
        self._ids.append(self._define_id(inst))
        self.values.append(value)

    def on_load(self, inst, address, value) -> None:
        self._ids.append(self._load_id(inst))
        self.values.append(value)

    def on_store(self, inst, address, value) -> None:
        self._ids.append(address)
        self.values.append(value)

    def on_call(self, procedure, args, call_site=-1) -> None:
        self._ids.extend(self._parameter_ids(procedure))
        self.values.extend(args)
        self.call_pcs.extend(repeat(call_site, len(args)))

    def on_return(self, procedure, value) -> None:
        self._ids.append(self._return_id(procedure))
        self.values.append(value)

    # -- decode-time binding: append sinks ------------------------------

    def bind_define(self, inst):
        if not inst.info.defines_register:
            return None
        return AppendSink(self.values.append, self._ids.append, self._define_id(inst))

    def bind_load(self, inst):
        if not inst.info.is_load:
            return None
        return AppendSink(self.values.append, self._ids.append, self._load_id(inst))

    def bind_store(self, inst):
        return self._store_sink if inst.info.is_store else None

    def bind_call(self, procedure, call_pc):
        if not procedure.nargs:
            return None
        return CallSink(self._ids.extend, array("q", self._parameter_ids(procedure)),
                        self.values.extend, self.call_pcs.extend,
                        array("I", [call_pc] * procedure.nargs))

    def bind_return(self, procedure):
        return AppendSink(self.values.append, self._ids.append, self._return_id(procedure))


def _first_appearance(raw: array, static: List[Site], program: str) -> Tuple[List[Site], array]:
    """The site table and ``uint32`` id column of a capture's raw ids.

    Raw id ``~k`` names ``static[k]``; any other raw id is a stored-to
    address, named by its memory site.  Sites are numbered in order of
    first event.  With numpy the renumber is a few vector passes: the
    distinct stored addresses are ranked after the static sites, each
    key's first event is found with ``minimum.at``, and one gather
    renumbers the column.  Without it, ``dict.fromkeys`` orders the raw
    ids in one pass.
    """
    if not raw:
        return [], array("I")
    if _np is None:
        order = list(dict.fromkeys(raw))
        index = {key: sid for sid, key in enumerate(order)}
        site_ids = array("I", map(index.__getitem__, raw))
    else:
        column = _np.frombuffer(raw, dtype=_np.int64)
        n = column.shape[0]
        stored = column >= 0
        keys = ~column
        addresses = column[stored]
        if addresses.shape[0]:
            addresses, rank = _np.unique(addresses, return_inverse=True)
            keys[stored] = len(static) + rank
        first = _np.full(len(static) + addresses.shape[0], n, dtype=_np.int64)
        _np.minimum.at(first, keys, _np.arange(n, dtype=_np.int64))
        by_first = _np.argsort(first, kind="stable")[: _np.count_nonzero(first < n)]
        renumber = _np.empty(first.shape[0], dtype=_np.uint32)
        renumber[by_first] = _np.arange(by_first.shape[0], dtype=_np.uint32)
        site_ids = array("I", renumber[keys].tobytes())
        split = len(static)
        addresses = addresses.tolist()
        order = [~key if key < split else addresses[key - split] for key in by_first.tolist()]
    sites = [static[~key] if key < 0 else memory_site(program, key) for key in order]
    return sites, site_ids


# ----------------------------------------------------------------------
# replay consumers
# ----------------------------------------------------------------------


def replay_profile(
    trace: EventTrace,
    targets: Iterable[ProfileTarget],
    config: Optional[TNVConfig] = None,
    exact: bool = True,
    name: str = "",
    parameter_context: bool = False,
) -> ProfileDatabase:
    """Rebuild the :class:`ProfileDatabase` a live profiler would produce.

    Every profiling structure keeps per-site state only, so feeding each
    site's run in one piece yields a database state-identical to
    per-event recording.  Each run is folded once
    (:func:`~repro.core.fold.fold_values`) and the database consumes the
    grouped ``(value, count)`` chunks; an enabled flight recorder sees
    the raw run first.

    ``parameter_context`` keys parameter sites by calling site, as the
    :class:`ValueProfiler` option of that name does.
    """
    database = ProfileDatabase(config=config, exact=exact, name=name)
    if parameter_context:
        trace = trace.with_parameter_context()
    interval = database.config.clear_interval
    flight = _FLIGHT if _FLIGHT.enabled else None
    runs = trace.site_values(targets)
    events = 0
    chunks = 0
    for site, values in runs:
        if flight is not None:
            flight.record_batch(site, values)
        fold = fold_values(values, interval)
        events += fold.n
        chunks += len(fold.chunks)
        database.record_fold(site, fold)
    if _METRICS.enabled:
        _METRICS.inc("tracestore.fold_events", events)
        _METRICS.inc("tracestore.fold_sites", len(runs))
        _METRICS.inc("tracestore.fold_chunks", chunks)
        _METRICS.inc("tracestore.replays")
        _METRICS.inc("tracestore.replay_events", events)
    return database


def replay_site_traces(
    trace: EventTrace,
    targets: Iterable[ProfileTarget],
    max_per_site: Optional[int] = None,
) -> Tuple[Dict[Site, List[int]], int]:
    """Rebuild per-site value traces; returns ``(traces, dropped)``.

    Equivalent to running a
    :class:`~repro.isa.instrument.ValueTraceCollector` live: same dict
    iteration order (sites in first-event order), same per-site caps,
    same ``dropped`` count.
    """
    traces: Dict[Site, List[int]] = {}
    dropped = 0
    events = 0
    flight = _FLIGHT if _FLIGHT.enabled else None
    for site, values in trace.site_values(targets):
        events += len(values)
        if flight is not None:
            flight.record_batch(site, values)
        if max_per_site is not None and len(values) > max_per_site:
            dropped += len(values) - max_per_site
            values = values[:max_per_site]
        traces[site] = values
    if _METRICS.enabled:
        _METRICS.inc("tracestore.replays")
        _METRICS.inc("tracestore.replay_events", events)
    _TIMESERIES.advance(events)
    return traces, dropped


def replay_global_events(
    trace: EventTrace,
    targets: Iterable[ProfileTarget],
    max_events: Optional[int] = None,
) -> Tuple[Tuple[List[Site], List[int], List[int]], int]:
    """Rebuild the global-order event stream; returns ``(columns, dropped)``.

    ``columns`` is ``(sites, site_ids, values)``: the trace's own site
    table, and the selected families' site ids and values as lists in
    program order.  Event ``i`` is ``(sites[site_ids[i]], values[i])``;
    that sequence equals a live
    :class:`~repro.isa.instrument.GlobalTraceCollector`'s with the same
    ``max_events`` cap (whose site table numbers only its own sites).
    """
    mask = list(map(trace._wanted(targets).__getitem__, trace.site_ids))
    site_ids = list(compress(trace.site_ids, mask))
    values = list(compress(trace.values, mask))
    total = len(site_ids)
    if _FLIGHT.enabled:
        sites = trace.sites
        for sid, value in zip(site_ids, values):
            _FLIGHT.record(sites[sid], value)
    if max_events is not None and total > max_events:
        keep = max(max_events, 0)
        del site_ids[keep:]
        del values[keep:]
    if _METRICS.enabled:
        _METRICS.inc("tracestore.replays")
        _METRICS.inc("tracestore.replay_events", total)
    _TIMESERIES.advance(total)
    return (trace.sites, site_ids, values), total - len(site_ids)
