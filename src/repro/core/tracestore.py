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
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.core import fold as foldmod
from repro.core.fold import SiteFold, fold_values
from repro.core.profile import ProfileDatabase, TNVConfig
from repro.core.sites import Site, SiteKind, parameter_site
from repro.errors import ReproError
from repro.isa.instrument import ALL_TARGETS, ProfileTarget, ValueProfiler
from repro.isa.machine import MachineObserver
from repro.obs.flight import FLIGHT as _FLIGHT
from repro.obs.metrics import METRICS as _METRICS
from repro.obs.timeseries import TIMESERIES as _TIMESERIES

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

        With the numpy kernel active the family filter runs vectorized
        over the raw columns and the returned generator only pays the
        zip; the values are plain Python ints either way.
        """
        wanted = self._wanted(targets)
        sites = self.sites
        cols = self._filtered_columns(wanted)
        if cols is not None:
            sids, values = cols
            return ((sites[sid], value) for sid, value in zip(sids, values))
        return (
            (sites[sid], value)
            for sid, value in zip(self.site_ids, self.values)
            if wanted[sid]
        )

    def _filtered_columns(
        self, wanted: List[bool]
    ) -> Optional[Tuple[List[int], List[int]]]:
        """Family-filtered (site_ids, values) as Python-int lists.

        Vectorized mask + ``tolist`` when the numpy kernel is active;
        ``None`` otherwise (callers keep their per-event loop, which
        beats converting the columns by hand).
        """
        np = foldmod.numpy_module() if foldmod.kernel_name() == foldmod.FOLD_NUMPY else None
        if np is None:
            return None
        sids = np.frombuffer(self.site_ids, dtype=np.uint32)
        values = np.frombuffer(self.values, dtype=np.int64)
        mask = np.asarray(wanted, dtype=bool)[sids]
        if mask.all():
            return sids.tolist(), values.tolist()
        return sids[mask].tolist(), values[mask].tolist()

    def site_values(
        self, targets: Iterable[ProfileTarget]
    ) -> List[Tuple[Site, List[int]]]:
        """Per-site value runs, sites in order of first appearance.

        First-appearance ordering matches what any per-event consumer's
        site dict would have ended up with, so replayed dictionaries
        iterate identically to live-collected ones.
        """
        wanted = self._wanted(targets)
        sites = self.sites
        sink: List[Optional[callable]] = [None] * len(sites)
        order: List[int] = []
        runs: List[Optional[List[int]]] = [None] * len(sites)
        drop = _discard
        for sid, value in zip(self.site_ids, self.values):
            append = sink[sid]
            if append is None:
                if wanted[sid]:
                    run: List[int] = []
                    runs[sid] = run
                    order.append(sid)
                    append = sink[sid] = run.append
                else:
                    append = sink[sid] = drop
            append(value)
        return [(sites[sid], runs[sid]) for sid in order]

    def site_folds(
        self, targets: Iterable[ProfileTarget], interval: Optional[int]
    ) -> List[Tuple[Site, SiteFold]]:
        """Per-site folded runs, sites in order of first appearance.

        The columnar replay path: each site's value run is reduced once
        to its :class:`~repro.core.fold.SiteFold` (grouped counts split
        at ``interval`` boundaries, adjacency/zero scalars), so the
        profile fold downstream touches one object per *distinct* value
        instead of one per event.  Every fold assumes a fresh table
        (``since == 0``), which is what replay always builds.

        With the numpy kernel active the per-site gather itself is
        vectorized — stable argsort over the site-id column, group
        split, first-appearance reordering — and each group folds as an
        ndarray without ever becoming a Python list.
        """
        wanted = self._wanted(targets)
        np = foldmod.numpy_module() if foldmod.kernel_name() == foldmod.FOLD_NUMPY else None
        if np is not None:
            return self._site_folds_numpy(np, wanted, interval)
        return [
            (site, fold_values(values, interval))
            for site, values in self.site_values(targets)
        ]

    def _site_folds_numpy(self, np, wanted: List[bool], interval: Optional[int]):
        sids = np.frombuffer(self.site_ids, dtype=np.uint32)
        values = np.frombuffer(self.values, dtype=np.int64)
        mask = np.asarray(wanted, dtype=bool)[sids]
        if not mask.all():
            sids = sids[mask]
            values = values[mask]
        if sids.shape[0] == 0:
            return []
        # Stable sort keeps each site's events in program order; the
        # first element of every group is therefore the site's earliest
        # event, so ordering groups by that element's original position
        # reproduces first-appearance order.
        perm = np.argsort(sids, kind="stable")
        sorted_sids = sids[perm]
        sorted_values = values[perm]
        boundaries = np.flatnonzero(sorted_sids[1:] != sorted_sids[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [sorted_sids.shape[0]]))
        order = np.argsort(perm[starts], kind="stable")
        sites = self.sites
        out = []
        for group in order.tolist():
            start = int(starts[group])
            end = int(ends[group])
            site = sites[int(sorted_sids[start])]
            out.append((site, fold_values(sorted_values[start:end], interval)))
        return out

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


def _discard(value) -> None:
    """Append-sink for events outside the replayed families."""


class TraceCaptureObserver(MachineObserver):
    """Observer that records every profile event into event columns.

    Site interning and event-family fan-out are delegated to an inner
    :class:`ValueProfiler` subscribed to every target, so the captured
    stream is exactly the union of what per-family observers would see.
    Each call also appends its calling pc to ``call_pcs`` once per
    argument, after the argument events themselves.
    """

    def __init__(self, program) -> None:
        self._profiler = ValueProfiler(program, recorder=self, targets=ALL_TARGETS)
        self.sites: List[Site] = []
        self.site_ids: array = array("I")
        self.values: array = array("q")
        self.call_pcs: array = array("I")
        self._index: Dict[Site, int] = {}

    # Recorder protocol (the inner ValueProfiler writes into us).
    def record(self, site: Site, value: Hashable) -> None:
        index = self._index
        sid = index.get(site)
        if sid is None:
            sid = index[site] = len(self.sites)
            self.sites.append(site)
        self.site_ids.append(sid)
        self.values.append(value)

    # MachineObserver interface — delegate to the site-interning profiler.
    def on_define(self, inst, value) -> None:
        self._profiler.on_define(inst, value)

    def on_load(self, inst, address, value) -> None:
        self._profiler.on_load(inst, address, value)

    def on_store(self, inst, address, value) -> None:
        self._profiler.on_store(inst, address, value)

    def on_call(self, procedure, args, call_site=-1) -> None:
        self._profiler.on_call(procedure, args, call_site)
        self.call_pcs.extend(repeat(call_site, len(args)))

    def on_return(self, procedure, value) -> None:
        self._profiler.on_return(procedure, value)

    # Threaded-engine binding — reuse the inner profiler's site logic.
    def bind_define(self, inst):
        return self._profiler.bind_define(inst)

    def bind_load(self, inst):
        return self._profiler.bind_load(inst)

    def bind_store(self, inst):
        return self._profiler.bind_store(inst)

    def bind_call(self, procedure, call_pc):
        hook = self._profiler.bind_call(procedure, call_pc)
        if not procedure.nargs:
            return hook

        def capture(args, _hook=hook, _extend=self.call_pcs.extend,
                    _pcs=array("I", [call_pc] * procedure.nargs)):
            _hook(args)
            _extend(_pcs)

        return capture

    def bind_return(self, procedure):
        return self._profiler.bind_return(procedure)


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
    per-event recording.  In grouped fold mode (the default) the run
    never materializes as per-event Python objects at all: the trace
    folds each site columnarly (:meth:`EventTrace.site_folds`) and the
    database consumes grouped ``(value, count)`` chunks.  The flight
    recorder needs the raw event stream, so an enabled recorder — and
    ``REPRO_FOLD=event`` — falls back to the per-site batch path.

    ``parameter_context`` keys parameter sites by calling site, as the
    :class:`ValueProfiler` option of that name does.
    """
    database = ProfileDatabase(config=config, exact=exact, name=name)
    if parameter_context:
        trace = trace.with_parameter_context()
    events = 0
    if foldmod.grouped_enabled() and not _FLIGHT.enabled:
        folds = trace.site_folds(targets, database.config.clear_interval)
        chunks = 0
        for site, fold in folds:
            events += fold.n
            chunks += len(fold.chunks)
            database.record_fold(site, fold)
        if _METRICS.enabled:
            _METRICS.inc("tracestore.fold_events", events)
            _METRICS.inc("tracestore.fold_sites", len(folds))
            _METRICS.inc("tracestore.fold_chunks", chunks)
            _METRICS.gauge("tracestore.fold_mode", foldmod.fold_mode_gauge())
    else:
        flight = _FLIGHT if _FLIGHT.enabled else None
        for site, values in trace.site_values(targets):
            events += len(values)
            if flight is not None:
                flight.record_batch(site, values)
            database.record_batch(site, values)
    if _METRICS.enabled:
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
