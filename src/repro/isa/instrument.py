"""ATOM-style instrumentation of the VPA machine.

The paper instruments Alpha binaries with ATOM [35]: a probe after each
instruction passes the destination-register value to an analysis
routine that updates the TNV table (§III.E).  This module is that
layer for VPA: :class:`ValueProfiler` subscribes to machine events and
records values into any object with a ``record(site, value)`` method —
a :class:`~repro.core.profile.ProfileDatabase` for full profiling or a
:class:`~repro.core.sampling.SamplingProfiler` for sampled profiling.

Site objects are interned per static instruction / memory word /
parameter so the per-event cost is one dictionary lookup, mirroring how
ATOM passes a pre-allocated per-instruction handle to its probes.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Dict, Hashable, Iterable, List, Optional, Protocol, Sequence, Set, Tuple

from repro.core.sites import (
    Site,
    instruction_site,
    load_site,
    memory_site,
    parameter_site,
    return_site,
)
from repro.isa.instructions import Instruction
from repro.isa.machine import AppendSink, MachineObserver, hook_function, observer_poll
from repro.isa.program import Procedure, Program
from repro.obs.flight import FLIGHT as _FLIGHT
from repro.obs.metrics import METRICS as _METRICS


class ProfileTarget(enum.Enum):
    """Which event families a profiler subscribes to."""

    INSTRUCTIONS = "instructions"  # destination values of all defining instructions
    LOADS = "loads"  # values fetched by load instructions
    MEMORY = "memory"  # values stored to each memory word
    PARAMETERS = "parameters"  # argument registers at procedure entry
    RETURNS = "returns"  # the return register at procedure exit


ALL_TARGETS = frozenset(ProfileTarget)


class Recorder(Protocol):
    """Anything that accepts (site, value) profile events."""

    def record(self, site: Site, value: Hashable) -> None:  # pragma: no cover
        ...


#: Default per-site buffer size for buffered profiling.  Roughly one
#: sampling burst (the thesis' burst is 1000), so buffered sampled
#: profiling flushes about once per burst.
DEFAULT_FLUSH_THRESHOLD = 1024


class ValueProfiler(MachineObserver):
    """Machine observer that feeds a profile recorder.

    Args:
        program: the program being profiled (site identities come from
            its instruction and procedure tables).
        recorder: destination for (site, value) events.
        targets: event families to profile; fewer targets means less
            interpreter overhead, exactly as with ATOM probes.
        buffered: accumulate (site, value) events in per-site buffers
            and flush them as batches through the recorder's
            ``record_batch`` method (falling back to per-event
            ``record`` when the recorder has none).  Because every
            profiling structure keeps per-site state only, per-site
            buffering produces byte-identical profiles while collapsing
            the per-event Python call chain; the exception is recorders
            whose sampling policy has cross-site state
            (``site_local == False``), which must stay unbuffered.
        flush_threshold: buffered events per site before that site's
            buffer is flushed.  The per-event ``on_*`` path (the simple
            engine) flushes a buffer the moment it holds this many.
            The bound hooks the threaded and tier-2 engines call only
            append, so there a buffer that has reached the threshold is
            flushed at the next :meth:`poll`, within
            :data:`~repro.isa.machine.POLL_INSTRUCTIONS` retired
            instructions.  :meth:`flush` drains the rest at run end (the
            machine calls it when the program halts or fails).  Where
            the flushes fall never changes a profile: each site's
            profile depends only on its own value sequence.
    """

    def __init__(
        self,
        program: Program,
        recorder: Recorder,
        targets: Iterable[ProfileTarget] = (ProfileTarget.INSTRUCTIONS,),
        parameter_context: bool = False,
        buffered: bool = False,
        flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
    ) -> None:
        self.program = program
        self.recorder = recorder
        self.buffered = buffered
        self.flush_threshold = flush_threshold
        self._buffers: Dict[Site, List[Hashable]] = {}
        self._record_batch = getattr(recorder, "record_batch", None)
        #: per-event sink the on_* handlers call; bound once so the
        #: unbuffered path costs exactly one call into the recorder.
        self._emit = self._emit_buffered if buffered else recorder.record
        if _METRICS.enabled and not buffered:
            # Observability on: swap in a counting emit.  Decided once
            # at construction, so the disabled-mode per-event path is
            # byte-for-byte the line above.  (The buffered path counts
            # at flush time instead — see _flush_site.)
            base_emit = self._emit

            def counting_emit(site: Site, value: Hashable, _base=base_emit) -> None:
                _METRICS.inc("profiler.events")
                _base(site, value)

            self._emit = counting_emit
        if _FLIGHT.enabled and not buffered:
            # Flight recorder on: tee every event into the crash ring.
            # Decided once at construction like the counting emit above,
            # so the disabled-mode per-event path is unchanged.  The
            # buffered path tees whole batches in _flush_site instead.
            base_emit = self._emit

            def flight_emit(
                site: Site, value: Hashable, _base=base_emit, _flight=_FLIGHT.record
            ) -> None:
                _flight(site, value)
                _base(site, value)

            self._emit = flight_emit
        self.targets: Set[ProfileTarget] = set(targets)
        #: when set, parameter sites are keyed by calling site as well
        #: (Young & Smith-style path sensitivity; thesis future work)
        self.parameter_context = parameter_context
        name = program.name
        # Pre-interned sites, indexed by pc.
        self._instruction_sites: List[Optional[Site]] = []
        self._load_sites: List[Optional[Site]] = []
        for inst in program.instructions:
            info = inst.info
            self._instruction_sites.append(
                instruction_site(name, inst.procedure, inst.pc, inst.opcode)
                if info.defines_register
                else None
            )
            self._load_sites.append(
                load_site(name, inst.procedure, inst.pc, inst.opcode) if info.is_load else None
            )
        self._memory_sites: Dict[int, Site] = {}
        self._parameter_sites: Dict[Tuple[str, int, Optional[int]], Site] = {}
        self._return_sites: Dict[str, Site] = {}
        self._want_instructions = ProfileTarget.INSTRUCTIONS in self.targets
        self._want_loads = ProfileTarget.LOADS in self.targets
        self._want_memory = ProfileTarget.MEMORY in self.targets
        self._want_parameters = ProfileTarget.PARAMETERS in self.targets
        self._want_returns = ProfileTarget.RETURNS in self.targets

    # ------------------------------------------------------------------
    # buffering
    # ------------------------------------------------------------------

    def _emit_buffered(self, site: Site, value: Hashable) -> None:
        buffers = self._buffers
        buffer = buffers.get(site)
        if buffer is None:
            buffer = buffers[site] = []
        buffer.append(value)
        if len(buffer) >= self.flush_threshold:
            self._flush_site(site, buffer)

    def _flush_site(self, site: Site, buffer: List[Hashable]) -> None:
        if _METRICS.enabled:
            _METRICS.inc("profiler.buffer_flushes")
            _METRICS.inc("profiler.events", len(buffer))
        if _FLIGHT.enabled:
            _FLIGHT.record_batch(site, buffer)
        if self._record_batch is not None:
            self._record_batch(site, buffer)
        else:
            record = self.recorder.record
            for value in buffer:
                record(site, value)
        buffer.clear()

    def _buffer_for(self, site: Site) -> List[Hashable]:
        """The site's buffer, created on first request.  Bound hooks
        capture it at bind time; ``_flush_site`` clears it in place, so
        it stays the site's buffer for the profiler's life."""
        buffer = self._buffers.get(site)
        if buffer is None:
            buffer = self._buffers[site] = []
        return buffer

    def poll(self) -> None:
        """Flush every buffer that has reached ``flush_threshold``.

        The threaded and tier-2 engines call this every
        :data:`~repro.isa.machine.POLL_INSTRUCTIONS` retired
        instructions, because the bound hooks only append.
        """
        threshold = self.flush_threshold
        for site, buffer in self._buffers.items():
            if len(buffer) >= threshold:
                self._flush_site(site, buffer)

    def flush(self) -> None:
        """Drain every per-site buffer into the recorder.

        Called by the machine when the program halts; safe (and a
        no-op) for unbuffered profilers.
        """
        pending = [(site, buffer) for site, buffer in self._buffers.items() if buffer]
        _METRICS.gauge("profiler.buffered_sites", len(pending))
        for site, buffer in pending:
            self._flush_site(site, buffer)

    # ------------------------------------------------------------------
    # MachineObserver interface
    # ------------------------------------------------------------------

    def on_define(self, inst: Instruction, value: int) -> None:
        if not self._want_instructions:
            return
        site = self._instruction_sites[inst.pc]
        if site is not None:
            self._emit(site, value)

    def on_load(self, inst: Instruction, address: int, value: int) -> None:
        if not self._want_loads:
            return
        site = self._load_sites[inst.pc]
        if site is not None:
            self._emit(site, value)

    def on_store(self, inst: Instruction, address: int, value: int) -> None:
        if not self._want_memory:
            return
        site = self._memory_sites.get(address)
        if site is None:
            site = memory_site(self.program.name, address)
            self._memory_sites[address] = site
        self._emit(site, value)

    def on_call(self, procedure: Procedure, args: Sequence[int], call_site: int = -1) -> None:
        if not self._want_parameters:
            return
        context = call_site if self.parameter_context and call_site >= 0 else None
        for index, value in enumerate(args):
            key = (procedure.name, index, context)
            site = self._parameter_sites.get(key)
            if site is None:
                site = self._parameter_sites[key] = parameter_site(
                    self.program.name, procedure.name, index, context
                )
            self._emit(site, value)

    def on_return(self, procedure: Procedure, value: int) -> None:
        if not self._want_returns:
            return
        site = self._return_sites.get(procedure.name)
        if site is None:
            site = return_site(self.program.name, procedure.name)
            self._return_sites[procedure.name] = site
        self._emit(site, value)

    # ------------------------------------------------------------------
    # decode-time binding (threaded engine)
    # ------------------------------------------------------------------
    #
    # The on_* handlers above re-decide "do I want this family?" and
    # re-look-up the interned site on *every event*.  Both decisions
    # depend only on the static instruction, so for the threaded and
    # tier-2 engines they are made once at decode: the returned hook is
    # the emit sink with its site pre-bound, or None when the event
    # family is off — in which case the engine skips the call entirely.
    # A buffered profiler's hook is the site buffer's own bound
    # ``list.append`` (its load hook an AppendSink of it, which the
    # engines render inline), so an event runs no Python frame; the
    # flush threshold is checked at :meth:`poll` instead of per event.
    # The resulting profiles are byte-identical to the on_* path.

    def _bind_emit(self, site: Site):
        """Per-site emit sink for decode-time binding: the site buffer's
        ``append`` when buffered, else the emit with the site bound."""
        if self.buffered:
            return self._buffer_for(site).append
        return partial(self._emit, site)

    def bind_define(self, inst: Instruction):
        if not self._want_instructions:
            return None
        site = self._instruction_sites[inst.pc]
        if site is None:
            return None
        return self._bind_emit(site)

    def bind_load(self, inst: Instruction):
        if not self._want_loads:
            return None
        site = self._load_sites[inst.pc]
        if site is None:
            return None
        if self.buffered:
            # A callable load hook is called as ``(address, value)``; a
            # value-only sink is rendered as the append alone.
            return AppendSink(self._buffer_for(site).append)

        def hook(address, value, _emit=self._emit, _site=site):
            _emit(_site, value)

        return hook

    def bind_store(self, inst: Instruction):
        if not self._want_memory:
            return None

        def hook(
            address,
            value,
            _sites=self._memory_sites,
            _emit=self._emit,
            _name=self.program.name,
        ):
            site = _sites.get(address)
            if site is None:
                site = memory_site(_name, address)
                _sites[address] = site
            _emit(site, value)

        return hook

    def bind_call(self, procedure: Procedure, call_pc: int):
        if not self._want_parameters:
            return None
        context = call_pc if self.parameter_context and call_pc >= 0 else None
        sites = []
        for index in range(procedure.nargs):
            key = (procedure.name, index, context)
            site = self._parameter_sites.get(key)
            if site is None:
                site = self._parameter_sites[key] = parameter_site(
                    self.program.name, procedure.name, index, context
                )
            sites.append(site)

        def hook(args, _emits=tuple(self._bind_emit(site) for site in sites)):
            for emit, value in zip(_emits, args):
                emit(value)

        return hook

    def bind_return(self, procedure: Procedure):
        if not self._want_returns:
            return None
        site = self._return_sites.get(procedure.name)
        if site is None:
            site = return_site(self.program.name, procedure.name)
            self._return_sites[procedure.name] = site
        return self._bind_emit(site)


class ValueTraceCollector(MachineObserver):
    """Observer that collects raw per-site value *sequences*.

    Value predictors (:mod:`repro.predictors`) need the ordered stream
    of values each site produced, not just its histogram.  Traces can
    be capped per site to bound memory; ``dropped`` counts the events
    discarded past a site's cap, so a capped collection is always
    distinguishable from a complete one.
    """

    def __init__(
        self,
        program: Program,
        targets: Iterable[ProfileTarget] = (ProfileTarget.INSTRUCTIONS,),
        max_per_site: Optional[int] = None,
    ) -> None:
        self._profiler = ValueProfiler(program, recorder=self, targets=targets)
        self.max_per_site = max_per_site
        self.traces: Dict[Site, List[int]] = {}
        self.dropped = 0

    # Recorder protocol (the inner ValueProfiler writes into us).
    def record(self, site: Site, value: Hashable) -> None:
        trace = self.traces.get(site)
        if trace is None:
            trace = []
            self.traces[site] = trace
        if self.max_per_site is None or len(trace) < self.max_per_site:
            trace.append(value)
        else:
            self.dropped += 1

    # MachineObserver interface — delegate to the site-interning profiler.
    def on_define(self, inst: Instruction, value: int) -> None:
        self._profiler.on_define(inst, value)

    def on_load(self, inst: Instruction, address: int, value: int) -> None:
        self._profiler.on_load(inst, address, value)

    def on_store(self, inst: Instruction, address: int, value: int) -> None:
        self._profiler.on_store(inst, address, value)

    def on_call(self, procedure: Procedure, args: Sequence[int], call_site: int = -1) -> None:
        self._profiler.on_call(procedure, args, call_site)

    def on_return(self, procedure: Procedure, value: int) -> None:
        self._profiler.on_return(procedure, value)

    # Threaded-engine binding — reuse the inner profiler's site logic.
    def bind_define(self, inst: Instruction):
        return self._profiler.bind_define(inst)

    def bind_load(self, inst: Instruction):
        return self._profiler.bind_load(inst)

    def bind_store(self, inst: Instruction):
        return self._profiler.bind_store(inst)

    def bind_call(self, procedure: Procedure, call_pc: int):
        return self._profiler.bind_call(procedure, call_pc)

    def bind_return(self, procedure: Procedure):
        return self._profiler.bind_return(procedure)


class GlobalTraceCollector(MachineObserver):
    """Observer that records (site, value) events in *program order*.

    Per-site traces (:class:`ValueTraceCollector`) lose the interleaving
    between sites, which finite prediction-table simulations need: two
    sites aliasing to one table entry interact only through the global
    order.  The events are kept as interned columns: ``sites`` (first
    appearance order), and per event ``site_ids`` (an index into
    ``sites``) and ``values``.  Memory is bounded by ``max_events``.
    """

    def __init__(
        self,
        program: Program,
        targets: Iterable[ProfileTarget] = (ProfileTarget.INSTRUCTIONS,),
        max_events: Optional[int] = None,
    ) -> None:
        self._profiler = ValueProfiler(program, recorder=self, targets=targets)
        self.max_events = max_events
        self.sites: List[Site] = []
        self.site_ids: List[int] = []
        self.values: List[Hashable] = []
        self.dropped = 0
        self._ids: Dict[Site, int] = {}

    def record(self, site: Site, value: Hashable) -> None:
        if self.max_events is not None and len(self.values) >= self.max_events:
            self.dropped += 1
            return
        sid = self._ids.get(site)
        if sid is None:
            sid = self._ids[site] = len(self.sites)
            self.sites.append(site)
        self.site_ids.append(sid)
        self.values.append(value)

    def on_define(self, inst: Instruction, value: int) -> None:
        self._profiler.on_define(inst, value)

    def on_load(self, inst: Instruction, address: int, value: int) -> None:
        self._profiler.on_load(inst, address, value)

    def on_store(self, inst: Instruction, address: int, value: int) -> None:
        self._profiler.on_store(inst, address, value)

    def on_call(self, procedure: Procedure, args: Sequence[int], call_site: int = -1) -> None:
        self._profiler.on_call(procedure, args, call_site)

    def on_return(self, procedure: Procedure, value: int) -> None:
        self._profiler.on_return(procedure, value)

    # Threaded-engine binding — reuse the inner profiler's site logic.
    def bind_define(self, inst: Instruction):
        return self._profiler.bind_define(inst)

    def bind_load(self, inst: Instruction):
        return self._profiler.bind_load(inst)

    def bind_store(self, inst: Instruction):
        return self._profiler.bind_store(inst)

    def bind_call(self, procedure: Procedure, call_pc: int):
        return self._profiler.bind_call(procedure, call_pc)

    def bind_return(self, procedure: Procedure):
        return self._profiler.bind_return(procedure)


def _compose_hooks(hooks):
    """Fan one event out to several bound hooks, in child order.

    ``None`` children (observers that declined the event at decode
    time) are dropped; with no takers the composition itself is
    ``None`` so the engine skips the event entirely.  A lone taker is
    returned as it is; among several, a sink is wrapped in a function
    (:func:`~repro.isa.machine.hook_function`).
    """
    takers = [hook for hook in hooks if hook is not None]
    if not takers:
        return None
    if len(takers) == 1:
        return takers[0]

    def fan(*args, _hooks=tuple(map(hook_function, takers))):
        for hook in _hooks:
            hook(*args)

    return fan


class FanoutObserver(MachineObserver):
    """Broadcasts machine events to several observers in order.

    Lets one simulation run feed e.g. a full profiler and a sampling
    profiler simultaneously so accuracy comparisons share a trace.
    """

    def __init__(self, observers: Sequence[MachineObserver]) -> None:
        self.observers = list(observers)

    def on_define(self, inst: Instruction, value: int) -> None:
        for observer in self.observers:
            observer.on_define(inst, value)

    def on_load(self, inst: Instruction, address: int, value: int) -> None:
        for observer in self.observers:
            observer.on_load(inst, address, value)

    def on_store(self, inst: Instruction, address: int, value: int) -> None:
        for observer in self.observers:
            observer.on_store(inst, address, value)

    def on_call(self, procedure: Procedure, args: Sequence[int], call_site: int = -1) -> None:
        for observer in self.observers:
            observer.on_call(procedure, args, call_site)

    def on_return(self, procedure: Procedure, value: int) -> None:
        for observer in self.observers:
            observer.on_return(procedure, value)

    def flush(self) -> None:
        for observer in self.observers:
            flush = getattr(observer, "flush", None)
            if flush is not None:
                flush()

    def poll(self) -> None:
        # A buffered child's bound hooks only append; without its polls
        # it would hold its whole run until the final flush.
        for observer in self.observers:
            poll = observer_poll(observer)
            if poll is not None:
                poll()

    # Threaded-engine binding: compose the children's bound hooks so
    # each event is delivered in the same child order as the on_* loops
    # above.  Duck-typed children without bind_* get a generic wrapper.
    def bind_define(self, inst: Instruction):
        hooks = []
        for child in self.observers:
            binder = getattr(child, "bind_define", None)
            if binder is not None:
                hooks.append(binder(inst))
            else:
                hooks.append(
                    lambda value, _cb=child.on_define, _inst=inst: _cb(_inst, value)
                )
        return _compose_hooks(hooks)

    def bind_load(self, inst: Instruction):
        hooks = []
        for child in self.observers:
            binder = getattr(child, "bind_load", None)
            if binder is not None:
                hooks.append(binder(inst))
            else:
                hooks.append(
                    lambda address, value, _cb=child.on_load, _inst=inst: _cb(
                        _inst, address, value
                    )
                )
        return _compose_hooks(hooks)

    def bind_store(self, inst: Instruction):
        hooks = []
        for child in self.observers:
            binder = getattr(child, "bind_store", None)
            if binder is not None:
                hooks.append(binder(inst))
            else:
                hooks.append(
                    lambda address, value, _cb=child.on_store, _inst=inst: _cb(
                        _inst, address, value
                    )
                )
        return _compose_hooks(hooks)

    def bind_call(self, procedure: Procedure, call_pc: int):
        hooks = []
        for child in self.observers:
            binder = getattr(child, "bind_call", None)
            if binder is not None:
                hooks.append(binder(procedure, call_pc))
            else:
                hooks.append(
                    lambda args, _cb=child.on_call, _proc=procedure, _pc=call_pc: _cb(
                        _proc, args, _pc
                    )
                )
        return _compose_hooks(hooks)

    def bind_return(self, procedure: Procedure):
        hooks = []
        for child in self.observers:
            binder = getattr(child, "bind_return", None)
            if binder is not None:
                hooks.append(binder(procedure))
            else:
                hooks.append(
                    lambda value, _cb=child.on_return, _proc=procedure: _cb(_proc, value)
                )
        return _compose_hooks(hooks)
