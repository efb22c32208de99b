"""Tier-2 engine: profile-guided superinstruction specialization.

The thesis' claim is that semi-invariant values justify specializing
the code that consumes them behind a cheap equality guard.  The repo
already applies that to the *profiled programs*
(:mod:`repro.specialize`); this module applies it to the interpreter
itself, the way CPython's PEP 659 adaptive interpreter quickens its
own bytecode.

The tier sits above :class:`~repro.isa.engine.ThreadedEngine` and
reuses its per-pc handlers as the deopt target.  Execution starts
per-instruction; a counting stub at each fusible basic-block leader
tracks hotness and samples the block's live-in registers for operand
stability.  When a block crosses the hot threshold it is *quickened*:
the whole block becomes one superinstruction, rendered from the opcode
table by the emitter that renders the threaded handlers
(:class:`_Codegen` extends :class:`~repro.isa.engine._Emitter`), with

* operand registers read once and forwarded through locals (fused
  load+ALU / compare+branch sequences — no per-instruction dispatch),
* stable live-in registers constant-folded under an entry guard that
  compares them against the sampled values,
* observer hooks collapsed: blocks with no active instrumentation
  targets compile to pure compute, and every other hook is one call in
  the generated body or, for an
  :class:`~repro.isa.machine.AppendSink`, its appends inline (a
  buffered :class:`~repro.isa.instrument.ValueProfiler`'s hooks are
  its buffers' own ``list.append`` or a sink of it, and a
  :class:`~repro.core.tracestore.TraceCaptureObserver`'s are sinks, so
  none of their events runs a Python frame),
* dynamic-counter and cycle bookkeeping batched to one add per block.

A failed guard *deopts*: the entry falls back to a chain of the
block's original per-pc handlers (bit-identical semantics, including
mid-block traps), the mismatching registers are recorded, and after
``fail_limit`` failures the block is either *requickened* with the
newly stable values or permanently *despecialized* to an unguarded —
but still fused — superinstruction.  Whether a guard set is worth
keeping is decided by the same
:class:`~repro.specialize.analysis.BenefitModel` the offline
specializer uses (``net_benefit_terms``).  Counting stubs and deopt
fallbacks reach the engine through a weak proxy, so a finished
Machine's tier-2 engine is freed by reference counting.

The driver charges the instruction budget through a countdown cell
shared with generated code.  An observer that overrides
:meth:`~repro.isa.machine.MachineObserver.poll` gets the budget one
``POLL_INSTRUCTIONS`` slice at a time and is polled between slices,
with the same dispatch sequence and jitlog clock as one whole grant.

Semantics are bit-identical to the reference loop on every exit path
(results, traps, profiles, counters), enforced by
``tests/isa/test_engine_differential.py``.  Select with
``Machine(engine="tier2")``, ``--engine tier2`` or ``REPRO_ENGINE=tier2``.
"""

from __future__ import annotations

import weakref
from types import FunctionType
from typing import Callable, Dict, List, Optional

from repro.core.sites import Site, SiteKind
from repro.isa import machine as _machine_module
from repro.isa.engine import (
    _CALLS,
    _GLOBALS,
    _BadPC,
    _compiled,
    _Emitter,
    _Halt,
    _Trap,
    ThreadedEngine,
)
from repro.isa.instructions import InsnClass, evaluate
from repro.obs.flight import FLIGHT as _FLIGHT
from repro.obs.jitlog import JITLOG as _JITLOG
from repro.obs.metrics import METRICS as _METRICS
from repro.specialize.analysis import BenefitModel


class Tier2Config:
    """Tunables for the quicken/deopt lifecycle.

    ``hot_threshold`` is the block entries before quickening,
    ``fail_limit`` the guard failures before respecializing, and
    ``requicken_budget`` the rebind attempts before permanent
    despecialization.
    """

    __slots__ = ("hot_threshold", "fail_limit", "requicken_budget",
                 "max_guards", "min_fused", "max_quickened", "max_trace",
                 "extrapolation", "model")

    def __init__(
        self,
        hot_threshold: int = 8,
        fail_limit: int = 4,
        requicken_budget: int = 2,
        max_guards: int = 4,
        min_fused: int = 2,
        max_quickened: int = 4096,
        max_trace: int = 32,
        extrapolation: int = 64,
        model: Optional[BenefitModel] = None,
    ) -> None:
        self.hot_threshold = hot_threshold
        self.fail_limit = fail_limit
        self.requicken_budget = requicken_budget
        self.max_guards = max_guards
        self.min_fused = min_fused
        self.max_quickened = max_quickened
        #: fused-instruction cap per trace; bounds codegen cost and
        #: tail duplication when traces cross block boundaries.
        self.max_trace = max_trace
        #: one hot entry predicts this many future entries — the
        #: ``executions`` estimate fed to the benefit model.
        self.extrapolation = extrapolation
        #: the thesis break-even model, shared with the offline
        #: specializer; guard_cost is per guarded register per entry.
        self.model = model if model is not None else BenefitModel(
            saving_per_call=1.0, guard_cost=0.05, specialization_cost=100.0
        )


class _Block:
    """Lifecycle state for one fusible trace.

    A trace starts at a basic-block leader and follows fallthrough
    through conditional branches (which become early exits) and the
    targets of unconditional jumps, so one superinstruction can span
    several basic blocks; ``pcs`` lists the absorbed pcs in execution
    order along the full-fallthrough path.
    """

    __slots__ = ("start", "pcs", "fused", "watch", "count", "samples",
                 "unstable", "threshold", "mode", "bindings", "fails",
                 "requickens", "refit", "volatile", "guard_cell", "preheated",
                 "capped")

    def __init__(self, start, pcs, fused, watch, threshold, capped=False):
        self.start = start
        self.pcs = pcs              # pcs the trace absorbs, in order
        self.fused = fused          # instructions the superblock absorbs
        self.watch = watch          # live-in registers sampled for stability
        self.count = 0
        self.samples: Dict[int, int] = {}
        self.unstable: set = set()
        self.threshold = threshold
        self.mode = "counting"      # -> "guarded" | "fused" | "rejected"
        self.bindings: Dict[int, int] = {}
        self.fails = 0
        self.requickens = 0
        self.refit: Dict[int, int] = {}
        self.volatile: set = set()
        self.guard_cell = [0]       # guard passes, bumped by the prologue
        self.preheated = False
        self.capped = capped        # trace growth stopped at max_trace


class Tier2Engine(ThreadedEngine):
    """Quickening tier above the threaded engine.

    Reuses the parent's decode (per-pc handlers) verbatim; adds a
    parallel dispatch table where hot basic blocks are replaced by
    generated superinstructions.  With ``count_pcs`` block
    profiling active, quickening is disabled and runs delegate to the
    threaded loop unchanged.
    """

    def __init__(self, machine, config: Optional[Tier2Config] = None) -> None:
        super().__init__(machine)
        #: what counting stubs and deopt fallbacks call back into: a weak
        #: proxy, so the engine, like its Machine, is freed by reference
        #: counting.
        self._weak = weakref.proxy(self)
        self._config = config if config is not None else Tier2Config()
        self._funcs: Optional[List[Callable[[], int]]] = None
        self._lens: Optional[List[int]] = None
        self._blocks: Dict[int, _Block] = {}
        self._counters = {"quickened": 0, "requickened": 0,
                          "despecialized": 0, "deopts": 0}
        #: [uncounted-instructions, trap-pc] correction cell shared with
        #: generated code; see the run() exception handlers.
        self._und: List[int] = [1, -1]
        #: countdown budget cell, shared with generated code: a trace
        #: is charged its full length at dispatch, early exits (taken
        #: branches, deopts that leave the trace) pay the unexecuted
        #: tail back, and loop-closed superinstructions charge each
        #: internal iteration themselves.  ``executed`` is always
        #: ``max_instructions − rem[0]`` (plus the trap correction).
        self._rem: List[int] = [0]
        #: budget of the current run; with the countdown cell and the
        #: ungranted remainder it gives the jitlog event clock
        #: (instructions retired) at any point.
        self._max_instructions = 0
        #: budget not yet granted to ``rem``: a polled run grants its
        #: budget one ``POLL_INSTRUCTIONS`` slice at a time, so
        #: ``executed`` is ``max_instructions − rem[0] − _ungranted``.
        self._ungranted = 0
        self._metrics_prev = {"quickened": 0, "requickened": 0,
                              "despecialized": 0, "deopts": 0, "guards": 0}

    # ------------------------------------------------------------------
    # decode: base handlers + tier tables + counting stubs
    # ------------------------------------------------------------------

    def _decode(self) -> None:
        super()._decode()
        self._shared.update(und=self._und, rem=self._rem)
        handlers = self._handlers
        self._funcs = list(handlers)
        self._lens = [1] * len(handlers)
        self._blocks = {}
        self._counters = {"quickened": 0, "requickened": 0,
                          "despecialized": 0, "deopts": 0}
        # The metric-delta baseline must reset with the counters (and
        # with the blocks whose guard cells feed the guards delta):
        # a re-decode between runs — e.g. an observer change — would
        # otherwise leave stale prior totals here, and the next
        # _emit_tier2_metrics would under-report every machine.tier2.*
        # delta (value − stale_prev goes zero or negative).
        self._metrics_prev = {"quickened": 0, "requickened": 0,
                              "despecialized": 0, "deopts": 0, "guards": 0}
        if self._machine.pc_counts is not None:
            # Block profiling needs the per-pc count loop; stay tier-1.
            return
        threshold = self._config.hot_threshold
        for bb in self._machine.program.basic_blocks():
            blk = self._analyze_block(bb, threshold)
            if blk is not None:
                self._blocks[blk.start] = blk
                self._install_counter(blk)

    def _analyze_block(self, bb, threshold: int) -> Optional[_Block]:
        """Grow a trace from a block leader.

        The trace absorbs straight-line opcodes, follows the
        fallthrough edge of conditional branches (compiled as guarded
        early exits), and follows unconditional ``j`` targets, so hot
        paths spanning several basic blocks fuse into one
        superinstruction.  Calls, returns, and indirect jumps
        (``jal``/``jalr``/``jr``) end a trace but are absorbed as its
        terminator — the trace tail-calls the original handler, whose
        returned pc goes straight back to the dispatch loop — so
        argument setup fuses with the transfer.  Traces also stop on
        revisiting a pc (loop backedges re-enter through the dispatch
        table or close into an in-trace loop), at ``halt``, and at the
        ``max_trace`` cap.
        """
        insts = self._machine.program.instructions
        code_size = len(insts)
        cap = self._config.max_trace
        pcs: List[int] = []
        fused = []
        seen: set = set()
        pc = bb.start
        while len(fused) < cap and 0 <= pc < code_size and pc not in seen:
            inst = insts[pc]
            op = inst.opcode
            if inst.info.falls_through:
                pcs.append(pc)
                seen.add(pc)
                fused.append(inst)
                pc += 1
            elif inst.info.insn_class is InsnClass.BRANCH and 0 <= inst.target < code_size:
                pcs.append(pc)
                seen.add(pc)
                fused.append(inst)
                if inst.target < pc and inst.target != bb.start:
                    # Backward branch that does not close this trace's own
                    # loop: almost certainly a hot backedge, i.e. usually
                    # taken.  Following the fallthrough would build a tail
                    # that early-exits nearly every dispatch (pure refund
                    # churn), so end the trace here with the branch as the
                    # terminal instruction instead.
                    break
                pc += 1
            elif op == "j" and 0 <= inst.target < code_size:
                pcs.append(pc)
                seen.add(pc)
                fused.append(inst)
                pc = inst.target
            elif op in _CALLS:
                pcs.append(pc)
                fused.append(inst)
                break
            else:
                break
        capped = len(fused) >= cap
        if len(fused) < self._config.min_fused:
            if fused and _JITLOG.enabled:
                _JITLOG.emit("reject", self._clock(),
                             self._machine.program.name, bb.start,
                             reason="min_fused", fused=len(fused),
                             limit=self._config.min_fused)
            return None
        if capped and _JITLOG.enabled:
            # The truncated trace still compiles; growth past the cap
            # was what got rejected.
            _JITLOG.emit("reject", self._clock(),
                         self._machine.program.name, bb.start,
                         reason="max_trace", fused=len(fused),
                         limit=cap)
        watch: List[int] = []
        written: set = set()
        for inst in fused:
            if inst.opcode in _CALLS:
                continue  # the terminator's own handler reads its operands
            for reg in (getattr(inst, field) for field in inst.info.reads):
                if reg != 0 and reg not in written and reg not in watch:
                    watch.append(reg)
            if inst.info.defines_register and inst.rd != 0:
                written.add(inst.rd)
        # The counting stub samples every watched register on every entry
        # during warm-up; cap the list so long traces with many live-ins
        # don't make warm-up itself expensive.  Bindings are limited to
        # ``max_guards`` anyway, so extra watch slots rarely pay off.
        max_watch = 2 + self._config.max_guards
        return _Block(bb.start, tuple(pcs), fused, tuple(watch[:max_watch]),
                      threshold, capped=capped)

    def _install_counter(self, blk: _Block) -> None:
        base = self._handlers[blk.start]
        engine = self._weak
        if blk.watch:
            def counting(blk=blk, R=self._machine.registers, watch=blk.watch,
                         samples=blk.samples, unstable=blk.unstable,
                         threshold=blk.threshold, engine=engine, base=base):
                n = blk.count + 1
                blk.count = n
                for r in watch:
                    v = R[r]
                    p = samples.get(r)
                    if p is None:
                        samples[r] = v
                    elif p != v:
                        unstable.add(r)
                if n >= threshold:
                    engine._decide(blk)
                return base()
        else:
            def counting(blk=blk, threshold=blk.threshold, engine=engine, base=base):
                n = blk.count + 1
                blk.count = n
                if n >= threshold:
                    engine._decide(blk)
                return base()
        self._funcs[blk.start] = counting

    # ------------------------------------------------------------------
    # quicken / deopt / respecialize
    # ------------------------------------------------------------------

    def _clock(self) -> int:
        """Instructions retired — the deterministic jitlog event clock."""
        return self._max_instructions - self._rem[0] - self._ungranted

    def _jl_emit(self, type: str, blk: _Block, **fields) -> None:
        _JITLOG.emit(type, self._clock(), self._machine.program.name,
                     blk.start, **fields)

    def _flight_note(self, blk: _Block, what: str, value: int) -> None:
        proc = self._machine._procedure_by_pc[blk.start]
        site = Site(kind=SiteKind.INSTRUCTION,
                    program=self._machine.program.name,
                    procedure=proc.name if proc is not None else "",
                    label=str(blk.start), opcode=f"tier2.{what}")
        _FLIGHT.record(site, value)

    def _decide(self, blk: _Block) -> None:
        cfg = self._config
        if _JITLOG.enabled:
            self._jl_emit("hot", blk, count=blk.count,
                          threshold=blk.threshold, preheated=blk.preheated,
                          unstable=sorted(blk.unstable))
        if self._counters["quickened"] >= cfg.max_quickened:
            if _JITLOG.enabled:
                self._jl_emit("reject", blk, reason="max_quickened",
                              fused=len(blk.fused), limit=cfg.max_quickened)
            blk.mode = "rejected"
            self._funcs[blk.start] = self._handlers[blk.start]
            return
        bindings: Dict[int, int] = {}
        for r in blk.watch[: cfg.max_guards]:
            if r in blk.unstable:
                continue
            v = blk.samples.get(r)
            if v is not None:
                bindings[r] = v
        folds = substs = 0
        net = None
        if bindings:
            fn, folds, substs = self._compile(blk, bindings)
            # The thesis break-even test, with observed stability as
            # invariance=1.0 and hotness extrapolated forward.
            net = cfg.model.net_benefit_terms(
                blk.count * cfg.extrapolation,
                1.0,
                saving_per_call=folds + 0.25 * substs,
                guards=len(bindings),
            )
            if net <= 0:
                if _JITLOG.enabled:
                    self._jl_emit("reject", blk, reason="benefit",
                                  fused=len(blk.fused), folds=folds,
                                  substs=substs, guards=len(bindings),
                                  net=round(net, 6))
                bindings = {}
                net = None
        if not bindings:
            fn, folds, substs = self._compile(blk, {})
        blk.bindings = bindings
        blk.mode = "guarded" if bindings else "fused"
        blk.samples = {}
        blk.unstable = set()
        self._counters["quickened"] += 1
        self._funcs[blk.start] = fn
        self._lens[blk.start] = len(blk.fused)
        if _JITLOG.enabled:
            self._jl_emit("quicken", blk, mode=blk.mode,
                          pc_range=[blk.pcs[0], blk.pcs[-1]],
                          fused=len(blk.fused), capped=blk.capped,
                          bindings=sorted(bindings.items()),
                          folds=folds, substs=substs,
                          guards=len(bindings),
                          net=round(net, 6) if net is not None else None)

    def _make_fallback(self, blk: _Block):
        """Deopt path: the trace's original per-pc handlers, followed.

        Re-executes the trace through the base handlers, following the
        pc each one returns: a taken branch (or any divergence from the
        trace's fallthrough path) leaves the chain and refunds the
        unexecuted tail.  A mid-chain trap reports the uncounted tail
        and the trapping pc through the correction cell, so every exit
        matches the threaded loop bit for bit.
        """
        pcs = blk.pcs

        def fb(pcs=pcs, base=self._handlers, und=self._und, rem=self._rem,
               engine=self._weak, blk=blk, K=len(pcs)):
            engine._note_deopt(blk)
            i = 0
            p = pcs[0]
            try:
                while True:
                    p = base[p]()
                    i += 1
                    if i >= K or p != pcs[i]:
                        break
            except BaseException:
                und[0] = K - i
                und[1] = pcs[i]
                raise
            if i < K:
                rem[0] += K - i
            return p

        return fb

    def _note_deopt(self, blk: _Block) -> None:
        journal = _JITLOG.enabled
        self._counters["deopts"] += 1
        blk.fails += 1
        R = self._machine.registers
        for r, bound in blk.bindings.items():
            v = R[r]
            if v != bound:
                if journal:
                    self._jl_emit("guard_fail", blk, reg=r, expected=bound,
                                  observed=v, entries=blk.guard_cell[0],
                                  fails=blk.fails)
                prev = blk.refit.get(r)
                if prev is None:
                    blk.refit[r] = v
                elif prev != v:
                    blk.volatile.add(r)
        if journal:
            self._jl_emit("deopt", blk, fails=blk.fails,
                          limit=self._config.fail_limit)
        if _FLIGHT.enabled:
            self._flight_note(blk, "deopt", blk.fails)
        if blk.fails >= self._config.fail_limit:
            self._respecialize(blk)

    def _respecialize(self, blk: _Block) -> None:
        cfg = self._config
        if blk.requickens < cfg.requicken_budget:
            blk.requickens += 1
            bindings = {}
            for r, bound in blk.bindings.items():
                if r in blk.volatile:
                    continue
                bindings[r] = blk.refit.get(r, bound)
            blk.fails = 0
            blk.refit = {}
            blk.volatile = set()
            if bindings:
                fn, _, _ = self._compile(blk, bindings)
                blk.bindings = bindings
                self._counters["requickened"] += 1
                self._funcs[blk.start] = fn
                if _JITLOG.enabled:
                    self._jl_emit("requicken", blk,
                                  bindings=sorted(bindings.items()),
                                  requickens=blk.requickens)
                return
        fn, _, _ = self._compile(blk, {})
        blk.bindings = {}
        blk.mode = "fused"
        self._counters["despecialized"] += 1
        self._funcs[blk.start] = fn
        if _JITLOG.enabled:
            self._jl_emit("despecialize", blk, requickens=blk.requickens,
                          budget=cfg.requicken_budget)
        if _FLIGHT.enabled:
            self._flight_note(blk, "despecialize", blk.requickens)

    def _compile(self, blk: _Block, bindings: Dict[int, int]):
        return _Codegen(self, blk, bindings).build()

    # ------------------------------------------------------------------
    # profile preheat
    # ------------------------------------------------------------------

    def preheat(self, database) -> int:
        """Lower quicken thresholds from an existing profile.

        Blocks containing INSTRUCTION/LOAD sites whose TNV top value is
        highly invariant get an immediate (threshold-1) quicken
        decision — the offline profile standing in for online warmup.
        Returns the number of blocks preheated.
        """
        if self._handlers is None or self._machine.observer is not self._bound_observer:
            self._decode()
        name = self._machine.program.name
        hot_pcs = set()
        for profile in database.profiles():
            site = profile.site
            if site.program != name or not site.label or not site.label.isdigit():
                continue
            if profile.tnv.estimated_invariance(1) >= 0.5:
                hot_pcs.add(int(site.label))
        touched = 0
        for blk in self._blocks.values():
            if blk.mode != "counting" or blk.preheated:
                continue
            if any(pc in hot_pcs for pc in blk.pcs):
                blk.preheated = True
                blk.threshold = 1
                self._install_counter(blk)
                touched += 1
                if _JITLOG.enabled:
                    self._jl_emit("preheat", blk, threshold=1)
        return touched

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        blocks = self._blocks
        c = self._counters
        return {
            "engine": "tier2",
            "candidate_blocks": len(blocks),
            "quickened": c["quickened"],
            "requickened": c["requickened"],
            "despecialized": c["despecialized"],
            "deopts": c["deopts"],
            "guard_hits": sum(b.guard_cell[0] for b in blocks.values()),
            "guarded_blocks": sum(1 for b in blocks.values() if b.mode == "guarded"),
            "fused_instructions": sum(
                len(b.fused) for b in blocks.values() if b.mode in ("guarded", "fused")
            ),
        }

    def block_summaries(self) -> List[Dict[str, object]]:
        """Deterministic per-block lifecycle snapshot (for reporting).

        One dict per candidate block, sorted by leader pc.  ``entries``
        is warm-up entries through the counting stub (it stops counting
        once the block quickens); ``guard_entries`` is guard passes of
        the compiled superinstruction, including in-trace loop
        iterations.
        """
        out = []
        for start in sorted(self._blocks):
            b = self._blocks[start]
            out.append({
                "start": b.start,
                "end": b.pcs[-1] if b.pcs else b.start,
                "pcs": list(b.pcs),
                "fused": len(b.fused),
                "mode": b.mode,
                "entries": b.count,
                "guard_entries": b.guard_cell[0],
                "bindings": sorted(b.bindings.items()),
                "fails": b.fails,
                "requickens": b.requickens,
                "preheated": b.preheated,
                "capped": b.capped,
            })
        return out

    def _emit_tier2_metrics(self) -> None:
        c = self._counters
        prev = self._metrics_prev
        guards = sum(b.guard_cell[0] for b in self._blocks.values())
        for key, value in (("quickened", c["quickened"]),
                           ("requickened", c["requickened"]),
                           ("despecialized", c["despecialized"]),
                           ("deopts", c["deopts"]),
                           ("guards", guards)):
            delta = value - prev[key]
            if delta:
                _METRICS.inc(f"machine.tier2.{key}", delta)
            prev[key] = value

    # ------------------------------------------------------------------
    # driver loop
    # ------------------------------------------------------------------

    def _dispatch(self, pc: int, executed: int, max_instructions: int):
        """The tier-2 run loop; ``(pc, executed, error)`` where it stopped.

        The budget rides a countdown cell shared with generated code:
        whole traces are charged up front (k instructions per dispatch),
        plain handlers cost one, early trace exits pay the unexecuted
        tail back, and loop-closed superinstructions charge their own
        internal iterations.  ``executed`` is recovered as
        max_instructions−rem[0]−_ungranted on every exit; the correction
        cell backs out instructions a trace charged but never completed.

        An observer that overrides ``poll`` gets the budget one
        POLL_INSTRUCTIONS slice at a time: when the next dispatch no
        longer fits the grant, the driver polls and grants the next
        slice.  Loop-closed superinstructions iterate only while the
        grant covers a full iteration, so they come back to the
        dispatcher at least once per slice.  Dispatch order, charges
        and the jitlog clock are the same as with one whole grant.
        """
        machine = self._machine
        if machine.pc_counts is not None:
            # Block profiling needs the per-pc count loop; stay tier-1.
            return super()._dispatch(pc, executed, max_instructions)
        und = self._und
        und[0] = 1
        und[1] = -1
        funcs = self._funcs
        lens = self._lens
        base = self._handlers
        rem = self._rem
        budget = max_instructions - executed
        poll = _machine_module.observer_poll(machine.observer)
        interval = _machine_module.POLL_INSTRUCTIONS
        if poll is not None and budget > interval:
            rem[0] = interval
            self._ungranted = budget - interval
        else:
            rem[0] = budget
            self._ungranted = 0
        self._max_instructions = max_instructions
        try:
            while True:
                k = lens[pc]
                r = rem[0]
                if k > r:
                    ungranted = self._ungranted
                    if ungranted:
                        poll()
                        grant = min(ungranted, interval)
                        self._ungranted = ungranted - grant
                        rem[0] = r + grant
                        continue
                    if r <= 0:
                        break
                    # Budget smaller than the superblock: step the tail
                    # per-instruction so exhaustion lands on the exact
                    # same pc as the reference loop.
                    rem[0] = r - 1
                    pc = base[pc]()
                    continue
                rem[0] = r - k
                pc = funcs[pc]()
            return pc, max_instructions - rem[0], self._budget_error(max_instructions)
        except _Halt:
            machine.halted = True
            return pc + 1, max_instructions - rem[0] - self._ungranted, None
        except _Trap as trap:
            executed = max_instructions - rem[0] - self._ungranted - und[0]
            if und[1] >= 0:
                pc = und[1]
            return pc, executed + 1, trap.message
        except _BadPC as bad:
            executed = max_instructions - rem[0] - self._ungranted
            return bad.pc, executed, self._bad_pc_error(bad.pc, executed, max_instructions)
        except IndexError:
            if 0 <= pc < len(base):  # pragma: no cover - genuine handler bug
                raise
            executed = max_instructions - rem[0] - self._ungranted
            return pc, executed, f"{machine.program.name}: pc {pc} outside code segment"

    @property
    def name(self) -> str:
        # Block profiling runs the threaded loop (see _dispatch).
        return ThreadedEngine.name if self._machine.pc_counts is not None else "tier2"

    def _count_run(self, retired: int, elapsed: float) -> None:
        super()._count_run(retired, elapsed)
        if self._machine.pc_counts is not None:
            return
        program = self._machine.program.name
        _METRICS.inc(f"machine.tier2.instructions.{program}", retired)
        _METRICS.observe(f"machine.tier2.run.{program}", elapsed)
        self._emit_tier2_metrics()


class _Codegen(_Emitter):
    """Renders one superinstruction for a trace.

    The per-opcode methods are the threaded handlers' own
    (:class:`~repro.isa.engine._Emitter`); a trace inlines their
    operands instead of binding them as parameters, and adds three
    batching transforms: register reads are forwarded through locals,
    dyn-counter and surcharge updates are summed to one add each at
    trace end (partial sums are flushed on every trap and exit branch so
    counters stay exact), and observer hooks are called directly or
    dropped.  Constants propagate from guard bindings, ``li``/``la`` and
    folded results; any non-constant write kills the destination's
    constness.
    """

    folding = True

    def __init__(self, engine: Tier2Engine, blk: _Block, bindings: Dict[int, int]):
        super().__init__(engine)
        self.blk = blk
        self.bindings = dict(bindings)
        self.consts = {0: 0}
        self.consts.update(bindings)
        self.ret: Optional[str] = None
        self.K = len(blk.fused)
        self.pcs = blk.pcs
        self.guard_cond = ""
        # A branch (or terminal j) back to the trace head closes the
        # loop inside the superinstruction: the whole body is wrapped
        # in ``while True`` and the backedge continues instead of
        # returning to the dispatcher.
        last = blk.fused[-1]
        self.loop_close = any(
            inst.info.insn_class is InsnClass.BRANCH and inst.target == blk.start
            for inst in blk.fused
        ) or (last.opcode == "j" and last.target == blk.start)
        self.tail_backedge = False

    def extra_cycles(self, n: int) -> int:
        """Cycle surcharge of the first ``n`` trace instructions."""
        cost_by_pc = self.machine._cost_by_pc
        return sum(cost_by_pc[p] - 1 for p in self.pcs[:n])

    # -- operands: literals, constants and locals ------------------------

    def lit(self, value: int, name: str = "") -> str:
        return f"({value})" if value < 0 else str(value)

    def reg(self, inst, field: str):
        reg = getattr(inst, field)
        c = self.consts.get(reg)
        if c is not None:
            self.substs += 1
            return c, self.lit(c)
        name = self.loc.get(reg)
        if name is not None:
            return None, name
        self.ensure("R")
        return None, f"R[{reg}]"

    def regname(self, inst, field: str) -> str:
        return str(getattr(inst, field))

    # -- exits ----------------------------------------------------------

    def uncounted(self, j: int) -> List[str]:
        """Record the uncounted tail and the trapping pc for the driver."""
        self.ensure("und")
        return [f"und[0] = {self.K - j}", f"und[1] = {self.pcs[j]}"]

    def exit_lines(self, n: int, target: int) -> List[str]:
        """Statements for an early trace exit after ``n`` executed
        instructions: flush partial counters and cycle surcharge,
        refund the unexecuted tail, return the successor pc."""
        out = self.flush_lines(self.extra_cycles(n))
        if n < self.K:
            self.ensure("rem")
            out.append(f"rem[0] += {self.K - n}")
        out.append(f"return {target}")
        return out

    def backedge_lines(self, n: int) -> List[str]:
        """Statements for a taken loop backedge: like an early exit,
        but instead of returning to the dispatch loop the
        superinstruction charges the next iteration itself and jumps
        back to its own top — provided the budget covers a full
        iteration and the guarded registers still hold their bound
        values (a stale binding returns to the dispatcher, whose entry
        guard turns it into a proper deopt)."""
        out = self.flush_lines(self.extra_cycles(n))
        self.ensure("rem")
        if n < self.K:
            out.append(f"rem[0] += {self.K - n}")
        recheck = f"rem[0] < {self.K}"
        if self.guard_cond:
            recheck += f" or {self.guard_cond}"
        out.append(f"if {recheck}: return {self.blk.start}")
        out.append(f"rem[0] -= {self.K}")
        if self.bindings:
            out.append("gs[0] += 1")
        out.append("continue")
        return out

    def emit_branch(self, j: int, inst) -> None:
        """A conditional branch: trace terminator when last, guarded
        early exit (taken path) when mid-trace — the trace itself
        continues along the fallthrough edge."""
        t, npc = inst.target, inst.pc + 1
        (ac, ax), (bc, bx) = self.operands(inst)
        last = j == self.K - 1
        backedge = t == self.blk.start
        if ac is not None and bc is not None:
            self.folds += 1
            if evaluate(inst.opcode, ac, bc):
                if backedge:
                    # Constant-taken backedge: loop unconditionally
                    # until the budget (or a guard recheck) breaks out.
                    for line in self.backedge_lines(j + 1):
                        self.emit(line)
                    self.dead = True
                elif last:
                    self.ret = str(t)
                else:
                    # Constant-taken mid-trace: the fused tail is
                    # unreachable; exit (refunding it) unconditionally.
                    for line in self.exit_lines(j + 1, t):
                        self.emit(line)
                    self.dead = True
            elif last:
                self.ret = str(npc)
            # constant not-taken mid-trace: no code, fall through.
            return
        cond = self.render(inst.info.value, ax, bx)
        if t == npc:
            # Branch to the next instruction: both edges continue the
            # trace, nothing to test.
            self.folds += 1
            if last:
                self.ret = str(npc)
            return
        if backedge:
            self.emit(f"if {cond}:")
            for line in self.backedge_lines(j + 1):
                self.emit("    " + line)
            if last:
                self.ret = str(npc)
            return
        if last:
            self.ret = f"{t} if {cond} else {npc}"
            return
        self.emit(f"if {cond}:")
        for line in self.exit_lines(j + 1, t):
            self.emit("    " + line)

    # -- assembly -------------------------------------------------------

    def build(self):
        blk = self.blk
        engine = self.engine
        head: List[str] = []
        if self.bindings:
            self.ensure("R")
            self.args["fb"] = engine._make_fallback(blk)
            self.args["gs"] = blk.guard_cell
            self.guard_cond = " or ".join(
                f"R[{r}] != {self.lit(v)}" for r, v in sorted(self.bindings.items())
            )
            head.append(f"    if {self.guard_cond}:")
            head.append("        return fb()")
            head.append("    gs[0] += 1")
        if self.loop_close:
            head.append("    while True:")
            self.ind = "    "
        for j, inst in enumerate(blk.fused):
            op = inst.opcode
            if inst.info.insn_class is InsnClass.BRANCH:
                self.emit_branch(j, inst)
            elif op == "j":
                if j == self.K - 1:
                    if inst.target == blk.start:
                        self.tail_backedge = True
                    else:
                        self.ret = str(inst.target)
                # Mid-trace j: the trace continued at the target, so
                # the jump itself compiles to nothing.
            elif op in _CALLS:
                # Terminal control transfer: tail-call the original
                # handler (link write, call/return hooks, bad-target
                # checks) after flushing the batched counters.
                h = f"hx{j}"
                self.args[h] = engine._handlers[inst.pc]
                self.ret = f"{h}()"
            else:
                self.emit_inst(j, inst, engine._hooks[inst.pc])
            if self.dead:
                break
        if not self.dead:
            if self.tail_backedge:
                for line in self.backedge_lines(self.K):
                    self.emit(line)
            else:
                for line in self.flush_lines(self.extra_cycles(self.K)):
                    self.emit(line)
                if self.ret is None:
                    self.ret = str(self.pcs[-1] + 1)
                self.emit(f"return {self.ret}")
        src = self.source("_sb", head + self.lines)
        code, hit = _compiled(src, f"<tier2:{self.machine.program.name}:{blk.start}>")
        if _JITLOG.enabled:
            engine._jl_emit("cache_hit" if hit else "cache_miss", blk,
                            source_lines=src.count("\n"))
        fn = FunctionType(code, _GLOBALS, "_sb", tuple(self.args.values()))
        return fn, self.folds, self.substs
