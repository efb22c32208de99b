"""Tier-2 engine: profile-guided superinstruction specialization.

The thesis' claim is that semi-invariant values justify specializing
the code that consumes them behind a cheap equality guard.  The repo
already applies that to the *profiled programs*
(:mod:`repro.specialize`); this module applies it to the interpreter
itself, the way CPython's PEP 659 adaptive interpreter quickens its
own bytecode.

The tier sits above :class:`~repro.isa.engine.ThreadedEngine` and
reuses its per-pc handler closures as the deopt target.  Execution
starts per-instruction; a counting stub at each fusible basic-block
leader tracks hotness and samples the block's live-in registers for
operand stability.  When a block crosses the hot threshold it is
*quickened*: the whole block becomes one generated superinstruction
closure with

* operand registers read once and forwarded through locals (fused
  load+ALU / compare+branch sequences — no per-instruction dispatch),
* stable live-in registers constant-folded under an entry guard that
  compares them against the sampled values,
* observer hooks collapsed: blocks with no active instrumentation
  targets compile to pure compute, and every other hook is one call in
  the generated body (a buffered
  :class:`~repro.isa.instrument.ValueProfiler`'s define, return and
  parameter hooks are its buffers' own ``list.append``, so the call
  runs no Python frame),
* dynamic-counter and cycle bookkeeping batched to one add per block.

A failed guard *deopts*: the entry falls back to a chain of the
block's original per-pc handlers (bit-identical semantics, including
mid-block traps), the mismatching registers are recorded, and after
``fail_limit`` failures the block is either *requickened* with the
newly stable values or permanently *despecialized* to an unguarded —
but still fused — superinstruction.  Whether a guard set is worth
keeping is decided by the same
:class:`~repro.specialize.analysis.BenefitModel` the offline
specializer uses (``net_benefit_terms``).

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

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.sites import Site, SiteKind
from repro.errors import MachineError
from repro.isa import machine as _machine_module
from repro.isa.engine import _BIAS, _MASK, _BadPC, _Halt, _Trap, ThreadedEngine
from repro.isa.instructions import to_signed64
from repro.obs.flight import FLIGHT as _FLIGHT
from repro.obs.jitlog import JITLOG as _JITLOG
from repro.obs.metrics import METRICS as _METRICS
from repro.obs.timeseries import TIMESERIES as _TIMESERIES
from repro.specialize.analysis import BenefitModel

#: straight-line opcodes a superinstruction may absorb.
_BODY_OPS = frozenset({
    "ld", "st", "add", "addi", "sub", "subi", "mul", "muli",
    "div", "divi", "rem", "remi", "and", "andi", "or", "ori",
    "xor", "xori", "sll", "slli", "srl", "srli", "sra", "srai",
    "slt", "slti", "seq", "seqi", "sne", "snei",
    "li", "la", "mov", "in", "out", "nop",
})

#: conditional branches and their Python comparison operator.
_BRANCH_PY = {"beq": "==", "bne": "!=", "blt": "<", "bge": ">=", "ble": "<=", "bgt": ">"}

_ALU_IMM = {"addi": "add", "subi": "sub", "muli": "mul",
            "andi": "and", "ori": "or", "xori": "xor"}
_ALU_REG = frozenset({"add", "sub", "mul", "and", "or", "xor"})
_SHIFT_IMM = {"slli": "sll", "srli": "srl", "srai": "sra"}
_SHIFT_REG = frozenset({"sll", "srl", "sra"})
_CMP_IMM = {"slti": "slt", "seqi": "seq", "snei": "sne"}
_CMP_REG = frozenset({"slt", "seq", "sne"})
_CMP_PY = {"slt": "<", "seq": "==", "sne": "!="}

#: register operands each opcode reads (before any write it makes).
_READS_RA_RB = frozenset(
    {"add", "sub", "mul", "div", "rem", "and", "or", "xor",
     "sll", "srl", "sra", "slt", "seq", "sne"} | set(_BRANCH_PY)
)
_READS_RA = frozenset(
    {"addi", "subi", "muli", "divi", "remi", "andi", "ori", "xori",
     "slli", "srli", "srai", "slti", "seqi", "snei", "mov", "ld"}
)


#: compiled superinstruction bodies, keyed by exact source text.  The
#: source embeds everything semantic (opcodes, constants, thresholds,
#: trap messages); per-machine objects are bound as default args at
#: exec time, so the cache is safe across Machine instances and saves
#: the dominant ``compile()`` cost on repeated runs of a program.
_CODE_CACHE: Dict[str, object] = {}
_CODE_CACHE_CAP = 4096


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


def _reads_of(inst) -> Tuple[int, ...]:
    op = inst.opcode
    if op in _READS_RA_RB:
        return (inst.ra, inst.rb)
    if op in _READS_RA:
        return (inst.ra,)
    if op == "st":
        return (inst.ra, inst.rd)
    if op == "out":
        return (inst.rd,)
    return ()


def _fold_alu(op2: str, a: int, b: int) -> int:
    if op2 == "add":
        return to_signed64(a + b)
    if op2 == "sub":
        return to_signed64(a - b)
    if op2 == "mul":
        return to_signed64(a * b)
    if op2 == "and":
        return to_signed64(a & b)
    if op2 == "or":
        return to_signed64(a | b)
    return to_signed64(a ^ b)


def _fold_shift(op2: str, a: int, s: int) -> int:
    if op2 == "sll":
        return to_signed64(a << s)
    if op2 == "srl":
        return to_signed64((a & _MASK) >> s)
    return to_signed64(a >> s)


def _branch_taken(op: str, a: int, b: int) -> bool:
    if op == "beq":
        return a == b
    if op == "bne":
        return a != b
    if op == "blt":
        return a < b
    if op == "bge":
        return a >= b
    if op == "ble":
        return a <= b
    return a > b


def _fold_cmp(op2: str, a: int, b: int) -> int:
    if op2 == "slt":
        return 1 if a < b else 0
    if op2 == "seq":
        return 1 if a == b else 0
    return 1 if a != b else 0


class Tier2Engine(ThreadedEngine):
    """Quickening tier above the threaded engine.

    Reuses the parent's decode (per-pc handler closures) verbatim;
    adds a parallel dispatch table where hot basic blocks are replaced
    by generated superinstruction closures.  With ``count_pcs`` block
    profiling active, quickening is disabled and runs delegate to the
    threaded loop unchanged.
    """

    def __init__(self, machine, config: Optional[Tier2Config] = None) -> None:
        super().__init__(machine)
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
            if op in _BODY_OPS:
                pcs.append(pc)
                seen.add(pc)
                fused.append(inst)
                pc += 1
            elif op in _BRANCH_PY and 0 <= inst.target < code_size:
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
            elif op in ("jal", "jalr", "jr"):
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
            for reg in _reads_of(inst):
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
        decide = self._decide
        if blk.watch:
            def counting(blk=blk, R=self._machine.registers, watch=blk.watch,
                         samples=blk.samples, unstable=blk.unstable,
                         threshold=blk.threshold, decide=decide, base=base):
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
                    decide(blk)
                return base()
        else:
            def counting(blk=blk, threshold=blk.threshold, decide=decide, base=base):
                n = blk.count + 1
                blk.count = n
                if n >= threshold:
                    decide(blk)
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
               note=self._note_deopt, blk=blk, K=len(pcs)):
            note(blk)
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

    def run(self, max_instructions: int):
        machine = self._machine
        if machine.pc_counts is not None:
            return super().run(max_instructions)
        observer = machine.observer
        if self._handlers is None or observer is not self._bound_observer:
            self._decode()
        dyn = self._dyn
        dyn[0] = machine.dynamic_loads
        dyn[1] = machine.dynamic_stores
        dyn[2] = machine.dynamic_calls
        dyn[3] = machine.dynamic_defines
        input_state = self._input_state
        input_state[0] = machine._input
        input_state[1] = machine._input_pos
        extra_cycles = self._extra_cycles
        extra_cycles[0] = 0
        und = self._und
        und[0] = 1
        und[1] = -1

        funcs = self._funcs
        lens = self._lens
        base = self._handlers
        code_size = len(base)
        name = machine.program.name
        pc = machine.pc
        executed_at_entry = machine.instructions_executed
        # The budget rides a countdown cell shared with generated
        # code: whole traces are charged up front (k instructions per
        # dispatch), plain handlers cost one, early trace exits pay
        # the unexecuted tail back, and loop-closed superinstructions
        # charge their own internal iterations.  ``executed`` is
        # recovered as max_instructions−rem[0]−_ungranted on every
        # exit; the correction cell backs out instructions a trace
        # charged but never completed.
        #
        # An observer that overrides ``poll`` gets the budget one
        # POLL_INSTRUCTIONS slice at a time: when the next dispatch no
        # longer fits the grant, the driver polls and grants the next
        # slice.  Loop-closed superinstructions iterate only while the
        # grant covers a full iteration, so they come back to the
        # dispatcher at least once per slice.  Dispatch order, charges
        # and the jitlog clock are the same as with one whole grant.
        rem = self._rem
        budget = max_instructions - executed_at_entry
        poll = _machine_module.observer_poll(observer)
        interval = _machine_module.POLL_INSTRUCTIONS
        if poll is not None and budget > interval:
            rem[0] = interval
            self._ungranted = budget - interval
        else:
            rem[0] = budget
            self._ungranted = 0
        self._max_instructions = max_instructions
        started = time.perf_counter() if _METRICS.enabled else 0.0

        try:
            if not machine.halted:
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
                        # Budget smaller than the superblock: step the
                        # tail per-instruction so exhaustion lands on
                        # the exact same pc as the reference loop.
                        rem[0] = r - 1
                        pc = base[pc]()
                        continue
                    rem[0] = r - k
                    pc = funcs[pc]()
                executed = max_instructions - rem[0]
                self._sync(pc, executed)
                machine._flush_observer()
                raise MachineError(
                    f"{name}: instruction budget exceeded "
                    f"({max_instructions}); infinite loop?"
                )
        except _Halt:
            executed = max_instructions - rem[0] - self._ungranted
            pc += 1
            machine.halted = True
        except _Trap as trap:
            executed = max_instructions - rem[0] - self._ungranted - und[0]
            if und[1] >= 0:
                pc = und[1]
            self._sync(pc, executed + 1)
            machine._flush_observer()
            raise MachineError(trap.message) from None
        except _BadPC as bad:
            executed = max_instructions - rem[0] - self._ungranted
            pc = bad.pc
            self._sync(pc, executed)
            machine._flush_observer()
            if executed >= max_instructions:
                raise MachineError(
                    f"{name}: instruction budget exceeded "
                    f"({max_instructions}); infinite loop?"
                ) from None
            raise MachineError(f"{name}: pc {pc} outside code segment") from None
        except IndexError:
            if 0 <= pc < code_size:  # pragma: no cover - genuine handler bug
                raise
            executed = max_instructions - rem[0] - self._ungranted
            self._sync(pc, executed)
            machine._flush_observer()
            raise MachineError(f"{name}: pc {pc} outside code segment") from None

        self._sync(pc, executed)
        cycles = machine.cycles + (executed - executed_at_entry) + extra_cycles[0]
        machine.cycles = cycles
        if _METRICS.enabled:
            _METRICS.inc("machine.runs")
            _METRICS.inc("machine.engine.tier2_runs")
            _METRICS.inc("machine.instructions", executed - executed_at_entry)
            _METRICS.inc("machine.loads", machine.dynamic_loads)
            _METRICS.inc("machine.stores", machine.dynamic_stores)
            _METRICS.inc("machine.calls", machine.dynamic_calls)
            _METRICS.inc("machine.defines", machine.dynamic_defines)
            elapsed = time.perf_counter() - started
            _METRICS.observe("machine.run", elapsed)
            _METRICS.inc(f"machine.tier2.instructions.{name}", executed - executed_at_entry)
            _METRICS.observe(f"machine.tier2.run.{name}", elapsed)
            self._emit_tier2_metrics()
        _TIMESERIES.advance(executed - executed_at_entry)
        machine._flush_observer()
        return machine._make_result(executed, cycles)


class _Codegen:
    """Generates one superinstruction closure for a block.

    The emitted function body mirrors the per-pc handlers statement
    for statement, with three batching transforms: register reads are
    forwarded through locals, dyn-counter and surcharge updates are
    summed to one add each at block end (partial sums are flushed on
    every trap branch so counters stay exact), and observer hooks are
    called directly or dropped.  Constants propagate from guard bindings,
    ``li``/``la`` and folded results; any non-constant write kills the
    destination's constness.
    """

    def __init__(self, engine: Tier2Engine, blk: _Block, bindings: Dict[int, int]):
        self.engine = engine
        self.machine = engine._machine
        self.blk = blk
        self.bindings = dict(bindings)
        self.lines: List[str] = []
        self.args: Dict[str, object] = {}
        self.consts: Dict[int, int] = {0: 0}
        self.consts.update(bindings)
        self.loc: Dict[int, str] = {}
        self.pending = [0, 0, 0]  # loads, stores, defines
        self.folds = 0
        self.substs = 0
        self.dead = False
        self.ret: Optional[str] = None
        self.ntmp = 0
        self.K = len(blk.fused)
        self.pcs = blk.pcs
        self.guard_cond = ""
        self.ind = ""
        # A branch (or terminal j) back to the trace head closes the
        # loop inside the superinstruction: the whole body is wrapped
        # in ``while True`` and the backedge continues instead of
        # returning to the dispatcher.
        last = blk.fused[-1]
        self.loop_close = any(
            inst.opcode in _BRANCH_PY and inst.target == blk.start
            for inst in blk.fused
        ) or (last.opcode == "j" and last.target == blk.start)
        self.tail_backedge = False

    def extra_cycles(self, n: int) -> int:
        """Cycle surcharge of the first ``n`` trace instructions."""
        cost_by_pc = self.machine._cost_by_pc
        return sum(cost_by_pc[p] - 1 for p in self.pcs[:n])

    # -- small helpers --------------------------------------------------

    def ensure(self, name: str, obj) -> None:
        if name not in self.args:
            self.args[name] = obj

    def emit(self, line: str) -> None:
        self.lines.append("    " + self.ind + line)

    def lit(self, v: int) -> str:
        return f"({v})" if v < 0 else str(v)

    def newtmp(self, prefix: str = "t") -> str:
        self.ntmp += 1
        return f"{prefix}{self.ntmp}"

    def operand(self, reg: int) -> Tuple[Optional[int], str]:
        """(const-or-None, expression) for a register read."""
        c = self.consts.get(reg)
        if c is not None or reg in self.consts:
            self.substs += 1
            return self.consts[reg], self.lit(self.consts[reg])
        name = self.loc.get(reg)
        if name is not None:
            return None, name
        self.ensure("R", self.machine.registers)
        return None, f"R[{reg}]"

    def set_reg(self, rd: int, expr: str, is_temp: bool = False) -> str:
        self.ensure("R", self.machine.registers)
        if is_temp:
            t = expr
        else:
            t = self.newtmp()
            self.emit(f"{t} = {expr}")
        self.consts.pop(rd, None)
        self.loc[rd] = t
        self.emit(f"R[{rd}] = {t}")
        return t

    def set_reg_const(self, rd: int, value: int) -> None:
        self.ensure("R", self.machine.registers)
        self.loc.pop(rd, None)
        self.consts[rd] = value
        self.emit(f"R[{rd}] = {self.lit(value)}")

    def trap_lines(self, j: int, raise_line: str) -> List[str]:
        """Statements for a trap branch: flush partial counters, record
        the uncounted tail and trapping pc, raise."""
        self.ensure("und", self.engine._und)
        self.ensure("_T", _Trap)
        out = []
        dl, ds, dd = self.pending
        if dl:
            self.ensure("dyn", self.engine._dyn)
            out.append(f"dyn[0] += {dl}")
        if ds:
            self.ensure("dyn", self.engine._dyn)
            out.append(f"dyn[1] += {ds}")
        if dd:
            self.ensure("dyn", self.engine._dyn)
            out.append(f"dyn[3] += {dd}")
        out.append(f"und[0] = {self.K - j}")
        out.append(f"und[1] = {self.pcs[j]}")
        out.append(raise_line)
        return out

    def exit_lines(self, n: int, target: int) -> List[str]:
        """Statements for an early trace exit after ``n`` executed
        instructions: flush partial counters and cycle surcharge,
        refund the unexecuted tail, return the successor pc."""
        out = []
        dl, ds, dd = self.pending
        if dl:
            self.ensure("dyn", self.engine._dyn)
            out.append(f"dyn[0] += {dl}")
        if ds:
            self.ensure("dyn", self.engine._dyn)
            out.append(f"dyn[1] += {ds}")
        if dd:
            self.ensure("dyn", self.engine._dyn)
            out.append(f"dyn[3] += {dd}")
        extra = self.extra_cycles(n)
        if extra:
            self.ensure("cyc", self.engine._extra_cycles)
            out.append(f"cyc[0] += {extra}")
        if n < self.K:
            self.ensure("rem", self.engine._rem)
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
        out = []
        dl, ds, dd = self.pending
        if dl:
            self.ensure("dyn", self.engine._dyn)
            out.append(f"dyn[0] += {dl}")
        if ds:
            self.ensure("dyn", self.engine._dyn)
            out.append(f"dyn[1] += {ds}")
        if dd:
            self.ensure("dyn", self.engine._dyn)
            out.append(f"dyn[3] += {dd}")
        extra = self.extra_cycles(n)
        if extra:
            self.ensure("cyc", self.engine._extra_cycles)
            out.append(f"cyc[0] += {extra}")
        self.ensure("rem", self.engine._rem)
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

    def emit_trap_branch(self, j: int, cond: str, raise_line: str) -> None:
        self.emit(f"if {cond}:")
        for line in self.trap_lines(j, raise_line):
            self.emit("    " + line)

    def emit_unconditional_trap(self, j: int, raise_line: str) -> None:
        for line in self.trap_lines(j, raise_line):
            self.emit(line)
        self.dead = True

    # -- observer hooks -------------------------------------------------

    def emit_value_hook(self, j: int, hook, value_expr: str, tag: str,
                        call_args: Optional[str] = None) -> None:
        """Call a bound observer hook from the generated body.

        ``call_args`` overrides the argument list (load hooks take
        ``(address, value)``).
        """
        if hook is None:
            return
        h = f"h{tag}{j}"
        self.args[h] = hook
        self.emit(f"{h}({call_args if call_args is not None else value_expr})")

    def finish_define(self, j: int, inst, kind: str, val, dh) -> None:
        """Common tail of a defining instruction: register write, dyn
        count, define hook — with the r0 hardwired-zero rule."""
        rd = inst.rd
        if rd == 0:
            hv = "0"
        elif kind == "const":
            self.set_reg_const(rd, val)
            hv = self.lit(val)
        else:
            t = self.set_reg(rd, val, is_temp=(kind == "temp"))
            hv = t
        self.pending[2] += 1
        self.emit_value_hook(j, dh, hv, "d")

    # -- per-opcode emitters --------------------------------------------

    def value_of(self, j: int, inst):
        """(kind, value) for a pure computing opcode.

        kind is "const" (value: int), "expr" (value: expression string)
        or "temp" (value: existing local name).  Pure means no side
        effects — safe to skip entirely when rd is r0.
        """
        op = inst.opcode
        if op == "li":
            return "const", to_signed64(inst.imm)
        if op == "la":
            return "const", inst.imm
        if op == "mov":
            ac, ax = self.operand(inst.ra)
            if ac is not None:
                return "const", ac
            return ("temp", ax) if ax == self.loc.get(inst.ra) else ("expr", ax)
        if op in _ALU_IMM or op in _ALU_REG:
            if op in _ALU_IMM:
                op2 = _ALU_IMM[op]
                bc, bx = inst.imm, self.lit(inst.imm)
            else:
                op2 = op
                bc, bx = self.operand(inst.rb)
            ac, ax = self.operand(inst.ra)
            return self.alu_value(op2, ac, ax, bc, bx)
        if op in _SHIFT_IMM or op in _SHIFT_REG:
            if op in _SHIFT_IMM:
                op2 = _SHIFT_IMM[op]
                sc, sx = inst.imm & 63, str(inst.imm & 63)
            else:
                op2 = op
                sc, sx = self.operand(inst.rb)
                if sc is not None:
                    sc, sx = sc & 63, str(sc & 63)
                else:
                    sx = f"({sx} & 63)"
            ac, ax = self.operand(inst.ra)
            return self.shift_value(op2, ac, ax, sc, sx)
        if op in _CMP_IMM or op in _CMP_REG:
            if op in _CMP_IMM:
                op2 = _CMP_IMM[op]
                bc, bx = inst.imm, self.lit(inst.imm)
            else:
                op2 = op
                bc, bx = self.operand(inst.rb)
            ac, ax = self.operand(inst.ra)
            if ac is not None and bc is not None:
                self.folds += 1
                return "const", _fold_cmp(op2, ac, bc)
            return "expr", f"1 if {ax} {_CMP_PY[op2]} {bx} else 0"
        raise MachineError(f"tier2: no value emitter for {op!r}")  # pragma: no cover

    def alu_value(self, op2, ac, ax, bc, bx):
        B, Mk = "B", "Mk"
        self.ensure("B", _BIAS)
        self.ensure("Mk", _MASK)
        if ac is not None and bc is not None:
            self.folds += 1
            return "const", _fold_alu(op2, ac, bc)
        # Identity folds: sound because register values are always
        # canonical signed-64 (every write wraps).
        if op2 == "add":
            if bc == 0:
                self.folds += 1
                return self.copy_of(ac, ax)
            if ac == 0:
                self.folds += 1
                return self.copy_of(bc, bx)
            return "expr", f"(({ax} + {bx} + {B}) & {Mk}) - {B}"
        if op2 == "sub":
            if bc == 0:
                self.folds += 1
                return self.copy_of(ac, ax)
            return "expr", f"(({ax} - {bx} + {B}) & {Mk}) - {B}"
        if op2 == "mul":
            if bc == 0 or ac == 0:
                self.folds += 1
                return "const", 0
            if bc == 1:
                self.folds += 1
                return self.copy_of(ac, ax)
            if ac == 1:
                self.folds += 1
                return self.copy_of(bc, bx)
            if bc is not None and bc > 1 and bc & (bc - 1) == 0:
                self.folds += 1
                s = bc.bit_length() - 1
                return "expr", f"((({ax} << {s}) + {B}) & {Mk}) - {B}"
            return "expr", f"(({ax} * {bx} + {B}) & {Mk}) - {B}"
        if op2 == "and":
            if bc == 0 or ac == 0:
                self.folds += 1
                return "const", 0
            if bc == -1:
                self.folds += 1
                return self.copy_of(ac, ax)
            if ac == -1:
                self.folds += 1
                return self.copy_of(bc, bx)
            return "expr", f"(({ax} & {bx}) + {B} & {Mk}) - {B}"
        if op2 == "or":
            if bc == 0:
                self.folds += 1
                return self.copy_of(ac, ax)
            if ac == 0:
                self.folds += 1
                return self.copy_of(bc, bx)
            if bc == -1 or ac == -1:
                self.folds += 1
                return "const", -1
            return "expr", f"(({ax} | {bx}) + {B} & {Mk}) - {B}"
        # xor
        if bc == 0:
            self.folds += 1
            return self.copy_of(ac, ax)
        if ac == 0:
            self.folds += 1
            return self.copy_of(bc, bx)
        return "expr", f"(({ax} ^ {bx}) + {B} & {Mk}) - {B}"

    def copy_of(self, c, x):
        if c is not None:
            return "const", c
        # A bare local temp can be forwarded without rematerializing.
        return ("temp", x) if x.isidentifier() else ("expr", x)

    def shift_value(self, op2, ac, ax, sc, sx):
        if ac is not None and sc is not None:
            self.folds += 1
            return "const", _fold_shift(op2, ac, sc)
        if sc == 0:
            self.folds += 1
            return self.copy_of(ac, ax)
        self.ensure("B", _BIAS)
        self.ensure("Mk", _MASK)
        if op2 == "sll":
            return "expr", f"((({ax} << {sx}) + B) & Mk) - B"
        if op2 == "srl":
            return "expr", f"(((({ax} & Mk) >> {sx}) + B) & Mk) - B"
        return "expr", f"((({ax} >> {sx}) + B) & Mk) - B"

    def emit_ld(self, j: int, inst, dh, lh) -> None:
        self.ensure("M", self.machine.memory)
        mw = self.machine.memory_words
        name = self.machine.program.name
        pc = inst.pc
        ac, ax = self.operand(inst.ra)
        if ac is not None:
            addr = ac + inst.imm
            if not 0 <= addr < mw:
                msg = f"{name}: load out of range at pc {pc}: address {addr}"
                m = f"m{j}"
                self.args[m] = msg
                self.emit_unconditional_trap(j, f"raise _T({m})")
                return
            self.folds += 1
            aexpr = str(addr)
        else:
            at = self.newtmp("a")
            self.emit(f"{at} = {ax} + {inst.imm}" if inst.imm else f"{at} = {ax}")
            m = f"m{j}"
            self.args[m] = f"{name}: load out of range at pc {pc}: address "
            self.ensure("str", str)
            self.emit_trap_branch(j, f"not 0 <= {at} < {mw}",
                                  f"raise _T(m{j} + str({at}))")
            aexpr = at
        vt = self.newtmp()
        self.emit(f"{vt} = M[{aexpr}]")
        rd = inst.rd
        if rd != 0:
            self.consts.pop(rd, None)
            self.loc[rd] = vt
            self.ensure("R", self.machine.registers)
            self.emit(f"R[{rd}] = {vt}")
        self.pending[0] += 1
        self.emit_value_hook(j, lh, vt, "l", call_args=f"{aexpr}, {vt}")
        self.pending[2] += 1
        self.emit_value_hook(j, dh, vt if rd != 0 else "0", "d")

    def emit_st(self, j: int, inst, sh) -> None:
        self.ensure("M", self.machine.memory)
        mw = self.machine.memory_words
        name = self.machine.program.name
        pc = inst.pc
        ac, ax = self.operand(inst.ra)
        vc, vx = self.operand(inst.rd)
        if ac is not None:
            addr = ac + inst.imm
            if not 0 <= addr < mw:
                msg = f"{name}: store out of range at pc {pc}: address {addr}"
                m = f"m{j}"
                self.args[m] = msg
                self.emit_unconditional_trap(j, f"raise _T({m})")
                return
            self.folds += 1
            aexpr = str(addr)
        else:
            at = self.newtmp("a")
            self.emit(f"{at} = {ax} + {inst.imm}" if inst.imm else f"{at} = {ax}")
            m = f"m{j}"
            self.args[m] = f"{name}: store out of range at pc {pc}: address "
            self.ensure("str", str)
            self.emit_trap_branch(j, f"not 0 <= {at} < {mw}",
                                  f"raise _T(m{j} + str({at}))")
            aexpr = at
        if vc is None and not vx.isidentifier():
            vt = self.newtmp()
            self.emit(f"{vt} = {vx}")
            vx = vt
        self.emit(f"M[{aexpr}] = {vx}")
        self.pending[1] += 1
        if sh is not None:
            h = f"hs{j}"
            self.args[h] = sh
            self.emit(f"{h}({aexpr}, {vx})")

    def emit_div(self, j: int, inst, dh) -> None:
        op = inst.opcode
        is_div = op.startswith("div")
        name = self.machine.program.name
        msg = (f"{name}: division by zero at pc {inst.pc} "
               f"({inst.render()}, line {inst.line})")
        if op.endswith("i"):
            dc, dx = inst.imm, self.lit(inst.imm)
        else:
            dc, dx = self.operand(inst.rb)
        nc, nx = self.operand(inst.ra)
        if dc == 0:
            m = f"m{j}"
            self.args[m] = msg
            self.emit_unconditional_trap(j, f"raise _T({m})")
            return
        if dc is None:
            dt = self.newtmp("d")
            self.emit(f"{dt} = {dx}")
            dx = dt
            m = f"m{j}"
            self.args[m] = msg
            self.emit_trap_branch(j, f"{dx} == 0", f"raise _T(m{j})")
        if nc is not None and dc is not None:
            q = abs(nc) // abs(dc)
            if (nc < 0) != (dc < 0):
                q = -q
            self.folds += 1
            value = to_signed64(q) if is_div else to_signed64(nc - q * dc)
            self.finish_define(j, inst, "const", value, dh)
            return
        if inst.rd == 0:
            # Quotient is dead (r0 write); only the zero trap above is
            # architecturally visible.
            self.finish_define(j, inst, "const", 0, dh)
            return
        if not nx.isidentifier():
            nt = self.newtmp("n")
            self.emit(f"{nt} = {nx}")
            nx = nt
        self.ensure("abs", abs)
        self.ensure("B", _BIAS)
        self.ensure("Mk", _MASK)
        qt = self.newtmp("q")
        self.emit(f"{qt} = abs({nx}) // abs({dx})")
        self.emit(f"if ({nx} < 0) != ({dx} < 0): {qt} = -{qt}")
        if is_div:
            expr = f"(({qt} + B) & Mk) - B"
        else:
            expr = f"(({nx} - {qt} * {dx} + B) & Mk) - B"
        self.finish_define(j, inst, "expr", expr, dh)

    def emit_in(self, j: int, inst, dh) -> None:
        self.ensure("ist", self.engine._input_state)
        self.ensure("len", len)
        pt = self.newtmp("p")
        vt = self.newtmp()
        self.emit(f"{pt} = ist[1]")
        self.emit(f"if {pt} < len(ist[0]):")
        self.emit(f"    {vt} = ist[0][{pt}]")
        self.emit(f"    ist[1] = {pt} + 1")
        self.emit("else:")
        self.emit(f"    {vt} = 0")
        self.finish_define(j, inst, "temp", vt, dh)

    def emit_inst(self, j: int, inst) -> None:
        op = inst.opcode
        dh, lh, sh = self.engine._hooks_for(inst)
        if op == "nop":
            return
        if op == "out":
            _, vx = self.operand(inst.rd)
            self.ensure("outp", self.machine.output.append)
            self.emit(f"outp({vx})")
            return
        if op == "ld":
            self.emit_ld(j, inst, dh, lh)
            return
        if op == "st":
            self.emit_st(j, inst, sh)
            return
        if op in ("div", "divi", "rem", "remi"):
            self.emit_div(j, inst, dh)
            return
        if op == "in":
            self.emit_in(j, inst, dh)
            return
        kind, val = self.value_of(j, inst)
        if inst.rd == 0 and kind == "expr":
            # Dead pure compute into r0: skip the arithmetic, keep the
            # architecturally visible define event (value 0).
            kind, val = "const", 0
        self.finish_define(j, inst, kind, val, dh)

    def emit_branch(self, j: int, inst) -> None:
        """A conditional branch: trace terminator when last, guarded
        early exit (taken path) when mid-trace — the trace itself
        continues along the fallthrough edge."""
        op = inst.opcode
        t, npc = inst.target, inst.pc + 1
        ac, ax = self.operand(inst.ra)
        bc, bx = self.operand(inst.rb)
        last = j == self.K - 1
        backedge = t == self.blk.start
        if ac is not None and bc is not None:
            self.folds += 1
            if _branch_taken(op, ac, bc):
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
        cond = f"{ax} {_BRANCH_PY[op]} {bx}"
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
            self.ensure("R", self.machine.registers)
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
            if op in _BRANCH_PY:
                self.emit_branch(j, inst)
            elif op == "j":
                if j == self.K - 1:
                    if inst.target == blk.start:
                        self.tail_backedge = True
                    else:
                        self.ret = str(inst.target)
                # Mid-trace j: the trace continued at the target, so
                # the jump itself compiles to nothing.
            elif op in ("jal", "jalr", "jr"):
                # Terminal control transfer: tail-call the original
                # handler (link write, call/return hooks, bad-target
                # checks) after flushing the batched counters.
                h = f"hx{j}"
                self.args[h] = engine._handlers[inst.pc]
                self.ret = f"{h}()"
            else:
                self.emit_inst(j, inst)
            if self.dead:
                break
        if not self.dead:
            if self.tail_backedge:
                for line in self.backedge_lines(self.K):
                    self.emit(line)
            else:
                dl, ds, dd = self.pending
                if dl or ds or dd:
                    self.ensure("dyn", engine._dyn)
                if dl:
                    self.emit(f"dyn[0] += {dl}")
                if ds:
                    self.emit(f"dyn[1] += {ds}")
                if dd:
                    self.emit(f"dyn[3] += {dd}")
                extra = self.extra_cycles(self.K)
                if extra:
                    self.ensure("cyc", engine._extra_cycles)
                    self.emit(f"cyc[0] += {extra}")
                if self.ret is None:
                    self.ret = str(self.pcs[-1] + 1)
                self.emit(f"return {self.ret}")
        params = ", ".join(f"{n}={n}" for n in self.args)
        body = head + (self.lines or ["    pass"])
        src = f"def _sb({params}):\n" + "\n".join(body) + "\n"
        ns = dict(self.args)
        code = _CODE_CACHE.get(src)
        hit = code is not None
        if code is None:
            if len(_CODE_CACHE) >= _CODE_CACHE_CAP:
                _CODE_CACHE.clear()
            code = compile(src, f"<tier2:{self.machine.program.name}:{blk.start}>", "exec")
            _CODE_CACHE[src] = code
        if _JITLOG.enabled:
            engine._jl_emit("cache_hit" if hit else "cache_miss", blk,
                            source_lines=src.count("\n"))
        exec(code, ns)  # noqa: S102 - source assembled from trusted opcode table
        return ns["_sb"], self.folds, self.substs
