"""Pre-decoded direct-threaded execution engine for the VPA machine.

The reference interpreter (:meth:`repro.isa.machine.Machine.run`)
re-discovers everything about an instruction every time it executes it:
an ``if``/``elif`` walk over the mnemonic, half a dozen ``inst.``
attribute loads, observer dispatch through ``on_*`` methods that
re-check targets and re-intern sites per event.  All of that is
invariant across the run — it depends only on the *static* instruction
— which makes it exactly the kind of invariance-driven specialization
the profiled programs themselves are subjected to.

This engine partially evaluates the interpreter against the program at
decode time: each static instruction becomes one closure with its
operand register indices, immediates, jump targets, prebuilt trap
messages and observer hooks bound as default arguments.  Execution is
then direct-threaded code::

    for executed in range(executed, max_instructions):
        pc = handlers[pc]()

with no mnemonic comparison, no ``inst.`` loads and no dead observer
calls on the hot path (hooks an observer declines at decode time are
``None`` and skipped entirely).  The ``range`` iterator carries both
the instruction counter and the budget check in C; cycle accounting is
a flat cycle per iteration plus surcharges the multi-cycle handlers
(loads, stores, mul/div) bank on the side, so neither bookkeeping line
appears in the loop.

Semantics are bit-identical to the reference loop — same results, same
profiles, same trap messages, same counter values on every exit path —
and enforced by the differential test suite
(``tests/isa/test_engine_differential.py``).
"""

from __future__ import annotations

import time
import weakref
from typing import Callable, List, Optional

from repro.errors import MachineError
from repro.isa import machine as _machine_module
from repro.isa.instructions import REG_ARGS, REG_LINK, REG_RETURN
from repro.obs.metrics import METRICS as _METRICS
from repro.obs.timeseries import TIMESERIES as _TIMESERIES

#: two's-complement wrap constants, bound into the hot closures so the
#: signed wrap is three arithmetic ops instead of a function call.
#: ``((x + _BIAS) & _MASK) - _BIAS`` is exactly ``to_signed64(x)``.
_MASK = (1 << 64) - 1
_BIAS = 1 << 63


class _Halt(Exception):
    """Internal: the ``halt`` instruction fired.

    Raised as a fresh instance on every halt, never as a shared one: a
    raise appends the unwound frames to the instance's
    ``__traceback__``, so a reused instance would keep every halted
    run's engine, Machine and memory reachable for the life of the
    process.
    """


class _Trap(Exception):
    """Internal: a runtime trap (bad address, division by zero)."""

    def __init__(self, message: str) -> None:
        self.message = message


class _BadPC(Exception):
    """Internal: a computed jump left the code segment."""

    def __init__(self, pc: int) -> None:
        self.pc = pc


#: opcodes whose handlers bank their extra cycles (cost − 1) inline.
_SURCHARGED = frozenset({"ld", "st", "mul", "muli", "div", "rem", "divi", "remi"})


class ThreadedEngine:
    """Direct-threaded executor bound to one :class:`Machine`.

    Decoding happens lazily on the first :meth:`run` and is redone when
    the machine's observer changes (hooks are bound into the closures).
    The machine's registers, memory, output list and procedure-call
    dict are captured by identity, so all externally visible state
    stays on the machine object exactly as with the reference engine.

    **Tier hooks.**  This class is also the substrate the tier-2
    specializer (:class:`repro.isa.tier2.Tier2Engine`) quickens on top
    of.  The contract a subclass may rely on:

    * :meth:`_decode` is the quicken point — after it returns,
      ``self._handlers[pc]`` is the complete per-pc closure table, and
      each closure returns the next pc.  A tier may call any handler
      directly (the deopt path) or replace its own dispatch table
      entries with multi-instruction superinstructions.
    * ``_dyn``, ``_extra_cycles`` and ``_input_state`` are the shared
      accounting cells the handlers mutate; generated code that
      bypasses handlers must keep them exact, and :meth:`_sync` writes
      them (plus pc/instruction counts) back to the machine on every
      exit path.
    * ``_Halt``/``_Trap``/``_BadPC`` are the control-flow exceptions a
      driver must translate into machine state; trap messages are part
      of the bit-identity contract.
    """

    def __init__(self, machine) -> None:
        # Weak, so the Machine (which owns this engine) is freed at its
        # last reference rather than by the cyclic collector.  Nothing
        # the handlers close over refers back to the engine either.
        self._machine = weakref.proxy(machine)
        self._handlers: Optional[List[Callable[[], int]]] = None
        #: observer the current decode was specialized against.
        self._bound_observer = self
        #: [loads, stores, calls, defines] — mutated by handlers,
        #: synced to the machine's attributes on every exit path.
        self._dyn: List[int] = [0, 0, 0, 0]
        #: [input_values, input_pos] — shared with the ``in`` handler.
        self._input_state: list = [(), 0]
        #: [cycles beyond one per instruction] — loads/stores/mul/div
        #: handlers add their surcharge here; the driver then charges a
        #: flat cycle per instruction, so the per-iteration
        #: ``cycles += cost[pc]`` table walk disappears from the loop.
        self._extra_cycles: List[int] = [0]

    # ------------------------------------------------------------------
    # driver loop
    # ------------------------------------------------------------------

    def run(self, max_instructions: int):
        """Execute until ``halt``/trap/budget; mirrors ``Machine.run``.

        The instruction counter rides the ``for``-loop's ``range``
        iterator (incremented in C), budget exhaustion is simply range
        exhaustion, and cycle accounting is one flat cycle per
        iteration plus the surcharges the multi-cycle handlers banked
        in ``_extra_cycles`` — so the hot loop is a single statement:
        ``pc = handlers[pc]()``.

        Because the loop variable is assigned *before* the handler
        runs, each exceptional exit adjusts ``executed`` to land on the
        same value the reference loop reports: traps, halts and
        computed bad jumps count their instruction (+1); falling off
        the code segment does not (the handler never ran).

        An observer that overrides :meth:`MachineObserver.poll` gets the
        same loop cut into slices of ``POLL_INSTRUCTIONS`` iterations
        with a poll after each; any other run is one slice.  Each
        slice's ``range`` picks up where the last one stopped, so every
        exit lands where it would have.
        """
        machine = self._machine
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

        handlers = self._handlers
        pc_counts = machine.pc_counts
        code_size = len(handlers)
        name = machine.program.name
        pc = machine.pc
        executed = machine.instructions_executed
        executed_at_entry = executed
        started = time.perf_counter() if _METRICS.enabled else 0.0

        poll = _machine_module.observer_poll(observer)
        # Without a poll the whole budget is one slice.
        interval = max_instructions if poll is None else _machine_module.POLL_INSTRUCTIONS

        try:
            if not machine.halted:
                start = executed
                while start < max_instructions:
                    stop = min(start + interval, max_instructions)
                    if pc_counts is None:
                        for executed in range(start, stop):
                            pc = handlers[pc]()
                    else:
                        for executed in range(start, stop):
                            pc_counts[pc] += 1
                            pc = handlers[pc]()
                    if poll is not None:
                        poll()
                    start = stop
                # Range exhausted: the budget ran out.  The reference
                # loop notices at the top of the next iteration, with
                # the counter unchanged.
                if executed < max_instructions:
                    executed = max_instructions
                self._sync(pc, executed)
                machine._flush_observer()
                raise MachineError(
                    f"{name}: instruction budget exceeded "
                    f"({max_instructions}); infinite loop?"
                )
        except _Halt:
            executed += 1
            pc += 1
            machine.halted = True
        except _Trap as trap:
            # The trapping instruction counts as executed (the reference
            # loop increments before the opcode body) but, as there, the
            # cycle count of the failed run is not written back.
            self._sync(pc, executed + 1)
            machine._flush_observer()
            raise MachineError(trap.message) from None
        except _BadPC as bad:
            # A computed jump left the code segment.  The reference loop
            # notices at the *top* of the next iteration, after the
            # budget check — replicate that ordering exactly.
            executed += 1
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
            # ``handlers[pc]`` raised: execution fell off the end of the
            # code segment (sequential flow only ever reaches
            # pc == code_size; every jump is bounds-checked in its
            # handler).  The instruction never ran, so the counter is
            # not advanced — exactly the reference, which raises before
            # incrementing.
            if 0 <= pc < code_size:  # pragma: no cover - genuine handler bug
                raise
            self._sync(pc, executed)
            machine._flush_observer()
            raise MachineError(f"{name}: pc {pc} outside code segment") from None

        self._sync(pc, executed)
        cycles = machine.cycles + (executed - executed_at_entry) + extra_cycles[0]
        machine.cycles = cycles
        if _METRICS.enabled:
            _METRICS.inc("machine.runs")
            _METRICS.inc("machine.engine.threaded_runs")
            _METRICS.inc("machine.instructions", executed - executed_at_entry)
            _METRICS.inc("machine.loads", machine.dynamic_loads)
            _METRICS.inc("machine.stores", machine.dynamic_stores)
            _METRICS.inc("machine.calls", machine.dynamic_calls)
            _METRICS.inc("machine.defines", machine.dynamic_defines)
            _METRICS.observe("machine.run", time.perf_counter() - started)
        _TIMESERIES.advance(executed - executed_at_entry)
        machine._flush_observer()
        return machine._make_result(executed, cycles)

    def _sync(self, pc: int, executed: int) -> None:
        machine = self._machine
        machine.pc = pc
        machine.instructions_executed = executed
        dyn = self._dyn
        machine.dynamic_loads = dyn[0]
        machine.dynamic_stores = dyn[1]
        machine.dynamic_calls = dyn[2]
        machine.dynamic_defines = dyn[3]
        machine._input_pos = self._input_state[1]

    # ------------------------------------------------------------------
    # decode
    # ------------------------------------------------------------------

    def _decode(self) -> None:
        machine = self._machine
        observer = machine.observer
        self._handlers = [
            self._decode_one(inst) for inst in machine.program.instructions
        ]
        self._bound_observer = observer

    def _hooks_for(self, inst):
        """(define, load, store) hooks for one instruction, or Nones.

        Observers deriving from :class:`MachineObserver` specialize via
        their ``bind_*`` methods; anything else (duck-typed observers)
        gets a generic wrapper around its ``on_*`` methods so the event
        stream is identical either way.
        """
        observer = self._machine.observer
        if observer is None:
            return None, None, None
        bind_define = getattr(observer, "bind_define", None)
        if bind_define is not None:
            return (
                bind_define(inst),
                observer.bind_load(inst),
                observer.bind_store(inst),
            )

        def define_hook(value, _cb=observer.on_define, _inst=inst):
            _cb(_inst, value)

        def load_hook(address, value, _cb=observer.on_load, _inst=inst):
            _cb(_inst, address, value)

        def store_hook(address, value, _cb=observer.on_store, _inst=inst):
            _cb(_inst, address, value)

        return define_hook, load_hook, store_hook

    def _bind_return_hook(self, procedure):
        observer = self._machine.observer
        if observer is None:
            return None
        bind_return = getattr(observer, "bind_return", None)
        if bind_return is not None:
            return bind_return(procedure)

        def return_hook(value, _cb=observer.on_return, _proc=procedure):
            _cb(_proc, value)

        return return_hook

    def _decode_one(self, inst) -> Callable[[], int]:
        """Specialize one static instruction into its handler closure.

        Handlers return the next pc; control-flow anomalies travel as
        the internal exceptions above.  Every closure binds its operands
        as default arguments — the CPython idiom for turning globals and
        attribute loads into ``LOAD_FAST``.
        """
        machine = self._machine
        op = inst.opcode
        R = machine.registers
        M = machine.memory
        dyn = self._dyn
        rd, ra, rb = inst.rd, inst.ra, inst.rb
        imm = inst.imm
        pc = inst.pc
        npc = pc + 1
        code_size = len(machine.program.instructions)
        memory_words = machine.memory_words
        name = machine.program.name
        dh, lh, sh = self._hooks_for(inst)
        #: cycles this instruction costs beyond the flat one the driver
        #: charges per iteration; non-zero only for loads, stores and
        #: the mul/div family, which bank it in ``_extra_cycles``.
        cyc = self._extra_cycles
        extra = machine._cost_by_pc[pc] - 1

        # -- defining instructions ------------------------------------
        # Built assuming rd != 0; the r0 wrapper below restores the
        # hardwired zero and reports 0 to the define hook, exactly as
        # the reference loop does after each defining opcode.
        handler: Optional[Callable[[], int]] = None
        wants_define_wrap = False

        if op == "ld":
            wants_define_wrap = True
            define_hook = None if rd == 0 else dh

            def handler(R=R, M=M, rd=rd, ra=ra, imm=imm, npc=npc, dyn=dyn,
                        mw=memory_words, lh=lh, dh=define_hook, name=name, pc=pc,
                        cyc=cyc, ex=extra):
                address = R[ra] + imm
                if 0 <= address < mw:
                    cyc[0] += ex
                    value = M[address]
                    R[rd] = value
                    dyn[0] += 1
                    if lh is not None:
                        lh(address, value)
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc
                raise _Trap(f"{name}: load out of range at pc {pc}: address {address}")

        elif op == "st":

            def handler(R=R, M=M, rd=rd, ra=ra, imm=imm, npc=npc, dyn=dyn,
                        mw=memory_words, sh=sh, name=name, pc=pc,
                        cyc=cyc, ex=extra):
                address = R[ra] + imm
                if 0 <= address < mw:
                    cyc[0] += ex
                    value = R[rd]
                    M[address] = value
                    dyn[1] += 1
                    if sh is not None:
                        sh(address, value)
                    return npc
                raise _Trap(f"{name}: store out of range at pc {pc}: address {address}")

        elif op in ("addi", "subi", "muli", "andi", "ori", "xori"):
            wants_define_wrap = True
            define_hook = None if rd == 0 else dh
            if op == "addi":
                def handler(R=R, rd=rd, ra=ra, imm=imm, npc=npc, dyn=dyn,
                            dh=define_hook, B=_BIAS, Mk=_MASK):
                    value = ((R[ra] + imm + B) & Mk) - B
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc
            elif op == "subi":
                def handler(R=R, rd=rd, ra=ra, imm=imm, npc=npc, dyn=dyn,
                            dh=define_hook, B=_BIAS, Mk=_MASK):
                    value = ((R[ra] - imm + B) & Mk) - B
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc
            elif op == "muli":
                def handler(R=R, rd=rd, ra=ra, imm=imm, npc=npc, dyn=dyn,
                            dh=define_hook, B=_BIAS, Mk=_MASK, cyc=cyc, ex=extra):
                    cyc[0] += ex
                    value = ((R[ra] * imm + B) & Mk) - B
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc
            elif op == "andi":
                def handler(R=R, rd=rd, ra=ra, imm=imm, npc=npc, dyn=dyn,
                            dh=define_hook, B=_BIAS, Mk=_MASK):
                    value = ((R[ra] & imm) + B & Mk) - B
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc
            elif op == "ori":
                def handler(R=R, rd=rd, ra=ra, imm=imm, npc=npc, dyn=dyn,
                            dh=define_hook, B=_BIAS, Mk=_MASK):
                    value = ((R[ra] | imm) + B & Mk) - B
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc
            else:
                def handler(R=R, rd=rd, ra=ra, imm=imm, npc=npc, dyn=dyn,
                            dh=define_hook, B=_BIAS, Mk=_MASK):
                    value = ((R[ra] ^ imm) + B & Mk) - B
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc

        elif op in ("add", "sub", "mul", "and", "or", "xor"):
            wants_define_wrap = True
            define_hook = None if rd == 0 else dh
            if op == "add":
                def handler(R=R, rd=rd, ra=ra, rb=rb, npc=npc, dyn=dyn,
                            dh=define_hook, B=_BIAS, Mk=_MASK):
                    value = ((R[ra] + R[rb] + B) & Mk) - B
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc
            elif op == "sub":
                def handler(R=R, rd=rd, ra=ra, rb=rb, npc=npc, dyn=dyn,
                            dh=define_hook, B=_BIAS, Mk=_MASK):
                    value = ((R[ra] - R[rb] + B) & Mk) - B
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc
            elif op == "mul":
                def handler(R=R, rd=rd, ra=ra, rb=rb, npc=npc, dyn=dyn,
                            dh=define_hook, B=_BIAS, Mk=_MASK, cyc=cyc, ex=extra):
                    cyc[0] += ex
                    value = ((R[ra] * R[rb] + B) & Mk) - B
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc
            elif op == "and":
                def handler(R=R, rd=rd, ra=ra, rb=rb, npc=npc, dyn=dyn,
                            dh=define_hook, B=_BIAS, Mk=_MASK):
                    value = ((R[ra] & R[rb]) + B & Mk) - B
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc
            elif op == "or":
                def handler(R=R, rd=rd, ra=ra, rb=rb, npc=npc, dyn=dyn,
                            dh=define_hook, B=_BIAS, Mk=_MASK):
                    value = ((R[ra] | R[rb]) + B & Mk) - B
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc
            else:
                def handler(R=R, rd=rd, ra=ra, rb=rb, npc=npc, dyn=dyn,
                            dh=define_hook, B=_BIAS, Mk=_MASK):
                    value = ((R[ra] ^ R[rb]) + B & Mk) - B
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc

        elif op in ("li", "la"):
            wants_define_wrap = True
            define_hook = None if rd == 0 else dh
            # ``li`` wraps its immediate, ``la`` takes it verbatim —
            # both are constants after decode.
            constant = (((imm + _BIAS) & _MASK) - _BIAS) if op == "li" else imm

            def handler(R=R, rd=rd, value=constant, npc=npc, dyn=dyn, dh=define_hook):
                R[rd] = value
                dyn[3] += 1
                if dh is not None:
                    dh(value)
                return npc

        elif op == "mov":
            wants_define_wrap = True
            define_hook = None if rd == 0 else dh

            def handler(R=R, rd=rd, ra=ra, npc=npc, dyn=dyn, dh=define_hook):
                value = R[ra]
                R[rd] = value
                dyn[3] += 1
                if dh is not None:
                    dh(value)
                return npc

        elif op in ("div", "rem"):
            wants_define_wrap = True
            define_hook = None if rd == 0 else dh
            div_message = (
                f"{name}: division by zero at pc {pc} "
                f"({inst.render()}, line {inst.line})"
            )
            is_div = op == "div"

            def handler(R=R, rd=rd, ra=ra, rb=rb, npc=npc, dyn=dyn, dh=define_hook,
                        msg=div_message, is_div=is_div, B=_BIAS, Mk=_MASK,
                        cyc=cyc, ex=extra):
                numerator = R[ra]
                denominator = R[rb]
                if denominator == 0:
                    raise _Trap(msg)
                cyc[0] += ex
                quotient = abs(numerator) // abs(denominator)
                if (numerator < 0) != (denominator < 0):
                    quotient = -quotient
                if is_div:
                    value = ((quotient + B) & Mk) - B
                else:
                    value = ((numerator - quotient * denominator + B) & Mk) - B
                R[rd] = value
                dyn[3] += 1
                if dh is not None:
                    dh(value)
                return npc

        elif op in ("divi", "remi"):
            wants_define_wrap = True
            define_hook = None if rd == 0 else dh
            div_message = (
                f"{name}: division by zero at pc {pc} "
                f"({inst.render()}, line {inst.line})"
            )
            if imm == 0:
                # A statically doomed instruction: the trap is the handler.
                def handler(msg=div_message):
                    raise _Trap(msg)
            else:
                is_div = op == "divi"

                def handler(R=R, rd=rd, ra=ra, d=imm, npc=npc, dyn=dyn,
                            dh=define_hook, is_div=is_div, B=_BIAS, Mk=_MASK,
                            cyc=cyc, ex=extra):
                    cyc[0] += ex
                    numerator = R[ra]
                    quotient = abs(numerator) // abs(d)
                    if (numerator < 0) != (d < 0):
                        quotient = -quotient
                    if is_div:
                        value = ((quotient + B) & Mk) - B
                    else:
                        value = ((numerator - quotient * d + B) & Mk) - B
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc

        elif op in ("slli", "srli", "srai"):
            wants_define_wrap = True
            define_hook = None if rd == 0 else dh
            shift = imm & 63
            if op == "slli":
                def handler(R=R, rd=rd, ra=ra, s=shift, npc=npc, dyn=dyn,
                            dh=define_hook, B=_BIAS, Mk=_MASK):
                    value = (((R[ra] << s) + B) & Mk) - B
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc
            elif op == "srli":
                def handler(R=R, rd=rd, ra=ra, s=shift, npc=npc, dyn=dyn,
                            dh=define_hook, B=_BIAS, Mk=_MASK):
                    value = ((((R[ra] & Mk) >> s) + B) & Mk) - B
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc
            else:
                def handler(R=R, rd=rd, ra=ra, s=shift, npc=npc, dyn=dyn,
                            dh=define_hook, B=_BIAS, Mk=_MASK):
                    value = (((R[ra] >> s) + B) & Mk) - B
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc

        elif op in ("sll", "srl", "sra"):
            wants_define_wrap = True
            define_hook = None if rd == 0 else dh
            if op == "sll":
                def handler(R=R, rd=rd, ra=ra, rb=rb, npc=npc, dyn=dyn,
                            dh=define_hook, B=_BIAS, Mk=_MASK):
                    value = (((R[ra] << (R[rb] & 63)) + B) & Mk) - B
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc
            elif op == "srl":
                def handler(R=R, rd=rd, ra=ra, rb=rb, npc=npc, dyn=dyn,
                            dh=define_hook, B=_BIAS, Mk=_MASK):
                    value = ((((R[ra] & Mk) >> (R[rb] & 63)) + B) & Mk) - B
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc
            else:
                def handler(R=R, rd=rd, ra=ra, rb=rb, npc=npc, dyn=dyn,
                            dh=define_hook, B=_BIAS, Mk=_MASK):
                    value = (((R[ra] >> (R[rb] & 63)) + B) & Mk) - B
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc

        elif op in ("slt", "seq", "sne"):
            wants_define_wrap = True
            define_hook = None if rd == 0 else dh
            if op == "slt":
                def handler(R=R, rd=rd, ra=ra, rb=rb, npc=npc, dyn=dyn, dh=define_hook):
                    value = 1 if R[ra] < R[rb] else 0
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc
            elif op == "seq":
                def handler(R=R, rd=rd, ra=ra, rb=rb, npc=npc, dyn=dyn, dh=define_hook):
                    value = 1 if R[ra] == R[rb] else 0
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc
            else:
                def handler(R=R, rd=rd, ra=ra, rb=rb, npc=npc, dyn=dyn, dh=define_hook):
                    value = 1 if R[ra] != R[rb] else 0
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc

        elif op in ("slti", "seqi", "snei"):
            wants_define_wrap = True
            define_hook = None if rd == 0 else dh
            if op == "slti":
                def handler(R=R, rd=rd, ra=ra, imm=imm, npc=npc, dyn=dyn, dh=define_hook):
                    value = 1 if R[ra] < imm else 0
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc
            elif op == "seqi":
                def handler(R=R, rd=rd, ra=ra, imm=imm, npc=npc, dyn=dyn, dh=define_hook):
                    value = 1 if R[ra] == imm else 0
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc
            else:
                def handler(R=R, rd=rd, ra=ra, imm=imm, npc=npc, dyn=dyn, dh=define_hook):
                    value = 1 if R[ra] != imm else 0
                    R[rd] = value
                    dyn[3] += 1
                    if dh is not None:
                        dh(value)
                    return npc

        elif op == "in":
            wants_define_wrap = True
            define_hook = None if rd == 0 else dh
            input_state = self._input_state

            def handler(ist=input_state, R=R, rd=rd, npc=npc, dyn=dyn, dh=define_hook):
                pos = ist[1]
                values = ist[0]
                if pos < len(values):
                    value = values[pos]
                    ist[1] = pos + 1
                else:
                    value = 0
                R[rd] = value
                dyn[3] += 1
                if dh is not None:
                    dh(value)
                return npc

        # -- non-defining instructions --------------------------------

        elif op in ("beq", "bne", "blt", "bge", "ble", "bgt"):
            target = inst.target
            if 0 <= target < code_size:
                if op == "beq":
                    def handler(R=R, ra=ra, rb=rb, t=target, npc=npc):
                        return t if R[ra] == R[rb] else npc
                elif op == "bne":
                    def handler(R=R, ra=ra, rb=rb, t=target, npc=npc):
                        return t if R[ra] != R[rb] else npc
                elif op == "blt":
                    def handler(R=R, ra=ra, rb=rb, t=target, npc=npc):
                        return t if R[ra] < R[rb] else npc
                elif op == "bge":
                    def handler(R=R, ra=ra, rb=rb, t=target, npc=npc):
                        return t if R[ra] >= R[rb] else npc
                elif op == "ble":
                    def handler(R=R, ra=ra, rb=rb, t=target, npc=npc):
                        return t if R[ra] <= R[rb] else npc
                else:
                    def handler(R=R, ra=ra, rb=rb, t=target, npc=npc):
                        return t if R[ra] > R[rb] else npc
            else:
                # Statically out-of-range target: taking the branch must
                # surface as the reference loop's pc-bounds error.
                taken = _bad_target(target)
                if op == "beq":
                    def handler(R=R, ra=ra, rb=rb, taken=taken, npc=npc):
                        return taken() if R[ra] == R[rb] else npc
                elif op == "bne":
                    def handler(R=R, ra=ra, rb=rb, taken=taken, npc=npc):
                        return taken() if R[ra] != R[rb] else npc
                elif op == "blt":
                    def handler(R=R, ra=ra, rb=rb, taken=taken, npc=npc):
                        return taken() if R[ra] < R[rb] else npc
                elif op == "bge":
                    def handler(R=R, ra=ra, rb=rb, taken=taken, npc=npc):
                        return taken() if R[ra] >= R[rb] else npc
                elif op == "ble":
                    def handler(R=R, ra=ra, rb=rb, taken=taken, npc=npc):
                        return taken() if R[ra] <= R[rb] else npc
                else:
                    def handler(R=R, ra=ra, rb=rb, taken=taken, npc=npc):
                        return taken() if R[ra] > R[rb] else npc

        elif op == "j":
            target = inst.target
            if 0 <= target < code_size:
                def handler(t=target):
                    return t
            else:
                handler = _bad_target(target)

        elif op == "jal":
            target = inst.target
            procedure = machine._procedures_by_entry.get(target)
            target_ok = 0 <= target < code_size
            if procedure is None:
                if target_ok:
                    def handler(R=R, npc=npc, t=target, LINK=REG_LINK):
                        R[LINK] = npc
                        return t
                else:
                    def handler(R=R, npc=npc, t=target, LINK=REG_LINK):
                        R[LINK] = npc
                        raise _BadPC(t)
            else:
                call_hook = _call_hook(machine.observer, procedure, pc)
                arg_regs = REG_ARGS[: procedure.nargs]

                def handler(R=R, npc=npc, t=target, LINK=REG_LINK, dyn=dyn,
                            pcalls=machine.procedure_calls, pname=procedure.name,
                            ch=call_hook, arg_regs=arg_regs, ok=target_ok):
                    R[LINK] = npc
                    dyn[2] += 1
                    pcalls[pname] = pcalls.get(pname, 0) + 1
                    if ch is not None:
                        ch(tuple([R[i] for i in arg_regs]))
                    if ok:
                        return t
                    raise _BadPC(t)

        elif op == "jalr":

            def handler(R=R, rd=rd, ra=ra, npc=npc, dyn=dyn, cs=code_size,
                        by_entry=machine._procedures_by_entry,
                        pcalls=machine.procedure_calls,
                        bind_call=_call_hook, observer=machine.observer,
                        pc=pc, cache={}, ARGS=REG_ARGS):
                # The reference writes the link before reading the target,
                # so ``jalr rX, rX`` jumps to pc+1 — replicated verbatim.
                R[rd] = npc
                target = R[ra]
                procedure = by_entry.get(target)
                if procedure is not None:
                    dyn[2] += 1
                    pname = procedure.name
                    pcalls[pname] = pcalls.get(pname, 0) + 1
                    bound = cache.get(target)
                    if bound is None:
                        bound = (
                            bind_call(observer, procedure, pc),
                            ARGS[: procedure.nargs],
                        )
                        cache[target] = bound
                    hook, arg_regs = bound
                    if hook is not None:
                        hook(tuple([R[i] for i in arg_regs]))
                if 0 <= target < cs:
                    return target
                raise _BadPC(target)

        elif op == "jr":
            return_hook = None
            if rd == REG_LINK and machine.observer is not None:
                returning = machine._procedure_by_pc[pc]
                if returning is not None:
                    return_hook = self._bind_return_hook(returning)
            if return_hook is None:
                def handler(R=R, rd=rd, cs=code_size):
                    target = R[rd]
                    if 0 <= target < cs:
                        return target
                    raise _BadPC(target)
            else:
                def handler(R=R, rd=rd, cs=code_size, rh=return_hook, RET=REG_RETURN):
                    target = R[rd]
                    rh(R[RET])
                    if 0 <= target < cs:
                        return target
                    raise _BadPC(target)

        elif op == "out":

            def handler(R=R, rd=rd, npc=npc, append=machine.output.append):
                append(R[rd])
                return npc

        elif op == "nop":

            def handler(npc=npc):
                return npc

        elif op == "halt":

            def handler():
                raise _Halt()

        else:  # pragma: no cover - assembler rejects unknown opcodes
            raise MachineError(f"{name}: unimplemented opcode {op!r}")

        if wants_define_wrap and rd == 0:
            # r0 is hardwired to zero: the reference loop writes the
            # result, then clears r0 and reports 0 to on_define.  The
            # inner handler above was built with its define hook
            # suppressed; this wrapper restores the zero and fires the
            # hook with the architecturally visible value.
            inner = handler

            def handler(inner=inner, R=R, dh=dh):
                next_pc = inner()
                R[0] = 0
                if dh is not None:
                    dh(0)
                return next_pc

        if extra and op not in _SURCHARGED:
            # Future-proofing: should any other opcode's cost in
            # CYCLE_COSTS stop being 1, it still gets charged — just
            # through a generic wrapper instead of a hand-inlined add.
            charged = handler

            def handler(inner=charged, cyc=cyc, ex=extra):
                cyc[0] += ex
                return inner()

        return handler


def _call_hook(observer, procedure, call_pc):
    """The call hook ``observer`` wants at one call edge, or ``None``.

    A plain function, so a handler that binds call hooks lazily
    (``jalr``) holds the observer it was decoded against, not the engine.
    """
    if observer is None:
        return None
    bind_call = getattr(observer, "bind_call", None)
    if bind_call is not None:
        return bind_call(procedure, call_pc)

    def call_hook(args, _cb=observer.on_call, _proc=procedure, _pc=call_pc):
        _cb(_proc, args, _pc)

    return call_hook


def _bad_target(target: int) -> Callable[[], int]:
    """Handler tail for a statically out-of-range jump target."""

    def raise_bad(t=target):
        raise _BadPC(t)

    return raise_bad
