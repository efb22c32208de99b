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
decode time.  :class:`_Emitter` renders each static instruction from
the opcode table (:data:`repro.isa.instructions.OPCODES`) into one
handler function, with its operand register indices, immediate, next
pc, jump target, prebuilt trap message and observer hooks bound as
default arguments.  A handler's source depends only on the
instruction's *shape* — its opcode, whether it writes ``r0``, which
observer hooks it calls and whether a static target is in range — so
one compiled code object serves every pc of that shape.  The calls
(``jal``, ``jalr``, ``jr``) keep hand-written handlers: binding call
and return hooks is not value semantics.  Execution is then
direct-threaded code::

    for executed in range(executed, max_instructions):
        pc = handlers[pc]()

with no mnemonic comparison, no ``inst.`` loads and no dead observer
calls on the hot path (a hook an observer declines at decode time is
not called at all, and an :class:`~repro.isa.machine.AppendSink` hook
is rendered as its bound appends, so its events run no Python frame).
The ``range`` iterator carries both the instruction counter and the
budget check in C; cycle accounting is a flat cycle per iteration plus
surcharges the multi-cycle handlers (loads, stores, mul/div) bank on
the side, so neither bookkeeping line appears in the loop.

The tier-2 engine (:mod:`repro.isa.tier2`) renders whole traces through
a subclass of the same emitter.  Semantics are bit-identical to the
reference loop — same results, same profiles, same trap messages, same
counter values on every exit path — and enforced by the differential
test suite (``tests/isa/test_engine_differential.py``).
"""

from __future__ import annotations

import builtins
import time
import weakref
from types import CodeType, FunctionType
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import MachineError
from repro.isa import machine as _machine_module
from repro.isa.instructions import (
    OPCODES,
    REG_ARGS,
    REG_LINK,
    REG_RETURN,
    SIGN_BIT,
    WORD_MASK,
    InsnClass,
    cycle_cost,
    evaluate,
)
from repro.isa.machine import AppendSink, CallSink
from repro.obs.metrics import METRICS as _METRICS
from repro.obs.timeseries import TIMESERIES as _TIMESERIES


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


#: compiled handler and superinstruction bodies, keyed by exact source
#: text.  The source embeds everything semantic (opcodes, constants,
#: thresholds); per-machine and per-pc objects are bound as default
#: arguments, so the cache is safe across Machine instances and saves
#: the dominant ``compile()`` cost on repeated runs of a program.
_CODE_CACHE: Dict[str, CodeType] = {}
_CODE_CACHE_CAP = 4096

#: handler shape -> (source, filename, binder); see _Emitter.handler_for.
_SHAPES: Dict[tuple, tuple] = {}

#: every per-pc parameter a handler may bind, as the source of its value
#: for one instruction ``inst`` with observer ``hooks`` on ``machine``;
#: any other parameter is one of the engine's shared objects.
_PER_PC = {
    "ra": "inst.ra", "rb": "inst.rb", "rd": "inst.rd", "imm": "_immediate(inst)",
    "npc": "inst.pc + 1", "t": "inst.target", "mw": "machine.memory_words",
    # an instruction that reads no register computes a constant
    "value": "evaluate(inst.opcode, _immediate(inst))",
    "m0": "_trap_message(machine.program.name, inst)",
}
# The define, load and store hooks (tags d, l, s): a callable ``h``, or
# an append sink's value append ``v``, id append ``i`` and site id ``s``.
for _index, _tag in enumerate("dls"):
    _PER_PC[f"h{_tag}0"] = f"hooks[{_index}]"
    for _part, _field in (("v", "vals"), ("i", "ids"), ("s", "sid")):
        _PER_PC[f"{_part}{_tag}0"] = f"hooks[{_index}].{_field}"

#: globals of every rendered function; all else it names is an argument.
_GLOBALS = {"__builtins__": builtins}

#: constants generated code binds by name (see ThreadedEngine._shared).
_CONSTANTS = {"B": SIGN_BIT, "Mk": WORD_MASK, "_T": _Trap, "_Halt": _Halt,
              "_BadPC": _BadPC, "str": str, "abs": abs, "len": len}

#: opcodes with hand-written handlers: binding call and return hooks
#: is not value semantics, so the table does not render them.
_CALLS = ("jal", "jalr", "jr")


def _compiled(src: str, filename: str) -> Tuple[CodeType, bool]:
    """The code of the function ``src`` defines, and whether it was
    already in the cache."""
    code = _CODE_CACHE.get(src)
    if code is not None:
        return code, True
    if len(_CODE_CACHE) >= _CODE_CACHE_CAP:
        _CODE_CACHE.clear()
    module = compile(src, filename, "exec")
    code = _CODE_CACHE[src] = next(c for c in module.co_consts if isinstance(c, CodeType))
    return code, False


def _bind(observer, name: str, *args):
    """The hook ``observer.<name>(*args)`` binds, for one ``bind_*`` name.

    ``None`` without an observer.  An observer without the method (a
    duck-typed one) gets :class:`~repro.isa.machine.MachineObserver`'s
    default, which wraps its ``on_*`` method, so the event stream is the
    same either way.
    """
    if observer is None:
        return None
    bind = getattr(observer, name, None)
    if bind is None:
        return getattr(_machine_module.MachineObserver, name)(observer, *args)
    return bind(*args)


class ThreadedEngine:
    """Direct-threaded executor bound to one :class:`Machine`.

    Decoding happens lazily on the first :meth:`run` and is redone when
    the machine's observer changes (hooks are bound into the handlers).
    The machine's registers, memory, output list and procedure-call
    dict are captured by identity, so all externally visible state
    stays on the machine object exactly as with the reference engine.

    **Tier hooks.**  This class is also the substrate the tier-2
    specializer (:class:`repro.isa.tier2.Tier2Engine`) quickens on top
    of.  The contract a subclass may rely on:

    * :meth:`_decode` is the quicken point — after it returns,
      ``self._handlers[pc]`` is the complete per-pc handler table, and
      each handler returns the next pc.  A tier may call any handler
      directly (the deopt path) or replace its own dispatch table
      entries with multi-instruction superinstructions.
    * :meth:`_dispatch` is the run loop between :meth:`run`'s shared
      prologue and epilogue; it reports where the run stopped.
    * ``_dyn``, ``_extra_cycles`` and ``_input_state`` are the shared
      accounting cells the handlers mutate; generated code that
      bypasses handlers must keep them exact, and :meth:`_sync` writes
      them (plus pc/instruction counts) back to the machine on every
      exit path.
    * ``_Halt``/``_Trap``/``_BadPC`` are the control-flow exceptions a
      driver must translate into machine state; trap messages are part
      of the bit-identity contract.
    """

    #: engine name in the ``machine.engine.<name>_runs`` metric.
    name = "threaded"

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
        #: what generated code binds by name, the same at every pc: the
        #: machine's registers, memory and output, the cells above, and
        #: constants.  Set at decode.
        self._shared: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def run(self, max_instructions: int):
        """Execute until ``halt``/trap/budget; mirrors ``Machine.run``.

        Loads the shared cells from the machine, lets :meth:`_dispatch`
        run the program (a halted machine runs nothing and returns its
        finished result), and writes the state back on every exit path.
        Cycles are one per retired instruction plus the surcharges the
        multi-cycle handlers banked in ``_extra_cycles``; as in the
        reference loop, a failed run's cycles are not written back.
        """
        machine = self._machine
        if self._handlers is None or machine.observer is not self._bound_observer:
            self._decode()
        self._dyn[:] = [machine.dynamic_loads, machine.dynamic_stores,
                        machine.dynamic_calls, machine.dynamic_defines]
        self._input_state[:] = [machine._input, machine._input_pos]
        self._extra_cycles[0] = 0
        pc = machine.pc
        executed = executed_at_entry = machine.instructions_executed
        started = time.perf_counter() if _METRICS.enabled else 0.0
        error = None
        if not machine.halted:
            if 0 <= pc < len(self._handlers) or executed >= max_instructions:
                pc, executed, error = self._dispatch(pc, executed, max_instructions)
            else:
                # A run that starts outside the code segment (a machine
                # run again after a bad jump) stops before its first
                # instruction, as the reference loop does; a negative pc
                # would otherwise index the handler table from its end.
                error = f"{machine.program.name}: pc {pc} outside code segment"
        self._sync(pc, executed)
        if error is not None:
            machine._flush_observer()
            raise MachineError(error)
        retired = executed - executed_at_entry
        cycles = machine.cycles + retired + self._extra_cycles[0]
        machine.cycles = cycles
        if _METRICS.enabled:
            self._count_run(retired, time.perf_counter() - started)
        _TIMESERIES.advance(retired)
        machine._flush_observer()
        return machine._make_result(executed, cycles)

    def _dispatch(self, pc: int, executed: int, max_instructions: int):
        """Run the handler loop; ``(pc, executed, error)`` where it stopped.

        ``error`` is the ``MachineError`` message, or ``None`` after a
        halt.  The instruction counter rides the ``for``-loop's
        ``range`` iterator (incremented in C), and budget exhaustion is
        simply range exhaustion.  Because the loop variable is assigned
        *before* the handler runs, each exceptional exit adjusts
        ``executed`` to land on the same value the reference loop
        reports: traps, halts and computed bad jumps count their
        instruction (+1); falling off the code segment does not (the
        handler never ran).

        An observer that overrides :meth:`MachineObserver.poll` gets the
        same loop cut into slices of ``POLL_INSTRUCTIONS`` iterations
        with a poll after each; any other run is one slice.  Each
        slice's ``range`` picks up where the last one stopped, so every
        exit lands where it would have.
        """
        machine = self._machine
        handlers = self._handlers
        pc_counts = machine.pc_counts
        poll = _machine_module.observer_poll(machine.observer)
        # Without a poll the whole budget is one slice.
        interval = max_instructions if poll is None else _machine_module.POLL_INSTRUCTIONS
        try:
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
            # Range exhausted: the budget ran out.  The reference loop
            # notices at the top of the next iteration, with the counter
            # unchanged.
            return pc, max(executed, max_instructions), self._budget_error(max_instructions)
        except _Halt:
            machine.halted = True
            return pc + 1, executed + 1, None
        except _Trap as trap:
            return pc, executed + 1, trap.message
        except _BadPC as bad:
            return bad.pc, executed + 1, self._bad_pc_error(bad.pc, executed + 1, max_instructions)
        except IndexError:
            # ``handlers[pc]`` raised: execution fell off the end of the
            # code segment (sequential flow only ever reaches
            # pc == code_size; every jump is bounds-checked in its
            # handler).  The instruction never ran, so the counter is
            # not advanced — exactly the reference, which raises before
            # incrementing.
            if 0 <= pc < len(handlers):  # pragma: no cover - genuine handler bug
                raise
            return pc, executed, f"{machine.program.name}: pc {pc} outside code segment"

    def _budget_error(self, max_instructions: int) -> str:
        return (f"{self._machine.program.name}: instruction budget exceeded "
                f"({max_instructions}); infinite loop?")

    def _bad_pc_error(self, pc: int, executed: int, max_instructions: int) -> str:
        # A computed jump left the code segment.  The reference loop
        # notices at the *top* of the next iteration, after the budget
        # check — replicate that ordering exactly.
        if executed >= max_instructions:
            return self._budget_error(max_instructions)
        return f"{self._machine.program.name}: pc {pc} outside code segment"

    def _count_run(self, retired: int, elapsed: float) -> None:
        machine = self._machine
        _METRICS.inc("machine.runs")
        _METRICS.inc(f"machine.engine.{self.name}_runs")
        _METRICS.inc("machine.instructions", retired)
        _METRICS.inc("machine.loads", machine.dynamic_loads)
        _METRICS.inc("machine.stores", machine.dynamic_stores)
        _METRICS.inc("machine.calls", machine.dynamic_calls)
        _METRICS.inc("machine.defines", machine.dynamic_defines)
        _METRICS.observe("machine.run", elapsed)

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
        self._shared = {
            "R": machine.registers, "M": machine.memory,
            "outp": machine.output.append, "dyn": self._dyn,
            "cyc": self._extra_cycles, "ist": self._input_state, **_CONSTANTS,
        }
        instructions = machine.program.instructions
        #: per pc, the (define, load, store) hooks the observer binds;
        #: bound once per decode, so every rendering of a pc shares them.
        self._hooks = [
            (
                _bind(observer, "bind_define", inst),
                _bind(observer, "bind_load", inst),
                _bind(observer, "bind_store", inst),
            )
            for inst in instructions
        ]
        self._handlers = [self._decode_one(inst) for inst in instructions]
        self._bound_observer = observer

    def _decode_one(self, inst) -> Callable[[], int]:
        """The handler of one static instruction.

        Handlers return the next pc; control-flow anomalies travel as
        the internal exceptions above.  Every handler binds its operands
        as default arguments — the CPython idiom for turning globals and
        attribute loads into ``LOAD_FAST``.  Calls and returns are
        written out here; every other opcode is rendered from the table
        (:meth:`_Emitter.handler_for`).
        """
        op = inst.opcode
        if op not in _CALLS:
            return _Emitter.handler_for(self, inst)
        machine = self._machine
        R = machine.registers
        dyn = self._dyn
        pc = inst.pc
        npc = pc + 1
        code_size = len(machine.program.instructions)

        if op == "jal":
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
                return handler
            call_hook = _bind(machine.observer, "bind_call", procedure, pc)
            arg_regs = REG_ARGS[: procedure.nargs]
            if type(call_hook) is CallSink:
                def handler(R=R, npc=npc, t=target, LINK=REG_LINK, dyn=dyn,
                            pcalls=machine.procedure_calls, pname=procedure.name,
                            sink=call_hook, get=R.__getitem__, arg_regs=arg_regs,
                            ok=target_ok):
                    R[LINK] = npc
                    dyn[2] += 1
                    pcalls[pname] = pcalls.get(pname, 0) + 1
                    sink.ids(sink.sids)
                    sink.vals(map(get, arg_regs))
                    sink.pcs(sink.call_pcs)
                    if ok:
                        return t
                    raise _BadPC(t)

                return handler

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

            return handler

        if op == "jalr":
            # ``jalr r0, ra`` discards its link: bound here to a
            # throwaway cell rather than tested on every call.
            link = R if inst.rd else [0]

            def handler(R=R, L=link, rd=inst.rd, ra=inst.ra, npc=npc, dyn=dyn,
                        cs=code_size, by_entry=machine._procedures_by_entry,
                        pcalls=machine.procedure_calls,
                        bind=_bind, observer=machine.observer,
                        pc=pc, cache={}, ARGS=REG_ARGS, get=R.__getitem__,
                        Sink=CallSink):
                # The reference writes the link before reading the target,
                # so ``jalr rX, rX`` jumps to pc+1 — replicated verbatim.
                L[rd] = npc
                target = R[ra]
                procedure = by_entry.get(target)
                if procedure is not None:
                    dyn[2] += 1
                    pname = procedure.name
                    pcalls[pname] = pcalls.get(pname, 0) + 1
                    bound = cache.get(target)
                    if bound is None:
                        bound = (
                            bind(observer, "bind_call", procedure, pc),
                            ARGS[: procedure.nargs],
                        )
                        cache[target] = bound
                    hook, arg_regs = bound
                    if type(hook) is Sink:
                        hook.ids(hook.sids)
                        hook.vals(map(get, arg_regs))
                        hook.pcs(hook.call_pcs)
                    elif hook is not None:
                        hook(tuple([R[i] for i in arg_regs]))
                if 0 <= target < cs:
                    return target
                raise _BadPC(target)

            return handler

        # jr
        return_hook = None
        if inst.rd == REG_LINK and machine.observer is not None:
            returning = machine._procedure_by_pc[pc]
            if returning is not None:
                return_hook = _bind(machine.observer, "bind_return", returning)
        if type(return_hook) is AppendSink:
            if return_hook.ids is not None:
                def handler(R=R, rd=inst.rd, cs=code_size, ri=return_hook.ids,
                            sid=return_hook.sid, rv=return_hook.vals, RET=REG_RETURN):
                    target = R[rd]
                    ri(sid)
                    rv(R[RET])
                    if 0 <= target < cs:
                        return target
                    raise _BadPC(target)

                return handler
            return_hook = return_hook.vals
        if return_hook is None:
            def handler(R=R, rd=inst.rd, cs=code_size):
                target = R[rd]
                if 0 <= target < cs:
                    return target
                raise _BadPC(target)
        else:
            def handler(R=R, rd=inst.rd, cs=code_size, rh=return_hook, RET=REG_RETURN):
                target = R[rd]
                rh(R[RET])
                if 0 <= target < cs:
                    return target
                raise _BadPC(target)
        return handler


def _hook_form(hook):
    """How :meth:`_Emitter.emit_hook` renders ``hook``: not at all, as a
    call, or as an append sink with or without an id append and a
    constant site id."""
    if hook is None:
        return None
    if type(hook) is AppendSink:
        return ("sink", hook.ids is None, hook.sid is None)
    return "call"


def _immediate(inst) -> int:
    """``inst``'s immediate as the opcode uses it: a shift amount's low
    six bits, any other immediate whole."""
    return inst.imm & 63 if inst.info.insn_class is InsnClass.SHIFT else inst.imm


def _trap_message(program: str, inst) -> Optional[str]:
    """The message of the trap ``inst`` can raise, or ``None``.

    A load's or store's message ends where the address goes.
    """
    info = inst.info
    if info.divides:
        return (f"{program}: division by zero at pc {inst.pc} "
                f"({inst.render()}, line {inst.line})")
    if info.is_load or info.is_store:
        kind = "load" if info.is_load else "store"
        return f"{program}: {kind} out of range at pc {inst.pc}: address "
    return None


def _local_or_expr(source: str):
    """("temp", name) for a bare local, else ("expr", source)."""
    return ("temp", source) if source.isidentifier() else ("expr", source)


class _Emitter:
    """Renders instructions from the opcode table as Python source.

    This base renders threaded handlers (:meth:`handler_for`): a
    one-instruction body whose operands are parameters.  Register
    indices, the immediate, the next pc, a jump target, the trap message
    and the observer hooks bind per pc as default arguments, so the
    source depends only on the instruction's shape and compiles once
    per shape.  :class:`repro.isa.tier2._Codegen` renders whole traces
    through the same per-opcode methods, with operands inlined as
    constants and locals.

    An operand is a ``(const, expr)`` pair: its value when known at
    render time (else ``None``) and the source that reads it.
    ``pending`` counts the loads, stores and defines not yet added to
    the shared ``dyn`` cell; ``folds`` and ``substs`` count constant
    folds and constant operand reads, which tier-2's benefit model
    weighs.
    """

    #: fold the table's algebraic identities (``x + 0``, ``x * 2**k``)
    #: of operands known at render time.  Off for handlers, whose source
    #: must not depend on an immediate's value.
    folding = False

    def __init__(self, engine: ThreadedEngine) -> None:
        self.engine = engine
        self.machine = engine._machine
        self.lines: List[str] = []
        self.args: Dict[str, object] = {}
        self.consts: Dict[int, int] = {}
        self.loc: Dict[int, str] = {}
        self.pending = [0, 0, 0]  # loads, stores, defines
        self.folds = 0
        self.substs = 0
        self.dead = False
        self.ntmp = 0
        self.ind = ""

    # -- operands: parameters here, constants and locals in a trace ------

    def lit(self, value: int, name: str) -> str:
        """Source for ``value``, known at render time: parameter ``name``."""
        self.args[name] = value
        return name

    def reg(self, inst, field: str) -> Tuple[Optional[int], str]:
        """The operand that reads register ``field`` of ``inst``."""
        self.ensure("R")
        self.args[field] = getattr(inst, field)
        return None, f"R[{field}]"

    def regname(self, inst, field: str) -> str:
        """Source for the index of register ``field`` of ``inst``."""
        self.args[field] = getattr(inst, field)
        return field

    def operands(self, inst) -> List[Tuple[Optional[int], str]]:
        """The ``{a}``, ``{b}`` operands of ``inst``'s value template."""
        info = inst.info
        ops = [self.reg(inst, field) for field in info.reads]
        if info.has_immediate:
            imm = _immediate(inst)
            ops.append((imm, self.lit(imm, "imm")))
        elif info.insn_class is InsnClass.SHIFT:
            bc, bx = ops[1]
            ops[1] = (None, f"({bx} & 63)") if bc is None else (bc & 63, self.lit(bc & 63, "imm"))
        return ops

    # -- small helpers --------------------------------------------------

    def ensure(self, name: str) -> None:
        """Bind ``name`` to the engine's shared object of that name."""
        if name not in self.args:
            self.args[name] = self.engine._shared[name]

    def emit(self, line: str) -> None:
        self.lines.append("    " + self.ind + line)

    def newtmp(self, prefix: str = "t") -> str:
        self.ntmp += 1
        return f"{prefix}{self.ntmp}"

    def render(self, template: str, a: str = "", b: str = "", q: str = "") -> str:
        """A table template over operand sources; binds ``B``/``Mk`` if used."""
        if "Mk" in template:
            self.ensure("B")
            self.ensure("Mk")
        return template.format(a=a, b=b, q=q)

    def set_reg(self, inst, expr: str, is_temp: bool = False) -> str:
        self.ensure("R")
        if is_temp:
            t = expr
        else:
            t = self.newtmp()
            self.emit(f"{t} = {expr}")
        self.consts.pop(inst.rd, None)
        self.loc[inst.rd] = t
        self.emit(f"R[{self.regname(inst, 'rd')}] = {t}")
        return t

    def set_reg_const(self, inst, value: int) -> str:
        self.ensure("R")
        self.loc.pop(inst.rd, None)
        self.consts[inst.rd] = value
        source = self.lit(value, "value")
        self.emit(f"R[{self.regname(inst, 'rd')}] = {source}")
        return source

    # -- exits ----------------------------------------------------------

    def flush_lines(self, cycles: int = 0) -> List[str]:
        """Statements adding the pending counts, and a surcharge of
        ``cycles``, to the shared cells."""
        out = []
        for index, count in zip((0, 1, 3), self.pending):
            if count:
                self.ensure("dyn")
                out.append(f"dyn[{index}] += {count}")
        if cycles:
            self.ensure("cyc")
            out.append(f"cyc[0] += {cycles}")
        return out

    def uncounted(self, j: int) -> List[str]:
        """Statements recording what a trap at body position ``j`` left
        unexecuted; a handler's one instruction has no tail."""
        return []

    def trap_lines(self, j: int, raise_line: str) -> List[str]:
        """Statements for a trap: flush the pending counts, raise."""
        self.ensure("_T")
        return self.flush_lines() + self.uncounted(j) + [raise_line]

    def emit_trap_branch(self, j: int, cond: str, raise_line: str) -> None:
        self.emit(f"if {cond}:")
        for line in self.trap_lines(j, raise_line):
            self.emit("    " + line)

    def emit_unconditional_trap(self, j: int, raise_line: str) -> None:
        for line in self.trap_lines(j, raise_line):
            self.emit(line)
        self.dead = True

    def emit_hook(self, j: int, hook, tag: str, value: str,
                  address: Optional[str] = None) -> None:
        """Call a bound observer hook with the event's ``value`` (after
        its ``address``, for loads and stores), or render an
        :class:`~repro.isa.machine.AppendSink`'s appends inline; nothing
        if the observer declined."""
        if hook is None:
            return
        if type(hook) is not AppendSink:
            name = f"h{tag}{j}"
            self.args[name] = hook
            self.emit(f"{name}({value})" if address is None else f"{name}({address}, {value})")
            return
        if hook.ids is not None:
            ids = f"i{tag}{j}"
            self.args[ids] = hook.ids
            if hook.sid is None:
                self.emit(f"{ids}({address})")
            else:
                sid = f"s{tag}{j}"
                self.args[sid] = hook.sid
                self.emit(f"{ids}({sid})")
        vals = f"v{tag}{j}"
        self.args[vals] = hook.vals
        self.emit(f"{vals}({value})")

    def finish_define(self, j: int, inst, kind: str, val, dh) -> None:
        """Common tail of a defining instruction: register write, dyn
        count, define hook — with the r0 hardwired-zero rule."""
        if inst.rd == 0:
            hv = "0"
        elif kind == "const":
            hv = self.set_reg_const(inst, val)
        else:
            hv = self.set_reg(inst, val, is_temp=(kind == "temp"))
        self.pending[2] += 1
        self.emit_hook(j, dh, "d", hv)

    # -- per-opcode emitters --------------------------------------------

    def value(self, inst):
        """(kind, value) for a pure value-producing instruction.

        kind is "const" (value: int), "expr" (value: expression source)
        or "temp" (value: an existing local's name).  Pure means no side
        effects — safe to skip entirely when rd is r0.
        """
        info = inst.info
        ops = self.operands(inst)
        if all(c is not None for c, _ in ops):
            if info.insn_class is not InsnClass.MOVE:
                self.folds += 1
            return "const", evaluate(inst.opcode, *(c for c, _ in ops))
        if self.folding and len(ops) == 2:
            folded = self.fold_identity(inst, *ops)
            if folded is not None:
                self.folds += 1
                return folded
        return _local_or_expr(self.render(info.value, *(x for _, x in ops)))

    def fold_identity(self, inst, a, b):
        """(kind, value) of an algebraic identity with one operand known,
        or ``None``.  Sound because register values are always canonical
        signed-64 (every write wraps)."""
        info = inst.info
        (ac, ax), (bc, bx) = a, b
        for known, other in ((bc, ax), (ac if info.commutes else None, bx)):
            if known is not None:
                if known == info.identity:
                    return _local_or_expr(other)
                if known == info.absorbing:
                    return "const", known
        if inst.opcode in ("mul", "muli") and bc is not None and bc > 1 and bc & (bc - 1) == 0:
            return "expr", self.render(OPCODES["sll"].value, ax, str(bc.bit_length() - 1))
        return None

    def address(self, j: int, inst) -> Optional[str]:
        """Source for a load or store's address, after its range check;
        ``None`` when a known address is out of range (the trap is then
        emitted)."""
        self.ensure("M")
        memory_words = self.machine.memory_words
        message = _trap_message(self.machine.program.name, inst)
        m = f"m{j}"
        ac, ax = self.reg(inst, "ra")
        if ac is not None:
            addr = ac + inst.imm
            if not 0 <= addr < memory_words:
                self.args[m] = message + str(addr)
                self.emit_unconditional_trap(j, f"raise _T({m})")
                return None
            self.folds += 1
            return str(addr)
        at = self.newtmp("a")
        ix = self.lit(inst.imm, "imm")
        self.emit(f"{at} = {ax} + {ix}" if ix != "0" else f"{at} = {ax}")
        self.args[m] = message
        self.ensure("str")
        self.emit_trap_branch(j, f"not 0 <= {at} < {self.lit(memory_words, 'mw')}",
                              f"raise _T({m} + str({at}))")
        return at

    def emit_ld(self, j: int, inst, dh, lh) -> None:
        aexpr = self.address(j, inst)
        if aexpr is None:
            return
        vt = self.newtmp()
        self.emit(f"{vt} = M[{aexpr}]")
        if inst.rd != 0:
            self.set_reg(inst, vt, is_temp=True)
        self.pending[0] += 1
        self.emit_hook(j, lh, "l", vt, aexpr)
        self.pending[2] += 1
        self.emit_hook(j, dh, "d", vt if inst.rd != 0 else "0")

    def emit_st(self, j: int, inst, sh) -> None:
        vc, vx = self.reg(inst, "rd")
        aexpr = self.address(j, inst)
        if aexpr is None:
            return
        if vc is None and not vx.isidentifier():
            vt = self.newtmp()
            self.emit(f"{vt} = {vx}")
            vx = vt
        self.emit(f"M[{aexpr}] = {vx}")
        self.pending[1] += 1
        self.emit_hook(j, sh, "s", vx, aexpr)

    def emit_div(self, j: int, inst, dh) -> None:
        (nc, nx), (dc, dx) = self.operands(inst)
        m = f"m{j}"
        message = _trap_message(self.machine.program.name, inst)
        if dc == 0:
            self.args[m] = message
            self.emit_unconditional_trap(j, f"raise _T({m})")
            return
        if dc is None:
            dt = self.newtmp("d")
            self.emit(f"{dt} = {dx}")
            dx = dt
            self.args[m] = message
            self.emit_trap_branch(j, f"{dx} == 0", f"raise _T({m})")
        if nc is not None and dc is not None:
            self.folds += 1
            self.finish_define(j, inst, "const", evaluate(inst.opcode, nc, dc), dh)
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
        self.ensure("abs")
        qt = self.newtmp("q")
        self.emit(f"{qt} = abs({nx}) // abs({dx})")
        self.emit(f"if ({nx} < 0) != ({dx} < 0): {qt} = -{qt}")
        self.finish_define(j, inst, "expr", self.render(inst.info.value, nx, dx, qt), dh)

    def emit_in(self, j: int, inst, dh) -> None:
        self.ensure("ist")
        self.ensure("len")
        pt = self.newtmp("p")
        vt = self.newtmp()
        self.emit(f"{pt} = ist[1]")
        self.emit(f"if {pt} < len(ist[0]):")
        self.emit(f"    {vt} = ist[0][{pt}]")
        self.emit(f"    ist[1] = {pt} + 1")
        self.emit("else:")
        self.emit(f"    {vt} = 0")
        self.finish_define(j, inst, "temp", vt, dh)

    def emit_inst(self, j: int, inst, hooks) -> None:
        """One instruction that falls through to the next pc; ``hooks``
        are its (define, load, store) hooks."""
        op = inst.opcode
        dh, lh, sh = hooks
        if op == "nop":
            return
        if op == "out":
            _, vx = self.reg(inst, "rd")
            self.ensure("outp")
            self.emit(f"outp({vx})")
        elif op == "ld":
            self.emit_ld(j, inst, dh, lh)
        elif op == "st":
            self.emit_st(j, inst, sh)
        elif inst.info.divides:
            self.emit_div(j, inst, dh)
        elif op == "in":
            self.emit_in(j, inst, dh)
        else:
            kind, val = self.value(inst)
            if inst.rd == 0 and kind == "expr":
                # Dead pure compute into r0: skip the arithmetic, keep the
                # architecturally visible define event (value 0).
                kind, val = "const", 0
            self.finish_define(j, inst, kind, val, dh)

    # -- assembly -------------------------------------------------------

    @classmethod
    def handler_for(cls, engine: ThreadedEngine, inst):
        """The threaded handler of ``inst`` (any opcode but a call).

        A handler's source depends only on the instruction's shape: its
        opcode, whether it writes ``r0``, which hooks it calls and in
        which form (:func:`_hook_form`), whether a static target is in
        range and whether an immediate divisor is zero.  Each shape is
        rendered once per process (``_SHAPES``), with a binder that
        reads every pc's parameters (``_PER_PC``) and the engine's
        shared objects into that one code object's defaults.
        """
        hooks = engine._hooks[inst.pc]
        info = inst.info
        machine = engine._machine
        key = (inst.opcode, inst.rd == 0, *map(_hook_form, hooks),
               0 <= inst.target < len(machine.program.instructions),
               info.divides and info.has_immediate and inst.imm == 0)
        shape = _SHAPES.get(key)
        if shape is None:
            emitter = cls(engine)
            emitter.render_handler(inst, hooks)
            values = ", ".join(_PER_PC.get(name, f"shared[{name!r}]") for name in emitter.args)
            binder = eval(  # noqa: S307 - assembled from the names the emitter bound
                f"lambda inst, hooks, machine, shared: ({values},)",
                {"_immediate": _immediate, "evaluate": evaluate, "_trap_message": _trap_message},
            )
            shape = _SHAPES[key] = (emitter.source("_h", emitter.lines),
                                    f"<threaded:{inst.opcode}>", binder)
        src, filename, binder = shape
        code, _ = _compiled(src, filename)
        return FunctionType(code, _GLOBALS, "_h", binder(inst, hooks, machine, engine._shared))

    def render_handler(self, inst, hooks) -> None:
        """Render the body of ``inst``'s handler."""
        info = inst.info
        if info.falls_through:
            self.emit_inst(0, inst, hooks)
            if not self.dead:
                for line in self.flush_lines(cycle_cost(inst.opcode) - 1):
                    self.emit(line)
                self.emit(f"return {self.lit(inst.pc + 1, 'npc')}")
        elif inst.opcode == "halt":
            self.ensure("_Halt")
            self.emit("raise _Halt()")
        else:
            # A conditional branch or ``j``.  A target outside the code
            # segment surfaces, when taken, as the reference loop's
            # pc-bounds error.
            t = self.lit(inst.target, "t")
            if 0 <= inst.target < len(self.machine.program.instructions):
                jump = f"return {t}"
            else:
                self.ensure("_BadPC")
                jump = f"raise _BadPC({t})"
            if info.value:
                self.emit(f"if {self.render(info.value, *(x for _, x in self.operands(inst)))}:")
                self.emit("    " + jump)
                self.emit(f"return {self.lit(inst.pc + 1, 'npc')}")
            else:
                self.emit(jump)

    def source(self, name: str, body: List[str]) -> str:
        """``body`` as the source of function ``name`` of the bound names."""
        return f"def {name}({', '.join(self.args)}):\n" + "\n".join(body) + "\n"
