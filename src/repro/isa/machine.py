"""The VPA interpreter.

Executes an assembled :class:`~repro.isa.program.Program` with 64-bit
two's-complement semantics, word-addressed memory, an input stream and
an output stream.  An optional :class:`MachineObserver` receives the
instruction-level events the value-profiling front ends consume — the
role ATOM's analysis routines play in the paper.

Three engines share these semantics bit for bit:

* ``simple`` — the reference loop below: a hand-ordered ``if``/``elif``
  chain over opcode mnemonics, kept as the executable specification
  and the differential oracle.
* ``threaded`` — :class:`repro.isa.engine.ThreadedEngine`, which
  pre-decodes each static instruction into a per-pc handler rendered
  from the opcode table (operands, immediates, trap messages and
  observer hooks bound at decode time) and dispatches through a handler
  table.  It is the default; the differential suite holds the engines
  byte-identical.
* ``tier2`` — :class:`repro.isa.tier2.Tier2Engine`, the threaded
  engine plus online quickening: hot basic blocks with stable live-in
  operands become guarded, constant-folded superinstructions that
  deopt back to the per-pc handlers on a guard miss.

Select with ``Machine(engine=...)`` — ``"auto"`` (the default) follows
the ``REPRO_ENGINE`` environment variable and falls back to
``threaded``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence

from repro.errors import MachineError
from repro.isa.instructions import (
    REG_ARGS,
    REG_LINK,
    REG_RETURN,
    REG_SP,
    NUM_REGISTERS,
    Instruction,
    cycle_cost,
    to_signed64,
)
from repro.isa.program import Procedure, Program
from repro.obs.metrics import METRICS as _METRICS
from repro.obs.timeseries import TIMESERIES as _TIMESERIES

DEFAULT_MEMORY_WORDS = 1 << 20
DEFAULT_BUDGET = 200_000_000

#: Retired instructions between two :meth:`MachineObserver.poll` calls
#: on the threaded and tier-2 engines.  A buffered profiler's hooks only
#: append, so this bounds how far a buffer can grow past its flush
#: threshold; the interval costs one poll per slice, and was chosen by
#: sweeping e2ebench ``profile`` time and peak RSS (docs/performance.md,
#: "Frame-free buffered profiling").
POLL_INSTRUCTIONS = 32_768

_ENGINES = ("simple", "threaded", "tier2")


def resolve_engine(engine: Optional[str]) -> str:
    """Normalize an engine selector to a member of ``_ENGINES``.

    ``"auto"`` (or ``None``) resolves to the engine ``REPRO_ENGINE``
    names, or to ``"threaded"`` when it names none.

    Unknown names — from the argument or from ``REPRO_ENGINE`` — raise
    :class:`~repro.errors.MachineError` immediately, so a typo fails at
    selection time rather than deep inside a run.
    """
    if engine is None:
        engine = "auto"
    engine = engine.strip().lower()
    if engine == "auto":
        engine = os.environ.get("REPRO_ENGINE", "").strip().lower()
        if not engine or engine == "auto":
            engine = "threaded"
    if engine not in _ENGINES:
        raise MachineError(
            f"unknown engine {engine!r} "
            f"(choose from 'simple', 'threaded', 'tier2', 'auto')"
        )
    return engine


class AppendSink(NamedTuple):
    """A define, load, store or return hook made only of bound appends.

    The threaded and tier-2 engines render it inline instead of calling
    it: ``ids(sid); vals(value)``, two C calls and no Python frame.
    With ``ids`` unset only the value is appended; with ``sid`` unset a
    load or store sink appends the event's address to ``ids`` instead
    of a constant.  :func:`hook_function` turns a sink into the plain
    function of the event a caller can call.
    """

    vals: Callable[[int], object]
    ids: Optional[Callable[[int], object]] = None
    sid: Optional[int] = None


class CallSink(NamedTuple):
    """A call hook made only of bound extends, rendered inline like
    :class:`AppendSink`: ``ids(sids); vals(arguments); pcs(call_pcs)``
    — one site id, one argument and one calling pc per parameter."""

    ids: Callable[[Sequence[int]], object]
    sids: Sequence[int]
    vals: Callable[[Sequence[int]], object]
    pcs: Callable[[Sequence[int]], object]
    call_pcs: Sequence[int]


def hook_function(hook):
    """``hook`` as a function of its event's arguments: a sink wrapped
    in one, anything else (``None`` included) as it is."""
    if isinstance(hook, AppendSink):
        vals, ids, sid = hook
        if ids is None:
            return lambda *event: vals(event[-1])
        if sid is None:
            return lambda address, value: (ids(address), vals(value))
        return lambda *event: (ids(sid), vals(event[-1]))
    if isinstance(hook, CallSink):
        ids, sids, vals, pcs, call_pcs = hook
        return lambda args: (ids(sids), vals(args), pcs(call_pcs))
    return hook


class MachineObserver:
    """Instrumentation callbacks (all no-ops by default).

    Subclasses override only what they need; the machine checks a
    single ``observer is not None`` per event class.

    The ``bind_*`` methods are the decode-time counterpart used by the
    threaded engine: for each static instruction (or call/return edge)
    they return either a per-event hook with the site decision already
    made, or ``None`` when the observer does not care — in which case
    the engine emits nothing for that instruction at all.  A hook is a
    callable, or an :class:`AppendSink` (a :class:`CallSink` from
    :meth:`bind_call`) that the engines render inline.  The defaults
    wrap the corresponding ``on_*`` method, so observers that only
    override ``on_*`` behave identically under every engine; observers
    may override ``bind_*`` for a faster specialized path (see
    :class:`~repro.isa.instrument.ValueProfiler` and
    :class:`~repro.core.tracestore.TraceCaptureObserver`).

    :meth:`poll` is the engines' periodic call between events: an
    observer whose bound hooks only buffer overrides it to drain what
    has piled up, and the threaded and tier-2 engines call it every
    :data:`POLL_INSTRUCTIONS` retired instructions.  Observers that do
    not override it cost the engines nothing.
    """

    def on_define(self, inst: Instruction, value: int) -> None:
        """A register-defining instruction produced ``value``.

        Fires for every instruction whose opcode has
        ``defines_register`` — including loads and ``in``.
        """

    def on_load(self, inst: Instruction, address: int, value: int) -> None:
        """A load at ``inst`` fetched ``value`` from ``address``."""

    def on_store(self, inst: Instruction, address: int, value: int) -> None:
        """A store at ``inst`` wrote ``value`` to ``address``."""

    def on_call(self, procedure: Procedure, args: Sequence[int], call_site: int = -1) -> None:
        """Control entered ``procedure`` via ``jal``/``jalr``.

        ``call_site`` is the pc of the calling instruction (-1 when
        unknown), enabling calling-context-sensitive profiling.
        """

    def on_return(self, procedure: Procedure, value: int) -> None:
        """``procedure`` returned (``jr`` through the link register);
        ``value`` is the return register ``r1`` at that point."""

    def flush(self) -> None:
        """Drain any buffered events.  The machine calls this once when
        the program halts — and before raising on any error path — so
        buffering observers (e.g. a buffered
        :class:`~repro.isa.instrument.ValueProfiler`) never lose the
        tail of the event stream."""

    def poll(self) -> None:
        """Periodic housekeeping between events.

        The threaded and tier-2 engines call it every
        :data:`POLL_INSTRUCTIONS` retired instructions, between
        instructions, when a subclass overrides it; the reference
        (``simple``) loop never does.  A buffered
        :class:`~repro.isa.instrument.ValueProfiler` flushes its full
        buffers here, because its bound hooks only append."""

    # -- decode-time binding (threaded engine) -------------------------

    def bind_define(self, inst: Instruction):
        """Per-event define hook for ``inst``, or ``None`` if unwanted."""
        if type(self).on_define is MachineObserver.on_define:
            return None

        def hook(value, _cb=self.on_define, _inst=inst):
            _cb(_inst, value)

        return hook

    def bind_load(self, inst: Instruction):
        """Per-event load hook ``f(address, value)`` or sink, or ``None``."""
        if type(self).on_load is MachineObserver.on_load:
            return None

        def hook(address, value, _cb=self.on_load, _inst=inst):
            _cb(_inst, address, value)

        return hook

    def bind_store(self, inst: Instruction):
        """Per-event store hook ``f(address, value)`` or sink, or ``None``."""
        if type(self).on_store is MachineObserver.on_store:
            return None

        def hook(address, value, _cb=self.on_store, _inst=inst):
            _cb(_inst, address, value)

        return hook

    def bind_call(self, procedure: Procedure, call_pc: int):
        """Per-event call hook ``f(args)`` for this call edge, or ``None``."""
        if type(self).on_call is MachineObserver.on_call:
            return None

        def hook(args, _cb=self.on_call, _proc=procedure, _pc=call_pc):
            _cb(_proc, args, _pc)

        return hook

    def bind_return(self, procedure: Procedure):
        """Per-event return hook ``f(value)``, or ``None``."""
        if type(self).on_return is MachineObserver.on_return:
            return None

        def hook(value, _cb=self.on_return, _proc=procedure):
            _cb(_proc, value)

        return hook


def observer_poll(observer) -> Optional[Callable[[], None]]:
    """``observer.poll`` when its class overrides :meth:`MachineObserver.poll`.

    ``None`` for no observer, for the no-op default and for duck-typed
    observers without a ``poll``: the engines run those without polls.
    """
    poll = getattr(type(observer), "poll", None)
    if poll is None or poll is MachineObserver.poll:
        return None
    return observer.poll


@dataclass
class RunResult:
    """Outcome of one complete execution."""

    program: str
    instructions_executed: int
    output: List[int]
    halted: bool
    dynamic_loads: int = 0
    dynamic_stores: int = 0
    dynamic_calls: int = 0
    dynamic_defines: int = 0
    cycles: int = 0
    procedure_calls: dict = field(default_factory=dict)


class Machine:
    """One VPA core plus its memory.

    Args:
        program: the assembled program to run.
        memory_words: data-memory size; the data image is loaded at
            address 0 and the stack starts at the top growing down.
        observer: optional instrumentation sink.
        engine: ``"threaded"`` (pre-decoded dispatch), ``"simple"``
            (the reference loop), ``"tier2"`` (threaded plus online
            specialization), or ``"auto"`` (the default: the engine
            ``REPRO_ENGINE`` names, else ``"threaded"``).
    """

    def __init__(
        self,
        program: Program,
        memory_words: int = DEFAULT_MEMORY_WORDS,
        observer: Optional[MachineObserver] = None,
        count_pcs: bool = False,
        engine: str = "auto",
        tier2_config=None,
    ) -> None:
        if len(program.data_image) > memory_words:
            raise MachineError(
                f"{program.name}: data image ({len(program.data_image)} words) "
                f"exceeds memory ({memory_words} words)"
            )
        self.program = program
        self.memory_words = memory_words
        self.observer = observer
        self.registers: List[int] = [0] * NUM_REGISTERS
        # One memory-sized allocation with the data image copied into
        # its head: ``image + [0] * n`` would build two more such lists.
        self.memory: List[int] = [0] * memory_words
        self.memory[: len(program.data_image)] = program.data_image
        self.pc = program.entry
        self.halted = False
        self.instructions_executed = 0
        self.output: List[int] = []
        self._input: List[int] = []
        self._input_pos = 0
        self._procedures_by_entry = {
            procedure.start: procedure for procedure in program.procedures.values()
        }
        self._cost_by_pc: List[int] = [cycle_cost(inst.opcode) for inst in program.instructions]
        #: per-pc execution counts (basic-block profiling); None unless
        #: count_pcs was requested — counting costs one list update per
        #: instruction, the classic block-profiling overhead
        self.pc_counts: Optional[List[int]] = (
            [0] * len(program.instructions) if count_pcs else None
        )
        self.cycles = 0
        self._procedure_by_pc: List[Optional[Procedure]] = [None] * len(program.instructions)
        for procedure in program.procedures.values():
            for pc in range(procedure.start, procedure.end):
                self._procedure_by_pc[pc] = procedure
        # counters for RunResult
        self.dynamic_loads = 0
        self.dynamic_stores = 0
        self.dynamic_calls = 0
        self.dynamic_defines = 0
        self.procedure_calls: dict = {}
        self.registers[REG_SP] = memory_words
        self.engine = resolve_engine(engine)
        self._threaded = None  # lazily built ThreadedEngine or Tier2Engine
        self._tier2_config = tier2_config

    # ------------------------------------------------------------------

    def set_input(self, values: Iterable[int]) -> None:
        """Install the input stream consumed by ``in`` instructions."""
        self._input = [to_signed64(v) for v in values]
        self._input_pos = 0

    def read_register(self, index: int) -> int:
        return self.registers[index]

    def read_memory(self, address: int) -> int:
        self._check_address(address)
        return self.memory[address]

    def write_memory(self, address: int, value: int) -> None:
        self._check_address(address)
        self.memory[address] = to_signed64(value)

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.memory_words:
            raise MachineError(
                f"{self.program.name}: memory access out of range: {address} "
                f"(pc={self.pc}, memory={self.memory_words} words)"
            )

    # ------------------------------------------------------------------

    def run(self, max_instructions: int = DEFAULT_BUDGET) -> RunResult:
        """Execute until ``halt`` or the instruction budget is exhausted."""
        if self.engine == "threaded":
            threaded = self._threaded
            if threaded is None:
                from repro.isa.engine import ThreadedEngine

                threaded = self._threaded = ThreadedEngine(self)
            return threaded.run(max_instructions)
        if self.engine == "tier2":
            tier2 = self._threaded
            if tier2 is None:
                from repro.isa.tier2 import Tier2Engine

                tier2 = self._threaded = Tier2Engine(self, config=self._tier2_config)
            return tier2.run(max_instructions)
        return self._run_simple(max_instructions)

    def tier2_stats(self) -> Optional[dict]:
        """Quicken/deopt statistics, or ``None`` off the tier-2 engine."""
        engine = self._threaded
        if self.engine != "tier2" or engine is None:
            return None
        return engine.stats()

    def tier2_block_summaries(self) -> Optional[list]:
        """Per-block lifecycle summaries (``Tier2Engine.block_summaries``),
        or ``None`` off the tier-2 engine.  Pairs with the jitlog journal:
        the journal records the transitions, this records where each
        block ended up."""
        engine = self._threaded
        if self.engine != "tier2" or engine is None:
            return None
        return engine.block_summaries()

    def tier2_preheat(self, database) -> int:
        """Seed tier-2 thresholds from a profile; see ``Tier2Engine.preheat``."""
        if self.engine != "tier2":
            return 0
        tier2 = self._threaded
        if tier2 is None:
            from repro.isa.tier2 import Tier2Engine

            tier2 = self._threaded = Tier2Engine(self, config=self._tier2_config)
        return tier2.preheat(database)

    def _run_simple(self, max_instructions: int) -> RunResult:
        """The reference interpreter loop (``engine="simple"``)."""
        observer = self.observer
        registers = self.registers
        memory = self.memory
        instructions = self.program.instructions
        code_size = len(instructions)
        memory_words = self.memory_words
        procedures_by_entry = self._procedures_by_entry
        cost_by_pc = self._cost_by_pc
        cycles = self.cycles
        pc_counts = self.pc_counts
        pc = self.pc
        executed = self.instructions_executed
        executed_at_entry = executed
        started = time.perf_counter() if _METRICS.enabled else 0.0

        while not self.halted:
            if executed >= max_instructions:
                self.pc = pc
                self.instructions_executed = executed
                self._flush_observer()
                raise MachineError(
                    f"{self.program.name}: instruction budget exceeded "
                    f"({max_instructions}); infinite loop?"
                )
            if not 0 <= pc < code_size:
                self.pc = pc
                self.instructions_executed = executed
                self._flush_observer()
                raise MachineError(f"{self.program.name}: pc {pc} outside code segment")
            inst = instructions[pc]
            op = inst.opcode
            executed += 1
            cycles += cost_by_pc[pc]
            if pc_counts is not None:
                pc_counts[pc] += 1
            next_pc = pc + 1
            value: Optional[int] = None

            if op == "ld":
                address = registers[inst.ra] + inst.imm
                if not 0 <= address < memory_words:
                    self.pc = pc
                    self.instructions_executed = executed
                    self._flush_observer()
                    raise MachineError(
                        f"{self.program.name}: load out of range at pc {pc}: address {address}"
                    )
                value = memory[address]
                registers[inst.rd] = value
                self.dynamic_loads += 1
                if observer is not None:
                    observer.on_load(inst, address, value)
            elif op == "st":
                address = registers[inst.ra] + inst.imm
                if not 0 <= address < memory_words:
                    self.pc = pc
                    self.instructions_executed = executed
                    self._flush_observer()
                    raise MachineError(
                        f"{self.program.name}: store out of range at pc {pc}: address {address}"
                    )
                stored = registers[inst.rd]
                memory[address] = stored
                self.dynamic_stores += 1
                if observer is not None:
                    observer.on_store(inst, address, stored)
            elif op == "addi":
                value = to_signed64(registers[inst.ra] + inst.imm)
                registers[inst.rd] = value
            elif op == "add":
                value = to_signed64(registers[inst.ra] + registers[inst.rb])
                registers[inst.rd] = value
            elif op == "beq":
                if registers[inst.ra] == registers[inst.rb]:
                    next_pc = inst.target
            elif op == "bne":
                if registers[inst.ra] != registers[inst.rb]:
                    next_pc = inst.target
            elif op == "blt":
                if registers[inst.ra] < registers[inst.rb]:
                    next_pc = inst.target
            elif op == "bge":
                if registers[inst.ra] >= registers[inst.rb]:
                    next_pc = inst.target
            elif op == "ble":
                if registers[inst.ra] <= registers[inst.rb]:
                    next_pc = inst.target
            elif op == "bgt":
                if registers[inst.ra] > registers[inst.rb]:
                    next_pc = inst.target
            elif op == "sub":
                value = to_signed64(registers[inst.ra] - registers[inst.rb])
                registers[inst.rd] = value
            elif op == "subi":
                value = to_signed64(registers[inst.ra] - inst.imm)
                registers[inst.rd] = value
            elif op == "li":
                value = to_signed64(inst.imm)
                registers[inst.rd] = value
            elif op == "la":
                value = inst.imm
                registers[inst.rd] = value
            elif op == "mov":
                value = registers[inst.ra]
                registers[inst.rd] = value
            elif op == "mul":
                value = to_signed64(registers[inst.ra] * registers[inst.rb])
                registers[inst.rd] = value
            elif op == "muli":
                value = to_signed64(registers[inst.ra] * inst.imm)
                registers[inst.rd] = value
            elif op in ("div", "divi", "rem", "remi"):
                numerator = registers[inst.ra]
                denominator = inst.imm if op.endswith("i") else registers[inst.rb]
                if denominator == 0:
                    self.pc = pc
                    self.instructions_executed = executed
                    self._flush_observer()
                    raise MachineError(
                        f"{self.program.name}: division by zero at pc {pc} "
                        f"({inst.render()}, line {inst.line})"
                    )
                quotient = abs(numerator) // abs(denominator)
                if (numerator < 0) != (denominator < 0):
                    quotient = -quotient
                if op.startswith("div"):
                    value = to_signed64(quotient)
                else:
                    value = to_signed64(numerator - quotient * denominator)
                registers[inst.rd] = value
            elif op == "and":
                value = to_signed64(registers[inst.ra] & registers[inst.rb])
                registers[inst.rd] = value
            elif op == "andi":
                value = to_signed64(registers[inst.ra] & inst.imm)
                registers[inst.rd] = value
            elif op == "or":
                value = to_signed64(registers[inst.ra] | registers[inst.rb])
                registers[inst.rd] = value
            elif op == "ori":
                value = to_signed64(registers[inst.ra] | inst.imm)
                registers[inst.rd] = value
            elif op == "xor":
                value = to_signed64(registers[inst.ra] ^ registers[inst.rb])
                registers[inst.rd] = value
            elif op == "xori":
                value = to_signed64(registers[inst.ra] ^ inst.imm)
                registers[inst.rd] = value
            elif op in ("sll", "slli"):
                shift = (inst.imm if op.endswith("i") else registers[inst.rb]) & 63
                value = to_signed64(registers[inst.ra] << shift)
                registers[inst.rd] = value
            elif op in ("srl", "srli"):
                shift = (inst.imm if op.endswith("i") else registers[inst.rb]) & 63
                value = to_signed64((registers[inst.ra] & ((1 << 64) - 1)) >> shift)
                registers[inst.rd] = value
            elif op in ("sra", "srai"):
                shift = (inst.imm if op.endswith("i") else registers[inst.rb]) & 63
                value = to_signed64(registers[inst.ra] >> shift)
                registers[inst.rd] = value
            elif op == "slt":
                value = 1 if registers[inst.ra] < registers[inst.rb] else 0
                registers[inst.rd] = value
            elif op == "slti":
                value = 1 if registers[inst.ra] < inst.imm else 0
                registers[inst.rd] = value
            elif op == "seq":
                value = 1 if registers[inst.ra] == registers[inst.rb] else 0
                registers[inst.rd] = value
            elif op == "seqi":
                value = 1 if registers[inst.ra] == inst.imm else 0
                registers[inst.rd] = value
            elif op == "sne":
                value = 1 if registers[inst.ra] != registers[inst.rb] else 0
                registers[inst.rd] = value
            elif op == "snei":
                value = 1 if registers[inst.ra] != inst.imm else 0
                registers[inst.rd] = value
            elif op == "j":
                next_pc = inst.target
            elif op == "jal":
                registers[REG_LINK] = pc + 1
                next_pc = inst.target
                self._enter_procedure(next_pc, pc, registers, observer)
            elif op == "jalr":
                if inst.rd:  # ``jalr r0, ra`` discards its link
                    registers[inst.rd] = pc + 1
                next_pc = registers[inst.ra]
                self._enter_procedure(next_pc, pc, registers, observer)
            elif op == "jr":
                next_pc = registers[inst.rd]
                if inst.rd == REG_LINK and observer is not None:
                    returning = self._procedure_by_pc[pc]
                    if returning is not None:
                        observer.on_return(returning, registers[REG_RETURN])
            elif op == "in":
                if self._input_pos < len(self._input):
                    value = self._input[self._input_pos]
                    self._input_pos += 1
                else:
                    value = 0
                registers[inst.rd] = value
            elif op == "out":
                self.output.append(registers[inst.rd])
            elif op == "nop":
                pass
            elif op == "halt":
                self.halted = True
            else:  # pragma: no cover - assembler rejects unknown opcodes
                raise MachineError(f"{self.program.name}: unimplemented opcode {op!r}")

            if value is not None:
                registers[0] = 0  # r0 stays hardwired to zero
                self.dynamic_defines += 1
                if observer is not None:
                    observer.on_define(inst, registers[inst.rd] if inst.rd != 0 else 0)
            pc = next_pc

        self.pc = pc
        self.instructions_executed = executed
        self.cycles = cycles
        if _METRICS.enabled:
            # Run-boundary instrumentation: the interpreter loop above
            # stays untouched, so disabled-mode simulation speed is
            # exactly the uninstrumented speed.
            _METRICS.inc("machine.runs")
            _METRICS.inc("machine.engine.simple_runs")
            _METRICS.inc("machine.instructions", executed - executed_at_entry)
            _METRICS.inc("machine.loads", self.dynamic_loads)
            _METRICS.inc("machine.stores", self.dynamic_stores)
            _METRICS.inc("machine.calls", self.dynamic_calls)
            _METRICS.inc("machine.defines", self.dynamic_defines)
            _METRICS.observe("machine.run", time.perf_counter() - started)
        _TIMESERIES.advance(executed - executed_at_entry)
        self._flush_observer()
        return self._make_result(executed, cycles)

    def _flush_observer(self) -> None:
        """Drain the observer's buffers (halt *and* error paths)."""
        observer = self.observer
        if observer is not None:
            flush = getattr(observer, "flush", None)
            if flush is not None:
                flush()

    def _make_result(self, executed: int, cycles: int) -> RunResult:
        return RunResult(
            program=self.program.name,
            instructions_executed=executed,
            output=list(self.output),
            halted=self.halted,
            dynamic_loads=self.dynamic_loads,
            dynamic_stores=self.dynamic_stores,
            dynamic_calls=self.dynamic_calls,
            dynamic_defines=self.dynamic_defines,
            cycles=cycles,
            procedure_calls=dict(self.procedure_calls),
        )

    def _enter_procedure(
        self,
        entry_pc: int,
        call_pc: int,
        registers: List[int],
        observer: Optional[MachineObserver],
    ) -> None:
        procedure = self._procedures_by_entry.get(entry_pc)
        if procedure is None:
            return
        self.dynamic_calls += 1
        self.procedure_calls[procedure.name] = self.procedure_calls.get(procedure.name, 0) + 1
        if observer is not None:
            args = tuple(registers[REG_ARGS[i]] for i in range(procedure.nargs))
            observer.on_call(procedure, args, call_pc)


def block_counts(machine: Machine) -> Dict[int, int]:
    """Basic-block execution counts from a ``count_pcs`` machine.

    Keyed by block-leader pc; the count is how many times execution
    entered the block (the leader's pc count).
    """
    if machine.pc_counts is None:
        raise MachineError("block_counts requires Machine(count_pcs=True)")
    return {
        block.start: machine.pc_counts[block.start]
        for block in machine.program.basic_blocks()
    }


def run_program(
    program: Program,
    input_values: Iterable[int] = (),
    observer: Optional[MachineObserver] = None,
    memory_words: int = DEFAULT_MEMORY_WORDS,
    max_instructions: int = DEFAULT_BUDGET,
) -> RunResult:
    """Convenience wrapper: build a machine, feed input, run to halt."""
    machine = Machine(program, memory_words=memory_words, observer=observer)
    machine.set_input(input_values)
    return machine.run(max_instructions=max_instructions)
