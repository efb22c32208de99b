"""Differential tests: every engine is bit-identical to simple.

The pre-decoded direct-threaded engine renders every opcode from the
opcode table into a bound handler, and the tier-2 engine renders hot
*blocks* as superinstructions behind guards; the only acceptable
difference from the reference ``simple`` loop is speed.  A randomized
program generator — every opcode, division by (possibly) zero,
loads/stores that can leave the data segment, computed jumps that can
leave the code segment, writes to the hardwired ``r0``, and budgets
small enough to exhaust — drives all engines and asserts identical
results, identical machine state, identical trap messages, identical
value profiles and identical captured event columns, read after a
failed or finished run and again after the machine runs once more.
Hand-built programs cover what the assembler cannot produce: branch,
jump and call targets outside the code segment.  The tier-2 leg runs
with an aggressive config (hot threshold 2, fail limit 2) so the
random programs exercise quickening, guard failure, deopt,
requickening, and despecialization within the small budgets.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profile import ProfileDatabase
from repro.core.tracestore import TraceCaptureObserver
from repro.errors import MachineError
from repro.isa import machine as machine_module
from repro.isa.assembler import assemble
from repro.isa.instructions import OPCODES, Instruction
from repro.isa.instrument import (
    ALL_TARGETS,
    DEFAULT_FLUSH_THRESHOLD,
    ProfileTarget,
    ValueProfiler,
)
from repro.isa.machine import Machine
from repro.isa.program import Procedure, Program
from repro.isa.tier2 import Tier2Config

_ENGINES = ("simple", "threaded", "tier2")


def _hot_tier2_config() -> Tier2Config:
    """A tier-2 config that quickens (and thrashes) fast in tiny runs."""
    return Tier2Config(hot_threshold=2, fail_limit=2, requicken_budget=1)

_SCRATCH = list(range(8, 26))

_BINARY = [
    "add", "sub", "mul", "and", "or", "xor",
    "slt", "seq", "sne", "sll", "srl", "sra",
]
_IMMEDIATE = [
    "addi", "subi", "muli", "andi", "ori", "xori",
    "slti", "seqi", "snei", "slli", "srli", "srai",
]
_DIVIDES = ["div", "rem"]
_DIVIDES_IMM = ["divi", "remi"]
_BRANCHES = ["beq", "bne", "blt", "bge", "ble", "bgt"]

#: loop backedges, one per conditional branch, that all loop while the
#: counter r28 is positive.  r27 is scratch for backedges and function
#: pointers only; no other statement writes it.
_BACKEDGES = [
    ["bne r28, r0, {label}"],
    ["bgt r28, r0, {label}"],
    ["blt r0, r28, {label}"],
    ["li r27, 1", "bge r28, r27, {label}"],
    ["li r27, 1", "ble r27, r28, {label}"],
    ["seq r27, r28, r0", "beq r27, r0, {label}"],
]


def _random_program(seed: int) -> str:
    """A random program that may trap, wander off-segment, or loop.

    Unlike the fuzz-suite generator this one *wants* failure modes:
    whatever it produces, both engines must do the same thing with it.
    """
    rng = random.Random(seed)
    lines = [
        ".program diff",
        ".data",
        "table: .space 64",
        ".text",
        ".proc main nargs=0",
        "    la r26, table",
    ]
    for reg in _SCRATCH:
        lines.append(f"    li r{reg}, {rng.randint(-1000, 1000)}")

    def statements(count: int, loop_depth: int) -> None:
        for _ in range(count):
            choice = rng.random()
            # rd == 0 sometimes: writes to the hardwired zero register.
            rd = 0 if rng.random() < 0.05 else rng.choice(_SCRATCH)
            ra = rng.choice(_SCRATCH)
            rb = rng.choice(_SCRATCH)
            if choice < 0.35:
                op = rng.choice(_BINARY)
                lines.append(f"    {op} r{rd}, r{ra}, r{rb}")
            elif choice < 0.55:
                op = rng.choice(_IMMEDIATE)
                imm = rng.randint(0, 16) if op.endswith(("lli", "rli", "rai")) else rng.randint(-64, 64)
                lines.append(f"    {op} r{rd}, r{ra}, {imm}")
            elif choice < 0.70:
                # division: register divisors are whatever the program
                # computed (possibly zero); immediate divisors include
                # zero outright.
                if rng.random() < 0.5:
                    lines.append(f"    {rng.choice(_DIVIDES)} r{rd}, r{ra}, r{rb}")
                else:
                    imm = rng.choice((0, 1, 2, 3, -5, 7))
                    lines.append(f"    {rng.choice(_DIVIDES_IMM)} r{rd}, r{ra}, {imm}")
            elif choice < 0.82:
                # memory: base r26 is the table, but the offset may
                # push the address past it, and sometimes the base is a
                # scratch register holding an arbitrary value.
                base = 26 if rng.random() < 0.7 else ra
                offset = rng.randint(-8, 80)
                if rng.random() < 0.5:
                    lines.append(f"    st r{rb}, {offset}(r{base})")
                else:
                    lines.append(f"    ld r{rd}, {offset}(r{base})")
            elif choice < 0.88:
                lines.append("    in r%d" % rng.choice(_SCRATCH))
                lines.append(f"    out r{ra}")
            elif choice < 0.91 and loop_depth == 0:
                label = f"loop_{len(lines)}"
                lines.append(f"    li r28, {rng.randint(1, 6)}")
                lines.append(f"{label}:")
                statements(rng.randint(1, 3), loop_depth + 1)
                lines.append("    subi r28, r28, 1")
                for line in rng.choice(_BACKEDGES):
                    lines.append("    " + line.format(label=label))
            elif choice < 0.935:
                # forward skip: a conditional branch or a ``j`` over a
                # few statements.
                label = f"skip_{len(lines)}"
                if rng.random() < 0.75:
                    lines.append(f"    {rng.choice(_BRANCHES)} r{ra}, r{rb}, {label}")
                else:
                    lines.append(f"    j {label}")
                statements(rng.randint(1, 2), loop_depth + 1)
                lines.append(f"{label}:")
            elif choice < 0.96:
                lines.append(f"    mov r1, r{ra}")
                lines.append(f"    li r2, {rng.randint(-8, 8)}")
                call = rng.random()
                if call < 0.4:
                    lines.append("    call helper")
                elif call < 0.7:
                    # an indirect call through a function pointer
                    lines.append("    la r27, helper")
                    lines.append("    jalr r31, r27")
                else:
                    # an indirect jump that discards its link into r0;
                    # ``hop`` reads r0 and returns through r30.
                    label = f"back_{len(lines)}"
                    lines.append(f"    la r30, {label}")
                    lines.append("    la r27, hop")
                    lines.append("    jalr r0, r27")
                    lines.append(f"{label}:")
                lines.append(f"    mov r{rd}, r1")
            elif choice < 0.97:
                lines.append("    nop")
            else:
                # computed jump through a scratch register: lands on an
                # arbitrary pc, very often outside the code segment.
                lines.append(f"    jr r{ra}")

    statements(rng.randint(4, 14), 0)
    lines.append("    out r9")
    lines.append("    halt")
    lines.append(".endproc")
    lines.append(".proc helper nargs=2")
    lines.append(f"    muli r1, r1, {rng.randint(-4, 4)}")
    lines.append("    add r1, r1, r2")
    lines.append(f"    divi r1, r1, {rng.choice((0, 1, 3))}")
    lines.append("    ret")
    lines.append(".endproc")
    lines.append(".proc hop nargs=2")
    lines.append("    add r1, r1, r0")
    lines.append("    jr r30")
    lines.append(".endproc")
    return "\n".join(lines)


def _run(program, engine: str, budget: int, buffered: bool,
         flush_threshold: int = DEFAULT_FLUSH_THRESHOLD):
    """Full observable outcome of one run under one engine.

    Returns a tuple covering everything a consumer could see: the
    RunResult (or the exact trap message), final machine state, dynamic
    counters, and the value-profile database contents (which also
    witnesses that error paths flushed buffered observers).
    """
    database = ProfileDatabase(name="diff")
    profiler = ValueProfiler(
        program, database, targets=ALL_TARGETS, buffered=buffered,
        flush_threshold=flush_threshold,
    )
    config = _hot_tier2_config() if engine == "tier2" else None
    machine = Machine(
        program, observer=profiler, engine=engine, tier2_config=config
    )
    machine.set_input([3, 1, 4, 1, 5, 9, 2, 6])
    try:
        result = machine.run(max_instructions=budget)
        outcome = ("ok", result)
    except MachineError as error:
        outcome = ("error", str(error))
    # Running a halted machine again returns the finished result.
    rerun = machine.run(max_instructions=budget) if machine.halted else None
    return (
        outcome,
        rerun,
        list(machine.registers),
        machine.pc,
        machine.cycles,
        machine.halted,
        list(machine.output),
        (
            machine.instructions_executed,
            machine.dynamic_loads,
            machine.dynamic_stores,
            machine.dynamic_calls,
            machine.dynamic_defines,
            dict(machine.procedure_calls),
        ),
        database.to_json(),
    )


def _capture(program, engine: str, budget: int):
    """The columns a :class:`TraceCaptureObserver` holds after one run
    under one engine, and again after the machine runs once more with
    twice the budget (a halted machine returns its result, a trap traps
    again, an exhausted budget continues)."""
    capture = TraceCaptureObserver(program)
    config = _hot_tier2_config() if engine == "tier2" else None
    machine = Machine(program, observer=capture, engine=engine, tier2_config=config)
    machine.set_input([3, 1, 4, 1, 5, 9, 2, 6])
    columns = []
    for max_instructions in (budget, 2 * budget):
        try:
            machine.run(max_instructions=max_instructions)
        except MachineError:
            pass
        columns.append((
            [(site, site.opcode) for site in capture.sites],
            list(capture.site_ids),
            list(capture.values),
            list(capture.call_pcs),
        ))
    return columns


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=100_000),
    st.sampled_from([25, 400, 50_000]),
    st.booleans(),
)
def test_engines_agree_on_random_programs(seed, budget, buffered):
    program = assemble(_random_program(seed))
    simple = _run(program, "simple", budget, buffered)
    threaded = _run(program, "threaded", budget, buffered)
    assert threaded == simple
    tier2 = _run(program, "tier2", budget, buffered)
    assert tier2 == simple
    captured = _capture(program, "simple", budget)
    assert _capture(program, "threaded", budget) == captured
    assert _capture(program, "tier2", budget) == captured


def test_generator_emits_every_opcode():
    seen = set()
    for seed in range(200):
        seen.update(inst.opcode for inst in assemble(_random_program(seed)).instructions)
    assert seen == set(OPCODES)


def _out_of_range(opcode: str, target: int) -> Program:
    """``opcode`` aimed at ``target``, which the assembler cannot produce.

    ``main`` sets r8, takes the (always-taken) control transfer, and
    would halt; ``beq`` compares r8 with itself.
    """
    instructions = [
        Instruction("li", rd=8, imm=5),
        Instruction(opcode, ra=8, rb=8, target=target),
        Instruction("out", rd=8),
        Instruction("halt"),
    ]
    for pc, inst in enumerate(instructions):
        inst.pc = pc
        inst.procedure = "main"
    return Program(
        name="bad_target",
        instructions=instructions,
        procedures={"main": Procedure("main", 0, len(instructions))},
        labels={"main": 0},
        data_symbols={},
        data_image=[],
    )


@pytest.mark.parametrize("target", [-3, 4, 9999])
@pytest.mark.parametrize("opcode", ["beq", "j", "jal"])
def test_engines_agree_on_targets_outside_the_code(opcode, target):
    program = _out_of_range(opcode, target)
    assert target not in range(len(program.instructions))
    simple = _run(program, "simple", 100, True)
    assert simple[0] == ("error", f"bad_target: pc {target} outside code segment")
    assert _run(program, "threaded", 100, True) == simple
    assert _run(program, "tier2", 100, True) == simple


@pytest.mark.parametrize("engine", _ENGINES)
def test_rerun_after_bad_jump_executes_nothing(engine):
    """A machine whose jump left the code segment stays where it
    stopped when run again: a negative pc is not an index from the end
    of the handler table."""
    program = assemble(".text\n.proc main nargs=0\n    li r8, -1\n    jr r8\n"
                       "    out r8\n    halt\n.endproc\n")
    machine = Machine(program, engine=engine)
    for _ in range(2):
        with pytest.raises(MachineError, match="pc -1 outside code segment"):
            machine.run(max_instructions=100)
        assert (machine.pc, machine.instructions_executed, machine.output) == (-1, 2, [])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=100_000),
    st.sampled_from([25, 400, 50_000]),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=97),
)
def test_flush_points_never_change_a_profile(seed, budget, threshold, interval):
    """The threaded and tier-2 engines flush a buffered profiler at
    polls, the simple engine per event; wherever the flushes fall —
    traps, bad jumps and exhausted budgets included — every observable
    outcome, the profile JSON among them, equals the simple engine's."""
    program = assemble(_random_program(seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(machine_module, "POLL_INSTRUCTIONS", interval)
        simple = _run(program, "simple", budget, True, threshold)
        assert _run(program, "threaded", budget, True, threshold) == simple
        assert _run(program, "tier2", budget, True, threshold) == simple


_JALR_R0 = """
.program jalr_r0
.text
.proc main nargs=0
    li r10, 6
loop:
    la r30, back
    la r27, hop
    jalr r0, r27
back:
    add r9, r9, r0
    addi r9, r9, 1
    subi r10, r10, 1
    bnez r10, loop
    out r9
    halt
.endproc
.proc hop nargs=0
    add r8, r8, r0
    jr r30
.endproc
"""


@pytest.mark.parametrize("engine", _ENGINES)
def test_jalr_r0_discards_its_link(engine):
    """Writes to r0 are discarded, ``jalr``'s link included: r0 reads as
    zero inside the target and after the return, on every engine."""
    config = _hot_tier2_config() if engine == "tier2" else None
    machine = Machine(assemble(_JALR_R0), engine=engine, tier2_config=config)
    machine.run(max_instructions=1_000)
    assert machine.output == [6]
    assert machine.registers[0] == 0
    assert machine.registers[8] == 0


_SPIN = """
.program spin
.text
.proc main nargs=0
    li r8, 0
loop:
    addi r8, r8, 1
    j loop
.endproc
"""


class _BatchLog(ProfileDatabase):
    """A database that logs the length of every batch it is handed."""

    def __init__(self, name: str) -> None:
        super().__init__(name=name)
        self.batches = []

    def record_batch(self, site, values):
        self.batches.append(len(values))
        super().record_batch(site, values)


@pytest.mark.parametrize("engine", ["threaded", "tier2"])
def test_polled_buffers_stay_bounded(engine, monkeypatch):
    """A tight loop's buffered site is flushed at polls, not held to the
    end: no batch exceeds the threshold plus one interval's events.

    On tier-2 the loop quickens into a loop-closed superinstruction,
    which must come back to the dispatcher at least once per grant.
    """
    interval, threshold = 256, 16
    monkeypatch.setattr(machine_module, "POLL_INSTRUCTIONS", interval)
    program = assemble(_SPIN)
    database = _BatchLog("spin")
    profiler = ValueProfiler(
        program,
        database,
        targets=(ProfileTarget.INSTRUCTIONS,),
        buffered=True,
        flush_threshold=threshold,
    )
    machine = Machine(
        program, observer=profiler, engine=engine,
        tier2_config=Tier2Config(hot_threshold=2),
    )
    with pytest.raises(MachineError, match="budget"):
        machine.run(max_instructions=20 * interval)
    if engine == "tier2":
        assert machine.tier2_stats()["quickened"] >= 1
    # Each site gets at most one event per retired instruction.
    assert max(database.batches) <= threshold + interval
    # The loop's ``addi`` site flushes once per interval; a run held to
    # the final flush would show one batch per site.
    assert len(database.batches) >= 19
    assert database.total_executions() == machine.dynamic_defines


@pytest.mark.parametrize("engine", _ENGINES)
def test_budget_error_flushes_buffered_observer(engine):
    """Budget exhaustion must not swallow buffered profile events.

    ``Machine.run`` raises on an exhausted budget, but a buffered
    observer has events in flight; they must be flushed before the
    raise so a partial profile of the truncated run survives.
    """
    program = assemble(_SPIN)
    database = ProfileDatabase(name="spin")
    profiler = ValueProfiler(
        program,
        database,
        targets=(ProfileTarget.INSTRUCTIONS,),
        buffered=True,
        flush_threshold=10_000,  # never reached: only the flush delivers
    )
    machine = Machine(program, observer=profiler, engine=engine)
    with pytest.raises(MachineError, match="budget"):
        machine.run(max_instructions=100)
    assert database.total_executions() > 0, "events died in the buffer"


@pytest.mark.parametrize("engine", _ENGINES)
def test_trap_flushes_buffered_observer(engine):
    source = """
    .program zdiv
    .text
    .proc main nargs=0
        li r8, 7
        divi r9, r8, 0
        halt
    .endproc
    """
    program = assemble(source)
    database = ProfileDatabase(name="zdiv")
    profiler = ValueProfiler(
        program,
        database,
        targets=(ProfileTarget.INSTRUCTIONS,),
        buffered=True,
        flush_threshold=10_000,
    )
    machine = Machine(program, observer=profiler, engine=engine)
    with pytest.raises(MachineError, match="division by zero"):
        machine.run()
    assert database.total_executions() > 0


def test_engine_selection_resolves_env(monkeypatch):
    source = ".program tiny\n.text\n.proc main nargs=0\n    halt\n.endproc\n"
    program = assemble(source)
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert Machine(program).engine == "threaded"
    assert Machine(program, engine="simple").engine == "simple"
    assert Machine(program, engine="tier2").engine == "tier2"
    monkeypatch.setenv("REPRO_ENGINE", "simple")
    assert Machine(program).engine == "simple"
    assert Machine(program, engine="auto").engine == "simple"
    monkeypatch.setenv("REPRO_ENGINE", "tier2")
    assert Machine(program).engine == "tier2"
    monkeypatch.setenv("REPRO_ENGINE", "bogus")
    with pytest.raises(MachineError):
        Machine(program)
