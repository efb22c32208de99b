"""The opcode table: its constant evaluator and the handlers rendered from it.

:func:`repro.isa.instructions.evaluate` is what both constant folders
compute: tier-2's superinstruction codegen and the binary specializer
(:mod:`repro.isa.optimize`).  For every opcode with a value template it
must equal a run of that one instruction on the reference (``simple``)
engine, over boundary operands, and a zero divisor must never fold.
The specializer, with the operands bound on the same grid, must leave
the program's output unchanged.  Threaded handlers are compiled once
per opcode shape, not once per pc.
"""

import pytest

from repro.core.profile import ProfileDatabase
from repro.errors import MachineError
from repro.isa import engine as engine_module
from repro.isa.assembler import assemble
from repro.isa.instructions import OPCODES, Format, InsnClass, evaluate
from repro.isa.instrument import ProfileTarget, ValueProfiler
from repro.isa.machine import Machine
from repro.isa.optimize import patch_call_site, specialize_procedure
from repro.workloads.registry import all_workloads

#: boundary operands: zero, ±1, shift amounts at and past 63, the
#: signed-64 extremes, and a negative divisor.
GRID = (0, 1, -1, 63, 64, 127, 2**63 - 1, -(2**63), -7)

_TEMPLATED = sorted(op for op, info in OPCODES.items() if info.value)
_BINARY = [op for op in _TEMPLATED if OPCODES[op].fmt in (Format.RRR, Format.BRANCH)]
_IMMEDIATE = [op for op in _TEMPLATED if OPCODES[op].fmt is Format.RRI]
_UNARY = [op for op in _TEMPLATED if op not in _BINARY + _IMMEDIATE]


def _program(op: str, imm: int = 0):
    """``main`` reads r1 and r2 and calls ``f``, which runs ``op`` once
    on them (or on r1 and ``imm``) and outputs the value, or 1/0 for
    whether a branch is taken."""
    info = OPCODES[op]
    if info.insn_class is InsnClass.BRANCH:
        body = f"{op} r1, r2, taken\n    li r3, 0\n    out r3\n    ret\ntaken:\n    li r3, 1"
    elif info.fmt is Format.RRR:
        body = f"{op} r3, r1, r2"
    elif info.fmt is Format.RRI:
        body = f"{op} r3, r1, {imm}"
    elif info.reads:
        body = f"{op} r3, r1"
    else:
        body = f"{op} r3, {imm}"
    return assemble(
        ".program conform\n.text\n.proc main nargs=0\n    in r1\n    in r2\n"
        "    call f\n    halt\n.endproc\n"
        f".proc f nargs=2\n    {body}\n    out r3\n    ret\n.endproc\n"
    )


def _run(program, a: int, b: int):
    """Output of ``program`` on the simple engine, or ``"trap"``."""
    machine = Machine(program, memory_words=64, engine="simple")
    machine.set_input([a, b])
    try:
        return machine.run().output
    except MachineError as error:
        assert "division by zero" in str(error)
        return "trap"


def _expected(op: str, a: int, b: int):
    value = evaluate(op, a, b)
    if value is None:
        assert OPCODES[op].divides and b == 0, "only a zero divisor may refuse to fold"
        return "trap"
    return [int(value)]


def _specialized(program, bindings):
    spec, report = specialize_procedure(program, "f", bindings)
    call = next(inst.pc for inst in spec.instructions if inst.opcode == "jal")
    patch_call_site(spec, call, report.variant)
    return spec, report


def test_every_value_template_is_covered():
    assert sorted(_BINARY + _IMMEDIATE + _UNARY) == _TEMPLATED
    assert set(_UNARY) == {"li", "la", "mov"}


@pytest.mark.parametrize("op", _BINARY)
def test_register_operands(op):
    program = _program(op)
    for a in GRID:
        for b in GRID:
            expected = _expected(op, a, b)
            assert _run(program, a, b) == expected, (op, a, b)
            for bindings in ({1: a, 2: b}, {1: a}, {2: b}):
                spec, report = _specialized(program, bindings)
                assert _run(spec, a, b) == expected, (op, a, b, bindings)
            if expected == "trap":
                assert report.folds == 0, "a zero divisor was folded"


@pytest.mark.parametrize("op", _IMMEDIATE)
def test_immediate_operands(op):
    for b in GRID:
        program = _program(op, b)
        for a in GRID:
            expected = _expected(op, a, b)
            assert _run(program, a, 0) == expected, (op, a, b)
            spec, report = _specialized(program, {1: a})
            assert _run(spec, a, 0) == expected, (op, a, b)
            if expected == "trap":
                assert report.folds == 0, "a zero divisor was folded"


@pytest.mark.parametrize("op", _UNARY)
def test_moves_and_constants(op):
    for a in GRID:
        program = _program(op, a)
        assert _run(program, a, 0) == [evaluate(op, a)], (op, a)


def test_threaded_handlers_compile_per_shape(monkeypatch):
    """Profiling every program input on the threaded engine, from an
    empty code cache, compiles a handler per shape (opcode, ``rd == 0``,
    hooks, static target in range), not one per static instruction."""
    monkeypatch.setattr(engine_module, "_CODE_CACHE", {})
    static = 0
    for workload in all_workloads():
        program = workload.program()
        static += len(program.instructions)
        for variant in ("train", "test"):
            profiler = ValueProfiler(
                program,
                ProfileDatabase(name=workload.name),
                targets=(ProfileTarget.INSTRUCTIONS, ProfileTarget.LOADS),
                buffered=True,
            )
            machine = Machine(program, observer=profiler, engine="threaded")
            machine.set_input(workload.dataset(variant, scale=0.02).values)
            machine.run()
    handlers = [src for src in engine_module._CODE_CACHE if src.startswith("def _h(")]
    assert static > 1000
    assert 0 < len(handlers) < 200
