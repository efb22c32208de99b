"""Lifetime tests: a finished run releases its Machine.

A Machine owns ``memory_words`` slots of memory (a million by default),
so anything process-global that keeps a finished run's frames reachable
pins that memory for the life of the process, and anything that puts
the Machine in a reference cycle keeps it until the cyclic collector
runs.  Each case runs a program to one exit path on one engine with the
collector disabled, drops the Machine and any ``MachineError``, and
checks that a weak reference to the Machine is dead at once: reference
counting alone frees it.  The threaded or tier-2 engine object must go
with it.  Every program opens with a short loop so the tier-2 engine
has quickened a block before it exits.
"""

import gc
import weakref

import pytest

from repro.errors import MachineError
from repro.isa.assembler import assemble
from repro.isa.machine import Machine
from repro.isa.tier2 import Tier2Config

_ENGINES = ("simple", "threaded", "tier2")

#: a function pointer and its callee, ahead of ``main`` so that falling
#: off the end of ``main`` still leaves the code segment.
_CALLEE = """
.data
fptr: .word callee
.text
.proc callee nargs=0
    jr r10
.endproc
"""

_WARM_LOOP = """
    li r5, 20
loop:
    subi r5, r5, 1
    bnez r5, loop
"""

#: exit path -> (program tail after the loop, expected MachineError text)
_EXITS = {
    "halt": ("halt", None),
    "indirect-call": ("la r1, fptr\nld r2, 0(r1)\njalr r10, r2\nhalt", None),
    "division-by-zero": ("li r1, 7\nli r2, 0\ndiv r3, r1, r2\nhalt", "division by zero"),
    "load-out-of-range": ("li r1, -5\nld r2, 0(r1)\nhalt", "load out of range"),
    "jump-off-code": ("li r1, 12345\njr r1\nhalt", "pc 12345 outside code segment"),
    "fall-off-end": ("li r1, 1", "outside code segment"),
    "budget-exhausted": ("spin:\nj spin", "instruction budget exceeded"),
}


@pytest.fixture(autouse=True)
def collector_off():
    """Only reference counting may free a Machine in these tests."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def _run_to_exit(engine: str, exit_path: str):
    """Run one program to ``exit_path``; return only weak references.

    Returns ``(machine_ref, engine_ref)``; ``engine_ref`` is ``None``
    for the simple engine, which builds no engine object.  Everything
    else the run created — the Machine, its engine, the
    ``MachineError`` and its traceback — goes out of scope on return.
    """
    tail, expected_error = _EXITS[exit_path]
    program = assemble(f"{_CALLEE}.proc main nargs=0\n{_WARM_LOOP}{tail}\n.endproc\n")
    machine = Machine(
        program,
        engine=engine,
        tier2_config=Tier2Config(hot_threshold=2, fail_limit=2, requicken_budget=1),
    )
    machine_ref = weakref.ref(machine)
    try:
        machine.run(max_instructions=1000)
    except MachineError as error:
        assert expected_error is not None and expected_error in str(error)
    else:
        assert expected_error is None and machine.halted
    engine_ref = None if machine._threaded is None else weakref.ref(machine._threaded)
    return machine_ref, engine_ref


@pytest.mark.parametrize("exit_path", sorted(_EXITS))
@pytest.mark.parametrize("engine", _ENGINES)
def test_machine_released_after_exit(engine, exit_path):
    machine_ref, engine_ref = _run_to_exit(engine, exit_path)
    assert machine_ref() is None
    if engine != "simple":
        assert engine_ref() is None


@pytest.mark.parametrize("engine", _ENGINES)
def test_back_to_back_runs_leave_no_live_machine(engine):
    exit_paths = sorted(_EXITS)
    refs = [_run_to_exit(engine, exit_paths[i % len(exit_paths)]) for i in range(20)]
    assert [ref for ref, _ in refs if ref() is not None] == []
    if engine != "simple":
        assert [ref for _, ref in refs if ref() is not None] == []
