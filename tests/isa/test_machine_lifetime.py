"""Lifetime tests: a finished run releases its Machine.

A Machine owns ``memory_words`` slots of memory (a million by default),
so anything process-global that keeps a finished run's frames reachable
pins that memory for the life of the process.  Each case runs a program
to one exit path on one engine, drops the Machine and any
``MachineError``, collects, and checks that a weak reference to the
Machine is dead.  Every program opens with a short loop so the tier-2
engine has quickened a block before it exits.
"""

import gc
import weakref

import pytest

from repro.errors import MachineError
from repro.isa.assembler import assemble
from repro.isa.machine import Machine
from repro.isa.tier2 import Tier2Config

_ENGINES = ("simple", "threaded", "tier2")

_WARM_LOOP = """
    li r5, 20
loop:
    subi r5, r5, 1
    bnez r5, loop
"""

#: exit path -> (program tail after the loop, expected MachineError text)
_EXITS = {
    "halt": ("halt", None),
    "division-by-zero": ("li r1, 7\nli r2, 0\ndiv r3, r1, r2\nhalt", "division by zero"),
    "load-out-of-range": ("li r1, -5\nld r2, 0(r1)\nhalt", "load out of range"),
    "jump-off-code": ("li r1, 12345\njr r1\nhalt", "pc 12345 outside code segment"),
    "fall-off-end": ("li r1, 1", "outside code segment"),
    "budget-exhausted": ("spin:\nj spin", "instruction budget exceeded"),
}


def _run_to_exit(engine: str, exit_path: str) -> weakref.ref:
    """Run one program to ``exit_path``; return only a weak reference.

    Everything else the run created — the Machine, its engine, the
    ``MachineError`` and its traceback — goes out of scope on return.
    """
    tail, expected_error = _EXITS[exit_path]
    program = assemble(f".text\n.proc main nargs=0\n{_WARM_LOOP}{tail}\n.endproc\n")
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
    return machine_ref


@pytest.mark.parametrize("exit_path", sorted(_EXITS))
@pytest.mark.parametrize("engine", _ENGINES)
def test_machine_released_after_exit(engine, exit_path):
    machine_ref = _run_to_exit(engine, exit_path)
    gc.collect()
    assert machine_ref() is None


@pytest.mark.parametrize("engine", _ENGINES)
def test_back_to_back_runs_leave_no_live_machine(engine):
    exit_paths = sorted(_EXITS)
    refs = [_run_to_exit(engine, exit_paths[i % len(exit_paths)]) for i in range(20)]
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []
