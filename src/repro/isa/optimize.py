"""ISA-level code specialization — the thesis' Chapter X on VPA code.

Where :mod:`repro.specialize` specializes *Python* functions, this
module performs the paper's actual proposal: run-time code generation
for the profiled binary itself.  Given a procedure and a binding of
argument registers to the invariant values a (calling-context) value
profile discovered, it:

1. clones the procedure's instructions to the end of the code segment,
2. prepends a *guard* that falls back to the general entry when any
   bound register does not hold its profiled value,
3. rewrites the clone's body treating the bound registers as
   compile-time constants — folding register-register operations to
   their immediate twins, strength-reducing multiplies by 0/1/powers of
   two to moves and shifts, and folding fully-constant compare-and-branch
   instructions, every value computed by the opcode table's constant
   evaluator (:func:`repro.isa.instructions.evaluate`),
4. patches selected call sites to target the specialized entry (a
   one-word patch, so no other code moves).

The transformation is conservative: a binding is only applied to
registers the procedure never writes, and every rewrite preserves
semantics instruction-for-instruction, so the specialized program
produces bit-identical output (tests assert this on whole workloads).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import MachineError
from repro.isa.instructions import (
    OPCODES,
    Format,
    Instruction,
    cycle_cost,
    evaluate,
    to_signed64,
)
from repro.isa.program import Procedure, Program

#: Scratch register used by the guard; preserved via push/pop so the
#: transformation is liveness-oblivious.
_GUARD_SCRATCH = 7


@dataclass
class SpecializationReport:
    """What the specializer did to one procedure."""

    procedure: str
    variant: str
    bindings: Dict[int, int]
    entry: int
    folds: int = 0
    strength_reductions: int = 0
    branch_folds: int = 0
    #: static cycle saving per execution of each rewritten instruction
    #: (sum of old cost - new cost); the patch heuristic requires > 0
    #: so the per-call guard overhead is ever recoverable
    cycle_gain: int = 0
    patched_call_sites: List[int] = field(default_factory=list)

    @property
    def rewrites(self) -> int:
        return self.folds + self.strength_reductions + self.branch_folds


def written_registers(program: Program, procedure: Procedure) -> Set[int]:
    """Registers the procedure's own code may write."""
    written: Set[int] = set()
    for pc in range(procedure.start, procedure.end):
        inst = program.instructions[pc]
        if OPCODES[inst.opcode].writes == "rd":
            written.add(inst.rd)
    return written


def written_registers_transitive(program: Program, procedure: Procedure) -> Set[int]:
    """Registers the procedure or anything it may call can write.

    ``jal`` callees are followed recursively; an indirect call
    (``jalr``) could reach anything, so it conservatively returns all
    registers.  This is what makes binding an argument register sound
    across nested calls.
    """
    visited: Set[str] = set()
    written: Set[int] = set()

    def visit(proc: Procedure) -> bool:
        if proc.name in visited:
            return True
        visited.add(proc.name)
        for pc in range(proc.start, proc.end):
            inst = program.instructions[pc]
            info = OPCODES[inst.opcode]
            if info.defines_register:
                written.add(inst.rd)
            if inst.opcode == "jalr":
                return False  # indirect call: unbounded effects
            if inst.opcode == "jal":
                written.add(31)  # link register
                callee = program.procedure_at(inst.target)
                if callee is None or not visit(callee):
                    return False
        return True

    if not visit(procedure):
        return set(range(32))
    return written


def _power_of_two(value: int) -> Optional[int]:
    if value > 0 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


class _BodyRewriter:
    """Rewrites one cloned instruction under the constant bindings."""

    def __init__(self, consts: Mapping[int, int], report: SpecializationReport) -> None:
        self.consts = dict(consts)
        self.report = report

    def rewrite(self, inst: Instruction) -> Instruction:
        rewritten = self._rewrite(inst)
        if rewritten is not inst:
            self.report.cycle_gain += cycle_cost(inst.opcode) - cycle_cost(rewritten.opcode)
        return rewritten

    def _rewrite(self, inst: Instruction) -> Instruction:
        op = inst.opcode
        fmt = OPCODES[op].fmt
        if fmt is Format.RRR:
            return self._rewrite_rrr(inst)
        if fmt is Format.RRI:
            return self._rewrite_rri(inst)
        if fmt is Format.RR and op == "mov" and inst.ra in self.consts:
            self.report.folds += 1
            return Instruction("li", rd=inst.rd, imm=self.consts[inst.ra], line=inst.line)
        if fmt is Format.BRANCH:
            return self._rewrite_branch(inst)
        if fmt is Format.MEM and inst.ra in self.consts:
            # Constant base address: rebase onto r0.
            self.report.folds += 1
            return Instruction(
                op,
                rd=inst.rd,
                ra=0,
                imm=inst.imm + self.consts[inst.ra],
                line=inst.line,
            )
        return inst

    # ------------------------------------------------------------------

    def _value(self, reg: int) -> Optional[int]:
        if reg == 0:
            return 0
        return self.consts.get(reg)

    def _rewrite_rri(self, inst: Instruction) -> Instruction:
        a = self._value(inst.ra)
        if a is None:
            return inst
        folded = evaluate(inst.opcode, a, inst.imm)
        if folded is None:
            return inst
        self.report.folds += 1
        return Instruction("li", rd=inst.rd, imm=folded, line=inst.line)

    def _rewrite_rrr(self, inst: Instruction) -> Instruction:
        op = inst.opcode
        a = self._value(inst.ra)
        b = self._value(inst.rb)
        if a is not None and b is not None:
            folded = evaluate(op, a, b)
            if folded is not None:
                self.report.folds += 1
                return Instruction("li", rd=inst.rd, imm=folded, line=inst.line)
        if op == "mul":
            return self._rewrite_mul(inst, a, b)
        info = OPCODES[op]
        if b is not None:
            if info.divides and b == 0:
                return inst  # keep the faulting semantics
            self.report.folds += 1
            return Instruction(info.twin, rd=inst.rd, ra=inst.ra, imm=b, line=inst.line)
        if a is not None and info.commutes:
            self.report.folds += 1
            return Instruction(info.twin, rd=inst.rd, ra=inst.rb, imm=a, line=inst.line)
        return inst

    def _rewrite_mul(self, inst: Instruction, a: Optional[int], b: Optional[int]) -> Instruction:
        # Strength reduction; the known operand may be on either side.
        known, other = (b, inst.ra) if b is not None else (a, inst.rb)
        if known is None:
            return inst
        if known == 0:
            self.report.strength_reductions += 1
            return Instruction("li", rd=inst.rd, imm=0, line=inst.line)
        if known == 1:
            self.report.strength_reductions += 1
            return Instruction("mov", rd=inst.rd, ra=other, line=inst.line)
        shift = _power_of_two(known)
        if shift is not None:
            self.report.strength_reductions += 1
            return Instruction("slli", rd=inst.rd, ra=other, imm=shift, line=inst.line)
        self.report.folds += 1
        return Instruction("muli", rd=inst.rd, ra=other, imm=known, line=inst.line)

    def _rewrite_branch(self, inst: Instruction) -> Instruction:
        a = self._value(inst.ra)
        b = self._value(inst.rb)
        if a is None or b is None:
            return inst
        taken = evaluate(inst.opcode, a, b)
        self.report.branch_folds += 1
        if taken:
            return Instruction("j", target=inst.target, line=inst.line)
        return Instruction("nop", line=inst.line)


def specialize_procedure(
    program: Program,
    procedure_name: str,
    bindings: Mapping[int, int],
    variant_name: Optional[str] = None,
) -> Tuple[Program, SpecializationReport]:
    """Clone + guard + fold one procedure; returns the new program.

    Args:
        program: the program to extend (not mutated).
        procedure_name: the general procedure to specialize.
        bindings: argument register index -> profiled invariant value.
            Every bound register must never be written by the procedure.
        variant_name: name of the specialized procedure (defaults to
            ``<name>__spec``).

    The returned program contains both versions; use
    :func:`patch_call_site` to route callers to the variant.
    """
    if not bindings:
        raise MachineError("specialize_procedure: no register bindings given")
    procedure = program.procedures.get(procedure_name)
    if procedure is None:
        raise MachineError(f"{program.name}: no procedure named {procedure_name!r}")
    writable = written_registers_transitive(program, procedure)
    clobbered = sorted(set(bindings) & writable)
    if clobbered:
        raise MachineError(
            f"{procedure_name} writes register(s) r{clobbered}: binding them is unsound"
        )
    for reg in bindings:
        if not 0 < reg < 32:
            raise MachineError(f"cannot bind register r{reg}")

    variant_name = variant_name or f"{procedure_name}__spec"
    if variant_name in program.procedures:
        raise MachineError(f"{program.name}: procedure {variant_name!r} already exists")

    new_instructions = [copy.copy(inst) for inst in program.instructions]
    base = len(new_instructions)

    # --- guard: push scratch, compare every binding, fall back --------
    guard: List[Instruction] = []
    guard.append(Instruction("subi", rd=29, ra=29, imm=1))
    guard.append(Instruction("st", rd=_GUARD_SCRATCH, ra=29, imm=0))
    for reg, value in sorted(bindings.items()):
        guard.append(Instruction("snei", rd=_GUARD_SCRATCH, ra=reg, imm=value))
        # Branch target (the fallback block) is resolved after layout.
        guard.append(Instruction("bne", ra=_GUARD_SCRATCH, rb=0, target=-1))
    guard.append(Instruction("ld", rd=_GUARD_SCRATCH, ra=29, imm=0))
    guard.append(Instruction("addi", rd=29, ra=29, imm=1))
    body_jump = Instruction("j", target=-1)
    guard.append(body_jump)
    # fallback block: restore scratch, jump to the general entry
    fallback_start = len(guard)
    guard.append(Instruction("ld", rd=_GUARD_SCRATCH, ra=29, imm=0))
    guard.append(Instruction("addi", rd=29, ra=29, imm=1))
    guard.append(Instruction("j", target=procedure.start))

    body_start = base + len(guard)
    for inst in guard:
        if inst.opcode == "bne":
            inst.target = base + fallback_start
    body_jump.target = body_start

    # --- body: clone with target remap, then fold ---------------------
    report = SpecializationReport(
        procedure=procedure_name,
        variant=variant_name,
        bindings=dict(bindings),
        entry=base,
    )
    offset = body_start - procedure.start

    # Basic-block leaders within the procedure: local constants learned
    # from ``li``/``la`` must not flow across join points.
    leaders: Set[int] = {procedure.start}
    for pc in range(procedure.start, procedure.end):
        inst = program.instructions[pc]
        if OPCODES[inst.opcode].is_branch:
            if OPCODES[inst.opcode].fmt in (Format.BRANCH, Format.LABEL):
                if procedure.start <= inst.target < procedure.end:
                    leaders.add(inst.target)
            if pc + 1 < procedure.end:
                leaders.add(pc + 1)

    local_consts: Dict[int, int] = {}
    body: List[Instruction] = []
    for pc in range(procedure.start, procedure.end):
        if pc in leaders:
            local_consts = {}
        inst = copy.copy(program.instructions[pc])
        if OPCODES[inst.opcode].fmt in (Format.BRANCH, Format.LABEL):
            if procedure.start <= inst.target < procedure.end:
                inst.target += offset  # intra-procedure control flow
            # cross-procedure targets (e.g. nested calls) stay absolute
        env = dict(local_consts)
        env.update(bindings)  # bindings win and are never overwritten
        rewriter = _BodyRewriter(env, report)
        inst = rewriter.rewrite(inst)
        # Update block-local knowledge from the rewritten instruction.
        info = OPCODES[inst.opcode]
        if inst.opcode in ("li", "la"):
            if inst.rd != 0:
                local_consts[inst.rd] = to_signed64(inst.imm)
        elif info.writes == "rd":
            local_consts.pop(inst.rd, None)
        if inst.opcode in ("jal", "jalr"):
            local_consts = {}  # callee may clobber caller-saved state
        body.append(inst)

    new_instructions.extend(guard)
    new_instructions.extend(body)
    for pc, inst in enumerate(new_instructions):
        inst.pc = pc
    for pc in range(base, len(new_instructions)):
        new_instructions[pc].procedure = variant_name

    procedures = dict(program.procedures)
    procedures[variant_name] = Procedure(
        name=variant_name,
        start=base,
        end=len(new_instructions),
        nargs=procedure.nargs,
    )
    labels = dict(program.labels)
    labels[variant_name] = base

    specialized = Program(
        name=program.name,
        instructions=new_instructions,
        procedures=procedures,
        labels=labels,
        data_symbols=dict(program.data_symbols),
        data_image=list(program.data_image),
        entry=program.entry,
        source=program.source,
    )
    return specialized, report


def patch_call_site(program: Program, call_pc: int, variant_name: str) -> None:
    """Retarget the ``jal`` at ``call_pc`` to the specialized entry.

    A single-word patch (mirrors binary patching): no instruction moves,
    so every other target stays valid.  The guard inside the variant
    keeps the patch safe even if the profiled invariance was imperfect.
    """
    if not 0 <= call_pc < len(program.instructions):
        raise MachineError(f"{program.name}: call site pc {call_pc} out of range")
    inst = program.instructions[call_pc]
    if inst.opcode != "jal":
        raise MachineError(
            f"{program.name}: pc {call_pc} is {inst.opcode!r}, not a direct call"
        )
    variant = program.procedures.get(variant_name)
    if variant is None:
        raise MachineError(f"{program.name}: no procedure named {variant_name!r}")
    inst.target = variant.start
