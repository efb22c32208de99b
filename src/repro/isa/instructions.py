"""The VPA instruction set.

VPA ("Value Profiling Architecture") is the Alpha-flavoured 64-bit RISC
this reproduction uses in place of DEC Alpha binaries.  It is a load/
store register machine:

* 32 general registers ``r0``–``r31``; ``r0`` is hardwired to zero.
  Convention: ``r1``–``r6`` carry arguments and ``r1`` the return
  value, ``r29`` is the stack pointer, ``r31`` the link register.
* Word-addressed data memory; every cell holds one 64-bit value.
* Two's-complement 64-bit arithmetic with wraparound.

The set below is deliberately small but covers everything the SPEC95
analogues need and — crucially for the paper — gives every *register-
defining* instruction a well-defined destination value to profile.

Each opcode carries metadata: its operand format (how the assembler
parses it), its *class* for the per-instruction-class breakdown (Table
V.3), and its semantics — the registers it reads and writes and a
Python template of the value it computes (or, for a conditional
branch, of its condition).  The table is the one statement of opcode
semantics outside the reference interpreter loop
(:meth:`repro.isa.machine.Machine.run` with ``engine="simple"``): the
threaded engine's handlers, the tier-2 superinstructions and both
constant folders (tier-2's and the binary specializer's) are rendered
or evaluated from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


class Format(enum.Enum):
    """Operand encodings understood by the assembler."""

    RRR = "rd, ra, rb"  # three registers
    RRI = "rd, ra, imm"  # two registers + immediate
    RI = "rd, imm"  # register + immediate (li)
    RL = "rd, label"  # register + label address (la)
    RR = "rd, ra"  # two registers (mov, jalr)
    R = "rd"  # one register (in, out, jr)
    MEM = "rd, off(ra)"  # loads/stores
    BRANCH = "ra, rb, label"  # compare-and-branch
    LABEL = "label"  # jumps/calls
    NONE = ""  # halt, nop, ret


class InsnClass(enum.Enum):
    """Instruction families used by the Table V.3 breakdown."""

    LOAD = "load"
    STORE = "store"
    ALU = "alu"
    MULDIV = "muldiv"
    SHIFT = "shift"
    COMPARE = "compare"
    MOVE = "move"
    BRANCH = "branch"
    JUMP = "jump"
    IO = "io"
    SYSTEM = "system"


@dataclass(frozen=True)
class OpcodeInfo:
    """Static description of one VPA opcode: encoding, class, semantics.

    ``reads`` names the register operands the opcode reads, in operand
    order, and ``writes`` the one it writes (``"rd"`` or ``""``).

    ``value`` is a Python expression for the value a register-defining
    opcode computes, or for a conditional branch's condition.  ``{a}``
    is its first operand and ``{b}`` its second: the registers it
    reads, then its immediate.  ``B`` and ``Mk`` are :data:`SIGN_BIT`
    and :data:`WORD_MASK`; ``((v + B) & Mk) - B`` wraps ``v`` to signed
    64 bits.  Operand ``b`` of a shift counts only its low six bits.
    Operand ``b`` of a ``divides`` opcode is a divisor: zero traps, and
    ``{q}`` is the quotient truncated toward zero.

    ``twin`` is the register/immediate twin (``add`` and ``addi``).
    ``commutes`` says the operands may swap; ``identity`` is an operand
    ``b`` (or ``a``, when it commutes) that leaves the other one as the
    value, and ``absorbing`` one that is the value whatever the other.
    """

    mnemonic: str
    fmt: Format
    insn_class: InsnClass
    description: str
    reads: Tuple[str, ...] = ()
    writes: str = ""
    value: str = ""
    twin: str = ""
    commutes: bool = False
    identity: Optional[int] = None
    absorbing: Optional[int] = None
    divides: bool = False

    @property
    def defines_register(self) -> bool:
        """Defines a register value: a value-profiling site."""
        return self.writes == "rd" and self.insn_class is not InsnClass.JUMP

    @property
    def has_immediate(self) -> bool:
        return self.fmt in (Format.RRI, Format.RI, Format.RL, Format.MEM)

    @property
    def is_load(self) -> bool:
        return self.insn_class is InsnClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.insn_class is InsnClass.STORE

    @property
    def is_branch(self) -> bool:
        return self.insn_class in (InsnClass.BRANCH, InsnClass.JUMP)

    @property
    def falls_through(self) -> bool:
        """Always continues at the next pc: no branch, jump or halt."""
        return not self.is_branch and self.mnemonic != "halt"


def _pair(reg: str, imm: str, insn_class: InsnClass, description: str, value: str,
          **algebra) -> Tuple[OpcodeInfo, OpcodeInfo]:
    """A register-register opcode and its register-immediate twin."""
    return (
        OpcodeInfo(reg, Format.RRR, insn_class, f"rd = {description}",
                   ("ra", "rb"), "rd", value, twin=imm, **algebra),
        OpcodeInfo(imm, Format.RRI, insn_class, f"rd = {description.replace('rb', 'imm')}",
                   ("ra",), "rd", value, twin=reg, **algebra),
    )


def _branch(mnemonic: str, condition: str) -> OpcodeInfo:
    return OpcodeInfo(mnemonic, Format.BRANCH, InsnClass.BRANCH,
                      f"if ra {condition} rb goto label", ("ra", "rb"),
                      value=f"{{a}} {condition} {{b}}")


#: Every opcode of the architecture, keyed by mnemonic.
OPCODES: Dict[str, OpcodeInfo] = {
    info.mnemonic: info
    for info in [
        # arithmetic -------------------------------------------------
        *_pair("add", "addi", InsnClass.ALU, "ra + rb", "(({a} + {b} + B) & Mk) - B",
               commutes=True, identity=0),
        *_pair("sub", "subi", InsnClass.ALU, "ra - rb", "(({a} - {b} + B) & Mk) - B",
               identity=0),
        *_pair("mul", "muli", InsnClass.MULDIV, "ra * rb", "(({a} * {b} + B) & Mk) - B",
               commutes=True, identity=1, absorbing=0),
        *_pair("div", "divi", InsnClass.MULDIV, "ra / rb (trunc, fault on 0)",
               "(({q} + B) & Mk) - B", divides=True),
        *_pair("rem", "remi", InsnClass.MULDIV, "ra mod rb (trunc, fault on 0)",
               "(({a} - {q} * {b} + B) & Mk) - B", divides=True),
        # bitwise ------------------------------------------------------
        *_pair("and", "andi", InsnClass.ALU, "ra & rb", "(({a} & {b}) + B & Mk) - B",
               commutes=True, identity=-1, absorbing=0),
        *_pair("or", "ori", InsnClass.ALU, "ra | rb", "(({a} | {b}) + B & Mk) - B",
               commutes=True, identity=0, absorbing=-1),
        *_pair("xor", "xori", InsnClass.ALU, "ra ^ rb", "(({a} ^ {b}) + B & Mk) - B",
               commutes=True, identity=0),
        # shifts -------------------------------------------------------
        *_pair("sll", "slli", InsnClass.SHIFT, "ra << (rb & 63)",
               "((({a} << {b}) + B) & Mk) - B", identity=0),
        *_pair("srl", "srli", InsnClass.SHIFT, "(unsigned) ra >> (rb & 63)",
               "(((({a} & Mk) >> {b}) + B) & Mk) - B", identity=0),
        *_pair("sra", "srai", InsnClass.SHIFT, "(signed) ra >> (rb & 63)",
               "((({a} >> {b}) + B) & Mk) - B", identity=0),
        # comparisons --------------------------------------------------
        *_pair("slt", "slti", InsnClass.COMPARE, "1 if ra < rb else 0", "1 if {a} < {b} else 0"),
        *_pair("seq", "seqi", InsnClass.COMPARE, "1 if ra == rb else 0",
               "1 if {a} == {b} else 0", commutes=True),
        *_pair("sne", "snei", InsnClass.COMPARE, "1 if ra != rb else 0",
               "1 if {a} != {b} else 0", commutes=True),
        # moves / constants -------------------------------------------
        OpcodeInfo("li", Format.RI, InsnClass.MOVE, "rd = imm (any 64-bit constant)",
                   (), "rd", "(({a} + B) & Mk) - B"),
        OpcodeInfo("la", Format.RL, InsnClass.MOVE, "rd = address of data label", (), "rd", "{a}"),
        OpcodeInfo("mov", Format.RR, InsnClass.MOVE, "rd = ra", ("ra",), "rd", "{a}"),
        # memory -------------------------------------------------------
        OpcodeInfo("ld", Format.MEM, InsnClass.LOAD, "rd = memory[ra + off]", ("ra",), "rd"),
        OpcodeInfo("st", Format.MEM, InsnClass.STORE, "memory[ra + off] = rd", ("ra", "rd")),
        # control flow -------------------------------------------------
        _branch("beq", "=="),
        _branch("bne", "!="),
        _branch("blt", "<"),
        _branch("bge", ">="),
        _branch("ble", "<="),
        _branch("bgt", ">"),
        OpcodeInfo("j", Format.LABEL, InsnClass.JUMP, "goto label"),
        OpcodeInfo("jal", Format.LABEL, InsnClass.JUMP, "r31 = pc + 1; goto label (call)"),
        OpcodeInfo("jalr", Format.RR, InsnClass.JUMP, "rd = pc + 1; goto ra (indirect call)",
                   ("ra",), "rd"),
        OpcodeInfo("jr", Format.R, InsnClass.JUMP, "goto rd (return / computed jump)", ("rd",)),
        # i/o and system ----------------------------------------------
        OpcodeInfo("in", Format.R, InsnClass.IO, "rd = next input value (0 at EOF)", (), "rd"),
        OpcodeInfo("out", Format.R, InsnClass.IO, "append rd to the output stream", ("rd",)),
        OpcodeInfo("nop", Format.NONE, InsnClass.SYSTEM, "do nothing"),
        OpcodeInfo("halt", Format.NONE, InsnClass.SYSTEM, "stop the machine"),
    ]
}

#: Latency model used by the machine's cycle accounting (simple scalar
#: in-order costs: multiplies/divides are long-latency, memory costs 2).
CYCLE_COSTS = {
    InsnClass.LOAD: 2,
    InsnClass.STORE: 2,
    InsnClass.MULDIV: 4,
    InsnClass.ALU: 1,
    InsnClass.SHIFT: 1,
    InsnClass.COMPARE: 1,
    InsnClass.MOVE: 1,
    InsnClass.BRANCH: 1,
    InsnClass.JUMP: 1,
    InsnClass.IO: 1,
    InsnClass.SYSTEM: 1,
}


def cycle_cost(mnemonic: str) -> int:
    """Cycles charged for one execution of ``mnemonic``."""
    return CYCLE_COSTS[OPCODES[mnemonic].insn_class]


NUM_REGISTERS = 32
WORD_MASK = (1 << 64) - 1
SIGN_BIT = 1 << 63

REG_ZERO = 0
REG_RETURN = 1
REG_ARGS = (1, 2, 3, 4, 5, 6)
REG_SP = 29
REG_LINK = 31


def to_signed64(value: int) -> int:
    """Wrap a Python int to signed two's-complement 64-bit."""
    value &= WORD_MASK
    if value & SIGN_BIT:
        value -= 1 << 64
    return value


#: each ``value`` template compiled once, as a function of (a, b, q).
_EVALUATORS = {
    info.mnemonic: eval(  # noqa: S307 - templates are the constant table above
        "lambda a, b, q: " + info.value.format(a="a", b="b", q="q"),
        {"B": SIGN_BIT, "Mk": WORD_MASK},
    )
    for info in OPCODES.values()
    if info.value
}


def evaluate(mnemonic: str, a: int, b: int = 0):
    """What ``mnemonic`` computes from operand values ``a`` and ``b``.

    ``a`` and ``b`` are the operands of its ``value`` template (the
    register values it reads, then its immediate).  Returns the defined
    register's value, or for a conditional branch whether it is taken;
    ``None`` when ``b`` is a zero divisor, since the instruction traps.
    """
    info = OPCODES[mnemonic]
    if info.insn_class is InsnClass.SHIFT:
        b &= 63
    q = 0
    if info.divides:
        if b == 0:
            return None
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
    return _EVALUATORS[mnemonic](a, b, q)


@dataclass
class Instruction:
    """One decoded VPA instruction.

    ``rd``/``ra``/``rb`` are register indices, ``imm`` an immediate or
    memory offset, ``target`` a resolved code address for control flow.
    ``pc`` and ``procedure`` locate the instruction for profiling and
    diagnostics; ``line`` is the assembly source line.
    """

    opcode: str
    rd: int = 0
    ra: int = 0
    rb: int = 0
    imm: int = 0
    target: int = 0
    pc: int = 0
    procedure: str = ""
    line: int = 0

    @property
    def info(self) -> OpcodeInfo:
        return OPCODES[self.opcode]

    def render(self) -> str:
        """Disassemble back to canonical assembly text."""
        info = self.info
        fmt = info.fmt
        if fmt is Format.RRR:
            ops = f"r{self.rd}, r{self.ra}, r{self.rb}"
        elif fmt is Format.RRI:
            ops = f"r{self.rd}, r{self.ra}, {self.imm}"
        elif fmt is Format.RI:
            ops = f"r{self.rd}, {self.imm}"
        elif fmt is Format.RL:
            ops = f"r{self.rd}, {self.imm}"
        elif fmt is Format.RR:
            ops = f"r{self.rd}, r{self.ra}"
        elif fmt is Format.R:
            ops = f"r{self.rd}"
        elif fmt is Format.MEM:
            ops = f"r{self.rd}, {self.imm}(r{self.ra})"
        elif fmt is Format.BRANCH:
            ops = f"r{self.ra}, r{self.rb}, @{self.target}"
        elif fmt is Format.LABEL:
            ops = f"@{self.target}"
        else:
            ops = ""
        text = self.opcode if not ops else f"{self.opcode} {ops}"
        return text

    def __str__(self) -> str:
        return f"{self.pc:5d}: {self.render()}"


def opcode_info(mnemonic: str) -> Optional[OpcodeInfo]:
    """Lookup that returns ``None`` for unknown mnemonics."""
    return OPCODES.get(mnemonic)
