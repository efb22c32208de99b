"""Profile-site identity.

A *site* is the unit the paper profiles: a static instruction, a load, a
memory location, or a procedure parameter.  The profiling core is
deliberately agnostic about where values come from — a site is just a
hashable identity plus a little descriptive metadata — so the same TNV
machinery serves the ISA front end (ATOM-style instrumentation of the
VPA simulator), the Python front end, and synthetic traces in tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import List, Optional, Sequence

from repro.errors import ProfileError


class SiteKind(str, enum.Enum):
    """What program entity a profile site refers to.

    The thesis profiles four families of entities; ``PYTHON`` covers the
    host-language front end and ``CALL`` the per-call-site view used by
    the specializer.  A ``str`` mixin so :class:`Site` tuples order
    naturally and kinds serialize as plain strings.
    """

    INSTRUCTION = "instruction"
    LOAD = "load"
    MEMORY = "memory"
    PARAMETER = "parameter"
    RETURN = "return"
    CALL = "call"
    PYTHON = "python"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, order=True)
class Site:
    """Identity of one profiled entity.

    Attributes:
        kind: the family of entity (instruction, load, memory, ...).
        program: the workload or module the site belongs to.
        procedure: enclosing procedure (empty for memory locations).
        label: entity-specific discriminator — the instruction's program
            counter rendered as text, a memory address, a parameter
            index, or a Python variable name.
        opcode: mnemonic of the defining instruction when applicable;
            used by the per-instruction-class breakdown (Table V.3).
    """

    kind: SiteKind
    program: str
    procedure: str = ""
    label: str = ""
    opcode: str = field(default="", compare=False)

    def qualified_name(self) -> str:
        """Human-readable ``program:procedure+label`` identifier."""
        parts = [self.program]
        if self.procedure:
            parts.append(self.procedure)
        name = ":".join(parts)
        if self.label:
            name = f"{name}+{self.label}"
        return name

    def __str__(self) -> str:
        return f"{self.kind.value}({self.qualified_name()})"


#: the fields of a site, in the order a site table's columns list them.
SITE_FIELDS = ("kind", "program", "procedure", "label", "opcode")

#: one getter per field of :data:`SITE_FIELDS`, read in C; the kind's
#: is its string value (``kind._value_``, the enum's own value slot).
#: A site table (the profile database's) is kept and pickled as five
#: flat lists of these values: a fixed number of lists, with no
#: container built per site, and each string shared across sites
#: pickles once.
SITE_FIELD_GETTERS = (attrgetter("kind._value_"), *map(attrgetter, SITE_FIELDS[1:]))

#: each kind by its string value.
_KINDS = {kind.value: kind for kind in SiteKind}


def sites_from_columns(columns: Sequence[list]) -> List[Site]:
    """Rebuild the sites of a site table's five columns, in order.

    Columns that are not five lists of one length, or a kind that is not
    a :class:`SiteKind` value, raise :class:`~repro.errors.ProfileError`.
    """
    if len(columns) != len(SITE_FIELDS) or len({len(column) for column in columns}) > 1:
        raise ProfileError(
            f"a pickled site table holds columns of lengths "
            f"{[len(column) for column in columns]}, not five of one length"
        )
    kinds, *fields = columns
    try:
        # A dict lookup, not ``SiteKind(value)``: the enum's own lookup
        # runs Python frames, about 4 µs a site.
        kinds = [_KINDS[kind] for kind in kinds]
    except (KeyError, TypeError) as error:
        raise ProfileError(f"a pickled site table holds the unknown kind {error}") from None
    return list(map(Site, kinds, *fields))


def instruction_site(program: str, procedure: str, pc: int, opcode: str) -> Site:
    """Site for the destination register of a static instruction."""
    return Site(
        kind=SiteKind.INSTRUCTION,
        program=program,
        procedure=procedure,
        label=str(pc),
        opcode=opcode,
    )


def load_site(program: str, procedure: str, pc: int, opcode: str = "ld") -> Site:
    """Site for the value fetched by a static load instruction."""
    return Site(
        kind=SiteKind.LOAD,
        program=program,
        procedure=procedure,
        label=str(pc),
        opcode=opcode,
    )


def memory_site(program: str, address: int) -> Site:
    """Site for one memory word, profiled on every store to it."""
    return Site(kind=SiteKind.MEMORY, program=program, label=hex(address))


def parameter_site(
    program: str, procedure: str, index: int, call_pc: Optional[int] = None
) -> Site:
    """Site for the ``index``-th argument of ``procedure``.

    With ``call_pc`` the site is that argument as passed from one
    calling site (``arg{index}@{call_pc}``), the key of
    calling-context-sensitive parameter profiling.
    """
    label = f"arg{index}" if call_pc is None else f"arg{index}@{call_pc}"
    return Site(
        kind=SiteKind.PARAMETER,
        program=program,
        procedure=procedure,
        label=label,
    )


def return_site(program: str, procedure: str) -> Site:
    """Site for the value a procedure returns (``r1`` at ``ret``)."""
    return Site(kind=SiteKind.RETURN, program=program, procedure=procedure, label="ret")


def python_site(module: str, function: str, label: str) -> Site:
    """Site for a Python-level value (argument, return, or assignment)."""
    return Site(kind=SiteKind.PYTHON, program=module, procedure=function, label=label)
