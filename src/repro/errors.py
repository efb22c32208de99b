"""Exception hierarchy for the value-profiling library.

Every error raised by this package derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ProfileError(ReproError):
    """A profiling data structure was used inconsistently.

    Examples: recording into a frozen profile, merging profiles whose
    sites disagree, or requesting metrics from an empty profile when the
    caller asked for strict behaviour.
    """


class AssemblerError(ReproError):
    """The VPA assembler rejected a source program.

    Carries the source line number when available so workload authors
    can locate the offending statement.
    """

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MachineError(ReproError):
    """The VPA interpreter hit a run-time fault.

    Raised for out-of-range memory accesses, division by zero, executing
    past the end of a program, or exceeding the configured instruction
    budget.
    """


class WorkloadError(ReproError):
    """A workload was misconfigured or produced an invalid result."""


class SpecializationError(ReproError):
    """Code specialization was attempted on an unsupported function."""


class ExperimentError(ReproError):
    """An experiment id is unknown or an experiment failed to run."""


class ObsFileError(ReproError):
    """An observability file could not be read: a metrics snapshot, a
    trace, a flight-recorder dump or a jitlog.

    The message names the file and, for a line-oriented (JSONL) file,
    the 1-based line that failed; :attr:`path` and :attr:`line` carry
    the same.
    """

    def __init__(self, path: str, problem: str, line: int | None = None) -> None:
        self.path = path
        self.line = line
        where = path if line is None else f"{path}, line {line}"
        super().__init__(f"{where}: {problem}")
