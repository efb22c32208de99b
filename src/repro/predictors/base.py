"""Value-predictor interface.

The thesis motivates value profiling with hardware value prediction
(§II.A): a predictor guesses an instruction's next output value from
its history.  Each predictor here models the per-instruction state one
entry of a hardware Value History Table would hold; the harness in
:mod:`repro.predictors.harness` instantiates one per site and replays
recorded value traces through it.

Protocol: for each dynamic execution, first
:meth:`Predictor.predict` (``None`` means "no prediction", a miss),
then :meth:`Predictor.update` with the actual value.  The harness does
not call these per event: :meth:`Predictor.guesses` runs the whole
trace at once and returns the *guess column*, the value predicted
before each event.  The predictors the harness runs override it with a
fused loop that keeps their state in locals; the base-class version
below is the per-event protocol itself, kept as the executable spec and
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq
from typing import Hashable, Iterable, List, Optional, Sequence

Value = Hashable


class Predictor:
    """One site's prediction state."""

    #: short name used in result tables
    name: str = "base"

    def predict(self) -> Optional[Value]:
        """The predicted next value, or ``None`` for no prediction."""
        raise NotImplementedError

    def update(self, value: Value) -> None:
        """Observe the actual value produced by this execution."""
        raise NotImplementedError

    def guesses(self, trace: Sequence) -> List[Optional[Value]]:
        """The value predicted before each event of ``trace`` (a list
        or tuple).

        Leaves the predictor in the state per-event replay would.  A
        subclass that changes :meth:`predict` or :meth:`update` must
        override this too (or call this version).
        """
        column: List[Optional[Value]] = []
        append = column.append
        predict = self.predict
        update = self.update
        for value in trace:
            append(predict())
            update(value)
        return column

    def config(self) -> Optional[Hashable]:
        """Hashable identity of this predictor's construction settings.

        Two fresh predictors with equal configs produce the same guess
        column on any trace, so the harness computes it once.  ``None``
        (the default) means "unknown": never shared.
        """
        return None


@dataclass(frozen=True)
class PredictionStats:
    """Outcome of replaying one trace through one predictor."""

    predictor: str
    executions: int
    hits: int
    no_prediction: int

    @property
    def accuracy(self) -> float:
        """Correct predictions over all executions (misses include
        executions where the predictor offered no prediction)."""
        if self.executions == 0:
            return 0.0
        return self.hits / self.executions


def score(name: str, trace: Sequence, column: List[Optional[Value]]) -> PredictionStats:
    """Score a guess column against the values it guessed."""
    no_prediction = column.count(None)
    hits = sum(map(eq, column, trace))
    if no_prediction and None in trace:
        # A missing guess is never a hit, even before a None value.
        hits -= sum(1 for guess, value in zip(column, trace) if guess is None and value is None)
    return PredictionStats(name, len(trace), hits, no_prediction)


def run_trace(predictor: Predictor, trace: Iterable[Value]) -> PredictionStats:
    """Replay ``trace`` through ``predictor`` and score it."""
    if not isinstance(trace, (list, tuple)):
        trace = list(trace)
    return score(predictor.name, trace, predictor.guesses(trace))
