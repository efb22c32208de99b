"""Hybrid value predictors — Wang & Franklin [39].

A hybrid couples component predictors with a per-site selector of
saturating counters: every execution, each component makes its private
prediction; the hybrid's prediction is the most-confident component's;
afterwards every component's counter is bumped on a private hit and
decayed on a private miss.  The thesis quotes the reference hit-rate
ordering hybrid(stride, 2-level) > hybrid(LVP, stride) > stride ≈
2-level > LVP, which the ``table-predictors`` experiment reproduces.

Over a whole trace, the selector only needs each component's guess
column (:meth:`HybridPredictor.select`), so the harness can compute a
component's column once and share it with the standalone predictor of
the same configuration.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional, Sequence

from repro.predictors.base import Predictor, Value
from repro.predictors.context import TwoLevelPredictor
from repro.predictors.last_value import LastValuePredictor
from repro.predictors.stride import StridePredictor


class HybridPredictor(Predictor):
    """Selector-based combination of component predictors.

    Args:
        components: component predictor instances (per-site).
        counter_max: saturation limit of each selection counter.
        name: table label; defaults to ``hybrid(a+b)``.
    """

    name = "hybrid"

    def __init__(
        self,
        components: Sequence[Predictor],
        counter_max: int = 15,
        name: Optional[str] = None,
    ) -> None:
        if not components:
            raise ValueError("hybrid needs at least one component")
        self.components = list(components)
        self.counter_max = counter_max
        self._counters: List[int] = [counter_max // 2] * len(self.components)
        self._last_predictions: List[Optional[Value]] = [None] * len(self.components)
        if name is not None:
            self.name = name
        else:
            inner = "+".join(component.name for component in self.components)
            self.name = f"hybrid({inner})"

    def predict(self) -> Optional[Value]:
        best_value: Optional[Value] = None
        best_confidence = -1
        for index, component in enumerate(self.components):
            guess = component.predict()
            self._last_predictions[index] = guess
            # >= so ties go to the later (typically stronger) component.
            if guess is not None and self._counters[index] >= best_confidence:
                best_confidence = self._counters[index]
                best_value = guess
        return best_value

    def update(self, value: Value) -> None:
        for index, component in enumerate(self.components):
            guess = self._last_predictions[index]
            if guess is not None:
                if guess == value:
                    self._counters[index] = min(self.counter_max, self._counters[index] + 1)
                else:
                    self._counters[index] = max(0, self._counters[index] - 1)
            component.update(value)

    def select(self, trace: Sequence, columns: Sequence[List[Optional[Value]]]) -> List[Optional[Value]]:
        """The hybrid's guess column, given each component's over ``trace``.

        Advances the selector counters only; the components' own state
        is whatever produced ``columns``.
        """
        column: List[Optional[Value]] = []
        append = column.append
        counter_max = self.counter_max
        counters = self._counters
        for value, guesses in zip(trace, zip(*columns)):
            best_value = None
            best_confidence = -1
            for index, guess in enumerate(guesses):
                if guess is not None:
                    confidence = counters[index]
                    # >= so ties go to the later (typically stronger) component.
                    if confidence >= best_confidence:
                        best_confidence = confidence
                        best_value = guess
                    if guess == value:
                        counters[index] = confidence + 1 if confidence < counter_max else counter_max
                    else:
                        counters[index] = confidence - 1 if confidence > 0 else 0
            append(best_value)
        if column:
            self._last_predictions = [guesses[-1] for guesses in columns]
        return column

    def config(self) -> Optional[Hashable]:
        inner = tuple(component.config() for component in self.components)
        if None in inner:
            return None
        return (type(self), self.counter_max, inner)


PredictorFactory = Callable[[], Predictor]


def lvp_stride_hybrid() -> HybridPredictor:
    """The paper's first hybrid: LVP + stride."""
    return HybridPredictor([LastValuePredictor(), StridePredictor()], name="hybrid(lvp+stride)")


def stride_2level_hybrid() -> HybridPredictor:
    """The paper's second (best) hybrid: stride + 2-level."""
    return HybridPredictor([StridePredictor(), TwoLevelPredictor()], name="hybrid(stride+2level)")
