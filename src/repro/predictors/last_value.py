"""Last-value predictor (LVP) — Lipasti et al. [27, 28].

Predicts that an instruction produces the same value it produced on its
previous execution.  This is the hardware counterpart of the thesis'
LVP metric: a site's LVP metric *is* this predictor's accuracy on the
site's trace, which the test suite asserts.

The optional saturating confidence counter models the classification
bits real LVP tables carry: predictions are only made above the
confidence threshold, trading coverage for misprediction rate.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence

from repro.predictors.base import Predictor, Value


class LastValuePredictor(Predictor):
    """Predict the previously seen value.

    Args:
        confidence_bits: width of the saturating confidence counter.
            0 (default) predicts whenever a previous value exists.
        threshold: counter value required to make a prediction; at
            most the counter's maximum, ``2**confidence_bits - 1``.
    """

    name = "lvp"

    def __init__(self, confidence_bits: int = 0, threshold: int = 1) -> None:
        if confidence_bits < 0:
            raise ValueError("confidence_bits must be >= 0")
        self._last: Optional[Value] = None
        self._has_last = False
        self._max_count = (1 << confidence_bits) - 1 if confidence_bits else 0
        if confidence_bits and threshold > self._max_count:
            raise ValueError(
                f"threshold {threshold} exceeds the {confidence_bits}-bit "
                f"counter's maximum {self._max_count}: it could never predict"
            )
        self._threshold = threshold if confidence_bits else 0
        self._confidence = 0

    def predict(self) -> Optional[Value]:
        if not self._has_last:
            return None
        if self._max_count and self._confidence < self._threshold:
            return None
        return self._last

    def update(self, value: Value) -> None:
        if self._max_count:
            if self._has_last and value == self._last:
                self._confidence = min(self._max_count, self._confidence + 1)
            else:
                self._confidence = max(0, self._confidence - 1)
        self._last = value
        self._has_last = True

    def guesses(self, trace: Sequence) -> List[Optional[Value]]:
        if self._max_count:
            return super().guesses(trace)
        # No confidence counter: the guess column is the trace shifted
        # one event right.
        if not trace:
            return []
        column = [self._last if self._has_last else None]
        column += trace[:-1]
        self._last = trace[-1]
        self._has_last = True
        return column

    def config(self) -> Hashable:
        return (type(self), self._max_count, self._threshold)
