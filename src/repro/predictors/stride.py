"""Stride predictor — Gabbay & Mendelson [17, 18].

Predicts ``last + stride``.  With stride 0 it degenerates to last-value
prediction, which is why the thesis notes stride subsumes LVP.  The
default is the *two-delta* variant used in the literature: the
committed stride only changes after the same delta is observed twice in
a row, which stops loop-exit glitches from corrupting a stable stride.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence

from repro.predictors.base import Predictor, Value


class StridePredictor(Predictor):
    """Two-delta (or plain) stride prediction over integer traces.

    Non-integer values flow through gracefully: the predictor falls
    back to last-value behaviour for them (stride stays 0).
    """

    name = "stride"

    def __init__(self, two_delta: bool = True) -> None:
        self.two_delta = two_delta
        self._last: Optional[Value] = None
        self._has_last = False
        self._stride = 0
        self._pending_stride = 0

    def predict(self) -> Optional[Value]:
        if not self._has_last:
            return None
        if isinstance(self._last, int):
            return self._last + self._stride
        return self._last

    def update(self, value: Value) -> None:
        if self._has_last and isinstance(value, int) and isinstance(self._last, int):
            delta = value - self._last
            if self.two_delta:
                if delta == self._pending_stride:
                    self._stride = delta
                self._pending_stride = delta
            else:
                self._stride = delta
        self._last = value
        self._has_last = True

    def guesses(self, trace: Sequence) -> List[Optional[Value]]:
        column: List[Optional[Value]] = []
        if not trace:
            return column
        append = column.append
        two_delta = self.two_delta
        stride = self._stride
        pending = self._pending_stride
        events = iter(trace)
        if self._has_last:
            last = self._last
        else:
            append(None)
            last = next(events)
        last_int = isinstance(last, int)
        for value in events:
            value_int = isinstance(value, int)
            if last_int:
                append(last + stride)
                if value_int:
                    delta = value - last
                    if two_delta:
                        if delta == pending:
                            stride = delta
                        pending = delta
                    else:
                        stride = delta
            else:
                append(last)
            last = value
            last_int = value_int
        self._last = last
        self._has_last = True
        self._stride = stride
        self._pending_stride = pending
        return column

    def config(self) -> Hashable:
        return (type(self), self.two_delta)
