"""Context-based (two-level) value predictor — Sazeides & Smith [34],
Wang & Franklin [39].

A *context-based* predictor predicts values that follow a finite
pattern: the first level records the recent value history, the second
level maps that history (the context) to a prediction.

Two models are provided:

* :class:`FiniteContextPredictor` — order-``k`` finite context method:
  the last ``k`` values hash to a table entry holding frequency counts
  of successor values; predict the most frequent successor.
* :class:`TwoLevelPredictor` — the Wang & Franklin organisation: a
  per-site Value History Table holding the last 4 distinct values plus
  an outcome-history pattern indexing a pattern history table of
  saturating counters, predicting which of the 4 values comes next.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Deque, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.predictors.base import Predictor, Value


class FiniteContextPredictor(Predictor):
    """Order-``k`` finite context method (FCM).

    Args:
        order: context length (number of preceding values).
        max_contexts: capacity of the context table; beyond it, new
            contexts are not learned (models a finite hardware table).
        max_successors: distinct successor values tracked per context.
    """

    name = "fcm"

    def __init__(self, order: int = 2, max_contexts: int = 4096, max_successors: int = 4) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if max_contexts < 1:
            raise ValueError("max_contexts must be >= 1")
        if max_successors < 1:
            raise ValueError("max_successors must be >= 1")
        self.order = order
        self.max_contexts = max_contexts
        self.max_successors = max_successors
        self._history: Deque[Value] = deque(maxlen=order)
        self._table: Dict[Tuple[Value, ...], Dict[Value, int]] = {}

    def _context(self) -> Optional[Tuple[Value, ...]]:
        if len(self._history) < self.order:
            return None
        return tuple(self._history)

    def predict(self) -> Optional[Value]:
        context = self._context()
        if context is None:
            return None
        successors = self._table.get(context)
        if not successors:
            return None
        return max(successors.items(), key=lambda item: (item[1], repr(item[0])))[0]

    def update(self, value: Value) -> None:
        context = self._context()
        if context is not None:
            successors = self._table.get(context)
            if successors is None:
                if len(self._table) < self.max_contexts:
                    self._table[context] = {value: 1}
            elif value in successors:
                successors[value] += 1
            elif len(successors) < self.max_successors:
                successors[value] = 1
            else:
                # Decay: steal from the weakest successor (hardware-ish
                # replacement instead of unbounded growth).
                weakest = min(successors.items(), key=lambda item: item[1])[0]
                successors[weakest] -= 1
                if successors[weakest] <= 0:
                    del successors[weakest]
                    successors[value] = 1
        self._history.append(value)

    def guesses(self, trace: Sequence) -> List[Optional[Value]]:
        column: List[Optional[Value]] = []
        append = column.append
        order = self.order
        max_contexts = self.max_contexts
        max_successors = self.max_successors
        table = self._table
        history = self._history
        events = iter(trace)
        if len(history) < order:
            for value in events:
                append(None)
                history.append(value)
                if len(history) == order:
                    break
            else:
                return column
        context = tuple(history)
        for value in events:
            successors = table.get(context)
            if successors is None:
                append(None)
                if len(table) < max_contexts:
                    table[context] = {value: 1}
            else:
                if len(successors) == 1:
                    append(next(iter(successors)))
                else:
                    append(_most_frequent(successors) if successors else None)
                if value in successors:
                    successors[value] += 1
                elif len(successors) < max_successors:
                    successors[value] = 1
                else:
                    weakest = min(successors.items(), key=itemgetter(1))[0]
                    successors[weakest] -= 1
                    if successors[weakest] <= 0:
                        del successors[weakest]
                        successors[value] = 1
            context = context[1:] + (value,)
        history.extend(context)
        return column

    def config(self) -> Hashable:
        return (type(self), self.order, self.max_contexts, self.max_successors)


def _most_frequent(successors: Dict[Value, int]) -> Value:
    """:meth:`FiniteContextPredictor.predict`'s choice: the highest
    count, ties to the larger ``repr`` and then to the earliest entry;
    ``repr`` is only taken on a tie."""
    top = max(successors.values())
    tied = [value for value, count in successors.items() if count == top]
    return tied[0] if len(tied) == 1 else max(tied, key=repr)


class TwoLevelPredictor(Predictor):
    """Two-level predictor with a 4-entry value history (Wang & Franklin).

    Level 1: the last ``vht_size`` distinct values in *fixed* slots
    (round-robin replacement — slots must stay stable or the learned
    pattern-to-slot mapping would be scrambled), plus a pattern of the
    last ``history`` outcomes (which slot matched, or ``vht_size`` for
    "new value").
    Level 2: a pattern history table of per-slot saturating counters;
    the predicted value is the slot with the highest counter for the
    current pattern.
    """

    name = "2level"

    def __init__(self, vht_size: int = 4, history: int = 4, counter_max: int = 12) -> None:
        if vht_size < 1:
            raise ValueError("vht_size must be >= 1")
        if history < 0:
            raise ValueError("history must be >= 0")
        if counter_max < 1:
            raise ValueError("counter_max must be >= 1")
        self.vht_size = vht_size
        self.history = history
        self.counter_max = counter_max
        self._values: List[Value] = []  # fixed slots, grown up to vht_size
        self._next_replace = 0
        self._pattern: Deque[int] = deque(maxlen=history)
        self._pht: Dict[Tuple[int, ...], List[int]] = {}

    def _pattern_key(self) -> Optional[Tuple[int, ...]]:
        if len(self._pattern) < self.history:
            return None
        return tuple(self._pattern)

    def predict(self) -> Optional[Value]:
        key = self._pattern_key()
        if key is None or not self._values:
            return None
        counters = self._pht.get(key)
        if counters is None:
            return None
        slot = max(range(len(counters)), key=lambda i: counters[i])
        if counters[slot] == 0 or slot >= len(self._values):
            return None
        return self._values[slot]

    def update(self, value: Value) -> None:
        key = self._pattern_key()
        try:
            slot = self._values.index(value)
        except ValueError:
            slot = -1
        if key is not None:
            counters = self._pht.setdefault(key, [0] * self.vht_size)
            for index in range(len(counters)):
                if index == slot:
                    counters[index] = min(self.counter_max, counters[index] + 3)
                elif counters[index] > 0:
                    counters[index] -= 1
        if slot >= 0:
            self._pattern.append(slot)
        else:
            # Install the new value without disturbing other slots.
            if len(self._values) < self.vht_size:
                self._values.append(value)
            else:
                self._values[self._next_replace] = value
                self._next_replace = (self._next_replace + 1) % self.vht_size
            self._pattern.append(self.vht_size)

    def guesses(self, trace: Sequence) -> List[Optional[Value]]:
        size = self.vht_size
        history = self.history
        counter_max = self.counter_max
        pht = self._pht
        values = self._values
        pattern = self._pattern
        next_replace = self._next_replace
        column: List[Optional[Value]] = []
        append = column.append
        key = tuple(pattern) if len(pattern) == history else None
        for value in trace:
            if key is None:
                append(None)
            else:
                counters = pht.get(key)
                if counters is None:
                    append(None)
                    counters = pht[key] = [0] * size
                else:
                    top = max(counters)
                    best = counters.index(top)
                    append(values[best] if top and best < len(values) else None)
            if value in values:
                slot = values.index(value)
            else:
                if len(values) < size:
                    values.append(value)
                else:
                    values[next_replace] = value
                    next_replace = (next_replace + 1) % size
                slot = size
            if key is None:
                pattern.append(slot)
                if len(pattern) == history:
                    key = tuple(pattern)
                continue
            for index, count in enumerate(counters):
                if index == slot:
                    counters[index] = min(counter_max, count + 3)
                elif count > 0:
                    counters[index] = count - 1
            # Shift the outcome into the pattern (also right for history 0).
            key = (key + (slot,))[1:]
        if key is not None:
            pattern.extend(key)
        self._next_replace = next_replace
        return column

    def config(self) -> Hashable:
        return (type(self), self.vht_size, self.history, self.counter_max)
