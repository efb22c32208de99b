"""The Top-N-Value (TNV) table.

This is the paper's central data structure (MICRO'97 §3, thesis §III.B).
One TNV table is kept per profile site.  It approximates the site's full
value histogram in constant space:

* The table holds at most ``capacity`` (value, count) entries.
* Recording a value that is already present increments its count.
* Recording a new value inserts it if a slot is free; otherwise the
  value is *dropped* — a pure least-frequently-used table would lock in
  whatever values arrived first.
* To let newly hot values displace stale ones, every ``clear_interval``
  recordings the table is sorted by count and the bottom
  ``capacity - steady`` entries (the *clear part*) are evicted.  The top
  ``steady`` entries (the *steady part*) survive with their counts.

The paper's configuration is a 10-entry table whose bottom half is
cleared every ~2000 executions; those are the defaults here, and the
``fig-tnv-accuracy`` experiment sweeps both knobs.

TNV tables are value-type agnostic: the ISA front end records 64-bit
integers, the Python front end records any hashable object.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import nlargest
from typing import Dict, Hashable, Iterable, List, Tuple

from repro.errors import ProfileError
from repro.obs.metrics import METRICS as _METRICS

Value = Hashable

DEFAULT_CAPACITY = 10
DEFAULT_STEADY = 5
DEFAULT_CLEAR_INTERVAL = 2000


@dataclass(frozen=True)
class TNVEntry:
    """One (value, count) pair of a TNV table snapshot."""

    value: Value
    count: int


class TNVTable:
    """Bounded top-value histogram with periodic clearing.

    Args:
        capacity: maximum number of distinct values tracked at once.
        steady: number of top entries that survive a clearing pass.
            Must satisfy ``0 <= steady < capacity``; ``steady == 0``
            degenerates to "clear everything", ``capacity - steady`` is
            the size of the paper's *clear part*.
        clear_interval: number of ``record`` calls between clearing
            passes.  ``None`` disables clearing entirely (pure LFU),
            which is the strawman the paper's design improves on.
    """

    __slots__ = (
        "capacity",
        "steady",
        "clear_interval",
        "_entries",
        "_since_clear",
        "_total",
        "_clears",
        # -- health telemetry, maintained at clear boundaries only --
        "_evictions",
        "_promotions",
        "_turnover",
        "_last_turnover",
        "_saturated_clears",
        "_steady_values",
        "_size_after_clear",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        steady: int = DEFAULT_STEADY,
        clear_interval: int | None = DEFAULT_CLEAR_INTERVAL,
    ) -> None:
        if capacity < 1:
            raise ProfileError(f"TNV capacity must be >= 1, got {capacity}")
        if not 0 <= steady < capacity:
            raise ProfileError(
                f"TNV steady part must satisfy 0 <= steady < capacity, got steady={steady} capacity={capacity}"
            )
        if clear_interval is not None and clear_interval < 1:
            raise ProfileError(f"TNV clear_interval must be >= 1 or None, got {clear_interval}")
        self.capacity = capacity
        self.steady = steady
        self.clear_interval = clear_interval
        self._entries: Dict[Value, int] = {}
        self._since_clear = 0
        self._total = 0
        self._clears = 0
        # Health telemetry (thesis-style churn introspection).  All of
        # it is derived at clear boundaries from state the record path
        # already maintains, so the per-event hot path is untouched.
        self._evictions = 0
        self._promotions = 0
        self._turnover = 0
        self._last_turnover = 0
        self._saturated_clears = 0
        self._steady_values: frozenset = frozenset()
        self._size_after_clear = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record(self, value: Value) -> None:
        """Record one dynamic execution producing ``value``."""
        self._total += 1
        entries = self._entries
        if value in entries:
            entries[value] += 1
        elif len(entries) < self.capacity:
            entries[value] = 1
        # else: table is full and the value is not resident; it is
        # dropped.  The periodic clear below is what re-opens slots.
        if self.clear_interval is not None:
            self._since_clear += 1
            if self._since_clear >= self.clear_interval:
                self.clear_bottom()

    def record_many(self, values: Iterable[Value]) -> None:
        """Record a sequence of dynamic values in order.

        Semantically identical to calling :meth:`record` once per value
        — including the exact positions of clearing passes — but far
        faster: the stream is split into runs that contain no clearing
        boundary and each run is deduplicated once (one ``Counter``
        pass) and folded through :meth:`record_grouped`.
        """
        if not isinstance(values, (list, tuple)):
            values = list(values)
        n = len(values)
        if n == 0:
            return
        interval = self.clear_interval
        if interval is None:
            self.record_grouped(Counter(values), n)
            return
        start = 0
        while start < n:
            end = start + (interval - self._since_clear)
            if end > n:
                end = n
            chunk = values if end - start == n else values[start:end]
            self.record_grouped(Counter(chunk), end - start)
            start = end

    def record_grouped(
        self,
        pairs: "Dict[Value, int] | Iterable[Tuple[Value, int]]",
        n: int | None = None,
    ) -> None:
        """Fold pre-deduplicated ``(value, count)`` pairs into the table.

        This is the columnar fast path: one clear-free group of ``n``
        events arrives already counted, so the table is updated with one
        dict operation per *distinct* value instead of one call per
        event.  For bit-identity with per-event recording the pairs must
        be in **first-appearance order** of the underlying stream —
        which value claims the last free slot depends only on the order
        distinct values first arrive, never on their counts
        (``Counter`` over a run yields exactly this order).

        The group must not span a clearing boundary; callers split runs
        first (:func:`repro.core.fold.fold_values` emits chunks aligned
        to ``clear_interval``).  A clearing pass fires when the group
        lands exactly on the boundary, matching per-event behavior.

        Args:
            pairs: mapping or iterable of ``(value, count)`` pairs with
                positive counts, first-appearance ordered.
            n: total event count of the group (sum of the counts);
                computed when omitted.
        """
        items = pairs.items() if isinstance(pairs, dict) else list(pairs)
        if n is None:
            n = sum(count for _, count in items)
        if n == 0:
            return
        interval = self.clear_interval
        if interval is not None and self._since_clear + n > interval:
            raise ProfileError(
                f"grouped record of {n} events would cross a clearing "
                f"boundary ({self._since_clear}/{interval} since last "
                "clear); split the group at the boundary first"
            )
        # Batch-boundary instrumentation: one call per group, never per
        # event, which is what keeps the disabled-mode overhead at zero
        # on the per-event path (see docs/observability.md).
        _METRICS.inc("tnv.batch_records", n)
        entries = self._entries
        if isinstance(pairs, dict):
            # Resident bumps and admissions are independent: bumping
            # never changes occupancy and admitting never evicts, so
            # probing the handful of residents against the group first
            # and then admitting the first ``free`` unseen values is
            # state-identical (entry order included) to the per-event
            # interleaving — without walking every distinct value.
            if entries:
                get = pairs.get
                for value in entries:
                    count = get(value)
                    if count is not None:
                        entries[value] += count
            free = self.capacity - len(entries)
            if free:
                for value, count in items:
                    if value not in entries:
                        entries[value] = count
                        free -= 1
                        if not free:
                            break
        else:
            free = self.capacity - len(entries)
            for value, count in items:
                if value in entries:
                    entries[value] += count
                elif free:
                    entries[value] = count
                    free -= 1
                # else: full; the value is dropped — the periodic clear
                # is what re-opens slots.
        self._total += n
        if interval is not None:
            self._since_clear += n
            if self._since_clear >= interval:
                self.clear_bottom()

    def record_run(self, value: Value, count: int) -> None:
        """Record ``count`` consecutive executions producing ``value``.

        State-identical to ``count`` :meth:`record` calls: the run is
        split at clearing boundaries and each piece folds as a
        single-pair group.
        """
        if count <= 0:
            return
        interval = self.clear_interval
        if interval is None:
            self.record_grouped(((value, count),), count)
            return
        while count:
            take = interval - self._since_clear
            if take > count:
                take = count
            self.record_grouped(((value, take),), take)
            count -= take

    def clear_bottom(self) -> None:
        """Evict the clear part: keep only the ``steady`` hottest entries.

        Exposed publicly so samplers can force a clear at the end of a
        profiling burst, mirroring the thesis' sampling implementation.

        This is also where the table's health telemetry is folded:
        value turnover (new values inserted since the previous clear),
        eviction churn, clear→steady promotions and table saturation
        are all derivable from the entry dict right here, so the record
        path pays nothing for them.
        """
        self._since_clear = 0
        self._clears += 1
        _METRICS.inc("tnv.clears")
        entries = self._entries
        resident = len(entries)
        # Between clears the entry dict only grows by insertions, so
        # the size delta *is* the number of new values admitted.
        turnover = resident - self._size_after_clear
        self._last_turnover = turnover
        self._turnover += turnover
        if resident >= self.capacity:
            self._saturated_clears += 1
            _METRICS.inc("tnv.saturated_clears")
        if resident <= self.steady:
            promotions = sum(
                1 for value in entries if value not in self._steady_values
            )
            self._promotions += promotions
            if promotions:
                _METRICS.inc("tnv.promotions", promotions)
            self._steady_values = frozenset(entries)
            self._size_after_clear = resident
            return
        evicted = resident - self.steady
        self._evictions += evicted
        _METRICS.inc("tnv.bottom_evictions", evicted)
        survivors = sorted(entries.items(), key=lambda item: (-item[1], repr(item[0])))
        self._entries = dict(survivors[: self.steady])
        promotions = sum(
            1 for value in self._entries if value not in self._steady_values
        )
        self._promotions += promotions
        if promotions:
            _METRICS.inc("tnv.promotions", promotions)
        self._steady_values = frozenset(self._entries)
        self._size_after_clear = self.steady

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def total(self) -> int:
        """Number of ``record`` calls seen (including dropped values)."""
        return self._total

    @property
    def clears(self) -> int:
        """Number of clearing passes performed so far."""
        return self._clears

    @property
    def evictions(self) -> int:
        """Entries evicted by clearing passes, cumulative."""
        return self._evictions

    @property
    def promotions(self) -> int:
        """Values newly promoted into the steady part across clears."""
        return self._promotions

    @property
    def turnover(self) -> int:
        """New values admitted to the table, counted at clears."""
        return self._turnover

    @property
    def last_turnover(self) -> int:
        """New values admitted between the last two clearing passes."""
        return self._last_turnover

    @property
    def saturated_clears(self) -> int:
        """Clearing passes that found the table completely full."""
        return self._saturated_clears

    def health(self) -> dict:
        """Cheap health summary, all derived from clear-boundary state.

        Keys:
            ``resident``/``capacity``: current occupancy.
            ``steady_occupancy``/``clear_occupancy``: how the resident
            entries split between the surviving and evictable parts.
            ``clears``/``evictions``/``promotions``/``turnover``/
            ``last_turnover``/``saturated_clears``: cumulative clear
            telemetry (see the matching properties).
            ``churn``: mean entries evicted per clear — the fraction of
            the clear part cycling each interval is ``churn / (capacity
            - steady)``.
            ``promotion_rate``: mean clear→steady promotions per clear.
        """
        clears = self._clears
        resident = len(self._entries)
        return {
            "resident": resident,
            "capacity": self.capacity,
            "steady": self.steady,
            "steady_occupancy": min(resident, self.steady),
            "clear_occupancy": max(0, resident - self.steady),
            "clears": clears,
            "evictions": self._evictions,
            "promotions": self._promotions,
            "turnover": self._turnover,
            "last_turnover": self._last_turnover,
            "saturated_clears": self._saturated_clears,
            "churn": self._evictions / clears if clears else 0.0,
            "promotion_rate": self._promotions / clears if clears else 0.0,
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, value: Value) -> bool:
        return value in self._entries

    def count_of(self, value: Value) -> int:
        """Resident count for ``value`` (0 if not resident)."""
        return self._entries.get(value, 0)

    def top(self, k: int | None = None) -> List[TNVEntry]:
        """The ``k`` hottest resident entries, hottest first.

        Ties are broken deterministically on the value's ``repr`` so
        results are reproducible across runs.
        """
        if k is None:
            k = self.capacity
        ranked = sorted(self._entries.items(), key=lambda item: (-item[1], repr(item[0])))
        return [TNVEntry(value, count) for value, count in ranked[:k]]

    def top_value(self) -> Value | None:
        """The single hottest value, or ``None`` for an empty table."""
        entries = self.top(1)
        return entries[0].value if entries else None

    def estimated_invariance(self, k: int = 1) -> float:
        """Fraction of all executions covered by the top-``k`` entries.

        This is the table's own estimate of ``Inv-Top(k)``: resident
        counts divided by the *true* execution total.  Because counts in
        the clear part are discarded on clearing, the estimate is a
        lower bound on the exact invariance; the ``fig-tnv-accuracy``
        experiment quantifies the gap.
        """
        if self._total == 0:
            return 0.0
        # The k largest counts, unranked: their sum is the same however
        # top() breaks ties.
        covered = sum(nlargest(k, self._entries.values()))
        return min(1.0, covered / self._total)

    def snapshot(self) -> List[TNVEntry]:
        """All resident entries, hottest first."""
        return self.top(self.capacity)

    # ------------------------------------------------------------------
    # combination / persistence
    # ------------------------------------------------------------------

    def merge(self, other: "TNVTable") -> None:
        """Fold ``other``'s resident entries and totals into this table.

        Used when combining profiles from multiple runs (e.g. train and
        test inputs).  The merged table keeps the hottest ``capacity``
        entries of the union.
        """
        _METRICS.inc("tnv.merges")
        merged: Dict[Value, int] = dict(self._entries)
        for value, count in other._entries.items():
            merged[value] = merged.get(value, 0) + count
        ranked = sorted(merged.items(), key=lambda item: (-item[1], repr(item[0])))
        self._entries = dict(ranked[: self.capacity])
        self._total += other._total
        self._clears += other._clears
        self._evictions += other._evictions
        self._promotions += other._promotions
        self._turnover += other._turnover
        self._saturated_clears += other._saturated_clears
        # The merged table starts a fresh clearing phase: the steady
        # set and size baseline describe neither input exactly, so they
        # are re-anchored to the merged entries.
        self._steady_values = frozenset(self._entries)
        self._size_after_clear = len(self._entries)

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (values must be JSON-friendly)."""
        return {
            "capacity": self.capacity,
            "steady": self.steady,
            "clear_interval": self.clear_interval,
            "total": self._total,
            "clears": self._clears,
            "since_clear": self._since_clear,
            "entries": [[entry.value, entry.count] for entry in self.snapshot()],
            "health": {
                "evictions": self._evictions,
                "promotions": self._promotions,
                "turnover": self._turnover,
                "last_turnover": self._last_turnover,
                "saturated_clears": self._saturated_clears,
                "size_after_clear": self._size_after_clear,
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TNVTable":
        """Rebuild a table from :meth:`to_dict` output."""
        table = cls(
            capacity=payload["capacity"],
            steady=payload["steady"],
            clear_interval=payload["clear_interval"],
        )
        entries: List[Tuple[Value, int]] = [tuple(pair) for pair in payload["entries"]]
        table._entries = {value: count for value, count in entries}
        table._total = payload["total"]
        # Older snapshots predate these fields; default to a fresh
        # clearing phase rather than failing to load them.
        table._clears = payload.get("clears", 0)
        table._since_clear = payload.get("since_clear", 0)
        health = payload.get("health", {})
        table._evictions = health.get("evictions", 0)
        table._promotions = health.get("promotions", 0)
        table._turnover = health.get("turnover", 0)
        table._last_turnover = health.get("last_turnover", 0)
        table._saturated_clears = health.get("saturated_clears", 0)
        table._size_after_clear = health.get("size_after_clear", len(table._entries))
        # The concrete steady set is not serialized (it would leak raw
        # values into snapshots that only promise top entries); restored
        # tables re-anchor promotions at their next clear.
        table._steady_values = frozenset(table._entries)
        return table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        head = ", ".join(f"{e.value!r}:{e.count}" for e in self.top(3))
        return f"TNVTable(total={self._total}, top=[{head}])"
