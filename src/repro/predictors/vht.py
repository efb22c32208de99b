"""Finite Value History Table simulation (Gabbay & Mendelson [17, 18]).

Hardware value predictors are not one predictor per static instruction:
they are a *table* of N entries indexed by a hash of the PC.  Two hot
instructions that alias to the same entry evict each other's state, so
unpredictable instructions don't just fail to predict — they destroy
the state of predictable ones.  That is exactly why Gabbay's
profile-guided annotation ("only instructions marked predictable were
considered for value prediction") reports "better usage of the
prediction table, and decreased number of mispredictions".

:class:`ValueHistoryTable` replays a *program-ordered* (site, value)
event stream through a direct-mapped table with optional profile
filtering, and reports hit rate, conflict evictions and occupancy.
The stream arrives as interned columns — a site table, a site-id list
and a value list — so the table index and the filter verdict are
worked out once per distinct site, not once per event.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.sites import Site

SitePredicate = Callable[[Site], bool]


@dataclass
class VHTStats:
    """Outcome of one trace replay through the table."""

    entries: int
    events: int = 0
    filtered: int = 0  # events whose site the profile filter excluded
    predictions: int = 0
    hits: int = 0
    conflict_evictions: int = 0  # a different site displaced the entry
    occupied: int = 0

    @property
    def hit_rate_overall(self) -> float:
        """Correct predictions over *all* dynamic events (the number a
        processor cares about)."""
        if self.events == 0:
            return 0.0
        return self.hits / self.events

    @property
    def hit_rate_predicted(self) -> float:
        if self.predictions == 0:
            return 0.0
        return self.hits / self.predictions

    @property
    def conflict_rate(self) -> float:
        if self.events == 0:
            return 0.0
        return self.conflict_evictions / self.events


class ValueHistoryTable:
    """Direct-mapped, tagged last-value prediction table (the classic
    VHT of [17]).

    Each entry holds its owning site and that site's last value; a
    site that claims an entry starts with no history, exactly as a
    fresh :class:`~repro.predictors.last_value.LastValuePredictor`.

    Args:
        entries: number of table entries.
        site_filter: optional predicate; sites it rejects never touch
            the table — Gabbay's profile annotation.  It is asked once
            per distinct site.
    """

    def __init__(
        self,
        entries: int = 1024,
        site_filter: Optional[SitePredicate] = None,
    ) -> None:
        if entries < 1:
            raise ValueError("entries must be >= 1")
        self.entries = entries
        self.site_filter = site_filter
        self._owners: List[Optional[Site]] = [None] * entries
        self._lasts: list = [None] * entries
        self._resolved: Dict[Site, Tuple[Site, int]] = {}
        self.stats = VHTStats(entries=entries)

    def _resolve(self, site: Site) -> Tuple[Site, int]:
        """The table's own copy of ``site`` (owners compare by identity)
        and its entry index, ``-1`` when the filter rejects it."""
        resolved = self._resolved.get(site)
        if resolved is None:
            if self.site_filter is not None and not self.site_filter(site):
                index = -1
            else:
                # CRC32 of the site's identity, not hash(): Python string
                # hashing is randomized per process (PYTHONHASHSEED), which
                # would make the alias pattern — and every number this
                # simulation reports — differ from run to run.
                key = f"{site.kind.value}|{site.program}|{site.procedure}|{site.label}"
                index = zlib.crc32(key.encode()) % self.entries
            resolved = self._resolved[site] = (site, index)
        return resolved

    def replay(
        self, sites: Sequence[Site], site_ids: Sequence[int], values: Sequence
    ) -> VHTStats:
        """Replay an event stream given as columns; returns the statistics.

        Event ``i`` is ``(sites[site_ids[i]], values[i])``, in program
        order — the columns of
        :func:`repro.core.tracestore.replay_global_events` or of a
        :class:`repro.isa.instrument.GlobalTraceCollector`.
        """
        owner_of: List[Optional[Site]] = [None] * len(sites)
        index_of = [-1] * len(sites)
        for sid in dict.fromkeys(site_ids):
            owner_of[sid], index_of[sid] = self._resolve(sites[sid])
        owners = self._owners
        lasts = self._lasts
        filtered = predictions = hits = conflicts = occupied = 0
        for sid, value in zip(site_ids, values):
            index = index_of[sid]
            if index < 0:
                filtered += 1
                continue
            site = owner_of[sid]
            owner = owners[index]
            if owner is site:
                guess = lasts[index]
                if guess is not None:
                    predictions += 1
                    if guess == value:
                        hits += 1
            elif owner is None:
                occupied += 1
                owners[index] = site
            else:
                conflicts += 1
                owners[index] = site
            lasts[index] = value
        stats = self.stats
        stats.events += len(site_ids)
        stats.filtered += filtered
        stats.predictions += predictions
        stats.hits += hits
        stats.conflict_evictions += conflicts
        stats.occupied += occupied
        return stats
