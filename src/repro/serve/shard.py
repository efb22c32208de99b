"""The shard engine.

One :class:`ShardCore` owns the profiles of every site that hashes to
its index.  The server fans **every** client batch out to **every**
shard — sub-batches carrying only the events whose sites the shard
owns, empty ones included — so each shard observes a gapless, strictly
increasing per-client sequence.  That single invariant buys the whole
consistency story:

* **Dedup** is a per-client high-water mark: a retried batch at or
  below the mark is reported done without touching the profiles.
* **In-order apply** is ``seq == high + 1``; anything further ahead is
  a batch whose predecessor was lost in a crash, so it parks in a
  bounded reorder buffer until the client's retry fills the gap.
  Without the buffer, a retry racing a newer in-flight batch could
  apply events out of stream order — the profiles' LVP/TNV state is
  order-sensitive, so order is load-bearing, not cosmetic.
* **Restart resume** is ``min`` over shards of the high-water mark:
  every batch below it is applied everywhere, everything else the
  client still holds.

Durability is write-ahead: a batch is journaled before it is applied,
and the server acks only after every shard has applied it.  A
sub-batch arrives grouped by site — the router's one grouping pass
(:func:`repro.serve.server.group_by_site`) — so applying it journals
it, decodes its site dictionary and extends each site's *pending run*
by the site's run of values; the runs fold into the profiles
later, in one :meth:`ProfileDatabase.record_batch` call per site
(:meth:`ShardCore.flush`).  A flush runs before anything reads the
profiles (:attr:`ShardCore.db` is the only way to them), before every
checkpoint, and once the pending events reach :data:`FLUSH_EVENTS`.
Folding a site's events once per flush window instead of once per
sub-batch is what keeps the fold's fixed per-call cost off most
events; per-site profile state depends only on the site's own value
sequence, so the folded state is the same either way.  A killed shard
loses its pending runs, which are in the journal, so restore replays
them and buffering opens no crash window.

A checkpoint serializes the full shard state (profiles *with* exact
reference statistics — a pickle whose database travels as plain
columns, see :meth:`ProfileDatabase.__reduce__`) and truncates the
journal; restore loads the snapshot and replays the journal tail
through the normal dedup path, so a crash between snapshot-rename and
journal-truncate double-applies nothing.  The server checkpoints a
shard *after* the triggering batch's done-reports leave, so no ack
waits on a snapshot; a failed automatic checkpoint keeps the previous
snapshot and the journal, and the next attempt comes an interval later.
"""

from __future__ import annotations

import os
import pickle
import struct
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.profile import ProfileDatabase, TNVConfig
from repro.core.sites import Site
from repro.errors import ReproError
from repro.obs import get_logger
from repro.obs.hist import Histogram
from repro.serve.protocol import site_from_payload

_LOG = get_logger(__name__)

#: bumped when the snapshot or journal layout changes.
#: 2: journal records are ``(client, seq, site_payloads, runs)``.
#: 3: a pickled database's rows keep each per-site scalar once (the
#: exact statistics row is the histogram alone); journal records are
#: unchanged.
SNAPSHOT_FORMAT_VERSION = 3

_LEN = struct.Struct(">I")

#: per-client bound on batches parked ahead of a sequence gap.  An
#: overflowing batch is dropped un-acked — the client's retry loop
#: redelivers it once the gap closes, so the bound trades memory for
#: one extra round trip, never for data.
DEFAULT_AHEAD_WINDOW = 64

#: pending events at which a shard folds its pending runs without
#: waiting for a read or a checkpoint.  A flush of this size takes
#: about 16 ms on a 2-CPU host (about 0.5 µs per event); the bound
#: caps both that pause and the memory the runs hold.
FLUSH_EVENTS = 32_768


class ShardStateError(ReproError):
    """A snapshot or journal could not be loaded."""


class ShardCore:
    """All profiling state and durability logic of one shard.

    Pure synchronous code with no event-loop assumptions: the server
    drives it from one asyncio task per shard, and tests drive it
    directly.

    Args:
        index: this shard's position in the cluster.
        directory: where the snapshot and journal live.
        config: TNV knobs for every site profile.
        exact: keep exact reference statistics (needed for
            ground-truth metrics in query responses).
        restore: load ``shard-<index>.snap`` + journal tail on
            construction instead of starting empty.
        ahead_window: per-client reorder-buffer bound.
        telemetry: time the journal write and the apply (site decoding
            and buffering into pending runs) of each applied batch into
            local histograms and the per-batch op log (:meth:`take_ops`)
            the server reads with each done-report, and time each
            flush into ``shard.flush`` and each checkpoint into
            ``shard.checkpoint``.  Boundary-level only — a few clock
            reads per applied sub-batch or flush, never per event — and
            off during journal-replay restores so a restart's catch-up
            doesn't pollute live latency data.
    """

    def __init__(
        self,
        index: int,
        directory: str,
        config: Optional[TNVConfig] = None,
        exact: bool = True,
        restore: bool = False,
        ahead_window: int = DEFAULT_AHEAD_WINDOW,
        telemetry: bool = True,
    ) -> None:
        self.index = index
        self.directory = Path(directory)
        self.config = config or TNVConfig()
        self.exact = exact
        self.ahead_window = ahead_window
        self._db = ProfileDatabase(config=self.config, exact=exact)
        #: site -> its events applied since the last flush, in stream
        #: order; the dict keeps the sites' first-appearance order.
        self._pending: Dict[Site, List[int]] = {}
        self._pending_events = 0
        #: client id -> highest contiguously applied seq (-1 = none).
        self.applied: Dict[str, int] = {}
        #: client id -> {seq: (site_payloads, runs, tc)} parked ahead.
        self._ahead: Dict[str, Dict[int, tuple]] = {}
        #: decoded-site cache: payload tuple -> Site (amortizes decode).
        self._site_cache: Dict[tuple, Site] = {}
        self.counters: Dict[str, int] = {
            "batches": 0,
            "events": 0,
            "duplicates": 0,
            "ahead_buffered": 0,
            "ahead_dropped": 0,
            "wal_records": 0,
            "checkpoints": 0,
            "checkpoint_failures": 0,
            "restores": 0,
            "flushes": 0,
        }
        self._wal_file = None
        self._batches_since_checkpoint = 0
        self.telemetry = telemetry
        #: shard-local latency distributions (always constructed; only
        #: populated while ``telemetry`` is on).
        self.hists: Dict[str, Histogram] = {
            "shard.journal_sync": Histogram(),
            "shard.fold": Histogram(),
            "shard.flush": Histogram(),
            "shard.checkpoint": Histogram(),
        }
        #: per-applied-batch op log the server drains via take_ops():
        #: (seq, tc, start_monotonic, journal_s, fold_s, events).
        self._ops: List[tuple] = []
        self._journal_bytes = 0
        #: size of the snapshot on disk (0 until one is written or loaded).
        self._snapshot_bytes = 0
        self._last_checkpoint_m: Optional[float] = None
        #: when the last sub-batch was applied, and the cumulative event
        #: count then (only kept while ``telemetry`` is on).
        self._last_fold_m: Optional[float] = None
        self._last_fold_tick = 0
        self.directory.mkdir(parents=True, exist_ok=True)
        if restore:
            self._restore()

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    @property
    def snapshot_path(self) -> Path:
        return self.directory / f"shard-{self.index:03d}.snap"

    @property
    def wal_path(self) -> Path:
        return self.directory / f"shard-{self.index:03d}.wal"

    # ------------------------------------------------------------------
    # the profiles
    # ------------------------------------------------------------------

    @property
    def db(self) -> ProfileDatabase:
        """The shard's profiles, with every applied event folded in.

        The one way to the database: it flushes the pending runs first,
        so no reader — a query, ``/stats``, a checkpoint — ever sees a
        batch that was applied but not yet folded.
        """
        self.flush()
        return self._db

    def flush(self) -> None:
        """Fold every pending run, one ``record_batch`` per site.

        Sites fold in first-appearance order, so the database lists its
        sites in stream order whatever the flush points were, and its
        pickle does not depend on when flushes ran.
        """
        pending = self._pending
        if not pending:
            return
        t0 = time.monotonic()
        self._pending = {}
        self._pending_events = 0
        record_batch = self._db.record_batch
        for site, run in pending.items():
            record_batch(site, run)
        self.counters["flushes"] += 1
        if self.telemetry:
            self.hists["shard.flush"].observe(time.monotonic() - t0)

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------

    def submit(
        self,
        client: str,
        seq: int,
        site_payloads: List[list],
        runs: List[List[int]],
        journal: bool = True,
        tc: Optional[tuple] = None,
    ) -> List[int]:
        """Offer one sub-batch; returns the seqs now *done* on this shard.

        "Done" means safe to count toward an ack: either freshly
        journaled+applied (possibly releasing parked successors, whose
        seqs are included) or recognized as an already-applied
        duplicate.  A batch parked ahead of a gap — or dropped because
        the reorder buffer is full — returns no seqs, which withholds
        the ack and leaves redelivery to the client.

        ``site_payloads`` is the sub-batch's site dictionary and
        ``runs[i]`` the values of site ``site_payloads[i]``, in stream
        order.  Shipping the dictionary per batch keeps sub-batches
        self-contained, so a journal record replays without any shared
        interning state.  Neither list is modified.

        ``tc`` is the batch's wire trace context; it parks with
        ahead-buffered batches so a gap-filling release still emits its
        spans under the right parent.
        """
        done: List[int] = []
        high = self.applied.get(client, -1)
        if seq <= high:
            self.counters["duplicates"] += 1
            done.append(seq)
            return done
        if seq > high + 1:
            parked = self._ahead.setdefault(client, {})
            if seq in parked:
                self.counters["duplicates"] += 1
            elif len(parked) >= self.ahead_window:
                self.counters["ahead_dropped"] += 1
            else:
                parked[seq] = (site_payloads, runs, tc)
                self.counters["ahead_buffered"] += 1
            return done
        self._apply(client, seq, site_payloads, runs, journal, tc)
        done.append(seq)
        parked = self._ahead.get(client)
        if parked:
            next_seq = seq + 1
            while next_seq in parked:
                payloads, parked_runs, parked_tc = parked.pop(next_seq)
                self._apply(client, next_seq, payloads, parked_runs, journal, parked_tc)
                done.append(next_seq)
                next_seq += 1
        return done

    def _apply(
        self,
        client: str,
        seq: int,
        site_payloads: List[list],
        runs: List[List[int]],
        journal: bool,
        tc: Optional[tuple] = None,
    ) -> None:
        telemetry = self.telemetry
        t0 = time.monotonic() if telemetry else 0.0
        if journal:
            self._journal_append((client, seq, site_payloads, runs))
        t1 = time.monotonic() if telemetry else 0.0
        # Decode every site first, so a bad payload fails this batch
        # before any pending run changes.
        sites = self._decode_sites(site_payloads)
        pending = self._pending
        events = 0
        for site, run in zip(sites, runs):
            pending_run = pending.get(site)
            if pending_run is None:
                pending_run = pending[site] = []
            pending_run.extend(run)
            events += len(run)
        self._pending_events += events
        self.applied[client] = seq
        self.counters["batches"] += 1
        self.counters["events"] += events
        self._batches_since_checkpoint += 1
        if telemetry:
            now = time.monotonic()
            journal_s = t1 - t0 if journal else 0.0
            fold_s = now - t1
            if journal:
                self.hists["shard.journal_sync"].observe(journal_s)
            self.hists["shard.fold"].observe(fold_s)
            self._last_fold_m = now
            self._last_fold_tick = self.counters["events"]
            self._ops.append((seq, tc, t0, journal_s, fold_s, events))
        if self._pending_events >= FLUSH_EVENTS:
            self.flush()

    def take_ops(self) -> List[tuple]:
        """Drain the per-batch op log accumulated since the last drain.

        Each entry is ``(seq, tc, start_monotonic, journal_s, fold_s,
        events)``.  The server attaches these to done-reports so it
        can fold them into its histograms and span tree — the
        op log itself never survives a shard kill, which is exactly why
        observations must leave with the ack.
        """
        ops, self._ops = self._ops, []
        return ops

    def _decode_sites(self, site_payloads: List[list]) -> List[Site]:
        cache = self._site_cache
        sites = []
        for payload in site_payloads:
            key = tuple(payload)
            site = cache.get(key)
            if site is None:
                site = cache[key] = site_from_payload(payload)
            sites.append(site)
        return sites

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    def _journal_append(self, record: tuple) -> None:
        if self._wal_file is None:
            self._wal_file = open(self.wal_path, "ab")
        body = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        self._wal_file.write(_LEN.pack(len(body)) + body)
        self._wal_file.flush()
        self.counters["wal_records"] += 1
        self._journal_bytes += _LEN.size + len(body)

    def checkpoint(self) -> None:
        """Serialize full state and truncate the journal.

        Write-to-temp + rename keeps the old snapshot valid until the
        new one is complete; truncating the journal *after* the rename
        means a crash in between replays journal records the snapshot
        already contains — which the dedup high-water mark absorbs.  A
        failure before the rename removes the partial temp file, counts
        ``checkpoint_failures`` and re-raises; the previous snapshot and
        the journal stay as they were.
        """
        # Fold first (timed as a flush, not as the checkpoint): the
        # journal truncation below would otherwise drop pending events.
        db = self.db
        t0 = time.monotonic()
        payload = {
            "format": SNAPSHOT_FORMAT_VERSION,
            "index": self.index,
            "config": (
                self.config.capacity,
                self.config.steady,
                self.config.clear_interval,
            ),
            "exact": self.exact,
            "applied": dict(self.applied),
            "counters": dict(self.counters),
            "db": db,
        }
        tmp = self.snapshot_path.with_suffix(".snap.tmp")
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                size = handle.tell()
            os.replace(tmp, self.snapshot_path)
        except BaseException:
            self.counters["checkpoint_failures"] += 1
            tmp.unlink(missing_ok=True)
            raise
        self._snapshot_bytes = size
        if self._wal_file is not None:
            self._wal_file.close()
            self._wal_file = None
        with open(self.wal_path, "wb"):
            pass
        self._batches_since_checkpoint = 0
        self._journal_bytes = 0
        self._last_checkpoint_m = now = time.monotonic()
        self.counters["checkpoints"] += 1
        if self.telemetry:
            self.hists["shard.checkpoint"].observe(now - t0)

    def maybe_checkpoint(self, every: Optional[int]) -> bool:
        """Checkpoint if ``every`` batches have been applied since the last.

        Returns whether a checkpoint was written.  A failed one is
        logged, not raised: its batches are already applied and acked,
        so it must not read as a poisoned batch.  The interval restarts
        either way, so a persistent fault (a full disk) costs one
        attempt per interval rather than a full encode per batch.
        """
        if every is None or self._batches_since_checkpoint < every:
            return False
        self._batches_since_checkpoint = 0
        try:
            self.checkpoint()
        except Exception:  # noqa: BLE001 - the journal still holds every batch
            _LOG.exception(
                "shard %d checkpoint failed; keeping the previous snapshot "
                "and the journal, retrying after %d more batches",
                self.index,
                every,
            )
            return False
        return True

    def _restore(self) -> None:
        if self.snapshot_path.exists():
            try:
                with open(self.snapshot_path, "rb") as handle:
                    payload = pickle.load(handle)
            except Exception as error:  # any unpickling failure, not only UnpicklingError
                raise ShardStateError(
                    f"unreadable snapshot {self.snapshot_path}: "
                    f"{type(error).__name__}: {error}"
                ) from None
            if not isinstance(payload, dict):
                raise ShardStateError(
                    f"unreadable snapshot {self.snapshot_path}: holds a "
                    f"{type(payload).__name__}, not a snapshot dict"
                )
            if payload.get("format") != SNAPSHOT_FORMAT_VERSION:
                raise ShardStateError(
                    f"unsupported snapshot format {payload.get('format')!r}"
                )
            if payload["index"] != self.index:
                raise ShardStateError(
                    f"snapshot belongs to shard {payload['index']}, "
                    f"loaded as shard {self.index}"
                )
            self._db = payload["db"]
            self._snapshot_bytes = self.snapshot_path.stat().st_size
            self.applied = dict(payload["applied"])
            saved = payload.get("counters", {})
            for key in ("batches", "events", "checkpoints", "wal_records"):
                self.counters[key] = saved.get(key, 0)
        # Replay with telemetry muted: a restart's catch-up folds are
        # catch-up, not live latency — they would skew every histogram
        # the replayed op count's worth.
        live_telemetry, self.telemetry = self.telemetry, False
        try:
            for client, seq, site_payloads, runs in self._read_journal():
                # Replay through the normal dedup path (no re-journaling):
                # records that predate the snapshot skip as duplicates.
                self.submit(client, seq, site_payloads, runs, journal=False)
        finally:
            self.telemetry = live_telemetry
        self._journal_bytes = (
            self.wal_path.stat().st_size if self.wal_path.exists() else 0
        )
        self.counters["restores"] += 1

    def _read_journal(self) -> List[tuple]:
        """Every whole record of the journal, each checked to be of the
        current format before any is replayed.  A torn final record
        ends the journal; any other record that does not unpickle
        raises :class:`ShardStateError`."""
        records: List[tuple] = []
        if not self.wal_path.exists():
            return records
        with open(self.wal_path, "rb") as handle:
            data = handle.read()
        offset = 0
        while offset + _LEN.size <= len(data):
            (length,) = _LEN.unpack_from(data, offset)
            end = offset + _LEN.size + length
            if end > len(data):
                break  # torn final record (crash mid-append): not applied, not acked
            try:
                record = pickle.loads(data[offset + _LEN.size:end])
            except Exception as error:  # any unpickling failure, not only UnpicklingError
                raise ShardStateError(
                    f"unreadable journal record at byte {offset} of "
                    f"{self.wal_path}: {type(error).__name__}: {error}"
                ) from None
            if not isinstance(record, tuple) or len(record) != 4:
                raise ShardStateError(
                    f"journal {self.wal_path} holds a record that is not of "
                    f"format {SNAPSHOT_FORMAT_VERSION}"
                )
            records.append(record)
            offset = end
        return records

    def close(self) -> None:
        if self._wal_file is not None:
            self._wal_file.close()
            self._wal_file = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Plain-dict shard statistics for ``/stats`` responses.

        Besides counters this carries the shard's *health* detail: how
        much un-checkpointed journal is on disk, how big and how stale
        the snapshot is, and when the last sub-batch was applied — the
        numbers an operator needs to judge "is this shard keeping up and
        how much would a crash replay".  ``last_fold_age_s`` is the time
        since the shard last applied (journaled and buffered) a
        sub-batch, and ``last_fold_tick`` its cumulative event count
        then; the buffered events fold at the next flush, which every
        read runs first, this one included.  Ages are ``None`` until
        the event happens.
        """
        now = time.monotonic()
        return {
            "index": self.index,
            "sites": len(self.db),
            "clients": {
                client: high for client, high in sorted(self.applied.items())
            },
            "counters": dict(self.counters),
            "pending_ahead": sum(len(parked) for parked in self._ahead.values()),
            "journal_bytes": self._journal_bytes,
            "snapshot_bytes": self._snapshot_bytes,
            "snapshot_age_s": (
                round(now - self._last_checkpoint_m, 3)
                if self._last_checkpoint_m is not None
                else None
            ),
            "last_fold_age_s": (
                round(now - self._last_fold_m, 3)
                if self._last_fold_m is not None
                else None
            ),
            "last_fold_tick": self._last_fold_tick,
            "hists": {name: hist.snapshot()
                      for name, hist in sorted(self.hists.items())},
        }


def resume_seq(applied_highs: List[int]) -> int:
    """The session resume point given every shard's high-water mark.

    A batch is ack-safe only when *every* shard applied it, so the
    resume point is the smallest mark plus one; shards ahead of it
    dedup the client's resends.
    """
    if not applied_highs:
        return 0
    return min(applied_highs) + 1
