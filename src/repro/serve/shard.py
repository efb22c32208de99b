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

Sites reach a shard once.  The server turns each client ``sites``
frame into one *definition item* per shard, holding the sites that
shard owns with the client's ids for them (:meth:`ShardCore.define`).
The shard interns them in its profile database's site table
(:meth:`ProfileDatabase.intern`), so its *local ids* are the
database's dense site ids — one per site, whichever clients define it.
It keeps a map from each client's ids to local ids, and journals only
what is new: a site payload at most once between two checkpoints, and
nothing at all when a reconnecting client replays its whole table.

Durability is write-ahead: a batch is journaled before it is applied,
and the server acks only after every shard has applied it.  A
sub-batch is two columns, the client's site ids (``array("I")``) and
the values (``array("q")``), in stream order.  Applying it translates
the ids into local ids through the client's map (an id the shard has
no definition for fails the sub-batch before anything changes),
journals the local ids and the values, and appends both to the
shard's *pending columns*.  The columns fold into the profiles later,
in :meth:`ShardCore.flush`: one gather groups them by site
(:func:`repro.core.columns.gather`, the one the trace store's replays
use), and the database records the runs by id
(:meth:`ProfileDatabase.record_runs`), sites in order of first
appearance, with no ``Site`` hashed or looked up.  A flush runs before
anything reads the profiles (:attr:`ShardCore.db` is the only way to
them), before every checkpoint, and once the pending events reach
:data:`FLUSH_EVENTS`.  Folding a site's events once per flush window
instead of once per sub-batch is what keeps the fold's fixed per-call
cost off most events; per-site profile state depends only on the
site's own value sequence, so the folded state is the same either
way.  A killed shard loses its pending columns, which are in the
journal, so restore replays them and buffering opens no crash window.

A checkpoint writes a snapshot — a header line with the format stamp,
then one pickle of the client maps and the database, whose site table
and profiles *with* exact reference statistics pickle as a fixed number
of flat lists (:meth:`ProfileDatabase.__reduce__`); the site table is
pickled once, as the columns the database keeps — and truncates the
journal.  A journal starts with a header line too.  Restore reads each
header before anything else, loads the snapshot and replays the
journal tail through the normal dedup path, so a crash between
snapshot-rename and journal-truncate double-applies nothing.
The server checkpoints a shard *after* the triggering batch's
done-reports leave, so no ack waits on a snapshot; a failed automatic
checkpoint keeps the previous snapshot and the journal, and the next
attempt comes an interval later.
"""

from __future__ import annotations

import os
import pickle
import struct
import time
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.columns import gather, lookup
from repro.core.profile import ProfileDatabase, TNVConfig
from repro.core.sites import Site
from repro.errors import ReproError
from repro.obs import get_logger
from repro.obs.hist import Histogram
from repro.serve.protocol import ProtocolError, site_from_payload, site_to_payload

_LOG = get_logger(__name__)

#: bumped when the snapshot or journal layout changes.
#: 2: journal records are ``(client, seq, site_payloads, runs)``.
#: 3: a pickled database's rows keep each per-site scalar once (the
#: exact statistics row is the histogram alone); journal records are
#: unchanged.
#: 4: sites are defined once.  A snapshot starts with a header line
#: naming this format, and the site table, client maps and database
#: pickle as flat per-field lists; journal records are a definition
#: or an id-only batch (see :meth:`ShardCore._read_journal`).
#: 5: local ids are the database's site ids, and the site table pickles
#: once, inside the database (which lists the ids of its rows); a
#: journal starts with a header line naming this format, as a snapshot
#: does.  Journal records are unchanged.
SNAPSHOT_FORMAT_VERSION = 5

#: a snapshot's first line is this magic, a space and the format stamp.
SNAPSHOT_MAGIC = b"repro-shard-snapshot"

#: a journal's first line is this magic, a space and the format stamp.
JOURNAL_MAGIC = b"repro-shard-journal"

_LEN = struct.Struct(">I")

_JOURNAL_HEADER = b"%s %d\n" % (JOURNAL_MAGIC, SNAPSHOT_FORMAT_VERSION)

#: the tags of the two journal record kinds.
_DEFINE = "define"
_BATCH = "batch"

#: per-client bound on batches parked ahead of a sequence gap.  An
#: overflowing batch is dropped un-acked — the client's retry loop
#: redelivers it once the gap closes, so the bound trades memory for
#: one extra round trip, never for data.
DEFAULT_AHEAD_WINDOW = 64

#: pending events at which a shard folds its pending columns without
#: waiting for a read or a checkpoint.  A flush of this size takes
#: about 16 ms on a 2-CPU host (about 0.5 µs per event); the bound
#: caps both that pause and the memory the columns hold.
FLUSH_EVENTS = 32_768

#: the map of a client that has defined no site on this shard.
_NO_SITES = array("i")


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
        telemetry: time the journal write and the apply (translating
            the ids and appending to the pending columns) of each
            applied batch into local histograms and the per-batch op
            log (:meth:`take_ops`) the server reads with each
            done-report, and time each flush into ``shard.flush`` and
            each checkpoint into ``shard.checkpoint``.  Boundary-level
            only — a few clock reads per applied sub-batch or flush,
            never per event — and off during journal-replay restores so
            a restart's catch-up doesn't pollute live latency data.
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
        #: the profiles, and the site table that numbers the local ids.
        self._db = ProfileDatabase(config=self.config, exact=exact)
        #: client id -> ``array("i")`` of the local id of each of the
        #: client's site ids, -1 for ids this shard holds no definition
        #: of.  Replaced, never resized, when a definition changes it.
        self._clients: Dict[str, array] = {}
        #: local ids and values of the events applied since the last
        #: flush, in stream order.
        self._pending_ids = array("I")
        self._pending_values = array("q")
        #: client id -> highest contiguously applied seq (-1 = none).
        self.applied: Dict[str, int] = {}
        #: client id -> {seq: (ids, values, tc)} parked ahead.
        self._ahead: Dict[str, Dict[int, tuple]] = {}
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

        The one way to the database: it flushes the pending columns
        first, so no reader — a query, ``/stats``, a checkpoint — ever
        sees a batch that was applied but not yet folded.
        """
        self.flush()
        return self._db

    def flush(self) -> None:
        """Fold the pending columns: one gather, recorded by id.

        One gather groups the columns by site and hands the runs
        straight to :meth:`ProfileDatabase.record_runs`; sites fold in
        order of first appearance, so the database creates its rows in
        stream order whatever the flush points were, and its pickle does
        not depend on when flushes ran.
        """
        ids = self._pending_ids
        if not ids:
            return
        t0 = time.monotonic()
        values = self._pending_values
        self._pending_ids = array("I")
        self._pending_values = array("q")
        db = self._db
        db.record_runs(gather(ids, values, db.interned))
        self.counters["flushes"] += 1
        if self.telemetry:
            self.hists["shard.flush"].observe(time.monotonic() - t0)

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------

    def define(self, client: str, sids: Sequence[int], sites: Sequence[Site]) -> int:
        """Apply one definition item; returns how many client ids it mapped.

        ``sids[i]`` is ``client``'s id for ``sites[i]``, a site this
        shard owns.  A site new to the shard gets the next local id, its
        id in the database's site table, whichever client defines it.
        Only what is new is journaled, each new site's payload once: a
        client id already mapped to the same site maps nothing, so a
        client replaying its whole table journals nothing.  A client id mapped to another site — a
        client that started a new table after a server restart, which
        the router allows — is mapped anew; batches are journaled with
        local ids, so no earlier batch replays differently.
        """
        known = self._clients.get(client, _NO_SITES)
        site_id = self._db.site_id
        base = self._db.interned
        new_sites: Dict[Site, int] = {}
        mapped: List[int] = []
        locals_: List[int] = []
        for sid, site in zip(sids, sites):
            local = site_id(site)
            if local is None:
                local = new_sites.setdefault(site, base + len(new_sites))
            if sid < len(known) and known[sid] == local:
                continue
            mapped.append(sid)
            locals_.append(local)
        if not mapped:
            return 0
        payloads = [site_to_payload(site) for site in new_sites]
        self._journal_append((_DEFINE, base, payloads, client, mapped, locals_))
        self._add_definitions(base, list(new_sites), client, mapped, locals_)
        return len(mapped)

    def _add_definitions(
        self,
        base: int,
        sites: List[Site],
        client: str,
        sids: List[int],
        locals_: List[int],
    ) -> None:
        """Intern ``sites`` as local ids ``base`` on and map ``client``'s
        ``sids`` to ``locals_``.  A journal replay may repeat what the
        snapshot holds (a crash between snapshot rename and journal
        truncation), so a site already numbered ``base + i`` passes; a
        gap or another site there raises :class:`ShardStateError`."""
        db = self._db
        for local, site in enumerate(sites, base):
            if db.intern(site) != local:
                raise ShardStateError(
                    f"shard {self.index} cannot define local site id {local} "
                    f"as {site}: it is numbered {db.site_id(site)} of "
                    f"{db.interned}"
                )
        defined = db.interned
        known = self._clients.get(client, _NO_SITES).tolist()
        for sid, local in zip(sids, locals_):
            if not 0 <= local < defined:
                raise ShardStateError(
                    f"shard {self.index} cannot map {client!r} site id {sid} "
                    f"to local id {local}: {defined} are defined"
                )
            if sid >= len(known):
                known.extend([-1] * (sid + 1 - len(known)))
            known[sid] = local
        self._clients[client] = array("i", known)

    def submit(
        self,
        client: str,
        seq: int,
        ids: array,
        values: array,
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

        ``ids`` (``array("I")``) holds the client's site id of each
        event and ``values`` (``array("q")``) its value, in stream
        order; every id must have been defined on this shard
        (:meth:`define`), or :class:`ShardStateError` is raised before
        anything changes.  Neither column is modified.

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
                parked[seq] = (ids, values, tc)
                self.counters["ahead_buffered"] += 1
            return done
        self._apply(client, seq, ids, values, journal, tc)
        done.append(seq)
        parked = self._ahead.get(client)
        if parked:
            next_seq = seq + 1
            while next_seq in parked:
                parked_ids, parked_values, parked_tc = parked.pop(next_seq)
                self._apply(client, next_seq, parked_ids, parked_values, journal, parked_tc)
                done.append(next_seq)
                next_seq += 1
        return done

    def _apply(
        self,
        client: str,
        seq: int,
        ids: array,
        values: array,
        journal: bool,
        tc: Optional[tuple] = None,
    ) -> None:
        telemetry = self.telemetry
        t0 = time.monotonic() if telemetry else 0.0
        # Translate first, so an undefined id fails this batch before
        # anything is journaled or buffered.
        try:
            local = lookup(self._clients.get(client, _NO_SITES), ids)
        except IndexError:
            raise ShardStateError(
                f"sub-batch {client}/{seq} names a site id shard {self.index} "
                "holds no definition of"
            ) from None
        t1 = time.monotonic() if telemetry else 0.0
        if journal:
            self._journal_append((_BATCH, client, seq, local, values))
        t2 = time.monotonic() if telemetry else 0.0
        self._buffer(client, seq, local, values)
        if telemetry:
            now = time.monotonic()
            journal_s = t2 - t1 if journal else 0.0
            fold_s = (t1 - t0) + (now - t2)
            if journal:
                self.hists["shard.journal_sync"].observe(journal_s)
            self.hists["shard.fold"].observe(fold_s)
            self._last_fold_m = now
            self._last_fold_tick = self.counters["events"]
            self._ops.append((seq, tc, t0, journal_s, fold_s, len(local)))
        if len(self._pending_ids) >= FLUSH_EVENTS:
            self.flush()

    def _buffer(self, client: str, seq: int, local: array, values: array) -> None:
        """Append one applied sub-batch to the pending columns."""
        self._pending_ids.extend(local)
        self._pending_values.extend(values)
        self.applied[client] = seq
        self.counters["batches"] += 1
        self.counters["events"] += len(local)
        self._batches_since_checkpoint += 1

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

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    def _journal_append(self, record: tuple) -> None:
        head = b""
        if self._wal_file is None:
            self._wal_file = open(self.wal_path, "ab")
            if not self._wal_file.tell():
                head = _JOURNAL_HEADER
        body = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        self._wal_file.write(head + _LEN.pack(len(body)) + body)
        self._wal_file.flush()
        self.counters["wal_records"] += 1
        self._journal_bytes += len(head) + _LEN.size + len(body)

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
        state = {
            "index": self.index,
            "config": (
                self.config.capacity,
                self.config.steady,
                self.config.clear_interval,
            ),
            "exact": self.exact,
            "applied": dict(self.applied),
            "counters": dict(self.counters),
            "clients": self._clients,
            "db": db,
        }
        tmp = self.snapshot_path.with_suffix(".snap.tmp")
        try:
            with open(tmp, "wb") as handle:
                handle.write(b"%s %d\n" % (SNAPSHOT_MAGIC, SNAPSHOT_FORMAT_VERSION))
                pickle.dump(state, handle, protocol=pickle.HIGHEST_PROTOCOL)
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
            self._load_snapshot()
        # Replay with telemetry muted: a restart's catch-up folds are
        # catch-up, not live latency — they would skew every histogram
        # the replayed op count's worth.
        live_telemetry, self.telemetry = self.telemetry, False
        try:
            for record in self._read_journal():
                self._replay(record)
        finally:
            self.telemetry = live_telemetry
        if self.wal_path.exists() and self.wal_path.stat().st_size > self._journal_bytes:
            # Cut a torn tail (or header) off, so the records appended
            # from here on follow the last whole one.
            os.truncate(self.wal_path, self._journal_bytes)
        self.counters["restores"] += 1

    def _load_snapshot(self) -> None:
        """Load the snapshot, reading its format header before any state."""
        path = self.snapshot_path
        with open(path, "rb") as handle:
            header = handle.readline(len(SNAPSHOT_MAGIC) + 16)
            magic, _, stamp = header.rstrip(b"\n").partition(b" ")
            if magic != SNAPSHOT_MAGIC or not header.endswith(b"\n"):
                raise ShardStateError(
                    f"unsupported snapshot format: {path} has no format "
                    f"header, so it predates format {SNAPSHOT_FORMAT_VERSION}"
                )
            if stamp != b"%d" % SNAPSHOT_FORMAT_VERSION:
                raise ShardStateError(
                    f"unsupported snapshot format {stamp.decode('ascii', 'replace')} "
                    f"in {path}; this build reads format {SNAPSHOT_FORMAT_VERSION}"
                )
            try:
                state = pickle.load(handle)
            except Exception as error:  # any unpickling failure, not only UnpicklingError
                raise ShardStateError(
                    f"unreadable snapshot {path}: {type(error).__name__}: {error}"
                ) from None
        if not isinstance(state, dict):
            raise ShardStateError(
                f"unreadable snapshot {path}: holds a "
                f"{type(state).__name__}, not a snapshot dict"
            )
        if state.get("index") != self.index:
            raise ShardStateError(
                f"snapshot belongs to shard {state.get('index')}, "
                f"loaded as shard {self.index}"
            )
        try:
            clients = {
                client: array("i", known) for client, known in state["clients"].items()
            }
            db = state["db"]
            applied = dict(state["applied"])
            saved = state["counters"]
        except Exception as error:  # noqa: BLE001 - a missing or mistyped field
            raise ShardStateError(
                f"unreadable snapshot {path}: {type(error).__name__}: {error}"
            ) from None
        if type(db) is not ProfileDatabase:
            raise ShardStateError(
                f"unreadable snapshot {path}: its 'db' is a "
                f"{type(db).__name__}, not a ProfileDatabase"
            )
        self._db = db
        self._clients = clients
        self._snapshot_bytes = path.stat().st_size
        self.applied = applied
        for key in ("batches", "events", "checkpoints", "wal_records"):
            self.counters[key] = saved.get(key, 0)

    def _replay(self, record: tuple) -> None:
        """Apply one journal record again (no re-journaling).  Batches
        take the dedup path, so records the snapshot already holds skip
        as duplicates."""
        if record[0] == _DEFINE:
            _, base, payloads, client, sids, locals_ = record
            try:
                sites = [site_from_payload(payload) for payload in payloads]
            except ProtocolError as error:
                raise ShardStateError(f"journal {self.wal_path}: {error}") from None
            self._add_definitions(base, sites, client, sids, locals_)
            return
        _, client, seq, local, values = record
        high = self.applied.get(client, -1)
        if seq <= high:
            self.counters["duplicates"] += 1
            return
        if seq != high + 1 or (local and max(local) >= self._db.interned):
            raise ShardStateError(
                f"journal {self.wal_path} holds batch {client}/{seq} that does "
                f"not follow batch {high} or names an undefined site"
            )
        self._buffer(client, seq, local, values)
        if len(self._pending_ids) >= FLUSH_EVENTS:
            self.flush()

    def _read_journal(self) -> List[tuple]:
        """Every whole record of the journal, each checked to be of the
        current format before any is replayed; :attr:`_journal_bytes`
        becomes the offset where the last of them ends (0 for a journal
        without a whole header).

        The journal must start with the current format's header line; a
        journal without one was written by a shard of format 4 or
        earlier, and it and a header of another format raise
        :class:`ShardStateError` before any record is read.  A torn
        header or final record ends the journal; any other record that
        does not unpickle, or that is neither a definition ``("define",
        base, payloads, client, sids, local_ids)`` nor a batch
        ``("batch", client, seq, local_ids, values)`` with its columns
        as arrays, raises :class:`ShardStateError`.
        """
        records: List[tuple] = []
        self._journal_bytes = 0
        if not self.wal_path.exists():
            return records
        with open(self.wal_path, "rb") as handle:
            data = handle.read()
        if not data.startswith(_JOURNAL_HEADER):
            if _JOURNAL_HEADER.startswith(data):
                return records  # torn header (crash mid-append): nothing acked
            magic, _, stamp = data.partition(b"\n")[0].partition(b" ")
            if magic == JOURNAL_MAGIC:
                raise ShardStateError(
                    f"unsupported journal format {stamp[:16].decode('ascii', 'replace')} "
                    f"in {self.wal_path}; this build reads format {SNAPSHOT_FORMAT_VERSION}"
                )
            raise ShardStateError(
                f"unsupported journal format: {self.wal_path} has no format "
                f"header, so a shard of format 4 or earlier wrote it; this "
                f"build reads format {SNAPSHOT_FORMAT_VERSION}"
            )
        offset = len(_JOURNAL_HEADER)
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
            if not _is_record(record):
                raise ShardStateError(
                    f"journal {self.wal_path} holds a record at byte {offset} "
                    f"that is not of format {SNAPSHOT_FORMAT_VERSION}"
                )
            records.append(record)
            offset = end
        self._journal_bytes = offset
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


def _is_record(record) -> bool:
    """Whether ``record`` is a journal record of the current format (see
    :meth:`ShardCore._read_journal`)."""
    if type(record) is not tuple or not record:
        return False
    if record[0] == _BATCH and len(record) == 5:
        _, client, seq, local, values = record
        return (
            type(client) is str
            and type(seq) is int
            and type(local) is array and local.typecode == "I"
            and type(values) is array and values.typecode == "q"
            and len(local) == len(values)
        )
    if record[0] == _DEFINE and len(record) == 6:
        _, base, payloads, client, sids, locals_ = record
        return (
            type(base) is int
            and type(payloads) is list
            and type(client) is str
            and type(sids) is list
            and type(locals_) is list
            and len(sids) == len(locals_)
        )
    return False
