"""The asyncio profiling service: ingest, shards, queries.

Data path
---------

Client connections speak the length-prefixed frame protocol
(:mod:`repro.serve.protocol`).  The router keeps one session per
client id with the client's interned site table and each site's
owning shard, the next expected batch sequence number, a bounded
reorder buffer for batches that arrive ahead of a gap, and the set of
batches routed but not yet acknowledged.

Sites reach each shard once: a ``sites`` frame becomes one definition
item per shard, holding the client's ids and sites for the sites that
shard owns, and the shard numbers them with its own dense local ids
(:meth:`~repro.serve.shard.ShardCore.define`).  A client replaying its
table on reconnect defines nothing new.  A kill drops queued items,
definitions among them, so :meth:`ServeServer.restart_shard` defines
every session's sites again on the rebuilt core before it drains its
queue.  A definition that fails on a live shard (a journal write
error, say) is recovered the same way: the runner defines every
session's sites again before its next item.

A batch arrives as binary event columns and stays columns: the router
splits them by owning shard (:func:`repro.core.columns.partition`, one
vectorized pass with numpy) into an ``(ids, values)`` pair of arrays
per shard.  Every batch fans out to **every** shard — the events of
the sites a shard owns, or an empty sub-batch — so each shard sees a
gapless per-client sequence (see :mod:`repro.serve.shard` for why that
invariant carries the whole consistency story).  A batch is
acknowledged when all shards report it done (journaled and buffered
for the shard's next fold, or recognized as an already-applied
duplicate).

Backpressure is the shard queue: it is bounded, the router ``await``s
the put, and a saturated queue therefore stops the router reading from
client sockets (TCP backpressure) — while a high-watermark crossing
additionally broadcasts an explicit ``flow: pause`` frame so
well-behaved producers stop *before* the kernel buffers fill.

Shards
------

Each shard is an asyncio task in the server process, draining its
bounded ``asyncio.Queue`` of definition items and sub-batches into its
:class:`~repro.serve.shard.ShardCore`.  That keeps the service
deterministic and fully fault-injectable (kill, restart and per-batch
delay).  Profiling folds run on the loop, which is fine because a
shard folds its buffered columns in bulk, before a query or checkpoint
or at a size bound.

Queries
-------

A second listener answers plain HTTP/1.1 GETs from merged snapshots,
read straight from the shard cores (each folds its pending columns
before it answers):
``/profile`` (the exact ``repro profile`` table, or the database JSON),
``/inspect`` (TNV health overview), ``/stats`` (service counters,
queue depths, per-shard state and health, latency histograms, the
slow-op ring), ``/metrics`` (live Prometheus text scrape),
``/timeseries`` (the global collector's samples when enabled),
``/healthz`` and ``/checkpoint``.  Site spaces are disjoint across
shards, so the merge is a pure union of the shards' site tables and
per-kind row lists, and per-site numbers are exact.

Observability
-------------

Every client batch carries a wire trace context (``tc``); the server
emits ``serve.enqueue`` and ``serve.ack`` child spans on its own
tracer, while each shard times the journal write and the apply
(translating the ids and appending to its pending columns) per applied
sub-batch and hands those observations over *with its done-reports* —
``_telemetry_for_ops`` shapes them into latency samples the server
folds into its always-on histograms and, while the tracer is on, into
pre-parented span records.
Folding on the server is deliberate: a shard's own op log dies with a
kill, the done-report does not, so ``serve.journal_sync`` /
``serve.shard_fold`` stay cumulative across shard generations and the
span tree stays a single tree.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import time
import urllib.parse
from array import array
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.core.columns import partition
from repro.core.profile import ProfileDatabase, TNVConfig
from repro.core.sites import Site, SiteKind
from repro.errors import ReproError
from repro.obs import get_logger
from repro.obs.hist import Histogram, render_prometheus_hist
from repro.obs.metrics import METRICS as _METRICS
from repro.obs.timeseries import prom_name
from repro.obs.trace import TRACER as _TRACER
from repro.serve import protocol as proto
from repro.serve.protocol import ProtocolError
from repro.serve.shard import ShardCore, resume_seq

_LOG = get_logger(__name__)

DEFAULT_QUEUE_SIZE = 64
DEFAULT_CHECKPOINT_INTERVAL = 200
DEFAULT_REORDER_WINDOW = 64
DEFAULT_SLOW_OP_THRESHOLD = 1.0

#: slow-op ring size exposed in ``/stats`` (the log is for "what just
#: went slow", not history — the WARN log is the durable record).
SLOW_OP_RING = 32

#: queue-depth fractions that trigger client-visible flow control.
FLOW_HIGH_FRACTION = 0.75
FLOW_LOW_FRACTION = 0.25


class ServeError(ReproError):
    """The service could not start or answer."""


class _Pending:
    """One routed batch awaiting done-reports from every shard.

    ``tc`` is the batch's wire trace context and ``t0`` the monotonic
    arrival instant — both survive retries (a resent batch keeps its
    first arrival time, so ``serve.batch_e2e`` measures the client-
    visible wait, shard crashes included).
    """

    __slots__ = ("remaining", "writer", "events", "tc", "t0")

    def __init__(
        self,
        shards: int,
        writer,
        events: int,
        tc: Optional[Tuple[str, str]] = None,
        t0: float = 0.0,
    ) -> None:
        self.remaining: Set[int] = set(range(shards))
        self.writer = writer
        self.events = events
        self.tc = tc
        self.t0 = t0


class _Session:
    """Per-client routing state (survives reconnects)."""

    __slots__ = (
        "id",
        "stream",
        "sites",
        "owners",
        "expected_seq",
        "reorder",
        "pending",
    )

    def __init__(self, client_id: str, stream: str) -> None:
        self.id = client_id
        self.stream = stream
        #: the client's site table, indexed by its site ids.
        self.sites: List[Site] = []
        #: the owning shard of each of the client's site ids.
        self.owners = b""
        self.expected_seq = 0
        #: seq -> (sids, values, writer, tc, arrival) parked until the gap closes.
        self.reorder: Dict[int, tuple] = {}
        #: seq -> _Pending, routed but not fully acknowledged.
        self.pending: Dict[int, _Pending] = {}

    def add_sites(self, base: int, payloads: List[list], shards: int) -> int:
        """Extend (or idempotently verify) the client's site table.

        Returns the first newly defined site id; the table's length when
        the frame defined nothing new.
        """
        defined = len(self.sites)
        if base > defined:
            raise ProtocolError(f"site table gap: base {base} with {defined} defined")
        new: List[Site] = []
        for offset, payload in enumerate(payloads):
            sid = base + offset
            if sid < defined:
                # A reconnecting client replays its table: verify it.
                if proto.site_to_payload(self.sites[sid]) != payload:
                    raise ProtocolError(f"site id {sid} redefined inconsistently")
                continue
            new.append(proto.site_from_payload(payload))
        if new:
            self.sites.extend(new)
            self.owners += bytes(proto.shard_for_site(site, shards) for site in new)
        return defined

    def owned(self, shard: int, start: int = 0) -> Tuple[List[int], List[Site]]:
        """The client's ids from ``start`` on that ``shard`` owns, and their sites."""
        sids = [sid for sid in range(start, len(self.sites)) if self.owners[sid] == shard]
        return sids, [self.sites[sid] for sid in sids]


# ----------------------------------------------------------------------
# shards
# ----------------------------------------------------------------------


def _telemetry_for_ops(
    shard_index: int, client: str, ops: List[tuple]
) -> Dict[int, dict]:
    """Shape a core's drained op log into per-seq done-report telemetry.

    ``{seq: {"journal_s", "fold_s", "events", "spans"}}``.  The spans
    are complete records on the server tracer's clock, pre-parented
    under the batch's client span id (``tc[1]``) with deterministic ids
    — ``<tc>.s<shard>.journal`` / ``.fold`` — so :meth:`Tracer.adopt`
    threads them into one tree whichever shard generation produced
    them, and a duplicate apply can never mint a second span (dedup
    means a (client, seq) applies at most once per shard).  They are
    built only while the tracer is on, the one time they are adopted;
    otherwise ``spans`` is empty.
    """
    epoch = _TRACER.epoch
    tracing = _TRACER.enabled
    telemetry: Dict[int, dict] = {}
    for seq, tc, start_m, journal_s, fold_s, events in ops:
        spans: List[dict] = []
        if tc is not None and tracing:
            parent = tc[1]
            base = f"{parent}.s{shard_index}"
            attrs = {"shard": shard_index, "client": client, "seq": seq}
            spans.append({
                "name": "serve.journal",
                "span_id": f"{base}.journal",
                "parent_id": parent,
                "t_start_s": round(start_m - epoch, 6),
                "duration_s": round(journal_s, 6),
                "attrs": dict(attrs),
            })
            spans.append({
                "name": "serve.fold",
                "span_id": f"{base}.fold",
                "parent_id": parent,
                "t_start_s": round(start_m + journal_s - epoch, 6),
                "duration_s": round(fold_s, 6),
                "attrs": {**attrs, "events": events},
            })
        telemetry[seq] = {
            "journal_s": journal_s,
            "fold_s": fold_s,
            "events": events,
            "spans": spans,
        }
    return telemetry


class InlineShardRunner:
    """One shard as an asyncio task draining a bounded queue.

    ``core`` is the shard's :class:`ShardCore`, read directly by queries
    and checkpoints, or ``None`` while the shard is dead.  The queue
    holds sub-batches ``(client, seq, ids, values, tc)`` and definition
    items ``(client, None, sids, sites, None)``.  ``kill`` models
    SIGKILL: the task stops and everything in memory — queued items,
    the profiles folded since the last checkpoint and the pending
    columns not yet folded — is discarded.  ``restart`` rebuilds the
    core from snapshot + journal and defines every session's sites on
    it again, as the runner itself does after a definition fails.
    ``delay`` injects per-item latency (the slow-consumer fault).
    """

    def __init__(self, server: "ServeServer", index: int) -> None:
        self.server = server
        self.index = index
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=server.queue_size)
        self.core: Optional[ShardCore] = self._make_core(restore=server.restore)
        self.delay = 0.0
        #: a definition failed and every session's sites are to be
        #: defined again before the next item (see :meth:`_define`).
        self.unsynced = False
        self._task: Optional[asyncio.Task] = None

    def _make_core(self, restore: bool) -> ShardCore:
        return ShardCore(
            self.index,
            self.server.snapshot_dir,
            config=self.server.config,
            exact=self.server.exact,
            restore=restore,
        )

    @property
    def alive(self) -> bool:
        return self._task is not None

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def _run(self) -> None:
        while True:
            client, seq, ids, values, tc = await self.queue.get()
            if self.delay:
                await asyncio.sleep(self.delay)
            core = self.core
            if core is not None and self.unsynced:
                self.unsynced = not self._define(self._define_sessions, core)
            if core is not None and seq is None:
                # A definition item: ``ids`` are client site ids and
                # ``values`` their sites.
                self._define(core.define, client, ids, values)
            elif core is not None:
                done: List[int] = []
                telemetry: Dict[int, dict] = {}
                try:
                    done = core.submit(client, seq, ids, values, tc=tc)
                    telemetry = _telemetry_for_ops(self.index, client, core.take_ops())
                except Exception:  # noqa: BLE001 - a poisoned batch must not wedge the shard
                    _LOG.exception(
                        "shard %d failed applying batch %s/%d; dropped un-acked",
                        self.index,
                        client,
                        seq,
                    )
                    self.server._inc("serve.poisoned_batches")
                for done_seq in done:
                    self.server._on_done(
                        self.index, client, done_seq, telemetry.get(done_seq)
                    )
                # After the done-reports: the triggering batch's ack
                # never waits on the snapshot.
                core.maybe_checkpoint(self.server.checkpoint_interval)
            self.queue.task_done()
            self.server._update_depth()

    def _define(self, step, *args) -> bool:
        """Run one definition step; False when it raised.

        A failure (a journal write error, say) is logged, counted in
        ``serve.failed_definitions`` and leaves the runner *unsynced*:
        before its next item it defines every session's sites again,
        and it stays unsynced until that succeeds.  So no sub-batch
        waits on a definition the shard lost, beyond the client's
        resend.
        """
        try:
            step(*args)
        except Exception:  # noqa: BLE001 - a failed definition must not wedge the shard
            _LOG.exception(
                "shard %d failed defining sites; every session's sites are "
                "defined again before its next item",
                self.index,
            )
            self.server._inc("serve.failed_definitions")
            self.unsynced = True
            return False
        return True

    def _define_sessions(self, core: ShardCore) -> None:
        """Define on ``core`` every session's sites this shard owns;
        what the core already holds journals nothing."""
        for session in self.server.sessions.values():
            sids, sites = session.owned(self.index)
            if sids:
                core.define(session.id, sids, sites)

    async def submit(self, item: tuple) -> None:
        await self.queue.put(item)
        self.server._update_depth()

    def depth(self) -> int:
        return self.queue.qsize()

    def _cancel(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def kill(self) -> int:
        """Abrupt death: drop queued work and all un-journaled state."""
        self._cancel()
        dropped = 0
        while True:
            try:
                self.queue.get_nowait()
                dropped += 1
            except asyncio.QueueEmpty:
                break
        if self.core is not None:
            self.core.close()
            self.core = None
        self.server._update_depth()
        return dropped

    def restart(self) -> None:
        """Rolling restart: rebuild from snapshot + journal tail.

        A live shard's core is closed first.  Its queue is kept; its
        pending columns are in the journal, and batches it parked ahead
        of a gap were never reported done, so the client resends them.
        A kill dropped whatever definition items were queued, so every
        session's sites are defined on the rebuilt core again, before
        it takes the next item; what the core already holds journals
        nothing.
        """
        self._cancel()
        if self.core is not None:
            self.core.close()
            self.core = None  # dead, like a kill, if the rebuild fails
        core = self._make_core(restore=True)
        try:
            self._define_sessions(core)
        except BaseException:
            core.close()
            raise
        self.core = core
        self.unsynced = False
        self.start()

    def stop(self, checkpoint: bool = True) -> None:
        """Stop the task, checkpoint unless told not to, close the core."""
        self._cancel()
        if self.core is not None:
            try:
                if checkpoint:
                    self.core.checkpoint()
            finally:
                self.core.close()


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------


class ServeServer:
    """The profiling-as-a-service daemon.

    Args:
        shards: number of shards the site space hashes across.
        host / ingest_port / http_port: listener addresses (port 0 =
            ephemeral; the bound ports are exposed after ``start``).
        queue_size: bound of each shard's sub-batch queue — the
            backpressure knob.
        checkpoint_interval: batches a shard applies between automatic
            checkpoints (``None`` disables; ``/checkpoint`` and
            graceful stop still checkpoint).
        snapshot_dir: where snapshots + journals live (a temporary
            directory when omitted).
        restore: load shard snapshots/journals on startup (rolling
            restart); sessions resume at ``min`` applied + 1.
        config / exact: profile knobs, as in :class:`ProfileDatabase`.
        timeseries_interval: if set, enable the global time-series
            collector for this server's lifetime (``/timeseries``).
        slow_op_threshold: seconds above which a fold or HTTP query is
            logged as a structured WARN, counted in ``serve.slow_ops``
            and kept in the ``/stats`` slow-op ring.

    The serve metrics plane — latency histograms, per-shard depth
    gauges, the slow-op ring — is **always on** (like the counter
    dicts) and scraped live via ``/metrics`` in Prometheus text
    format; enabling the global obs registry additionally mirrors
    everything there.  See ``docs/serving.md``.
    """

    def __init__(
        self,
        shards: int = 2,
        host: str = "127.0.0.1",
        ingest_port: int = 0,
        http_port: int = 0,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        checkpoint_interval: Optional[int] = DEFAULT_CHECKPOINT_INTERVAL,
        snapshot_dir: Optional[str] = None,
        restore: bool = False,
        config: Optional[TNVConfig] = None,
        exact: bool = True,
        reorder_window: int = DEFAULT_REORDER_WINDOW,
        timeseries_interval: Optional[int] = None,
        slow_op_threshold: float = DEFAULT_SLOW_OP_THRESHOLD,
    ) -> None:
        if not 1 <= shards <= 255:
            raise ServeError(f"need 1 to 255 shards, got {shards}")
        self.nshards = shards
        self.host = host
        self._ingest_port = ingest_port
        self._http_port = http_port
        self.queue_size = queue_size
        self.checkpoint_interval = checkpoint_interval
        self.restore = restore
        self.config = config or TNVConfig()
        self.exact = exact
        self.reorder_window = reorder_window
        self.timeseries_interval = timeseries_interval
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        if snapshot_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-serve-")
            snapshot_dir = self._tmpdir.name
        self.snapshot_dir = snapshot_dir
        self.runners: List[InlineShardRunner] = []
        self.sessions: Dict[str, _Session] = {}
        self._conns: Set[asyncio.StreamWriter] = set()
        self._ingest_server: Optional[asyncio.base_events.Server] = None
        self._http_server: Optional[asyncio.base_events.Server] = None
        self._paused = False
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {"serve.shards": float(shards)}
        self.slow_op_threshold = slow_op_threshold
        #: recent slow ops, newest last; rendered in /stats.
        self.slow_ops: deque = deque(maxlen=SLOW_OP_RING)
        #: always-on latency/size distributions, eagerly created so a
        #: /metrics scrape shows every family (zeroed) from the first
        #: request.  Shard-side observations fold in via done-report
        #: telemetry, which is what keeps them cumulative across shard
        #: kills and generation swaps.
        self.hists: Dict[str, Histogram] = {
            "serve.batch_e2e": Histogram(),
            "serve.journal_sync": Histogram(),
            "serve.shard_fold": Histogram(),
            "serve.http_request": Histogram(),
            "serve.batch_events": Histogram(kind="size"),
        }
        self._flow_high = max(1, int(queue_size * FLOW_HIGH_FRACTION))
        self._flow_low = max(0, int(queue_size * FLOW_LOW_FRACTION))

    # ------------------------------------------------------------------
    # metrics plumbing (always-on internal dicts, mirrored to the
    # global registry when the obs layer is enabled)
    # ------------------------------------------------------------------

    def _inc(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n
        _METRICS.inc(name, n)

    def _gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value
        _METRICS.gauge(name, value)

    def _observe(self, name: str, value: float, kind: str = "latency") -> None:
        hist = self.hists.get(name)
        if hist is None:
            hist = self.hists[name] = Histogram(kind=kind)
        hist.observe(value)
        _METRICS.observe_hist(name, value, kind=kind)

    def _slow_op(self, op: str, seconds: float, detail: str) -> None:
        """Record one operation's duration against the slow-op budget."""
        if seconds < self.slow_op_threshold:
            return
        self._inc("serve.slow_ops")
        self.slow_ops.append({"op": op, "seconds": round(seconds, 6), "detail": detail})
        _LOG.warning(
            "slow op: %s took %.3fs (threshold %.3fs) %s",
            op, seconds, self.slow_op_threshold, detail,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def ingest_port(self) -> int:
        return self._ingest_port

    @property
    def http_port(self) -> int:
        return self._http_port

    async def start(self) -> None:
        self.runners = [
            InlineShardRunner(self, index) for index in range(self.nshards)
        ]
        for runner in self.runners:
            runner.start()
        self._ingest_server = await asyncio.start_server(
            self._handle_ingest, self.host, self._ingest_port
        )
        self._http_server = await asyncio.start_server(
            self._handle_http, self.host, self._http_port
        )
        self._ingest_port = self._ingest_server.sockets[0].getsockname()[1]
        self._http_port = self._http_server.sockets[0].getsockname()[1]
        if self.timeseries_interval is not None:
            from repro.obs.timeseries import TIMESERIES

            TIMESERIES.enable(interval=self.timeseries_interval)
        _LOG.info(
            "serving %d shard(s): ingest on %s:%d, http on %s:%d",
            self.nshards,
            self.host,
            self._ingest_port,
            self.host,
            self._http_port,
        )

    async def stop(self, checkpoint: bool = True) -> None:
        """Close the listeners, then stop every shard and tear down.

        A shard whose final checkpoint fails does not stop the others:
        every shard is stopped and closed and the teardown finishes
        before the first error is re-raised.
        """
        for server in (self._ingest_server, self._http_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._ingest_server = self._http_server = None
        for writer in list(self._conns):
            writer.close()
        self._conns.clear()
        errors: List[Exception] = []
        for runner in self.runners:
            try:
                runner.stop(checkpoint=checkpoint)
            except Exception as error:  # noqa: BLE001 - the first is re-raised below
                _LOG.exception("shard %d failed to stop cleanly", runner.index)
                errors.append(error)
        if self.timeseries_interval is not None:
            from repro.obs.timeseries import TIMESERIES

            TIMESERIES.disable()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
        if errors:
            raise errors[0]

    # ------------------------------------------------------------------
    # ingest path
    # ------------------------------------------------------------------

    async def _handle_ingest(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conns.add(writer)
        self._inc("serve.connections")
        session: Optional[_Session] = None
        try:
            while True:
                message = await proto.read_frame(reader)
                if message is None:
                    break
                kind = message["t"]
                if kind == "hello":
                    session = self._hello(message, writer)
                elif session is None:
                    self._send(writer, proto.error("hello must come first"))
                    break
                elif kind == "sites":
                    first_new = session.add_sites(
                        message.get("base", 0),
                        message.get("sites", []),
                        self.nshards,
                    )
                    await self._define_sites(session, first_new)
                elif kind == "batch":
                    await self._handle_batch(
                        session, writer, message["seq"], message["sids"],
                        message["values"], message["tc"],
                    )
                elif kind == "bye":
                    break
                else:
                    self._send(writer, proto.error(f"unknown message type {kind!r}"))
                    break
        except ProtocolError as error:
            self._send(writer, proto.error(str(error)))
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._conns.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    def _hello(self, message: dict, writer) -> _Session:
        version = message.get("v")
        if version != proto.PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version {version!r} is not supported; this server "
                f"speaks v{proto.PROTOCOL_VERSION}"
            )
        client = message.get("client")
        if not isinstance(client, str) or not client:
            raise ProtocolError("hello needs a non-empty client id")
        session = self.sessions.get(client)
        if session is None:
            session = _Session(client, message.get("stream", ""))
            # A server restored from snapshots has applied state for
            # clients it has never talked to in this process; the
            # resume point is min(applied) + 1 across shards.
            highs = [
                -1 if runner.core is None else runner.core.applied.get(client, -1)
                for runner in self.runners
            ]
            session.expected_seq = resume_seq(highs)
            self.sessions[client] = session
            self._gauge("serve.sessions", float(len(self.sessions)))
        elif message.get("stream"):
            session.stream = message["stream"]
        # The welcome resume point promises "applied on every shard", and
        # the client deletes everything below it from its unacked buffer.
        # A batch routed but still awaiting shard done-reports (e.g. one a
        # shard kill dropped before journaling) is *not* applied everywhere,
        # so the resume point must stay at or below the lowest such seq —
        # the client resends it and the shards that did apply it dedup.
        next_seq = session.expected_seq
        if session.pending:
            next_seq = min(next_seq, min(session.pending))
        self._send(writer, proto.welcome(self.nshards, next_seq))
        if self._paused:
            self._send(writer, proto.flow("pause"))
        return session

    async def _define_sites(self, session: _Session, start: int) -> None:
        """Send each shard one definition item: the sites it owns among
        the session's ids from ``start`` on, if any.

        The items queue ahead of every batch this connection routes
        next.  A second connection of the same session (a reconnect
        racing a handler still blocked on a full queue here) can route
        a batch past them; its shard refuses the batch un-acked, and
        the client's resend applies once the definition has landed.
        """
        for runner in self.runners:
            sids, sites = session.owned(runner.index, start)
            if sids:
                await runner.submit((session.id, None, sids, sites, None))

    async def _handle_batch(
        self,
        session: _Session,
        writer,
        seq: int,
        sids: array,
        values: array,
        tc: Optional[Tuple[str, str]],
    ) -> None:
        self._inc("serve.batches")
        arrival = time.monotonic()
        if seq == session.expected_seq:
            await self._route(session, writer, seq, sids, values, fresh=True,
                              tc=tc, t0=arrival)
            session.expected_seq += 1
            while session.expected_seq in session.reorder:
                parked_sids, parked_values, parked_writer, parked_tc, parked_t0 = (
                    session.reorder.pop(session.expected_seq)
                )
                await self._route(
                    session,
                    parked_writer,
                    session.expected_seq,
                    parked_sids,
                    parked_values,
                    fresh=True,
                    tc=parked_tc,
                    t0=parked_t0,
                )
                session.expected_seq += 1
        elif seq > session.expected_seq:
            too_far = seq - session.expected_seq > self.reorder_window
            if too_far or len(session.reorder) >= self.reorder_window:
                # Dropped un-acked: the client's retry loop redelivers
                # once the gap closes.  Bounding here is what keeps a
                # wildly misordered producer from ballooning memory.
                self._inc("serve.reorder_overflow")
            else:
                session.reorder[seq] = (sids, values, writer, tc, arrival)
                self._inc("serve.reordered_batches")
        elif seq in session.pending:
            # Routed but not fully acknowledged — a retry racing a slow
            # or crashed shard.  Re-fan-out: shards that applied it
            # dedup, the one that lost it applies it.
            self._inc("serve.retried_batches")
            await self._route(session, writer, seq, sids, values, fresh=False,
                              tc=tc, t0=arrival)
        else:
            # Fully applied long ago: just re-ack.
            self._inc("serve.duplicate_batches")
            self._send(writer, proto.ack(seq))

    async def _route(
        self,
        session: _Session,
        writer,
        seq: int,
        sids: array,
        values: array,
        fresh: bool,
        tc: Optional[Tuple[str, str]] = None,
        t0: float = 0.0,
    ) -> None:
        try:
            routed = partition(sids, values, session.owners, self.nshards)
        except IndexError:
            raise ProtocolError(
                f"batch references a site id outside the {len(session.sites)} defined"
            ) from None
        if fresh:
            self._inc("serve.events", len(sids))
            self._observe("serve.batch_events", len(sids), kind="size")
        else:
            # A retry keeps the original pending's arrival time and
            # trace context: the e2e histogram measures the client's
            # wait since *first* transmit, crashes and resends included.
            previous = session.pending.get(seq)
            if previous is not None:
                t0 = previous.t0
                tc = previous.tc
        session.pending[seq] = _Pending(self.nshards, writer, len(sids), tc=tc, t0=t0)
        for runner, (ids, shard_values) in zip(self.runners, routed):
            await runner.submit((session.id, seq, ids, shard_values, tc))
        if fresh and tc is not None and _TRACER.enabled:
            _TRACER.record_span(
                "serve.enqueue",
                span_id=f"{tc[1]}.enq",
                parent_id=tc[1],
                start_monotonic=t0,
                duration_s=time.monotonic() - t0,
                attrs={"client": session.id, "seq": seq, "events": len(sids)},
            )

    def _on_done(
        self,
        shard_index: int,
        client: str,
        seq: int,
        telemetry: Optional[dict] = None,
    ) -> None:
        # Shard observations fold in *here*, on the server, from the
        # telemetry riding each done-report: the shard's own op log
        # dies with the shard, the done-report is durable — so the
        # histograms stay cumulative across kills and generations.
        if telemetry is not None:
            journal_s = telemetry.get("journal_s", 0.0)
            fold_s = telemetry.get("fold_s", 0.0)
            if journal_s:
                self._observe("serve.journal_sync", journal_s)
            self._observe("serve.shard_fold", fold_s)
            self._slow_op(
                f"shard{shard_index}.fold", fold_s,
                f"client={client} seq={seq} events={telemetry.get('events', 0)}",
            )
            spans = telemetry.get("spans")
            if spans and _TRACER.enabled:
                _TRACER.adopt(spans)
        session = self.sessions.get(client)
        if session is None:
            return
        pending = session.pending.get(seq)
        if pending is None:
            return
        pending.remaining.discard(shard_index)
        if not pending.remaining:
            del session.pending[seq]
            self._inc("serve.acks")
            if pending.t0:
                e2e = time.monotonic() - pending.t0
                self._observe("serve.batch_e2e", e2e)
                if pending.tc is not None and _TRACER.enabled:
                    _TRACER.record_span(
                        "serve.ack",
                        span_id=f"{pending.tc[1]}.ack",
                        parent_id=pending.tc[1],
                        start_monotonic=pending.t0,
                        duration_s=e2e,
                        attrs={
                            "client": client,
                            "seq": seq,
                            "events": pending.events,
                        },
                    )
            self._send(pending.writer, proto.ack(seq))

    def _send(self, writer, message: dict) -> None:
        if writer is None or writer.is_closing():
            return
        try:
            writer.write(proto.encode_frame(message))
        except (ConnectionError, RuntimeError):  # pragma: no cover - races
            pass

    # ------------------------------------------------------------------
    # flow control
    # ------------------------------------------------------------------

    def _update_depth(self) -> None:
        depth = max((runner.depth() for runner in self.runners), default=0)
        self._gauge("serve.queue_depth", float(depth))
        if not self._paused and depth >= self._flow_high:
            self._paused = True
            self._inc("serve.flow_pauses")
            self._broadcast(proto.flow("pause"))
        elif self._paused and depth <= self._flow_low:
            self._paused = False
            self._broadcast(proto.flow("resume"))

    def _broadcast(self, message: dict) -> None:
        frame_writers = list(self._conns)
        for writer in frame_writers:
            self._send(writer, message)

    # ------------------------------------------------------------------
    # fault-injection / admin surface (also used by rolling restarts).
    # Like the queries below, these touch the shard queues and cores,
    # so they run on the server's event loop.
    # ------------------------------------------------------------------

    def kill_shard(self, index: int) -> int:
        """SIGKILL semantics; returns the number of queued batches lost."""
        dropped = self.runners[index].kill()
        self._inc("serve.shard_kills")
        return dropped

    def restart_shard(self, index: int) -> None:
        """Restore a shard from its snapshot + journal."""
        self.runners[index].restart()
        self._inc("serve.shard_restarts")

    def set_shard_delay(self, index: int, seconds: float) -> None:
        """Inject per-batch latency (the slow-consumer fault)."""
        self.runners[index].delay = seconds

    def checkpoint_all(self) -> int:
        for runner in self.runners:
            if runner.core is not None:
                runner.core.checkpoint()
        self._inc("serve.checkpoints")
        return self.nshards

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _stream_name(self) -> str:
        streams = sorted({s.stream for s in self.sessions.values() if s.stream})
        return "+".join(streams)

    def merged_database(self) -> ProfileDatabase:
        """A merged view of every live shard's profiles.

        Shards own disjoint site sets, so the merge is a union
        (:meth:`ProfileDatabase.union`): each shard's site table, rows
        and per-kind row lists join the view as they are, all per-site
        state exact, and no site is hashed or row re-listed.  It
        references live shard profiles and is rendered without yielding
        to the loop, i.e. it is a consistent snapshot.
        """
        merged = ProfileDatabase(
            config=self.config, exact=self.exact, name=self._stream_name()
        )
        for runner in self.runners:
            if runner.core is not None:
                merged.union(runner.core.db)
        return merged

    def stats_payload(self) -> dict:
        shard_stats = []
        for runner in self.runners:
            if runner.core is None:
                stats = {"index": runner.index, "dead": True}
            else:
                stats = runner.core.stats()
            stats["queue_depth"] = runner.depth()
            stats["alive"] = runner.alive
            shard_stats.append(stats)
        return {
            "paused": self._paused,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "hists": {name: hist.snapshot()
                      for name, hist in sorted(self.hists.items())},
            "slow_op_threshold": self.slow_op_threshold,
            "slow_ops": list(self.slow_ops),
            "clients": {
                client: {
                    "stream": session.stream,
                    "expected_seq": session.expected_seq,
                    "pending": len(session.pending),
                    "reorder_buffered": len(session.reorder),
                    "sites": len(session.sites),
                }
                for client, session in sorted(self.sessions.items())
            },
            "shards": shard_stats,
        }

    # ------------------------------------------------------------------
    # HTTP listener
    # ------------------------------------------------------------------

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            if not request_line:
                writer.close()
                return
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                raise ProtocolError("malformed request line")
            method, target = parts[0], parts[1]
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            if method != "GET":
                status, ctype, body = 405, "text/plain", "only GET is supported\n"
            else:
                path, _, query = target.partition("?")
                params = urllib.parse.parse_qs(query)
                t_request = time.monotonic()
                status, ctype, body = self._http_route(path, params)
                elapsed = time.monotonic() - t_request
                self._observe("serve.http_request", elapsed)
                self._slow_op(f"GET {path}", elapsed, f"status={status}")
        except ProtocolError as error:
            status, ctype, body = 400, "text/plain", f"bad request: {error}\n"
        except Exception as error:  # noqa: BLE001 - a query must never kill the loop
            _LOG.exception("query failed")
            status, ctype, body = 500, "text/plain", f"internal error: {error}\n"
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 500: "Internal Server Error"}
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reason.get(status, 'OK')}\r\n"
            f"Content-Type: {ctype}; charset=utf-8\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        except ConnectionError:  # pragma: no cover - client went away
            pass
        finally:
            writer.close()

    @staticmethod
    def _param(params: dict, name: str, default: str) -> str:
        values = params.get(name)
        return values[0] if values else default

    @classmethod
    def _int_param(cls, params: dict, name: str, default: str) -> int:
        raw = cls._param(params, name, default)
        try:
            return int(raw)
        except ValueError:
            raise ProtocolError(f"query param {name} must be an integer, got {raw!r}") from None

    @classmethod
    def _kind_param(
        cls, params: dict, name: str, default: str
    ) -> Optional[SiteKind]:
        raw = cls._param(params, name, default)
        if not raw:
            return None
        try:
            return SiteKind(raw)
        except ValueError:
            valid = ", ".join(kind.value for kind in SiteKind)
            raise ProtocolError(
                f"query param {name} must be a site kind ({valid}), got {raw!r}"
            ) from None

    def _http_route(self, path: str, params: dict) -> Tuple[int, str, str]:
        self._inc("serve.queries")
        if path == "/healthz":
            body = json.dumps(
                {
                    "status": "ok",
                    "shards": self.nshards,
                    "alive": [runner.alive for runner in self.runners],
                }
            )
            return 200, "application/json", body + "\n"
        if path == "/stats":
            payload = self.stats_payload()
            return 200, "application/json", json.dumps(payload, indent=2) + "\n"
        if path == "/checkpoint":
            count = self.checkpoint_all()
            return 200, "application/json", json.dumps({"checkpointed": count}) + "\n"
        if path == "/profile":
            merged = self.merged_database()
            if self._param(params, "format", "text") == "json":
                return 200, "application/json", merged.to_json() + "\n"
            from repro.analysis.tables import profile_table

            kind = self._kind_param(params, "kind", "load")
            top = self._int_param(params, "top", "20")
            return 200, "text/plain", profile_table(merged, kind, top=top).render() + "\n"
        if path == "/inspect":
            from repro.obs.inspect import render_overview

            merged = self.merged_database()
            kind = self._kind_param(params, "kind", "")
            top = self._int_param(params, "top", "10")
            return 200, "text/plain", render_overview(merged, kind=kind, top=top) + "\n"
        if path == "/timeseries":
            from repro.obs.timeseries import TIMESERIES

            if not TIMESERIES.enabled:
                body = json.dumps({"enabled": False, "samples": []})
                return 200, "application/json", body + "\n"
            TIMESERIES.sample()
            payload = TIMESERIES.to_payload()
            payload["enabled"] = True
            return 200, "application/json", json.dumps(payload) + "\n"
        if path == "/metrics":
            return 200, "text/plain; version=0.0.4", self.render_metrics()
        return 404, "text/plain", f"no such endpoint: {path}\n"

    def render_metrics(self) -> str:
        """The live Prometheus scrape: counters, gauges, histograms.

        Built from server-local state and per-runner depth probes only
        — it reads no shard core, so a scrape is cheap and never flushes
        a shard's pending columns.  Per-shard queue depth and
        liveness ride as labeled series; when the global registry is
        enabled, its sections are appended under any names the serve
        dicts don't already cover (the serve counters mirror into the
        registry under identical names, so the skip avoids double
        exposition).
        """
        lines: List[str] = []
        emitted = set()
        for name, value in sorted(self.counters.items()):
            prom = prom_name(name)
            emitted.add(prom)
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {value}")
        for name, value in sorted(self.gauges.items()):
            prom = prom_name(name)
            emitted.add(prom)
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {value:g}")
        lines.append("# TYPE repro_serve_shard_queue_depth gauge")
        for index, runner in enumerate(self.runners):
            lines.append(
                f'repro_serve_shard_queue_depth{{shard="{index}"}} {runner.depth()}'
            )
        lines.append("# TYPE repro_serve_shard_up gauge")
        for index, runner in enumerate(self.runners):
            lines.append(
                f'repro_serve_shard_up{{shard="{index}"}} {1 if runner.alive else 0}'
            )
        for name, hist in sorted(self.hists.items()):
            prom = prom_name(name)
            emitted.add(prom)
            lines.extend(render_prometheus_hist(prom, hist.snapshot()))
        if _METRICS.enabled:
            snapshot = _METRICS.snapshot()
            for section, prom_type in (("counters", "counter"), ("gauges", "gauge")):
                for name, value in snapshot[section].items():
                    prom = prom_name(name)
                    if prom in emitted:
                        continue
                    lines.append(f"# TYPE {prom} {prom_type}")
                    lines.append(f"{prom} {value}")
            for name, stats in snapshot["timers"].items():
                prom = prom_name(name)
                lines.append(f"# TYPE {prom}_seconds_count counter")
                lines.append(f"{prom}_seconds_count {stats['count']}")
                lines.append(f"# TYPE {prom}_seconds_sum counter")
                lines.append(f"{prom}_seconds_sum {stats['total_s']}")
            for name, snap in snapshot["hists"].items():
                prom = prom_name(name)
                if prom in emitted:
                    continue
                lines.extend(render_prometheus_hist(prom, snap))
        return "\n".join(lines) + "\n"
