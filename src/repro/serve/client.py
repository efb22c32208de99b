"""The blocking client of the profiling service.

One :class:`ServeClient` is one producer session: it interns sites
into a positional table shared with the server, ships the event stream
as sequenced batches, and tracks acknowledgements in a bounded send
window.  The reliability contract is deliberately one-sided — the
*client* owns redelivery:

* every batch stays in the unacked buffer until its ``ack`` arrives;
* no ack within ``retry_interval`` → resend everything unacked, in
  sequence order (the server dedups, so resending is always safe);
* connection loss → reconnect, and the ``welcome`` resume point says
  which unacked batches the cluster already holds — the rest are
  resent along with the full site table;
* a ``flow: pause`` frame stops new sends and retries until the
  matching ``resume`` (the server sheds load by asking, not by
  dropping);
* no overall progress within ``timeout`` → :class:`ClientError`.

Together with the server's journaled ack this yields effectively-once
delivery: at-least-once from the retries, exactly-once in the profiles
from the per-shard dedup.

``frame_hook`` exists for the fault-injecting test harness: every
outgoing batch message passes through it and whatever list of messages
it returns is what actually hits the wire — return ``[]`` to drop,
``[m, m]`` to duplicate, buffer-and-release to reorder.

Used by ``repro push`` (CLI) and ``tests/serve/harness.py`` alike, so
the harness exercises the exact code a production producer runs.
"""

from __future__ import annotations

import socket
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.sites import Site
from repro.errors import ReproError
from repro.obs import get_logger
from repro.obs.hist import Histogram
from repro.obs.metrics import METRICS as _METRICS
from repro.obs.trace import TRACER as _TRACER
from repro.serve import protocol as proto
from repro.serve.protocol import FrameDecoder

_LOG = get_logger(__name__)

DEFAULT_WINDOW = 32
DEFAULT_TIMEOUT = 10.0
DEFAULT_RETRY_INTERVAL = 0.25

#: how long one blocking recv waits before the send loop re-checks
#: timers (retry / timeout bookkeeping runs between polls).
_POLL_INTERVAL = 0.05


class ClientError(ReproError):
    """The session made no progress within the client's timeout."""


class ServeClient:
    """A windowed, retrying producer connection.

    Args:
        host / port: the server's ingest listener.
        client_id: stable identity of this producer — sequence numbers,
            dedup state and restart resume points all key off it.
        stream: workload name reported to the server (it becomes the
            merged database's name, so ``/profile`` titles match the
            offline run).
        window: max unacked batches in flight before ``send_batch``
            blocks.
        timeout: max seconds without any progress before giving up.
        retry_interval: seconds without an ack before unacked batches
            are resent.
        frame_hook: fault-injection hook over outgoing batch messages
            (see module docstring); ``None`` sends them as-is.
    """

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str,
        stream: str = "",
        window: int = DEFAULT_WINDOW,
        timeout: float = DEFAULT_TIMEOUT,
        retry_interval: float = DEFAULT_RETRY_INTERVAL,
        frame_hook: Optional[Callable[[dict], Optional[List[dict]]]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.stream = stream
        self.window = window
        self.timeout = timeout
        self.retry_interval = retry_interval
        self.frame_hook = frame_hook
        self.shards = 0
        self._sock: Optional[socket.socket] = None
        self._decoder = FrameDecoder()
        self._welcome: Optional[dict] = None
        self._paused = False
        self._sites: List[Site] = []
        self._site_ids: Dict[Site, int] = {}
        self._defined = 0  # site defs sent on the *current* connection
        self._next_seq = 0
        #: seq -> (sid column, value column); insertion order == sequence order.
        self._unacked: Dict[int, Tuple[array, array]] = {}
        #: the trace id every batch's wire trace context carries; the
        #: per-batch span id is ``<trace_id>.b<seq>`` — deterministic,
        #: so a retried or resent batch reuses its id and the span tree
        #: stays single-rooted per batch across reconnects.
        self.trace_id = f"c-{client_id}"
        #: seq -> monotonic instant of the *first* transmit (e2e clock).
        self._sent_at: Dict[int, float] = {}
        #: always-on client-observed batch e2e (send -> ack, retries
        #: and reconnects included) — the producer-side counterpart of
        #: the server's serve.batch_e2e.
        self.hists: Dict[str, Histogram] = {
            "serve.client_batch_e2e": Histogram(),
        }
        self.counters: Dict[str, int] = {
            "batches": 0,
            "events": 0,
            "acks": 0,
            "retries": 0,
            "reconnects": 0,
            "flow_pauses": 0,
        }

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------

    def connect(self) -> "ServeClient":
        self._establish(time.monotonic() + self.timeout)
        return self

    def _establish(self, deadline: float) -> bool:
        """Open a socket, say hello, resync from the welcome frame.

        One flat loop — connect, hello, welcome, resync — retried until
        the whole handshake lands on a single connection or ``deadline``
        passes, so a server that repeatedly accepts and drops cannot
        grow the stack or stretch the caller's timeout.  Returns True
        if the resume point acknowledged any buffered batch.
        """
        before = len(self._unacked)
        while True:
            self._close_socket()
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            except OSError as error:
                if time.monotonic() >= deadline:
                    raise ClientError(
                        f"cannot reach {self.host}:{self.port}: {error}"
                    ) from None
                time.sleep(_POLL_INTERVAL)
                continue
            self._sock.settimeout(_POLL_INTERVAL)
            self._decoder = FrameDecoder()
            self._welcome = None
            self._paused = False
            self._defined = 0
            try:
                self._raw_send(proto.hello(self.client_id, self.stream))
                while self._welcome is None:
                    if time.monotonic() >= deadline:
                        raise ClientError(
                            f"no welcome from {self.host}:{self.port} "
                            f"within the timeout"
                        )
                    self._pump(block=True)
                welcome = self._welcome
                self.shards = welcome.get("shards", 0)
                next_seq = welcome.get("next", 0)
                # Everything below the resume point is applied on every
                # shard — an implicit ack, observed like an explicit one.
                for seq in [s for s in self._unacked if s < next_seq]:
                    del self._unacked[seq]
                    self.counters["acks"] += 1
                    self._observe_ack(seq)
                self._next_seq = max(self._next_seq, next_seq)
                self._send_pending_sites()
                for seq in sorted(self._unacked):
                    self._transmit(seq)
            except ConnectionError:
                if time.monotonic() < deadline:
                    continue
                self._close_socket()
                raise ClientError(
                    f"connection to {self.host}:{self.port} kept "
                    f"dropping during the handshake"
                ) from None
            except BaseException:
                # A refused or timed-out handshake leaves no socket open.
                self._close_socket()
                raise
            return len(self._unacked) < before

    def _reconnect(self, deadline: float) -> bool:
        self.counters["reconnects"] += 1
        _LOG.info("client %s reconnecting to %s:%d", self.client_id, self.host, self.port)
        return self._establish(deadline)

    def _close_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._sock = None

    def close(self, flush: bool = True) -> None:
        """Drain the unacked window (unless told not to) and hang up."""
        if flush and self._sock is not None:
            self.flush()
        if self._sock is not None:
            try:
                self._sock.sendall(proto.encode_frame(proto.bye()))
            except OSError:
                pass
        self._close_socket()

    def abort(self) -> None:
        """Drop the connection mid-stream without flushing or goodbye.

        The disconnect fault: whatever frame was in flight arrives
        truncated and must never be partially applied.
        """
        self._close_socket()

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close(flush=exc_info[0] is None)

    # ------------------------------------------------------------------
    # site table
    # ------------------------------------------------------------------

    def site_id(self, site: Site) -> int:
        """Intern ``site``; its definition ships before the next batch."""
        sid = self._site_ids.get(site)
        if sid is None:
            sid = self._site_ids[site] = len(self._sites)
            self._sites.append(site)
        return sid

    def define_sites(self, sites: Iterable[Site]) -> List[int]:
        return [self.site_id(site) for site in sites]

    def _send_pending_sites(self) -> None:
        if self._defined < len(self._sites):
            payloads = [
                proto.site_to_payload(site) for site in self._sites[self._defined:]
            ]
            self._raw_send(proto.sites_frame(self._defined, payloads))
            self._defined = len(self._sites)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def send_batch(self, sids: Sequence[int], values: Sequence[int]) -> int:
        """Ship one ordered batch; blocks while the window is full.

        Returns the batch's sequence number.  The batch is buffered
        until acked, so a return does *not* mean durable — call
        :meth:`flush` for that.  Columns that are not all ints in range
        (``bool`` included) raise :class:`~repro.serve.protocol.ProtocolError`
        before anything is buffered or sent.
        """
        if self._sock is None:
            raise ClientError("not connected")
        columns = proto.event_columns(sids, values)
        self._await(
            lambda: len(self._unacked) < self.window and not self._paused,
            "window space",
        )
        seq = self._next_seq
        self._next_seq += 1
        self._unacked[seq] = columns
        self._sent_at[seq] = time.monotonic()
        self.counters["batches"] += 1
        self.counters["events"] += len(sids)
        self._send_pending_sites()
        self._transmit(seq)
        self._pump()  # opportunistic ack drain, keeps the window moving
        return seq

    def flush(self) -> None:
        """Block until every sent batch is acknowledged."""
        self._await(lambda: not self._unacked, "outstanding acks")

    def _transmit(self, seq: int) -> None:
        sids, values = self._unacked[seq]
        message = proto.batch(
            seq, sids, values, tc=(self.trace_id, f"{self.trace_id}.b{seq}")
        )
        if self.frame_hook is not None:
            frames = self.frame_hook(message)
            if frames is None:
                frames = [message]
        else:
            frames = [message]
        for frame in frames:
            self._raw_send(frame)

    def _raw_send(self, message: dict) -> None:
        assert self._sock is not None
        try:
            self._sock.sendall(proto.encode_frame(message))
        except OSError as error:
            raise ConnectionError(str(error)) from None

    # ------------------------------------------------------------------
    # receiving / progress loop
    # ------------------------------------------------------------------

    def _await(self, condition: Callable[[], bool], what: str) -> None:
        """Pump the socket until ``condition`` holds.

        Resends unacked batches every ``retry_interval`` (unless flow
        is paused — retrying into a saturated server only adds load),
        reconnects on connection loss, and raises :class:`ClientError`
        after ``timeout`` seconds without progress; progress (any ack
        or flow transition) extends the deadline.
        """
        deadline = time.monotonic() + self.timeout
        last_retry = time.monotonic()
        while not condition():
            try:
                progressed = self._pump(block=True)
            except ConnectionError:
                # Reconnect within the *original* deadline; progress is
                # measured by acks from the resume point, not by the
                # server merely accepting the connection again.
                progressed = self._reconnect(deadline)
            now = time.monotonic()
            if progressed:
                deadline = now + self.timeout
                last_retry = now
                continue
            if now >= deadline:
                raise ClientError(
                    f"no progress waiting for {what} within {self.timeout:.1f}s "
                    f"({len(self._unacked)} unacked)"
                )
            if (
                self._unacked
                and not self._paused
                and now - last_retry >= self.retry_interval
            ):
                self.counters["retries"] += 1
                for seq in sorted(self._unacked):
                    self._transmit(seq)
                last_retry = now

    def _pump(self, block: bool = False) -> bool:
        """Drain whatever the server sent; returns True on progress."""
        assert self._sock is not None
        if block:
            try:
                data = self._sock.recv(1 << 16)
            except socket.timeout:
                return False
            except OSError as error:
                raise ConnectionError(str(error)) from None
            if not data:
                raise ConnectionError("server closed the connection")
            return self._feed(data)
        progressed = False
        while True:
            self._sock.settimeout(0.0)
            try:
                data = self._sock.recv(1 << 16)
            except (BlockingIOError, socket.timeout):
                return progressed
            except OSError as error:
                raise ConnectionError(str(error)) from None
            finally:
                self._sock.settimeout(_POLL_INTERVAL)
            if not data:
                raise ConnectionError("server closed the connection")
            progressed = self._feed(data) or progressed

    def _feed(self, data: bytes) -> bool:
        progressed = False
        for message in self._decoder.feed(data):
            kind = message.get("t")
            if kind == "ack":
                seq = message.get("seq")
                if self._unacked.pop(seq, None) is not None:
                    self.counters["acks"] += 1
                    self._observe_ack(seq)
                    progressed = True
            elif kind == "flow":
                paused = message.get("state") == "pause"
                if paused and not self._paused:
                    self.counters["flow_pauses"] += 1
                if paused != self._paused:
                    progressed = True
                self._paused = paused
            elif kind == "welcome":
                self._welcome = message
                progressed = True
            elif kind == "error":
                raise ClientError(f"server error: {message.get('message')}")
        return progressed

    def _observe_ack(self, seq: int) -> None:
        """Fold one acked batch into the e2e telemetry.

        Records the client-observed latency histogram (always on) and,
        when the process tracer is enabled, the batch's root span —
        with the *same* span id the wire trace context carried, so the
        server's serve.enqueue/journal/fold/ack children parent under
        it in the combined tree.
        """
        sent = self._sent_at.pop(seq, None)
        if sent is None:
            return
        elapsed = time.monotonic() - sent
        self.hists["serve.client_batch_e2e"].observe(elapsed)
        _METRICS.observe_hist("serve.client_batch_e2e", elapsed)
        if _TRACER.enabled:
            _TRACER.record_span(
                "serve.batch",
                span_id=f"{self.trace_id}.b{seq}",
                start_monotonic=sent,
                duration_s=elapsed,
                attrs={"client": self.client_id, "seq": seq},
            )

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    @property
    def unacked(self) -> int:
        return len(self._unacked)

    @property
    def paused(self) -> bool:
        return self._paused

    def push_events(
        self,
        events: Iterable[Tuple[Site, int]],
        batch_size: int = 1024,
    ) -> int:
        """Stream (site, value) events as maximal batches; returns count."""
        sids: List[int] = []
        values: List[int] = []
        total = 0
        for site, value in events:
            sids.append(self.site_id(site))
            values.append(value)
            if len(sids) >= batch_size:
                self.send_batch(sids, values)
                total += len(sids)
                sids, values = [], []
        if sids:
            self.send_batch(sids, values)
            total += len(sids)
        return total

    def push_trace(self, trace, targets=None, batch_size: int = 1024) -> int:
        """Replay a stored :class:`EventTrace` into the service.

        ``targets`` defaults to every profiled family, i.e. the same
        stream ``replay_profile`` folds offline — which is what the
        byte-identity acceptance test compares against.
        """
        from repro.core.tracestore import TARGET_KINDS

        if targets is None:
            targets = list(TARGET_KINDS)
        return self.push_events(trace.events(targets), batch_size=batch_size)
