"""The serve test harness: an in-process cluster with injectable faults.

:class:`ServeCluster` runs a real :class:`~repro.serve.server.ServeServer`
— real sockets, real protocol, the production client — on an event loop
in a background thread, and exposes the fault surface the robustness
tests drive deterministically:

* ``kill_shard`` / ``restart_shard`` — SIGKILL-style worker death and
  restore-from-snapshot, mid-ingest;
* ``set_shard_delay`` — a slow consumer, to saturate the bounded queue
  and trigger client-visible flow control;
* the client's ``frame_hook`` (:class:`DropFirstSend`,
  :class:`DuplicateEverySend`, :class:`SwapAdjacentSends`) — dropped,
  duplicated and reordered batches on the wire;
* ``ServeClient.abort()`` — mid-stream disconnect, including
  :meth:`ServeCluster.half_frame_disconnect` which cuts the socket in
  the middle of a batch frame.

Every cluster event is appended to a log (written to ``log_path`` when
given) so CI can upload the harness transcript as an artifact.

The module also provides the equivalence vocabulary: synthetic stream
generation (:func:`make_stream`), the single-process reference fold
(:func:`offline_reference`) and deep state comparison
(:func:`assert_same_profile_state`) covering every slot of every
profile — TNV entry order, the steady set, health counters and exact
statistics — not just rendered metrics.
"""

from __future__ import annotations

import asyncio
import contextlib
import copyreg
import io
import json
import pickle
import random
import socket
import struct
import threading
import time
import urllib.request
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core import columns
from repro.core.profile import ProfileDatabase, TNVConfig
from repro.core.sites import Site, SiteKind
from repro.serve import protocol as proto
from repro.serve.client import ServeClient
from repro.serve.server import ServeServer

Event = Tuple[Site, int]


# ----------------------------------------------------------------------
# synthetic streams and the offline reference
# ----------------------------------------------------------------------


def make_sites(count: int, kind: SiteKind = SiteKind.LOAD) -> List[Site]:
    """``count`` distinct synthetic sites spread over a few procedures."""
    return [
        Site(
            kind=kind,
            program="synth",
            procedure=f"proc{index % 3}",
            label=f"site{index}",
            opcode=kind.value,
        )
        for index in range(count)
    ]


def make_stream(
    num_sites: int = 8,
    num_events: int = 600,
    seed: int = 0,
    kind: SiteKind = SiteKind.LOAD,
) -> List[Event]:
    """A deterministic, value-skewed (site, value) stream.

    Values mix invariant favorites, zeros and noise so the profiles
    exercise LVP runs, TNV promotion/eviction and the %Zeros metric —
    the state a sharding bug would corrupt first.
    """
    rng = random.Random(seed)
    sites = make_sites(num_sites, kind=kind)
    events: List[Event] = []
    for _ in range(num_events):
        index = rng.randrange(num_sites)
        roll = rng.random()
        if roll < 0.45:
            value = index * 3 + 1  # the site's favorite: invariance
        elif roll < 0.65:
            value = 0  # zeros
        elif roll < 0.8:
            value = events[-1][1] if events else 0  # runs: LVP adjacency
        else:
            value = rng.randrange(64)  # churn
        events.append((sites[index], value))
    return events


def offline_reference(
    events: Iterable[Event],
    config: Optional[TNVConfig] = None,
    exact: bool = True,
    name: str = "",
) -> ProfileDatabase:
    """The ground truth: one process, one event at a time, stream order."""
    db = ProfileDatabase(config=config, exact=exact, name=name)
    for site, value in events:
        db.record(site, value)
    return db


# ----------------------------------------------------------------------
# deep state comparison
# ----------------------------------------------------------------------


def slot_state(obj) -> dict:
    """Every slot of ``obj``; a dict as its type and items in stored order.

    Reading the class's own ``__slots__`` means a slot added later is
    compared without touching this function.  Dicts compare
    order-blind, and a ``Counter`` equals a plain ``dict`` with the same
    items, so both the order and the type are spelled out.
    """
    state = {}
    for name in type(obj).__slots__:
        value = getattr(obj, name)
        if isinstance(value, dict):
            value = (type(value), list(value.items()))
        state[name] = value
    return state


def profile_state(profile) -> dict:
    """Everything that defines a :class:`SiteProfile`'s state.

    Every slot of the profile, its TNV table and its exact statistics:
    TNV entries and the exact histogram in stored order, the steady
    set, the health counters, the zeros, LVP hits and first and last
    value (kept only in the profile's own slots) — and the site's
    ``opcode``, which ``Site`` equality ignores.
    """
    state = slot_state(profile)
    state["site"] = (profile.site, profile.site.opcode)
    state["tnv"] = slot_state(profile.tnv)
    state["exact"] = None if profile.exact is None else slot_state(profile.exact)
    return state


def object_graph_dumps(obj) -> bytes:
    """Pickle ``obj`` with every database in the pre-columnar form.

    Before :meth:`ProfileDatabase.__reduce__` existed, a database
    pickled as ``copyreg.__newobj__`` plus its ``__dict__`` — the whole
    object graph.  That form, with the current classes, must still load.
    """

    class ObjectGraphPickler(pickle.Pickler):
        def reducer_override(self, value):
            if type(value) is ProfileDatabase:
                return copyreg.__newobj__, (ProfileDatabase,), value.__dict__
            return NotImplemented

    buffer = io.BytesIO()
    ObjectGraphPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


#: the two ways :func:`repro.core.columns.gather` (and the router's
#: :func:`~repro.core.columns.partition`) can run.
GATHERS = ["numpy", "python"]


@contextlib.contextmanager
def gather_mode(name: str):
    """Run the body under one gather: numpy's argsort, or the loop.

    A context manager rather than a fixture, so Hypothesis tests can
    use it too; asking for numpy where it is not installed skips.
    """
    import pytest

    if name == "numpy" and columns._np is None:
        pytest.skip("numpy not installed")
    with pytest.MonkeyPatch.context() as patch:
        if name == "python":
            patch.setattr(columns, "_np", None)
        yield


def db_state(db: ProfileDatabase) -> Dict[Site, dict]:
    return {p.site: profile_state(p) for p in db}


def assert_same_profile_state(actual: ProfileDatabase, expected: ProfileDatabase) -> None:
    """Site-for-site state identity (order-insensitive across sites).

    Shards own disjoint site subsets, so a merged database lists sites
    in shard order rather than stream order; every query surface sorts,
    so cross-site order is not part of the contract.  *Within* a site,
    everything is: every slot of :func:`profile_state`.
    """
    actual_state = db_state(actual)
    expected_state = db_state(expected)
    assert sorted(actual_state) == sorted(expected_state), (
        f"site sets differ: {len(actual_state)} vs {len(expected_state)}"
    )
    for site in expected_state:
        assert actual_state[site] == expected_state[site], (
            f"state mismatch at {site.qualified_name()}:\n"
            f"  actual:   {actual_state[site]}\n"
            f"  expected: {expected_state[site]}"
        )


# ----------------------------------------------------------------------
# client-side fault hooks (wire-level: drop / duplicate / reorder)
# ----------------------------------------------------------------------


class DropFirstSend:
    """Swallow the first transmission of selected seqs; retries pass."""

    def __init__(self, seqs: Iterable[int]) -> None:
        self.pending = set(seqs)
        self.dropped: List[int] = []

    def __call__(self, message: dict) -> Optional[List[dict]]:
        seq = message.get("seq")
        if seq in self.pending:
            self.pending.discard(seq)
            self.dropped.append(seq)
            return []
        return None


class DuplicateEverySend:
    """Every batch frame goes out twice back to back."""

    def __init__(self) -> None:
        self.duplicated = 0

    def __call__(self, message: dict) -> List[dict]:
        self.duplicated += 1
        return [message, message]


class SwapAdjacentSends:
    """Hold every even-positioned batch and emit it after its successor."""

    def __init__(self) -> None:
        self._held: Optional[dict] = None
        self.swapped = 0

    def __call__(self, message: dict) -> List[dict]:
        if self._held is None:
            self._held = message
            return []
        held, self._held = self._held, None
        self.swapped += 1
        return [message, held]


# ----------------------------------------------------------------------
# the cluster fixture
# ----------------------------------------------------------------------


class ServeCluster:
    """A live serve daemon on a background event loop, as a context manager.

    All the async server surface is exposed synchronously (each call
    round-trips through the loop thread), so tests read as straight-line
    scripts.  Use ``log_path`` to keep a transcript for CI artifacts.
    """

    def __init__(self, log_path: Optional[str] = None, **server_kwargs) -> None:
        self.server = ServeServer(**server_kwargs)
        self.log_path = log_path
        self.events: List[str] = []
        self._loop = asyncio.new_event_loop()
        self._thread: Optional[threading.Thread] = None
        self._started = time.monotonic()

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ServeCluster":
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="serve-cluster", daemon=True
        )
        self._thread.start()
        self.run(self.server.start())
        self.log(
            f"cluster up: {self.server.nshards} shard(s) "
            f"ingest={self.ingest_port} http={self.http_port} "
            f"queue_size={self.server.queue_size}"
        )
        return self

    def stop(self, checkpoint: bool = True) -> None:
        """Stop the server, then the loop thread, even if the server's
        stop raised (its error propagates once the thread is down)."""
        if self._thread is None:
            return
        self.log(f"cluster stopping (checkpoint={checkpoint})")
        self.log(f"final counters: {json.dumps(self.server.counters, sort_keys=True)}")
        try:
            self.run(self.server.stop(checkpoint=checkpoint))
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            self._thread = None
            self._loop.close()
            if self.log_path:
                with open(self.log_path, "a") as handle:
                    for line in self.events:
                        handle.write(line + "\n")

    def __enter__(self) -> "ServeCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- plumbing -------------------------------------------------------

    def run(self, coro, timeout: float = 30.0):
        """Run a coroutine on the cluster loop and wait for its result."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    def call(self, fn, *args):
        """Run a synchronous server method on the cluster loop; its result."""

        async def _call():
            return fn(*args)

        return self.run(_call())

    def log(self, message: str) -> None:
        self.events.append(f"[{time.monotonic() - self._started:8.3f}] {message}")

    @property
    def ingest_port(self) -> int:
        return self.server.ingest_port

    @property
    def http_port(self) -> int:
        return self.server.http_port

    # -- clients --------------------------------------------------------

    def client(self, client_id: str, stream: str = "", **kwargs) -> ServeClient:
        client = ServeClient(
            "127.0.0.1", self.ingest_port, client_id, stream=stream, **kwargs
        )
        client.connect()
        self.log(f"client {client_id} connected (stream={stream!r})")
        return client

    def half_frame_disconnect(
        self, client_id: str, full_batches: List[Tuple[List[Site], List[int]]],
        partial_sites: List[Site], partial_values: List[int],
    ) -> None:
        """Push ``full_batches``, then die halfway through one more frame.

        Raw-socket edition of the mid-stream disconnect fault: the final
        batch frame is truncated at half its bytes, so the server must
        apply every full batch and none of the partial one.
        """
        sock = socket.create_connection(("127.0.0.1", self.ingest_port), timeout=5)
        try:
            sock.sendall(proto.encode_frame(proto.hello(client_id, "")))
            table: Dict[Site, int] = {}

            def sids_for(sites: List[Site]) -> List[int]:
                new = list(dict.fromkeys(s for s in sites if s not in table))
                if new:
                    base = len(table)
                    payloads = [proto.site_to_payload(site) for site in new]
                    for site in new:
                        table[site] = len(table)
                    sock.sendall(proto.encode_frame(proto.sites_frame(base, payloads)))
                return [table[site] for site in sites]

            for seq, (sites, values) in enumerate(full_batches):
                sock.sendall(
                    proto.encode_frame(proto.batch(seq, sids_for(sites), values))
                )
            # Drain server→client frames until the last full batch is
            # acked: leaving unread data in the receive buffer would turn
            # the close below into a TCP RST that can destroy the full
            # batches still in flight — a different fault than the
            # truncated-frame one this method injects.
            decoder = proto.FrameDecoder()
            sock.settimeout(10.0)
            acked = set()
            while len(full_batches) - 1 not in acked:
                data = sock.recv(1 << 16)
                if not data:
                    raise AssertionError("server closed before acking full batches")
                for message in decoder.feed(data):
                    if message.get("t") == "ack":
                        acked.add(message.get("seq"))
            frame = proto.encode_frame(
                proto.batch(len(full_batches), sids_for(partial_sites), partial_values)
            )
            sock.sendall(frame[: max(5, len(frame) // 2)])
        finally:
            sock.close()
        self.log(
            f"client {client_id} disconnected mid-frame after "
            f"{len(full_batches)} complete batches"
        )

    def exchange_raw(self, *bodies: bytes) -> List[dict]:
        """Send frame bodies as they are on a fresh connection; returns
        every message the server sent before it closed the connection.

        The raw-socket way to feed the server what the production client
        never sends: a v2 ``hello``, a JSON batch, a corrupt body.
        """
        sock = socket.create_connection(("127.0.0.1", self.ingest_port), timeout=5)
        try:
            sock.sendall(b"".join(struct.pack(">I", len(body)) + body for body in bodies))
            decoder = proto.FrameDecoder()
            sock.settimeout(10.0)
            replies: List[dict] = []
            while True:
                data = sock.recv(1 << 16)
                if not data:
                    return replies
                replies.extend(decoder.feed(data))
        finally:
            sock.close()

    def push_events(
        self,
        client_id: str,
        events: Iterable[Event],
        stream: str = "",
        batch_size: int = 64,
        **client_kwargs,
    ) -> ServeClient:
        """Convenience: connect, push, flush, close; returns the client."""
        client = self.client(client_id, stream=stream, **client_kwargs)
        pushed = client.push_events(events, batch_size=batch_size)
        client.flush()
        client.close()
        self.log(
            f"client {client_id} pushed {pushed} events "
            f"({client.counters['batches']} batches, "
            f"{client.counters['retries']} retries)"
        )
        return client

    # -- faults ---------------------------------------------------------

    def kill_shard(self, index: int) -> int:
        dropped = self.call(self.server.kill_shard, index)
        self.log(f"shard {index} killed ({dropped} queued batches lost)")
        return dropped

    def restart_shard(self, index: int) -> None:
        self.call(self.server.restart_shard, index)
        self.log(f"shard {index} restarted from snapshot+journal")

    def set_shard_delay(self, index: int, seconds: float) -> None:
        self.call(self.server.set_shard_delay, index, seconds)
        self.log(f"shard {index} delay set to {seconds}s")

    def checkpoint(self) -> None:
        self.call(self.server.checkpoint_all)
        self.log("checkpoint forced on all shards")

    # -- queries --------------------------------------------------------

    def http(self, path: str, timeout: float = 30.0) -> str:
        url = f"http://127.0.0.1:{self.http_port}{path}"
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.read().decode("utf-8")

    def http_json(self, path: str) -> dict:
        return json.loads(self.http(path))

    def profile_text(self, kind: str = "load", top: int = 20) -> str:
        return self.http(f"/profile?kind={kind}&top={top}")

    def merged_database(self) -> ProfileDatabase:
        return self.call(self.server.merged_database)

    def queue_depth(self) -> float:
        return self.server.gauges.get("serve.queue_depth", 0.0)
