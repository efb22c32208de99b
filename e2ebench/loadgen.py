"""Open-loop load for the ``serve`` workload.

The stream is what ``repro serve`` is for: the captured event traces of
the repository's eight programs, each replayed in program order.  The
seed picks where each program's trace starts and the order in which the
programs' batches arrive.  One producer sends the batches on a fixed
schedule; each batch's ack latency is timed from the moment it was
*due*, so a stall counts against every batch queued behind it, and a
batch never acknowledged counts as infinitely late.  A second thread
sends ``/profile`` queries at a fixed low rate while the producer runs.
The load goes through ``repro.serve``'s own client, subclassed to
timestamp each ack as it arrives and to take acks in between sends --
which needs three of the client's private members, ``_observe_ack``,
``_sock`` and ``_pump`` -- and the ground truth is built with the public
``ProfileDatabase`` API; nothing comes from the test harness.
"""

from __future__ import annotations

import http.client
import math
import random
import select
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: the captured input of every program: the committed artifacts'
#: (``benchmarks/results/``) input and scale.
TRACE_VARIANT = "train"
TRACE_SCALE = 0.25


# ----------------------------------------------------------------------
# the stream
# ----------------------------------------------------------------------


def program_traces() -> Dict[str, list]:
    """Each program's captured (site, value) events, in program order."""
    from repro.core.tracestore import TARGET_KINDS
    from repro.workloads.harness import capture_workload_events
    from repro.workloads.registry import all_workloads

    traces = {}
    for workload in all_workloads():
        trace = capture_workload_events(workload.name, TRACE_VARIANT, scale=TRACE_SCALE)
        traces[workload.name] = list(trace.events(list(TARGET_KINDS)))
    return traces


def make_stream(seed: int, batches: int, batch_size: int,
                traces: Dict[str, list]) -> List[Tuple[object, int]]:
    """``batches`` batches of events, flattened.

    Each batch is the next ``batch_size`` events of one program's trace,
    which starts at a seeded offset and wraps around at its end.  The
    program of each batch is drawn in proportion to its trace's length,
    so every trace wraps at about the same pace.
    """
    rng = random.Random(seed)
    names = sorted(traces)
    position = {name: rng.randrange(len(traces[name])) for name in names}
    picks = rng.choices(names, weights=[len(traces[name]) for name in names], k=batches)
    stream = []
    for name in picks:
        events, start = traces[name], position[name]
        stream += [events[(start + i) % len(events)] for i in range(batch_size)]
        position[name] = (start + batch_size) % len(events)
    return stream


def make_batches(stream, batch_size: int):
    """Intern sites in first-appearance order; cut the stream in batches."""
    ids: Dict[object, int] = {}
    sites: List[object] = []
    batches = []
    for start in range(0, len(stream), batch_size):
        sids, values = [], []
        for site, value in stream[start:start + batch_size]:
            sid = ids.get(site)
            if sid is None:
                sid = ids[site] = len(sites)
                sites.append(site)
            sids.append(sid)
            values.append(value)
        batches.append((sids, values))
    return sites, batches


def offline_fold(sites, batches, acked, name: str):
    """The ground truth: every acked batch recorded event by event."""
    from repro.core.profile import ProfileDatabase

    database = ProfileDatabase(exact=True, name=name)
    for k in sorted(acked):
        sids, values = batches[k]
        for sid, value in zip(sids, values):
            database.record(sites[sid], value)
    return database


# ----------------------------------------------------------------------
# the open-loop schedule
# ----------------------------------------------------------------------


@dataclass
class OpenLoop:
    """Due times of a fixed-rate schedule and what happened to each send.

    Batch ``k`` is due at ``start + k * interval``.  Latency is ack time
    minus due time; lateness is send time minus due time.
    """

    start: float
    interval: float
    sent: List[float] = field(default_factory=list)
    acked: Dict[int, float] = field(default_factory=dict)

    def due(self, k: int) -> float:
        return self.start + k * self.interval

    def record_send(self, k: int, when: float) -> None:
        if k != len(self.sent):
            raise ValueError(f"batch {k} sent out of order")
        self.sent.append(when)

    def record_ack(self, k: int, when: float) -> None:
        self.acked.setdefault(k, when)

    def latencies(self) -> List[float]:
        """Seconds from due to ack per sent batch; ``inf`` if never acked."""
        return [
            self.acked[k] - self.due(k) if k in self.acked else math.inf
            for k in range(len(self.sent))
        ]

    def lateness(self) -> List[float]:
        return [when - self.due(k) for k, when in enumerate(self.sent)]

    def send_latencies(self) -> List[float]:
        """Seconds from the actual send to the ack (acked batches only)."""
        return [self.acked[k] - self.sent[k] for k in sorted(self.acked)]


def timed_client_class():
    """A :class:`ServeClient` that timestamps each ack as it arrives."""
    from repro.serve.client import ServeClient

    class TimedClient(ServeClient):
        def __init__(self, *args, on_ack=None, **kwargs):
            super().__init__(*args, **kwargs)
            self.on_ack = on_ack

        def _observe_ack(self, seq: int) -> None:
            if self.on_ack is not None:
                self.on_ack(seq, time.monotonic())
            super()._observe_ack(seq)

        def poll(self, timeout: float) -> None:
            """Wait up to ``timeout`` for acks and take them in."""
            readable, _, _ = select.select([self._sock], [], [], max(0.0, timeout))
            if readable:
                self._pump()

    return TimedClient


def produce(client, loop: OpenLoop, batches, inflight: List[int]) -> None:
    """Send each batch when due, taking acks in while waiting.

    ``inflight`` gets the number of unacknowledged batches at each send.
    """
    for k, (sids, values) in enumerate(batches):
        due = loop.due(k)
        while True:
            now = time.monotonic()
            if now >= due:
                break
            client.poll(due - now)
        loop.record_send(k, time.monotonic())
        inflight.append(client.unacked)
        client.send_batch(sids, values)


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------


@dataclass
class QueryLog:
    attempted: int = 0
    #: response time of each answered query.
    seconds: List[float] = field(default_factory=list)
    #: ``query <k>`` -> what went wrong; a query fails at most once.
    failures: Dict[str, str] = field(default_factory=dict)


def http_get(host: str, port: int, path: str, timeout: float = 30.0) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def query_loop(host: str, port: int, interval: float, start: float,
               done: threading.Event, log: QueryLog) -> None:
    """GET ``/profile`` every ``interval`` seconds until ``done`` is set."""
    k = 0
    while True:
        due = start + k * interval
        if done.wait(max(0.0, due - time.monotonic())):
            return
        k += 1
        log.attempted += 1
        began = time.monotonic()
        try:
            status, body = http_get(host, port, "/profile")
        except OSError as error:
            log.failures[f"query {k}"] = str(error)
            continue
        log.seconds.append(time.monotonic() - began)
        lines = body.decode("utf-8", errors="replace").splitlines()
        if status != 200 or not lines or "per-site load metrics" not in lines[0]:
            log.failures[f"query {k}"] = f"status {status}, {len(body)} bytes"
