"""Wire protocol of the profiling service.

Frames
------

Every message on the ingest socket — in both directions — is one
*frame*: a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  JSON keeps the protocol debuggable and
language-agnostic; the hot content (site ids and 64-bit values) rides
in flat integer lists, so a batch frame is effectively columnar.

A frame that is cut off mid-stream — a client that died mid-batch, a
dropped connection — simply never decodes: the decoder holds the
partial bytes and the server applies nothing.  Frame atomicity is what
guarantees "no partial fold" on disconnect.

Client → server messages (``t`` is the message type):

* ``{"t": "hello", "client": ID, "stream": NAME}`` — opens (or
  resumes) a session.  The server replies with ``welcome``.
* ``{"t": "sites", "base": K, "sites": [PAYLOAD, ...]}`` — defines the
  client's site ids ``K, K+1, ...``.  Definitions are positional and
  idempotent: a reconnecting client replays its table and the server
  verifies the prefix instead of re-adding it.
* ``{"t": "batch", "seq": N, "sids": [...], "values": [...],
  "tc": [TRACE, SPAN]}`` — one ordered slice of the event stream.
  ``seq`` is a per-client, contiguous, zero-based sequence number;
  ``sids`` index the client's site table.  ``tc`` (since protocol
  version 2) is the batch's trace context — a trace id and the
  client-minted span id every server-side child span parents under.
  It is advisory and backward/forward tolerant: servers ignore a
  missing or malformed ``tc`` rather than rejecting the batch, so v1
  producers keep working and v1 servers ignore the extra key.
* ``{"t": "bye"}`` — graceful close.

Server → client messages:

* ``{"t": "welcome", "shards": N, "next": SEQ}`` — session resume
  point: every batch below ``SEQ`` is applied on every shard, so the
  client drops those from its unacked buffer and resends the rest.
* ``{"t": "ack", "seq": N}`` — batch ``N`` has been journaled and
  applied on every shard: its events sit in the shard's pending runs,
  which every query folds first.  An acked batch survives any
  single-shard crash (restart replays the journal), which is what
  bounds loss to the unacknowledged window.
* ``{"t": "flow", "state": "pause" | "resume"}`` — bounded-queue flow
  control: a saturated shard queue pauses all producers; draining
  below the low watermark resumes them.
* ``{"t": "error", "message": TEXT}`` — protocol violation; the server
  closes the connection after sending it.

Sharding
--------

:func:`shard_for_site` hashes the site *identity* (kind, program,
procedure, label — the fields :class:`~repro.core.sites.Site` compares
on) with CRC32, exactly like the VHT's process-stable indexing: the
assignment must not depend on ``PYTHONHASHSEED`` because journals,
snapshots and clients all outlive any single server process.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Iterator, List, Optional, Tuple

from repro.core.sites import Site, SiteKind
from repro.errors import ReproError

#: bumped when the frame layout or message schema changes.
#: v2: batch frames carry an optional ``tc`` trace context.
PROTOCOL_VERSION = 2

#: refuse frames larger than this (corrupt length prefix / abuse guard).
MAX_FRAME = 16 * 1024 * 1024

_LEN = struct.Struct(">I")


class ProtocolError(ReproError):
    """A malformed frame or message arrived on the wire."""


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


def encode_frame(message: dict) -> bytes:
    """One message as a length-prefixed JSON frame."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _LEN.pack(len(body)) + body


def decode_body(body: bytes) -> dict:
    """The JSON payload of one frame body."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from None
    if not isinstance(message, dict) or "t" not in message:
        raise ProtocolError("frame is not a typed message object")
    return message


class FrameDecoder:
    """Incremental frame decoder for blocking-socket clients.

    Feed it whatever bytes arrived; it yields complete messages and
    holds partial frames across feeds.  A truncated final frame is
    simply never yielded — the atomicity guarantee of the protocol.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> Iterator[dict]:
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _LEN.size:
                return
            (length,) = _LEN.unpack_from(self._buffer)
            if length > MAX_FRAME:
                raise ProtocolError(f"frame length {length} exceeds MAX_FRAME")
            end = _LEN.size + length
            if len(self._buffer) < end:
                return
            body = bytes(self._buffer[_LEN.size:end])
            del self._buffer[:end]
            yield decode_body(body)

    @property
    def pending_bytes(self) -> int:
        """Bytes of an incomplete frame currently held."""
        return len(self._buffer)


async def read_frame(reader) -> Optional[dict]:
    """Read one frame from an asyncio stream; ``None`` on clean EOF.

    EOF *inside* a frame (length read, body truncated) also returns
    ``None``: the partial batch is discarded, never applied.
    """
    import asyncio

    try:
        header = await reader.readexactly(_LEN.size)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds MAX_FRAME")
    try:
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    return decode_body(body)


# ----------------------------------------------------------------------
# site payloads
# ----------------------------------------------------------------------


def site_to_payload(site: Site) -> List[str]:
    """A site as the 5-element JSON list the protocol ships."""
    return [site.kind.value, site.program, site.procedure, site.label, site.opcode]


def site_from_payload(payload) -> Site:
    """Rebuild a :class:`Site` from :func:`site_to_payload` output."""
    try:
        kind, program, procedure, label, opcode = payload
        return Site(
            kind=SiteKind(kind),
            program=program,
            procedure=procedure,
            label=label,
            opcode=opcode,
        )
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"bad site payload {payload!r}: {error}") from None


# ----------------------------------------------------------------------
# shard routing
# ----------------------------------------------------------------------


def shard_for_site(site: Site, shards: int) -> int:
    """Deterministic shard index for ``site``.

    CRC32 over the identity fields — stable across processes, Python
    versions and ``PYTHONHASHSEED``, so a journal written by one server
    routes identically in the next.  ``opcode`` is excluded because
    :class:`Site` excludes it from equality.
    """
    key = f"{site.kind.value}|{site.program}|{site.procedure}|{site.label}"
    return zlib.crc32(key.encode("utf-8")) % shards


# ----------------------------------------------------------------------
# message constructors (the names double as schema documentation)
# ----------------------------------------------------------------------


def hello(client: str, stream: str = "") -> dict:
    return {"t": "hello", "v": PROTOCOL_VERSION, "client": client, "stream": stream}


def welcome(shards: int, next_seq: int) -> dict:
    return {"t": "welcome", "v": PROTOCOL_VERSION, "shards": shards, "next": next_seq}


def sites_frame(base: int, payloads: List[List[str]]) -> dict:
    return {"t": "sites", "base": base, "sites": payloads}


def batch(
    seq: int,
    sids: List[int],
    values: List[int],
    tc: Optional[List[str]] = None,
) -> dict:
    message = {"t": "batch", "seq": seq, "sids": sids, "values": values}
    if tc is not None:
        message["tc"] = tc
    return message


def ack(seq: int) -> dict:
    return {"t": "ack", "seq": seq}


def flow(state: str) -> dict:
    return {"t": "flow", "state": state}


def error(message: str) -> dict:
    return {"t": "error", "message": message}


def bye() -> dict:
    return {"t": "bye"}


def check_batch(
    message: dict,
) -> Tuple[int, List[int], List[int], Optional[Tuple[str, str]]]:
    """Validate a batch message; returns ``(seq, sids, values, tc)``.

    ``tc`` is the optional trace context as a ``(trace_id, span_id)``
    tuple.  Unlike the event columns it is advisory telemetry, so a
    missing or malformed one degrades to ``None`` instead of raising —
    an old or sloppy producer must not lose data over tracing.
    """
    seq = message.get("seq")
    sids = message.get("sids")
    values = message.get("values")
    if not isinstance(seq, int) or seq < 0:
        raise ProtocolError(f"batch seq must be a non-negative int, got {seq!r}")
    if not isinstance(sids, list) or not isinstance(values, list):
        raise ProtocolError("batch sids/values must be lists")
    if len(sids) != len(values):
        raise ProtocolError(
            f"batch column mismatch: {len(sids)} sids vs {len(values)} values"
        )
    # Element types are checked here, at the wire boundary, so nothing
    # downstream (routing, folds) ever sees a surprise type.  ``type is
    # int`` rather than isinstance: JSON true/false decode to bool, and
    # a bool in an event column is a client bug, not a value.
    for name, column in (("sids", sids), ("values", values)):
        if not all(type(item) is int for item in column):
            bad = next(item for item in column if type(item) is not int)
            raise ProtocolError(f"batch {name} must all be ints, got {bad!r}")
    raw_tc = message.get("tc")
    tc: Optional[Tuple[str, str]] = None
    if (
        isinstance(raw_tc, list)
        and len(raw_tc) == 2
        and all(isinstance(part, str) and part for part in raw_tc)
    ):
        tc = (raw_tc[0], raw_tc[1])
    return seq, sids, values, tc
