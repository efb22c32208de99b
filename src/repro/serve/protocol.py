"""Wire protocol of the profiling service.

Frames
------

Every message on the ingest socket — in both directions — is one
*frame*: a 4-byte big-endian unsigned length followed by that many
bytes of body.  Control messages are UTF-8 JSON objects, which keeps
them debuggable and language-agnostic.  A ``batch`` body is binary
columns instead (protocol version 3), because batches carry nearly
every byte and the server would otherwise spend most of its time
parsing and type-checking them:

======  =========================================================
bytes   field (little-endian)
======  =========================================================
1       :data:`BATCH_MAGIC` — ``0xFF`` never occurs in UTF-8, so no
        JSON body starts with it
8       ``seq``, unsigned
4       ``n``, the event count, unsigned
4 + t   the trace id: its UTF-8 length, then its bytes
4 + s   the span id: its UTF-8 length, then its bytes
4 × n   site ids, uint32
8 × n   values, int64
======  =========================================================

Both ends convert batches inside :func:`encode_frame` and
:func:`decode_body`, so above the framing a batch is a message like any
other — ``{"t": "batch", "seq", "sids", "values", "tc"}`` with the
columns as :class:`array.array` — and the client's ``frame_hook`` sees
it as one.  A body whose length disagrees with its header, and a JSON
``batch`` frame, are protocol errors.

A frame that is cut off mid-stream — a client that died mid-batch, a
dropped connection — simply never decodes: the decoder holds the
partial bytes and the server applies nothing.  Frame atomicity is what
guarantees "no partial fold" on disconnect.

Client → server messages (``t`` is the message type):

* ``{"t": "hello", "v": 3, "client": ID, "stream": NAME}`` — opens (or
  resumes) a session.  The server replies with ``welcome``, or with an
  ``error`` when ``v`` is not :data:`PROTOCOL_VERSION`.
* ``{"t": "sites", "base": K, "sites": [PAYLOAD, ...]}`` — defines the
  client's site ids ``K, K+1, ...``.  Definitions are positional and
  idempotent: a reconnecting client replays its table and the server
  verifies the prefix instead of re-adding it.
* a ``batch`` (binary, above) — one ordered slice of the event stream.
  ``seq`` is a per-client, contiguous, zero-based sequence number;
  ``sids`` index the client's site table.  ``tc`` is the batch's trace
  context — a trace id and the client-minted span id every server-side
  child span parents under — or ``None`` when either string is empty.
  It is advisory: a batch without one is ingested all the same.
* ``{"t": "bye"}`` — graceful close.

Server → client messages:

* ``{"t": "welcome", "shards": N, "next": SEQ}`` — session resume
  point: every batch below ``SEQ`` is applied on every shard, so the
  client drops those from its unacked buffer and resends the rest.
* ``{"t": "ack", "seq": N}`` — batch ``N`` has been journaled and
  applied on every shard: its events sit in the shard's pending
  columns, which every query folds first.  An acked batch survives any
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
import sys
import zlib
from array import array
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.sites import Site, SiteKind
from repro.errors import ReproError

#: bumped when the frame layout or message schema changes.
#: v2: batch frames carry an optional ``tc`` trace context.
#: v3: batch frames are binary columns; a v2 ``hello`` is refused.
PROTOCOL_VERSION = 3

#: refuse frames larger than this (corrupt length prefix / abuse guard).
MAX_FRAME = 16 * 1024 * 1024

#: first byte of every binary batch body.
BATCH_MAGIC = 0xFF

#: array typecodes of the event columns: ``I`` is 4 bytes and ``q`` 8
#: bytes on every platform CPython supports.
SID_TYPECODE = "I"
VALUE_TYPECODE = "q"

_LEN = struct.Struct(">I")
_BATCH_HEAD = struct.Struct("<BQI")
_TEXT_LEN = struct.Struct("<I")
_EVENT_BYTES = 4 + 8
#: the columns travel little-endian; a big-endian host swaps them.
_SWAP = sys.byteorder != "little"
#: the only element type an event column accepts: ``bool`` is an
#: ``int`` subclass, and a bool in an event column is a caller bug.
_INT_TYPES = frozenset((int,))


class ProtocolError(ReproError):
    """A malformed frame or message arrived on the wire."""


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


def encode_frame(message: dict) -> bytes:
    """One message as a length-prefixed frame: binary for a batch, JSON
    for everything else."""
    if message["t"] == "batch":
        body = _encode_batch(message)
    else:
        body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _LEN.pack(len(body)) + body


def decode_body(body: bytes) -> dict:
    """The message one frame body carries."""
    if body and body[0] == BATCH_MAGIC:
        return _decode_batch(body)
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from None
    if not isinstance(message, dict) or "t" not in message:
        raise ProtocolError("frame is not a typed message object")
    if message["t"] == "batch":
        raise ProtocolError(
            f"batch frames are binary columns since protocol v{PROTOCOL_VERSION}"
        )
    return message


def _encode_batch(message: dict) -> bytes:
    sids, values = message["sids"], message["values"]  # arrays, see batch()
    if len(sids) != len(values):
        raise ProtocolError(
            f"batch column mismatch: {len(sids)} sids vs {len(values)} values"
        )
    try:
        head = _BATCH_HEAD.pack(BATCH_MAGIC, message["seq"], len(sids))
    except struct.error as error:
        raise ProtocolError(f"batch seq {message['seq']!r}: {error}") from None
    if _SWAP:  # swap copies: a resend encodes the same message again
        sids, values = array(sids.typecode, sids), array(values.typecode, values)
        sids.byteswap()
        values.byteswap()
    trace, span = message["tc"] or ("", "")
    trace = trace.encode("utf-8")
    span = span.encode("utf-8")
    return b"".join((
        head,
        _TEXT_LEN.pack(len(trace)), trace,
        _TEXT_LEN.pack(len(span)), span,
        sids.tobytes(),
        values.tobytes(),
    ))


def _decode_batch(body: bytes) -> dict:
    try:
        _, seq, count = _BATCH_HEAD.unpack_from(body)
        offset = _BATCH_HEAD.size
        texts = []
        for _ in range(2):
            (length,) = _TEXT_LEN.unpack_from(body, offset)
            offset += _TEXT_LEN.size
            texts.append(body[offset:offset + length].decode("utf-8"))
            offset += length
    except (struct.error, UnicodeDecodeError) as error:
        raise ProtocolError(f"undecodable batch frame: {error}") from None
    if len(body) != offset + count * _EVENT_BYTES:
        raise ProtocolError(
            f"batch frame of {len(body)} bytes does not hold the "
            f"{count} events its header announces"
        )
    split = offset + 4 * count
    sids = array(SID_TYPECODE, body[offset:split])
    values = array(VALUE_TYPECODE, body[split:])
    if _SWAP:
        sids.byteswap()
        values.byteswap()
    trace, span = texts
    return {
        "t": "batch",
        "seq": seq,
        "sids": sids,
        "values": values,
        "tc": (trace, span) if trace and span else None,
    }


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


def event_columns(sids: Sequence[int], values: Sequence[int]) -> Tuple[array, array]:
    """A producer's event columns, checked, as the arrays a batch carries.

    Every element must be an ``int`` (``bool`` refused) in range of its
    column — ``0 <= sid < 2**32`` and ``-2**63 <= value < 2**63`` — or
    :class:`ProtocolError` is raised.  The type check is one C-level
    pass per column; the conversion checks the ranges.
    """
    if len(sids) != len(values):
        raise ProtocolError(
            f"batch column mismatch: {len(sids)} sids vs {len(values)} values"
        )
    for column in (sids, values):
        if not set(map(type, column)) <= _INT_TYPES:
            bad = next(item for item in column if type(item) is not int)
            raise ProtocolError(f"batch sids and values must be ints, got {bad!r}")
    try:
        return array(SID_TYPECODE, sids), array(VALUE_TYPECODE, values)
    except OverflowError as error:
        raise ProtocolError(f"batch element out of range: {error}") from None


def batch(
    seq: int,
    sids: Sequence[int],
    values: Sequence[int],
    tc: Optional[Tuple[str, str]] = None,
) -> dict:
    """A batch message, its columns as the arrays the wire carries.

    The conversion checks no element type (``True`` becomes 1):
    producers check their columns with :func:`event_columns` first.
    """
    return {
        "t": "batch",
        "seq": seq,
        "sids": array(SID_TYPECODE, sids),
        "values": array(VALUE_TYPECODE, values),
        "tc": None if tc is None else tuple(tc),
    }


def ack(seq: int) -> dict:
    return {"t": "ack", "seq": seq}


def flow(state: str) -> dict:
    return {"t": "flow", "state": state}


def error(message: str) -> dict:
    return {"t": "error", "message": message}


def bye() -> dict:
    return {"t": "bye"}
