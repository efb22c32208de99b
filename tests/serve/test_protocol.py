"""Wire-protocol unit tests: framing, binary batches, site payloads,
shard routing."""

import json
import struct
import zlib

import pytest

from repro.core.sites import Site, SiteKind
from repro.serve import protocol as proto
from repro.serve.protocol import FrameDecoder, ProtocolError

from tests.serve.harness import ServeCluster, make_sites


def test_frame_round_trip():
    message = proto.batch(7, [0, 1, 0], [10, 20, 30])
    frames = list(FrameDecoder().feed(proto.encode_frame(message)))
    assert frames == [message]


def test_decoder_handles_byte_by_byte_delivery():
    messages = [proto.hello("c", "s"), proto.batch(0, [0], [1]), proto.bye()]
    blob = b"".join(proto.encode_frame(m) for m in messages)
    decoder = FrameDecoder()
    out = []
    for index in range(len(blob)):
        out.extend(decoder.feed(blob[index : index + 1]))
    assert out == messages
    assert decoder.pending_bytes == 0


def test_truncated_frame_is_never_yielded():
    """A binary batch frame cut anywhere is held, not decoded."""
    frame = proto.encode_frame(proto.batch(3, [0, 0], [1, 2], tc=("t", "s")))
    for cut in (1, 4, 5, len(frame) // 2, len(frame) - 1):
        decoder = FrameDecoder()
        assert list(decoder.feed(frame[:cut])) == []
        assert decoder.pending_bytes == cut
        # the remaining bytes complete it — atomicity, not loss
        assert list(decoder.feed(frame[cut:])) == [
            proto.batch(3, [0, 0], [1, 2], tc=("t", "s"))
        ]


def test_oversized_frame_rejected():
    huge = struct.pack(">I", proto.MAX_FRAME + 1)
    with pytest.raises(ProtocolError):
        list(FrameDecoder().feed(huge))


def test_non_object_frame_rejected():
    frame = struct.pack(">I", 2) + b"[]"
    with pytest.raises(ProtocolError):
        list(FrameDecoder().feed(frame))


def test_site_payload_round_trip():
    site = Site(
        kind=SiteKind.LOAD, program="p", procedure="f", label="L1", opcode="load"
    )
    assert proto.site_from_payload(proto.site_to_payload(site)) == site


def test_bad_site_payload_raises():
    with pytest.raises(ProtocolError):
        proto.site_from_payload(["not-a-kind", "p", "f", "L", "op"])
    with pytest.raises(ProtocolError):
        proto.site_from_payload(["load", "p"])


def test_shard_routing_is_stable_and_in_range():
    sites = make_sites(50)
    for shards in (1, 2, 3, 7):
        for site in sites:
            index = proto.shard_for_site(site, shards)
            assert 0 <= index < shards
            assert index == proto.shard_for_site(site, shards)  # deterministic


def test_shard_routing_matches_crc32_of_identity():
    site = make_sites(1)[0]
    key = f"{site.kind.value}|{site.program}|{site.procedure}|{site.label}"
    assert proto.shard_for_site(site, 5) == zlib.crc32(key.encode()) % 5


def test_shard_routing_ignores_opcode():
    a = Site(kind=SiteKind.LOAD, program="p", procedure="f", label="L", opcode="x")
    b = Site(kind=SiteKind.LOAD, program="p", procedure="f", label="L", opcode="y")
    assert proto.shard_for_site(a, 13) == proto.shard_for_site(b, 13)


def test_shard_routing_spreads_sites():
    sites = make_sites(200)
    owners = {proto.shard_for_site(site, 4) for site in sites}
    assert owners == {0, 1, 2, 3}


def test_binary_batch_round_trip_at_column_extremes():
    """Site ids 0 and 2**32-1 and values -2**63 and 2**63-1 survive the
    wire exactly, with the trace context."""
    sids, values = proto.event_columns([0, 2**32 - 1, 0], [-(2**63), 2**63 - 1, 0])
    message = proto.batch(2**40, sids, values, tc=("trace", "span"))
    frame = proto.encode_frame(message)
    assert frame[4] == proto.BATCH_MAGIC
    (decoded,) = FrameDecoder().feed(frame)
    assert decoded == message
    assert list(decoded["sids"]) == [0, 2**32 - 1, 0]
    assert list(decoded["values"]) == [-(2**63), 2**63 - 1, 0]
    assert decoded["tc"] == ("trace", "span")


def test_binary_batch_without_trace_context():
    (decoded,) = FrameDecoder().feed(proto.encode_frame(proto.batch(0, [], [])))
    assert decoded == proto.batch(0, [], [])
    assert decoded["tc"] is None


def test_batch_body_length_must_match_its_header():
    """A body whose length disagrees with its header is an error — one
    event byte short, or one byte over."""
    body = proto.encode_frame(proto.batch(1, [0, 1], [5, 6]))[4:]
    for bad in (body[:-1], body + b"\x00"):
        with pytest.raises(ProtocolError, match="does not hold"):
            proto.decode_body(bad)
    with pytest.raises(ProtocolError):
        proto.decode_body(body[:6])  # cut inside the header


def test_json_batch_frame_is_refused():
    body = json.dumps({"t": "batch", "seq": 0, "sids": [0], "values": [1]})
    with pytest.raises(ProtocolError, match="binary"):
        proto.decode_body(body.encode("utf-8"))


@pytest.mark.parametrize(
    "sids, values",
    [
        ([True], [1]),
        ([0], [False]),
        (["0"], [1]),
        ([0], ["boom"]),
        ([0], [1.5]),
        ([0], [None]),
        ([-1], [1]),
        ([2**32], [1]),
        ([0], [2**63]),
        ([0], [-(2**63) - 1]),
        ([0, 1], [1]),
    ],
)
def test_event_columns_refuse_non_int_bool_and_out_of_range(sids, values):
    """The client's check at the wire boundary: nothing but ints in
    range reaches a frame."""
    with pytest.raises(ProtocolError):
        proto.event_columns(sids, values)


# ----------------------------------------------------------------------
# the refusals, against a live server and the production client
# ----------------------------------------------------------------------


def _body(message):
    return proto.encode_frame(message)[4:]


def test_server_refuses_a_v2_hello():
    with ServeCluster(shards=1) as cluster:
        replies = cluster.exchange_raw(_body(dict(proto.hello("old"), v=2)))
        assert cluster.server.sessions == {}
    assert [message["t"] for message in replies] == ["error"]
    assert "version 2" in replies[0]["message"]


def test_server_refuses_a_json_batch_frame():
    payload = proto.site_to_payload(make_sites(1)[0])
    json_batch = json.dumps({"t": "batch", "seq": 0, "sids": [0], "values": [1]})
    with ServeCluster(shards=1) as cluster:
        replies = cluster.exchange_raw(
            _body(proto.hello("c")),
            _body(proto.sites_frame(0, [payload])),
            json_batch.encode("utf-8"),
        )
        counters = dict(cluster.server.counters)
    assert [message["t"] for message in replies] == ["welcome", "error"]
    assert "binary" in replies[-1]["message"]
    assert "serve.batches" not in counters


def test_client_refuses_bad_columns_before_buffering():
    """Bool, float and out-of-range values raise in ``send_batch``
    before the batch takes a sequence number or a window slot."""
    site = make_sites(1)[0]
    with ServeCluster(shards=1) as cluster:
        client = cluster.client("c1")
        sid = client.site_id(site)
        for values in ([True], [1.5], [2**63], [-(2**63) - 1]):
            with pytest.raises(ProtocolError):
                client.send_batch([sid], values)
        assert client.unacked == 0 and client.counters["batches"] == 0
        assert client.send_batch([sid], [7]) == 0
        client.flush()
        client.close()
        merged = cluster.merged_database()
    assert merged.profile_for(site).executions == 1
