"""Protocols v2/v3: cluster opcodes, epoch field, and version negotiation.

The negotiation contract, pinned in both directions:

* A request that a v1 server could parse (legacy opcode, epoch 0) MUST
  go out as a version-1 frame, byte-compatible with the pre-cluster
  wire format.
* A reply that a v1 client could parse MUST be stamped version 1; only
  ``MOMENTS`` bodies and ``RETRY`` statuses may claim a newer version.
* PREDUCE and ``MOMENTS`` need version 3 (exact integer moments); a v2
  frame carrying either is rejected, never parsed with the wrong layout.
* A live v2 server answers hand-crafted v1 frames instead of closing
  the connection.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.moments import QuantizedMoments
from repro.service import protocol
from repro.service.protocol import (
    LEGACY_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    BodyKind,
    FrameError,
    GetRequest,
    HealthRequest,
    Moments,
    Opcode,
    PingRequest,
    PReduceRequest,
    PutRequest,
    Reply,
    ShardMapRequest,
    Status,
    Step,
)


class TestClusterRequestRoundtrips:
    @pytest.mark.parametrize(
        "req",
        [
            ShardMapRequest(""),
            ShardMapRequest('{"epoch": 3}'),
            PingRequest(),
            PReduceRequest("U"),
            PReduceRequest("U", (Step("negation", None), Step("scalar_add", 0.5)), 2),
        ],
    )
    def test_roundtrip(self, req):
        for epoch in (0, 1, 77):
            back, deadline, back_epoch = protocol.decode_request(
                protocol.encode_request(req, deadline_ms=9, epoch=epoch)
            )
            assert back == req
            assert deadline == 9
            assert back_epoch == epoch

    def test_cluster_opcodes_always_v2(self):
        for req in (ShardMapRequest(), PingRequest(), PReduceRequest("U")):
            payload = protocol.encode_request(req)
            assert payload[0] == PROTOCOL_VERSION

    def test_legacy_opcode_with_epoch_promotes_to_v2(self):
        payload = protocol.encode_request(GetRequest("U"), epoch=5)
        assert payload[0] == PROTOCOL_VERSION
        _req, _dl, epoch = protocol.decode_request(payload)
        assert epoch == 5

    def test_legacy_opcode_without_epoch_stays_v1(self):
        payload = protocol.encode_request(PutRequest("U", b"x"))
        assert payload[0] == LEGACY_PROTOCOL_VERSION
        _req, _dl, epoch = protocol.decode_request(payload)
        assert epoch == 0

    def test_v1_frame_with_cluster_opcode_rejected(self):
        payload = struct.pack("<BBI", 1, int(Opcode.PING), 0)
        with pytest.raises(FrameError, match="version"):
            protocol.decode_request(payload)


class TestMoments:
    def test_roundtrip(self):
        m = Moments(QuantizedMoments(-1_500_000, 225_000_000_000, -4000, 4096, 20_000), 1e-3)
        assert Moments.from_bytes(m.to_bytes()) == m

    def test_moments_reply_roundtrip_is_v2(self):
        m = Moments(QuantizedMoments(10, 100, -3, 7, 64), 1e-3)
        payload = protocol.encode_reply(
            Reply(status=Status.OK, kind=BodyKind.MOMENTS, moments=m)
        )
        assert payload[0] == PROTOCOL_VERSION
        assert protocol.decode_reply(payload).moments == m

    def test_v1_frame_cannot_carry_moments(self):
        m = Moments(QuantizedMoments(10, 100, -3, 7, 64), 1e-3)
        payload = bytearray(
            protocol.encode_reply(
                Reply(status=Status.OK, kind=BodyKind.MOMENTS, moments=m)
            )
        )
        payload[0] = LEGACY_PROTOCOL_VERSION
        with pytest.raises(FrameError, match="version"):
            protocol.decode_reply(bytes(payload))


class TestExactMomentsV3:
    """The v3 MOMENTS body: exact ints, and no v2 peer ever misreads it."""

    def test_sums_beyond_float64_roundtrip_exactly(self):
        n, v = 2**40, 2**61 - 3
        m = Moments(QuantizedMoments(n * v, n * v * v + 7, v - 2, v + 3, n), 1e-4)
        back = protocol.decode_reply(
            protocol.encode_reply(Reply(status=Status.OK, kind=BodyKind.MOMENTS, moments=m))
        )
        assert back.moments == m

    def test_v2_preduce_request_rejected(self):
        payload = bytearray(protocol.encode_request(PReduceRequest("U"), epoch=3))
        assert payload[0] == protocol.MOMENTS_VERSION
        payload[0] = 2
        with pytest.raises(FrameError, match="version 3"):
            protocol.decode_request(bytes(payload))

    def test_v2_moments_reply_rejected(self):
        m = Moments(QuantizedMoments(10, 100, -3, 7, 64), 1e-3)
        payload = bytearray(
            protocol.encode_reply(Reply(status=Status.OK, kind=BodyKind.MOMENTS, moments=m))
        )
        payload[0] = 2
        with pytest.raises(FrameError, match="version 3"):
            protocol.decode_reply(bytes(payload))

    def test_legacy_float_body_is_not_misread(self):
        legacy = struct.pack("<ddqqQd", 10.0, 100.0, -3, 7, 64, 1e-3)
        with pytest.raises(FrameError):
            Moments.from_bytes(legacy)

    @pytest.mark.parametrize(
        "m",
        [
            QuantizedMoments(1000, 10**6, -3, 7, 64),  # s1 above n*hi
            QuantizedMoments(10, 1, -3, 7, 64),  # n*s2 below s1^2
            QuantizedMoments(10, 10**6, -3, 7, 64),  # s2 above n*max(lo^2, hi^2)
            QuantizedMoments(0, 0, 7, -3, 4),  # lo above hi
            QuantizedMoments(1, 1, 1, 1, 0),  # empty but nonzero sums
        ],
    )
    def test_infeasible_moments_rejected(self, m):
        with pytest.raises(FrameError, match="valid moment"):
            Moments.from_bytes(Moments(m, 1e-3).to_bytes())

    def test_live_node_answers_v2_preduce_with_a_clean_error(
        self, cluster_factory, plain_client_factory
    ):
        _router, handles = cluster_factory(n_nodes=1, replicas=1)
        client = plain_client_factory(_node_info_of(handles[0]))
        payload = bytearray(protocol.encode_request(PReduceRequest("U")))
        payload[0] = 2
        client.send_raw(protocol.pack_frame(bytes(payload)))
        reply = client.recv_reply()
        assert reply.status is Status.ERROR
        assert "version 3" in reply.message
        # The connection stays usable afterwards.
        assert client.ping()["epoch"] >= 1


class TestRetryReplies:
    def test_retry_carries_map_and_is_v2(self):
        reply = Reply(
            status=Status.RETRY,
            kind=BodyKind.MESSAGE,
            message="epoch fence: caller at 3, node at 4",
            json_text='{"epoch": 4}',
        )
        payload = protocol.encode_reply(reply)
        assert payload[0] == PROTOCOL_VERSION
        back = protocol.decode_reply(payload)
        assert back.status is Status.RETRY
        assert back.message.startswith("epoch fence")
        assert back.json_text == '{"epoch": 4}'


class TestReplyDowngrade:
    """Replies expressible in v1 MUST be stamped v1 (old clients parse them)."""

    @pytest.mark.parametrize(
        "reply",
        [
            Reply(status=Status.OK, kind=BodyKind.BLOB, version=3, blob=b"abc"),
            Reply(status=Status.OK, kind=BodyKind.STORED, version=3),
            Reply(status=Status.OK, kind=BodyKind.VALUE, value=2.5),
            Reply(status=Status.OK, kind=BodyKind.JSON, json_text="{}"),
            Reply(status=Status.ERROR, kind=BodyKind.MESSAGE, message="nope"),
            Reply(status=Status.BUSY, kind=BodyKind.MESSAGE, message="shed"),
        ],
    )
    def test_v1_expressible_replies_stamped_v1(self, reply):
        payload = protocol.encode_reply(reply)
        assert payload[0] == LEGACY_PROTOCOL_VERSION
        back = protocol.decode_reply(payload)
        assert back.status == reply.status


class TestLiveServerCompat:
    """A v2 server answers hand-crafted v1 frames instead of desyncing."""

    def test_v1_health_frame_answered(self, cluster_factory, plain_client_factory):
        _router, handles = cluster_factory(n_nodes=1, replicas=1)
        info_client = plain_client_factory(
            _node_info_of(handles[0])
        )
        frame = struct.pack("<BBI", 1, int(Opcode.HEALTH), 0)
        info_client.send_raw(protocol.pack_frame(frame))
        reply = info_client.recv_reply()
        assert reply.status is Status.OK
        assert '"node_id"' in reply.json_text

    def test_v1_stats_then_v2_ping_on_same_connection(
        self, cluster_factory, plain_client_factory
    ):
        _router, handles = cluster_factory(n_nodes=1, replicas=1)
        client = plain_client_factory(_node_info_of(handles[0]))
        frame = struct.pack("<BBI", 1, int(Opcode.STATS), 0)
        client.send_raw(protocol.pack_frame(frame))
        assert client.recv_reply().status is Status.OK
        # Same connection keeps working at v2 afterwards: no desync.
        assert client.ping()["epoch"] >= 1


def _node_info_of(handle):
    from repro.cluster import NodeInfo

    return NodeInfo(handle.server.node_id, handle.host, handle.port)


@settings(max_examples=200, deadline=None)
@given(payload=st.binary(min_size=0, max_size=64))
def test_garbage_never_crashes_decoders(payload):
    for decoder in (protocol.decode_request, protocol.decode_reply):
        try:
            decoder(payload)
        except FrameError:
            pass
