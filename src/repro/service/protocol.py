"""The ``repro.service`` wire protocol: length-prefixed binary frames.

The server speaks a minimal binary protocol over TCP, designed for the
same audience as the container format itself (:mod:`repro.core.format`):
little-endian, explicit lengths everywhere, no implicit framing.  Every
message — request or response — is one *frame*::

    u32  payload length (little-endian, excludes these 4 bytes)
    ...  payload

A payload begins with a one-byte protocol version so that a server can
reject a future client with a clean ``ERROR`` instead of a parse
failure.  Three versions are live:

* **version 1** — the original six opcodes (PUT/GET/OP/REDUCE/STATS/
  HEALTH), no epoch field.
* **version 2** — adds the cluster opcodes (SHARDMAP/PREDUCE/PING), a
  ``u32 epoch`` header field for shard-map fencing, the ``MOMENTS``
  reply body, and the ``RETRY`` status.
* **version 3** — the ``MOMENTS`` body carries the exact integer sums
  (see :class:`Moments`); v2's float64 sums are no longer spoken, so
  PREDUCE and ``MOMENTS`` need version 3.

Requests follow with an opcode, a deadline, and an opcode-specific
body; responses follow with a status and a typed body::

    request  (v1)  = u8 version | u8 opcode | u32 deadline_ms | body
    request  (v2+) = u8 version | u8 opcode | u32 deadline_ms | u32 epoch | body
    response       = u8 version | u8 status | u8 body_kind    | body

**Version negotiation** is downgrade-friendly toward version 1: a server
decodes v1 frames exactly as a v1 server would (epoch 0), and
:func:`encode_request` emits a version-1 frame whenever the request is
expressible in one — a v1 opcode with no epoch — so a new client can talk
to an old server.  Every other frame is stamped with the newest version.
Replies likewise carry version 1 unless they are ``MOMENTS`` bodies or
``RETRY`` statuses, so an old client never receives a version byte it
cannot parse for an endpoint it knows.  Each decoder checks the version a
feature needs: a v2 PREDUCE request or a v2 ``MOMENTS`` reply is a
:class:`FrameError` (the server answers it with a v1 ``ERROR``), never a
moment tuple read with the wrong layout.

``deadline_ms`` is the client's per-request deadline (0 = use the
server's default); a request that cannot finish inside it gets a
``TIMEOUT`` response.  ``epoch`` is the sender's shard-map epoch (0 =
unfenced); a cluster node at a different epoch answers ``RETRY`` with
its current map instead of silently misrouting.  All multi-byte
integers are little-endian; strings are ``u16 length + UTF-8 bytes``;
blobs are ``u32 length + bytes``.  Frames larger than the negotiated
maximum (:data:`DEFAULT_MAX_FRAME`) are rejected before the payload is
read — a hostile length prefix never allocates.

Decoding is strict: every decoder consumes its exact byte budget and
raises :class:`FrameError` on truncation, trailing bytes, unknown
opcodes/statuses, or out-of-range counts.  The server converts
``FrameError`` into an ``ERROR`` reply; it never kills the accept loop.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Union

from repro.core.moments import QuantizedMoments

__all__ = [
    "PROTOCOL_VERSION",
    "LEGACY_PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "MOMENTS_VERSION",
    "DEFAULT_MAX_FRAME",
    "MAX_STEPS",
    "Opcode",
    "Status",
    "BodyKind",
    "FrameError",
    "Step",
    "Moments",
    "PutRequest",
    "GetRequest",
    "OpRequest",
    "ReduceRequest",
    "StatsRequest",
    "HealthRequest",
    "ShardMapRequest",
    "PReduceRequest",
    "PingRequest",
    "Request",
    "Reply",
    "encode_request",
    "decode_request",
    "encode_reply",
    "decode_reply",
    "pack_frame",
    "split_frame",
]

#: Newest version this codebase speaks (and the version byte used for
#: every frame a version-1 frame cannot express).
PROTOCOL_VERSION = 3

#: The original pre-cluster version, still fully supported.
LEGACY_PROTOCOL_VERSION = 1

#: Versions :func:`decode_request` / :func:`decode_reply` accept.
SUPPORTED_VERSIONS = (LEGACY_PROTOCOL_VERSION, 2, PROTOCOL_VERSION)

#: The exact-integer ``MOMENTS`` layout: PREDUCE requests and ``MOMENTS``
#: replies stamped with an older version are rejected, not misread.
MOMENTS_VERSION = 3

#: Default cap on a single frame's payload (64 MiB).  Both sides enforce
#: it: the reader rejects a larger declared length before allocating.
DEFAULT_MAX_FRAME = 64 << 20

#: Cap on the number of chain steps a single OP/REDUCE request may carry.
MAX_STEPS = 256

_LATEST_VERSION = -1  # sentinel: "the newest stored version"


class Opcode(IntEnum):
    """Request opcodes (the service's endpoint table)."""

    PUT = 1
    GET = 2
    OP = 3
    REDUCE = 4
    STATS = 5
    HEALTH = 6
    #: v2: install / fetch the cluster shard map (JSON document).
    SHARDMAP = 7
    #: v2: partial reduce — return quantized moments, not a scalar
    #: (version 3 since the moments became exact integers).
    PREDUCE = 8
    #: v2: lightweight health probe with epoch + load in the payload.
    PING = 9


#: Opcodes expressible in a version-1 frame.  Anything newer forces the
#: v2 request header (and an old server will reject it cleanly).
V1_OPCODES = frozenset(
    {Opcode.PUT, Opcode.GET, Opcode.OP, Opcode.REDUCE, Opcode.STATS, Opcode.HEALTH}
)


class Status(IntEnum):
    """Response statuses."""

    OK = 0
    #: The request was understood but failed (bad stream, unknown array,
    #: invalid chain, internal error).  Body: message string.
    ERROR = 1
    #: Load shed: the admission queue is full.  Body: message string.
    BUSY = 2
    #: The per-request deadline expired.  Body: message string.
    TIMEOUT = 3
    #: v2: the caller's shard-map epoch is stale (or the node's is).
    #: Body: message string + the node's current map as a JSON blob, so
    #: the caller can re-route without a separate round trip.
    RETRY = 4


class BodyKind(IntEnum):
    """Typed OK-response bodies (self-describing, so clients need no
    per-opcode decode table)."""

    #: ``u32 version | u32 blob length | blob`` — a serialized stream.
    BLOB = 0
    #: ``u32 version`` — the version assigned to a stored result.
    STORED = 1
    #: ``f64`` — a reduction value.
    VALUE = 2
    #: ``u32 length | UTF-8 JSON`` — STATS / HEALTH documents.
    JSON = 3
    #: status != OK: ``u16 length | UTF-8 message``.
    MESSAGE = 4
    #: v3: exact quantized partial-reduce moments (see :class:`Moments`).
    MOMENTS = 5


class FrameError(ValueError):
    """A frame or payload violates the wire protocol."""


# ---------------------------------------------------------------------------
# primitive (de)serializers
# ---------------------------------------------------------------------------


class _Reader:
    """Bounds-checked sequential reader over one payload."""

    def __init__(self, buf: bytes) -> None:
        self._buf = buf
        self._pos = 0

    def take(self, n: int, what: str) -> bytes:
        if n < 0 or self._pos + n > len(self._buf):
            raise FrameError(
                f"truncated payload: {what} needs {n} byte(s) at offset "
                f"{self._pos}, {len(self._buf) - self._pos} remain"
            )
        out = self._buf[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return int(struct.unpack("<H", self.take(2, what))[0])

    def u32(self, what: str) -> int:
        return int(struct.unpack("<I", self.take(4, what))[0])

    def i32(self, what: str) -> int:
        return int(struct.unpack("<i", self.take(4, what))[0])

    def f64(self, what: str) -> float:
        return float(struct.unpack("<d", self.take(8, what))[0])

    def string(self, what: str) -> str:
        n = self.u16(f"{what} length")
        raw = self.take(n, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError(f"{what} is not valid UTF-8: {exc}") from None

    def blob(self, what: str) -> bytes:
        n = self.u32(f"{what} length")
        return self.take(n, what)

    def bigint(self, what: str) -> int:
        n = self.u8(f"{what} length")
        if not 0 < n <= _MAX_INT_BYTES:
            raise FrameError(f"{what} takes 1-{_MAX_INT_BYTES} bytes, not {n}")
        return int.from_bytes(self.take(n, what), "little", signed=True)

    def rest(self) -> bytes:
        return self.take(len(self._buf) - self._pos, "rest")

    def expect_end(self) -> None:
        if self._pos != len(self._buf):
            raise FrameError(
                f"{len(self._buf) - self._pos} trailing byte(s) after payload"
            )


def _put_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FrameError(f"string field too long ({len(raw)} bytes)")
    out += struct.pack("<H", len(raw))
    out += raw


def _put_blob(out: bytearray, blob: bytes) -> None:
    out += struct.pack("<I", len(blob))
    out += blob


#: Cap on an exact integer's encoded size (Σq² of 2^64 values below 2^62
#: needs 189 bits plus a sign bit).
_MAX_INT_BYTES = 32


def _put_bigint(out: bytearray, value: int) -> None:
    """``u8 length | little-endian two's complement`` (shortest form)."""
    n = (value.bit_length() + 8) // 8
    if n > _MAX_INT_BYTES:
        raise FrameError(f"integer of {value.bit_length()} bits exceeds the wire cap")
    out += struct.pack("<B", n)
    out += value.to_bytes(n, "little", signed=True)


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One pointwise chain step: an operation name plus optional scalar."""

    name: str
    scalar: float | None = None

    def as_pair(self) -> tuple[str, float | None]:
        return (self.name, self.scalar)


_MOMENTS_HEAD = struct.Struct("<dQqq")


@dataclass(frozen=True)
class Moments:
    """One shard's exact quantized moments plus the bound that scales them.

    ``moments`` lives in the *quantized integer* domain, never the value
    domain: adding exact integers is associative, which is what makes the
    router's combine bit-identical to a single-node reduction regardless
    of shard placement.  ``eps`` rides along so the router can apply the
    single final ``2 * eps`` scaling exactly as ``runtime.lazy`` does.

    Wire layout (version 3): ``f64 eps | u64 n | i64 lo | i64 hi | int s1
    | int s2``, where ``int`` is ``u8 length`` plus that many bytes of
    little-endian two's complement.  Decoding rejects sums no integer
    array in ``[lo, hi]`` could have (``n·lo <= s1 <= n·hi`` and
    ``s1² <= n·s2 <= n²·max(lo², hi²)``).
    """

    moments: QuantizedMoments
    eps: float

    def to_bytes(self) -> bytes:
        m = self.moments
        out = bytearray(_MOMENTS_HEAD.pack(self.eps, m.n, m.lo, m.hi))
        _put_bigint(out, m.s1)
        _put_bigint(out, m.s2)
        return bytes(out)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Moments":
        r = _Reader(raw)
        eps, n, lo, hi = _MOMENTS_HEAD.unpack(r.take(_MOMENTS_HEAD.size, "moments"))
        m = QuantizedMoments(r.bigint("moments s1"), r.bigint("moments s2"), lo, hi, n)
        r.expect_end()
        feasible = (
            lo <= hi
            and n * lo <= m.s1 <= n * hi
            and m.s1 * m.s1 <= n * m.s2 <= n * n * max(lo * lo, hi * hi)
            if n
            else m == QuantizedMoments(0, 0, 0, 0, 0)
        )
        if not (feasible and eps > 0 and math.isfinite(eps)):
            raise FrameError(f"moments body is not a valid moment tuple: {m}, eps={eps}")
        return cls(m, float(eps))


@dataclass(frozen=True)
class PutRequest:
    """Store a serialized stream under ``name`` (a new version)."""

    name: str
    blob: bytes
    opcode = Opcode.PUT


@dataclass(frozen=True)
class GetRequest:
    """Fetch the serialized stream ``name`` (version -1 = latest)."""

    name: str
    version: int = _LATEST_VERSION
    opcode = Opcode.GET


@dataclass(frozen=True)
class OpRequest:
    """Apply a pointwise chain to ``name``; return or store the result.

    With ``result_name`` empty the new stream comes back in the reply
    (``BLOB``); otherwise it is stored under ``result_name`` and only the
    assigned version comes back (``STORED``).
    """

    name: str
    steps: tuple[Step, ...]
    version: int = _LATEST_VERSION
    result_name: str = ""
    opcode = Opcode.OP


@dataclass(frozen=True)
class ReduceRequest:
    """Reduce ``name`` after an optional pointwise prefix chain."""

    name: str
    reduction: str
    steps: tuple[Step, ...] = ()
    version: int = _LATEST_VERSION
    opcode = Opcode.REDUCE


@dataclass(frozen=True)
class StatsRequest:
    """Fetch the telemetry snapshot (JSON)."""

    opcode = Opcode.STATS


@dataclass(frozen=True)
class HealthRequest:
    """Fetch the liveness/identity document (JSON)."""

    opcode = Opcode.HEALTH


@dataclass(frozen=True)
class ShardMapRequest:
    """Exchange shard maps: install ``map_json`` (empty = just fetch).

    The node answers with its (possibly just-updated) current map as a
    JSON body, so install-and-confirm is one round trip.
    """

    map_json: str = ""
    opcode = Opcode.SHARDMAP


@dataclass(frozen=True)
class PReduceRequest:
    """Partial-reduce ``name`` after an optional pointwise prefix chain.

    Unlike :class:`ReduceRequest` there is no reduction selector: the
    node always returns the full quantized moment tuple
    (:class:`Moments`) and the router derives whichever scalar it was
    asked for.  One opcode therefore serves sum/mean/min/max/var/std.
    """

    name: str
    steps: tuple[Step, ...] = ()
    version: int = _LATEST_VERSION
    opcode = Opcode.PREDUCE


@dataclass(frozen=True)
class PingRequest:
    """Cheap liveness probe; the JSON reply carries epoch + load."""

    opcode = Opcode.PING


Request = Union[
    PutRequest,
    GetRequest,
    OpRequest,
    ReduceRequest,
    StatsRequest,
    HealthRequest,
    ShardMapRequest,
    PReduceRequest,
    PingRequest,
]


def _encode_steps(out: bytearray, steps: tuple[Step, ...]) -> None:
    if len(steps) > MAX_STEPS:
        raise FrameError(f"chain of {len(steps)} steps exceeds the cap of {MAX_STEPS}")
    out += struct.pack("<H", len(steps))
    for step in steps:
        _put_str(out, step.name)
        if step.scalar is None:
            out += b"\x00"
        else:
            out += b"\x01"
            out += struct.pack("<d", float(step.scalar))


def _decode_steps(r: _Reader) -> tuple[Step, ...]:
    count = r.u16("step count")
    if count > MAX_STEPS:
        raise FrameError(f"chain of {count} steps exceeds the cap of {MAX_STEPS}")
    steps = []
    for i in range(count):
        name = r.string(f"step {i} name")
        has_scalar = r.u8(f"step {i} scalar flag")
        if has_scalar not in (0, 1):
            raise FrameError(f"step {i} scalar flag must be 0/1, got {has_scalar}")
        scalar = r.f64(f"step {i} scalar") if has_scalar else None
        steps.append(Step(name, scalar))
    return tuple(steps)


def encode_request(req: Request, deadline_ms: int = 0, epoch: int = 0) -> bytes:
    """Serialize one request into a frame payload (no length prefix).

    The version byte is chosen per-request: a legacy opcode with epoch 0
    is emitted as a version-1 frame (parseable by pre-cluster servers);
    anything needing the epoch field or a cluster opcode goes out as
    the newest version.
    """
    if not 0 <= deadline_ms <= 0xFFFFFFFF:
        raise FrameError(f"deadline_ms out of range: {deadline_ms}")
    if not 0 <= epoch <= 0xFFFFFFFF:
        raise FrameError(f"epoch out of range: {epoch}")
    wire_version = (
        LEGACY_PROTOCOL_VERSION
        if req.opcode in V1_OPCODES and epoch == 0
        else PROTOCOL_VERSION
    )
    out = bytearray()
    out += struct.pack("<BBI", wire_version, int(req.opcode), deadline_ms)
    if wire_version > LEGACY_PROTOCOL_VERSION:
        out += struct.pack("<I", epoch)
    if isinstance(req, PutRequest):
        _put_str(out, req.name)
        _put_blob(out, req.blob)
    elif isinstance(req, GetRequest):
        _put_str(out, req.name)
        out += struct.pack("<i", req.version)
    elif isinstance(req, OpRequest):
        _put_str(out, req.name)
        out += struct.pack("<i", req.version)
        _encode_steps(out, req.steps)
        _put_str(out, req.result_name)
    elif isinstance(req, ReduceRequest):
        _put_str(out, req.name)
        out += struct.pack("<i", req.version)
        _encode_steps(out, req.steps)
        _put_str(out, req.reduction)
    elif isinstance(req, ShardMapRequest):
        _put_blob(out, req.map_json.encode("utf-8"))
    elif isinstance(req, PReduceRequest):
        _put_str(out, req.name)
        out += struct.pack("<i", req.version)
        _encode_steps(out, req.steps)
    elif isinstance(req, (StatsRequest, HealthRequest, PingRequest)):
        pass
    else:  # pragma: no cover - exhaustive over the Request union
        raise FrameError(f"unknown request type {type(req).__name__}")
    return bytes(out)


def decode_request(payload: bytes) -> tuple[Request, int, int]:
    """Parse a request payload into ``(request, deadline_ms, epoch)``.

    Version-1 frames decode with epoch 0; a frame older than its opcode
    (a v1 cluster opcode, a v2 PREDUCE) is rejected.
    """
    r = _Reader(payload)
    version = r.u8("protocol version")
    if version not in SUPPORTED_VERSIONS:
        raise FrameError(f"unsupported protocol version {version}")
    raw_op = r.u8("opcode")
    try:
        opcode = Opcode(raw_op)
    except ValueError:
        raise FrameError(f"unknown opcode {raw_op}") from None
    needed = (
        MOMENTS_VERSION
        if opcode is Opcode.PREDUCE
        else LEGACY_PROTOCOL_VERSION
        if opcode in V1_OPCODES
        else 2
    )
    if version < needed:
        raise FrameError(f"opcode {opcode.name} requires protocol version {needed}")
    deadline_ms = r.u32("deadline")
    epoch = r.u32("epoch") if version > LEGACY_PROTOCOL_VERSION else 0
    req: Request
    if opcode is Opcode.PUT:
        name = r.string("array name")
        blob = r.blob("stream")
        req = PutRequest(name, bytes(blob))
    elif opcode is Opcode.GET:
        req = GetRequest(r.string("array name"), r.i32("version"))
    elif opcode is Opcode.OP:
        name = r.string("array name")
        version_no = r.i32("version")
        steps = _decode_steps(r)
        result_name = r.string("result name")
        req = OpRequest(name, steps, version_no, result_name)
    elif opcode is Opcode.REDUCE:
        name = r.string("array name")
        version_no = r.i32("version")
        steps = _decode_steps(r)
        reduction = r.string("reduction name")
        req = ReduceRequest(name, reduction, steps, version_no)
    elif opcode is Opcode.STATS:
        req = StatsRequest()
    elif opcode is Opcode.HEALTH:
        req = HealthRequest()
    elif opcode is Opcode.SHARDMAP:
        raw = r.blob("shard map")
        try:
            map_json = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError(f"shard map is not valid UTF-8: {exc}") from None
        req = ShardMapRequest(map_json)
    elif opcode is Opcode.PREDUCE:
        name = r.string("array name")
        version_no = r.i32("version")
        steps = _decode_steps(r)
        req = PReduceRequest(name, steps, version_no)
    else:
        req = PingRequest()
    r.expect_end()
    return req, deadline_ms, epoch


# ---------------------------------------------------------------------------
# replies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reply:
    """One decoded response.

    ``status`` is always set.  For ``OK`` exactly one of ``blob`` /
    ``version`` / ``value`` / ``json_text`` / ``moments`` is meaningful,
    per ``kind``; for any other status ``message`` carries the server's
    diagnostic.  A ``RETRY`` additionally carries the node's current
    shard map in ``json_text``.
    """

    status: Status
    kind: BodyKind
    message: str = ""
    version: int = 0
    blob: bytes = b""
    value: float = 0.0
    json_text: str = ""
    moments: Moments | None = None

    @property
    def ok(self) -> bool:
        return self.status is Status.OK


def encode_reply(reply: Reply) -> bytes:
    """Serialize one reply into a frame payload (no length prefix).

    Like requests, replies are stamped version 1 when they can be: only
    ``MOMENTS`` bodies and ``RETRY`` statuses carry the newest version,
    so v1 clients keep parsing every reply to an endpoint they can reach.
    """
    needs_new = reply.status is Status.RETRY or reply.kind is BodyKind.MOMENTS
    wire_version = PROTOCOL_VERSION if needs_new else LEGACY_PROTOCOL_VERSION
    out = bytearray()
    out += struct.pack("<BBB", wire_version, int(reply.status), int(reply.kind))
    if reply.status is Status.RETRY:
        _put_str(out, reply.message)
        _put_blob(out, reply.json_text.encode("utf-8"))
        return bytes(out)
    if reply.status is not Status.OK:
        _put_str(out, reply.message)
        return bytes(out)
    if reply.kind is BodyKind.MOMENTS:
        if reply.moments is None:
            raise FrameError("MOMENTS reply is missing its moments payload")
        out += reply.moments.to_bytes()
        return bytes(out)
    if reply.kind is BodyKind.BLOB:
        out += struct.pack("<I", reply.version)
        _put_blob(out, reply.blob)
    elif reply.kind is BodyKind.STORED:
        out += struct.pack("<I", reply.version)
    elif reply.kind is BodyKind.VALUE:
        out += struct.pack("<d", reply.value)
    elif reply.kind is BodyKind.JSON:
        raw = reply.json_text.encode("utf-8")
        _put_blob(out, raw)
    else:
        raise FrameError(f"OK reply cannot carry body kind {reply.kind!r}")
    return bytes(out)


def decode_reply(payload: bytes) -> Reply:
    """Parse a reply payload (accepts every supported version)."""
    r = _Reader(payload)
    version = r.u8("protocol version")
    if version not in SUPPORTED_VERSIONS:
        raise FrameError(f"unsupported protocol version {version}")
    raw_status = r.u8("status")
    try:
        status = Status(raw_status)
    except ValueError:
        raise FrameError(f"unknown status {raw_status}") from None
    raw_kind = r.u8("body kind")
    try:
        kind = BodyKind(raw_kind)
    except ValueError:
        raise FrameError(f"unknown body kind {raw_kind}") from None
    needed = (
        MOMENTS_VERSION
        if kind is BodyKind.MOMENTS
        else 2
        if status is Status.RETRY
        else LEGACY_PROTOCOL_VERSION
    )
    if version < needed:
        raise FrameError(f"reply feature requires protocol version {needed}")
    if status is Status.RETRY:
        message = r.string("message")
        raw = r.blob("shard map")
        try:
            map_json = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError(f"shard map is not valid UTF-8: {exc}") from None
        r.expect_end()
        return Reply(
            status=status, kind=BodyKind.MESSAGE, message=message, json_text=map_json
        )
    if status is not Status.OK:
        message = r.string("message")
        r.expect_end()
        return Reply(status=status, kind=BodyKind.MESSAGE, message=message)
    if kind is BodyKind.MOMENTS:
        moments = Moments.from_bytes(bytes(r.rest()))
        return Reply(status=status, kind=kind, moments=moments)
    if kind is BodyKind.BLOB:
        version_no = r.u32("version")
        blob = r.blob("stream")
        reply = Reply(status=status, kind=kind, version=version_no, blob=bytes(blob))
    elif kind is BodyKind.STORED:
        reply = Reply(status=status, kind=kind, version=r.u32("version"))
    elif kind is BodyKind.VALUE:
        reply = Reply(status=status, kind=kind, value=r.f64("value"))
    elif kind is BodyKind.JSON:
        raw = r.blob("json document")
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError(f"json document is not valid UTF-8: {exc}") from None
        reply = Reply(status=status, kind=kind, json_text=text)
    else:
        raise FrameError(f"OK reply cannot carry body kind {kind!r}")
    r.expect_end()
    return reply


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def pack_frame(payload: bytes, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Prefix a payload with its little-endian u32 length."""
    if len(payload) > max_frame:
        raise FrameError(
            f"payload of {len(payload)} bytes exceeds the frame cap {max_frame}"
        )
    return struct.pack("<I", len(payload)) + payload


def split_frame(header: bytes, max_frame: int = DEFAULT_MAX_FRAME) -> int:
    """Validate a 4-byte length prefix; return the payload length."""
    if len(header) != 4:
        raise FrameError(f"frame header must be 4 bytes, got {len(header)}")
    (length,) = struct.unpack("<I", header)
    if length > max_frame:
        raise FrameError(
            f"declared payload of {length} bytes exceeds the frame cap {max_frame}"
        )
    return int(length)
