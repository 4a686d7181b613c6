"""Versioned, checksummed binary wire format for collection state.

Everything a distributed deployment ships between machines — packed
report chunks on their way to a collector, accumulator snapshots on
their way to a merger — travels as a *frame*:

``[ header 40 B ][ payload ][ payload CRC32 4 B ]``

with a fixed little-endian header::

    offset  size  field
    0       4     magic  = b"IDLP"
    4       2     format version (currently 1)
    6       2     kind: 1 = accumulator snapshot, 2 = packed chunk
    8       8     m         report width in bits
    16      8     n         users absorbed (snapshot) / rows (chunk)
    24      8     round_id  signed collection-round tag
    32      4     payload length in bytes
    36      4     CRC32 of header bytes [0, 36)

The first 8 bytes (magic + version) are layout-invariant across all
future versions, so any reader can always classify a frame before
parsing the rest.  Snapshot payloads are the ``m`` little-endian
``int64`` counts; chunk payloads are ``n`` rows of ``ceil(m / 8)``
``np.packbits`` bytes.  Headers are self-delimiting (the payload length
is inside the checksummed region), so frames concatenate freely into
spill files and socket streams with no outer framing.

Version 2 adds the *session* frames of the exactly-once collection
service (:mod:`repro.pipeline.service`): an HMAC handshake
(``SessionHello`` → ``SessionChallenge`` → ``SessionProof``), the
``Record`` envelope that wraps a core frame with a producer-assigned
sequence number, and the ``Ack`` status frame.  Session kinds are
version-gated: the core data frames (kinds 1-2) still encode as version
1 — every existing spill file and golden fixture stays byte-identical —
while kinds 3-7 encode as version 2, and a reader refuses a kind paired
with the wrong version.

Version 3 adds *round-scoped session binding*: a
:class:`SessionChallenge` carries a 16-byte *round token* (the hosted
round's registration epoch) after the server nonce, and the producer's
proof MAC must bind it — so a proof minted against one hosted
incarnation of a round can never be spent against another, even one
re-registered under the same ``round_id`` after a key rotation.  Every
challenge a service sends carries a token.  The gate is per *object*,
not per kind: a challenge without a token still encodes as version 2,
byte-identical to the committed fixtures; a token-carrying challenge
encodes as version 3, and a reader refuses a 32-byte challenge payload
claiming version 2 (or vice versa).

Version 4 adds the *coordinator control plane* of the scale-out tier
(:mod:`repro.pipeline.service.coordinator`): a ``ControlRequest`` frame
carrying an operation name, a fresh nonce, a canonical-JSON body, and
an HMAC over all three, and a ``ControlReply`` echoing the nonce with a
status, JSON body, an optional binary attachment (e.g. a pulled
snapshot frame), and its own HMAC.  These are operator/coordinator
frames — route-table publication, drain/close/retire commands,
shard-state pulls — never producer frames, and they are version-gated
exactly like the session kinds: versions 1-3 encode byte-identically to
every committed golden fixture, and a reader refuses a control kind
paired with any version but 4.

Version 5 adds the *split-trust share frames* of the share-keeper tier
(:mod:`repro.pipeline.service.shares`): a ``BlindedCounts`` frame
carrying a chunk's per-bit count vector additively blinded mod 2^64
(what a blinded collector ingests — uniformly random words to anyone
without every keeper's state), and a ``BlindingShare`` frame carrying
one keeper's blinding words for the same chunk.  Both payloads are
``m`` little-endian ``uint64`` words with the covered row count in the
header's ``n`` field, decode as zero-copy numpy views, and double as
the parties' accumulated-state transfer form (``n`` then being the
total rows covered).  They are version-gated exactly like every prior
extension: versions 1-4 stay byte-identical to their golden fixtures,
and a reader refuses a share kind paired with any version but 5.

Decoding is loud on every failure mode a transport can produce: wrong
magic, unsupported version (the message names found and supported
versions), truncation mid-header or mid-payload, and CRC mismatch on
either region — all as :class:`~repro.exceptions.WireFormatError`.
No pickle anywhere: frames are safe to accept from untrusted producers.

Decoding is also *zero-copy* for the hot payloads: :func:`loads` and
:func:`decode_frame_at` accept any buffer (``bytes``, ``bytearray``,
``memoryview``, an ``mmap``) and hand chunk rows to numpy as a view
over the caller's buffer — no intermediate ``bytes`` materialization
anywhere on the chunk path.  The decoded ``PackedChunk.rows`` therefore
borrows the input buffer: it is read-only when the buffer is, and the
caller must keep the buffer alive (and release numpy references before
closing an mmap).  The remaining copies are structural — session
payloads become ``bytes`` (they carry strings and are tiny) and a
snapshot's counts become the accumulator's own writable state — and
each fires the module-level :data:`payload_copy_hook` (``hook(site,
nbytes)``) when one is installed, so tests can assert a path copies
exactly as much as it claims.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from ...exceptions import ValidationError, WireFormatError
from ...kernels import packed_width
from ..accumulator import CountAccumulator

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "WIRE_VERSION_SESSION",
    "WIRE_VERSION_MULTIROUND",
    "WIRE_VERSION_CONTROL",
    "WIRE_VERSION_SHARES",
    "KIND_SNAPSHOT",
    "KIND_CHUNK",
    "KIND_HELLO",
    "KIND_CHALLENGE",
    "KIND_PROOF",
    "KIND_RECORD",
    "KIND_ACK",
    "KIND_CONTROL_REQUEST",
    "KIND_CONTROL_REPLY",
    "KIND_BLINDED",
    "KIND_SHARE",
    "ACK_SESSION",
    "ACK_MERGED",
    "ACK_DUPLICATE",
    "ACK_REFUSED",
    "CONTROL_OK",
    "CONTROL_ERROR",
    "HEADER_SIZE",
    "SESSION_NONCE_SIZE",
    "SESSION_MAC_SIZE",
    "SESSION_TOKEN_SIZE",
    "PackedChunk",
    "BlindedCounts",
    "BlindingShare",
    "SessionHello",
    "SessionChallenge",
    "SessionProof",
    "Record",
    "Ack",
    "ControlRequest",
    "ControlReply",
    "encode_control_body",
    "decode_control_body",
    "dump_snapshot",
    "dump_chunk",
    "dump_blinded_counts",
    "dump_blinding_share",
    "dumps",
    "loads",
    "decode_frame_at",
]

# Optional observability tap for the structural copies the decoder still
# makes: set to a callable ``hook(site: str, nbytes: int)`` and every
# payload copy reports itself ("session-payload" for session frames
# materializing bytes, "snapshot-counts" for an accumulator taking
# ownership of its counts).  The packed-chunk path has no sites at all —
# that absence is what the zero-copy tests pin down.  ``None`` (the
# default) disables the tap; reads go through the module attribute so
# tests can install/remove hooks without reloading.
payload_copy_hook = None


def _note_copy(site: str, nbytes: int) -> None:
    if payload_copy_hook is not None:
        payload_copy_hook(site, nbytes)

WIRE_MAGIC = b"IDLP"
WIRE_VERSION = 1
WIRE_VERSION_SESSION = 2
WIRE_VERSION_MULTIROUND = 3
WIRE_VERSION_CONTROL = 4
WIRE_VERSION_SHARES = 5
KIND_SNAPSHOT = 1
KIND_CHUNK = 2
KIND_HELLO = 3
KIND_CHALLENGE = 4
KIND_PROOF = 5
KIND_RECORD = 6
KIND_ACK = 7
KIND_CONTROL_REQUEST = 8
KIND_CONTROL_REPLY = 9
KIND_BLINDED = 10
KIND_SHARE = 11

# Ack statuses (the u16 leading the Ack payload).
ACK_SESSION = 1  # handshake accepted; records may flow
ACK_MERGED = 2  # record merged into the round and durably ledgered
ACK_DUPLICATE = 3  # record already ledgered; acked but NOT re-merged
ACK_REFUSED = 4  # auth failure, quota breach, conflict, or bad frame

# Control-reply statuses (the u16 leading the ControlReply payload).
CONTROL_OK = 1
CONTROL_ERROR = 2

SESSION_NONCE_SIZE = 16
SESSION_MAC_SIZE = 32  # HMAC-SHA256
SESSION_TOKEN_SIZE = 16  # round registration token (version-3 challenges)
CONTROL_OP_MAX_BYTES = 64  # operation names are short, fixed vocabulary

_HEADER = struct.Struct("<4sHHQQqI")
_CRC = struct.Struct("<I")
HEADER_SIZE = _HEADER.size + _CRC.size  # 40 bytes
_KIND_NAMES = {
    KIND_SNAPSHOT: "snapshot",
    KIND_CHUNK: "chunk",
    KIND_HELLO: "session-hello",
    KIND_CHALLENGE: "session-challenge",
    KIND_PROOF: "session-proof",
    KIND_RECORD: "record",
    KIND_ACK: "ack",
    KIND_CONTROL_REQUEST: "control-request",
    KIND_CONTROL_REPLY: "control-reply",
    KIND_BLINDED: "blinded-counts",
    KIND_SHARE: "blinding-share",
}
# Kind <-> version gating: core data frames stay version 1 (their bytes
# are pinned by golden fixtures); session frames require version 2,
# except a round-token-carrying challenge, which requires version 3;
# coordinator control frames require version 4; split-trust share
# frames require version 5.
_KIND_VERSIONS = {
    KIND_SNAPSHOT: (WIRE_VERSION,),
    KIND_CHUNK: (WIRE_VERSION,),
    KIND_HELLO: (WIRE_VERSION_SESSION,),
    KIND_CHALLENGE: (WIRE_VERSION_SESSION, WIRE_VERSION_MULTIROUND),
    KIND_PROOF: (WIRE_VERSION_SESSION,),
    KIND_RECORD: (WIRE_VERSION_SESSION,),
    KIND_ACK: (WIRE_VERSION_SESSION,),
    KIND_CONTROL_REQUEST: (WIRE_VERSION_CONTROL,),
    KIND_CONTROL_REPLY: (WIRE_VERSION_CONTROL,),
    KIND_BLINDED: (WIRE_VERSION_SHARES,),
    KIND_SHARE: (WIRE_VERSION_SHARES,),
}
SUPPORTED_VERSIONS = (
    WIRE_VERSION,
    WIRE_VERSION_SESSION,
    WIRE_VERSION_MULTIROUND,
    WIRE_VERSION_CONTROL,
    WIRE_VERSION_SHARES,
)


@dataclass(frozen=True)
class PackedChunk:
    """One wire-format chunk of packed unary reports.

    ``rows`` is the ``k x ceil(m / 8)`` ``uint8`` matrix exactly as
    :meth:`~repro.pipeline.accumulator.CountAccumulator.add_packed_reports`
    consumes it; ``m`` and ``round_id`` carry the producer's claimed
    width and round so the consumer can refuse mismatched state *before*
    touching the payload.
    """

    m: int
    round_id: int
    rows: np.ndarray

    @property
    def n(self) -> int:
        """Number of user reports (rows) in this chunk."""
        return int(self.rows.shape[0])


def _check_share_words(words, m: int, name: str) -> np.ndarray:
    words = np.ascontiguousarray(words)
    if words.ndim != 1 or words.shape[0] != m:
        raise ValidationError(
            f"{name} words must have shape ({m},) for m={m}, "
            f"got {words.shape}"
        )
    if words.dtype != np.uint64:
        raise ValidationError(
            f"{name} words must be uint64, got {words.dtype}"
        )
    return words


@dataclass(frozen=True)
class BlindedCounts:
    """A chunk's per-bit counts, additively blinded mod 2^64 (kind 10).

    ``words`` is the length-``m`` ``uint64`` vector ``counts + sum_j
    R_j (mod 2^64)`` where each ``R_j`` is one share keeper's blinding
    stream for this chunk — uniformly random to any party missing even
    one keeper's words.  ``n`` is the number of user reports the counts
    cover (header field; chunk rows never travel in this frame).  The
    same frame shape carries a blinded collector's *accumulated* state,
    ``n`` then being the round's total rows.
    """

    m: int
    round_id: int
    n: int
    words: np.ndarray


@dataclass(frozen=True)
class BlindingShare:
    """One share keeper's blinding words for one chunk (kind 11).

    ``words`` is the keeper's length-``m`` ``uint64`` blinding vector
    ``R_j`` for the chunk (or, as a state-transfer frame, the keeper's
    accumulated word sums mod 2^64); ``n`` is the rows the share covers.
    A keeper's whole job is summing these mod 2^64 — it never sees a
    report, a count, or a blinded count.
    """

    m: int
    round_id: int
    n: int
    words: np.ndarray


@dataclass(frozen=True)
class SessionHello:
    """Session opener: a producer's claimed identity and round geometry.

    ``nonce`` is the producer's fresh random contribution to the
    handshake transcript; the service answers with its own
    (:class:`SessionChallenge`), and both go under the HMAC so neither
    side can replay a recorded handshake.
    """

    m: int
    round_id: int
    producer_id: str
    nonce: bytes


@dataclass(frozen=True)
class SessionChallenge:
    """Service reply to a hello: the server-side handshake nonce.

    ``round_token`` is the hosted round's registration token (see
    :class:`repro.pipeline.service.RoundRegistry`): 16 bytes in every
    challenge a service sends (a version-3 frame), which the producer
    folds into the proof MAC, scoping the session to this exact round
    incarnation.  Empty, the challenge encodes as the version-2 frame
    the committed wire fixtures pin.
    """

    m: int
    round_id: int
    nonce: bytes
    round_token: bytes = b""


@dataclass(frozen=True)
class SessionProof:
    """Producer's HMAC over the handshake transcript (see service.auth)."""

    m: int
    round_id: int
    mac: bytes


@dataclass(frozen=True)
class Record:
    """Exactly-once envelope: one core frame plus a producer sequence.

    ``frame`` is a complete serialized version-1 frame (chunk or
    snapshot); ``seq`` is the producer's durable, monotonically assigned
    sequence number.  The service's idempotency ledger keys on
    ``(producer_id, seq)`` with a digest of ``frame``, so a blind resend
    of an already-merged record is acknowledged but not re-merged, and
    the same ``seq`` with *different* bytes is refused as equivocation.
    """

    m: int
    round_id: int
    seq: int
    frame: bytes

    def decode(self):
        """Decode the enclosed core frame (chunk or snapshot).

        The full CRC check runs even though the envelope's own CRC
        already covered these bytes: the service spills record frames
        verbatim and re-reads them through the checksummed path at
        every recovery, so a record whose *inner* CRC is wrong must be
        refused at ingest — accepting it would poison restart replay.
        """
        return loads(self.frame)


@dataclass(frozen=True)
class Ack:
    """Per-frame service response: a status code plus a detail string."""

    m: int
    round_id: int
    seq: int
    status: int
    detail: str = ""


def encode_control_body(body: dict) -> bytes:
    """Canonical JSON encoding of a control body.

    Canonical (sorted keys, no whitespace) because the control MAC is
    computed over these exact bytes on both sides — two dict orderings
    must never yield two different MACs for the same body.
    """
    if not isinstance(body, dict):
        raise ValidationError(
            f"control body must be a dict, got {type(body).__name__}"
        )
    try:
        return json.dumps(
            body, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"control body is not JSON-serializable: {exc}"
        ) from exc


def decode_control_body(payload: bytes, name: str) -> dict:
    try:
        body = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireFormatError(f"{name} body is not valid JSON") from exc
    if not isinstance(body, dict):
        raise WireFormatError(
            f"{name} body must be a JSON object, got "
            f"{type(body).__name__}"
        )
    return body


@dataclass(frozen=True)
class ControlRequest:
    """One coordinator/operator control operation (version-4 frame).

    ``op`` names the operation (``route-table``, ``drain-round``,
    ``pull-round``, ...); ``body`` carries its JSON arguments;
    ``nonce`` is the requester's fresh 16 bytes, echoed (and MAC'd) in
    the reply so a recorded reply cannot answer a later request; and
    ``mac`` is ``HMAC-SHA256(control_key, label || op || nonce ||
    canonical-json(body))`` — see
    :func:`repro.pipeline.service.auth.control_request_mac`.  Control
    frames never carry producer data, so they have no round geometry;
    the target round, when there is one, lives in the body.
    """

    op: str
    nonce: bytes
    body: dict = field(default_factory=dict)
    mac: bytes = b"\x00" * SESSION_MAC_SIZE


@dataclass(frozen=True)
class ControlReply:
    """The service's answer to one control request (version-4 frame).

    ``status`` is :data:`CONTROL_OK` or :data:`CONTROL_ERROR`;
    ``body`` is the JSON result (for errors: a ``detail`` key);
    ``attachment`` is optional raw bytes riding below the JSON — a
    pulled snapshot frame travels here verbatim, never base64'd through
    the body; ``nonce`` echoes the request's nonce; ``mac`` binds
    status, nonce, body, and attachment under the control key.
    """

    status: int
    nonce: bytes
    body: dict = field(default_factory=dict)
    attachment: bytes = b""
    mac: bytes = b"\x00" * SESSION_MAC_SIZE


def _check_chunk_rows(rows, m: int) -> np.ndarray:
    rows = np.ascontiguousarray(rows)
    width = packed_width(m)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValidationError(
            f"packed chunk rows must have shape (k, {width}) for m={m}, "
            f"got {rows.shape}"
        )
    if rows.dtype != np.uint8:
        raise ValidationError(f"packed chunk rows must be uint8, got {rows.dtype}")
    return rows


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _frame(
    kind: int,
    m: int,
    n: int,
    round_id: int,
    payload: bytes,
    *,
    version: int | None = None,
) -> bytes:
    if version is None:
        version = _KIND_VERSIONS[kind][0]
    head = _HEADER.pack(WIRE_MAGIC, version, kind, m, n, round_id, len(payload))
    return b"".join(
        (
            head,
            _CRC.pack(zlib.crc32(head)),
            payload,
            _CRC.pack(zlib.crc32(payload)),
        )
    )


def _check_nonce(nonce: bytes, who: str) -> bytes:
    nonce = bytes(nonce)
    if len(nonce) != SESSION_NONCE_SIZE:
        raise ValidationError(
            f"{who} nonce must be {SESSION_NONCE_SIZE} bytes, got {len(nonce)}"
        )
    return nonce


def dump_snapshot(accumulator: CountAccumulator) -> bytes:
    """Serialize one accumulator's full state as a snapshot frame."""
    if not isinstance(accumulator, CountAccumulator):
        raise ValidationError(
            f"expected a CountAccumulator, got {type(accumulator).__name__}"
        )
    payload = np.ascontiguousarray(accumulator.counts(), dtype="<i8").tobytes()
    return _frame(
        KIND_SNAPSHOT, accumulator.m, accumulator.n, accumulator.round_id, payload
    )


def dump_chunk(rows, m: int, *, round_id: int = 0) -> bytes:
    """Serialize a ``k x ceil(m/8)`` packed report matrix as a chunk frame."""
    rows = _check_chunk_rows(rows, m)
    return _frame(KIND_CHUNK, m, rows.shape[0], int(round_id), rows.tobytes())


def _dump_share_frame(kind: int, obj, name: str) -> bytes:
    words = _check_share_words(obj.words, int(obj.m), name)
    n = int(obj.n)
    if n < 0:
        raise ValidationError(f"{name} n must be non-negative, got {n}")
    payload = np.ascontiguousarray(words, dtype="<u8").tobytes()
    return _frame(kind, int(obj.m), n, int(obj.round_id), payload)


def dump_blinded_counts(blinded: BlindedCounts) -> bytes:
    """Serialize blinded per-bit counts (version-5 frame)."""
    return _dump_share_frame(KIND_BLINDED, blinded, "blinded-counts")


def dump_blinding_share(share: BlindingShare) -> bytes:
    """Serialize one keeper's blinding words (version-5 frame)."""
    return _dump_share_frame(KIND_SHARE, share, "blinding-share")


def dump_hello(hello: SessionHello) -> bytes:
    """Serialize a session hello (version-2 frame)."""
    producer = hello.producer_id.encode("utf-8")
    if not producer:
        raise ValidationError("producer_id must be a non-empty string")
    if len(producer) > 0xFFFF:
        raise ValidationError(
            f"producer_id is {len(producer)} UTF-8 bytes; the wire caps it "
            "at 65535"
        )
    payload = (
        struct.pack("<H", len(producer))
        + producer
        + _check_nonce(hello.nonce, "hello")
    )
    return _frame(KIND_HELLO, hello.m, 0, hello.round_id, payload)


def dump_challenge(challenge: SessionChallenge) -> bytes:
    """Serialize a session challenge.

    With a round token (every challenge a service sends) the frame is
    version 3, the payload being ``nonce || round_token``.  Without one
    it is version 2, byte-identical to the committed wire fixtures.
    """
    payload = _check_nonce(challenge.nonce, "challenge")
    token = bytes(challenge.round_token)
    if not token:
        return _frame(KIND_CHALLENGE, challenge.m, 0, challenge.round_id, payload)
    if len(token) != SESSION_TOKEN_SIZE:
        raise ValidationError(
            f"challenge round token must be {SESSION_TOKEN_SIZE} bytes, "
            f"got {len(token)}"
        )
    return _frame(
        KIND_CHALLENGE,
        challenge.m,
        0,
        challenge.round_id,
        payload + token,
        version=WIRE_VERSION_MULTIROUND,
    )


def dump_proof(proof: SessionProof) -> bytes:
    """Serialize a session proof (version-2 frame)."""
    mac = bytes(proof.mac)
    if len(mac) != SESSION_MAC_SIZE:
        raise ValidationError(
            f"session proof MAC must be {SESSION_MAC_SIZE} bytes, got {len(mac)}"
        )
    return _frame(KIND_PROOF, proof.m, 0, proof.round_id, mac)


def dump_record(record: Record) -> bytes:
    """Serialize an exactly-once record envelope (version-2 frame)."""
    frame = bytes(record.frame)
    if len(frame) < HEADER_SIZE:
        raise ValidationError(
            f"record must wrap a complete core frame (>= {HEADER_SIZE} "
            f"bytes), got {len(frame)}"
        )
    seq = int(record.seq)
    if seq < 0:
        raise ValidationError(f"record seq must be non-negative, got {seq}")
    return _frame(KIND_RECORD, record.m, seq, record.round_id, frame)


def dump_ack(ack: Ack) -> bytes:
    """Serialize a service acknowledgement (version-2 frame)."""
    if ack.status not in (ACK_SESSION, ACK_MERGED, ACK_DUPLICATE, ACK_REFUSED):
        raise ValidationError(f"unknown ack status {ack.status}")
    payload = struct.pack("<H", ack.status) + ack.detail.encode("utf-8")
    return _frame(KIND_ACK, ack.m, int(ack.seq), ack.round_id, payload)


def _check_mac(mac: bytes, who: str) -> bytes:
    mac = bytes(mac)
    if len(mac) != SESSION_MAC_SIZE:
        raise ValidationError(
            f"{who} MAC must be {SESSION_MAC_SIZE} bytes, got {len(mac)}"
        )
    return mac


def dump_control_request(request: ControlRequest) -> bytes:
    """Serialize a coordinator control request (version-4 frame)."""
    op = request.op.encode("utf-8")
    if not op:
        raise ValidationError("control op must be a non-empty string")
    if len(op) > CONTROL_OP_MAX_BYTES:
        raise ValidationError(
            f"control op is {len(op)} UTF-8 bytes; the wire caps it at "
            f"{CONTROL_OP_MAX_BYTES}"
        )
    body = encode_control_body(request.body)
    payload = b"".join(
        (
            struct.pack("<H", len(op)),
            op,
            _check_nonce(request.nonce, "control request"),
            struct.pack("<I", len(body)),
            body,
            _check_mac(request.mac, "control request"),
        )
    )
    return _frame(KIND_CONTROL_REQUEST, 1, 0, 0, payload)


def dump_control_reply(reply: ControlReply) -> bytes:
    """Serialize a control reply (version-4 frame)."""
    if reply.status not in (CONTROL_OK, CONTROL_ERROR):
        raise ValidationError(f"unknown control status {reply.status}")
    body = encode_control_body(reply.body)
    attachment = bytes(reply.attachment)
    payload = b"".join(
        (
            struct.pack("<H", reply.status),
            _check_nonce(reply.nonce, "control reply"),
            struct.pack("<I", len(body)),
            body,
            struct.pack("<I", len(attachment)),
            attachment,
            _check_mac(reply.mac, "control reply"),
        )
    )
    return _frame(KIND_CONTROL_REPLY, 1, 0, 0, payload)


_SESSION_DUMPERS = {
    BlindedCounts: dump_blinded_counts,
    BlindingShare: dump_blinding_share,
    SessionHello: dump_hello,
    SessionChallenge: dump_challenge,
    SessionProof: dump_proof,
    Record: dump_record,
    Ack: dump_ack,
    ControlRequest: dump_control_request,
    ControlReply: dump_control_reply,
}


def dumps(obj) -> bytes:
    """Serialize any wire object (core data frame or session frame)."""
    if isinstance(obj, CountAccumulator):
        return dump_snapshot(obj)
    if isinstance(obj, PackedChunk):
        return dump_chunk(obj.rows, obj.m, round_id=obj.round_id)
    dumper = _SESSION_DUMPERS.get(type(obj))
    if dumper is not None:
        return dumper(obj)
    raise ValidationError(
        f"cannot serialize {type(obj).__name__}; expected CountAccumulator, "
        "PackedChunk, a share frame, or a session frame object"
    )


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def _parse_header(head) -> tuple[int, int, int, int, int, int]:
    """Validate a 40-byte header (any buffer: ``bytes`` or ``memoryview``).

    Returns ``(version, kind, m, n, round_id, length)``.
    """
    if len(head) < HEADER_SIZE:
        raise WireFormatError(
            f"truncated frame: header needs {HEADER_SIZE} bytes, got {len(head)}"
        )
    magic, version = bytes(head[:4]), int.from_bytes(head[4:6], "little")
    if magic != WIRE_MAGIC:
        raise WireFormatError(
            f"bad magic {magic!r}: not a wire-format frame "
            f"(expected {WIRE_MAGIC!r})"
        )
    if version not in SUPPORTED_VERSIONS:
        raise WireFormatError(
            f"unsupported wire-format version {version}; this reader "
            f"supports version {WIRE_VERSION} (core frames), "
            f"{WIRE_VERSION_SESSION} (session frames), "
            f"{WIRE_VERSION_MULTIROUND} (round-scoped session frames), "
            f"{WIRE_VERSION_CONTROL} (control frames), and "
            f"{WIRE_VERSION_SHARES} (split-trust share frames)"
        )
    (stored_crc,) = _CRC.unpack_from(head, _HEADER.size)
    if stored_crc != zlib.crc32(head[: _HEADER.size]):
        raise WireFormatError("header checksum mismatch: frame header is corrupted")
    _, _, kind, m, n, round_id, length = _HEADER.unpack_from(head)
    if kind not in _KIND_NAMES:
        raise WireFormatError(f"unknown frame kind {kind}")
    if version not in _KIND_VERSIONS[kind]:
        allowed = " or ".join(str(v) for v in _KIND_VERSIONS[kind])
        raise WireFormatError(
            f"{_KIND_NAMES[kind]} frames require wire-format version "
            f"{allowed}, got version {version}"
        )
    return version, kind, m, n, round_id, length


def _decode_session(
    kind: int, m: int, n: int, round_id: int, payload: bytes, version: int
):
    name = _KIND_NAMES[kind]
    if kind == KIND_HELLO:
        if len(payload) < 2:
            raise WireFormatError(f"{name} payload is too short to parse")
        (producer_len,) = struct.unpack_from("<H", payload)
        expected = 2 + producer_len + SESSION_NONCE_SIZE
        if len(payload) != expected:
            raise WireFormatError(
                f"{name} payload must be {expected} bytes for a "
                f"{producer_len}-byte producer id, got {len(payload)}"
            )
        try:
            producer_id = payload[2 : 2 + producer_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError(f"{name} producer id is not UTF-8") from exc
        if not producer_id:
            raise WireFormatError(f"{name} declares an empty producer id")
        return SessionHello(
            m=m,
            round_id=round_id,
            producer_id=producer_id,
            nonce=payload[2 + producer_len :],
        )
    if kind == KIND_CHALLENGE:
        expected = SESSION_NONCE_SIZE
        if version == WIRE_VERSION_MULTIROUND:
            expected += SESSION_TOKEN_SIZE
        if len(payload) != expected:
            raise WireFormatError(
                f"{name} payload must be {expected} bytes at wire-format "
                f"version {version}, got {len(payload)}"
            )
        return SessionChallenge(
            m=m,
            round_id=round_id,
            nonce=payload[:SESSION_NONCE_SIZE],
            round_token=payload[SESSION_NONCE_SIZE:],
        )
    if kind == KIND_PROOF:
        if len(payload) != SESSION_MAC_SIZE:
            raise WireFormatError(
                f"{name} payload must be {SESSION_MAC_SIZE} bytes, "
                f"got {len(payload)}"
            )
        return SessionProof(m=m, round_id=round_id, mac=payload)
    if kind == KIND_RECORD:
        if len(payload) < HEADER_SIZE:
            raise WireFormatError(
                f"{name} payload must hold a complete core frame "
                f"(>= {HEADER_SIZE} bytes), got {len(payload)}"
            )
        return Record(m=m, round_id=round_id, seq=n, frame=payload)
    if kind == KIND_CONTROL_REQUEST:
        return _decode_control_request(payload, name)
    if kind == KIND_CONTROL_REPLY:
        return _decode_control_reply(payload, name)
    # KIND_ACK
    if len(payload) < 2:
        raise WireFormatError(f"{name} payload is too short to parse")
    (status,) = struct.unpack_from("<H", payload)
    if status not in (ACK_SESSION, ACK_MERGED, ACK_DUPLICATE, ACK_REFUSED):
        raise WireFormatError(f"{name} carries unknown status {status}")
    try:
        detail = payload[2:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireFormatError(f"{name} detail is not UTF-8") from exc
    return Ack(m=m, round_id=round_id, seq=n, status=status, detail=detail)


def _decode_control_request(payload: bytes, name: str) -> ControlRequest:
    if len(payload) < 2:
        raise WireFormatError(f"{name} payload is too short to parse")
    (op_len,) = struct.unpack_from("<H", payload)
    if op_len == 0 or op_len > CONTROL_OP_MAX_BYTES:
        raise WireFormatError(
            f"{name} declares a {op_len}-byte op; ops are 1-"
            f"{CONTROL_OP_MAX_BYTES} bytes"
        )
    offset = 2 + op_len
    if len(payload) < offset + SESSION_NONCE_SIZE + 4:
        raise WireFormatError(f"{name} payload is too short to parse")
    try:
        op = payload[2:offset].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireFormatError(f"{name} op is not UTF-8") from exc
    nonce = payload[offset : offset + SESSION_NONCE_SIZE]
    offset += SESSION_NONCE_SIZE
    (body_len,) = struct.unpack_from("<I", payload, offset)
    offset += 4
    expected = offset + body_len + SESSION_MAC_SIZE
    if len(payload) != expected:
        raise WireFormatError(
            f"{name} payload must be {expected} bytes for a "
            f"{body_len}-byte body, got {len(payload)}"
        )
    body = decode_control_body(payload[offset : offset + body_len], name)
    return ControlRequest(
        op=op, nonce=nonce, body=body, mac=payload[offset + body_len :]
    )


def _decode_control_reply(payload: bytes, name: str) -> ControlReply:
    prefix = 2 + SESSION_NONCE_SIZE + 4
    if len(payload) < prefix:
        raise WireFormatError(f"{name} payload is too short to parse")
    (status,) = struct.unpack_from("<H", payload)
    if status not in (CONTROL_OK, CONTROL_ERROR):
        raise WireFormatError(f"{name} carries unknown status {status}")
    nonce = payload[2 : 2 + SESSION_NONCE_SIZE]
    (body_len,) = struct.unpack_from("<I", payload, 2 + SESSION_NONCE_SIZE)
    offset = prefix
    if len(payload) < offset + body_len + 4:
        raise WireFormatError(f"{name} payload is too short to parse")
    body = decode_control_body(payload[offset : offset + body_len], name)
    offset += body_len
    (att_len,) = struct.unpack_from("<I", payload, offset)
    offset += 4
    expected = offset + att_len + SESSION_MAC_SIZE
    if len(payload) != expected:
        raise WireFormatError(
            f"{name} payload must be {expected} bytes for a "
            f"{att_len}-byte attachment, got {len(payload)}"
        )
    return ControlReply(
        status=status,
        nonce=nonce,
        body=body,
        attachment=payload[offset : offset + att_len],
        mac=payload[offset + att_len :],
    )


def _decode(
    kind: int,
    m: int,
    n: int,
    round_id: int,
    payload,
    version: int = WIRE_VERSION,
):
    name = _KIND_NAMES[kind]
    if m <= 0:
        raise WireFormatError(f"{name} frame declares non-positive width m={m}")
    if kind in (KIND_BLINDED, KIND_SHARE):
        if len(payload) != 8 * m:
            raise WireFormatError(
                f"{name} payload must be {8 * m} bytes for m={m}, "
                f"got {len(payload)}"
            )
        # Zero-copy, like the chunk path: the words are a numpy view
        # over the caller's buffer (read-only when the buffer is).
        words = np.frombuffer(payload, dtype="<u8")
        cls = BlindedCounts if kind == KIND_BLINDED else BlindingShare
        return cls(m=m, round_id=round_id, n=n, words=words)
    if kind not in (KIND_SNAPSHOT, KIND_CHUNK):
        # Session payloads materialize as bytes at this boundary: they
        # carry UTF-8 strings / fixed-size nonces (or, for records, a
        # frame the ledger digests), are tiny next to chunk traffic, and
        # their dataclasses promise `bytes` fields.
        if not isinstance(payload, bytes):
            _note_copy("session-payload", len(payload))
            payload = bytes(payload)
        return _decode_session(kind, m, n, round_id, payload, version)
    if kind == KIND_SNAPSHOT:
        if len(payload) != 8 * m:
            raise WireFormatError(
                f"snapshot payload must be {8 * m} bytes for m={m}, "
                f"got {len(payload)}"
            )
        # One copy, inside from_state's astype: the accumulator must own
        # writable counts.  frombuffer itself is a view over the payload.
        _note_copy("snapshot-counts", len(payload))
        counts = np.frombuffer(payload, dtype="<i8")
        try:
            return CountAccumulator.from_state(m, counts, n, round_id=round_id)
        except ValidationError as exc:
            raise WireFormatError(f"snapshot state is invalid: {exc}") from exc
    width = packed_width(m)
    if len(payload) != n * width:
        raise WireFormatError(
            f"chunk payload must be {n * width} bytes for n={n} rows of "
            f"width {width}, got {len(payload)}"
        )
    # Zero-copy: the rows are a numpy view over the caller's buffer
    # (read-only when the buffer is).  add_packed_reports consumes such
    # views directly; the caller keeps the buffer alive.
    rows = np.frombuffer(payload, dtype=np.uint8).reshape(n, width)
    return PackedChunk(m=m, round_id=round_id, rows=rows)


def loads(data):
    """Decode exactly one frame from *data* (no trailing bytes allowed).

    *data* may be any byte buffer — ``bytes``, ``bytearray``,
    ``memoryview``, an ``mmap`` — and is never copied wholesale: a
    decoded chunk's rows are a numpy view over it (see the module
    docstring for the buffer-lifetime contract).
    """
    data = memoryview(data)
    version, kind, m, n, round_id, length = _parse_header(data[:HEADER_SIZE])
    expected = HEADER_SIZE + length + _CRC.size
    if len(data) < expected:
        raise WireFormatError(
            f"truncated frame: expected {expected} bytes, got {len(data)}"
        )
    if len(data) > expected:
        raise WireFormatError(
            f"{len(data) - expected} trailing bytes after a {expected}-byte "
            "frame; walk concatenated frames with decode_frame_at"
        )
    payload = data[HEADER_SIZE : HEADER_SIZE + length]
    (stored_crc,) = _CRC.unpack_from(data, HEADER_SIZE + length)
    if stored_crc != zlib.crc32(payload):
        raise WireFormatError(
            "payload checksum mismatch: frame payload is corrupted"
        )
    return _decode(kind, m, n, round_id, payload, version)


def decode_frame_at(buffer, offset: int = 0):
    """Decode one frame at *offset* in an in-memory buffer.

    The random-access sibling of :func:`loads`: walk a buffer that
    holds concatenated frames (an mmap'd spill file, a reassembled
    socket buffer) without slicing per-frame ``bytes`` out of it.
    Returns ``(obj, next_offset)`` where *next_offset* is the first byte
    after this frame — feed it back in to walk the stream.  Raises
    :class:`WireFormatError` on every corruption :func:`loads` rejects,
    including truncation at the buffer's end.
    """
    view = memoryview(buffer)
    offset = int(offset)
    if offset < 0 or offset > len(view):
        raise ValidationError(
            f"offset must lie in [0, {len(view)}], got {offset}"
        )
    version, kind, m, n, round_id, length = _parse_header(
        view[offset : offset + HEADER_SIZE]
    )
    body = offset + HEADER_SIZE
    end = body + length + _CRC.size
    if len(view) < end:
        raise WireFormatError(
            f"truncated frame: payload needs {length + _CRC.size} bytes, "
            f"got {len(view) - body}"
        )
    payload = view[body : body + length]
    (stored_crc,) = _CRC.unpack_from(view, body + length)
    if stored_crc != zlib.crc32(payload):
        raise WireFormatError(
            "payload checksum mismatch: frame payload is corrupted"
        )
    return _decode(kind, m, n, round_id, payload, version), end

