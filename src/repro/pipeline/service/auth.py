"""HMAC session authentication for the collection service.

The handshake is a three-frame challenge-response over the session
frames of :mod:`repro.pipeline.collect.wire`:

1. producer → service: :class:`~repro.pipeline.collect.wire.SessionHello`
   with the claimed ``(m, round_id)``, a producer identity, and a fresh
   16-byte client nonce;
2. service → producer: :class:`~repro.pipeline.collect.wire.
   SessionChallenge` with a fresh 16-byte server nonce and the hosted
   round's 16-byte registration token (a version-3 frame);
3. producer → service: :class:`~repro.pipeline.collect.wire.SessionProof`
   carrying ``HMAC-SHA256(key, transcript)`` where the transcript binds
   the protocol label, round geometry, producer identity, and both
   nonces.

Because both nonces are inside the MAC, a recorded handshake cannot be
replayed against a fresh challenge, and a proof minted for one round or
producer identity cannot be spent on another.  The service also folds
the hosted round's *registration token* (carried in the version-3
challenge) into the transcript, so a proof is scoped to one exact
incarnation of a round — not merely a ``round_id`` number that a later
registration might reuse.  A tokenless transcript (the version-2
challenge of the committed wire fixtures) still verifies; no service
sends one.

Keys come from a :class:`KeyRegistry`: per-producer secrets looked up
by ``producer_id`` during the handshake (one compromised producer can
therefore never forge records for another), with an optional default
key for producers without an individual entry.  Registries load from a
keyfile (``producer = secret`` lines) and hot-reload when the file
changes on disk, so keys rotate without a service restart.

Record frames after the handshake are not individually MAC'd: the
threat model is an untrusted *network* and unauthorized producers, not
a man-in-the-middle tampering inside an established TCP stream (run TLS
underneath for that).  What exactness requires — resend-safety — comes
from the idempotency ledger, not the MAC.

The split-trust tier adds two things here.  A *party label*
(:func:`keeper_party_label`) folds the serving party's role into the
session transcript: a share keeper's sessions MAC a label naming that
keeper, so a proof minted for the blinded collector can never be spent
at a keeper, nor a proof for keeper A at keeper B — even if an operator
misconfigures two parties with the same producer key.  And
:func:`derive_share_secret` derives the per-(producer, keeper) blinding
secret from the producer's *keeper-side* key over stable round
coordinates only (no session nonces), so a blind resend regenerates
byte-identical share frames — which is what lets the idempotency ledger
dedup them — and a restarted keeper changes nothing.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct

from ...exceptions import ValidationError

__all__ = [
    "MIN_KEY_BYTES",
    "KeyRegistry",
    "control_reply_mac",
    "control_request_mac",
    "derive_producer_key",
    "derive_round_key",
    "derive_share_secret",
    "fresh_nonce",
    "keeper_party_label",
    "session_mac",
    "verify_control_reply_mac",
    "verify_control_request_mac",
    "verify_session_mac",
]

_PROTOCOL_LABEL = b"IDLP-session-v2"
_CONTROL_LABEL = b"IDLP-control-v4"
_SHARE_LABEL = b"IDLP-share-v5"
_KEEPER_PARTY_LABEL = b"IDLP-share-keeper"
MIN_KEY_BYTES = 8


def derive_round_key(secret) -> bytes:
    """Normalize an operator-supplied secret into a round key.

    Accepts raw ``bytes`` or a string (hex is decoded, anything else is
    taken as a UTF-8 passphrase).  The result must be at least
    ``MIN_KEY_BYTES`` bytes — a round key guards every report of a
    round, and a trivially guessable one is a configuration error worth
    failing loudly on.
    """
    if isinstance(secret, str):
        try:
            key = bytes.fromhex(secret)
        except ValueError:
            key = secret.encode("utf-8")
    else:
        key = bytes(secret)
    if len(key) < MIN_KEY_BYTES:
        raise ValidationError(
            f"round key must be at least {MIN_KEY_BYTES} bytes, got {len(key)}"
        )
    return key


def derive_producer_key(master, producer_id: str) -> bytes:
    """Derive one producer's key from a deployment master secret.

    ``HMAC-SHA256(master, "IDLP-producer-key" || producer_id)`` — the
    operational convenience for fleets too large to mint independent
    keys: the coordinator keeps the master, hands each node only its
    derived key, and a node's key reveals nothing about any other
    node's.  The result is a valid :class:`KeyRegistry` /
    :func:`derive_round_key` secret (32 raw bytes).
    """
    master = derive_round_key(master)
    if not producer_id:
        raise ValidationError("producer_id must be a non-empty string")
    return hmac.new(
        master,
        b"IDLP-producer-key" + producer_id.encode("utf-8"),
        hashlib.sha256,
    ).digest()


def derive_share_secret(
    key, *, m: int, round_id: int, producer_id: str, keeper_id: str
) -> bytes:
    """One (producer, keeper) pair's blinding secret for one round.

    ``HMAC-SHA256(K_pj, label || m || round_id || len(producer) ||
    producer || len(keeper) || keeper)`` where ``K_pj`` is the
    producer's key *at keeper j's own registry* — a key universe the
    collector never holds, which is the whole split-trust point: a
    party that knows only the collector-side keys can expand none of
    the blinding streams.  The transcript uses stable round coordinates
    only (never session nonces or registration tokens), so a blind
    resend after a lost ack — or after the keeper restarts — derives
    byte-identical blinding words and dedups in the keeper's ledger
    instead of corrupting the share sum.
    """
    key = derive_round_key(key)
    producer = producer_id.encode("utf-8")
    keeper = keeper_id.encode("utf-8")
    if not producer:
        raise ValidationError("producer_id must be a non-empty string")
    if not keeper:
        raise ValidationError("keeper_id must be a non-empty string")
    transcript = b"".join(
        (
            _SHARE_LABEL,
            struct.pack("<QqH", int(m), int(round_id), len(producer)),
            producer,
            struct.pack("<H", len(keeper)),
            keeper,
        )
    )
    return hmac.new(key, transcript, hashlib.sha256).digest()


def keeper_party_label(keeper_id: str) -> bytes:
    """The session-transcript party label of one share keeper.

    Folded into :func:`session_mac` by keeper-mode rounds (and by the
    producers talking to them), scoping a proof to that exact keeper:
    collector sessions use the empty label (transcripts byte-identical
    to every prior wire version), and no two keepers share a label.
    """
    keeper = str(keeper_id).encode("utf-8")
    if not keeper:
        raise ValidationError("keeper_id must be a non-empty string")
    if len(keeper) > 0xFFFF:
        raise ValidationError(
            f"keeper_id is {len(keeper)} UTF-8 bytes; the label caps it "
            "at 65535"
        )
    return _KEEPER_PARTY_LABEL + struct.pack("<H", len(keeper)) + keeper


def fresh_nonce() -> bytes:
    """A fresh 16-byte handshake nonce from the OS CSPRNG."""
    return os.urandom(16)


class KeyRegistry:
    """Per-producer key store with keyfile loading and hot rotation.

    Lookup order: the producer's own entry, else the registry default
    (``None`` when neither exists — the service refuses the session).
    Holding only a *default* key gives every producer one shared key.

    A registry constructed with :meth:`from_file` (or ``path=``)
    re-stats the keyfile on every lookup and reloads it when the mtime
    or size changed — `kill -HUP`-style rotation without the signal:
    edit the file, and the next handshake sees the new keys.  Sessions
    already authenticated are untouched (the key only guards the
    handshake), which is exactly the rotation semantics PrivCount-style
    deployments want: revoke a node — or the ``*`` fallback — by
    deleting its line, no restart, no disruption to the other
    producers.  (A ``default_key`` passed at construction is a separate
    layer: the file's ``*`` entry shadows it while present, and
    deleting the ``*`` line falls back to it, not to nothing.)

    Keyfile format — one entry per line::

        # comment (blank lines ignored)
        tally-node-1 = 00112233445566778899aabbccddeeff
        tally-node-2 = a longer passphrase works too
        *            = fallback-key-for-unlisted-producers

        [revoked]
        tally-node-9
        compromised-node

    Producer ids may not contain ``=``; secrets go through
    :func:`derive_round_key` (hex or UTF-8 passphrase, >= 8 bytes).
    ``*`` names the default key.

    The optional ``[revoked]`` section lists bare producer ids that are
    **banned outright**: :meth:`lookup` returns ``None`` for them even
    when they have a key line or a default key would apply, so a new
    handshake fails exactly like a wrong key (same refusal, no
    enumeration oracle), and the service reaps their open sessions.
    Revocation beats every key layer — a revoked id with a still-listed
    key stays revoked until its ``[revoked]`` line is deleted.  A
    ``[keys]`` header may optionally open the key section; lines before
    any header are key lines, preserving the PR 4/5 keyfile format
    byte for byte.
    """

    def __init__(
        self,
        keys: dict | None = None,
        *,
        default_key=None,
        path: str | None = None,
    ) -> None:
        self._keys: dict[str, bytes] = {
            str(producer): derive_round_key(secret)
            for producer, secret in (keys or {}).items()
        }
        self._base_default = (
            derive_round_key(default_key) if default_key is not None else None
        )
        self._file_default: bytes | None = None
        self._revoked: set[str] = set()
        self._path = path
        self._stamp: tuple[int, int, int, bytes] | None = None
        if path is not None:
            self.reload()

    @classmethod
    def from_file(cls, path: str, *, default_key=None) -> "KeyRegistry":
        """A registry bound to *path*, hot-reloading on file change."""
        return cls(default_key=default_key, path=path)

    # ------------------------------------------------------------------
    # Keyfile loading / rotation
    # ------------------------------------------------------------------
    @staticmethod
    def _parse(
        text: str, path: str
    ) -> tuple[dict[str, bytes], bytes | None, set[str]]:
        keys: dict[str, bytes] = {}
        default: bytes | None = None
        revoked: set[str] = set()
        section = "keys"
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in ("keys", "revoked"):
                    raise ValidationError(
                        f"{path}:{lineno}: unknown keyfile section "
                        f"[{section}]; sections are [keys] and [revoked]"
                    )
                continue
            if section == "revoked":
                if "=" in line:
                    raise ValidationError(
                        f"{path}:{lineno}: [revoked] entries are bare "
                        f"producer ids, got {raw!r}"
                    )
                if line in revoked:
                    raise ValidationError(
                        f"{path}:{lineno}: duplicate [revoked] entry for "
                        f"producer {line!r}"
                    )
                revoked.add(line)
                continue
            producer, sep, secret = line.partition("=")
            producer, secret = producer.strip(), secret.strip()
            if not sep or not producer or not secret:
                raise ValidationError(
                    f"{path}:{lineno}: keyfile lines are "
                    f"'producer = secret', got {raw!r}"
                )
            key = derive_round_key(secret)
            if producer == "*":
                if default is not None:
                    raise ValidationError(
                        f"{path}:{lineno}: duplicate default ('*') entry"
                    )
                default = key
            elif producer in keys:
                raise ValidationError(
                    f"{path}:{lineno}: duplicate entry for producer "
                    f"{producer!r}"
                )
            else:
                keys[producer] = key
        return keys, default, revoked

    def reload(self) -> None:
        """Re-read the keyfile now (lookups do this automatically)."""
        if self._path is None:
            return
        stat = os.stat(self._path)
        with open(self._path, "rb") as handle:
            blob = handle.read()
        text = blob.decode("utf-8")
        keys, default, revoked = self._parse(text, self._path)
        self._keys = keys
        # The file's '*' entry is authoritative for the file layer:
        # deleting the line REVOKES the file default (falling back to
        # any construction-time default, not to the stale key).
        self._file_default = default
        # The revocation list is likewise authoritative per reload:
        # deleting a [revoked] line un-revokes (new handshakes only —
        # reaped sessions stay dead and must re-handshake).
        self._revoked = revoked
        self._stamp = (
            stat.st_mtime_ns,
            stat.st_size,
            stat.st_ino,
            hashlib.sha256(blob).digest(),
        )

    def _maybe_reload(self) -> None:
        """Reload on file change, but never let a broken file take the
        service down: a missing, unreadable, or malformed keyfile (a
        non-atomic editor save mid-rotation, a typo'd line) keeps the
        last good key set serving and retries on the next lookup —
        rotation must not be able to lock every producer out.  Only the
        *explicit* :meth:`reload` (service construction) fails loudly.
        """
        if self._path is None:
            return
        try:
            stat = os.stat(self._path)
        except OSError:
            return  # keep serving the last good key set
        if self._stamp is not None and (
            stat.st_mtime_ns,
            stat.st_size,
            stat.st_ino,
        ) == self._stamp[:3]:
            # The cheap stat triple can miss a rotation entirely: a
            # same-size in-place rewrite on a coarse-mtime filesystem,
            # or an ``os.replace`` whose new file inherits the old
            # timestamps.  A revoked key staying live is the one
            # failure this layer must not have, so confirm against the
            # content digest before trusting the stat.
            try:
                with open(self._path, "rb") as handle:
                    digest = hashlib.sha256(handle.read()).digest()
            except OSError:
                return  # keep serving the last good key set
            if digest == self._stamp[3]:
                return
        try:
            self.reload()
        except (ValidationError, OSError):
            return  # malformed mid-edit; retry at the next lookup

    # ------------------------------------------------------------------
    # Lookup / mutation
    # ------------------------------------------------------------------
    def lookup(self, producer_id: str) -> bytes | None:
        """The producer's key, the default key, or ``None`` (refuse).

        Revoked producers get ``None`` unconditionally — before the key
        layers — so a revoked handshake is indistinguishable from an
        unknown producer's.
        """
        self._maybe_reload()
        if producer_id in self._revoked:
            return None
        default = (
            self._file_default
            if self._file_default is not None
            else self._base_default
        )
        return self._keys.get(producer_id, default)

    def is_revoked(self, producer_id: str) -> bool:
        """Is *producer_id* on the (hot-reloaded) revocation list?"""
        self._maybe_reload()
        return producer_id in self._revoked

    def revoke(self, producer_id: str) -> None:
        """Revoke *producer_id* in place (until the next file reload,
        which replaces the in-memory list with the file's section)."""
        self._revoked.add(str(producer_id))

    def set_key(self, producer_id: str, secret) -> None:
        """Insert or rotate one producer's key in place."""
        self._keys[str(producer_id)] = derive_round_key(secret)

    def remove(self, producer_id: str) -> None:
        """Revoke one producer (its sessions fall back to the default)."""
        self._keys.pop(str(producer_id), None)

    def producers(self) -> list[str]:
        """Sorted producer ids with an individual key entry."""
        self._maybe_reload()
        return sorted(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


def session_mac(
    key: bytes,
    *,
    m: int,
    round_id: int,
    producer_id: str,
    client_nonce: bytes,
    server_nonce: bytes,
    round_token: bytes = b"",
    party: bytes = b"",
) -> bytes:
    """HMAC-SHA256 over the handshake transcript (32 bytes).

    The producer id is length-prefixed inside the transcript so no two
    distinct ``(producer_id, nonce)`` pairs can collide into the same
    MAC input.  *round_token* is the round's registration token from
    the version-3 challenge every service sends; it is appended after
    the fixed-size nonces (no ambiguity — empty or exactly 16 bytes),
    and an empty token gives the tokenless transcript the version-2
    golden fixtures pin.  *party* is the serving party's role label
    (:func:`keeper_party_label` for a share keeper); empty — every
    non-keeper session — leaves the transcript byte-identical to the
    pre-split-trust protocol.
    """
    producer = producer_id.encode("utf-8")
    transcript = b"".join(
        (
            _PROTOCOL_LABEL,
            struct.pack("<QqH", m, round_id, len(producer)),
            producer,
            bytes(client_nonce),
            bytes(server_nonce),
            bytes(round_token),
            bytes(party),
        )
    )
    return hmac.new(key, transcript, hashlib.sha256).digest()


def verify_session_mac(
    key: bytes,
    mac: bytes,
    *,
    m: int,
    round_id: int,
    producer_id: str,
    client_nonce: bytes,
    server_nonce: bytes,
    round_token: bytes = b"",
    party: bytes = b"",
) -> bool:
    """Constant-time check of a producer's session proof."""
    expected = session_mac(
        key,
        m=m,
        round_id=round_id,
        producer_id=producer_id,
        client_nonce=client_nonce,
        server_nonce=server_nonce,
        round_token=round_token,
        party=party,
    )
    return hmac.compare_digest(expected, bytes(mac))


def _control_transcript(
    role: bytes, head: bytes, nonce: bytes, body: dict, attachment: bytes = b""
) -> bytes:
    from ..collect.wire import encode_control_body

    body_bytes = encode_control_body(body)
    return b"".join(
        (
            _CONTROL_LABEL,
            role,
            head,
            bytes(nonce),
            struct.pack("<I", len(body_bytes)),
            body_bytes,
            bytes(attachment),
        )
    )


def control_request_mac(
    key: bytes, *, op: str, nonce: bytes, body: dict
) -> bytes:
    """HMAC-SHA256 over a control request (32 bytes).

    Binds the op (length-prefixed), the requester's fresh nonce, and
    the canonical-JSON body, under a label distinct from the session
    handshake's — a session proof can never double as a control MAC or
    vice versa.  The body is canonicalized (sorted keys, compact
    separators) by the same encoder the wire uses, so the MAC'd bytes
    are exactly the transmitted bytes.
    """
    op_bytes = op.encode("utf-8")
    head = struct.pack("<H", len(op_bytes)) + op_bytes
    return hmac.new(
        key, _control_transcript(b"\x01", head, nonce, body), hashlib.sha256
    ).digest()


def verify_control_request_mac(
    key: bytes, mac: bytes, *, op: str, nonce: bytes, body: dict
) -> bool:
    """Constant-time check of a control request's MAC."""
    expected = control_request_mac(key, op=op, nonce=nonce, body=body)
    return hmac.compare_digest(expected, bytes(mac))


def control_reply_mac(
    key: bytes,
    *,
    status: int,
    nonce: bytes,
    body: dict,
    attachment: bytes = b"",
) -> bytes:
    """HMAC-SHA256 over a control reply (32 bytes).

    Echoes the *request's* nonce inside the MAC, so a recorded reply
    cannot be replayed against a different request; binds the status,
    body, and the raw binary attachment (shard state frames), so none
    of them can be swapped in transit.
    """
    head = struct.pack("<H", int(status))
    return hmac.new(
        key,
        _control_transcript(b"\x02", head, nonce, body, attachment),
        hashlib.sha256,
    ).digest()


def verify_control_reply_mac(
    key: bytes,
    mac: bytes,
    *,
    status: int,
    nonce: bytes,
    body: dict,
    attachment: bytes = b"",
) -> bool:
    """Constant-time check of a control reply's MAC."""
    expected = control_reply_mac(
        key, status=status, nonce=nonce, body=body, attachment=attachment
    )
    return hmac.compare_digest(expected, bytes(mac))
