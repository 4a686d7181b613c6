"""Producer side of the exactly-once collection protocol.

:class:`ServiceSession` runs the HMAC handshake and then ships records
one at a time, each blocking on its per-record ack; :func:`send_records`
is the one-shot convenience.  The client-visible contract:

* ``ACK_MERGED`` — the record is durably committed (spill + ledger
  fsync'd) and in the round;
* ``ACK_DUPLICATE`` — the record was *already* committed (this send was
  a resend after a lost ack); the producer advances exactly as for
  merged — that status is the exactly-once guarantee working;
* ``ACK_REFUSED`` — the record (or session) was rejected; the detail
  string says why, and the service closes the connection.

A producer that crashes or loses its connection mid-round simply
reconnects and **blindly resends every record it cannot prove was
acked** — duplicates are free, gaps are losses, so resending is always
the safe move.  Sequence numbers must be durable at the producer (a
file, a cursor into its own spill) and never reused for different
bytes; the service refuses such equivocation.

Against a scale-out deployment the producer is *routing-aware*:
:func:`send_records_routed` resolves its shard from the fleet's
:class:`~.routing.RoutingTable` and follows ``MOVED`` redirects
(surfaced as :class:`~repro.exceptions.MovedError` by
:meth:`ServiceSession.connect`) when its table is stale — mid-rebalance
a producer loses one round trip, never a record.  :func:`control_call`
is the operator/coordinator side: one authenticated control request,
one MAC-verified reply.
"""

from __future__ import annotations

import asyncio

from ...exceptions import (
    AuthenticationError,
    ControlError,
    MovedError,
    ServiceError,
    ValidationError,
    WireFormatError,
)
from ..collect import wire
from ..collect.framing import read_session_frame
from .auth import (
    control_request_mac,
    derive_round_key,
    fresh_nonce,
    session_mac,
    verify_control_reply_mac,
)
from .routing import RoutingTable, parse_moved

__all__ = [
    "ServiceSession",
    "send_records",
    "send_records_routed",
    "refresh_routing_table",
    "control_call",
]


class ServiceSession:
    """One authenticated producer connection to a collection service."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        key,
        producer_id: str,
        m: int,
        round_id: int = 0,
        party: bytes = b"",
    ) -> None:
        if not producer_id:
            raise ValidationError("producer_id must be a non-empty string")
        self.host = host
        self.port = port
        self.key = derive_round_key(key)
        self.producer_id = producer_id
        self.m = int(m)
        self.round_id = int(round_id)
        # The party label scopes the session proof to the peer's role in
        # a split-trust round: empty against a plain collector (the
        # transcript stays byte-identical to earlier protocol versions),
        # keeper_party_label(keeper_id) against that share keeper — so a
        # proof minted for one party is unspendable at any other.
        self.party = bytes(party)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        """Open the connection and complete the HMAC handshake.

        Raises :class:`~repro.exceptions.AuthenticationError` when the
        service refuses the session (wrong key, round mismatch, or
        capacity shed — the message carries the service's detail).
        """
        if self._writer is not None:
            raise ValidationError("session is already connected")
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        try:
            client_nonce = fresh_nonce()
            await self._send(
                wire.SessionHello(
                    m=self.m,
                    round_id=self.round_id,
                    producer_id=self.producer_id,
                    nonce=client_nonce,
                )
            )
            reply = await self._read("session challenge")
            if isinstance(reply, wire.Ack):
                moved = parse_moved(reply.detail)
                if moved is not None:
                    epoch, shard, host, port = moved
                    raise MovedError(
                        f"producer {self.producer_id!r} is routed to shard "
                        f"{shard} at {host}:{port} (table epoch {epoch})",
                        epoch=epoch,
                        shard=shard,
                        host=host,
                        port=port,
                    )
                raise AuthenticationError(
                    f"service refused the session: {reply.detail}"
                )
            if not isinstance(reply, wire.SessionChallenge):
                raise AuthenticationError(
                    f"expected a session challenge, got {type(reply).__name__}"
                )
            # The version-3 challenge carries the hosted round's
            # registration token; binding it scopes this proof to that
            # exact round incarnation.  A tokenless version-2 challenge
            # (the committed wire fixtures; no service sends one) MACs
            # the transcript without it.
            mac = session_mac(
                self.key,
                m=self.m,
                round_id=self.round_id,
                producer_id=self.producer_id,
                client_nonce=client_nonce,
                server_nonce=reply.nonce,
                round_token=reply.round_token,
                party=self.party,
            )
            await self._send(
                wire.SessionProof(m=self.m, round_id=self.round_id, mac=mac)
            )
            ack = await self._read("session ack")
            if not isinstance(ack, wire.Ack) or ack.status != wire.ACK_SESSION:
                detail = ack.detail if isinstance(ack, wire.Ack) else repr(ack)
                raise AuthenticationError(
                    f"service refused the session: {detail}"
                )
        except BaseException:
            await self.close()
            raise

    async def send(self, frame, seq: int) -> wire.Ack:
        """Ship one record and block for its ack.

        *frame* is core-frame ``bytes`` or an encodable object
        (:class:`~repro.pipeline.accumulator.CountAccumulator` /
        :class:`~repro.pipeline.collect.wire.PackedChunk`).  Returns the
        service's :class:`~repro.pipeline.collect.wire.Ack`; both
        ``ACK_MERGED`` and ``ACK_DUPLICATE`` mean the record is in the
        round.
        """
        await self.send_nowait(frame, seq)
        return await self.read_ack(seq)

    async def send_nowait(self, frame, seq: int) -> None:
        """Ship one record without waiting for its ack.

        The pipelining half of the protocol: acks come back strictly in
        send order on a connection, so a producer may stream a window of
        records and then collect acks with :meth:`read_ack` — the
        pattern :func:`send_records` uses to avoid one network round
        trip per record.
        """
        if self._writer is None:
            raise ValidationError("session is not connected")
        if not isinstance(frame, (bytes, bytearray, memoryview)):
            frame = wire.dumps(frame)
        record = wire.Record(
            m=self.m, round_id=self.round_id, seq=int(seq), frame=bytes(frame)
        )
        await self._send(record)

    async def read_ack(self, seq) -> wire.Ack:
        """Collect the next in-order ack (*seq* names it in errors)."""
        ack = await self._read(f"ack for seq {seq}")
        if not isinstance(ack, wire.Ack):
            raise WireFormatError(
                f"expected an ack for seq {seq}, got {type(ack).__name__}"
            )
        return ack

    async def close(self) -> None:
        if self._writer is None:
            return
        writer, self._writer = self._writer, None
        self._reader = None
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "ServiceSession":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def _send(self, obj) -> None:
        self._writer.write(wire.dumps(obj))
        await self._writer.drain()

    async def _read(self, expectation: str):
        obj = await read_session_frame(self._reader)
        if obj is None:
            raise WireFormatError(
                f"service hung up while the producer awaited the {expectation}"
            )
        return obj


async def send_records(
    host: str,
    port: int,
    frames,
    *,
    key,
    producer_id: str,
    m: int,
    round_id: int = 0,
    start_seq: int = 0,
    raise_on_refusal: bool = True,
    max_inflight: int = 64,
    party: bytes = b"",
) -> list[wire.Ack]:
    """Authenticate and ship *frames* as records ``start_seq, ...``.

    Each frame becomes one record, acks come back in order, and
    re-running the call verbatim (a blind resend) yields
    ``ACK_DUPLICATE`` for everything already committed instead of
    double-counting it.

    Records are pipelined through a *bounded window*: up to
    ``max_inflight`` records stream out before their acks are
    collected, so the cost per record is the service's commit rather
    than a network round trip — while unread acks can never pile up
    past the window.  (Unbounded pipelining would deadlock on TCP flow
    control for very large batches: the service blocks draining acks
    nobody is reading while the producer blocks writing records nobody
    is reading.)
    """
    session = ServiceSession(
        host,
        port,
        key=key,
        producer_id=producer_id,
        m=m,
        round_id=round_id,
        party=party,
    )
    await session.connect()
    try:
        frames = list(frames)
        max_inflight = max(1, int(max_inflight))
        acks: list[wire.Ack] = []
        write_error: Exception | None = None

        async def collect_ack() -> None:
            ack = await session.read_ack(start_seq + len(acks))
            acks.append(ack)
            if ack.status == wire.ACK_REFUSED:
                moved = parse_moved(ack.detail)
                if moved is not None:
                    # A live rebalance moved this producer mid-batch.
                    # Raise MovedError even when refusals are tolerated:
                    # the routed sender blind-resends the whole batch to
                    # the new owner, where the transferred ledger
                    # entries dedup whatever already committed here.
                    epoch, shard, host, port = moved
                    raise MovedError(
                        f"producer moved to shard {shard!r} at "
                        f"{host}:{port} (table epoch {epoch}, seq "
                        f"{ack.seq})",
                        epoch=epoch,
                        shard=shard,
                        host=host,
                        port=port,
                    )
                if raise_on_refusal:
                    raise ServiceError(
                        f"service refused seq {ack.seq}: {ack.detail}"
                    )

        sent = 0
        try:
            for offset, frame in enumerate(frames):
                while sent - len(acks) >= max_inflight:
                    await collect_ack()
                await session.send_nowait(frame, start_seq + offset)
                sent += 1
        except (ConnectionError, OSError) as exc:
            # The service may have refused a record and dropped the
            # connection while the batch was still streaming; collect
            # the acks that made it out to surface the real reason.
            write_error = exc
        while len(acks) < len(frames):
            try:
                await collect_ack()
            except (WireFormatError, ConnectionError, OSError):
                break
        if len(acks) < len(frames) and not any(
            ack.status == wire.ACK_REFUSED for ack in acks
        ):
            detail = f": {write_error}" if write_error is not None else ""
            raise WireFormatError(
                f"service hung up after acknowledging {len(acks)} of "
                f"{len(frames)} records{detail}"
            )
        return acks
    finally:
        await session.close()


async def refresh_routing_table(
    table: RoutingTable, *, control_key, timeout: float = 10.0
) -> RoutingTable | None:
    """Best-effort fetch of a *newer* routing table from the fleet.

    Asks every shard in *table* for its installed table (``route-table``
    control op) and returns the highest-epoch answer that is strictly
    newer than *table*, or ``None`` when no shard is reachable or none
    knows a newer table.  Mid-rebalance the shards legitimately
    disagree — some already hold the next epoch, some still the old
    one — so only the maximum is trustworthy.  Requires the fleet's
    control key — the coordinator/operator credential — so only
    routing-aware senders that hold it (tests, operator tools, the
    coordinator's own relays) can refresh.
    """
    best: RoutingTable | None = None
    for shard in table.shards():
        try:
            body, _ = await control_call(
                shard.host,
                shard.port,
                key=control_key,
                op="route-table",
                timeout=timeout,
            )
        except (ControlError, ConnectionError, OSError, TimeoutError):
            continue
        payload = body.get("table")
        if payload is None:
            continue
        try:
            fresh = RoutingTable.from_payload(payload)
        except ValidationError:
            continue
        if fresh.epoch > table.epoch and (
            best is None or fresh.epoch > best.epoch
        ):
            best = fresh
    return best


async def send_records_routed(
    table: RoutingTable,
    frames,
    *,
    key,
    producer_id: str,
    m: int,
    round_id: int = 0,
    start_seq: int = 0,
    raise_on_refusal: bool = True,
    max_inflight: int = 64,
    max_redirects: int = 3,
    party: bytes = b"",
    control_key=None,
) -> list[wire.Ack]:
    """:func:`send_records` against a shard fleet.

    Resolves the producer's shard from *table* (consistent hashing on
    the producer id — the same function the shards enforce) and ships
    there; when the shard answers ``MOVED`` (this table is stale, a
    rebalance moved the producer), follows the redirect to the owning
    shard's address instead of failing.  Redirects are bounded by
    *max_redirects*: a fleet whose shards disagree about ownership
    (mid-rollout, each bouncing the producer to the other) surfaces as
    a loud error, not a livelock.

    When *control_key* is given, a stale table is no longer a dead
    end: exhausting the redirect budget — or finding the resolved
    owner's address unreachable (the shard was re-addressed
    mid-rebalance) — triggers ONE table refresh from the fleet
    (:func:`refresh_routing_table`); if a newer epoch turns up, the
    redirect budget restarts against the refreshed owner.  Without the
    credential the old behaviour is unchanged: exhaustion raises
    :class:`~repro.exceptions.ServiceError`, a dead shard raises its
    connection error.

    Records either commit on the shard that owns the producer or are
    never acked — a redirect happens at handshake time, before any
    record frame is sent, so no partial batch can land on a wrong
    shard.
    """
    owner = table.owner(producer_id)
    host, port = owner.host, owner.port
    hops: list[str] = []
    attempts = max(1, int(max_redirects)) + 1
    remaining = attempts
    refreshed = False

    async def refresh_once() -> bool:
        """Swap in a newer fleet table, once per call; False = give up."""
        nonlocal table, host, port, remaining, refreshed
        if control_key is None or refreshed:
            return False
        refreshed = True
        fresh = await refresh_routing_table(table, control_key=control_key)
        if fresh is None:
            return False
        table = fresh
        fresh_owner = fresh.owner(producer_id)
        host, port = fresh_owner.host, fresh_owner.port
        hops.append(f"refreshed table to epoch {fresh.epoch}")
        remaining = attempts
        return True

    while remaining > 0:
        remaining -= 1
        try:
            return await send_records(
                host,
                port,
                frames,
                key=key,
                producer_id=producer_id,
                m=m,
                round_id=round_id,
                start_seq=start_seq,
                raise_on_refusal=raise_on_refusal,
                max_inflight=max_inflight,
                party=party,
            )
        except MovedError as moved:
            hops.append(f"{host}:{port} -> {moved.shard}@{moved.host}:"
                        f"{moved.port} (epoch {moved.epoch})")
            host, port = moved.host, moved.port
        except (ConnectionError, OSError):
            # The address this table (or a MOVED detail minted from an
            # equally stale one) points at is gone — the one situation
            # where retrying the same table can never succeed.
            if not await refresh_once():
                raise
        if remaining == 0:
            await refresh_once()
    raise ServiceError(
        f"producer {producer_id!r} exceeded {max_redirects} MOVED "
        f"redirects; the shard fleet disagrees about ownership: "
        f"{'; '.join(hops)}"
    )


async def control_call(
    host: str,
    port: int,
    *,
    key,
    op: str,
    body: dict | None = None,
    timeout: float = 30.0,
) -> tuple[dict, bytes]:
    """One authenticated control-plane round trip.

    Sends a MAC'd :class:`~repro.pipeline.collect.wire.ControlRequest`
    with a fresh nonce and returns the reply's ``(body, attachment)``
    after verifying that the reply MAC covers this request's nonce —
    a recorded reply to some other request can never be replayed into
    this call.  A ``CONTROL_ERROR`` reply raises
    :class:`~repro.exceptions.ControlError` with the peer's detail;
    so does a reply whose MAC fails (its body is then *not* trusted
    for the error message).
    """
    control_key = derive_round_key(key)
    body = dict(body or {})
    nonce = fresh_nonce()
    request = wire.ControlRequest(
        op=op,
        nonce=nonce,
        body=body,
        mac=control_request_mac(control_key, op=op, nonce=nonce, body=body),
    )

    async def roundtrip() -> tuple[dict, bytes]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(wire.dumps(request))
            await writer.drain()
            reply = await read_session_frame(reader)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if reply is None:
            raise ControlError(
                f"{host}:{port} hung up on control op {op!r}"
            )
        if isinstance(reply, wire.Ack):
            # A host without a control plane refuses with a plain ack.
            raise ControlError(
                f"{host}:{port} refused control op {op!r}: {reply.detail}"
            )
        if not isinstance(reply, wire.ControlReply):
            raise ControlError(
                f"expected a control reply from {host}:{port}, got "
                f"{type(reply).__name__}"
            )
        if not verify_control_reply_mac(
            control_key,
            reply.mac,
            status=reply.status,
            nonce=reply.nonce,
            body=reply.body,
            attachment=reply.attachment,
        ) or reply.nonce != nonce:
            raise ControlError(
                f"control reply from {host}:{port} failed MAC/nonce "
                f"verification for op {op!r}"
            )
        if reply.status != wire.CONTROL_OK:
            raise ControlError(
                f"{host}:{port} refused control op {op!r}: "
                f"{reply.body.get('detail', reply.body)}"
            )
        return reply.body, reply.attachment

    return await asyncio.wait_for(roundtrip(), timeout)
