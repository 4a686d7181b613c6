"""Resource bounds for the collection service.

A public collection endpoint faces arbitrarily many producers, each
able to declare arbitrarily large frames.  Every limit here exists to
make the service's memory and connection load *bounded by
configuration*, not by producer behavior:

* ``max_frame_bytes`` is enforced against the header's declared payload
  length **before** the payload is read, so no connection ever buffers
  more than one capped frame;
* per-connection byte/frame quotas cut off a producer that streams
  forever on one connection (records it already got acks for stay
  merged — shedding is not a rollback);
* session capacity stalls excess producers at the accept gate
  (bounded-wait backpressure) and sheds them with a refusal ack once
  the wait queue itself is full, which is the difference between
  degrading and OOMing under a producer flood.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace

from ...exceptions import QuotaExceededError

__all__ = [
    "ServiceLimits",
    "ConnectionQuota",
    "BudgetMeter",
    "ProducerQuota",
    "RoundQuota",
    "Deadline",
]

COMMIT_SCOPE_ROUND = "round"
COMMIT_SCOPE_CONNECTION = "connection"


@dataclass(frozen=True)
class ServiceLimits:
    """Service-wide resource policy (defaults suit a localhost round).

    Attributes
    ----------
    max_frame_bytes:
        Cap on one frame's declared payload; checked before the payload
        is read.
    max_connection_bytes / max_connection_frames:
        Per-connection ingest quota; the connection is shed with a
        refusal ack when it crosses either.
    max_sessions:
        Concurrent connections being served; arrivals beyond this stall
        at the accept gate until a slot frees.
    max_waiting_sessions:
        Stalled arrivals beyond this are shed immediately — the bound
        on the backpressure queue itself.
    max_commit_batch:
        Group-commit window: up to this many pipelined records share
        one spill-fsync + ledger-fsync pair (acks still follow the
        fsyncs, so the durability contract per ack is unchanged).
    max_commit_batch_bytes:
        Byte-based batch trigger: a batch also closes once its staged
        record frames exceed this, so large records commit in small
        groups whose fsyncs overlap the next batch's network reads
        instead of one monolithic end-of-burst commit.
    commit_idle_seconds:
        How long a non-empty batch waits for another pipelined record
        before committing what it has.  Only a producer that stops
        mid-burst ever observes this latency.
    handshake_timeout_seconds:
        Deadline for the whole handshake (hello through proof).  This is
        the anti-slow-loris bound: without it, an *unauthenticated*
        connection that sends nothing — or half a frame — would hold a
        session slot forever, and 64 idle sockets would wedge the
        service for every legitimate producer.
    session_idle_seconds:
        Deadline for an authenticated session's next record (including
        a stalled mid-frame payload), measured on the **monotonic
        clock from the last completed frame** — never from connection
        start, so a legitimately slow producer that keeps trickling
        records (even across a long multi-round engagement) is never
        reaped, while one that goes silent is.  Reaped producers
        reconnect and resend, which exactly-once makes free.
    max_producer_bytes / max_producer_frames:
        Per-*producer* contribution quota, shared across every
        connection and session the producer opens on a round (``None``
        = unlimited).  Metered on records **accepted for commit**, so
        the blind resend the exactly-once protocol relies on is free:
        duplicates dedup before they are charged.  A producer cannot
        dodge its budget by reconnecting — the tally lives with the
        round, not the connection — and on resume both frames and
        bytes are rebuilt exactly from the ledger, so a restart
        forgives nothing (and double-charges nothing).
    max_round_bytes / max_round_records:
        Whole-round contribution caps (``None`` = unlimited), metered
        like the producer quota: once a hosted round has committed
        this much, further fresh records are refused while other
        rounds on the same service keep ingesting.
    commit_scope:
        ``"round"`` (default) coalesces group commits **across
        connections**: one spill-fsync + ledger-fsync pair covers every
        batch any session of the round has staged while the previous
        commit was in flight.  ``"connection"`` batches per
        connection instead — each connection's batch pays its own
        fsync pair (the benchmark baseline, and a debugging aid).
    """

    max_frame_bytes: int = 16 * 2**20
    max_connection_bytes: int = 2**30
    max_connection_frames: int = 1_000_000
    max_sessions: int = 64
    max_waiting_sessions: int = 256
    max_commit_batch: int = 32
    max_commit_batch_bytes: int = 2**21
    commit_idle_seconds: float = 0.002
    handshake_timeout_seconds: float = 30.0
    session_idle_seconds: float = 900.0
    max_producer_bytes: int | None = None
    max_producer_frames: int | None = None
    max_round_bytes: int | None = None
    max_round_records: int | None = None
    commit_scope: str = COMMIT_SCOPE_ROUND

    def __post_init__(self) -> None:
        for field in (
            "max_frame_bytes",
            "max_connection_bytes",
            "max_connection_frames",
            "max_sessions",
            "max_waiting_sessions",
            "max_commit_batch",
            "max_commit_batch_bytes",
        ):
            if int(getattr(self, field)) <= 0 and field != "max_waiting_sessions":
                raise ValueError(f"{field} must be positive")
            if int(getattr(self, field)) < 0:
                raise ValueError(f"{field} must be non-negative")
        for field in (
            "commit_idle_seconds",
            "handshake_timeout_seconds",
            "session_idle_seconds",
        ):
            if float(getattr(self, field)) <= 0:
                raise ValueError(f"{field} must be positive")
        for field in (
            "max_producer_bytes",
            "max_producer_frames",
            "max_round_bytes",
            "max_round_records",
        ):
            value = getattr(self, field)
            if value is not None and int(value) <= 0:
                raise ValueError(f"{field} must be positive (or None)")
        if self.commit_scope not in (COMMIT_SCOPE_ROUND, COMMIT_SCOPE_CONNECTION):
            raise ValueError(
                f"commit_scope must be '{COMMIT_SCOPE_ROUND}' or "
                f"'{COMMIT_SCOPE_CONNECTION}', got {self.commit_scope!r}"
            )

    def with_overrides(self, overrides: dict) -> "ServiceLimits":
        """A copy with *overrides* layered over these limits.

        This is how per-round limits work: the service's defaults stay
        one immutable instance, and each round that declares a
        ``limits`` block in the rounds config gets its own derived
        instance.  Unknown field names are loud (a typo'd limit that
        silently fell through would look enforced while enforcing
        nothing); values re-run the full ``__post_init__`` validation.
        """
        known = {field.name for field in fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ValueError(
                f"unknown ServiceLimits field(s) {unknown}; known fields: "
                f"{sorted(known)}"
            )
        return replace(self, **overrides)


class ConnectionQuota:
    """Running byte/frame tally for one connection."""

    def __init__(self, limits: ServiceLimits) -> None:
        self.limits = limits
        self.bytes_used = 0
        self.frames_used = 0

    def charge(self, nbytes: int) -> None:
        """Account one frame of *nbytes*; raises when over quota."""
        self.bytes_used += int(nbytes)
        self.frames_used += 1
        if self.bytes_used > self.limits.max_connection_bytes:
            raise QuotaExceededError(
                f"connection exceeded its byte quota "
                f"({self.bytes_used} > {self.limits.max_connection_bytes})"
            )
        if self.frames_used > self.limits.max_connection_frames:
            raise QuotaExceededError(
                f"connection exceeded its frame quota "
                f"({self.frames_used} > {self.limits.max_connection_frames})"
            )


class BudgetMeter:
    """A persistent ``(bytes, count)`` budget with **atomic** charging.

    Unlike :class:`ConnectionQuota` (which dies with its connection, so
    its meter state after a refusal is irrelevant), these meters
    outlive connections — so :meth:`charge` must be all-or-nothing: a
    refused charge leaves the meter exactly as it was, else the failed
    attempt itself would burn budget and lock a producer out below its
    real committed usage.  One implementation serves both the
    per-producer and per-round scopes; fixes cannot drift between them.
    """

    def __init__(
        self,
        label: str,
        *,
        max_bytes: int | None,
        max_count: int | None,
        count_noun: str,
    ) -> None:
        self.label = label
        self.max_bytes = max_bytes
        self.max_count = max_count
        self.count_noun = count_noun
        self.bytes_used = 0
        self.count_used = 0

    def charge(self, nbytes: int) -> None:
        """Charge one record of *nbytes* atomically; raises untouched."""
        new_bytes = self.bytes_used + int(nbytes)
        new_count = self.count_used + 1
        if self.max_bytes is not None and new_bytes > self.max_bytes:
            raise QuotaExceededError(
                f"{self.label} exceeded its byte quota "
                f"({new_bytes} > {self.max_bytes})"
            )
        if self.max_count is not None and new_count > self.max_count:
            raise QuotaExceededError(
                f"{self.label} exceeded its {self.count_noun} quota "
                f"({new_count} > {self.max_count})"
            )
        self.bytes_used = new_bytes
        self.count_used = new_count

    def refund(self, nbytes: int) -> None:
        """Return the charge for a staged record that never committed
        (dead connection, commit rollback, lost a same-seq race) — the
        producer will resend it, and resending must not double-bill."""
        self.bytes_used -= int(nbytes)
        self.count_used -= 1


class ProducerQuota(BudgetMeter):
    """One producer's cross-connection meter on one hosted round.

    The round hands every session of producer ``p`` the same instance,
    so reconnecting never resets the meter, and resume seeds it from
    the ledger's per-producer totals.  Charged only for records staged
    fresh (duplicates are free); under two connections of one producer
    racing the same seq, the loser's charge is refunded at commit time.
    """

    def __init__(self, limits: ServiceLimits, producer_id: str) -> None:
        super().__init__(
            f"producer {producer_id!r}",
            max_bytes=limits.max_producer_bytes,
            max_count=limits.max_producer_frames,
            count_noun="frame",
        )
        self.producer_id = producer_id

    @property
    def frames_used(self) -> int:
        return self.count_used

    @frames_used.setter
    def frames_used(self, value: int) -> None:
        self.count_used = int(value)


class RoundQuota(BudgetMeter):
    """Whole-round commit meter (all producers, all connections)."""

    def __init__(self, limits: ServiceLimits, round_id: int) -> None:
        super().__init__(
            f"round {round_id}",
            max_bytes=limits.max_round_bytes,
            max_count=limits.max_round_records,
            count_noun="record",
        )
        self.round_id = round_id

    @property
    def records_used(self) -> int:
        return self.count_used

    @records_used.setter
    def records_used(self, value: int) -> None:
        self.count_used = int(value)


class Deadline:
    """A monotonic-clock idle deadline.

    All service reaping runs through this class so no deadline can ever
    be measured from the wrong origin (connection start) or the wrong
    clock (wall time, which NTP may step backwards or forwards under a
    long-lived session).  :meth:`reset` marks activity; :meth:`remaining`
    is what goes into ``asyncio.wait_for``.
    """

    def __init__(self, seconds: float, *, clock=time.monotonic) -> None:
        if float(seconds) <= 0:
            raise ValueError(f"deadline must be positive, got {seconds}")
        self.seconds = float(seconds)
        self._clock = clock
        self._last = clock()

    def reset(self) -> None:
        """Record activity now; the deadline restarts from this instant."""
        self._last = self._clock()

    def remaining(self) -> float:
        """Seconds left before the deadline expires (may be <= 0)."""
        return self.seconds - (self._clock() - self._last)

    def expired(self) -> bool:
        return self.remaining() <= 0
