"""Behavioral tests for the exactly-once CollectionService.

Covers the four pillars one by one: authentication (wrong-key producers
merge nothing), idempotency (resends ack as duplicates, equivocation is
refused), backpressure/quotas (oversized frames, per-connection quotas,
session capacity shedding), and resumability (covered in depth by
``tests/integration/test_service_end_to_end.py``).
"""

from __future__ import annotations

import asyncio
import os
import struct

import numpy as np
import pytest

from repro.exceptions import AuthenticationError, ValidationError
from repro.pipeline import (
    CollectionService,
    CountAccumulator,
    ServiceLimits,
    ServiceSession,
    send_records,
)
from repro.pipeline.collect import wire
from repro.pipeline.collect.framing import read_frame_bytes

M = 16
KEY = "0011223344556677"


def _chunk_frame(k=5, seed=0, m=M, round_id=0) -> bytes:
    rng = np.random.default_rng(seed)
    bits = (rng.random((k, m)) < 0.5).astype(np.uint8)
    return wire.dump_chunk(np.packbits(bits, axis=1), m, round_id=round_id)


def _snapshot_frame(n=4, seed=1, m=M, round_id=0) -> bytes:
    rng = np.random.default_rng(seed)
    acc = CountAccumulator(m, round_id=round_id)
    acc.add_reports((rng.random((n, m)) < 0.5).astype(np.int8))
    return wire.dumps(acc)


def _run(scenario, tmp_path, *, limits=None, **service_kwargs):
    """Start a service, run ``scenario(service, host, port)``, close."""

    async def main():
        service = CollectionService(
            rounds=[(M, 0)],
            key=KEY,
            store_root=str(tmp_path / "round"),
            limits=limits,
            **service_kwargs,
        )
        host, port = await service.serve()
        try:
            result = await scenario(service, host, port)
        finally:
            await service.close()
        return service, result

    return asyncio.run(main())


class TestAuthentication:
    def test_wrong_key_merges_nothing(self, tmp_path):
        async def scenario(service, host, port):
            with pytest.raises(AuthenticationError, match="refused"):
                await send_records(
                    host,
                    port,
                    [_chunk_frame()],
                    key="totally-wrong-key",
                    producer_id="evil",
                    m=M,
                )

        service, _ = _run(scenario, tmp_path)
        assert service.round(0).accumulator.n == 0
        assert service.records_merged == 0
        assert service.sessions_rejected == 1
        assert "evil" not in service.producers_seen

    def test_round_mismatch_hello_refused(self, tmp_path):
        async def scenario(service, host, port):
            with pytest.raises(AuthenticationError, match="round mismatch"):
                await send_records(
                    host,
                    port,
                    [_chunk_frame()],
                    key=KEY,
                    producer_id="p",
                    m=M,
                    round_id=9,
                )

        service, _ = _run(scenario, tmp_path)
        assert service.round(0).accumulator.n == 0 and service.sessions_rejected == 1

    def test_right_key_merges(self, tmp_path):
        async def scenario(service, host, port):
            return await send_records(
                host,
                port,
                [_chunk_frame(), _snapshot_frame()],
                key=KEY,
                producer_id="edge-1",
                m=M,
            )

        service, acks = _run(scenario, tmp_path)
        assert [a.status for a in acks] == [wire.ACK_MERGED] * 2
        assert service.round(0).accumulator.n == 9  # 5 chunk rows + 4 snapshot users
        assert service.producers_seen == {"edge-1"}

    def test_bad_key_type_fails_at_construction(self, tmp_path):
        with pytest.raises(ValidationError, match="at least"):
            CollectionService(rounds=[(M, 0)], key="ab", store_root=str(tmp_path / "r"))


class TestExactlyOnce:
    def test_blind_resend_is_duplicate_not_double_count(self, tmp_path):
        frames = [_chunk_frame(seed=s) for s in range(3)]

        async def scenario(service, host, port):
            first = await send_records(
                host, port, frames, key=KEY, producer_id="p", m=M
            )
            digest = service.round(0).accumulator.digest()
            again = await send_records(
                host, port, frames, key=KEY, producer_id="p", m=M
            )
            return first, again, digest

        service, (first, again, digest) = _run(scenario, tmp_path)
        assert [a.status for a in first] == [wire.ACK_MERGED] * 3
        assert [a.status for a in again] == [wire.ACK_DUPLICATE] * 3
        assert service.round(0).accumulator.digest() == digest
        assert service.records_merged == 3
        assert service.records_duplicate == 3

    def test_same_seq_different_producers_both_merge(self, tmp_path):
        async def scenario(service, host, port):
            for producer in ("a", "b"):
                await send_records(
                    host,
                    port,
                    [_chunk_frame(seed=ord(producer))],
                    key=KEY,
                    producer_id=producer,
                    m=M,
                )

        service, _ = _run(scenario, tmp_path)
        assert service.records_merged == 2

    def test_equivocation_refused_and_connection_dropped(self, tmp_path):
        async def scenario(service, host, port):
            await send_records(
                host, port, [_chunk_frame(seed=1)], key=KEY,
                producer_id="p", m=M,
            )
            digest = service.round(0).accumulator.digest()
            async with ServiceSession(
                host, port, key=KEY, producer_id="p", m=M
            ) as session:
                ack = await session.send(_chunk_frame(seed=2), 0)
            return digest, ack

        service, (digest, ack) = _run(scenario, tmp_path)
        assert ack.status == wire.ACK_REFUSED
        assert "equivocation" in ack.detail
        assert service.round(0).accumulator.digest() == digest
        assert service.records_refused == 1

    def test_concurrent_duplicate_sends_commit_once(self, tmp_path):
        frame = _chunk_frame(seed=5)

        async def scenario(service, host, port):
            return await asyncio.gather(
                *(
                    send_records(
                        host, port, [frame], key=KEY, producer_id="p", m=M
                    )
                    for _ in range(4)
                )
            )

        service, results = _run(scenario, tmp_path)
        statuses = sorted(acks[0].status for acks in results)
        assert statuses.count(wire.ACK_MERGED) == 1
        assert statuses.count(wire.ACK_DUPLICATE) == 3
        assert service.records_merged == 1
        assert service.round(0).accumulator.n == 5


class TestValidation:
    def test_record_for_wrong_round_refused(self, tmp_path):
        async def scenario(service, host, port):
            async with ServiceSession(
                host, port, key=KEY, producer_id="p", m=M
            ) as session:
                bad = wire.dump_chunk(
                    np.zeros((1, 2), dtype=np.uint8), M, round_id=9
                )
                return await session.send(bad, 0)

        service, ack = _run(scenario, tmp_path)
        assert ack.status == wire.ACK_REFUSED
        assert service.records_merged == 0

    def test_non_record_frame_after_handshake_refused(self, tmp_path):
        async def scenario(service, host, port):
            session = ServiceSession(host, port, key=KEY, producer_id="p", m=M)
            await session.connect()
            try:
                # A bare snapshot (not wrapped in a Record) is a protocol
                # error once the session is open.
                session._writer.write(_snapshot_frame())
                await session._writer.drain()
                reply = await session._read("refusal")
                return reply
            finally:
                await session.close()

        service, reply = _run(scenario, tmp_path)
        assert isinstance(reply, wire.Ack)
        assert reply.status == wire.ACK_REFUSED
        assert "expected a record" in reply.detail
        assert service.records_merged == 0

    def test_garbage_record_payload_refused(self, tmp_path):
        async def scenario(service, host, port):
            async with ServiceSession(
                host, port, key=KEY, producer_id="p", m=M
            ) as session:
                corrupt = bytearray(_chunk_frame())
                corrupt[-1] ^= 0xFF
                return await session.send(bytes(corrupt), 0)

        service, ack = _run(scenario, tmp_path)
        assert ack.status == wire.ACK_REFUSED
        assert service.records_merged == 0
        assert service.records_refused == 1


class TestQuotasAndBackpressure:
    def test_oversized_frame_refused(self, tmp_path):
        limits = ServiceLimits(max_frame_bytes=256)

        async def scenario(service, host, port):
            async with ServiceSession(
                host, port, key=KEY, producer_id="p", m=M
            ) as session:
                return await session.send(_chunk_frame(k=2000), 0)

        service, ack = _run(scenario, tmp_path, limits=limits)
        assert ack.status == wire.ACK_REFUSED
        assert "caps frames" in ack.detail
        assert service.round(0).accumulator.n == 0

    def test_connection_frame_quota_sheds_but_keeps_acked(self, tmp_path):
        # Handshake costs 2 producer frames; allow 2 records after that.
        limits = ServiceLimits(max_connection_frames=4)

        async def scenario(service, host, port):
            async with ServiceSession(
                host, port, key=KEY, producer_id="p", m=M
            ) as session:
                acks = [
                    await session.send(_chunk_frame(seed=s), s)
                    for s in range(2)
                ]
                over = await session.send(_chunk_frame(seed=9), 9)
            return acks, over

        service, (acks, over) = _run(scenario, tmp_path, limits=limits)
        assert [a.status for a in acks] == [wire.ACK_MERGED] * 2
        assert over.status == wire.ACK_REFUSED
        assert "frame quota" in over.detail
        # Shedding is not a rollback: the two acked records stay merged.
        assert service.records_merged == 2

    def test_connection_byte_quota_enforced(self, tmp_path):
        limits = ServiceLimits(max_connection_bytes=600)

        async def scenario(service, host, port):
            async with ServiceSession(
                host, port, key=KEY, producer_id="p", m=M
            ) as session:
                acks = []
                for seq in range(10):
                    ack = await session.send(_chunk_frame(seed=seq), seq)
                    acks.append(ack)
                    if ack.status == wire.ACK_REFUSED:
                        break
            return acks

        service, acks = _run(scenario, tmp_path, limits=limits)
        assert acks[-1].status == wire.ACK_REFUSED
        assert "byte quota" in acks[-1].detail
        assert service.records_merged == len(acks) - 1

    def test_session_capacity_sheds_when_wait_queue_full(self, tmp_path):
        limits = ServiceLimits(max_sessions=1, max_waiting_sessions=0)

        async def scenario(service, host, port):
            async with ServiceSession(
                host, port, key=KEY, producer_id="first", m=M
            ):
                # The slot is held; a second arrival cannot even wait.
                with pytest.raises(AuthenticationError, match="capacity"):
                    await send_records(
                        host,
                        port,
                        [_chunk_frame()],
                        key=KEY,
                        producer_id="second",
                        m=M,
                    )

        service, _ = _run(scenario, tmp_path, limits=limits)
        assert service.sessions_shed == 1

    def test_stalled_arrivals_proceed_once_a_slot_frees(self, tmp_path):
        limits = ServiceLimits(max_sessions=1, max_waiting_sessions=8)

        async def scenario(service, host, port):
            acks = await asyncio.gather(
                *(
                    send_records(
                        host,
                        port,
                        [_chunk_frame(seed=s)],
                        key=KEY,
                        producer_id=f"p{s}",
                        m=M,
                    )
                    for s in range(5)
                )
            )
            return acks

        service, acks = _run(scenario, tmp_path, limits=limits)
        assert all(batch[0].status == wire.ACK_MERGED for batch in acks)
        assert service.records_merged == 5
        assert service.sessions_shed == 0


class TestLifecycle:
    def test_fresh_start_over_existing_round_refused(self, tmp_path):
        async def scenario(service, host, port):
            await send_records(
                host, port, [_chunk_frame()], key=KEY, producer_id="p", m=M
            )

        _run(scenario, tmp_path)
        with pytest.raises(ValidationError, match="resume"):
            CollectionService(
                rounds=[(M, 0)],
                key=KEY,
                store_root=str(tmp_path / "round"),
            )

    def test_close_cancels_stalled_session(self, tmp_path):
        async def main():
            service = CollectionService(
                rounds=[(M, 0)], key=KEY, store_root=str(tmp_path / "round")
            )
            host, port = await service.serve()
            session = ServiceSession(host, port, key=KEY, producer_id="p", m=M)
            await session.connect()  # authenticated, then... nothing
            await asyncio.sleep(0.05)
            await asyncio.wait_for(service.close(), timeout=2.0)
            await session.close()
            return service

        service = asyncio.run(main())
        assert service.connections_failed == 1
        assert "closed during" in service.last_connection_error

    def test_stats_shape(self, tmp_path):
        async def scenario(service, host, port):
            await send_records(
                host, port, [_chunk_frame()], key=KEY, producer_id="p", m=M
            )

        service, _ = _run(scenario, tmp_path)
        stats = service.stats()
        assert stats["records_merged"] == 1
        assert stats["producers"] == ["p"]
        assert stats["n"] == service.round(0).accumulator.n


def _flat_round(tmp_path):
    """A store root holding one committed record in the flat layout:
    ledger and spill directly under the root, where a lone round kept
    them before every round moved into ``round_<id>/``."""

    async def scenario(service, host, port):
        await send_records(
            host, port, [_chunk_frame()], key=KEY, producer_id="p", m=M
        )

    _run(scenario, tmp_path)
    root = tmp_path / "round"
    for path in list((root / "round_00000").iterdir()):
        path.rename(root / path.name)
    (root / "round_00000").rmdir()
    return root


class TestRoundLayout:
    def test_challenge_is_version_3_with_the_round_token(self, tmp_path):
        async def scenario(service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(
                    wire.dump_hello(
                        wire.SessionHello(
                            m=M, round_id=0, producer_id="p", nonce=bytes(16)
                        )
                    )
                )
                await writer.drain()
                return await read_frame_bytes(reader, max_frame_bytes=4096)
            finally:
                writer.close()
                await writer.wait_closed()

        service, frame = _run(scenario, tmp_path)
        (version,) = struct.unpack_from("<H", frame, 4)
        assert version == wire.WIRE_VERSION_MULTIROUND
        challenge = wire.loads(frame)
        assert isinstance(challenge, wire.SessionChallenge)
        assert challenge.round_token == service.round(0).token

    @pytest.mark.parametrize("resume", [False, True])
    @pytest.mark.parametrize(
        "rounds, target",
        [([(M, 0)], "round_00000"), ([(M, 0), (M, 1)], "round_<id>")],
    )
    def test_flat_root_refused_naming_the_round_directory(
        self, tmp_path, resume, rounds, target
    ):
        root = _flat_round(tmp_path)
        before = sorted(os.listdir(root))
        with pytest.raises(ValidationError, match="flat") as refused:
            CollectionService(
                rounds=rounds, key=KEY, store_root=str(root), resume=resume
            )
        assert os.path.join(str(root), target) + "/" in str(refused.value)
        assert sorted(os.listdir(root)) == before  # nothing opened beside

    def test_flat_round_resumes_once_moved_where_the_refusal_says(
        self, tmp_path
    ):
        root = _flat_round(tmp_path)
        (root / "round_00000").mkdir()
        for path in list(root.iterdir()):
            if path.is_file():
                path.rename(root / "round_00000" / path.name)

        async def scenario(service, host, port):
            return await send_records(
                host, port, [_chunk_frame()], key=KEY, producer_id="p", m=M
            )

        service, acks = _run(scenario, tmp_path, resume=True)
        assert service.recovered_records == 1
        assert [a.status for a in acks] == [wire.ACK_DUPLICATE]
        assert service.round(0).accumulator.n == 5


class TestTimeouts:
    def test_slow_loris_handshake_is_reaped_and_slot_freed(self, tmp_path):
        """An unauthenticated connection that sends nothing must not hold
        a session slot past the handshake deadline."""
        limits = ServiceLimits(
            max_sessions=1,
            max_waiting_sessions=0,
            handshake_timeout_seconds=0.1,
        )

        async def main():
            service = CollectionService(
                rounds=[(M, 0)],
                key=KEY,
                store_root=str(tmp_path / "round"),
                limits=limits,
            )
            host, port = await service.serve()
            try:
                # The attacker: connects, says nothing, holds the slot.
                _, loris = await asyncio.open_connection(host, port)
                await asyncio.sleep(0.3)  # past the handshake deadline
                # The slot must be free again for a real producer.
                acks = await send_records(
                    host,
                    port,
                    [_chunk_frame()],
                    key=KEY,
                    producer_id="legit",
                    m=M,
                )
                loris.close()
            finally:
                await service.close()
            return service, acks

        service, acks = asyncio.run(main())
        assert [a.status for a in acks] == [wire.ACK_MERGED]
        assert service.sessions_rejected == 1
        assert service.records_merged == 1

    def test_idle_authenticated_session_is_reaped(self, tmp_path):
        limits = ServiceLimits(
            max_sessions=1,
            max_waiting_sessions=0,
            session_idle_seconds=0.1,
        )

        async def main():
            service = CollectionService(
                rounds=[(M, 0)],
                key=KEY,
                store_root=str(tmp_path / "round"),
                limits=limits,
            )
            host, port = await service.serve()
            try:
                idler = ServiceSession(
                    host, port, key=KEY, producer_id="idler", m=M
                )
                await idler.connect()  # authenticated, then silence
                await asyncio.sleep(0.3)  # past the idle deadline
                acks = await send_records(
                    host,
                    port,
                    [_chunk_frame()],
                    key=KEY,
                    producer_id="legit",
                    m=M,
                )
                await idler.close()
            finally:
                await service.close()
            return service, acks

        service, acks = asyncio.run(main())
        assert [a.status for a in acks] == [wire.ACK_MERGED]
        assert "idle" in service.last_connection_error


class TestCommitFailureRepair:
    def test_failed_fsync_rolls_the_spill_back(self, tmp_path):
        """An fsync error mid-commit must not leave spilled frames without
        ledger entries — that state would make the round unrecoverable."""

        async def main():
            service = CollectionService(
                rounds=[(M, 0)], key=KEY, store_root=str(tmp_path / "round")
            )
            host, port = await service.serve()
            real_sync = service.round(0).writer.sync
            service.round(0).writer.sync = lambda: (_ for _ in ()).throw(
                OSError("simulated ENOSPC")
            )
            try:
                with pytest.raises(Exception):
                    await send_records(
                        host,
                        port,
                        [_chunk_frame(seed=1)],
                        key=KEY,
                        producer_id="p",
                        m=M,
                    )
                # The failed batch rolled back: spill boundary equals the
                # ledger's committed offset, nothing merged.
                assert service.round(0).writer.end_offset == 0
                assert service.round(0).ledger.committed_offset == 0
                assert service.round(0).accumulator.n == 0
                # Disk "recovers"; the producer's blind resend merges once.
                service.round(0).writer.sync = real_sync
                acks = await send_records(
                    host,
                    port,
                    [_chunk_frame(seed=1)],
                    key=KEY,
                    producer_id="p",
                    m=M,
                )
            finally:
                await service.close()
            return service, acks

        service, acks = asyncio.run(main())
        assert [a.status for a in acks] == [wire.ACK_MERGED]
        assert service.records_merged == 1
        # The closed round restarts cleanly — the invariant the rollback
        # exists to protect.
        resumed = CollectionService(
            rounds=[(M, 0)], key=KEY, store_root=str(tmp_path / "round"), resume=True
        )
        assert resumed.recovered_records == 1

    def test_close_during_inline_commit_stays_consistent(self, tmp_path):
        """Cancelling handlers mid-commit (service shutdown) must not
        abandon a batch between its fsyncs: close() drains shielded
        commits, and a resume sees a consistent round."""

        async def main():
            service = CollectionService(
                rounds=[(M, 0)], key=KEY, store_root=str(tmp_path / "round")
            )
            host, port = await service.serve()
            real_sync = service.round(0).writer.sync

            def slow_sync():
                import time

                time.sleep(0.15)  # hold the commit in its fsync window
                real_sync()

            service.round(0).writer.sync = slow_sync
            session = ServiceSession(host, port, key=KEY, producer_id="p", m=M)
            await session.connect()
            await session.send_nowait(_chunk_frame(seed=2), 0)
            await asyncio.sleep(0.05)  # let the batch enter its commit
            await asyncio.wait_for(service.close(), timeout=5.0)
            await session.close()
            return service

        asyncio.run(main())
        # Whatever the ack's fate, durable state must be self-consistent:
        # the record is either fully committed (drained shielded commit)
        # or fully absent — resume must never see spill/ledger skew.
        resumed = CollectionService(
            rounds=[(M, 0)], key=KEY, store_root=str(tmp_path / "round"), resume=True
        )
        assert resumed.recovered_records in (0, 1)
        assert resumed.round(0).accumulator.n == 5 * resumed.recovered_records


class TestPipelineFlowControl:
    def test_large_batch_does_not_deadlock(self, tmp_path):
        """Thousands of records in one send_records call must complete:
        the bounded in-flight window keeps unread acks from filling the
        socket buffers and flow-control-deadlocking both sides."""
        frames = [_chunk_frame(k=1, seed=s) for s in range(3000)]

        async def main():
            service = CollectionService(
                rounds=[(M, 0)], key=KEY, store_root=str(tmp_path / "round")
            )
            host, port = await service.serve()
            try:
                acks = await asyncio.wait_for(
                    send_records(
                        host, port, frames, key=KEY, producer_id="bulk", m=M
                    ),
                    timeout=60.0,
                )
            finally:
                await service.close()
            return service, acks

        service, acks = asyncio.run(main())
        assert len(acks) == 3000
        assert all(a.status == wire.ACK_MERGED for a in acks)
        assert service.records_merged == 3000
        assert service.round(0).accumulator.n == 3000

    def test_mid_frame_stall_is_dropped_and_slot_freed(self, tmp_path):
        """A producer that sends a header and then stalls mid-payload is
        broken, not idle: the connection drops (staged records are
        simply resent later) and the session slot frees."""
        limits = ServiceLimits(
            max_sessions=1,
            max_waiting_sessions=0,
            session_idle_seconds=0.1,
        )

        async def main():
            service = CollectionService(
                rounds=[(M, 0)],
                key=KEY,
                store_root=str(tmp_path / "round"),
                limits=limits,
            )
            host, port = await service.serve()
            try:
                staller = ServiceSession(
                    host, port, key=KEY, producer_id="staller", m=M
                )
                await staller.connect()
                # One complete record (staged), then a torn one.
                await staller.send_nowait(_chunk_frame(seed=1), 0)
                record = wire.dumps(
                    wire.Record(
                        m=M, round_id=0, seq=1, frame=_chunk_frame(seed=2)
                    )
                )
                staller._writer.write(record[: wire.HEADER_SIZE + 3])
                await staller._writer.drain()
                await asyncio.sleep(0.4)  # past the payload deadline
                acks = await send_records(
                    host,
                    port,
                    [_chunk_frame(seed=9)],
                    key=KEY,
                    producer_id="legit",
                    m=M,
                )
                await staller.close()
            finally:
                await service.close()
            return service, acks

        service, acks = asyncio.run(main())
        assert [a.status for a in acks] == [wire.ACK_MERGED]
        assert "mid-frame" in service.last_connection_error


class TestSessionGate:
    def test_revocation_is_checked_once_per_record(self, tmp_path):
        """The revocation/ownership gate runs once after each read
        attempt — once per record, plus the odd idle-poll tick — not
        once before and again after every frame."""
        records = 24
        calls = []

        async def scenario(service, host, port):
            is_revoked = service.keys.is_revoked

            def counting(producer_id):
                calls.append(producer_id)
                return is_revoked(producer_id)

            service.keys.is_revoked = counting
            return await send_records(
                host,
                port,
                [_chunk_frame(seed=seed) for seed in range(records)],
                key=KEY,
                producer_id="gated",
                m=M,
            )

        service, acks = _run(scenario, tmp_path)
        assert [a.status for a in acks] == [wire.ACK_MERGED] * records
        assert set(calls) == {"gated"}
        assert records <= len(calls) <= records + 4
