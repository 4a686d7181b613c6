"""End-to-end acceptance: kill-and-resend is exactly-once, bit for bit.

The bar for the collection service: after a forced restart mid-round —
with a torn in-flight frame on disk and producers blindly resending
*everything* — the final estimate must be bit-identical to the
single-pass in-memory ``stream_counts`` path.  Not close: identical
float64 arrays, because exactly-once means the service aggregated the
very same integer counts, no loss and no double-count.  And producers
without the round key must merge nothing at all.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

from repro.exceptions import AuthenticationError
from repro.kernels import resolve_sampler
from repro.mechanisms import OptimizedUnaryEncoding
from repro.pipeline import (
    CollectionService,
    ServiceSession,
    iter_report_chunks,
    send_records,
    shard_bounds,
    stream_counts,
)
from repro.pipeline.collect import wire
from repro.pipeline.service.server import SERVICE_SHARD_ID

M, N, CHUNK, PRODUCERS, SEED = 24, 900, 128, 3, 42
KEY = "fedcba9876543210"


@pytest.fixture(params=["bitexact", "fast"])
def sampler(request) -> str:
    return request.param


@pytest.fixture
def workload(sampler):
    """Per-producer record frames plus the single-pass reference."""
    mechanism = OptimizedUnaryEncoding(2.0, M)
    items = np.random.default_rng(7).integers(M, size=N)
    config = resolve_sampler(sampler)
    children = np.random.SeedSequence(SEED).spawn(PRODUCERS)
    producer_frames = []
    for (start, stop), child in zip(shard_bounds(N, PRODUCERS), children):
        frames = [
            wire.dump_chunk(chunk, M)
            for chunk in iter_report_chunks(
                mechanism,
                items[start:stop],
                chunk_size=CHUNK,
                rng=config.make_generator(child),
                packed=True,
                sampler=config,
            )
        ]
        producer_frames.append(frames)
    # The single-pass in-memory reference over the same chunk streams.
    reference = stream_counts(
        mechanism,
        items[: shard_bounds(N, PRODUCERS)[0][1]],
        chunk_size=CHUNK,
        rng=resolve_sampler(sampler).make_generator(children[0]),
        packed=True,
        sampler=resolve_sampler(sampler),
    )
    for (start, stop), child in list(
        zip(shard_bounds(N, PRODUCERS), children)
    )[1:]:
        reference.merge(
            stream_counts(
                mechanism,
                items[start:stop],
                chunk_size=CHUNK,
                rng=resolve_sampler(sampler).make_generator(child),
                packed=True,
                sampler=resolve_sampler(sampler),
            )
        )
    return mechanism, producer_frames, reference


def test_kill_and_resend_is_bit_identical(workload, tmp_path):
    mechanism, producer_frames, reference = workload
    root = str(tmp_path / "round")

    async def first_run():
        """Partial round: every producer gets only some records acked."""
        service = CollectionService(rounds=[(M, 0)], key=KEY, store_root=root)
        host, port = await service.serve()
        try:
            for index, frames in enumerate(producer_frames):
                prefix = frames[: max(1, len(frames) // 2)]
                acks = await send_records(
                    host,
                    port,
                    prefix,
                    key=KEY,
                    producer_id=f"producer-{index}",
                    m=M,
                )
                assert all(a.status == wire.ACK_MERGED for a in acks)
        finally:
            await service.abort()  # crash-adjacent: no final snapshot
        return service

    service = asyncio.run(first_run())
    acked_before = service.records_merged
    assert 0 < acked_before < sum(len(f) for f in producer_frames)

    # Emulate the torn frame a kill leaves behind: half of an in-flight
    # record appended to the spill after the last fsync'd commit.
    torn = producer_frames[0][-1]
    with open(service.round(0).store.chunk_path(SERVICE_SHARD_ID), "ab") as handle:
        handle.write(torn[: len(torn) // 2])

    async def resumed_run():
        """Restart, then every producer blindly resends EVERYTHING."""
        service = CollectionService(
            rounds=[(M, 0)],
            key=KEY,
            store_root=root,
            resume=True,
        )
        assert service.recovered_records == acked_before
        assert service.recovered_spill_bytes_discarded == len(torn) // 2
        host, port = await service.serve()
        try:
            # A keyless producer hammers the service mid-round: nothing.
            with pytest.raises(AuthenticationError):
                await send_records(
                    host,
                    port,
                    producer_frames[0],
                    key="not-the-round-key",
                    producer_id="intruder",
                    m=M,
                )
            statuses = []
            for index, frames in enumerate(producer_frames):
                acks = await send_records(
                    host,
                    port,
                    frames,  # blind full resend, seq 0..len-1
                    key=KEY,
                    producer_id=f"producer-{index}",
                    m=M,
                )
                statuses.extend(ack.status for ack in acks)
        finally:
            await service.close()
        return service, statuses

    service, statuses = asyncio.run(resumed_run())
    total = sum(len(frames) for frames in producer_frames)
    assert statuses.count(wire.ACK_DUPLICATE) == acked_before
    assert statuses.count(wire.ACK_MERGED) == total - acked_before
    assert "intruder" not in service.producers_seen

    # The acceptance bar: bit-identical to the in-memory single pass.
    assert service.round(0).accumulator.digest() == reference.digest()
    assert np.array_equal(
        service.round(0).accumulator.estimate(mechanism),
        reference.estimate(mechanism),
    )

    # The closed round is durable and self-consistent: snapshot matches
    # an out-of-core replay of the committed spill, and a third start
    # reconstructs the same state from disk alone.
    audit = service.round(0).store.audit()
    assert audit[SERVICE_SHARD_ID]["match"] is True
    third = CollectionService(rounds=[(M, 0)], key=KEY, store_root=root, resume=True)
    assert third.round(0).accumulator.digest() == reference.digest()
    assert third.recovered_records == total


def test_resume_with_concurrent_producers(workload, tmp_path):
    """Resends interleaved with fresh records across concurrent sessions
    still commit exactly once each."""
    mechanism, producer_frames, reference = workload
    root = str(tmp_path / "round")

    async def scenario():
        service = CollectionService(rounds=[(M, 0)], key=KEY, store_root=root)
        host, port = await service.serve()

        async def producer(index: int, frames):
            # Each producer sends its stream twice, concurrently with
            # everyone else doing the same.
            async with ServiceSession(
                host, port, key=KEY, producer_id=f"p{index}", m=M
            ) as session:
                for seq, frame in enumerate(frames):
                    await session.send(frame, seq)
            acks = await send_records(
                host, port, frames, key=KEY, producer_id=f"p{index}", m=M
            )
            return [ack.status for ack in acks]

        try:
            results = await asyncio.gather(
                *(
                    producer(index, frames)
                    for index, frames in enumerate(producer_frames)
                )
            )
        finally:
            await service.close()
        return service, results

    service, results = asyncio.run(scenario())
    for statuses in results:
        assert statuses == [wire.ACK_DUPLICATE] * len(statuses)
    assert service.round(0).accumulator.digest() == reference.digest()
    assert np.array_equal(
        service.round(0).accumulator.estimate(mechanism),
        reference.estimate(mechanism),
    )
