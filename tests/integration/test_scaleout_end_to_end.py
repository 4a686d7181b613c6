"""Scale-out collection across real OS processes, crash included.

The acceptance test for the sharded tier: a four-shard fleet, routed
producers, one shard SIGKILLed mid-round and brought back on its old
store root, blind resends from every producer — and the aggregated
round must be **bit-identical** (same digest) to a single-process run
over the same report stream.  Exactly-once is the whole product; this
test is where any crack in the ledger/spill/routing seams shows up as
a one-bit digest difference.

Forked children on a one-core box make this the slowest test in the
suite; it stays small (24 producers, 2 chunks each) but exercises
every seam: routing, crash, resume, recover, dedup, tree merge.
"""

from __future__ import annotations

import asyncio
import hashlib

import numpy as np
import pytest

from repro.pipeline import CollectionService
from repro.pipeline.collect import wire
from repro.pipeline.service import (
    RoundCoordinator,
    ShardFleet,
    aggregate_round,
    send_records,
    send_records_routed,
)

M = 32
ROUND = 3
SECRET = "fleet-producer-secret"
CONTROL_KEY = "fleet-control-secret"
SHARDS = ["alpha", "beta", "gamma", "delta"]
PRODUCERS = [f"edge-{i:03d}" for i in range(24)]
ROWS_PER_CHUNK = 2
CHUNKS = 2


def _frames_for(producer_id: str) -> list[bytes]:
    """This producer's report stream — deterministic, so the crashed
    run and the single-process reference ingest identical bits."""
    seed = int.from_bytes(
        hashlib.sha256(producer_id.encode()).digest()[:4], "little"
    )
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(CHUNKS):
        bits = (rng.random((ROWS_PER_CHUNK, M)) < 0.5).astype(np.uint8)
        frames.append(
            wire.dump_chunk(np.packbits(bits, axis=1), M, round_id=ROUND)
        )
    return frames


async def _single_process_digest(tmp_path) -> str:
    """The reference: every producer against ONE service, no fleet."""
    service = CollectionService(
        rounds=[(M, ROUND)], key=SECRET, store_root=str(tmp_path / "reference")
    )
    host, port = await service.serve()
    try:
        for producer_id in PRODUCERS:
            await send_records(
                host,
                port,
                _frames_for(producer_id),
                key=SECRET,
                producer_id=producer_id,
                m=M,
                round_id=ROUND,
            )
        return service.round(ROUND).accumulator.digest()
    finally:
        await service.close()


def test_kill_one_shard_resume_aggregate_bit_identical(tmp_path):
    async def scenario():
        reference_digest = await _single_process_digest(tmp_path)

        fleet = ShardFleet(
            SHARDS,
            fleet_root=str(tmp_path / "fleet"),
            rounds=[],
            key=SECRET,
            control_key=CONTROL_KEY,
        )
        table = await fleet.start()
        try:
            coordinator = RoundCoordinator(
                fleet.infos(), control_key=CONTROL_KEY, epoch=table.epoch
            )
            await coordinator.register_round(M, ROUND)

            by_owner: dict[str, list[str]] = {}
            for producer_id in PRODUCERS:
                owner = table.owner(producer_id).name
                by_owner.setdefault(owner, []).append(producer_id)
            # The ring must actually spread this population; otherwise
            # the crash would be a no-op and the test would prove nothing.
            assert len(by_owner) >= 3
            victim = max(by_owner, key=lambda name: len(by_owner[name]))

            # First wave: every producer ships both chunks and gets
            # per-record acks — acked means fsync'd, the crash contract.
            for producer_id in PRODUCERS:
                acks = await send_records_routed(
                    table,
                    _frames_for(producer_id),
                    key=SECRET,
                    producer_id=producer_id,
                    m=M,
                    round_id=ROUND,
                )
                assert [ack.status for ack in acks] == [wire.ACK_MERGED] * CHUNKS

            fleet.kill(victim)
            # The victim's producers cannot reach it; their blind
            # resends fail loudly instead of landing elsewhere.
            with pytest.raises((ConnectionError, OSError)):
                await send_records_routed(
                    table,
                    _frames_for(by_owner[victim][0]),
                    key=SECRET,
                    producer_id=by_owner[victim][0],
                    m=M,
                    round_id=ROUND,
                )

            info = await fleet.restart(victim, resume=True)
            recovered = await coordinator.recover_shard(info)
            assert recovered == [ROUND]
            table = fleet.table

            # Blind resend from EVERY producer — the idempotency ledger
            # must eat all of it as duplicates (the acked records
            # survived the SIGKILL on disk).
            for producer_id in PRODUCERS:
                acks = await send_records_routed(
                    table,
                    _frames_for(producer_id),
                    key=SECRET,
                    producer_id=producer_id,
                    m=M,
                    round_id=ROUND,
                    raise_on_refusal=False,
                )
                assert [ack.status for ack in acks] == [
                    wire.ACK_DUPLICATE
                ] * CHUNKS

            await coordinator.drain(ROUND)
            await coordinator.close_round(ROUND)

            result = await aggregate_round(
                fleet.infos(),
                control_key=CONTROL_KEY,
                round_id=ROUND,
                fan_in=2,
            )
            assert result.accumulator.n == (
                len(PRODUCERS) * CHUNKS * ROWS_PER_CHUNK
            )
            assert result.records_merged == len(PRODUCERS) * CHUNKS
            # The headline acceptance criterion: the crashed, resumed,
            # resent, sharded round is bit-identical to one process.
            assert result.accumulator.digest() == reference_digest

            # Fan-in shape must not change the answer (exact merges).
            wide = await aggregate_round(
                fleet.infos(),
                control_key=CONTROL_KEY,
                round_id=ROUND,
                fan_in=4,
            )
            assert wide.accumulator.digest() == reference_digest
        finally:
            fleet.stop()

    asyncio.run(scenario())
