"""Live rebalancing under traffic: grow, shrink, lose nothing.

The acceptance test for the migration tentpole: producers stream
records *continuously* while the fleet grows from two shards to three
(auto-discovery — the new shard announces itself over ``join-fleet``
and the coordinator migrates records onto it) and then shrinks back to
two (an explicit removal migration that drains the leaving shard).
Every committed record must end the round on exactly one shard: the
aggregated digest is bit-identical to a single-process run over the
same report stream, which a single lost or double-counted record would
break.

Producers are deliberately naive: they hold whatever table they last
saw, retry on connection errors, and blind-resend whole batches on
MOVED — the exact client behavior the migration flow must absorb.
"""

from __future__ import annotations

import asyncio
import hashlib

import numpy as np

from repro.exceptions import MovedError, ServiceError
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
ROUND = 5
SECRET = "fleet-producer-secret"
CONTROL_KEY = "fleet-control-secret"
PRODUCERS = [f"edge-{i:03d}" for i in range(18)]
ROWS_PER_CHUNK = 2
CHUNKS = 4


def _frames_for(producer_id: str) -> list[bytes]:
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


async def _stream(producer_id: str, shared: dict) -> None:
    """One producer: ship each chunk as its own batch, surviving every
    rebalance symptom (stale table, MOVED bounces, dead connections)
    with plain retries and blind resends."""
    for seq, frame in enumerate(_frames_for(producer_id)):
        for attempt in range(40):
            try:
                await send_records_routed(
                    shared["table"],
                    [frame],
                    key=SECRET,
                    producer_id=producer_id,
                    m=M,
                    round_id=ROUND,
                    start_seq=seq,
                    raise_on_refusal=False,
                    control_key=CONTROL_KEY,
                )
                break
            except (MovedError, ServiceError, ConnectionError, OSError):
                await asyncio.sleep(0.05)
        else:
            raise AssertionError(
                f"{producer_id} chunk {seq} never got through"
            )
        # Yield so the rebalance interleaves with live traffic.
        await asyncio.sleep(0)


def test_grow_and_shrink_under_live_traffic_bit_identical(tmp_path):
    async def scenario():
        reference_digest = await _single_process_digest(tmp_path)

        fleet = ShardFleet(
            ["alpha", "beta"],
            fleet_root=str(tmp_path / "fleet"),
            rounds=[],
            key=SECRET,
            control_key=CONTROL_KEY,
        )
        table = await fleet.start()
        try:
            coordinator = RoundCoordinator(
                fleet.infos(),
                control_key=CONTROL_KEY,
                epoch=table.epoch,
                journal=str(tmp_path / "coordinator.journal"),
            )
            await coordinator.serve()
            await coordinator.register_round(M, ROUND)

            shared = {"table": coordinator.table}
            producers = [
                asyncio.ensure_future(_stream(producer_id, shared))
                for producer_id in PRODUCERS
            ]
            # Let the first chunks land so the migrations move real
            # committed records, not empty ledgers.
            await asyncio.sleep(0.3)

            # GROW under traffic: the new shard announces itself; the
            # coordinator opens the round on it and migrates its slice.
            await fleet.add_shard("gamma", coordinator=coordinator.address)
            assert "gamma" in coordinator.table.names()
            grown = coordinator.table
            assert any(
                grown.owner(p).name == "gamma" for p in PRODUCERS
            )  # the ring actually handed gamma a slice
            shared["table"] = grown

            await asyncio.sleep(0.2)

            # SHRINK under traffic: beta leaves; its records must drain
            # onto the survivors before it stops answering for them.
            assert any(grown.owner(p).name == "beta" for p in PRODUCERS)
            stats = await coordinator.migrate(grown.without_shard("beta"))
            assert stats["epoch"] == coordinator.table.epoch
            shared["table"] = coordinator.table
            assert coordinator.table.names() == ["alpha", "gamma"]

            await asyncio.gather(*producers)

            await coordinator.drain(ROUND)
            await coordinator.close_round(ROUND)

            result = await aggregate_round(
                coordinator.table.shards(),
                control_key=CONTROL_KEY,
                round_id=ROUND,
                fan_in=2,
            )
            # Zero loss, zero double-count, across two live migrations:
            # exact record count and a bit-identical digest.
            assert result.accumulator.n == (
                len(PRODUCERS) * CHUNKS * ROWS_PER_CHUNK
            )
            assert result.records_merged == len(PRODUCERS) * CHUNKS
            assert result.accumulator.digest() == reference_digest
            await coordinator.close()
        finally:
            fleet.stop()

    asyncio.run(scenario())
