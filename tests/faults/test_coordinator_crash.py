"""Coordinator ``kill -9``: the journal makes the round recoverable.

The cross-process half of coordinator durability (the in-process half
is ``tests/service/test_coordinator_durability.py``): a coordinator
running in its own OS process registers a round across a real shard
fleet, producers ship acked records — and then the coordinator is
SIGKILLed with the round live.  Without the journal this is the
unrecoverable case: the registration token died with the process, so
nobody could ever drain or close the round again.  With it, a fresh
process resumes from the journal file alone, re-asserts ownership
under the *original* token (a mismatched token would be refused
loudly, so reconcile succeeding IS the token-durability proof), eats
every producer's blind resend as duplicates, and closes the round to
the same digest an uninterrupted single-process run produces.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing

import numpy as np

from repro.pipeline import CollectionService
from repro.pipeline.collect import wire
from repro.pipeline.service import (
    RoundCoordinator,
    ShardFleet,
    aggregate_round,
    send_records,
    send_records_routed,
)
from repro.pipeline.service.lifecycle import SERVING

M = 32
ROUND = 7
SECRET = "fleet-producer-secret"
CONTROL_KEY = "fleet-control-secret"
SHARDS = ["alpha", "beta", "gamma"]
PRODUCERS = [f"edge-{i:03d}" for i in range(15)]
ROWS_PER_CHUNK = 2
CHUNKS = 2


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


def _coordinator_child_main(config: dict, ready) -> None:
    """Child-process coordinator: journal, register the round, then
    hang until SIGKILL — the crash leaves only the journal behind."""
    from repro.pipeline.service import RoundCoordinator, ShardInfo

    async def main() -> None:
        try:
            coordinator = RoundCoordinator(
                [
                    ShardInfo(name, host, int(port))
                    for name, host, port in config["shards"]
                ],
                control_key=config["control_key"],
                epoch=int(config["epoch"]),
                journal=config["journal"],
            )
            await coordinator.register_round(
                int(config["m"]), int(config["round_id"])
            )
        except BaseException as exc:  # the parent needs the reason
            ready.put({"error": f"{type(exc).__name__}: {exc}"})
            raise
        ready.put({"registered": config["round_id"]})
        await asyncio.Event().wait()  # parked; only SIGKILL ends this

    asyncio.run(main())


def test_sigkill_coordinator_resume_from_journal_bit_identical(tmp_path):
    async def scenario():
        reference_digest = await _single_process_digest(tmp_path)
        journal_path = str(tmp_path / "coordinator.journal")

        fleet = ShardFleet(
            SHARDS,
            fleet_root=str(tmp_path / "fleet"),
            rounds=[],
            key=SECRET,
            control_key=CONTROL_KEY,
        )
        table = await fleet.start()
        try:
            # The coordinator runs (and dies) in its own process; only
            # the journal file crosses back to the parent.
            ctx = multiprocessing.get_context("fork")
            ready = ctx.Queue()
            child = ctx.Process(
                target=_coordinator_child_main,
                args=(
                    {
                        "shards": [
                            (info.name, info.host, info.port)
                            for info in fleet.infos()
                        ],
                        "epoch": table.epoch,
                        "control_key": CONTROL_KEY,
                        "journal": journal_path,
                        "m": M,
                        "round_id": ROUND,
                    },
                    ready,
                ),
                daemon=True,
                name="coordinator",
            )
            child.start()
            report = ready.get(timeout=30.0)
            assert report == {"registered": ROUND}

            # Producers ship and get acks — records the recovery must
            # not lose live on the shards, but the round's token lives
            # only in the coordinator's journal.
            for producer_id in PRODUCERS:
                acks = await send_records_routed(
                    table,
                    _frames_for(producer_id),
                    key=SECRET,
                    producer_id=producer_id,
                    m=M,
                    round_id=ROUND,
                )
                assert [a.status for a in acks] == [wire.ACK_MERGED] * CHUNKS

            child.kill()  # SIGKILL mid-round: no drain, no goodbye
            child.join(timeout=10.0)
            assert not child.is_alive()

            # A fresh process resumes from the journal file alone.
            resumed = RoundCoordinator.resume(
                journal_path, control_key=CONTROL_KEY
            )
            assert sorted(resumed.rounds) == [ROUND]
            assert resumed.phase(ROUND) == SERVING
            summary = await resumed.reconcile()
            # Reconcile re-opened the round under the journaled token;
            # the shards (which hold the original) accepted it — a
            # wrong token would have been refused as "already hosted".
            assert summary == {"rounds": [ROUND], "migration_rerun": False}

            # Blind resends from every producer: all duplicates.
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
                assert [a.status for a in acks] == [
                    wire.ACK_DUPLICATE
                ] * CHUNKS

            # The resumed coordinator owns the lifecycle end-to-end.
            await resumed.drain(ROUND)
            await resumed.close_round(ROUND)
            result = await aggregate_round(
                fleet.infos(),
                control_key=CONTROL_KEY,
                round_id=ROUND,
                fan_in=2,
            )
            assert result.accumulator.n == (
                len(PRODUCERS) * CHUNKS * ROWS_PER_CHUNK
            )
            assert result.accumulator.digest() == reference_digest
            await resumed.close()
        finally:
            fleet.stop()

    asyncio.run(scenario())
