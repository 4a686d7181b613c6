"""Shard-to-shard record migration: migrate-out / migrate-in.

The live-rebalance primitive, exercised at the control-plane level
against two real services: records committed for a producer the new
routing table moves must transfer digest-verified, dedup blind resends
on the new owner, be refused with MOVED on the old owner, and the whole
flow must be idempotent (a coordinator crash between the two ops re-runs
both).  Also pins the idempotent ``open-round`` acknowledgement and the
commit scheduler's migration pause.
"""

from __future__ import annotations

import asyncio
import hashlib

import numpy as np
import pytest

from repro.exceptions import ControlError, MovedError, ServiceError
from repro.pipeline import CollectionService
from repro.pipeline.collect import wire
from repro.pipeline.service import (
    RoutingTable,
    ShardInfo,
    control_call,
    send_records,
)

M = 16
KEY = "0011223344556677"
CONTROL_KEY = "fleet-control-secret"
CANDIDATES = [f"producer-{i:02d}" for i in range(32)]


def _chunk_frame(seed: int, round_id: int = 0) -> bytes:
    rng = np.random.default_rng(seed)
    bits = (rng.random((4, M)) < 0.5).astype(np.uint8)
    return wire.dump_chunk(np.packbits(bits, axis=1), M, round_id=round_id)


def _run_pair(scenario, tmp_path):
    """Two shard services, alpha owning everyone under the initial table."""

    async def main():
        alpha = CollectionService(
            rounds=[(M, 0)],
            key=KEY,
            store_root=str(tmp_path / "alpha"),
            control_key=CONTROL_KEY,
            shard_name="alpha",
        )
        beta = CollectionService(
            rounds=[(M, 0)],
            key=KEY,
            store_root=str(tmp_path / "beta"),
            control_key=CONTROL_KEY,
            shard_name="beta",
        )
        a_host, a_port = await alpha.serve()
        b_host, b_port = await beta.serve()
        a_info = ShardInfo("alpha", a_host, a_port)
        b_info = ShardInfo("beta", b_host, b_port)
        alpha.install_routing(RoutingTable([a_info], epoch=1))
        try:
            await scenario(alpha, beta, a_info, b_info)
        finally:
            await alpha.close()
            await beta.close()

    asyncio.run(main())


def _split_by_new_owner(a_info, b_info):
    """A (mover, stayer) producer pair under the two-shard table."""
    table = RoutingTable([a_info, b_info], epoch=2)
    movers = [p for p in CANDIDATES if table.owner(p).name == "beta"]
    stayers = [p for p in CANDIDATES if table.owner(p).name == "alpha"]
    assert movers and stayers  # the ring spreads 32 names
    return table, movers[0], stayers[0]


async def _migrate_out(info, round_id: int, epoch: int):
    return await control_call(
        info.host,
        info.port,
        key=CONTROL_KEY,
        op="migrate-out",
        body={"round_id": round_id, "epoch": epoch},
    )


async def _migrate_in(info, round_id: int, body_entries, attachment):
    offset = 0
    entries = []
    for entry in body_entries:
        frame = attachment[offset : offset + entry["length"]]
        offset += entry["length"]
        assert hashlib.sha256(frame).hexdigest() == entry["digest"]
        entries.append(
            {
                "producer": entry["producer"],
                "seq": entry["seq"],
                "digest": entry["digest"],
                "frame": frame.hex(),
            }
        )
    assert offset == len(attachment)
    reply, _ = await control_call(
        info.host,
        info.port,
        key=CONTROL_KEY,
        op="migrate-in",
        body={"round_id": round_id, "entries": entries},
    )
    return reply


class TestMigrationFlow:
    def test_records_follow_their_producer(self, tmp_path):
        async def scenario(alpha, beta, a_info, b_info):
            table2, mover, stayer = _split_by_new_owner(a_info, b_info)
            for producer, seed in ((mover, 1), (stayer, 2)):
                await send_records(
                    a_info.host,
                    a_info.port,
                    [_chunk_frame(seed), _chunk_frame(seed + 10)],
                    key=KEY,
                    producer_id=producer,
                    m=M,
                    round_id=0,
                )
            assert alpha.round(0).records_merged == 4
            digest_before = alpha.round(0).accumulator.digest()

            beta.install_routing(table2)
            await control_call(
                a_info.host, a_info.port, key=CONTROL_KEY,
                op="route-update", body={"table": table2.to_payload()},
            )
            body, attachment = await _migrate_out(a_info, 0, epoch=2)
            assert body["producers"] == [mover]
            assert [e["producer"] for e in body["entries"]] == [mover] * 2
            assert [e["seq"] for e in body["entries"]] == [0, 1]

            # The old owner already serves without the mover's records.
            state = alpha.round(0)
            assert state.records_merged == 2
            assert state.stats()["producers_excluded"] == [mover]
            assert state.accumulator.digest() != digest_before

            reply = await _migrate_in(b_info, 0, body["entries"], attachment)
            assert reply == {"round_id": 0, "installed": 2, "duplicates": 0}
            assert beta.round(0).records_merged == 2

            # Nothing lost, nothing double-counted: the two shards now
            # hold exactly the four committed records between them.
            assert (
                alpha.round(0).accumulator.n + beta.round(0).accumulator.n
                == 4 * 4  # 4 chunks of 4 rows
            )

        _run_pair(scenario, tmp_path)

    def test_transfer_is_idempotent_end_to_end(self, tmp_path):
        """Re-running migrate-out + migrate-in (the coordinator died in
        between) re-returns the same entries and dedups them all."""

        async def scenario(alpha, beta, a_info, b_info):
            table2, mover, _stayer = _split_by_new_owner(a_info, b_info)
            await send_records(
                a_info.host, a_info.port, [_chunk_frame(3)],
                key=KEY, producer_id=mover, m=M, round_id=0,
            )
            beta.install_routing(table2)
            await control_call(
                a_info.host, a_info.port, key=CONTROL_KEY,
                op="route-update", body={"table": table2.to_payload()},
            )
            first, attachment = await _migrate_out(a_info, 0, epoch=2)
            reply = await _migrate_in(b_info, 0, first["entries"], attachment)
            assert reply["installed"] == 1

            again, attachment2 = await _migrate_out(a_info, 0, epoch=2)
            assert again["entries"] == first["entries"]
            assert attachment2 == attachment
            rerun = await _migrate_in(b_info, 0, again["entries"], attachment2)
            assert rerun == {"round_id": 0, "installed": 0, "duplicates": 1}
            assert beta.round(0).records_merged == 1

        _run_pair(scenario, tmp_path)

    def test_blind_resend_lands_as_duplicate_on_new_owner(self, tmp_path):
        async def scenario(alpha, beta, a_info, b_info):
            table2, mover, _stayer = _split_by_new_owner(a_info, b_info)
            frames = [_chunk_frame(4), _chunk_frame(5)]
            await send_records(
                a_info.host, a_info.port, frames,
                key=KEY, producer_id=mover, m=M, round_id=0,
            )
            beta.install_routing(table2)
            await control_call(
                a_info.host, a_info.port, key=CONTROL_KEY,
                op="route-update", body={"table": table2.to_payload()},
            )
            body, attachment = await _migrate_out(a_info, 0, epoch=2)
            await _migrate_in(b_info, 0, body["entries"], attachment)

            # The producer blind-resends its whole batch to the new
            # owner: every record must dedup against the transferred
            # ledger entries.
            acks = await send_records(
                b_info.host, b_info.port, frames,
                key=KEY, producer_id=mover, m=M, round_id=0,
                raise_on_refusal=False,
            )
            assert [a.status for a in acks] == [wire.ACK_DUPLICATE] * 2
            assert beta.round(0).records_merged == 2

            # And the OLD owner refuses it with MOVED at the handshake.
            with pytest.raises(MovedError) as excinfo:
                await send_records(
                    a_info.host, a_info.port, frames,
                    key=KEY, producer_id=mover, m=M, round_id=0,
                )
            assert excinfo.value.shard == "beta"
            assert excinfo.value.epoch == 2

        _run_pair(scenario, tmp_path)

    def test_migrate_out_pins_the_installed_epoch(self, tmp_path):
        async def scenario(alpha, beta, a_info, b_info):
            with pytest.raises(ControlError, match="push the table first"):
                await _migrate_out(a_info, 0, epoch=7)

        _run_pair(scenario, tmp_path)


class TestIdempotentOpenRound:
    def test_same_token_reregistration_is_acknowledged(self, tmp_path):
        async def scenario(alpha, beta, a_info, b_info):
            token = "ab" * 16
            body = {"m": M, "round_id": 9, "token": token}
            first, _ = await control_call(
                a_info.host, a_info.port, key=CONTROL_KEY,
                op="open-round", body=body,
            )
            assert "already" not in first
            again, _ = await control_call(
                a_info.host, a_info.port, key=CONTROL_KEY,
                op="open-round", body=body,
            )
            assert again["already"] is True
            assert again["round_id"] == 9 and again["m"] == M

            # A DIFFERENT token is not the same coordinator: refused
            # loudly instead of silently re-scoped.
            with pytest.raises(ControlError, match="already hosted"):
                await control_call(
                    a_info.host, a_info.port, key=CONTROL_KEY,
                    op="open-round",
                    body={"m": M, "round_id": 9, "token": "cd" * 16},
                )

        _run_pair(scenario, tmp_path)


class TestSchedulerPause:
    def test_pause_is_exclusive_and_releases_queued_commits(self, tmp_path):
        async def scenario(alpha, beta, a_info, b_info):
            state = alpha.round(0)
            async with state.scheduler.paused():
                with pytest.raises(ServiceError, match="already paused"):
                    async with state.scheduler.paused():
                        pass  # pragma: no cover
                # A commit submitted during the pause queues...
                sender = asyncio.ensure_future(
                    send_records(
                        a_info.host, a_info.port, [_chunk_frame(6)],
                        key=KEY, producer_id=CANDIDATES[0], m=M, round_id=0,
                    )
                )
                await asyncio.sleep(0.05)
                assert not sender.done()
                assert state.records_merged == 0
            # ...and drains the moment the pause lifts.
            acks = await asyncio.wait_for(sender, timeout=5)
            assert [a.status for a in acks] == [wire.ACK_MERGED]
            assert state.records_merged == 1

        _run_pair(scenario, tmp_path)
