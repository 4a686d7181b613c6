"""Fault-injection acceptance: every injected fault recovers bit-identical.

Each test arms one fault from the harness (torn spill/ledger writes,
fsync-time crashes, non-fatal fsync errors, short reads at recovery,
mid-frame disconnects, torn tails between runs), drives a real service
over a real socket into it, then resumes and has every producer blindly
resend its full stream.  The acceptance bar is the strongest one the
stack makes anywhere: the recovered round's counts and estimates are
**bit-identical** to the single-pass in-memory ``stream_counts``
reference — no loss, no double-count, for single-round and multi-round
services alike.
"""

from __future__ import annotations

import asyncio

import fault_harness
import numpy as np
import pytest

from repro.kernels import resolve_sampler
from repro.mechanisms import OptimizedUnaryEncoding
from repro.pipeline import (
    CollectionService,
    KeyRegistry,
    iter_report_chunks,
    send_records,
    shard_bounds,
    stream_counts,
)
from repro.pipeline.collect import wire

M, N, CHUNK, PRODUCERS, SEED = 16, 240, 64, 2, 11
KEY = "fault-injection-key"


def build_workload(m: int, round_id: int, seed: int = SEED):
    """Per-producer record frames plus the single-pass reference."""
    mechanism = OptimizedUnaryEncoding(2.0, m)
    items = np.random.default_rng(seed).integers(m, size=N)
    config = resolve_sampler("fast")
    children = np.random.SeedSequence(seed).spawn(PRODUCERS)
    producer_frames = []
    reference = None
    for (start, stop), child in zip(shard_bounds(N, PRODUCERS), children):
        frames = [
            wire.dump_chunk(chunk, m, round_id=round_id)
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
        shard = stream_counts(
            mechanism,
            items[start:stop],
            chunk_size=CHUNK,
            rng=config.make_generator(child),
            packed=True,
            round_id=round_id,
            sampler=config,
        )
        reference = shard if reference is None else reference.merge(shard)
    return mechanism, producer_frames, reference


@pytest.fixture(scope="module")
def workload():
    return build_workload(M, 0)


def _ingest_until_fault(injector, root, producer_frames):
    """Phase 1: serve and send until the armed fault fires (or all lands).

    Returns the (possibly crashed) service.  On a fatal fault the
    service object is torn down the way a dead process would be — no
    file IO, no graceful close.
    """

    async def main():
        service = CollectionService(rounds=[(M, 0)], key=KEY, store_root=root)
        host, port = await service.serve()
        try:
            for index, frames in enumerate(producer_frames):
                await send_records(
                    host, port, frames, key=KEY, producer_id=f"p{index}", m=M
                )
        except Exception:
            pass  # the fault firing mid-send is the point
        if injector.crashed:
            await fault_harness.abandon(service)
        else:
            await service.abort()
        return service

    return asyncio.run(main())


def _resume_and_resend(root, producer_frames, *, key=KEY, m=M, round_id=0):
    """Phase 2: resume, blind-resend everything, close gracefully."""

    async def main():
        service = CollectionService(
            rounds=[(m, round_id)], key=key, store_root=root, resume=True
        )
        host, port = await service.serve()
        statuses = []
        try:
            for index, frames in enumerate(producer_frames):
                acks = await send_records(
                    host,
                    port,
                    frames,
                    key=key,
                    producer_id=f"p{index}",
                    m=m,
                    round_id=round_id,
                )
                statuses.extend(ack.status for ack in acks)
        finally:
            await service.close()
        return service, statuses

    return asyncio.run(main())


def _assert_bit_identical(service_accumulator, mechanism, reference):
    assert service_accumulator.digest() == reference.digest()
    assert np.array_equal(
        service_accumulator.estimate(mechanism),
        reference.estimate(mechanism),
    )


FATAL_FAULTS = {
    "torn-spill-write": lambda inj: inj.torn_write(".chunks", nth=2),
    "spill-fsync-crash": lambda inj: inj.crash_on_fsync(".chunks", nth=2),
    "torn-ledger-write": lambda inj: inj.torn_write("round.ledger", nth=2, keep=7),
    "ledger-fsync-crash": lambda inj: inj.crash_on_fsync("round.ledger", nth=1),
}


class TestSingleRoundRecovery:
    @pytest.mark.parametrize("fault", sorted(FATAL_FAULTS))
    def test_crash_fault_recovers_bit_identical(
        self, fault, fault_injector, workload, tmp_path
    ):
        mechanism, producer_frames, reference = workload
        root = str(tmp_path / "round")

        FATAL_FAULTS[fault](fault_injector)
        _ingest_until_fault(fault_injector, root, producer_frames)
        assert fault_injector.fired, "the armed fault never fired"
        assert fault_injector.crashed

        fault_injector.disarm()
        service, statuses = _resume_and_resend(root, producer_frames)
        total = sum(len(frames) for frames in producer_frames)
        assert statuses.count(wire.ACK_REFUSED) == 0
        assert len(statuses) == total
        assert service.records_merged == total  # incl. pre-crash commits
        _assert_bit_identical(service.round(0).accumulator, mechanism, reference)

    def test_nonfatal_fsync_error_rolls_back_then_recovers(
        self, fault_injector, workload, tmp_path
    ):
        """The ENOSPC shape: the fsync fails but the process lives — the
        service rolls the batch back, the producer resends on a fresh
        connection, and a later restart sees a consistent round."""
        mechanism, producer_frames, reference = workload
        root = str(tmp_path / "round")
        fault_injector.io_error_on_fsync(".chunks", nth=1)

        async def main():
            service = CollectionService(rounds=[(M, 0)], key=KEY, store_root=root)
            host, port = await service.serve()
            statuses = []
            try:
                for index, frames in enumerate(producer_frames):
                    for attempt in range(2):  # retry after the shed
                        try:
                            acks = await send_records(
                                host,
                                port,
                                frames,
                                key=KEY,
                                producer_id=f"p{index}",
                                m=M,
                            )
                        except Exception:
                            continue  # connection died with the batch
                        statuses.extend(ack.status for ack in acks)
                        break
            finally:
                await service.close()
            return service, statuses

        service, statuses = asyncio.run(main())
        assert fault_injector.fired
        assert not fault_injector.crashed
        assert statuses.count(wire.ACK_REFUSED) == 0
        _assert_bit_identical(service.round(0).accumulator, mechanism, reference)

        # And the durable state restarts clean.
        fault_injector.disarm()
        resumed = CollectionService(
            rounds=[(M, 0)],
            key=KEY,
            store_root=root,
            resume=True,
        )
        asyncio.run(resumed.abort())
        _assert_bit_identical(resumed.round(0).accumulator, mechanism, reference)

    def test_mid_frame_disconnect_then_resend(
        self, fault_injector, workload, tmp_path
    ):
        """A producer dying mid-frame merges nothing for that frame; its
        reconnect-and-resend lands everything exactly once."""
        mechanism, producer_frames, reference = workload
        root = str(tmp_path / "round")

        async def main():
            service = CollectionService(rounds=[(M, 0)], key=KEY, store_root=root)
            host, port = await service.serve()
            try:
                await fault_harness.disconnect_mid_frame(
                    host,
                    port,
                    key=KEY,
                    producer_id="p0",
                    m=M,
                    frame=producer_frames[0][0],
                    seq=0,
                )
                statuses = []
                for index, frames in enumerate(producer_frames):
                    acks = await send_records(
                        host, port, frames, key=KEY, producer_id=f"p{index}", m=M
                    )
                    statuses.extend(ack.status for ack in acks)
            finally:
                await service.close()
            return service, statuses

        service, statuses = asyncio.run(main())
        assert "mid-frame" in (service.last_connection_error or "") or (
            service.connections_failed >= 1
        )
        assert statuses.count(wire.ACK_REFUSED) == 0
        assert statuses.count(wire.ACK_DUPLICATE) == 0  # nothing staged twice
        _assert_bit_identical(service.round(0).accumulator, mechanism, reference)

    def test_torn_ledger_tail_between_runs(
        self, fault_injector, workload, tmp_path
    ):
        """Kill-mid-append on the *ledger*: the torn trailing entry is
        dropped at load, the spill truncates back to the surviving
        committed offset, and resends reconcile."""
        mechanism, producer_frames, reference = workload
        root = str(tmp_path / "round")
        service = _ingest_until_fault(fault_injector, root, producer_frames)
        ledger_path = service.round(0).ledger.path

        fault_harness.tear_tail(ledger_path, 11)  # mid-entry, torn CRC
        service, statuses = _resume_and_resend(root, producer_frames)
        assert statuses.count(wire.ACK_REFUSED) == 0
        # Exactly one record lost its ledger entry and was re-merged.
        assert statuses.count(wire.ACK_MERGED) == 1
        _assert_bit_identical(service.round(0).accumulator, mechanism, reference)

    def test_short_read_of_ledger_at_recovery(
        self, fault_injector, workload, tmp_path
    ):
        """A filesystem that lost the ledger tail (surfaced as a short
        read at load) behaves exactly like a torn tail: the unread
        suffix is discarded, resends reconcile, state is identical."""
        mechanism, producer_frames, reference = workload
        root = str(tmp_path / "round")
        _ingest_until_fault(fault_injector, root, producer_frames)

        fault_injector.short_read("round.ledger", nth=1)  # load() reads once
        service, statuses = _resume_and_resend(root, producer_frames)
        assert any("short read" in what for what in fault_injector.fired)
        assert statuses.count(wire.ACK_REFUSED) == 0
        _assert_bit_identical(service.round(0).accumulator, mechanism, reference)


class TestMultiRoundRecovery:
    ROUNDS = ((16, 1), (24, 2))

    @pytest.fixture(scope="class")
    def workloads(self):
        return {
            round_id: build_workload(m, round_id, seed=SEED + round_id)
            for m, round_id in self.ROUNDS
        }

    @pytest.mark.parametrize(
        "arm",
        [
            pytest.param(
                lambda inj: inj.torn_write(
                    "round_00001/shard_00000.chunks", nth=2
                ),
                id="round1-spill",
            ),
            pytest.param(
                lambda inj: inj.crash_on_fsync(
                    "round_00002/round.ledger", nth=1
                ),
                id="round2-ledger-fsync",
            ),
        ],
    )
    def test_multi_round_resume_is_bit_identical_per_round(
        self, arm, fault_injector, workloads, tmp_path
    ):
        """A fault in ONE round's files mid-ingest crashes the process;
        multi-round resume replays every round's ledger and full blind
        resends land both rounds bit-identical — records never leak
        between rounds."""
        root = str(tmp_path / "rounds")
        keys = KeyRegistry({f"p{i}": KEY + str(i) for i in range(PRODUCERS)})
        specs = [{"m": m, "round_id": rid} for m, rid in self.ROUNDS]
        arm(fault_injector)

        async def phase1():
            service = CollectionService(
                rounds=specs, keys=keys, store_root=root
            )
            host, port = await service.serve()
            try:
                # Interleave rounds and producers so the fault lands
                # amid genuinely multiplexed traffic.
                for index in range(PRODUCERS):
                    for _m, round_id in self.ROUNDS:
                        _, frames, _ = workloads[round_id]
                        await send_records(
                            host,
                            port,
                            frames[index],
                            key=KEY + str(index),
                            producer_id=f"p{index}",
                            m=workloads[round_id][2].m,
                            round_id=round_id,
                        )
            except Exception:
                pass
            if fault_injector.crashed:
                await fault_harness.abandon(service)
            else:
                await service.abort()

        asyncio.run(phase1())
        assert fault_injector.fired, "the armed fault never fired"
        fault_injector.disarm()

        async def phase2():
            service = CollectionService(
                rounds=specs, keys=keys, store_root=root, resume=True
            )
            host, port = await service.serve()
            statuses = []
            try:
                for index in range(PRODUCERS):
                    for _m, round_id in self.ROUNDS:
                        _, frames, _ = workloads[round_id]
                        acks = await send_records(
                            host,
                            port,
                            frames[index],
                            key=KEY + str(index),
                            producer_id=f"p{index}",
                            m=workloads[round_id][2].m,
                            round_id=round_id,
                        )
                        statuses.extend(ack.status for ack in acks)
            finally:
                await service.close()
            return service, statuses

        service, statuses = asyncio.run(phase2())
        assert statuses.count(wire.ACK_REFUSED) == 0
        for _m, round_id in self.ROUNDS:
            mechanism, frames, reference = workloads[round_id]
            state = service.round(round_id)
            assert state.records_merged == sum(len(f) for f in frames)
            _assert_bit_identical(state.accumulator, mechanism, reference)
