"""Fault injection for the split-trust tier: keepers die, tallies don't.

The split-trust acceptance bar extends the exactly-once one: a share
keeper that crashes mid-round (fsync-time crash, torn spill tail) and
restarts with ``resume=True`` replays to **the same blinding-word sums**
— blinding secrets derive from the stable session transcript, so a
blind resend re-ships byte-identical share frames, the keeper's ledger
dedups them, and the combined decode stays bit-identical to the direct
unblinded tally.  And the flip side: a keeper that is *permanently*
lost must fail the round loudly — the residual without its stream is
uniform noise, and the combine step refuses to present noise as counts.
"""

from __future__ import annotations

import asyncio
import os

import fault_harness
import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.kernels import resolve_sampler
from repro.mechanisms import OptimizedUnaryEncoding
from repro.pipeline import (
    CollectionService,
    CountAccumulator,
    iter_report_chunks,
    shard_bounds,
)
from repro.pipeline.collect import wire
from repro.pipeline.service import combine_accumulators, send_split_trust

M, N, CHUNK, PRODUCERS, SEED = 16, 240, 64, 2, 11
COLLECTOR_KEY = "fault-collector-key"
KEEPER_KEYS = {
    "keeper-a": "fault-keeper-a-key",
    "keeper-b": "fault-keeper-b-key",
}


def build_workload():
    """Per-producer packed chunks plus the direct (unblinded) reference."""
    mechanism = OptimizedUnaryEncoding(2.0, M)
    items = np.random.default_rng(SEED).integers(M, size=N)
    config = resolve_sampler("fast")
    children = np.random.SeedSequence(SEED).spawn(PRODUCERS)
    producer_chunks = []
    reference = CountAccumulator(M)
    for (start, stop), child in zip(shard_bounds(N, PRODUCERS), children):
        chunks = list(
            iter_report_chunks(
                mechanism,
                items[start:stop],
                chunk_size=CHUNK,
                rng=config.make_generator(child),
                packed=True,
                sampler=config,
            )
        )
        producer_chunks.append(chunks)
        for chunk in chunks:
            reference.add_packed_reports(chunk)
    return mechanism, producer_chunks, reference


@pytest.fixture(scope="module")
def workload():
    return build_workload()


def _service_specs(tmp_path):
    collector = dict(
        key=COLLECTOR_KEY,
        store_root=str(tmp_path / "collector"),
        mode="blinded",
    )
    keepers = {
        keeper_id: dict(
            key=key,
            store_root=str(tmp_path / keeper_id),
            mode="keeper",
            keeper_id=keeper_id,
        )
        for keeper_id, key in KEEPER_KEYS.items()
    }
    return collector, keepers


async def _serve_all(collector_spec, keeper_specs, *, resume=False):
    collector = CollectionService(rounds=[(M, 0)], resume=resume, **collector_spec)
    collector_address = await collector.serve()
    keepers, addresses = {}, {}
    for keeper_id, spec in keeper_specs.items():
        keeper = CollectionService(rounds=[(M, 0)], resume=resume, **spec)
        keepers[keeper_id] = keeper
        addresses[keeper_id] = await keeper.serve()
    return collector, collector_address, keepers, addresses


async def _ship_all(
    collector_address,
    addresses,
    producer_chunks,
    *,
    keeper_ids=None,
    first_index=0,
):
    """Every producer ships its full chunk stream split-trust style."""
    keeper_addresses = (
        addresses
        if keeper_ids is None
        else {kid: addresses[kid] for kid in keeper_ids}
    )
    results = []
    for index, chunks in enumerate(producer_chunks, start=first_index):
        results.append(
            await send_split_trust(
                collector_address,
                keeper_addresses,
                chunks,
                collector_key=COLLECTOR_KEY,
                keeper_keys=KEEPER_KEYS,
                producer_id=f"p{index}",
                m=M,
            )
        )
    return results


def _ingest_until_fault(injector, tmp_path, producer_chunks):
    """Phase 1: ship until the armed keeper fault fires, 'kill' victims."""
    collector_spec, keeper_specs = _service_specs(tmp_path)

    async def main():
        collector, collector_address, keepers, addresses = await _serve_all(
            collector_spec, keeper_specs
        )
        try:
            await _ship_all(collector_address, addresses, producer_chunks)
        except Exception:
            pass  # the fault firing mid-send is the point
        for service in (collector, *keepers.values()):
            if injector.crashed:
                await fault_harness.abandon(service)
            else:
                await service.abort()

    asyncio.run(main())


def _resume_and_resend(tmp_path, producer_chunks):
    """Phase 2: resume every party, blind-resend everything, combine."""
    collector_spec, keeper_specs = _service_specs(tmp_path)

    async def main():
        collector, collector_address, keepers, addresses = await _serve_all(
            collector_spec, keeper_specs, resume=True
        )
        statuses = []
        try:
            results = await _ship_all(
                collector_address, addresses, producer_chunks
            )
            for result in results:
                statuses.extend(ack.status for ack in result["collector"])
                for acks in result["keepers"].values():
                    statuses.extend(ack.status for ack in acks)
            combined = combine_accumulators(
                collector.round(0).accumulator,
                [keeper.round(0).accumulator for keeper in keepers.values()],
            )
        finally:
            for service in (collector, *keepers.values()):
                await service.close()
        return combined, statuses

    return asyncio.run(main())


def _assert_bit_identical(combined, mechanism, reference):
    assert combined.n == reference.n
    assert combined.digest() == reference.digest()
    assert np.array_equal(
        combined.estimate(mechanism), reference.estimate(mechanism)
    )


KEEPER_FAULTS = {
    "keeper-fsync-crash": lambda inj: inj.crash_on_fsync(
        os.path.join("keeper-a", ""), nth=2
    ),
    "keeper-torn-write": lambda inj: inj.torn_write(
        os.path.join("keeper-a", ""), nth=2
    ),
}


class TestKeeperCrashRecovery:
    @pytest.mark.parametrize("fault", sorted(KEEPER_FAULTS))
    def test_keeper_fault_recovers_bit_identical(
        self, fault, fault_injector, tmp_path, workload
    ):
        """Crash one keeper mid-round; restart; blind resend; the
        combined decode is bit-identical to the direct tally."""
        mechanism, producer_chunks, reference = workload
        KEEPER_FAULTS[fault](fault_injector)
        _ingest_until_fault(fault_injector, tmp_path, producer_chunks)
        assert fault_injector.fired, "the armed keeper fault never fired"
        fault_injector.disarm()
        combined, statuses = _resume_and_resend(tmp_path, producer_chunks)
        assert set(statuses) <= {wire.ACK_MERGED, wire.ACK_DUPLICATE}
        _assert_bit_identical(combined, mechanism, reference)

    def test_torn_keeper_tail_between_runs(self, tmp_path, workload):
        """Kill-mid-append on a keeper's ledger between runs: the torn
        trailing entry is dropped at load, the keeper's spill truncates
        back to the surviving committed offset (the torn spill tail),
        and the blind resend restores the round bit-identically."""
        mechanism, producer_chunks, reference = workload
        collector_spec, keeper_specs = _service_specs(tmp_path)

        async def first_run():
            collector, collector_address, keepers, addresses = (
                await _serve_all(collector_spec, keeper_specs)
            )
            # Only producer 0 lands before the "crash".
            await _ship_all(
                collector_address, addresses, producer_chunks[:1]
            )
            path = keepers["keeper-a"].round(0).ledger.path
            for service in (collector, *keepers.values()):
                await service.abort()
            return path

        ledger_path = asyncio.run(first_run())
        fault_harness.tear_tail(ledger_path, 11)  # mid-entry, torn CRC
        combined, statuses = _resume_and_resend(tmp_path, producer_chunks)
        assert statuses.count(wire.ACK_REFUSED) == 0
        assert wire.ACK_DUPLICATE in statuses  # producer 0's resend
        _assert_bit_identical(combined, mechanism, reference)


class TestPermanentlyLostKeeper:
    def test_missing_keeper_fails_loudly_not_garbage(
        self, tmp_path, workload
    ):
        """One keeper's state is simply gone: the combine refuses with a
        loud error instead of decoding the still-blinded residual."""
        _, producer_chunks, _ = workload
        collector_spec, keeper_specs = _service_specs(tmp_path)

        async def main():
            collector, collector_address, keepers, addresses = (
                await _serve_all(collector_spec, keeper_specs)
            )
            try:
                await _ship_all(
                    collector_address, addresses, producer_chunks
                )
                survivors = [keepers["keeper-a"].round(0).accumulator]
                with pytest.raises(EstimationError, match="refusing"):
                    combine_accumulators(collector.round(0).accumulator, survivors)
            finally:
                for service in (collector, *keepers.values()):
                    await service.close()

        asyncio.run(main())

    def test_keeper_that_never_saw_a_producer_fails_loudly(
        self, tmp_path, workload
    ):
        """Coverage gap: a keeper missing one producer's stream covers
        fewer rows than the collector — refused before any decode."""
        _, producer_chunks, _ = workload
        collector_spec, keeper_specs = _service_specs(tmp_path)

        async def main():
            collector, collector_address, keepers, addresses = (
                await _serve_all(collector_spec, keeper_specs)
            )
            try:
                # Producer 0 reaches both keepers; producer 1 only
                # reaches keeper-a (keeper-b was down for it).
                await _ship_all(
                    collector_address, addresses, producer_chunks[:1]
                )
                await _ship_all(
                    collector_address,
                    addresses,
                    producer_chunks[1:],
                    keeper_ids=["keeper-a"],
                    first_index=1,
                )
                with pytest.raises(Exception, match="refusing to decode"):
                    combine_accumulators(
                        collector.round(0).accumulator,
                        [k.round(0).accumulator for k in keepers.values()],
                    )
            finally:
                for service in (collector, *keepers.values()):
                    await service.close()

        asyncio.run(main())
