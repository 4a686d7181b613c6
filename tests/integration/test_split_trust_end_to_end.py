"""Split-trust end to end: coordinated round, compromise, combine.

Two acceptance stories:

* **Exactness with nobody trusted**: a coordinator-owned blinded round
  over a collector shard and two share keepers — producers blind and
  ship, blind resends dedup on every party, drain/close run fleet-wide,
  and :func:`combine_round` decodes a tally **bit-identical** to a
  plain (unblinded) collection of the same report stream.

* **The adversarial test the tier exists for**: seize one party's
  complete durable state mid-round — spill file, idempotency ledger,
  live accumulator snapshot — and show it is (a) statistically
  indistinguishable from uniform 64-bit words, (b) free of any raw
  report bytes, and (c) undecodable alone: single-party reconstruction
  fails loudly.  The same holds for a lone keeper's state.
"""

from __future__ import annotations

import asyncio
import glob
import hashlib

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.estimation.merge import combine_shares
from repro.pipeline import CollectionService, CountAccumulator
from repro.pipeline.collect import wire
from repro.pipeline.service import (
    RoundCoordinator,
    ShardInfo,
    combine_round,
    send_split_trust,
)

M = 32
ROUND = 4
PRODUCER_KEY = "split-trust-producer-secret"
CONTROL_KEY = "split-trust-control-secret"
KEEPER_KEYS = {
    "keeper-north": "keeper-north-producer-secret",
    "keeper-south": "keeper-south-producer-secret",
}
PRODUCERS = [f"edge-{i:02d}" for i in range(6)]
ROWS_PER_CHUNK = 20
CHUNKS = 2


def _chunks_for(producer_id: str) -> list[np.ndarray]:
    """Deterministic packed report chunks for one producer."""
    seed = int.from_bytes(
        hashlib.sha256(producer_id.encode()).digest()[:4], "little"
    )
    rng = np.random.default_rng(seed)
    chunks = []
    for _ in range(CHUNKS):
        bits = (rng.random((ROWS_PER_CHUNK, M)) < 0.5).astype(np.uint8)
        chunks.append(np.packbits(bits, axis=1))
    return chunks


def _direct_reference() -> CountAccumulator:
    """The unblinded tally every split-trust decode must reproduce."""
    reference = CountAccumulator(M, round_id=ROUND)
    for producer_id in PRODUCERS:
        for chunk in _chunks_for(producer_id):
            reference.add_packed_reports(chunk)
    return reference


async def _start_parties(tmp_path):
    """Collector shard + two keepers, all multi-round, control-keyed."""
    collector = CollectionService(
        rounds=[],
        key=PRODUCER_KEY,
        store_root=str(tmp_path / "collector"),
        control_key=CONTROL_KEY,
        mode="blinded",
    )
    collector_host, collector_port = await collector.serve()
    collector_info = ShardInfo("collector", collector_host, collector_port)
    keepers, keeper_infos, keeper_addresses = {}, [], {}
    for keeper_id, key in KEEPER_KEYS.items():
        keeper = CollectionService(
            rounds=[],
            key=key,
            store_root=str(tmp_path / keeper_id),
            control_key=CONTROL_KEY,
            mode="keeper",
            keeper_id=keeper_id,
        )
        host, port = await keeper.serve()
        keepers[keeper_id] = keeper
        keeper_infos.append(ShardInfo(keeper_id, host, port))
        keeper_addresses[keeper_id] = (host, port)
    return (
        collector,
        collector_info,
        keepers,
        keeper_infos,
        keeper_addresses,
    )


async def _ship_everyone(collector_info, keeper_addresses):
    results = []
    for producer_id in PRODUCERS:
        results.append(
            await send_split_trust(
                (collector_info.host, collector_info.port),
                keeper_addresses,
                _chunks_for(producer_id),
                collector_key=PRODUCER_KEY,
                keeper_keys=KEEPER_KEYS,
                producer_id=producer_id,
                m=M,
                round_id=ROUND,
            )
        )
    return results


def test_coordinated_split_trust_round_bit_identical(tmp_path):
    reference = _direct_reference()

    async def scenario():
        (
            collector,
            collector_info,
            keepers,
            keeper_infos,
            keeper_addresses,
        ) = await _start_parties(tmp_path)
        try:
            coordinator = RoundCoordinator(
                [collector_info],
                control_key=CONTROL_KEY,
                keepers=keeper_infos,
            )
            await coordinator.register_round(M, ROUND, mode="blinded")

            first = await _ship_everyone(collector_info, keeper_addresses)
            for result in first:
                assert all(
                    ack.status == wire.ACK_MERGED
                    for ack in result["collector"]
                )
                for acks in result["keepers"].values():
                    assert all(
                        ack.status == wire.ACK_MERGED for ack in acks
                    )

            # Blind resend from every producer: the per-party ledgers
            # line up (same seqs, byte-identical re-blinded frames), so
            # everything dedups everywhere.
            again = await _ship_everyone(collector_info, keeper_addresses)
            for result in again:
                assert all(
                    ack.status == wire.ACK_DUPLICATE
                    for ack in result["collector"]
                )
                for acks in result["keepers"].values():
                    assert all(
                        ack.status == wire.ACK_DUPLICATE for ack in acks
                    )

            status = await coordinator.status(ROUND)
            assert set(status["keepers"]) == set(KEEPER_KEYS)

            await coordinator.drain(ROUND)
            await coordinator.close_round(ROUND)

            result = await combine_round(
                [collector_info],
                keeper_infos,
                control_key=CONTROL_KEY,
                round_id=ROUND,
            )
            return result
        finally:
            await collector.close()
            for keeper in keepers.values():
                await keeper.close()

    result = asyncio.run(scenario())
    expected_n = len(PRODUCERS) * CHUNKS * ROWS_PER_CHUNK
    assert result.accumulator.n == expected_n
    assert result.records_merged == len(PRODUCERS) * CHUNKS
    # The headline criterion: blinding, sharding across parties,
    # resends, and the control-plane combine cost zero exactness.
    assert result.accumulator.digest() == reference.digest()
    assert np.array_equal(result.accumulator.counts(), reference.counts())


class TestAdversarialCollectorCompromise:
    """Seize the blinded collector's whole disk + memory mid-round."""

    def _compromise(self, tmp_path):
        """Run a round, 'image' the collector mid-round, return the loot."""

        async def scenario():
            (
                collector,
                collector_info,
                keepers,
                keeper_infos,
                keeper_addresses,
            ) = await _start_parties(tmp_path)
            try:
                coordinator = RoundCoordinator(
                    [collector_info],
                    control_key=CONTROL_KEY,
                    keepers=keeper_infos,
                )
                await coordinator.register_round(M, ROUND, mode="blinded")
                await _ship_everyone(collector_info, keeper_addresses)

                # Mid-round seizure: every durable artifact plus a
                # snapshot of the live accumulator, as an attacker with
                # the collector's disk and memory would hold.
                spill_paths = glob.glob(
                    str(tmp_path / "collector" / "**" / "*.chunks"),
                    recursive=True,
                )
                ledger_paths = glob.glob(
                    str(tmp_path / "collector" / "**" / "*.ledger"),
                    recursive=True,
                )
                assert spill_paths and ledger_paths
                spill = b"".join(
                    open(path, "rb").read() for path in spill_paths
                )
                ledger = b"".join(
                    open(path, "rb").read() for path in ledger_paths
                )
                state = collector.registry.get(ROUND)
                snapshot = wire.dumps(state.accumulator.state_frame())
                keeper_words = {
                    kid: keeper.registry.get(ROUND).accumulator.words()
                    for kid, keeper in keepers.items()
                }
                return spill, ledger, snapshot, keeper_words
            finally:
                await collector.close()
                for keeper in keepers.values():
                    await keeper.close()

        return asyncio.run(scenario())

    def test_collector_state_is_noise_and_alone_undecodable(self, tmp_path):
        spill, ledger, snapshot, keeper_words = self._compromise(tmp_path)
        reference = _direct_reference()
        n = reference.n

        # (a) No raw report bytes anywhere in the seized state: every
        # producer's packed chunk (80 bytes of real reports) must be
        # absent from spill, ledger, and snapshot alike.
        for producer_id in PRODUCERS:
            for chunk in _chunks_for(producer_id):
                raw = chunk.tobytes()
                assert raw not in spill
                assert raw not in ledger
                assert raw not in snapshot
        # ... and so must the plain tally itself.
        plain_counts = reference.counts().astype("<u8").tobytes()
        assert plain_counts not in spill
        assert plain_counts not in snapshot

        # (b) Statistical indistinguishability from uniform words: pool
        # every blinded word the attacker holds (per-chunk frames from
        # the spill plus the accumulated snapshot) and test bit balance
        # at 4.5 sigma — real counts (tiny integers, top bits all zero)
        # fail this by dozens of sigma.
        frames, offset = [], 0
        while offset < len(spill):
            obj, offset = wire.decode_frame_at(spill, offset)
            frames.append(obj)
        assert frames and all(
            isinstance(obj, wire.BlindedCounts) for obj in frames
        )
        words = np.concatenate(
            [obj.words for obj in frames]
            + [wire.loads(snapshot).words]
        )
        bits = np.unpackbits(words.view(np.uint8))
        sigma = 0.5 / np.sqrt(bits.size)
        assert bits.size >= 24_000
        assert abs(float(bits.mean()) - 0.5) < 4.5 * sigma
        # A direct giveaway check: the true counts fit in one byte; the
        # blinded words' high bytes must not be predominantly zero.
        high_bytes = words.view(np.uint8).reshape(-1, 8)[:, 7]
        assert np.count_nonzero(high_bytes) > 0.9 * high_bytes.size

        # (c) Single-party reconstruction fails loudly — the collector
        # alone cannot decode its own accumulated words...
        accumulated = wire.loads(snapshot).words
        with pytest.raises(EstimationError, match="refusing to decode"):
            combine_shares(accumulated, [], n=n)
        # ...no single keeper's words help (still one stream short)...
        keeper_list = list(keeper_words.values())
        with pytest.raises(EstimationError, match="refusing to decode"):
            combine_shares(accumulated, keeper_list[:1], n=n)
        # ...a lone keeper's state is equally mute...
        with pytest.raises(EstimationError, match="refusing to decode"):
            combine_shares(keeper_list[0], [], n=n)
        # ...and only the full party set decodes, exactly.
        decoded = combine_shares(accumulated, keeper_list, n=n)
        assert np.array_equal(decoded, reference.counts())
