"""Split-trust collection: no single party ever sees a raw report.

One blinded collector plus two share keepers, all in-process.  Each
producer popcounts its packed report chunks, blinds the counts mod
2^64 against per-keeper secrets, and ships each party only its own
stream.  The collector's disk holds uniform noise; each keeper holds
pseudorandom words; the plain tally exists only after the final
combine — and is bit-identical to an unblinded run over the same
reports.

Run:  python examples/split_trust_round.py
"""

from __future__ import annotations

import asyncio
import tempfile

import numpy as np

from repro.pipeline import CollectionService, CountAccumulator
from repro.pipeline.collect import wire
from repro.pipeline.service import combine_accumulators, send_split_trust

M = 64  # report width in bits
ROUND = 0  # the one round every party hosts
COLLECTOR_KEY = "collector-registry-secret"
KEEPER_KEYS = {  # each keeper has its OWN producer-key registry
    "keeper-north": "north-registry-secret",
    "keeper-south": "south-registry-secret",
}
PRODUCERS = 5
CHUNKS, ROWS = 3, 40


def producer_chunks(index: int) -> list[np.ndarray]:
    rng = np.random.default_rng(1000 + index)
    return [
        np.packbits((rng.random((ROWS, M)) < 0.5).astype(np.uint8), axis=1)
        for _ in range(CHUNKS)
    ]


async def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        # 1. Three parties: a blinded collector and two share keepers.
        collector = CollectionService(
            rounds=[(M, ROUND)],
            key=COLLECTOR_KEY,
            store_root=f"{root}/collector",
            mode="blinded",
        )
        collector_address = await collector.serve()
        keepers, addresses = {}, {}
        for keeper_id, key in KEEPER_KEYS.items():
            keeper = CollectionService(
                rounds=[(M, ROUND)],
                key=key,
                store_root=f"{root}/{keeper_id}",
                mode="keeper",
                keeper_id=keeper_id,
            )
            keepers[keeper_id] = keeper
            addresses[keeper_id] = await keeper.serve()
        print(f"parties:   1 blinded collector + {len(keepers)} share keepers")

        # 2. Every producer blinds and ships; the direct tally is our
        #    reference for the exactness claim.
        reference = CountAccumulator(M)
        for index in range(PRODUCERS):
            chunks = producer_chunks(index)
            for chunk in chunks:
                reference.add_packed_reports(chunk)
            await send_split_trust(
                collector_address,
                addresses,
                chunks,
                collector_key=COLLECTOR_KEY,
                keeper_keys=KEEPER_KEYS,
                producer_id=f"edge-{index}",
                m=M,
            )
        print(f"shipped:   {PRODUCERS} producers x {CHUNKS} chunks x {ROWS} rows")

        # 3. Blind resend from one producer: every party's idempotency
        #    ledger eats it as duplicates (blinding is transcript-stable).
        resend = await send_split_trust(
            collector_address,
            addresses,
            producer_chunks(0),
            collector_key=COLLECTOR_KEY,
            keeper_keys=KEEPER_KEYS,
            producer_id="edge-0",
            m=M,
        )
        statuses = [ack.status for ack in resend["collector"]] + [
            ack.status
            for acks in resend["keepers"].values()
            for ack in acks
        ]
        assert set(statuses) == {wire.ACK_DUPLICATE}
        print(f"resend:    {len(statuses)} records, all ACK_DUPLICATE")

        # 4. What would a compromised collector see?  Uniform words.
        words = collector.round(ROUND).accumulator.words()
        top_bytes = words.view(np.uint8).reshape(-1, 8)[:, 7]
        print(
            f"collector: {words.size} blinded words, "
            f"{np.count_nonzero(top_bytes)}/{top_bytes.size} with a "
            "nonzero top byte (true counts would have none)"
        )
        assert not np.array_equal(
            words.astype(np.int64), reference.counts()
        )

        # 5. The only place the plain tally ever exists: the combine.
        combined = combine_accumulators(
            collector.round(ROUND).accumulator,
            [keeper.round(ROUND).accumulator for keeper in keepers.values()],
        )
        assert combined.digest() == reference.digest()
        print(
            f"combined:  n={combined.n}, digest matches the direct "
            f"unblinded tally: {combined.digest() == reference.digest()}"
        )

        await collector.close()
        for keeper in keepers.values():
            await keeper.close()


if __name__ == "__main__":
    asyncio.run(main())
