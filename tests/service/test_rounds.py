"""A hosted round's merge rule and its reads of the round's spill.

Live commits and ledger replay both absorb records through
:meth:`RoundState.absorb`, which for a collect-mode round applies one
rule, ``apply_frame_object`` — so its refusals (wrong width, wrong
round, unknown object) are the same on every path.  Replay walks the
spill through the store's mmap walk and a migration reads only the
moved records' byte ranges; neither may leave the spill mapped, since
a later rollback can truncate it.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.pipeline import CollectionService, CountAccumulator, send_records
from repro.pipeline.collect import wire
from repro.pipeline.service.rounds import SERVICE_SHARD_ID, apply_frame_object

KEY = "0011223344556677"


def _snapshot(m=8, n=6, round_id=0, seed=0) -> CountAccumulator:
    rng = np.random.default_rng(seed)
    acc = CountAccumulator(m, round_id=round_id)
    acc.add_reports((rng.random((n, m)) < 0.5).astype(np.int8))
    return acc


def _chunk(m=8, k=4, round_id=0, seed=1) -> wire.PackedChunk:
    rng = np.random.default_rng(seed)
    bits = (rng.random((k, m)) < 0.5).astype(np.uint8)
    return wire.PackedChunk(m=m, round_id=round_id, rows=np.packbits(bits, axis=1))


class TestApplyFrameObject:
    def test_snapshot_and_chunk_interleave(self):
        accumulator = CountAccumulator(8)
        snap, chunk = _snapshot(), _chunk()
        apply_frame_object(snap, accumulator)
        apply_frame_object(chunk, accumulator)
        expected = CountAccumulator(8)
        expected.merge(snap)
        expected.add_packed_reports(chunk.rows)
        assert accumulator.digest() == expected.digest()
        assert accumulator.n == 10  # 6 snapshot users + 4 chunk rows

    def test_wrong_width_chunk_refused(self):
        with pytest.raises(ValidationError, match="width"):
            apply_frame_object(_chunk(m=16), CountAccumulator(8))

    def test_wrong_round_chunk_refused(self):
        with pytest.raises(ValidationError, match="round"):
            apply_frame_object(_chunk(round_id=3), CountAccumulator(8))

    def test_wrong_round_snapshot_refused(self):
        with pytest.raises(ValidationError, match="round"):
            apply_frame_object(_snapshot(round_id=1), CountAccumulator(8))

    def test_unknown_object_refused(self):
        with pytest.raises(ValidationError, match="cannot ingest"):
            apply_frame_object([1, 2, 3], CountAccumulator(8))

    def test_refusal_leaves_the_accumulator_untouched(self):
        accumulator = CountAccumulator(8)
        apply_frame_object(_snapshot(), accumulator)
        before = accumulator.digest()
        with pytest.raises(ValidationError):
            apply_frame_object(_chunk(m=16), accumulator)
        assert accumulator.digest() == before


def _mapped_paths() -> set[str]:
    with open("/proc/self/maps", encoding="utf-8") as handle:
        return {line.split(maxsplit=5)[-1].strip() for line in handle}


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
)
class TestSpillReads:
    def test_resume_and_migrate_out_read_exact_frames_unmapped(self, tmp_path):
        frames = {
            producer: [wire.dumps(_chunk(seed=seed + k)) for k in range(3)]
            for seed, producer in ((10, "mover"), (20, "stayer"))
        }
        root = str(tmp_path / "svc")

        async def ingest():
            service = CollectionService(rounds=[(8, 0)], key=KEY, store_root=root)
            host, port = await service.serve()
            try:
                # Interleave the producers so the mover's records are
                # not one contiguous run of the spill.
                for k in range(3):
                    for producer, batch in frames.items():
                        await send_records(
                            host, port, [batch[k]], key=KEY,
                            producer_id=producer, m=8, start_seq=k,
                        )
            finally:
                await service.close()
            return service.round(0).accumulator.digest()

        async def resume_and_move():
            service = CollectionService(
                rounds=[(8, 0)],
                key=KEY,
                store_root=root,
                resume=True,
            )
            try:
                state = service.registry.get(0)
                spill = state.store.chunk_path(SERVICE_SHARD_ID)
                recovered = state.accumulator.digest()
                assert spill not in _mapped_paths()
                moved = state.migrate_out({"mover"}, epoch=2)
                assert spill not in _mapped_paths()
                return recovered, moved, state.accumulator.n
            finally:
                await service.close()

        live = asyncio.run(ingest())
        recovered, moved, remaining = asyncio.run(resume_and_move())
        assert recovered == live
        assert [(p, seq, frame) for p, seq, _digest, frame in moved] == [
            ("mover", k, frames["mover"][k]) for k in range(3)
        ]
        assert remaining == 3 * 4  # the stayer's three 4-row chunks
