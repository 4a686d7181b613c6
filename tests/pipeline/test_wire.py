"""Unit tests for the wire-format encoder/decoder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError, WireFormatError
from repro.pipeline import CountAccumulator
from repro.pipeline.collect import wire


def _accumulator(m=9, n=7, round_id=2, seed=0) -> CountAccumulator:
    rng = np.random.default_rng(seed)
    acc = CountAccumulator(m, round_id=round_id)
    acc.add_reports((rng.random((n, m)) < 0.4).astype(np.int8))
    return acc


def _chunk(m=21, k=5, round_id=2, seed=1) -> wire.PackedChunk:
    rng = np.random.default_rng(seed)
    bits = (rng.random((k, m)) < 0.5).astype(np.uint8)
    return wire.PackedChunk(m=m, round_id=round_id, rows=np.packbits(bits, axis=1))


class TestSnapshotRoundTrip:
    def test_state_survives(self):
        acc = _accumulator()
        clone = wire.loads(wire.dumps(acc))
        assert clone.m == acc.m and clone.n == acc.n
        assert clone.round_id == acc.round_id
        assert np.array_equal(clone.counts(), acc.counts())
        assert clone.digest() == acc.digest()

    def test_empty_accumulator_round_trips(self):
        acc = CountAccumulator(4, round_id=-3)
        clone = wire.loads(wire.dumps(acc))
        assert clone.n == 0 and clone.round_id == -3
        assert clone.counts().tolist() == [0, 0, 0, 0]

    def test_negative_round_id_survives(self):
        clone = wire.loads(wire.dumps(CountAccumulator(2, round_id=-1)))
        assert clone.round_id == -1

    def test_loaded_snapshot_is_mergeable(self):
        acc = _accumulator()
        merged = wire.loads(wire.dumps(acc)).merge(wire.loads(wire.dumps(acc)))
        assert merged.n == 2 * acc.n
        assert np.array_equal(merged.counts(), 2 * acc.counts())

    def test_invalid_state_rejected_on_load(self):
        """A frame claiming counts > n is structurally valid but semantically
        impossible; the decoder must refuse it, checksum or no checksum."""
        acc = CountAccumulator.from_state(3, np.array([2, 1, 0]), 2, round_id=0)
        blob = bytearray(wire.dumps(acc))
        # Rewrite n (header bytes 16:24) to 1 < max(counts) and re-CRC.
        import struct
        import zlib

        blob[16:24] = struct.pack("<Q", 1)
        blob[36:40] = struct.pack("<I", zlib.crc32(bytes(blob[:36])))
        with pytest.raises(WireFormatError, match="snapshot state is invalid"):
            wire.loads(bytes(blob))


class TestChunkRoundTrip:
    def test_rows_survive(self):
        chunk = _chunk()
        clone = wire.loads(wire.dumps(chunk))
        assert clone.m == chunk.m and clone.round_id == chunk.round_id
        assert clone.n == chunk.n
        assert np.array_equal(clone.rows, chunk.rows)

    def test_zero_row_chunk_round_trips(self):
        chunk = wire.PackedChunk(m=16, round_id=0, rows=np.empty((0, 2), np.uint8))
        clone = wire.loads(wire.dumps(chunk))
        assert clone.n == 0 and clone.rows.shape == (0, 2)

    def test_dump_chunk_rejects_wrong_width(self):
        with pytest.raises(ValidationError, match="shape"):
            wire.dump_chunk(np.zeros((2, 3), dtype=np.uint8), m=16)

    def test_dump_chunk_rejects_wrong_dtype(self):
        with pytest.raises(ValidationError, match="uint8"):
            wire.dump_chunk(np.zeros((2, 2), dtype=np.int64), m=16)

    def test_dumps_rejects_unknown_objects(self):
        with pytest.raises(ValidationError, match="cannot serialize"):
            wire.dumps({"counts": [1, 2]})


class TestConcatenatedFrames:
    def test_concatenated_frames_decode_in_order(self):
        objs = [_accumulator(seed=3), _chunk(seed=4), _accumulator(m=5, seed=5)]
        blob = b"".join(wire.dumps(obj) for obj in objs)
        decoded, offset = [], 0
        while offset < len(blob):
            obj, offset = wire.decode_frame_at(blob, offset)
            decoded.append(obj)
        assert offset == len(blob)  # the walk ends exactly on a boundary
        assert len(decoded) == 3
        assert isinstance(decoded[0], CountAccumulator)
        assert isinstance(decoded[1], wire.PackedChunk)
        assert decoded[0].digest() == objs[0].digest()
        assert np.array_equal(decoded[1].rows, objs[1].rows)
        assert decoded[2].digest() == objs[2].digest()

    def test_midframe_end_is_loud(self):
        truncated = wire.dumps(_accumulator())[:-3]
        with pytest.raises(WireFormatError, match="truncated"):
            wire.decode_frame_at(truncated, 0)

    def test_snapshot_frame_size(self):
        frame = wire.dumps(_accumulator(m=8))
        assert len(frame) == wire.HEADER_SIZE + 8 * 8 + 4
