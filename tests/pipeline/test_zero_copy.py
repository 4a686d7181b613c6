"""Zero-copy decode and mmap replay: copy-count and residency contracts.

The wire decoder promises that packed-chunk payloads are never
materialized as intermediate ``bytes``: decoded rows are numpy views
over the caller's buffer, and the only structural copies left (session
payloads, a snapshot's writable counts) announce themselves through
``wire.payload_copy_hook``.  These tests install a counting hook and
pin the copy ledger of every decode path, then exercise the mmap'd
``ShardStore.replay_shard`` against digest equality and a bounded
resident-set check.
"""

from __future__ import annotations

import os
import resource

import numpy as np
import pytest

from repro.exceptions import ValidationError, WireFormatError
from repro.kernels import packed_width
from repro.pipeline import CountAccumulator, ShardStore
from repro.pipeline.collect import wire


@pytest.fixture
def copy_log():
    """Install a counting payload-copy hook for the test's duration."""
    events = []
    previous = wire.payload_copy_hook
    wire.payload_copy_hook = lambda site, nbytes: events.append((site, nbytes))
    try:
        yield events
    finally:
        wire.payload_copy_hook = previous


def _chunk_frame(rng, n, m, round_id=0):
    width = packed_width(m)
    rows = rng.integers(0, 256, size=(n, width), dtype=np.uint8)
    pad_bits = 8 * width - m
    if pad_bits:
        rows[:, -1] &= (0xFF << pad_bits) & 0xFF
    return rows, wire.dump_chunk(rows, m, round_id=round_id)


class TestChunkDecodeIsZeroCopy:
    def test_loads_makes_no_payload_copies(self, copy_log):
        rng = np.random.default_rng(0)
        rows, frame = _chunk_frame(rng, 100, 77)
        chunk = wire.loads(frame)
        assert copy_log == []
        assert np.array_equal(chunk.rows, rows)

    def test_rows_are_a_view_over_the_input_buffer(self):
        rng = np.random.default_rng(1)
        _, frame = _chunk_frame(rng, 50, 64)
        chunk = wire.loads(frame)
        assert not chunk.rows.flags.owndata
        # bytes input -> read-only view.
        assert not chunk.rows.flags.writeable

    def test_loads_accepts_memoryview_and_bytearray(self, copy_log):
        rng = np.random.default_rng(2)
        rows, frame = _chunk_frame(rng, 20, 40)
        for buffer in (memoryview(frame), bytearray(frame)):
            chunk = wire.loads(buffer)
            assert np.array_equal(chunk.rows, rows)
        assert copy_log == []

    def test_read_only_rows_feed_the_accumulator(self):
        rng = np.random.default_rng(3)
        rows, frame = _chunk_frame(rng, 200, 130)
        chunk = wire.loads(frame)
        assert not chunk.rows.flags.writeable
        acc = CountAccumulator(130)
        acc.add_packed_reports(chunk.rows)
        expected = CountAccumulator(130)
        expected.add_packed_reports(rows)
        assert acc.digest() == expected.digest()

    def test_store_walk_payload_is_a_view(self, copy_log, tmp_path):
        rng = np.random.default_rng(4)
        rows, frame = _chunk_frame(rng, 64, 99)
        store = ShardStore(str(tmp_path))
        with open(store.chunk_path(0), "wb") as handle:
            handle.write(frame)
        for end, chunk in store.walk(0):
            assert end == len(frame)
            assert not chunk.rows.flags.owndata
            assert not chunk.rows.flags.writeable  # a read-only map
            assert np.array_equal(chunk.rows, rows)
        assert copy_log == []


class TestDecodeFrameAt:
    def test_walks_concatenated_frames_without_copies(self, copy_log):
        rng = np.random.default_rng(5)
        frames, all_rows = [], []
        for n in (10, 0, 25):
            rows, frame = _chunk_frame(rng, n, 52)
            frames.append(frame)
            all_rows.append(rows)
        blob = b"".join(frames)
        offset, seen = 0, []
        while offset < len(blob):
            chunk, offset = wire.decode_frame_at(blob, offset)
            seen.append(chunk.rows)
        assert offset == len(blob)
        assert copy_log == []
        for got, expected in zip(seen, all_rows):
            assert np.array_equal(got, expected)

    def test_truncated_tail_is_loud(self):
        rng = np.random.default_rng(6)
        _, frame = _chunk_frame(rng, 8, 32)
        with pytest.raises(WireFormatError, match="truncated frame"):
            wire.decode_frame_at(frame[:-3], 0)
        with pytest.raises(WireFormatError, match="truncated frame"):
            wire.decode_frame_at(frame, len(frame) - 10)

    def test_offset_bounds_validated(self):
        with pytest.raises(ValidationError, match="offset"):
            wire.decode_frame_at(b"", -1)
        with pytest.raises(ValidationError, match="offset"):
            wire.decode_frame_at(b"abc", 4)

    def test_corrupt_payload_crc_is_loud(self):
        rng = np.random.default_rng(7)
        _, frame = _chunk_frame(rng, 8, 32)
        corrupted = bytearray(frame)
        corrupted[wire.HEADER_SIZE] ^= 0xFF
        with pytest.raises(WireFormatError, match="payload checksum"):
            wire.decode_frame_at(bytes(corrupted), 0)


class TestStructuralCopiesAnnounceThemselves:
    def test_snapshot_decode_copies_exactly_once(self, copy_log):
        acc = CountAccumulator(64)
        acc.add_reports(np.eye(64, dtype=np.int8))
        decoded = wire.loads(wire.dumps(acc))
        assert copy_log == [("snapshot-counts", 64 * 8)]
        assert decoded.digest() == acc.digest()
        # The decoded accumulator owns writable state.
        assert decoded.counts().flags.writeable

    def test_session_decode_announces_its_bytes(self, copy_log):
        hello = wire.SessionHello(
            m=8, round_id=0, producer_id="edge-7", nonce=b"\x01" * 16
        )
        decoded = wire.loads(wire.dumps(hello))
        assert decoded == hello
        assert [site for site, _ in copy_log] == ["session-payload"]

    def test_hook_disabled_by_default(self):
        assert wire.payload_copy_hook is None


class TestMmapReplay:
    def _spill(self, tmp_path, *, frames=8, rows=256, m=400, shard_id=0):
        store = ShardStore(str(tmp_path))
        rng = np.random.default_rng(42)
        expected = CountAccumulator(m)
        with store.writer(shard_id, m) as writer:
            for _ in range(frames):
                chunk, _ = _chunk_frame(rng, rows, m)
                writer.write(chunk)
                expected.add_packed_reports(chunk)
        return store, expected

    def test_replay_matches_in_memory_digest(self, tmp_path):
        store, expected = self._spill(tmp_path)
        assert store.replay_shard(0).digest() == expected.digest()

    def test_replay_makes_no_payload_copies(self, tmp_path, copy_log):
        store, expected = self._spill(tmp_path)
        replayed = store.replay_shard(0)
        assert copy_log == []
        assert replayed.digest() == expected.digest()

    def test_replay_with_threaded_backend_is_bit_identical(self, tmp_path):
        store, expected = self._spill(tmp_path)
        assert (
            store.replay_shard(0, compute="threaded").digest()
            == expected.digest()
        )

    def test_replay_empty_spill_is_loud(self, tmp_path):
        store = ShardStore(str(tmp_path))
        with open(store.chunk_path(3), "wb"):
            pass
        with pytest.raises(WireFormatError, match="holds no frames"):
            store.replay_shard(3)

    def test_replay_truncated_spill_is_loud(self, tmp_path):
        store, _ = self._spill(tmp_path, shard_id=1)
        path = store.chunk_path(1)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 7)
        with pytest.raises(WireFormatError, match="truncated frame"):
            store.replay_shard(1)

    def test_replay_large_spill_bounded_rss(self, tmp_path):
        # ~32 MiB spill; the mmap walk releases consumed pages, so the
        # replay's RSS growth must stay well under the file size.
        # ru_maxrss is a process-lifetime high-water mark: if an earlier
        # test already peaked higher, the delta shrinks toward zero and
        # the assertion only gets easier — it can never false-fail.
        m = 10_000
        store, expected = self._spill(
            tmp_path, frames=50, rows=512, m=m, shard_id=2
        )
        spilled = os.path.getsize(store.chunk_path(2))
        assert spilled > 30 * 1024 * 1024
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        replayed = store.replay_shard(2)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert replayed.digest() == expected.digest()
        grown = (after - before) * 1024  # ru_maxrss is KiB on Linux
        assert grown < spilled // 2, (grown, spilled)
