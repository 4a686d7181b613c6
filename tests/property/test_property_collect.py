"""Property-based tests for the collection subsystem (hypothesis).

Three algebraic identities must hold for *every* input, not just the
cases a hand-written test thinks of:

* serialize → deserialize is the identity on accumulator state and on
  packed chunks (and re-serialization is byte-stable);
* ``merge_all`` over an arbitrary partition of the users equals the
  single-pass aggregation — with every shard making a wire round trip
  first, the cross-machine shape;
* spill → replay through a :class:`ShardStore` reproduces the in-memory
  counts bit for bit, for both the ``bitexact`` and ``fast`` samplers;
* the store's spill walk yields every frame at its exact boundary, and
  crash recovery's tail scan lands on the last complete frame wherever
  the spill was cut.
"""

from __future__ import annotations

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mechanisms import OptimizedUnaryEncoding
from repro.pipeline import CountAccumulator, ShardStore, stream_counts
from repro.pipeline.collect import wire

widths = st.integers(min_value=1, max_value=70)
round_ids = st.integers(min_value=-(2**31), max_value=2**31)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _random_accumulator(m, round_id, seed, n_max=40) -> CountAccumulator:
    rng = np.random.default_rng(seed)
    acc = CountAccumulator(m, round_id=round_id)
    n = int(rng.integers(0, n_max))
    if n:
        acc.add_reports((rng.random((n, m)) < rng.random()).astype(np.int8))
    return acc


class TestSerializeDeserializeIdentity:
    @given(widths, round_ids, seeds)
    @settings(max_examples=60, deadline=None)
    def test_snapshot_identity(self, m, round_id, seed):
        acc = _random_accumulator(m, round_id, seed)
        blob = wire.dumps(acc)
        clone = wire.loads(blob)
        assert clone.m == acc.m and clone.n == acc.n
        assert clone.round_id == acc.round_id
        assert np.array_equal(clone.counts(), acc.counts())
        # Byte-stable: encoding is a function of the state alone.
        assert wire.dumps(clone) == blob

    @given(widths, round_ids, seeds, st.integers(min_value=0, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_chunk_identity(self, m, round_id, seed, k):
        rng = np.random.default_rng(seed)
        bits = (rng.random((k, m)) < 0.5).astype(np.uint8)
        chunk = wire.PackedChunk(
            m=m, round_id=round_id, rows=np.packbits(bits, axis=1)
        )
        blob = wire.dumps(chunk)
        clone = wire.loads(blob)
        assert clone.m == m and clone.round_id == round_id and clone.n == k
        assert np.array_equal(clone.rows, chunk.rows)
        assert wire.dumps(clone) == blob

    @given(widths, round_ids, seeds)
    @settings(max_examples=40, deadline=None)
    def test_deserialized_merge_equals_direct_merge(self, m, round_id, seed):
        """serialize → deserialize → merge is merge: the wire adds nothing."""
        one = _random_accumulator(m, round_id, seed)
        two = _random_accumulator(m, round_id, seed + 1)
        direct = CountAccumulator.merge_all([one, two])
        via_wire = CountAccumulator.merge_all(
            [wire.loads(wire.dumps(one)), wire.loads(wire.dumps(two))]
        )
        assert via_wire.digest() == direct.digest()


class TestPartitionInvariance:
    @given(
        seeds,
        st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_all_over_any_partition_equals_single_pass(self, seed, sizes):
        """Users split across arbitrary shard sizes, each shard round-
        tripped through the wire, merge to the single-pass state."""
        m = 13
        rng = np.random.default_rng(seed)
        reports = (rng.random((sum(sizes), m)) < 0.35).astype(np.int8)
        single = CountAccumulator(m)
        single.add_reports(reports)
        shards, start = [], 0
        for size in sizes:
            shard = CountAccumulator(m)
            shard.add_reports(reports[start : start + size])
            shards.append(wire.loads(wire.dumps(shard)))
            start += size
        merged = CountAccumulator.merge_all(shards)
        assert merged.digest() == single.digest()


class TestSpillReplayBitExact:
    @given(seeds, st.sampled_from(["bitexact", "fast"]))
    @settings(max_examples=12, deadline=None)
    def test_spill_replay_reproduces_memory_counts(self, seed, sampler):
        """Spilling every chunk while streaming, then replaying the spill
        out of core, lands on the identical accumulator — per sampler."""
        m, n = 19, 300
        mechanism = OptimizedUnaryEncoding(2.0, m)
        items = np.random.default_rng(seed).integers(m, size=n)
        in_memory = stream_counts(
            mechanism, items, chunk_size=64, rng=seed, packed=True, sampler=sampler
        )
        with tempfile.TemporaryDirectory() as root:
            store = ShardStore(root)
            with store.writer(0, m) as writer:
                spilled = stream_counts(
                    mechanism,
                    items,
                    chunk_size=64,
                    rng=seed,
                    packed=True,
                    sampler=sampler,
                    chunk_sink=writer.write,
                )
            replayed = store.replay_shard(0)
        assert spilled.digest() == in_memory.digest()
        assert replayed.digest() == in_memory.digest()
        assert np.array_equal(replayed.counts(), in_memory.counts())


def _mixed_frames(m, seed, count):
    """*count* frames of one width, chunks and snapshots interleaved."""
    rng = np.random.default_rng(seed)
    frames = []
    for index in range(count):
        if rng.random() < 0.3:
            frames.append(wire.dumps(_random_accumulator(m, 0, seed + index)))
        else:
            rows = rng.integers(0, 2, (int(rng.integers(0, 9)), m), dtype=np.uint8)
            frames.append(wire.dump_chunk(np.packbits(rows, axis=1), m))
    return frames


class TestSpillWalk:
    @given(widths, seeds, st.integers(1, 12), st.data())
    @settings(max_examples=30, deadline=None)
    def test_walk_yields_every_frame_at_its_boundary(self, m, seed, count, data):
        frames = _mixed_frames(m, seed, count)
        first = data.draw(st.integers(0, count), label="first")
        ends = np.cumsum([len(frame) for frame in frames]).tolist()
        with tempfile.TemporaryDirectory() as root:
            store = ShardStore(root)
            with open(store.chunk_path(0), "wb") as handle:
                handle.write(b"".join(frames))
            start = ends[first - 1] if first else 0
            walked = [
                (end, wire.dumps(obj))
                for end, obj in store.walk(0, start=start)
            ]
        assert walked == list(zip(ends[first:], frames[first:]))

    @given(widths, seeds, st.integers(1, 12), st.data())
    @settings(max_examples=30, deadline=None)
    def test_tail_scan_keeps_the_complete_frames(self, m, seed, count, data):
        frames = _mixed_frames(m, seed, count)
        blob = b"".join(frames)
        cut = data.draw(st.integers(0, len(blob)), label="cut")
        boundaries = [
            end
            for end in np.cumsum([len(frame) for frame in frames]).tolist()
            if end <= cut
        ]
        with tempfile.TemporaryDirectory() as root:
            store = ShardStore(root)
            with open(store.chunk_path(0), "wb") as handle:
                handle.write(blob[:cut])
            recovered = store.recover_shard(0)
            survivors = [wire.dumps(obj) for _, obj in store.walk(0)]
        kept = boundaries[-1] if boundaries else 0
        assert recovered == {
            "offset": kept,
            "frames": len(boundaries),
            "discarded_bytes": cut - kept,
        }
        assert survivors == frames[: len(boundaries)]
