"""The fast sampler's chunk pool in the streaming engine.

Fast chunks each draw from their own generator, derived from the
caller's generator state, and run on a thread pool created per
``stream_counts`` call.  The claims pinned here:

* output is a pure function of ``(generator state, chunk_size)`` —
  identical digests with the worker count forced to 1, 2 and 3, and
  identical to what ``iter_report_chunks`` yields for the same state;
* a ``chunk_sink`` sees exactly the counted chunks, in chunk order, as
  fresh arrays it may keep;
* worker tasks run in copies of the caller's context;
* no thread survives the call, and a pooled call followed by a forked
  ``ShardedRunner`` does not hang;
* a ``ShardedRunner`` worker process counts its chunks inline, on its
  one thread, so the processes together hold one chunk per CPU.
"""

from __future__ import annotations

import contextvars
import itertools
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IDUEPS, BudgetSpec, OptimizedUnaryEncoding
from repro.datasets import ItemsetDataset
from repro.kernels import BITEXACT, FAST, packed_width
from repro.mechanisms import GeneralizedRandomizedResponse
from repro.pipeline import (
    CountAccumulator,
    ShardedRunner,
    engine,
    iter_report_chunks,
    stream_counts,
)

#: Report widths in packed bytes: one byte, a ragged three bytes, and
#: Kosarak's m + ell = 41,278 bits.
WIDTHS = {1: (5, 2), 3: (20, 3), 5160: (41_270, 8)}


@lru_cache(maxsize=None)
def _idueps(width: int) -> IDUEPS:
    m, ell = WIDTHS[width]
    spec = BudgetSpec.from_level_sizes([1.0, 2.0], [m // 2, m - m // 2])
    return IDUEPS.optimized(spec, ell)


@lru_cache(maxsize=None)
def _oue(width: int) -> OptimizedUnaryEncoding:
    m, ell = WIDTHS[width]
    return OptimizedUnaryEncoding(1.5, m + ell)


def _workload(kind: str, width: int, users: int, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "oue":
        mechanism = _oue(width)
        return mechanism, rng.integers(mechanism.m, size=users)
    mechanism = _idueps(width)
    sets = [
        rng.choice(mechanism.m, size=int(rng.integers(1, 4)), replace=False).tolist()
        for _ in range(users)
    ]
    return mechanism, ItemsetDataset.from_sets(sets, m=mechanism.m)


def _digest(mechanism, data, *, workers, seed, chunk_size, packed=True, **kwargs):
    with mock.patch.object(engine, "_available_cpus", return_value=workers):
        return stream_counts(
            mechanism,
            data,
            chunk_size=chunk_size,
            rng=FAST.make_generator(seed),
            packed=packed,
            sampler=FAST,
            **kwargs,
        ).digest()


class TestWorkerCountIndependence:
    @settings(max_examples=24, deadline=None)
    @given(
        kind=st.sampled_from(["oue", "idueps"]),
        width=st.sampled_from(sorted(WIDTHS)),
        users=st.integers(min_value=1, max_value=70),
        chunk_size=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_digest_identical_for_one_two_three_workers(
        self, kind, width, users, chunk_size, seed
    ):
        mechanism, data = _workload(kind, width, users, seed)
        assert packed_width(engine.report_width(mechanism)) == width
        digests = {
            workers: _digest(
                mechanism, data, workers=workers, seed=seed, chunk_size=chunk_size
            )
            for workers in (1, 2, 3)
        }
        assert len(set(digests.values())) == 1, digests
        replay = CountAccumulator(engine.report_width(mechanism))
        for chunk in iter_report_chunks(
            mechanism,
            data,
            chunk_size=chunk_size,
            rng=FAST.make_generator(seed),
            packed=True,
            sampler=FAST,
        ):
            replay.add_packed_reports(chunk)
        assert replay.digest() == digests[1]

    @pytest.mark.parametrize("packed", [False, True])
    def test_unpacked_and_packed_reports(self, packed):
        mechanism, items = _workload("oue", 3, 301, seed=4)
        digests = {
            _digest(mechanism, items, workers=w, seed=4, chunk_size=64, packed=packed)
            for w in (1, 2, 3)
        }
        assert len(digests) == 1

    def test_categorical_reports(self):
        mechanism = GeneralizedRandomizedResponse(2.0, 9)
        items = np.random.default_rng(2).integers(9, size=1001)
        digests = {
            _digest(mechanism, items, workers=w, seed=8, chunk_size=100, packed=False)
            for w in (1, 2, 3)
        }
        assert len(digests) == 1

    def test_continues_an_existing_round(self):
        mechanism, items = _workload("oue", 1, 250, seed=6)
        digests = set()
        for workers in (1, 3):
            accumulator = CountAccumulator(mechanism.m, round_id=4)
            accumulator.add_packed_reports(np.zeros((2, 1), dtype=np.uint8))
            digests.add(
                _digest(
                    mechanism,
                    items,
                    workers=workers,
                    seed=6,
                    chunk_size=32,
                    accumulator=accumulator,
                )
            )
            assert accumulator.n == 252 and accumulator.round_id == 4
        assert len(digests) == 1

    def test_threaded_compute_chunks_match_the_stream(self):
        # Both calls start from generators over one SeedSequence: the
        # threaded backend's tiles must derive from generator state, or
        # the second call sees children the first one already spawned.
        mechanism, items = _workload("oue", 3, 5000, seed=7)
        sampler = FAST.with_compute("threaded")
        seed = np.random.SeedSequence(7)
        replay = CountAccumulator(mechanism.m)
        for chunk in iter_report_chunks(
            mechanism,
            items,
            rng=sampler.make_generator(seed),
            packed=True,
            sampler=sampler,
        ):
            replay.add_packed_reports(chunk)
        counted = stream_counts(
            mechanism,
            items,
            rng=sampler.make_generator(seed),
            packed=True,
            sampler=sampler,
        )
        assert replay.digest() == counted.digest()

    def test_calls_with_one_generator_draw_fresh_streams(self):
        mechanism, items = _workload("oue", 3, 200, seed=1)
        rng = FAST.make_generator(5)
        one = stream_counts(mechanism, items, chunk_size=50, rng=rng, sampler=FAST)
        two = stream_counts(mechanism, items, chunk_size=50, rng=rng, sampler=FAST)
        assert one.digest() != two.digest()


class TestChunkSink:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_sink_sees_the_counted_chunks_in_order(self, workers):
        mechanism, data = _workload("idueps", 3, 203, seed=12)
        kept = []
        with mock.patch.object(engine, "_available_cpus", return_value=workers):
            counted = stream_counts(
                mechanism,
                data,
                chunk_size=20,
                rng=FAST.make_generator(12),
                packed=True,
                sampler=FAST,
                chunk_sink=kept.append,
            )
        assert [chunk.shape[0] for chunk in kept] == [20] * 10 + [3]
        replay = CountAccumulator(counted.m)
        for chunk in kept:
            replay.add_packed_reports(chunk)
        assert replay.digest() == counted.digest()
        expected = list(
            iter_report_chunks(
                mechanism,
                data,
                chunk_size=20,
                rng=FAST.make_generator(12),
                packed=True,
                sampler=FAST,
            )
        )
        assert len(kept) == len(expected)
        for chunk, reference in zip(kept, expected):
            assert np.array_equal(chunk, reference)
        # Every kept chunk is its own array: none was reused or overwritten.
        for index, chunk in enumerate(kept[1:], start=1):
            assert not np.shares_memory(chunk, kept[index - 1])

    def test_bitexact_chunks_run_inline_in_order(self):
        mechanism, items = _workload("oue", 1, 90, seed=3)
        kept, producers = [], set()
        add = CountAccumulator.add_reports

        def recording_add(self, reports):
            producers.add(threading.current_thread().name)
            return add(self, reports)

        with mock.patch.object(engine, "_available_cpus", return_value=3):
            with mock.patch.object(CountAccumulator, "add_reports", recording_add):
                stream_counts(
                    mechanism,
                    items,
                    chunk_size=40,
                    rng=np.random.default_rng(3),
                    sampler=BITEXACT,
                    chunk_sink=kept.append,
                )
        assert producers == {threading.current_thread().name}
        expected = list(
            iter_report_chunks(
                mechanism, items, chunk_size=40, rng=np.random.default_rng(3)
            )
        )
        assert len(kept) == len(expected) == 3
        for chunk, reference in zip(kept, expected):
            assert np.array_equal(chunk, reference)


class TestPoolLifecycle:
    def test_tasks_run_in_copies_of_the_callers_context(self):
        mechanism, items = _workload("oue", 3, 160, seed=2)
        marker = contextvars.ContextVar("marker", default="unset")
        seen = []
        add = CountAccumulator.add_packed_reports

        def recording_add(self, packed):
            seen.append((marker.get(), threading.current_thread().name))
            marker.set("leaked")  # must not reach any other chunk
            return add(self, packed)

        token = marker.set("caller")
        try:
            with mock.patch.object(
                CountAccumulator, "add_packed_reports", recording_add
            ):
                _digest(mechanism, items, workers=2, seed=2, chunk_size=20)
        finally:
            marker.reset(token)
        assert len(seen) == 8
        assert {value for value, _ in seen} == {"caller"}
        assert all(name.startswith("repro-chunks") for _, name in seen)

    def test_more_workers_than_cores_under_fast_switching(self):
        """Eight workers, a 1 us switch interval: same digest, same order."""
        mechanism, data = _workload("idueps", 3, 400, seed=21)
        reference, kept = [], []
        expected = _digest(
            mechanism, data, workers=1, seed=21, chunk_size=7,
            chunk_sink=reference.append,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            digest = _digest(
                mechanism, data, workers=8, seed=21, chunk_size=7,
                chunk_sink=kept.append,
            )
        finally:
            sys.setswitchinterval(interval)
        assert digest == expected
        assert len(kept) == len(reference) == 58
        assert all(np.array_equal(a, b) for a, b in zip(kept, reference))

    def test_no_thread_outlives_the_call(self):
        mechanism, items = _workload("oue", 3, 500, seed=9)
        before = threading.active_count()
        _digest(mechanism, items, workers=3, seed=9, chunk_size=50)
        assert threading.active_count() == before
        assert not [t for t in threading.enumerate() if t.name.startswith("repro-")]

    def test_worker_error_propagates_and_joins_the_pool(self):
        mechanism, items = _workload("oue", 3, 500, seed=9)
        before = threading.active_count()
        calls = itertools.count()
        add = CountAccumulator.add_packed_reports

        def failing_add(self, packed):
            if next(calls) == 3:
                raise RuntimeError("chunk refused")
            return add(self, packed)

        with mock.patch.object(CountAccumulator, "add_packed_reports", failing_add):
            with pytest.raises(RuntimeError, match="chunk refused"):
                _digest(mechanism, items, workers=2, seed=9, chunk_size=50)
        assert threading.active_count() == before

    def test_pooled_call_then_forked_runner_does_not_hang(self):
        script = textwrap.dedent(
            """
            import threading
            from unittest import mock

            import numpy as np

            from repro import OptimizedUnaryEncoding
            from repro.kernels import FAST
            from repro.pipeline import ShardedRunner, engine, stream_counts

            mechanism = OptimizedUnaryEncoding(1.5, 64)
            items = np.random.default_rng(0).integers(64, size=4000)
            with mock.patch.object(engine, "_available_cpus", return_value=2):
                pooled = stream_counts(
                    mechanism, items, chunk_size=500, rng=FAST.make_generator(1),
                    packed=True, sampler=FAST,
                )
            assert threading.active_count() == 1, threading.enumerate()
            runner = ShardedRunner(
                mechanism, num_shards=2, chunk_size=500, packed=True,
                sampler=FAST, processes=2,
            )
            sharded = runner.run(items, seed=1)
            assert pooled.n == sharded.n == items.size
            print("ok")
            """
        )
        src = Path(__file__).resolve().parents[2] / "src"
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "ok"

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched engine reaches the workers only through fork",
    )
    def test_sharded_runner_workers_count_chunks_on_one_thread(
        self, tmp_path, monkeypatch
    ):
        # Each worker process shares the CPUs with its siblings, so it
        # must count its chunks inline, whatever its affinity mask says.
        log = tmp_path / "threads.log"
        add = engine._add_chunk

        def logging_add(*args):
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {threading.active_count()}\n")
            return add(*args)

        monkeypatch.setattr(engine, "_add_chunk", logging_add)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        mechanism, items = _workload("oue", 3, 4000, seed=3)
        runner = ShardedRunner(
            mechanism,
            num_shards=2,
            chunk_size=250,
            packed=True,
            sampler=FAST,
            processes=2,
        )
        assert runner.run(items, seed=1).n == items.size
        calls = [line.split() for line in log.read_text().splitlines()]
        assert len(calls) == 16
        assert {pid for pid, _ in calls} - {str(os.getpid())}, "no shard forked"
        assert {threads for _, threads in calls} == {"1"}
