"""Unit tests for the pluggable compute-backend registry."""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.kernels import (
    BITEXACT,
    FAST,
    ComputeBackend,
    NumbaBackend,
    NumpyBackend,
    SamplerConfig,
    ThreadedBackend,
    available_compute_backends,
    compute_backend_names,
    get_compute_backend,
    packed_bernoulli,
    packed_column_counts,
    register_compute_backend,
)
from repro.kernels import backends as backends_module


def _unregister(name: str) -> None:
    backends_module._REGISTRY.pop(name, None)


class TestRegistry:
    def test_builtins_are_registered(self):
        names = compute_backend_names()
        assert "numpy" in names
        assert "numba" in names
        assert "threaded" in names

    def test_available_is_subset_of_registered(self):
        available = set(available_compute_backends())
        assert available <= set(compute_backend_names())
        # numpy and threaded have no optional dependency; they are
        # always available.
        assert "numpy" in available
        assert "threaded" in available

    def test_unknown_backend_names_the_registry(self):
        with pytest.raises(ValidationError, match="numpy"):
            get_compute_backend("warp-speed")

    def test_unavailable_backend_names_its_requirement(self):
        class Missing(ComputeBackend):
            name = "missing-dep"

            @property
            def available(self):
                return False

            @property
            def requires(self):
                return "the 'frobnicator' package"

            def packed_bernoulli(self, p, n, rng, *, precision=8):
                raise AssertionError("unreachable")

            def packed_column_counts(self, packed, m):
                raise AssertionError("unreachable")

        register_compute_backend(Missing())
        try:
            with pytest.raises(ValidationError, match="frobnicator"):
                get_compute_backend("missing-dep")
        finally:
            _unregister("missing-dep")

    def test_register_refuses_taken_name_without_replace(self):
        with pytest.raises(ValidationError, match="already registered"):
            register_compute_backend(NumpyBackend())

    def test_register_replace(self):
        original = get_compute_backend("numpy")

        class Shadow(NumpyBackend):
            pass

        shadow = Shadow()
        shadow_name = "numpy"
        register_compute_backend(shadow, replace=True)
        try:
            assert get_compute_backend(shadow_name) is shadow
        finally:
            register_compute_backend(original, replace=True)
        assert get_compute_backend("numpy") is original

    def test_register_rejects_non_backend(self):
        with pytest.raises(ValidationError):
            register_compute_backend(object())


class TestSamplerConfigCompute:
    def test_default_compute_is_numpy(self):
        assert SamplerConfig().compute == "numpy"
        assert isinstance(BITEXACT.compute_backend(), NumpyBackend)

    def test_unknown_compute_fails_at_construction(self):
        with pytest.raises(ValidationError, match="registered backend"):
            SamplerConfig(compute="warp-speed")

    def test_with_compute(self):
        fast_threaded = FAST.with_compute("threaded")
        assert fast_threaded.compute == "threaded"
        assert fast_threaded.exactness == "fast"
        assert isinstance(fast_threaded.compute_backend(), ThreadedBackend)
        # The original preset is untouched (dataclass replace).
        assert FAST.compute == "numpy"

    def test_unavailable_compute_fails_at_resolution(self):
        config = SamplerConfig(compute="numba")
        if "numba" in available_compute_backends():
            assert config.compute_backend().name == "numba"
        else:
            with pytest.raises(ValidationError, match="unavailable"):
                config.compute_backend()

    def test_config_pickles_by_name(self):
        config = FAST.with_compute("threaded")
        clone = pickle.loads(pickle.dumps(config))
        assert clone.compute == "threaded"
        assert isinstance(clone.compute_backend(), ThreadedBackend)


class TestNumbaBackendGating:
    def test_registered_even_when_absent(self):
        assert "numba" in compute_backend_names()

    def test_unavailable_resolution_message(self):
        if "numba" in available_compute_backends():
            pytest.skip("numba is installed; gating not exercised")
        with pytest.raises(ValidationError, match="numba"):
            get_compute_backend("numba")

    def test_available_flag_matches_import(self):
        import importlib.util

        assert NumbaBackend().available == (
            importlib.util.find_spec("numba") is not None
        )


class TestThreadedBackend:
    def test_tile_rows_validated(self):
        with pytest.raises(ValidationError):
            ThreadedBackend(tile_rows=0)

    def test_popcount_matches_numpy(self):
        rng = np.random.default_rng(11)
        m = 203
        width = (m + 7) // 8
        mat = rng.integers(0, 256, size=(7000, width), dtype=np.uint8)
        mat[:, -1] &= 0xFF << (8 * width - m) & 0xFF
        backend = ThreadedBackend(tile_rows=512, inner=NumpyBackend())
        assert np.array_equal(
            backend.packed_column_counts(mat, m), packed_column_counts(mat, m)
        )

    def test_popcount_small_input_short_circuits(self):
        mat = np.zeros((3, 4), dtype=np.uint8)
        backend = ThreadedBackend(tile_rows=512, inner=NumpyBackend())
        assert np.array_equal(
            backend.packed_column_counts(mat, 32), np.zeros(32, dtype=np.int64)
        )

    def test_sampling_independent_of_worker_count(self):
        # The output is a pure function of (rng, tile_rows): child
        # streams are assigned by tile index before submission, so
        # scheduling and pool size cannot reorder randomness.
        kwargs = dict(tile_rows=256, inner=NumpyBackend())
        a = ThreadedBackend(max_workers=2, **kwargs).packed_bernoulli(
            0.37, 3000, np.random.default_rng(5)
        )
        b = ThreadedBackend(max_workers=7, **kwargs).packed_bernoulli(
            0.37, 3000, np.random.default_rng(5)
        )
        assert np.array_equal(a, b)

    def test_sampling_is_a_function_of_generator_state(self):
        # Two generators over one SeedSequence start in the same state.
        # Their tiles must not depend on how often that shared
        # SeedSequence has spawned before (Generator.spawn records it).
        seed = np.random.SeedSequence(21)
        backend = ThreadedBackend(tile_rows=256, max_workers=2, inner=NumpyBackend())
        a = backend.packed_bernoulli(0.37, 3000, FAST.make_generator(seed))
        b = backend.packed_bernoulli(0.37, 3000, FAST.make_generator(seed))
        assert np.array_equal(a, b)

    def test_no_thread_outlives_a_call(self):
        backend = ThreadedBackend(tile_rows=256, max_workers=3, inner=NumpyBackend())
        before = threading.active_count()
        packed = backend.packed_bernoulli(0.2, 3000, np.random.default_rng(1))
        backend.packed_column_counts(packed, 8)
        assert threading.active_count() == before

    def test_tiles_run_inline_off_the_main_thread(self, monkeypatch):
        # A caller on a worker thread (a chunk of the engine's pool)
        # already has its CPU: the tiles must not start a pool of their
        # own, and the output must not change.
        backend = ThreadedBackend(tile_rows=256, max_workers=3, inner=NumpyBackend())
        expected = backend.packed_bernoulli(0.37, 3000, np.random.default_rng(5))
        monkeypatch.setattr(backends_module, "ThreadPoolExecutor", None)
        results = {}

        def run():
            packed = backend.packed_bernoulli(0.37, 3000, np.random.default_rng(5))
            results["counts"] = backend.packed_column_counts(packed, 8)
            results["packed"] = packed

        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert np.array_equal(results["packed"], expected)
        assert np.array_equal(results["counts"], packed_column_counts(expected, 8))

    def test_sampling_tile_boundaries(self):
        backend = ThreadedBackend(tile_rows=64, max_workers=2, inner=NumpyBackend())
        for n in (64, 65, 127, 128, 129):
            out = backend.packed_bernoulli(0.5, n, np.random.default_rng(n))
            assert out.shape == (n, 1)

    def test_sampling_rate_is_sane(self):
        backend = ThreadedBackend(tile_rows=1024, max_workers=2, inner=NumpyBackend())
        out = backend.packed_bernoulli(0.25, 20000, np.random.default_rng(0))
        rate = np.unpackbits(out, axis=1, count=1).mean()
        assert abs(rate - 0.25) < 0.02

    def test_non_uniform_p_delegates(self):
        p = np.linspace(0.1, 0.9, 16)
        backend = ThreadedBackend(tile_rows=128, max_workers=2, inner=NumpyBackend())
        ours = backend.packed_bernoulli(p, 1000, np.random.default_rng(3))
        theirs = packed_bernoulli(p, 1000, np.random.default_rng(3))
        assert ours.shape == theirs.shape


class TestBitexactContract:
    def test_bitexact_sampling_never_reaches_compute_backend(self):
        # Under exactness="bitexact" the float64 path runs; compute
        # backends only see popcounts, which are exact everywhere — so
        # any compute choice leaves fixed-seed streams byte-identical.
        from repro.mechanisms import OptimizedUnaryEncoding

        mechanism = OptimizedUnaryEncoding(2.0, 64)
        items = np.arange(64, dtype=np.int64) % 64
        base = mechanism.perturb_many_packed(
            items, np.random.default_rng(9), sampler=BITEXACT
        )
        for name in available_compute_backends():
            out = mechanism.perturb_many_packed(
                items,
                np.random.default_rng(9),
                sampler=BITEXACT.with_compute(name),
            )
            assert np.array_equal(out, base), name
