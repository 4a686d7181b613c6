"""Cross-backend equivalence properties (hypothesis).

Every registered compute backend must be interchangeable with the numpy
baseline under the kernel contracts:

* the packed columnwise popcount is exact integer math, so counts are
  byte-identical on every backend, for every matrix;
* ``exactness="bitexact"`` sampling runs the frozen float64 path, which
  never reaches a compute backend — fixed-seed packed output is
  therefore byte-identical regardless of the configured backend;
* ``exactness="fast"`` sampling may consume the generator differently
  per backend (the threaded backend derives a generator per tile), so
  only the *distribution* is pinned: per-bit rates must sit inside a
  wide exact binomial envelope.

Backends whose optional dependency is absent (numba without the
``numba`` extra) are skipped cleanly, never failed: the suite's job is
to verify every backend that *can* run here, and CI runs it again with
the extra installed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.kernels import (
    BITEXACT,
    FAST,
    available_compute_backends,
    get_compute_backend,
    packed_column_counts,
    packed_width,
)
from repro.mechanisms import OptimizedUnaryEncoding

BACKENDS = sorted(available_compute_backends())


def _backend_param(name):
    return pytest.param(name, id=name)


@pytest.fixture(params=[_backend_param(name) for name in BACKENDS])
def backend_name(request):
    return request.param


packed_matrices = st.builds(
    lambda seed, rows, m: (seed, rows, m),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=0, max_value=600),
    m=st.integers(min_value=1, max_value=257),
)


@given(case=packed_matrices)
@settings(max_examples=40, deadline=None)
def test_popcount_identical_across_backends(case):
    seed, rows, m = case
    width = packed_width(m)
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 256, size=(rows, width), dtype=np.uint8)
    pad_bits = 8 * width - m
    if pad_bits:
        matrix[:, -1] &= (0xFF << pad_bits) & 0xFF
    expected = packed_column_counts(matrix, m)
    for name in BACKENDS:
        counts = get_compute_backend(name).packed_column_counts(matrix, m)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected), name


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=300),
    m=st.integers(min_value=1, max_value=96),
)
@settings(max_examples=25, deadline=None)
def test_bitexact_output_identical_across_backends(seed, n, m):
    # Bitexact sampling is compute-independent by construction; this
    # property pins that the plumbing really keeps it that way.
    mechanism = OptimizedUnaryEncoding(1.5, m)
    items = np.arange(n, dtype=np.int64) % m
    base = mechanism.perturb_many_packed(
        items, np.random.default_rng(seed), sampler=BITEXACT
    )
    for name in BACKENDS:
        out = mechanism.perturb_many_packed(
            items, np.random.default_rng(seed), sampler=BITEXACT.with_compute(name)
        )
        assert np.array_equal(out, base), name


def test_bitexact_accumulator_state_identical_across_backends():
    from repro.pipeline import CountAccumulator

    rng = np.random.default_rng(77)
    m = 171
    matrix = rng.integers(0, 256, size=(4096, packed_width(m)), dtype=np.uint8)
    pad_bits = 8 * packed_width(m) - m
    matrix[:, -1] &= (0xFF << pad_bits) & 0xFF
    digests = set()
    for name in BACKENDS:
        acc = CountAccumulator(m, compute=name)
        acc.add_packed_reports(matrix)
        digests.add(acc.digest())
    assert len(digests) == 1


def test_fast_per_bit_rates_match_distribution(backend_name):
    # Fast sampling is distribution-correct per backend, not
    # stream-identical: check each backend's empirical per-bit rate
    # against an exact binomial envelope so the test is deterministic
    # yet catches any systematic bias a backend could introduce.
    p = 47.0 / 256.0
    n = 40_000
    sampler = FAST.with_compute(backend_name)
    backend = sampler.compute_backend()
    out = backend.packed_bernoulli(
        p, n, sampler.make_generator(np.random.SeedSequence(1234))
    )
    ones = int(np.unpackbits(out, axis=1, count=1).sum())
    lo, hi = stats.binom.ppf([1e-10, 1.0 - 1e-10], n, p)
    assert lo <= ones <= hi, (backend_name, ones, (lo, hi))


def test_fast_stream_counts_distribution_across_backends(backend_name):
    # End to end: the engine with sampler="fast" on each backend lands
    # inside the envelope the mechanism's law implies per bit.
    from repro.pipeline import stream_counts

    m, n = 32, 20_000
    mechanism = OptimizedUnaryEncoding(2.0, m)
    sampler = FAST.with_compute(backend_name)
    acc = stream_counts(
        mechanism,
        np.zeros(n, dtype=np.int64),
        chunk_size=4096,
        rng=sampler.make_generator(np.random.SeedSequence(9)),
        packed=True,
        sampler=sampler,
    )
    counts = acc.counts()
    # Bit 0 fires at rate a (the true item); the rest at rate b.
    for index, rate in [(0, mechanism.a[0]), (1, mechanism.b[1])]:
        lo, hi = stats.binom.ppf([1e-10, 1.0 - 1e-10], n, rate)
        assert lo <= counts[index] <= hi, (backend_name, index)


def test_absent_backends_skip_cleanly():
    # The suite parameterizes over *available* backends only; a backend
    # registered but missing its dependency must not appear (and must
    # still be resolvable-with-a-clear-error, covered in unit tests).
    from repro.kernels import compute_backend_names

    for name in set(compute_backend_names()) - set(BACKENDS):
        assert name not in BACKENDS
