"""Throughput / latency micro-benchmarks for the core operations.

These time the operational costs a deployment cares about:

* device-side perturbation rate (reports / second);
* the sampler kernels: streamed-exact bits/s with the frozen
  ``bitexact`` float64 path versus the packed ``fast`` kernel — the
  headline of the ``repro.kernels`` subsystem (target: fast >= 4x the
  PR 1 streamed-exact baseline on the same machine);
* PS sampling rate over ragged item-set batches;
* server-side calibration latency at Kosarak-scale domains;
* optimization latency versus the number of privacy levels t (the
  paper's scalability claim: cost depends on t, not on m or 2^m).

Run with ``--json PATH`` (``make bench-json``) to persist machine-
readable ``{name, n, m, mean_secs | best_secs, bits_per_sec, peak_rss}``
records.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import BudgetSpec, FrequencyEstimator, IDUE, IDUEPS, OptimizedUnaryEncoding
from repro.datasets import kosarak_like, paper_default_spec, zipf_items
from repro.kernels import (
    BITEXACT,
    FAST,
    available_compute_backends,
    compute_backend_names,
)
from repro.optim import solve
from repro.pipeline import stream_counts
from repro.simulation import simulate_counts_from_true

# BENCH_SMOKE=1 shrinks the sampler workload to CI-smoke size: the run
# validates that every backend executes and emits a well-formed record,
# not that the numbers mean anything (see `make bench-smoke`).
BENCH_SMOKE = os.environ.get("BENCH_SMOKE") == "1"

# Same workload as bench_pipeline's PR 1 streamed-exact baseline, so the
# bitexact/fast ratio reads directly as the kernel speedup.
SAMPLER_N = 2_000 if BENCH_SMOKE else 40_000
SAMPLER_M = 256 if BENCH_SMOKE else 2_000
SAMPLER_CHUNK = 512 if BENCH_SMOKE else 2_048

# PR 6's committed fast-path number on the reference box
# (benchmarks/results/BENCH_throughput.json) — the bar the fastest
# available backend must clear where the hardware can express it.
PR6_FAST_BITS_PER_SEC = 1_651_707_916.0
BACKEND_SPEEDUP_BAR = 1.5

# bits/s per backend, filled by bench_sampler_fast_backend and read by
# the bar assertion below (file-order execution).
_BACKEND_RESULTS: dict[str, dict] = {}


@pytest.fixture(scope="module")
def sampler_workload():
    items = zipf_items(SAMPLER_N, SAMPLER_M, rng=0)
    return OptimizedUnaryEncoding(1.5, SAMPLER_M), items


def _bench_stream(
    benchmark, workload, sampler, packed, name, record_result, record_json, rounds=3
):
    mechanism, items = workload
    result = benchmark.pedantic(
        stream_counts,
        args=(mechanism, items),
        kwargs=dict(
            chunk_size=SAMPLER_CHUNK,
            rng=sampler.make_generator(1),
            packed=packed,
            sampler=sampler,
        ),
        rounds=rounds,
        warmup_rounds=1,
    )
    secs = benchmark.stats["mean"]
    bits = SAMPLER_N * SAMPLER_M
    record_json(
        name,
        n=SAMPLER_N,
        m=SAMPLER_M,
        mean_secs=secs,
        bits_per_sec=bits / secs,
        sampler=sampler.exactness,
        packed=packed,
        rounds=rounds,
    )
    record_result(
        name,
        f"{name}: n={SAMPLER_N}, m={SAMPLER_M}, chunk={SAMPLER_CHUNK}, "
        f"sampler={sampler.exactness}, packed={packed}\n"
        f"mean {secs:.3f}s -> {bits / secs / 1e6:,.0f} Mbit/s "
        f"({SAMPLER_N / secs:,.0f} reports/s)",
    )
    assert result.n == SAMPLER_N


def bench_sampler_bitexact_stream(
    benchmark, sampler_workload, record_result, record_json, repeat
):
    """Before: the PR 1 streamed-exact path (float64 PCG64 per coin)."""
    _bench_stream(
        benchmark,
        sampler_workload,
        BITEXACT,
        False,
        "throughput_sampler_bitexact",
        record_result,
        record_json,
        rounds=repeat(3),
    )


def bench_sampler_fast_packed_stream(
    benchmark, sampler_workload, record_result, record_json, repeat
):
    """After: the packed bit-plane kernel, wire format end to end."""
    _bench_stream(
        benchmark,
        sampler_workload,
        FAST,
        True,
        "throughput_sampler_fast",
        record_result,
        record_json,
        rounds=repeat(3),
    )


@pytest.mark.parametrize("backend_name", sorted(compute_backend_names()))
def bench_sampler_fast_backend(
    benchmark, sampler_workload, record_result, record_json, repeat, backend_name
):
    """The fast packed path on each registered compute backend.

    Backends whose optional dependency is absent skip cleanly; each run
    records ``backend``, ``dtype`` and ``cpu_count`` alongside the
    throughput so committed numbers are attributable to a machine shape.
    Best-of-N: ``--repeat N`` widens the round count and the recorded
    seconds are the minimum.
    """
    if backend_name not in available_compute_backends():
        pytest.skip(f"compute backend {backend_name!r} is not available here")
    mechanism, items = sampler_workload
    sampler = FAST.with_compute(backend_name)
    rounds = repeat(3)
    result = benchmark.pedantic(
        stream_counts,
        args=(mechanism, items),
        kwargs=dict(
            chunk_size=SAMPLER_CHUNK,
            rng=sampler.make_generator(1),
            packed=True,
            sampler=sampler,
        ),
        rounds=rounds,
        warmup_rounds=1,
    )
    secs = benchmark.stats["min"]
    bits = SAMPLER_N * SAMPLER_M
    name = f"throughput_sampler_fast_{backend_name}"
    _BACKEND_RESULTS[backend_name] = {"best_secs": secs, "bits_per_sec": bits / secs}
    record_json(
        name,
        n=SAMPLER_N,
        m=SAMPLER_M,
        best_secs=secs,
        bits_per_sec=bits / secs,
        sampler=sampler.exactness,
        packed=True,
        backend=backend_name,
        dtype=sampler.dtype,
        repeat=rounds,
        smoke=BENCH_SMOKE,
    )
    record_result(
        name,
        f"{name}: n={SAMPLER_N}, m={SAMPLER_M}, chunk={SAMPLER_CHUNK}, "
        f"backend={backend_name}, repeat={rounds}\n"
        f"best {secs:.3f}s -> {bits / secs / 1e6:,.0f} Mbit/s "
        f"({SAMPLER_N / secs:,.0f} reports/s)",
    )
    assert result.n == SAMPLER_N


def bench_sampler_fast_backend_bar(record_result, record_json):
    """Hardware-gated speedup bar: fastest backend vs the PR 6 fast path.

    The parallel backends need either >= 2 cores (threaded) or the numba
    extra (JIT) to beat the single-core numpy kernel; on a box with
    neither, the bar cannot physically be met and the assertion is
    skipped — the honest per-backend numbers above are still recorded.
    """
    if not _BACKEND_RESULTS:
        pytest.skip("no backend results collected in this session")
    best_name = max(
        _BACKEND_RESULTS, key=lambda name: _BACKEND_RESULTS[name]["bits_per_sec"]
    )
    best = _BACKEND_RESULTS[best_name]
    speedup = best["bits_per_sec"] / PR6_FAST_BITS_PER_SEC
    cores = os.cpu_count() or 1
    parallel_capable = cores >= 2 or "numba" in available_compute_backends()
    record_json(
        "throughput_sampler_fast_best_backend",
        n=SAMPLER_N,
        m=SAMPLER_M,
        best_secs=best["best_secs"],
        bits_per_sec=best["bits_per_sec"],
        backend=best_name,
        speedup_vs_pr6=speedup,
        parallel_capable=parallel_capable,
        smoke=BENCH_SMOKE,
    )
    record_result(
        "throughput_sampler_fast_best_backend",
        f"best backend {best_name}: "
        f"{best['bits_per_sec'] / 1e6:,.0f} Mbit/s = {speedup:.2f}x PR 6 "
        f"fast path (cores={cores}, parallel_capable={parallel_capable})",
    )
    if BENCH_SMOKE or not parallel_capable:
        return  # recorded honestly; the bar needs parallel hardware
    assert speedup >= BACKEND_SPEEDUP_BAR, (
        f"fastest backend {best_name} reached only {speedup:.2f}x the PR 6 "
        f"fast path; the backend registry must buy >= "
        f"{BACKEND_SPEEDUP_BAR}x on parallel-capable hardware"
    )


@pytest.fixture(scope="module")
def idue_mechanism():
    spec = paper_default_spec(2.0, m=1000, rng=0)
    return IDUE.optimized(spec, model="opt0")


def bench_perturb_many_1k_users(benchmark, idue_mechanism):
    rng = np.random.default_rng(0)
    items = rng.integers(idue_mechanism.m, size=1000)
    benchmark(idue_mechanism.perturb_many, items, np.random.default_rng(1))


def bench_ps_sampling_100k_users(benchmark):
    data = kosarak_like(n=100_000, m=5000, rng=0)
    mech = IDUEPS.oue_ps(1.0, m=5000, ell=5)
    benchmark(
        mech.sampler.sample_many,
        data.flat_items,
        data.offsets,
        np.random.default_rng(2),
    )


def bench_fast_simulation_kosarak_domain(benchmark):
    """Aggregate-count simulation at the paper's full Kosarak width."""
    m, n = 41_270, 990_000
    rng = np.random.default_rng(0)
    truth = rng.multinomial(n, np.full(m, 1.0 / m))
    a = np.full(m, 0.5)
    b = np.full(m, 0.2)
    benchmark(simulate_counts_from_true, truth, n, a, b, np.random.default_rng(3))


def bench_estimator_calibration_kosarak_domain(benchmark):
    m, n = 41_270, 990_000
    est = FrequencyEstimator(np.full(m, 0.5), np.full(m, 0.2), n)
    counts = np.full(m, n // 5, dtype=float)
    benchmark(est.estimate, counts)


@pytest.mark.parametrize("t", [2, 4, 10, 20])
def bench_opt0_latency_by_levels(benchmark, t):
    """Optimization cost grows with t only (2t variables, t^2 constraints)."""
    epsilons = np.linspace(1.0, 4.0, t)
    sizes = np.full(t, 50)
    spec = BudgetSpec.from_level_sizes(epsilons, sizes)
    benchmark.pedantic(solve, args=(spec,), kwargs={"model": "opt0"}, rounds=1)
