"""Streamed-exact pipeline vs. binomial-shortcut simulation throughput.

The question a deployment asks: what does running the *real* per-user
protocol (``repro.pipeline``) cost relative to the counts-only binomial
shortcut (``repro.simulation.fast``), and does the streamed path hold
its memory bound?  The shortcut draws each aggregate count directly, so
it is expected to win by orders of magnitude — the pipeline's value is
that it produces actual reports (wire format included) in
``O(chunk_size * m)`` memory instead of ``O(n * m)``.

Scale is deliberately below the paper's Kosarak width so the suite stays
interactive; `python -m repro.cli pipeline --n 1000000 --m 41270`
reproduces the full-scale run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import OptimizedUnaryEncoding
from repro.datasets import true_counts_from_items, zipf_items
from repro.pipeline import ShardedRunner, stream_counts
from repro.simulation import simulate_counts_from_true

N_USERS = 40_000
DOMAIN = 2_000
CHUNK = 2_048


@pytest.fixture(scope="module")
def workload():
    items = zipf_items(N_USERS, DOMAIN, rng=0)
    truth = true_counts_from_items(items, DOMAIN)
    return OptimizedUnaryEncoding(1.5, DOMAIN), items, truth


def bench_streamed_exact_counts(benchmark, workload, record_result, record_json):
    """Chunked per-user path: encode + perturb + aggregate every report."""
    mechanism, items, _ = workload
    result = benchmark(
        stream_counts,
        mechanism,
        items,
        chunk_size=CHUNK,
        rng=np.random.default_rng(1),
    )
    secs = benchmark.stats["mean"]
    rate = N_USERS / secs
    record_json(
        "pipeline_streamed_exact",
        n=N_USERS,
        m=DOMAIN,
        mean_secs=secs,
        bits_per_sec=N_USERS * DOMAIN / secs,
    )
    record_result(
        "pipeline_streamed_exact",
        f"streamed-exact: n={N_USERS}, m={DOMAIN}, chunk={CHUNK}\n"
        f"mean {secs:.3f}s -> {rate:,.0f} reports/s\n"
        f"peak chunk memory ~{CHUNK * DOMAIN * 9 / 2**20:.0f} MiB "
        f"(vs {N_USERS * DOMAIN / 2**30:.1f} GiB for the full matrix)",
    )
    assert result.n == N_USERS


def bench_streamed_fast_sampler_counts(benchmark, workload, record_result, record_json):
    """Same protocol on the packed bit-plane kernel (sampler='fast')."""
    from repro.kernels import FAST

    mechanism, items, _ = workload
    result = benchmark(
        stream_counts,
        mechanism,
        items,
        chunk_size=CHUNK,
        rng=FAST.make_generator(1),
        packed=True,
        sampler=FAST,
    )
    secs = benchmark.stats["mean"]
    record_json(
        "pipeline_streamed_fast",
        n=N_USERS,
        m=DOMAIN,
        mean_secs=secs,
        bits_per_sec=N_USERS * DOMAIN / secs,
    )
    record_result(
        "pipeline_streamed_fast",
        f"streamed fast-sampler: n={N_USERS}, m={DOMAIN}, chunk={CHUNK}, packed\n"
        f"mean {secs * 1e3:.1f}ms -> {N_USERS / secs:,.0f} reports/s "
        f"({N_USERS * DOMAIN / secs / 1e6:,.0f} Mbit/s)",
    )
    assert result.n == N_USERS


def bench_streamed_packed_counts(benchmark, workload):
    """Same path with the np.packbits wire format on every chunk."""
    mechanism, items, _ = workload
    result = benchmark(
        stream_counts,
        mechanism,
        items,
        chunk_size=CHUNK,
        rng=np.random.default_rng(1),
        packed=True,
    )
    assert result.n == N_USERS


def bench_sharded_runner_counts(benchmark, workload):
    """Shard fan-out + exact merge (pool falls back to serial on 1 CPU)."""
    mechanism, items, _ = workload
    runner = ShardedRunner(mechanism, num_shards=4, chunk_size=CHUNK)
    result = benchmark(runner.run, items, seed=1)
    assert result.n == N_USERS


def bench_fast_binomial_baseline(benchmark, workload, record_result, record_json):
    """Counts-only binomial shortcut over the identical workload."""
    mechanism, _, truth = workload
    benchmark(
        simulate_counts_from_true,
        truth,
        N_USERS,
        mechanism.a,
        mechanism.b,
        np.random.default_rng(1),
    )
    secs = benchmark.stats["mean"]
    record_json("pipeline_fast_baseline", n=N_USERS, m=DOMAIN, mean_secs=secs)
    record_result(
        "pipeline_fast_baseline",
        f"fast binomial baseline: n={N_USERS}, m={DOMAIN}\n"
        f"mean {secs * 1e3:.2f}ms (counts only, no reports)",
    )
