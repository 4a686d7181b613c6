"""Durable-collection throughput: spill and replay.

The collection subsystem's costs on top of the streaming pipeline:

* **spill** — streaming a round while writing every packed chunk to a
  :class:`~repro.pipeline.ShardStore` as wire frames (the durable path);
* **replay** — re-aggregating the round out of core from the spilled
  frames (the audit path).

Socket ingest is measured through the exactly-once service in
``bench_service.py``.

Rates are reported in Mbit/s of *wire payload* (spilled frame bytes), so
the numbers compare directly against the sampler throughput benchmarks:
the wire format is 8x denser than one byte per report bit.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest

from repro import OptimizedUnaryEncoding
from repro.datasets import zipf_items
from repro.kernels import FAST
from repro.pipeline import ShardStore, stream_counts
from repro.pipeline.collect import wire

N_USERS = 40_000
DOMAIN = 2_000
CHUNK = 2_048


@pytest.fixture(scope="module")
def workload():
    return OptimizedUnaryEncoding(1.5, DOMAIN), zipf_items(N_USERS, DOMAIN, rng=0)


@pytest.fixture()
def spill_root():
    root = tempfile.mkdtemp(prefix="bench_collect_")
    yield root
    shutil.rmtree(root, ignore_errors=True)


def _spill_round(mechanism, items, root) -> ShardStore:
    store = ShardStore(root)
    with store.writer(0, DOMAIN) as writer:
        accumulator = stream_counts(
            mechanism,
            items,
            chunk_size=CHUNK,
            rng=FAST.make_generator(1),
            packed=True,
            sampler=FAST,
            chunk_sink=writer.write,
        )
    store.write_snapshot(0, accumulator)
    return store


def bench_collect_spill(
    benchmark, workload, spill_root, record_result, record_json, repeat
):
    """Fast-sampler streaming with every chunk spilled as wire frames."""
    mechanism, items = workload
    store = benchmark.pedantic(
        _spill_round,
        args=(mechanism, items, spill_root),
        rounds=repeat(3),
        warmup_rounds=1,
    )
    secs = benchmark.stats["mean"]
    wire_bits = 8 * store.spilled_bytes()
    record_json(
        "collect_spill",
        n=N_USERS,
        m=DOMAIN,
        mean_secs=secs,
        bits_per_sec=wire_bits / secs,
        spilled_bytes=store.spilled_bytes(),
    )
    record_result(
        "collect_spill",
        f"spill (stream + wire frames to disk): n={N_USERS}, m={DOMAIN}\n"
        f"mean {secs * 1e3:.1f}ms -> {wire_bits / secs / 1e6:,.0f} Mbit/s wire "
        f"({store.spilled_bytes() / 2**20:.1f} MiB spilled)",
    )


def bench_collect_replay(
    benchmark, workload, spill_root, record_result, record_json, repeat
):
    """Out-of-core re-aggregation of a spilled round (the audit path).

    Replay is the zero-copy showcase: the spill is mmap'd and every
    chunk's rows are numpy views over the mapped pages.  The benchmark
    counts payload copies through ``wire.payload_copy_hook`` and records
    them (the whole replay must make zero) next to the throughput.
    """
    mechanism, items = workload
    store = _spill_round(mechanism, items, spill_root)
    copies = {"events": 0, "bytes": 0}

    def note_copy(site, nbytes):
        copies["events"] += 1
        copies["bytes"] += nbytes

    previous = wire.payload_copy_hook
    wire.payload_copy_hook = note_copy
    try:
        replayed = benchmark.pedantic(
            store.replay, rounds=repeat(3), warmup_rounds=1
        )
    finally:
        wire.payload_copy_hook = previous
    secs = benchmark.stats["mean"]
    wire_bits = 8 * store.spilled_bytes()
    record_json(
        "collect_replay",
        n=N_USERS,
        m=DOMAIN,
        mean_secs=secs,
        bits_per_sec=wire_bits / secs,
        payload_copy_events=copies["events"],
        payload_copy_bytes=copies["bytes"],
    )
    record_result(
        "collect_replay",
        f"replay (mmap decode + popcount): n={N_USERS}, m={DOMAIN}\n"
        f"mean {secs * 1e3:.1f}ms -> {wire_bits / secs / 1e6:,.0f} Mbit/s wire, "
        f"{copies['events']} payload copies ({copies['bytes']} bytes)",
    )
    assert replayed.digest() == store.load_snapshot(0).digest()
    # The chunk replay path is copy-free end to end; a regression that
    # reintroduces a per-frame bytes copy fails here, not in review.
    assert copies["events"] == 0, copies

