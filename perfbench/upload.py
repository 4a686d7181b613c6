"""upload_msnbc: open-loop uploads to the exactly-once collection service.

The operator's path: a fleet of producers, each with its own line in
one keyfile (the ``serve --keys-file`` deployment), uploads small
IDUE-PS records (128 MSNBC-like users each, m = 14, ell = 4) to one
``ShardProcess`` service whose store sits on the working disk.
Per-record and per-session costs dominate: handshake, key checks,
staging, the group commit with its two fsyncs, and the acks.  The
kernels do almost nothing here.

Load is an open loop: sessions arrive on a fixed schedule (60 per
second at full size), whatever the service does, from one generator
thread over at most ``CONNECTIONS`` connections.  A session is one
producer's next upload of 16 records, continuing its sequence numbers,
and its latency runs from its *scheduled* arrival to its last ack, so
a stall also charges the sessions queued behind it.  The rate is a
constant, about half the closed-loop capacity measured with a shared
key; it is never derived from a run.  Sessions of the first two
seconds are checked but left out of the percentiles.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import time

import numpy as np

from common import (
    Launcher,
    Outcome,
    RunDir,
    budget_spec,
    check,
    cpu_times,
    median,
    percentile,
    proc_cpu_s,
    proc_hwm_mb,
    snapshot_digest,
    steal_share,
    timed_setups,
    write_keyfile,
)
from tracer import (
    ENGINE_POINTS,
    Tracer,
    add_rows,
    engine_row,
    finish_engine_row,
    load_spans,
    service_row,
    span_of,
)

from repro.datasets import msnbc_like
from repro.kernels import FAST
from repro.mechanisms.idue_ps import IDUEPS
from repro.pipeline import CountAccumulator
from repro.pipeline.collect import wire
from repro.pipeline.service import ServiceSession

M = 14
ELL = 4
WIDTH = M + ELL
EPSILON = 2.0
ROUND_ID = 1
#: Set-up runs this many times per untraced run; ``setup_s`` is the
#: median.  A traced run sets up once.
SETUP_REPEATS = 5
CONNECTIONS = 2
#: Sessions of the window's last slice starting this late (median)
#: mean the backlog grew: the service is over capacity at this rate,
#: and the run reports no latency.
BACKLOG_LIMIT_S = 1.0
#: Percentiles are taken per slice of this many seconds of arrivals
#: (150 sessions at full rate, so a slice's p90 has 15 samples beyond
#: it); see ``_sliced`` for how slices combine.
SLICE_S = 2.5
PROFILES = {
    "full": {
        "producers": 1024,
        "records": 16,
        "users": 128,
        "rate": 60.0,
        "pool": 32_768,
        "warmup_s": 2.0,
    },
    "tiny": {
        "producers": 32,
        "records": 4,
        "users": 32,
        "rate": 20.0,
        "pool": 2048,
        "warmup_s": 0.5,
    },
}


class OverCapacity(RuntimeError):
    """The generator fell behind its schedule: the run has no latency."""


def _setup(seed, cfg, sessions, run_dir, launcher, tracer=None):
    """Inputs, keyfile and a started service; returns the upload plan
    with the frames' rows, the secrets, the keyfile and the service."""
    span = span_of(tracer)
    with span("datasets.generate"):
        pool = msnbc_like(cfg["pool"], M, rng=np.random.default_rng([seed, 1]))
    spec = budget_spec(EPSILON, M)
    with span("optim.solve"):
        mechanism = IDUEPS.optimized(spec, ELL)
    rng = FAST.make_generator(np.random.SeedSequence([seed, 3]))
    users = cfg["users"]
    per_pass = pool.n // users
    records_needed = sessions * cfg["records"]
    # Records cycle through one pool of users, each pass with fresh
    # randomness: ~2.5M distinct surrogate users would cost more time to
    # generate than the run itself.
    rows: list[np.ndarray] = []
    while len(rows) < records_needed:
        packed = mechanism.perturb_many_packed(
            pool.flat_items, pool.offsets, rng, sampler=FAST
        )
        rows.extend(packed[i * users : (i + 1) * users] for i in range(per_pass))
    del rows[records_needed:]
    frames = [wire.dump_chunk(r, WIDTH, round_id=ROUND_ID) for r in rows]

    producers = [f"producer-{i:04d}" for i in range(cfg["producers"])]
    keyfile = os.path.join(run_dir.path, "producers.keys")
    secrets = write_keyfile(keyfile, producers, seed)
    service = _start(launcher, run_dir, keyfile)
    plan = []
    for i in range(sessions):
        producer = producers[i % len(producers)]
        seq0 = (i // len(producers)) * cfg["records"]
        batch = frames[i * cfg["records"] : (i + 1) * cfg["records"]]
        plan.append((producer, seq0, batch))
    return plan, rows, secrets, keyfile, service


def _start(launcher, run_dir, keyfile, trace_dir=None):
    """A service on a fresh store root."""
    return launcher.start(
        run_dir.fresh("store"),
        [{"m": WIDTH, "round_id": ROUND_ID}],
        keyfile,
        trace_dir=trace_dir,
    )


async def _session(service, secret, producer, seq0, batch):
    """One upload; returns (connect_start, connected, last_ack, statuses)."""
    session = ServiceSession(
        service.host,
        service.port,
        key=secret,
        producer_id=producer,
        m=WIDTH,
        round_id=ROUND_ID,
    )
    start = time.perf_counter()
    try:
        await session.connect()
        connected = time.perf_counter()
        for offset, frame in enumerate(batch):
            await session.send_nowait(frame, seq0 + offset)
        statuses = []
        for offset in range(len(batch)):
            statuses.append((await session.read_ack(seq0 + offset)).status)
        return start, connected, time.perf_counter(), statuses
    finally:
        await session.close()


async def _open_loop(service, plan, secrets, rate, warmup_s):
    """Drive *plan* on schedule.

    Returns the schedule start, per-session records, the max backlog,
    the service's CPU seconds from the end of the warm-up on, and the
    machine's CPU steal share in each measured slice.
    """
    queue: asyncio.Queue = asyncio.Queue()
    t0 = time.perf_counter() + 0.05
    t_measure = t0 + warmup_s
    slices = max(1, math.ceil((len(plan) / rate - warmup_s) / SLICE_S))
    results: list[dict] = [None] * len(plan)
    backlog_max = 0
    samples: list[tuple] = []

    async def sample_slices() -> None:
        for k in range(slices + 1):
            await asyncio.sleep(max(0.0, t_measure + k * SLICE_S - time.perf_counter()))
            samples.append((proc_cpu_s(service.pid), cpu_times()))

    async def schedule() -> None:
        nonlocal backlog_max
        for i in range(len(plan)):
            delay = t0 + i / rate - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            backlog_max = max(backlog_max, queue.qsize())
            queue.put_nowait(i)
        for _ in range(CONNECTIONS):
            queue.put_nowait(None)

    async def connection() -> None:
        while (i := await queue.get()) is not None:
            producer, seq0, batch = plan[i]
            due = t0 + i / rate
            try:
                start, connected, done, statuses = await _session(
                    service, secrets[producer], producer, seq0, batch
                )
            except Exception as exc:  # a failed session counts as failed
                results[i] = {"due": due, "error": repr(exc), "statuses": []}
                continue
            results[i] = {
                "due": due,
                "lag": start - due,
                "handshake": connected - start,
                "latency": done - due,
                "statuses": statuses,
            }

    await asyncio.gather(
        schedule(), sample_slices(), *(connection() for _ in range(CONNECTIONS))
    )
    cpu_s = proc_cpu_s(service.pid) - samples[0][0]
    steal = [steal_share(a[1], b[1]) for a, b in zip(samples, samples[1:])]
    return t0, results, backlog_max, cpu_s, steal


def _window(service, plan, secrets, cfg, out):
    """One open-loop window against *service*; checks every ack."""
    # The generator must not stall on a full collection that walks the
    # set-up's long-lived objects: that would delay sessions it owes.
    gc.collect()
    gc.freeze()
    t0, results, backlog_max, cpu_s, steal = asyncio.run(
        _open_loop(service, plan, secrets, cfg["rate"], cfg["warmup_s"])
    )
    expected = sum(len(batch) for _, _, batch in plan)
    merged = sum(
        status == wire.ACK_MERGED for r in results for status in r["statuses"]
    )
    out.attempted += expected
    out.failed += expected - merged
    errors = [r["error"] for r in results if "error" in r]
    check(not errors, f"{len(errors)} sessions failed, first: {errors[:1]}")
    check(merged == expected, f"{merged} of {expected} records acked MERGED")
    t_measure = t0 + cfg["warmup_s"]
    measured = [r for r in results if r["due"] >= t_measure]
    slices = [int((r["due"] - t_measure) // SLICE_S) for r in measured]
    final_lag = median([r["lag"] for r, i in zip(measured, slices) if i == slices[-1]])
    if final_lag > BACKLOG_LIMIT_S:
        raise OverCapacity(
            f"sessions start {final_lag:.2f} s late at the end of the window "
            f"(backlog up to {backlog_max}): over capacity"
        )
    return {
        "t_measure": t_measure,
        "slice": slices,
        "steal": steal,
        "latency_ms": [1e3 * r["latency"] for r in measured],
        "handshake_ms": [1e3 * r["handshake"] for r in measured],
        "lag_ms": [1e3 * r["lag"] for r in measured],
        "backlog_max": backlog_max,
        "records": sum(len(r["statuses"]) for r in measured),
        "cpu_s": cpu_s,
        "hwm_mb": proc_hwm_mb(service.pid),
    }


def _check_digest(launcher, service, rows) -> None:
    """Stop the service (SIGTERM snapshot) and compare its round digest."""
    launcher.terminate(service)
    reference = CountAccumulator(WIDTH, round_id=ROUND_ID)
    for r in rows:
        reference.add_packed_reports(r)
    digest = snapshot_digest(service.store_root, ROUND_ID)
    check(digest == reference.digest(), "service round digest != frames sent")


def run(out: Outcome, seed: int, seconds: float, trace: bool, profile: str) -> None:
    cfg = PROFILES[profile]
    # A traced run alternates untraced and traced windows, each against
    # its own service, so both sides of the tracing overhead see the
    # same machine state.
    windows = 4 if trace else 1
    sessions = int(round((cfg["warmup_s"] + seconds / windows) * cfg["rate"]))
    launcher = Launcher()  # before any input exists: a lean parent
    run_dir = RunDir()
    out.meta["store_root"] = run_dir.path
    try:
        if trace:
            tracer = Tracer()
            with tracer.installed(ENGINE_POINTS):
                setup = _setup(seed, cfg, sessions, run_dir, launcher, tracer)
        else:
            setup, setup_s = timed_setups(
                lambda: _setup(seed, cfg, sessions, run_dir, launcher),
                SETUP_REPEATS,
                lambda setup: launcher.terminate(setup[-1]),
            )
        plan, rows, secrets, keyfile, service = setup
        results = []
        for index in range(windows):
            traced = index % 2 == 1
            if index:
                trace_dir = run_dir.fresh("spans") if traced else None
                service = _start(launcher, run_dir, keyfile, trace_dir)
            window = _window(service, plan, secrets, cfg, out)
            window["traced"] = traced
            if traced:
                window["spans"] = load_spans(launcher.spans_path(service))
            _check_digest(launcher, service, rows)
            results.append(window)
    finally:
        launcher.close()
        run_dir.close()

    out.meta["rate_sessions_per_s"] = cfg["rate"]
    out.meta["windows"] = [_window_meta(window) for window in results]
    if trace:
        _layer_metrics(out, tracer.spans, results)
        return
    (window,) = results
    out.put("latency_ms", _sliced(window, 50))
    # Recorded, not gated: on a 2-vCPU VM guest their ten-run spreads
    # tracked the host's CPU steal and exceeded the bound (README.md).
    out.meta["upload_p75_ms"] = _sliced(window, 75)
    out.meta["upload_p90_ms"] = _sliced(window, 90)
    out.put("setup_s", setup_s)
    out.put("peak_rss_mb", window["hwm_mb"])


def _sliced(window, q: float) -> float:
    """The median over the window's slices of each slice's *q*-th
    latency percentile.

    CPU steal on a shared host comes in bursts of seconds; the median
    over slices keeps a minority of stalled slices from moving the
    figure, while a program that is slower throughout is slower in
    every slice.
    """
    slices: dict[int, list] = {}
    for index, value in zip(window["slice"], window["latency_ms"]):
        slices.setdefault(index, []).append(value)
    return median([percentile(values, q) for values in slices.values()])


def _window_meta(window) -> dict:
    return {
        "traced": window["traced"],
        "latency_samples": len(window["latency_ms"]),
        "latency_slices": len(set(window["slice"])),
        "slice_steal_share": [round(x, 4) for x in window["steal"]],
        "generator_start_lag_p90_ms": percentile(window["lag_ms"], 90),
        "generator_backlog_max": window["backlog_max"],
    }


def _layer_metrics(out, setup_spans, windows) -> None:
    """Set-up plus one traced window, per layer: medians over the
    traced windows."""
    setup = engine_row(setup_spans)
    rows: dict[str, list] = {}
    for window in (w for w in windows if w["traced"]):
        spans, start = window["spans"], window["t_measure"]
        row = finish_engine_row(add_rows(setup, engine_row(spans, start)))
        row.update(service_row(spans, window["records"], start))
        row.update(
            {
                "service.cpu_s": window["cpu_s"],
                "sessions.handshake_p50_ms": percentile(window["handshake_ms"], 50),
                "generator.start_lag_p90_ms": percentile(window["lag_ms"], 90),
                "generator.backlog_max": window["backlog_max"],
            }
        )
        for name, value in row.items():
            rows.setdefault(name, []).append(value)
    for name, values in rows.items():
        out.put(name, median(values))
    plain = median([_sliced(w, 50) for w in windows if not w["traced"]])
    traced = median([_sliced(w, 50) for w in windows if w["traced"]])
    out.put("trace.latency_ms_delta", traced - plain)
    out.put("trace.overhead_share", (traced - plain) / plain)
