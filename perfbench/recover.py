"""recover_kosarak: crash the service mid-round, resume it, resend everything.

The exactly-once contract under a crash, at Kosarak width: producers
pipeline IDUE-PS records (``USERS`` users each, m = 41,270 + ell = 8
bits per user, ~2.6 MB per record at full size) into a ``ShardProcess``
service; the service is SIGKILLed, restarted with ``resume=True``, and
every producer blind-resends its whole batch.  The same ``store``,
``ledger`` and ``accumulator`` layers serve three uses: per-byte
writes (ingest), a full-spill replay (resume), and a dedup pass
(resend).

Ingest is a closed loop: ``PRODUCERS`` producers share at most
``CONNECTIONS`` connections, each shipping its batch with
``send_records``.  Set-up (timed as ``setup_s``) generates the item
sets, solves the budget, pre-perturbs every record through
``stream_counts`` (whose accumulator is the reference tally), and
starts the service.  Each cycle then runs ingest, kill, resume and
resend on a fresh store; cycles repeat for the run's seconds after one
untimed warm-up cycle (``common.measure``).  The latency is the
restart's, what an operator waits for after the crash: from the fork
of the resumed service until it reports its address, the whole spill
replayed.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import time

import numpy as np

from common import (
    Launcher,
    Outcome,
    RunDir,
    budget_spec,
    check,
    measure,
    median,
    percentile,
    proc_cpu_s,
    proc_hwm_mb,
    snapshot_digest,
    timed_setups,
    write_keyfile,
)
from tracer import (
    CLIENT_POINTS,
    ENGINE_POINTS,
    Tracer,
    add_rows,
    engine_row,
    finish_engine_row,
    load_spans,
    self_times,
    service_row,
    span_of,
    summarize,
)

from repro.datasets import kosarak_like
from repro.kernels import FAST
from repro.mechanisms.idue_ps import IDUEPS
from repro.pipeline import stream_counts
from repro.pipeline.collect import wire
from repro.pipeline.service import send_records

M = 41_270
ELL = 8
WIDTH = M + ELL
EPSILON = 2.0
ROUND_ID = 1
#: Set-up runs this many times per untraced run; ``setup_s`` is the
#: median.  A traced run sets up once.
SETUP_REPEATS = 3
CONNECTIONS = 2
PROFILES = {
    "full": {"records": 32, "users": 512, "producers": 8},
    "tiny": {"records": 8, "users": 128, "producers": 4},
}


def _setup(seed, cfg, run_dir, launcher, tracer=None):
    """Records, the reference tally, keyfile and a started service."""
    span = span_of(tracer)
    n = cfg["records"] * cfg["users"]
    with span("datasets.generate"):
        data = kosarak_like(n, M, rng=np.random.default_rng([seed, 1]))
    spec = budget_spec(EPSILON, M)
    with span("optim.solve"):
        mechanism = IDUEPS.optimized(spec, ELL)
    frames: list[bytes] = []
    with span("engine.stream_counts"):
        reference = stream_counts(
            mechanism,
            data,
            chunk_size=cfg["users"],
            rng=FAST.make_generator(np.random.SeedSequence([seed, 3])),
            packed=True,
            sampler=FAST,
            round_id=ROUND_ID,
            chunk_sink=lambda rows: frames.append(
                wire.dump_chunk(rows, WIDTH, round_id=ROUND_ID)
            ),
        )
    producers = [f"producer-{i}" for i in range(cfg["producers"])]
    keyfile = os.path.join(run_dir.path, "producers.keys")
    secrets = write_keyfile(keyfile, producers, seed)
    # Producer p ships every len(producers)-th record, as seqs 0, 1, ...
    batches = {p: frames[i :: len(producers)] for i, p in enumerate(producers)}
    service = _start(launcher, run_dir, keyfile)
    return batches, secrets, reference, keyfile, service


def _start(launcher, run_dir, keyfile, trace_dir=None):
    return launcher.start(
        run_dir.fresh("store"),
        [{"m": WIDTH, "round_id": ROUND_ID}],
        keyfile,
        trace_dir=trace_dir,
    )


async def _send_all(service, batches, secrets):
    """Every producer's batch over at most CONNECTIONS connections."""
    queue: asyncio.Queue = asyncio.Queue()
    for producer in batches:
        queue.put_nowait(producer)
    statuses: list[int] = []

    async def connection() -> None:
        while not queue.empty():
            producer = queue.get_nowait()
            acks = await send_records(
                service.host,
                service.port,
                batches[producer],
                key=secrets[producer],
                producer_id=producer,
                m=WIDTH,
                round_id=ROUND_ID,
                raise_on_refusal=False,
            )
            statuses.extend(ack.status for ack in acks)

    await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))
    return statuses


def _phase(service, batches, secrets, expected_status, out):
    """Send every batch and check each ack.

    Returns ``(start, end, service cpu_s, share of acks as expected)``.
    """
    cpu_before = proc_cpu_s(service.pid)
    start = time.perf_counter()
    statuses = asyncio.run(_send_all(service, batches, secrets))
    end = time.perf_counter()
    cpu_s = proc_cpu_s(service.pid) - cpu_before
    sent = sum(len(batch) for batch in batches.values())
    good = sum(status == expected_status for status in statuses)
    out.attempted += sent
    out.failed += sent - good
    name = "MERGED" if expected_status == wire.ACK_MERGED else "DUPLICATE"
    check(good == sent, f"{good} of {sent} records acked {name}")
    return start, end, cpu_s, good / sent


def _cycle(launcher, service, batches, secrets, reference, keyfile, tracer, out):
    """Ingest, SIGKILL, resume, blind resend, digest check.

    With a *tracer* the cycle is traced: the producers' handshakes in
    the bench, every service call in the two service processes.
    """
    traced = tracer is not None
    record = {"traced": traced}
    if traced:
        with tracer.installed(CLIENT_POINTS):
            ingest = _phase(service, batches, secrets, wire.ACK_MERGED, out)
        record["handshake_ms"] = [1e3 * (s[5] - s[4]) for s in tracer.spans]
        tracer.reset()
    else:
        ingest = _phase(service, batches, secrets, wire.ACK_MERGED, out)
    hwm = proc_hwm_mb(service.pid)
    if traced:
        record["ingest_spans"] = load_spans(launcher.spans_path(service))
    launcher.kill(service)

    resumed = launcher.start(
        service.store_root,
        [{"m": WIDTH, "round_id": ROUND_ID}],
        keyfile,
        resume=True,
        trace_dir=service.trace_dir,
    )
    resend = _phase(resumed, batches, secrets, wire.ACK_DUPLICATE, out)
    hwm = max(hwm, proc_hwm_mb(resumed.pid))
    if traced:
        record["resume_spans"] = load_spans(launcher.spans_path(resumed))
    launcher.terminate(resumed)
    check(
        snapshot_digest(resumed.store_root, ROUND_ID) == reference.digest(),
        "resumed round digest != stream_counts reference",
    )
    shutil.rmtree(service.store_root)
    users = reference.n
    record.update(
        cycle_s=resend[1] - ingest[0],
        users_per_s=users / (ingest[1] - ingest[0]),
        recover_s=resumed.start_s,
        resend_s=resend[1] - resend[0],
        peak_rss_mb=hwm,
        ingest=ingest,
        resend=resend,
        records=sum(len(batch) for batch in batches.values()),
    )
    return record


def run(out: Outcome, seed: int, seconds: float, trace: bool, profile: str) -> None:
    cfg = PROFILES[profile]
    launcher = Launcher()  # before any input exists: a lean parent
    run_dir = RunDir()
    out.meta["store_root"] = run_dir.path

    def discard(setup) -> None:
        service = setup[-1]
        launcher.terminate(service)
        shutil.rmtree(service.store_root)

    tracer = Tracer() if trace else None
    try:
        if trace:
            with tracer.installed(ENGINE_POINTS):
                setup = _setup(seed, cfg, run_dir, launcher, tracer)
            setup_spans = tracer.spans
            tracer.reset()
        else:
            setup, setup_s = timed_setups(
                lambda: _setup(seed, cfg, run_dir, launcher), SETUP_REPEATS, discard
            )
        batches, secrets, reference, keyfile, service = setup
        services = [service]  # the set-up's service runs the warm-up cycle

        def cycle(index, traced):
            if services:
                service = services.pop()
            else:
                trace_dir = run_dir.fresh("spans") if traced else None
                service = _start(launcher, run_dir, keyfile, trace_dir)
            return _cycle(
                launcher,
                service,
                batches,
                secrets,
                reference,
                keyfile,
                tracer if traced else None,
                out,
            )

        records = measure(seconds, cycle, trace)
    finally:
        launcher.close()
        run_dir.close()

    out.meta["cycles"] = len(records)
    out.meta["users_per_cycle"] = reference.n
    if trace:
        _layer_metrics(out, setup_spans, records)
        return
    out.meta["restart_ms"] = [round(1e3 * r["recover_s"], 1) for r in records]
    out.put("latency_ms", 1e3 * median([r["recover_s"] for r in records]))
    out.put("setup_s", setup_s)
    out.put("peak_rss_mb", median([r["peak_rss_mb"] for r in records]))
    for phase in ("users_per_s", "resend_s", "cycle_s"):
        out.meta[phase] = median([r[phase] for r in records])


def _layer_metrics(out: Outcome, setup_spans, records) -> None:
    """Set-up plus one traced cycle, per layer: medians over the traced
    cycles.  The service layers are taken over the ingest phase."""
    setup = engine_row(setup_spans)
    rows: dict[str, list] = {}
    for r in (r for r in records if r["traced"]):
        start, end, cpu_s, _ = r["ingest"]
        spans = r["ingest_spans"]
        row = finish_engine_row(add_rows(setup, engine_row(spans, start, end)))
        row.update(service_row(spans, r["records"], start, end))
        row["service.cpu_s"] = cpu_s
        row["sessions.handshake_p50_ms"] = percentile(r["handshake_ms"], 50)

        spans = r["resume_spans"]
        init = next(s for s in spans if s[3] == "rounds.init")
        resume = summarize(spans, init[4], init[5])
        init_s = init[5] - init[4]
        spill_mb = resume["store.recover"][2] / 1e6
        row["resume.ledger.load_s"] = resume["ledger.load"][1]
        row["resume.store.recover_s"] = resume["store.recover"][1]
        row["resume.rounds.absorb_s"] = resume.get("rounds.absorb", (0, 0.0, 0))[1]
        row["resume.rounds.self_s"] = self_times(spans)[init[0]]
        row["resume.spill_mb"] = spill_mb
        row["resume.mb_per_s"] = spill_mb / init_s

        start, end, cpu_s, dup_ratio = r["resend"]
        resend = summarize(spans, start, end)
        row["resend.service.cpu_s"] = cpu_s
        row["resend.ledger.seen_calls"] = resend.get("ledger.seen", (0, 0.0, 0))[0]
        row["resend.dup_ratio"] = dup_ratio
        for name, value in row.items():
            rows.setdefault(name, []).append(value)

    for name, values in rows.items():
        out.put(name, median(values))
    plain = 1e3 * median([r["recover_s"] for r in records if not r["traced"]])
    traced = 1e3 * median([r["recover_s"] for r in records if r["traced"]])
    out.put("trace.latency_ms_delta", traced - plain)
    out.put("trace.overhead_share", (traced - plain) / plain)
