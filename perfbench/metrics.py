"""The metrics every workload reports, with their units.

Every run prints every name of one table: ``END_TO_END`` untraced
(``--trace 0``), ``PER_LAYER`` traced (``--trace 1``).  ``run.py``
refuses to print a record that misses one, and the self-tests check
that ``BENCHMARK.json`` declares the same names and units.

End-to-end metrics mean the same thing on every workload, each taken
on that workload's unit of work (README.md): an estimation round, an
upload session, or a crash-and-resume cycle.

A per-layer metric is what the layer spent over the run's one set-up
plus one unit of work (the median over the traced units).  ``CROSSED``
names, per workload, the per-layer metrics its path goes through; the
others read 0 there (the estimation round, for one, runs no service
code), and ``run.py`` fills them in.
"""

from __future__ import annotations

END_TO_END = {
    "latency_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    # set-up: moves setup_s
    "datasets.generate_s": "s",
    "optim.solve_s": "s",
    # the engine path: estimate's latency_ms; the set-up's
    # pre-perturbation on the service workloads
    "mechanisms.sample_s": "s",
    "mechanisms.perturb_s": "s",
    "kernels.bernoulli_s": "s",
    "kernels.bernoulli_gbit_per_s": "Gbit/s",
    "kernels.popcount_s": "s",
    "accumulator.add_s": "s",
    "engine.self_s": "s",
    "engine.chunks": "count",
    "estimation.estimate_s": "s",
    # the service, on upload's window and recover's ingest phase
    "service.cpu_s": "s",
    "sessions.handshake_p50_ms": "ms",
    "auth.key_check_s": "s",
    "auth.key_checks_per_record": "calls/record",
    "wire.decode_s": "s",
    "rounds.stage_s": "s",
    "commit.submit_s": "s",
    "commit.records_per_commit": "records/commit",
    "commit.fsyncs_per_record": "fsyncs/record",
    "store.append_s": "s",
    "store.fsync_s": "s",
    "ledger.fsync_s": "s",
    # recover's restart (resume=True) and blind resend
    "resume.ledger.load_s": "s",
    "resume.store.recover_s": "s",
    "resume.rounds.absorb_s": "s",
    "resume.rounds.self_s": "s",
    "resume.spill_mb": "MB",
    "resume.mb_per_s": "MB/s",
    "resend.service.cpu_s": "s",
    "resend.ledger.seen_calls": "count",
    "resend.dup_ratio": "fraction",
    # upload's open-loop generator: run validity
    "generator.start_lag_p90_ms": "ms",
    "generator.backlog_max": "count",
    # the tracing itself
    "trace.latency_ms_delta": "ms",
    "trace.overhead_share": "fraction",
    "trace.unaccounted_share": "fraction",
}

_SETUP = {"datasets.generate_s", "optim.solve_s"}
_ENGINE = {
    "mechanisms.sample_s",
    "mechanisms.perturb_s",
    "kernels.bernoulli_s",
    "kernels.bernoulli_gbit_per_s",
    "kernels.popcount_s",
    "accumulator.add_s",
}
_SERVICE = {
    "service.cpu_s",
    "sessions.handshake_p50_ms",
    "auth.key_check_s",
    "auth.key_checks_per_record",
    "wire.decode_s",
    "rounds.stage_s",
    "commit.submit_s",
    "commit.records_per_commit",
    "commit.fsyncs_per_record",
    "store.append_s",
    "store.fsync_s",
    "ledger.fsync_s",
}
_TRACE = {"trace.latency_ms_delta", "trace.overhead_share"}

CROSSED = {
    "estimate_kosarak": _SETUP
    | _ENGINE
    | _TRACE
    | {
        "engine.self_s",
        "engine.chunks",
        "estimation.estimate_s",
        "trace.unaccounted_share",
    },
    "upload_msnbc": _SETUP
    | _ENGINE
    | _SERVICE
    | _TRACE
    | {"generator.start_lag_p90_ms", "generator.backlog_max"},
    "recover_kosarak": _SETUP
    | _ENGINE
    | _SERVICE
    | _TRACE
    | {"engine.self_s", "engine.chunks"}
    | {name for name in PER_LAYER if name.startswith(("resume.", "resend."))},
}


def expected(trace: bool) -> dict:
    """Metric name -> unit that every run must report."""
    return PER_LAYER if trace else END_TO_END
