"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded around calls into the program's public functions,
from the benchmark's own files: either by a ``with tracer.span(...)``
block around a call the benchmark makes itself, or by patching a
class or module attribute (``tracer.install(points)``) so the calls the
program makes internally are timed too.  Nothing in ``src/`` knows
about tracing; an untraced run installs nothing and pays nothing.

A span is ``(id, parent, trace, name, start, end, work, pid)``: times
are ``time.perf_counter()`` seconds (CLOCK_MONOTONIC, so spans from
forked service processes share the bench's time axis), *parent* is the
enclosing span in the same thread or asyncio task (0 for a root), and
*trace* groups the spans of one chunk or one session.  *work* is an
optional count the point derives from the call (bits drawn, bytes).
Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import time
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Point",
    "Tracer",
    "ENGINE_POINTS",
    "SERVICE_POINTS",
    "CLIENT_POINTS",
    "add_rows",
    "engine_row",
    "service_row",
    "finish_engine_row",
    "load_spans",
    "self_times",
    "span_of",
    "summarize",
]


@dataclass(frozen=True)
class Point:
    """One traced attribute: ``module:Owner.attr`` or ``module:function``.

    *work* maps ``(args, kwargs, result)`` to a count stored on the
    span.  *new_trace* starts a trace id that later sibling calls in the
    same context inherit (the first call of each engine chunk).
    *detach* runs the call with no current span, so tasks it creates
    do not adopt it as their parent.
    """

    target: str
    name: str
    work: Callable | None = None
    new_trace: bool = False
    detach: bool = False


def _compute_backend_class():
    # The FAST sampler and the accumulator resolve the same backend.
    from repro.kernels import FAST

    return type(FAST.compute_backend())


def _bits_drawn(args, kwargs, result) -> int:
    # packed_bernoulli(self, p, n, rng, ...): n rows of len(p) bits.
    return int(args[2]) * len(args[1])


def _spill_bytes(args, kwargs, result) -> int:
    return int(result["offset"])


#: Engine-side calls of the estimate_kosarak round.
ENGINE_POINTS = (
    Point(
        "repro.mechanisms.padding_sampling:PaddingSampler.sample_many",
        "mechanisms.sample",
        new_trace=True,
    ),
    Point(
        "repro.mechanisms.base:UnaryMechanism.perturb_many_packed",
        "mechanisms.perturb",
    ),
    Point("@backend.packed_bernoulli", "kernels.bernoulli", work=_bits_drawn),
    Point("@backend.packed_column_counts", "kernels.popcount"),
    Point(
        "repro.pipeline.accumulator:CountAccumulator.add_packed_reports",
        "accumulator.add",
    ),
)

#: Service-side calls, installed before a traced service child forks.
SERVICE_POINTS = (
    Point(
        "repro.pipeline.service.sessions:SessionHost.handle_connection",
        "sessions.connection",
    ),
    Point("repro.pipeline.service.auth:KeyRegistry.lookup", "auth.lookup"),
    Point("repro.pipeline.service.auth:KeyRegistry.is_revoked", "auth.is_revoked"),
    Point("repro.pipeline.collect.wire:loads", "wire.decode"),
    Point("repro.pipeline.service.rounds:RoundState.__init__", "rounds.init"),
    Point("repro.pipeline.service.rounds:RoundState.stage_record", "rounds.stage"),
    Point("repro.pipeline.service.rounds:RoundState.absorb", "rounds.absorb"),
    Point(
        "repro.pipeline.service.commit:GroupCommitScheduler.submit",
        "commit.submit",
        detach=True,
    ),
    Point(
        "repro.pipeline.collect.store:ShardChunkWriter.append_frame",
        "store.append",
        work=lambda args, kwargs, result: len(args[1]),
    ),
    Point("repro.pipeline.collect.store:ShardChunkWriter.sync", "store.fsync"),
    Point(
        "repro.pipeline.collect.store:ShardStore.recover_shard",
        "store.recover",
        work=_spill_bytes,
    ),
    Point("repro.pipeline.service.ledger:IdempotencyLedger.load", "ledger.load"),
    Point("repro.pipeline.service.ledger:IdempotencyLedger.sync", "ledger.fsync"),
    Point("repro.pipeline.service.ledger:IdempotencyLedger.seen", "ledger.seen"),
    Point(
        "repro.pipeline.accumulator:CountAccumulator.add_packed_reports",
        "accumulator.add",
    ),
    Point("@backend.packed_column_counts", "kernels.popcount"),
)

#: Client-side calls, in the bench process: the producer's handshake.
CLIENT_POINTS = (
    Point("repro.pipeline.service.client:ServiceSession.connect", "sessions.connect"),
)


def _resolve(target: str):
    """``(owner, attr)`` for a point target."""
    if target.startswith("@backend."):
        return _compute_backend_class(), target.split(".", 1)[1]
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Span buffer plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._span = contextvars.ContextVar("perfbench_span", default=0)
        self._trace = contextvars.ContextVar("perfbench_trace", default=0)
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop recorded spans (a forked child starts empty)."""
        self.spans = []

    def _open(self, new_trace: bool):
        span_id = next(self._ids)
        parent = self._span.get()
        trace = self._trace.get()
        span_token = self._span.set(span_id)
        if new_trace:
            # Deliberately not reset on exit: the calls that follow in
            # the same context (the rest of the chunk) join this trace.
            self._trace.set(span_id)
            trace, trace_token = span_id, None
        elif not trace:
            trace, trace_token = span_id, self._trace.set(span_id)
        else:
            trace_token = None
        return span_id, parent, trace, span_token, trace_token

    def _close(self, opened, name, start, work=None) -> None:
        end = time.perf_counter()
        span_id, parent, trace, span_token, trace_token = opened
        self._span.reset(span_token)
        if trace_token is not None:
            self._trace.reset(trace_token)
        self.spans.append((span_id, parent, trace, name, start, end, work))

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span."""
        opened = self._open(False)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(opened, name, start)

    # ------------------------------------------------------------------
    def _wrap(self, fn, point: Point):
        tracer = self

        if inspect.iscoroutinefunction(fn):

            async def traced(*args, **kwargs):
                opened = tracer._open(point.new_trace)
                start = time.perf_counter()
                result = None
                try:
                    if point.detach:
                        context = contextvars.copy_context()
                        context.run(tracer._span.set, 0)
                        context.run(tracer._trace.set, 0)
                        result = await _run_in(context, fn(*args, **kwargs))
                    else:
                        result = await fn(*args, **kwargs)
                    return result
                finally:
                    work = point.work(args, kwargs, result) if point.work else None
                    tracer._close(opened, point.name, start, work)

        else:

            def traced(*args, **kwargs):
                opened = tracer._open(point.new_trace)
                start = time.perf_counter()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    work = (
                        point.work(args, kwargs, result)
                        if point.work and result is not None
                        else None
                    )
                    tracer._close(opened, point.name, start, work)

        return functools.update_wrapper(traced, fn)

    def install(self, points) -> None:
        """Patch every point's attribute so its calls record spans."""
        for point in points:
            owner, attr = _resolve(point.target)
            raw = inspect.getattr_static(owner, attr)
            if any(p[0] is owner and p[1] == attr for p in self._patches):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(raw.__func__, point))
            else:
                patched = self._wrap(raw, point)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self, points):
        """Points installed for the enclosed block."""
        self.install(points)
        try:
            yield
        finally:
            self.uninstall()

    def dump(self, path: str) -> None:
        """Write the buffer as JSON lines (atomically, via a rename)."""
        pid = os.getpid()
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps([*span, pid]) + "\n")
        os.replace(tmp, path)


async def _run_in(context: contextvars.Context, coro):
    """Await *coro* as a task running in *context*."""
    return await asyncio.get_running_loop().create_task(coro, context=context)


@contextlib.contextmanager
def _no_span(name: str):
    yield


def span_of(tracer: Tracer | None):
    """``tracer.span``, or a block that records nothing without a tracer."""
    return tracer.span if tracer is not None else _no_span


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def load_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[tuple]] = {}
    for span in spans:
        if span[1]:
            children.setdefault(span[1], []).append(span)
    result = {}
    for span in spans:
        start, end = span[4], span[5]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span[0], ()), key=lambda s: s[4]):
            lo, hi = max(child[4], cursor), min(child[5], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span[0]] = (end - start) - covered
    return result


def summarize(spans, start: float = float("-inf"), end: float = float("inf")):
    """Name -> ``(calls, seconds, work)`` over spans starting in the window."""
    table: dict[str, list] = {}
    for span in spans:
        if start <= span[4] <= end:
            row = table.setdefault(span[3], [0, 0.0, 0])
            row[0] += 1
            row[1] += span[5] - span[4]
            row[2] += span[6] or 0
    return {name: tuple(row) for name, row in table.items()}


#: Span name -> per-layer metric of the engine path (self seconds).
ENGINE_LAYERS = {
    "datasets.generate": "datasets.generate_s",
    "optim.solve": "optim.solve_s",
    "mechanisms.sample": "mechanisms.sample_s",
    "mechanisms.perturb": "mechanisms.perturb_s",
    "kernels.bernoulli": "kernels.bernoulli_s",
    "kernels.popcount": "kernels.popcount_s",
    "accumulator.add": "accumulator.add_s",
    "engine.stream_counts": "engine.self_s",
    "estimation.estimate": "estimation.estimate_s",
}


def engine_row(spans, start: float = float("-inf"), end: float = float("inf")):
    """Engine-path metrics over the spans starting in the window.

    Times are self times.  ``engine.chunks`` counts the chunks
    ``stream_counts`` hands its accumulator.  Rows add key by key; the
    bits drawn and the Bernoulli call time ride along so that
    :func:`finish_engine_row` can turn the sum into a rate.
    """
    selfs = self_times(spans)
    streams = {s[0] for s in spans if s[3] == "engine.stream_counts"}
    row = dict.fromkeys(ENGINE_LAYERS.values(), 0.0)
    row.update({"engine.chunks": 0, "bits": 0, "bernoulli_total_s": 0.0})
    for span in spans:
        if not start <= span[4] <= end:
            continue
        metric = ENGINE_LAYERS.get(span[3])
        if metric is not None:
            row[metric] += selfs[span[0]]
        if span[3] == "kernels.bernoulli":
            row["bits"] += span[6] or 0
            row["bernoulli_total_s"] += span[5] - span[4]
        if span[3] == "accumulator.add" and span[1] in streams:
            row["engine.chunks"] += 1
    return row


def finish_engine_row(row: dict) -> dict:
    """*row* with the Bernoulli rate in place of its two parts."""
    row = dict(row)
    bits, seconds = row.pop("bits"), row.pop("bernoulli_total_s")
    row["kernels.bernoulli_gbit_per_s"] = bits / seconds / 1e9 if seconds else 0.0
    return row


def add_rows(*rows) -> dict:
    """Key-by-key sum of metric rows."""
    total: dict = {}
    for row in rows:
        for name, value in row.items():
            total[name] = total.get(name, 0) + value
    return total


def service_row(spans, records: int, start: float, end: float = float("inf")):
    """Service-layer metrics over the spans starting in the window.

    Times are the total seconds in each call; ``commit.submit`` covers
    the queue wait plus the commit.  *records* is the number of records
    the window's sessions sent.
    """
    table = summarize(spans, start, end)

    def calls(*names):
        return sum(table.get(name, (0, 0.0, 0))[0] for name in names)

    def seconds(*names):
        return sum(table.get(name, (0, 0.0, 0))[1] for name in names)

    return {
        "auth.key_check_s": seconds("auth.lookup", "auth.is_revoked"),
        "auth.key_checks_per_record": calls("auth.lookup", "auth.is_revoked")
        / records,
        "wire.decode_s": seconds("wire.decode"),
        "rounds.stage_s": seconds("rounds.stage"),
        "commit.submit_s": seconds("commit.submit"),
        "commit.records_per_commit": records / max(1, calls("store.fsync")),
        "commit.fsyncs_per_record": calls("store.fsync", "ledger.fsync") / records,
        "store.append_s": seconds("store.append"),
        "store.fsync_s": seconds("store.fsync"),
        "ledger.fsync_s": seconds("ledger.fsync"),
    }
