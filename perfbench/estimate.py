"""estimate_kosarak: one IDUE-PS frequency-estimation round at Kosarak width.

The analyst's path from the paper: item sets over m = 41,270 pages,
padded and sampled to ell = 8, perturbed with the opt0 IDUE parameters
on the FAST packed sampler, counted by the engine at its default
4096-user chunk, and calibrated by the PS estimator.  No service code
runs, so ``kernels`` and ``mechanisms`` carry the round.

Set-up (timed as ``setup_s``, the median of several): ``kosarak_like``
item sets, the paper's default budget spec, and ``IDUEPS.optimized``.
Timed: rounds of ``stream_counts`` + ``FrequencyEstimator.estimate``,
repeated for the run's seconds after one untimed warm-up round; a
round's time is its latency.  Each round draws fresh randomness from
the seed.
"""

from __future__ import annotations

import contextlib
import resource
import time

import numpy as np

from common import Outcome, budget_spec, check, measure, median, timed_setups
from tracer import (
    ENGINE_POINTS,
    Tracer,
    add_rows,
    engine_row,
    finish_engine_row,
    span_of,
)

from repro.datasets import kosarak_like
from repro.estimation.frequency import FrequencyEstimator
from repro.estimation.variance import ps_estimator_mse
from repro.kernels import FAST
from repro.mechanisms.idue_ps import IDUEPS
from repro.pipeline import stream_counts

M = 41_270
ELL = 8
EPSILON = 2.0
#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 9
PROFILES = {
    # users per round: whole engine chunks
    "full": {"n": 8 * 4096},
    "tiny": {"n": 2 * 4096},
}
#: Half-width of the accepted error-ratio band, in standard deviations
#: of the ratio (see ``_ErrorBand``).
BAND_SIGMAS = 8.0


def _setup(seed: int, n: int, tracer: Tracer | None):
    span = span_of(tracer)
    with span("datasets.generate"):
        data = kosarak_like(n, M, rng=np.random.default_rng([seed, 1]))
    spec = budget_spec(EPSILON, M)
    with span("optim.solve"):
        mechanism = IDUEPS.optimized(spec, ELL)
    return data, mechanism


def _round(data, mechanism, rng, tracer: Tracer | None):
    span = span_of(tracer)
    with span("round"):
        with span("engine.stream_counts"):
            acc = stream_counts(mechanism, data, rng=rng, packed=True, sampler=FAST)
        estimator = FrequencyEstimator.for_mechanism(mechanism, data.n)
        with span("estimation.estimate"):
            estimate = estimator.estimate(acc.counts())
    return acc, estimate


class _ErrorBand:
    """Expected total squared error of the PS estimator and its spread.

    ``ps_estimator_mse`` gives each item's exact variance v_i and bias
    b_i.  With independent, roughly Gaussian item errors the total
    squared error has mean sum(v + b^2) and variance
    sum(2 v^2 + 4 v b^2), so the observed ratio to the mean has the
    standard deviation computed here (~1% at this size; observed ratios
    sit within 0.97-1.01).  A wrong a/b, ell or count scaling moves the
    ratio by far more than the band.
    """

    def __init__(self, data, mechanism) -> None:
        mse, var, bias = ps_estimator_mse(
            data, ELL, mechanism.a[:M], mechanism.b[:M]
        )
        self.expected = float(mse.sum())
        self.sigma = float(
            np.sqrt(2 * (var**2).sum() + 4 * (var * bias**2).sum())
        ) / self.expected
        self.truth = data.true_counts().astype(float)

    def check(self, acc, estimate, n: int) -> float:
        counts = acc.counts()
        check(acc.n == n, f"accumulator holds {acc.n} users, expected {n}")
        check(
            bool(counts.min() >= 0 and counts.max() <= n),
            f"counts leave [0, {n}]: [{counts.min()}, {counts.max()}]",
        )
        ratio = float(((estimate - self.truth) ** 2).sum()) / self.expected
        width = BAND_SIGMAS * self.sigma
        check(
            abs(ratio - 1.0) <= width,
            f"squared-error ratio {ratio:.4f} outside 1 +/- {width:.4f}",
        )
        return ratio


def _measure(data, mechanism, band, seed, seconds, out, tracer=None):
    """Per-round records over *seconds* (see ``common.measure``).

    With a *tracer*, every other round is traced.
    """

    def one_round(index, traced):
        rng = FAST.make_generator(np.random.SeedSequence([seed, index]))
        with tracer.installed(ENGINE_POINTS) if traced else contextlib.nullcontext():
            start = time.perf_counter()
            acc, estimate = _round(data, mechanism, rng, tracer if traced else None)
            elapsed = time.perf_counter() - start
        out.attempted += 1
        ratio = band.check(acc, estimate, data.n)
        return {"round_s": elapsed, "ratio": ratio, "traced": traced}

    return measure(seconds, one_round, tracer is not None)


def _layer_metrics(out: Outcome, setup_spans, spans) -> None:
    """Set-up plus one round, per layer: medians over the traced rounds.

    ``trace.unaccounted_share`` is the share of the round's time that
    the round's layer self times do not cover.
    """
    setup = engine_row(setup_spans)
    rows: dict[str, list] = {}
    for r in (s for s in spans if s[3] == "round"):
        in_round = engine_row(spans, r[4], r[5])
        round_s = r[5] - r[4]
        layer_s = sum(
            in_round[name]
            for name in (
                "mechanisms.sample_s",
                "mechanisms.perturb_s",
                "kernels.bernoulli_s",
                "kernels.popcount_s",
                "accumulator.add_s",
                "engine.self_s",
                "estimation.estimate_s",
            )
        )
        row = finish_engine_row(add_rows(setup, in_round))
        row["trace.unaccounted_share"] = (round_s - layer_s) / round_s
        for name, value in row.items():
            rows.setdefault(name, []).append(value)
    for name, values in rows.items():
        out.put(name, median(values))


def run(out: Outcome, seed: int, seconds: float, trace: bool, profile: str) -> None:
    n = PROFILES[profile]["n"]
    out.meta["users_per_round"] = n
    if not trace:
        (data, mechanism), setup_s = timed_setups(
            lambda: _setup(seed, n, None), SETUP_REPEATS
        )
        band = _ErrorBand(data, mechanism)
        records = _measure(data, mechanism, band, seed, seconds, out)
        round_s = median([r["round_s"] for r in records])
        out.put("latency_ms", 1e3 * round_s)
        out.put("setup_s", setup_s)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out.put("peak_rss_mb", peak_kb * 1024 / 1e6)
        out.meta["round_ms"] = [round(1e3 * r["round_s"], 1) for r in records]
        out.meta["users_per_s"] = n / round_s
        out.meta["error_ratio_median"] = median([r["ratio"] for r in records])
        out.meta["error_ratio_sigma"] = band.sigma
        return

    # Traced run: one set-up under spans, then rounds that alternate
    # untraced / traced.
    tracer = Tracer()
    data, mechanism = _setup(seed, n, tracer)
    setup_spans = tracer.spans
    tracer.reset()
    band = _ErrorBand(data, mechanism)
    records = _measure(data, mechanism, band, seed, seconds, out, tracer)
    _layer_metrics(out, setup_spans, tracer.spans)
    plain = 1e3 * median([r["round_s"] for r in records if not r["traced"]])
    traced = 1e3 * median([r["round_s"] for r in records if r["traced"]])
    out.put("trace.latency_ms_delta", traced - plain)
    out.put("trace.overhead_share", (traced - plain) / plain)
    out.meta["rounds"] = len(records)
