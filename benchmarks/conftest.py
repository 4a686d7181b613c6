"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures.  The
numeric series are printed to stdout *and* persisted under
``benchmarks/results/`` so the regenerated artifacts survive pytest's
output capture; EXPERIMENTS.md records the paper-vs-measured comparison.

Performance benchmarks additionally emit machine-readable records: run
with ``--json PATH`` (see ``make bench-json``) and every
``record_json(...)`` call appends a ``{name, n, m, bits_per_sec,
peak_rss, cpu_count}`` entry plus its time fields, each named after its
statistic (``mean_secs``, ``best_secs``, ``raw_median_secs``, ...),
written as a JSON list at session end.  Committing those files under
``benchmarks/results/BENCH_*.json`` tracks the perf trajectory PR over
PR; ``python benchmarks/check_results.py --records`` checks them.

Smoke profiles (``BENCH_SMOKE=1`` or any ``BENCH_<NAME>_SMOKE=1``)
shrink a benchmark to liveness-check size; their rendered results go to
a scratch directory under the system temp dir instead, so a smoke run
never overwrites a committed full-profile record.
"""

from __future__ import annotations

import json
import os
import re
import resource
import sys
import tempfile

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
SMOKE_RESULTS_DIR = os.path.join(tempfile.gettempdir(), "repro-bench-smoke")


def _smoke_profile() -> bool:
    """True when any ``BENCH_*SMOKE`` profile variable is set to 1."""
    return any(
        re.fullmatch(r"BENCH_(\w+_)?SMOKE", name) and value == "1"
        for name, value in os.environ.items()
    )


def pytest_addoption(parser):
    parser.addoption(
        "--json",
        action="store",
        default=None,
        metavar="PATH",
        help="write machine-readable benchmark records to PATH as a JSON list",
    )
    parser.addoption(
        "--repeat",
        action="store",
        type=int,
        default=None,
        metavar="N",
        help="run each timed benchmark N times and keep the best attempt "
        "(reduces scheduler noise; recorded numbers note the repeat count)",
    )


def _peak_rss_bytes() -> int:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux).

    ru_maxrss is a process-lifetime high-water mark, so the value stamped
    on a record reflects the largest footprint of the session *so far*,
    not the benchmark in isolation — attribute it to an individual
    benchmark only when that benchmark is run in its own pytest process.
    """
    scale = 1 if sys.platform == "darwin" else 1024  # macOS reports bytes
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale


@pytest.fixture(scope="session")
def json_records(request):
    """Session-wide record list, flushed to ``--json PATH`` at exit."""
    records: list[dict] = []
    yield records
    path = request.config.getoption("--json")
    if path and records:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(records, handle, indent=2)
            handle.write("\n")


@pytest.fixture
def record_json(json_records):
    """Append one perf record; a no-op sink unless ``--json`` was given.

    Usage: ``record_json("stream_fast", n=..., m=..., mean_secs=...,
    bits_per_sec=...)``, each time field named after the statistic it
    holds (``mean_secs`` over rounds, ``best_secs`` for best-of-N,
    ``once_secs`` for a single timing); a bare ``secs`` is refused.
    ``peak_rss`` (bytes, the process high-water mark at record time —
    see :func:`_peak_rss_bytes`) and ``cpu_count`` are stamped
    automatically; keyword fields pass through verbatim.
    """

    def _record(name: str, *, n: int, m: int, bits_per_sec=None, **extra):
        if "secs" in extra:
            raise ValueError(
                f"record {name!r}: name the statistic a time field holds "
                "(mean_secs, best_secs, median_secs, once_secs, ...), not "
                "a bare secs"
            )
        entry = {
            "name": name,
            "n": int(n),
            "m": int(m),
            "bits_per_sec": None if bits_per_sec is None else float(bits_per_sec),
            "peak_rss": _peak_rss_bytes(),
            "cpu_count": os.cpu_count(),
        }
        entry.update(extra)
        json_records.append(entry)
        return entry

    return _record


@pytest.fixture
def repeat(request):
    """Best-of-N attempt count from ``--repeat N``.

    Benchmarks use this to size their retry loops: ``best = min(run()
    for _ in range(repeat(default)))``.  Without the flag each
    benchmark's own default applies, so existing invocations keep their
    historical behavior.
    """
    value = request.config.getoption("--repeat")
    if value is not None and value < 1:
        raise pytest.UsageError("--repeat must be a positive integer")

    def _repeat(default: int = 1) -> int:
        return default if value is None else value

    return _repeat


@pytest.fixture(scope="session")
def results_dir() -> str:
    """Directory where regenerated tables/figures are written.

    ``benchmarks/results/`` for full-profile runs; the scratch
    :data:`SMOKE_RESULTS_DIR` under a smoke profile.
    """
    path = SMOKE_RESULTS_DIR if _smoke_profile() else RESULTS_DIR
    os.makedirs(path, exist_ok=True)
    return path


@pytest.fixture
def record_result(results_dir):
    """Write a rendered table/series to ``<results_dir>/<name>.txt``."""

    def _record(name: str, text: str) -> str:
        path = os.path.join(results_dir, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\n=== {name} ===\n{text}\n({path})")
        return path

    return _record
