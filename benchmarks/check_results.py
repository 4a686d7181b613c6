"""Validate a BENCH_throughput.json produced by the smoke bench run.

``make bench-smoke`` runs the throughput benchmarks at tiny scale
(``BENCH_SMOKE=1``) and then asks this script one question: did every
compute backend available on this machine execute and emit a
well-formed record?  CI runs it twice — once without the numba extra
(numpy + threaded) and once with it (all three) — so a backend that
silently stops being exercised fails the job instead of rotting.

Usage::

    python benchmarks/check_results.py PATH_TO_BENCH_THROUGHPUT_JSON
"""

from __future__ import annotations

import json
import sys

REQUIRED_FIELDS = ("name", "n", "m", "bits_per_sec", "peak_rss", "cpu_count")
#: A record's time field names its statistic; exactly one is present.
TIME_FIELDS = ("mean_secs", "best_secs")


def check(path: str) -> list[str]:
    from repro.kernels import available_compute_backends

    with open(path, "r", encoding="utf-8") as handle:
        records = json.load(handle)
    errors: list[str] = []
    if not isinstance(records, list) or not records:
        return [f"{path}: expected a non-empty JSON list of records"]
    by_backend: dict[str, dict] = {}
    for record in records:
        missing = [key for key in REQUIRED_FIELDS if key not in record]
        if missing:
            errors.append(
                f"record {record.get('name', '<unnamed>')!r} lacks {missing}"
            )
            continue
        times = [key for key in TIME_FIELDS if key in record]
        if len(times) != 1:
            errors.append(
                f"record {record['name']!r} needs exactly one of {TIME_FIELDS}, "
                f"has {times}"
            )
            continue
        if record[times[0]] <= 0 or (record["bits_per_sec"] or 0) < 0:
            errors.append(f"record {record['name']!r} has nonsense timings")
        if "backend" in record and record["name"].startswith(
            "throughput_sampler_fast_"
        ):
            by_backend[record["backend"]] = record
    for name in available_compute_backends():
        record = by_backend.get(name)
        if record is None:
            errors.append(
                f"backend {name!r} is available here but emitted no "
                "throughput record"
            )
        elif record["bits_per_sec"] is None or record["bits_per_sec"] <= 0:
            errors.append(f"backend {name!r} record has no positive throughput")
    return errors


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    errors = check(argv[1])
    if errors:
        for error in errors:
            print(f"FAIL: {error}", file=sys.stderr)
        return 1
    from repro.kernels import available_compute_backends

    print(
        f"OK: {argv[1]} carries a valid throughput record for every "
        f"available backend ({', '.join(available_compute_backends())})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
