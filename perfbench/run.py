"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds its inputs from ``--seed``,
measures for ``--seconds``, checks the program's outputs, and prints
one JSON object as the last line of stdout::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see README.md).  Every workload
reports every metric of the table; a layer its path does not cross
reads 0.  A line before it, ``{"meta": {...}}``, records the run's
circumstances.  Exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
import traceback

sys.dont_write_bytecode = True  # leave no caches in the checkout

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = {
    "estimate_kosarak": "estimate",
    "upload_msnbc": "upload",
    "recover_kosarak": "recover",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--profile",
        choices=("full", "tiny"),
        default="full",
        help="input sizes; 'tiny' is the self-test profile",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A stopped run still reaps its services and removes its scratch
    # directory: SIGTERM unwinds through the workloads' finally blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from common import CheckFailed, Outcome, cpu_times, run_metadata, steal_share
    from metrics import CROSSED, expected

    workload = importlib.import_module(WORKLOADS[args.workload])
    out = Outcome(expected(bool(args.trace)))
    correct = True
    ticks = cpu_times()
    try:
        workload.run(out, args.seed, args.seconds, bool(args.trace), args.profile)
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        correct = False
        out.failed = max(out.failed, 1)  # per-record failures are already in
    except Exception:
        traceback.print_exc()
        return 3
    if args.trace:
        # Layers this workload's path does not go through spent nothing.
        crossed = CROSSED[args.workload]
        stray = [
            name
            for name, metric in out.metrics.items()
            if name not in crossed and metric["value"] != 0.0
        ]
        if stray:
            print(f"time spent in layers not crossed: {stray}", file=sys.stderr)
            return 3
        for name in set(out.units) - crossed:
            out.put(name, 0.0)
    missing = sorted(set(out.units) - set(out.metrics))
    if correct and missing:
        print(f"run reported no value for {missing}", file=sys.stderr)
        return 3
    meta = run_metadata(args.seed, out.meta.pop("store_root", None))
    meta.update(workload=args.workload, trace=args.trace, profile=args.profile)
    meta["cpu_steal_share"] = steal_share(ticks, cpu_times())
    meta.update(out.meta)
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, out.attempted),
                "failed": out.failed,
                "metrics": out.metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
