"""Self-tests of the benchmark: tiny profiles of every workload.

Run from the repository root:

    python3 -m pytest perfbench -q -p no:cacheprovider

Each workload runs untraced and traced on the ``tiny`` profile; the
tests assert that every declared metric is reported with its unit,
that every output check passed, and that ``BENCHMARK.json`` declares
exactly the metrics the workloads report.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import CROSSED, END_TO_END, PER_LAYER  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def _run(workload: str, trace: int, cwd: str = ROOT, timeout: float = 180.0):
    return subprocess.run(
        [
            sys.executable,
            os.path.join("perfbench", "run.py"),
            "--workload", workload,
            "--seed", "7",
            "--seconds", "1",
            "--trace", str(trace),
            "--profile", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(CROSSED))
def test_tiny_profile_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])["meta"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = PER_LAYER if trace else END_TO_END
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        # A layer reads 0 exactly when the workload's path skips it;
        # the tracing overhead and the generator's backlog may read 0
        # on a crossed path too.
        may_read_zero = {
            "trace.latency_ms_delta",
            "trace.overhead_share",
            "generator.backlog_max",
        }
        crossed = CROSSED[workload] - may_read_zero
        assert {name for name, value in values.items() if value != 0} >= crossed
        assert all(values[name] == 0 for name in set(values) - CROSSED[workload])
    else:
        assert all(value > 0 for value in values.values())
    assert meta["cpu_count"] >= 1 and meta["seed"] == 7
    if workload != "estimate_kosarak":
        assert meta["store_fs"] not in ("tmpfs", "unknown")
    if workload == "upload_msnbc":
        windows = meta["windows"]
        traced = [w["traced"] for w in windows]
        assert traced == ([False, True] * 2 if trace else [False])
        assert all(w["latency_samples"] >= 5 for w in windows)
        assert all("generator_start_lag_p90_ms" in w for w in windows)
    if trace and workload == "recover_kosarak":
        assert result["metrics"]["resend.dup_ratio"]["value"] == 1.0
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_work"))


def test_benchmark_json_declares_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == set(CROSSED)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == END_TO_END
    assert layer == PER_LAYER
    assert all(CROSSED[w] <= set(PER_LAYER) for w in CROSSED)
    assert e2e["setup_s"] == "s"
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_fails_without_the_program(tmp_path):
    """A directory with only the benchmark's files yields no result."""
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("estimate_kosarak", 0, cwd=str(tmp_path), timeout=60.0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_covered_child_time():
    tracer = Tracer()
    tracer.spans = [
        (1, 0, 1, "parent", 0.0, 10.0, None),
        (2, 1, 1, "child", 1.0, 4.0, None),
        (3, 1, 1, "child", 3.0, 6.0, None),  # overlaps the first child
        (4, 2, 1, "grandchild", 1.0, 2.0, None),
    ]
    selfs = self_times(tracer.spans)
    assert selfs[1] == pytest.approx(5.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.0)


def test_install_patches_and_restores():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.pipeline.accumulator import CountAccumulator
    from tracer import Point

    original = CountAccumulator.add_reports
    tracer = Tracer()
    tracer.install(
        [Point("repro.pipeline.accumulator:CountAccumulator.add_reports", "acc")]
    )
    try:
        acc = CountAccumulator(3)
        with tracer.span("outer"):
            acc.add_reports([[1, 0, 1]])
    finally:
        tracer.uninstall()
    assert CountAccumulator.add_reports is original
    assert acc.counts().tolist() == [1, 0, 1]
    names = {span[3]: span for span in tracer.spans}
    assert names["acc"][1] == names["outer"][0]  # parent link
    assert names["acc"][2] == names["outer"][2]  # same trace
