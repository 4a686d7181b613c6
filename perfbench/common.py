"""Shared plumbing: run directories, the service launcher, /proc readers,
statistics, the repetition loop and the result record."""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Per-run scratch (store roots, keyfiles, span files); never tmpfs,
#: always inside the checkout, removed when the run ends.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


class CheckFailed(Exception):
    """An output check failed; the run reports ``correct: false``."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    *units* is the run's declared metric table (``metrics.expected``);
    :meth:`put` accepts only names it declares.
    """

    units: dict
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    meta: dict = field(default_factory=dict)

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = {"value": float(value), "unit": self.units[name]}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# ----------------------------------------------------------------------
# Repetition
# ----------------------------------------------------------------------
#: Fewest measured rounds or cycles a run reports, however short.
MIN_RECORDS = 4


def timed_setups(setup, repeats: int, discard=None):
    """Run *setup* *repeats* times; returns its last result and the
    median time.

    One set-up swings with the host, so a run times several and reports
    the median.  *discard* releases every result but the last (stops
    its service, say).
    """
    times, result = [], None
    for rep in range(repeats):
        if rep and discard is not None:
            discard(result)
        start = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - start)
    return result, median(times)


def measure(seconds: float, step, trace: bool) -> list:
    """Records of ``step(index, traced)`` calls over *seconds*.

    Call 0 is an untimed warm-up whose record is dropped: it keeps the
    slow first iteration after an idle spell out of the medians.  The
    measured calls, from index 1 on, run until *seconds* have passed and
    at least ``MIN_RECORDS`` are in; with *trace*, every other one is
    traced, so both sides of the tracing overhead see the same machine
    state.
    """
    step(0, False)
    deadline = time.perf_counter() + seconds
    records = []
    while time.perf_counter() < deadline or len(records) < MIN_RECORDS:
        traced = trace and len(records) % 2 == 0
        records.append(step(len(records) + 1, traced))
    return records


# ----------------------------------------------------------------------
# /proc readers (Linux)
# ----------------------------------------------------------------------
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """utime + stime of *pid* in seconds."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of *pid* in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise OSError(f"no VmHWM for pid {pid}")


def cpu_times() -> list[int]:
    """The machine-wide ``cpu`` line of ``/proc/stat`` (clock ticks)."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta))


def fs_type(path: str) -> str:
    """Filesystem type of the mount holding *path*."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as handle:
        for line in handle:
            parts = line.split()
            mount = parts[1]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, kind = mount, parts[2]
    return kind


# ----------------------------------------------------------------------
# Run directory and metadata
# ----------------------------------------------------------------------
class RunDir:
    """A fresh directory under the checkout for one run's files."""

    def __init__(self) -> None:
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
        self._count = 0

    def fresh(self, name: str) -> str:
        """A new, empty subdirectory (one per service store root)."""
        self._count += 1
        path = os.path.join(self.path, f"{name}-{self._count}")
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # only when no other run is using it
        except OSError:
            pass


def run_metadata(seed: int, store_root: str | None) -> dict:
    meta = {
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if store_root is not None:
        meta["store_fs"] = fs_type(store_root)
    return meta


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def budget_spec(epsilon: float, m: int):
    """The paper's default budget spec over *m* items, one fixed
    item-to-level assignment.

    The assignment is part of the workload, not of the run's seed:
    ``IDUEPS.optimized`` answers near-identical assignments with one of
    two parameter sets, and rounds under the rarer one run ~60% longer
    (README.md), so a seeded assignment would mix two workloads.
    """
    from repro.datasets.budgets import paper_default_spec

    return paper_default_spec(epsilon, m, rng=np.random.default_rng(0))


# ----------------------------------------------------------------------
# Service inputs and outputs
# ----------------------------------------------------------------------
def write_keyfile(path: str, producers, seed: int) -> dict:
    """One ``producer = secret`` line per producer; returns the secrets."""
    rng = np.random.default_rng([seed, 0x6B657973])
    secrets = {producer: rng.bytes(16).hex() for producer in producers}
    with open(path, "w", encoding="utf-8") as handle:
        for producer, secret in secrets.items():
            handle.write(f"{producer} = {secret}\n")
    return secrets


def snapshot_digest(store_root: str, round_id: int) -> str:
    """Digest of the round snapshot a service wrote at SIGTERM."""
    from repro.pipeline.collect import ShardStore
    from repro.pipeline.service.rounds import SERVICE_SHARD_ID, round_namespace

    store = ShardStore(os.path.join(store_root, round_namespace(round_id)))
    return store.load_snapshot(SERVICE_SHARD_ID).digest()


# ----------------------------------------------------------------------
# Service launcher client
# ----------------------------------------------------------------------
@dataclass
class Service:
    host: str
    port: int
    pid: int
    start_s: float
    store_root: str
    trace_dir: str | None


class Launcher:
    """Client of ``launcher.py``, the lean parent of service children.

    Start it before the bench generates any input, so the interpreter
    that forks the services holds none of it.
    """

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )

    def _call(self, **request) -> dict:
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited during {request['op']}")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"launcher {request['op']}: {reply['error']}")
        return reply

    def start(
        self,
        store_root: str,
        rounds: list,
        keys: str,
        *,
        resume: bool = False,
        trace_dir: str | None = None,
    ) -> Service:
        reply = self._call(
            op="start",
            store_root=store_root,
            rounds=rounds,
            keys=keys,
            resume=resume,
            trace_dir=trace_dir,
        )
        return Service(
            reply["host"],
            reply["port"],
            reply["pid"],
            reply["start_s"],
            store_root,
            trace_dir,
        )

    def spans_path(self, service: Service) -> str:
        """Ask a traced child for its spans; returns the file path."""
        path = os.path.join(service.trace_dir, f"spans-{service.pid}.jsonl")
        os.kill(service.pid, signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise RuntimeError(f"service {service.pid} wrote no spans")
            time.sleep(0.005)
        return path

    def kill(self, service: Service) -> None:
        self._call(op="kill", pid=service.pid)

    def terminate(self, service: Service) -> None:
        self._call(op="terminate", pid=service.pid)

    def close(self) -> None:
        """Stop the launcher; it kills and reaps any child still up."""
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()
