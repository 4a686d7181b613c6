"""Lean parent for the benchmark's service processes.

The bench process holds its generated inputs (up to ~100 MB of packed
records), and a ``ShardProcess`` child forked from it would start with
all of that in its RSS.  So the bench starts this launcher first, as a
fresh interpreter holding nothing but the service code, and every
service child — including a restart after SIGKILL — is forked from
here.

Protocol: one JSON object per line on stdin, one reply per line on
stdout.

* ``{"op": "start", "store_root", "rounds", "keys", "resume",
  "trace_dir"}`` forks a ``ShardProcess`` and replies
  ``{"host", "port", "pid", "start_s"}`` once it reports its address;
  ``start_s`` is the fork-to-address time.  With ``trace_dir`` set the
  service wrappers are installed before the fork, so the child records
  spans and writes them to ``<trace_dir>/spans-<pid>.jsonl`` on SIGUSR1.
* ``{"op": "kill", "pid"}`` is SIGKILL, ``{"op": "terminate", "pid"}``
  is SIGTERM (drain, snapshot, exit); both reap the child.
* End of input stops every child still running, then exits.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.pipeline.service import ShardProcess  # noqa: E402

from tracer import SERVICE_POINTS, Tracer  # noqa: E402


class ServiceParent:
    """Forks, kills and stops the service children."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.trace_dir: str | None = None
        self.children: dict[int, ShardProcess] = {}
        os.register_at_fork(after_in_child=self.tracer.reset)
        # Inherited by every forked child: the bench asks for the spans
        # before it kills or stops a traced service.
        signal.signal(signal.SIGUSR1, self._dump_spans)

    def _dump_spans(self, signum, frame) -> None:
        if self.trace_dir is not None:
            path = os.path.join(self.trace_dir, f"spans-{os.getpid()}.jsonl")
            self.tracer.dump(path)

    def handle(self, request: dict) -> dict:
        op = request["op"]
        if op == "start":
            self.trace_dir = request.get("trace_dir")
            if self.trace_dir is not None:
                self.tracer.install(SERVICE_POINTS)
            else:
                self.tracer.uninstall()
            child = ShardProcess(
                "bench",
                store_root=request["store_root"],
                rounds=request["rounds"],
                keys=request["keys"],
                resume=bool(request.get("resume", False)),
            )
            start = time.perf_counter()
            info = child.start()
            start_s = time.perf_counter() - start
            self.children[child.pid] = child
            return {
                "host": info.host,
                "port": info.port,
                "pid": child.pid,
                "start_s": start_s,
            }
        if op == "kill":
            self.children.pop(request["pid"]).kill()
            return {"ok": True}
        if op == "terminate":
            self.children.pop(request["pid"]).terminate()
            return {"ok": True}
        return {"error": f"unknown op {op!r}"}

    def close(self) -> None:
        for child in self.children.values():
            child.kill()
        self.children.clear()


def main() -> int:
    parent = ServiceParent()
    try:
        for line in sys.stdin:
            try:
                reply = parent.handle(json.loads(line))
            except Exception as exc:  # report it; the bench decides
                reply = {"error": f"{type(exc).__name__}: {exc}"}
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
    finally:
        parent.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
