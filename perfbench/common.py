"""Shared pieces of the benchmark: statistics, inputs, process control.

Everything here runs in the benchmark process; nothing in the program
under test imports it.
"""

from __future__ import annotations

import json
import math
import os
import resource
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

#: the end-to-end metrics and their units, in print order
E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "batch.edges_per_s": "1/s",
    "wire.p50_ms": "ms",
    "wire.goodput_rps": "1/s",
    "stream.mutations_per_s": "1/s",
    "stream.update_p50_ms": "ms",
}
#: p99 latencies: measured like the end-to-end metrics, with tracing
#: off, but printed with the per-layer metrics and not gated, because
#: host CPU steal moves them across runs by more than any bound
#: BENCHMARK.json can hold (see README.md)
TAIL_UNITS: Dict[str, str] = {
    "wire.p99_ms": "ms",
    "stream.update_p99_ms": "ms",
}


class CheckFailed(Exception):
    """An answer the program gave disagrees with the oracle."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quiet_median(values: Sequence[float], steal: Sequence[int]) -> float:
    """Median of per-slice ``values`` over the slices of a run whose CPU
    steal (``steal``, ticks taken in each slice) is at most the median
    slice's.

    On a shared host steal comes in bursts and inflates every timing in
    the slice it hits, the tail most; the slices it spared measure the
    program. The choice depends on the host only, never on the values.
    Without steal every slice counts.
    """
    cut = median(steal)
    return median([v for v, s in zip(values, steal) if s <= cut])


# ----------------------------------------------------------------------
# process and memory
# ----------------------------------------------------------------------
def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_steal_ticks() -> int:
    """Ticks the hypervisor took from the host's CPUs (0 if unknown).

    Printed with each run so a reader can tell host contention from a
    change in the program.
    """
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def program_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def ensure_program() -> None:
    """Make the checkout's ``src`` importable; exit 2 when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Stack:
    """A ``repro serve`` backend plus a ``repro router`` in front of it.

    Both run as their own processes through ``launch.py``, with default
    flags apart from ports; ``trace`` makes the launcher record spans.
    """

    #: stacks not yet stopped, so the runner can stop them on any exit
    live: List["Stack"] = []

    def __init__(self, workdir: Path, trace: bool) -> None:
        Stack.live.append(self)
        self.workdir = workdir
        self.trace = trace
        self.serve_port = free_port()
        self.router_port = free_port()
        self.procs: List[subprocess.Popen] = []
        self.outs: List[Path] = []

    def _spawn(self, tag: str, argv: List[str]) -> None:
        out = self.workdir / f"{tag}.json"
        if out.exists():
            out.unlink()
        cmd = [sys.executable, str(BENCH_DIR / "launch.py"), "--out", str(out)]
        if self.trace:
            cmd.append("--trace")
        cmd += ["--", *argv]
        log = open(self.workdir / f"{tag}.log", "wb")
        try:
            proc = subprocess.Popen(
                cmd, env=program_env(), stdout=log, stderr=subprocess.STDOUT,
                cwd=str(ROOT),
            )
        finally:
            log.close()
        self.procs.append(proc)
        self.outs.append(out)

    def start(self) -> float:
        """Start both processes; returns seconds until both answer hello.

        The router starts once the server answers, so the router's first
        health probe finds it; started together, set-up time would jump
        by a probe interval whenever the server came up just too late.
        """
        t0 = time.perf_counter()
        self._spawn("serve", ["serve", "--port", str(self.serve_port)])
        self.wait_ready(self.serve_port)
        self._spawn(
            "router",
            ["router", "--port", str(self.router_port),
             "--backends", f"127.0.0.1:{self.serve_port}"],
        )
        self.wait_ready(self.router_port)
        return time.perf_counter() - t0

    def wait_ready(self, port: int, timeout_s: float = 60.0) -> None:
        from repro.server import protocol

        deadline = time.perf_counter() + timeout_s
        while True:
            for proc in self.procs:
                if proc.poll() is not None:
                    raise RuntimeError(
                        f"program process exited early with {proc.returncode}"
                    )
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
                    s.sendall(protocol.encode_frame(
                        {"type": "hello", "protocol": protocol.PROTOCOL}))
                    f = s.makefile("rb")
                    line = f.readline()
                    frame = json.loads(line) if line else {}
                    if frame.get("type") == "hello":
                        return
            except (OSError, ValueError):
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError(f"port {port} never became ready")
            time.sleep(0.02)

    def stop(self, timeout_s: float = 60.0) -> List[Dict[str, Any]]:
        """Drain both processes; returns each launcher's output record."""
        from repro.server import protocol

        for port in (self.router_port, self.serve_port):
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
                    s.settimeout(30)
                    s.sendall(protocol.encode_frame(
                        {"type": "hello", "protocol": protocol.PROTOCOL}))
                    f = s.makefile("rb")
                    f.readline()
                    s.sendall(protocol.encode_frame({"type": "shutdown"}))
                    f.readline()
            except OSError:
                pass
        outs: List[Dict[str, Any]] = []
        for proc, out in zip(self.procs, self.outs):
            try:
                proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            try:
                outs.append(json.loads(out.read_text()))
            except (OSError, ValueError):
                outs.append({})
        self.procs = []
        if self in Stack.live:
            Stack.live.remove(self)
        return outs

    def kill(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.procs = []
        if self in Stack.live:
            Stack.live.remove(self)

    @classmethod
    def kill_all(cls) -> None:
        for stack in list(cls.live):
            stack.kill()


def stats_frame(port: int) -> Dict[str, Any]:
    """One ``stats`` round trip on a fresh connection."""
    from repro.server import protocol

    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.settimeout(30)
        f = s.makefile("rb")
        s.sendall(protocol.encode_frame({"type": "hello", "protocol": protocol.PROTOCOL}))
        f.readline()
        s.sendall(protocol.encode_frame({"type": "stats"}))
        return json.loads(f.readline())


# ----------------------------------------------------------------------
# result line
# ----------------------------------------------------------------------
def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]
) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(max(attempted, 1)),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def seeded(seed: int, *salt: int) -> np.random.Generator:
    """Independent generator per (workload seed, purpose) pair."""
    return np.random.default_rng([int(seed), *[int(s) for s in salt]])
