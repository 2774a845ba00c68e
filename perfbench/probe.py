"""Machine-speed probe: a fixed numpy kernel that shares no code with structcov.

Shared hosts run this benchmark at a speed that drifts by tens of percent
over minutes. The probe is timed between fits throughout a run; its mean
time over the run, divided by REFERENCE_MS, is the run's slowdown factor.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

# fastest probe time on the reference machine (2 vCPU x86-64, 1 BLAS thread)
REFERENCE_MS = 1.27


def probe_ms() -> float:
    """Time one run of the kernel: 30 rounds of a 15x15 Cholesky, a solve and a GEMM."""
    A = np.eye(15) + 0.01
    X = np.ones((15, 100))
    start = time.perf_counter()
    for _ in range(30):
        L = np.linalg.cholesky(A)
        Z = np.linalg.solve(L, X)
        A = (Z @ Z.T) / 100.0 + np.eye(15)
    return (time.perf_counter() - start) * 1e3


class ProbePool:
    """Processes that time the probe at the same moment, one per core in use."""

    def __init__(self, processes: int):
        ctx = multiprocessing.get_context("spawn")
        self.conns, self.procs = [], []
        for _ in range(processes):
            here, there = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(there,), daemon=True)
            proc.start()
            there.close()
            self.conns.append(here)
            self.procs.append(proc)

    def burst(self, n: int) -> list[list[float]]:
        """``n`` probe times from each process, timed concurrently."""
        for conn in self.conns:
            conn.send(n)
        return [conn.recv() for conn in self.conns]

    def close(self) -> None:
        for conn in self.conns:
            conn.send(0)
            conn.close()
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()


def _serve(conn) -> None:
    while n := conn.recv():
        conn.send([probe_ms() for _ in range(n)])
