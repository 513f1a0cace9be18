"""Host speed, read from fixed kernels that share no code with mgopt.

On a shared host the same solve runs up to about 1.4x slower for tens of
seconds at a time, when other tenants load the cores.  A run therefore times
a fixed probe (dense matmuls, a sparse matvec and a Python loop, on inputs
that never change) before the first unit of work, after every unit and, in
a study, before every cell.  Each reading is the probe's time over
``REFERENCE_S``, its median on the reference host (a 2-vCPU Intel Xeon
guest, numpy 2.4.6, scipy 1.17.1) when unloaded.  The run divides each
unit's time by the mean of the readings over it, raised to the workload's
``host_exponent``: work with a large working set slows less than the probe.

A time scaled this way moves with every change to mgopt, because the probe
does not call mgopt.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

REFERENCE_S = 0.020
REPEATS = 7


class HostProbe:
    """Reads the host factor; keeps every reading and the time spent reading."""

    def __init__(self):
        self.readings: list[float] = []
        self.spent = 0.0
        rng = np.random.default_rng(0)
        self._dense = rng.random((200, 200))
        n = 300
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        self._sparse = (sp.kron(lap, sp.eye(n)) + sp.kron(sp.eye(n), lap)).tocsr()
        self._x = rng.random(n * n)

    def _once(self) -> float:
        a, s, x = self._dense, self._sparse, self._x
        t0 = time.perf_counter()
        for _ in range(20):
            a @ a
        for _ in range(20):
            s @ x
        acc = 0
        for i in range(100_000):
            acc += i * i
        return time.perf_counter() - t0

    def read(self) -> float:
        """Host slowdown now: the probe's median time over ``REFERENCE_S``."""
        t0 = time.perf_counter()
        self.readings.append(statistics.median(self._once() for _ in range(REPEATS)) / REFERENCE_S)
        self.spent += time.perf_counter() - t0
        return self.readings[-1]
