"""Host-speed reference kernel of the bh benchmark.

The benchmark shares a few cores of a host whose speed drifts by tens of
per cent over seconds to minutes as other tenants load it. A fixed kernel
that does not touch `bh` is timed between repetitions; a run's times are
scaled by REFERENCE_S / (median kernel time of the run), so they read as
seconds on a host where the kernel takes REFERENCE_S. A slower program
still shows in full: only the host's speed, measured alongside, cancels.

The kernel mixes the kinds of work `bh` does: an interpreter-bound Python
loop, sparse matrix-vector products and gathers over an array larger than
the last-level cache.
"""

import time

import numpy as np
import scipy.sparse as sp

# about the kernel's time on a lightly loaded 2-vCPU host; it sets only the
# scale of the reported seconds, so it must not change between runs compared
REFERENCE_S = 0.30


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        n = 300
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        self.A = (sp.kron(lap, sp.eye(n)) + sp.kron(sp.eye(n), lap)).tocsr()
        self.x0 = rng.standard_normal(n * n)
        self.big = rng.standard_normal(8_000_000)            # 64 MB
        self.idx = rng.integers(0, self.big.size, 1_000_000)

    def run(self):
        """Seconds one pass of the kernel takes."""
        t0 = time.perf_counter()
        s = 0
        for i in range(1_000_000):
            s += i * i % 7
        x = self.x0
        for _ in range(150):
            x = self.A @ x
            x *= 0.1
        for _ in range(2):
            self.big[self.idx].sum()
            (self.big * 1.0001).sum()
        return time.perf_counter() - t0
