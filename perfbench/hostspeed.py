"""Host speed reference, timed next to every measured pass.

The CPU speed of a shared sandbox drifts by 10-30% over tens of seconds as
other tenants load the machine, and no averaging inside a 15-second run
removes a drift that slow. This fixed computation uses no themerank code,
so its time moves only with the host. The benchmark reports timings at
reference speed: measured seconds * REFERENCE_S / reference seconds, the
reference being timed just before and just after the measured work.
"""

from __future__ import annotations

import re
import statistics
import time

import numpy as np
from scipy import sparse

# median of reference_seconds() on the machine the benchmark was defined on
# (2-vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6, scipy 1.17.1)
REFERENCE_S = 0.020

_TEXT = " ".join(f"Palavra{i % 97} de {i} R$ {i * 7}.{i % 1000:03d},00 art. {i % 300}" for i in range(3000))
_WORD = re.compile(r"(?<![^\W_])(?:de|art)(?![^\W_])", re.IGNORECASE)
_ENTRIES = np.arange(20000)
_MATRIX = sparse.csr_matrix((np.ones(20000), (_ENTRIES // 20, (_ENTRIES * 7919) % 500)), shape=(1000, 500))


def _kernel() -> float:
    total = 0
    for i in range(100000):
        total += i * i % 7
    cleaned = _WORD.sub(" ", _TEXT)
    product = _MATRIX @ _MATRIX.T
    return total + len(cleaned) + product.nnz


def reference_seconds(repeats: int = 3) -> float:
    """Median wall time of the reference computation."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
