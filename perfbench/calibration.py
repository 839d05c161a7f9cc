"""Fixed reference kernels timed between warm iterations.

They use numpy and scipy the way the package does, but none of its code, so
a change to the package cannot change their cost: their time tracks only the
speed of the host.  `sparse` builds and multiplies small sparse operators
(per-call object overhead, like `suite-all`); `dense` fills a 1500^2 complex
outer product (allocation and memory bandwidth, like the dense density of
`recipe-scale`).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp

_DIAG = np.arange(9, dtype=complex)
_LOWER = sp.diags(np.sqrt(np.arange(1, 9, dtype=float)).astype(complex), offsets=1,
                  shape=(9, 9), format="csr")
_VECTOR = np.exp(1j * np.linspace(0.0, 3.0, 1500)) / np.sqrt(1500.0)


def sparse_kernel() -> float:
    start = perf_counter()
    eye = sp.identity(9, dtype=complex, format="csr")
    one = sp.identity(729, dtype=complex, format="csr")
    for _ in range(4):
        lower = sp.kron(sp.kron(eye, _LOWER), eye).tocsr()
        raise_ = lower.conjugate().transpose().tocsr()
        number = sp.kron(sp.kron(eye, sp.diags(_DIAG, format="csr")), eye).tocsr()
        for _ in range(10):
            residual = (lower @ raise_ - raise_ @ lower - one + 0.0 * number).tocsr()
            residual.eliminate_zeros()
        np.linalg.norm(residual[:64, :64].toarray(), 2)
    return perf_counter() - start


def dense_kernel() -> float:
    start = perf_counter()
    dense = np.zeros((_VECTOR.size, _VECTOR.size), dtype=complex)
    dense += np.outer(_VECTOR, _VECTOR.conjugate())
    float(np.trace(dense).real)
    return perf_counter() - start
