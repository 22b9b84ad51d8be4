"""Machine-speed calibration for timings on a shared, bursty CPU.

On a machine shared with other tenants, the same code can run up to twice
as slow for seconds at a time. Such drift swamps the differences the
benchmark exists to show. So a fixed kernel is timed between entry-point
calls. Each call's time is then scaled by REFERENCE_S divided by the
kernel time measured next to it. A calibrated time reads as
seconds at the speed the machine had when REFERENCE_S was measured.

The kernel uses numpy only and never cdglab, so a change to cdglab cannot
move it. It mixes what the workloads spend time on, in about equal parts: numpy
work on small arrays (a GMM posterior step, a batched small linear solve,
a stable argsort) and scalar Python arithmetic like the Jacobi SVD's inner
loop. Either part alone tracks the workloads' slow-downs less closely:
scalar Python over-states them on the SVD, and small numpy calls
under-state them on the sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Median kernel time on the machine the benchmark was defined on: a 2-vCPU
# VM, Python 3.11.7, numpy 2.4.6, BLAS threads 1.
REFERENCE_S = 0.0030

_rng = np.random.default_rng(20260317)
_MAPS = _rng.normal(size=(4, 8, 8)) / math.sqrt(8)
_SPREADS = _rng.uniform(0.3, 1.0, size=4)
_LOG_WEIGHTS = np.log(np.full(4, 0.25))
_EMBEDDING = _rng.normal(size=8)
_ATTENTION = _rng.uniform(0.1, 1.0, size=(4, 16, 16))
_COLUMNS = _rng.normal(size=(8, 6))
_SIGMAS = np.geomspace(10.0, 0.01, 28).tolist() + [0.0]
_SCALAR_ITERATIONS = 12000


@dataclass
class _Step:
    value: np.ndarray
    sigma: float


def _kernel() -> float:
    x = np.ones(8)
    for i in range(len(_SIGMAS) - 1):
        sigma = _SIGMAS[i]
        means = _MAPS @ _EMBEDDING
        var = _SPREADS**2 + sigma * sigma
        diff = x[None, :] - means
        logw = _LOG_WEIGHTS - 4.0 * np.log(2.0 * np.pi * var) - (diff * diff).sum(-1) / (2.0 * var)
        g = np.exp(logw - logw.max())
        g /= g.sum()
        comp = ((_SPREADS**2)[:, None] * x + sigma * sigma * means) / var[:, None]
        step = _Step((x - (g[:, None] * comp).sum(0)) / sigma, sigma)
        if i % 4 == 0:
            m = np.swapaxes(_ATTENTION / _ATTENTION.sum(2, keepdims=True), 1, 2).copy()
            m[:, -1, :] = 1.0
            rhs = np.zeros((4, 16, 1))
            rhs[:, -1] = 1.0
            np.argsort(-np.linalg.solve(m, rhs)[:, :, 0], axis=1, kind="stable")
        x = x + (_SIGMAS[i + 1] - sigma) * step.value
    total = 0.0
    for p in range(5):
        for q in range(p + 1, 6):
            a, b = _COLUMNS[:, p], _COLUMNS[:, q]
            alpha, beta, gamma = float(a @ a), float(b @ b), float(a @ b)
            total += gamma / math.sqrt(alpha * beta)
    for i in range(_SCALAR_ITERATIONS):
        total += math.sqrt(i * 1.5)
    return total + float(x.sum())


def kernel_seconds(repeats: int = 1) -> float:
    """Median wall time of `repeats` kernel runs."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return float(np.median(times))


def calibrated(seconds: list[float], kernels: list[float]) -> list[float]:
    """Scale each call by REFERENCE_S over the slower kernel beside it.

    kernels[i] is timed just before call i and kernels[i + 1] just after.
    Taking the slower of the two credits a call that straddles a slow-down
    with the slow speed, which keeps such calls from inflating the tail.
    """
    return [s * REFERENCE_S / max(kernels[i], kernels[i + 1])
            for i, s in enumerate(seconds)]
