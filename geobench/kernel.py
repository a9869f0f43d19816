"""Fixed numpy-only reference kernel.

The benchmark divides every operation time by the mean time of this
kernel, measured in the same process between the operations, so that a
change in the host's speed between runs largely cancels out of the
``*_ref`` metrics. The kernel does not import ``geosynth`` and its inputs
never change, so its cost is a property of the machine alone.

Its mix follows the program's own cost profile: a Python-level loop of
small array operations (a projected-gradient step on a simplex
quadratic program, the pattern of the weight solvers), a batch of small
symmetric eigenvalue problems (the SPD charts), and one medium matrix
product. It takes 0.04-0.07 s on a shared 2-core x86-64 VM, depending on
which of its two speeds the host is running at.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20250501)
_FACTOR = _RNG.standard_normal((40, 20))
_GRAM = _FACTOR.T @ _FACTOR / 40.0
_LINEAR = _FACTOR.T @ _RNG.standard_normal(40) / 40.0
_STEP = 0.5 / float(np.linalg.eigvalsh(_GRAM).max())
_SPD = np.einsum("bij,bkj->bik", *(2 * [_RNG.standard_normal((200, 10, 10))])) + np.eye(10)
_DENSE = _RNG.standard_normal((160, 160))

N_STEPS = 3000


def _project(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.flatnonzero(u - css / np.arange(1, v.size + 1) > 0)[-1]
    return np.maximum(v - css[k] / (k + 1), 0.0)


def run_kernel() -> float:
    """Run the kernel once and return a value that depends on all of it."""
    w = np.full(20, 1.0 / 20)
    for _ in range(N_STEPS):
        w = _project(w - _STEP * 2.0 * (_GRAM @ w - _LINEAR))
    vals = np.linalg.eigvalsh(_SPD)
    prod = _DENSE @ _DENSE
    return float(w @ w + vals.sum() + prod[0, 0])


def time_kernel() -> float:
    """Wall time of one kernel run, in seconds."""
    start = time.perf_counter()
    run_kernel()
    return time.perf_counter() - start
