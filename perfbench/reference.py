"""Fixed reference computations that measure how fast the machine runs
right now.

The benchmark's timings are reported at a nominal machine speed: each
measured interval is multiplied by NOMINAL_S[kind] / (reference time
measured next to it).  On a shared machine whose speed drifts by tens of
percent from minute to minute, this keeps the drift out of the comparison
of two commits and leaves changes in the program's own cost in place.

How much a slow spell slows a computation depends on its mix of work, so
each workload uses the reference closest to its own mix: "small" is
Python-driven numpy calls on tiny arrays (a desk-scale step, the
splitting study), "wide" adds matmuls at 784 features, 25k-element
vector updates and a pass over a few megabytes (an MNIST-scale step).
"""

import functools
from time import perf_counter

import numpy as np

# Reference times on a 2-vCPU Intel Xeon guest (Python 3.11, numpy 2.4,
# one BLAS thread), so scaled figures read as seconds there.
NOMINAL_S = {"small": 0.028, "wide": 0.028}

@functools.lru_cache(maxsize=None)
def _operands(kind: str):
    # built on first use, outside the timer, so a workload on the small
    # reference does not carry the wide one's megabytes in its peak memory
    if kind == "small":
        return (np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32) / 32.0,)
    rng = np.random.default_rng(0)
    return (rng.random((32, 784)), rng.random((784, 32)) / 784.0,
            rng.random(25450), rng.random(25450), rng.random(600_000))


def _small(m):
    x = m
    for _ in range(4000):
        x = np.tanh(x @ m + 0.5)


def _wide(x, w, theta, grad, block):
    for _ in range(25):
        hidden = np.maximum(x @ w, 0.0)
        x.T @ hidden
        for _ in range(3):
            theta - 0.01 * grad
        (block - 0.1307) / 0.3081


_KERNELS = {"small": _small, "wide": _wide}


def reference_seconds(kind: str) -> float:
    """Time of one run of the reference computation `kind`."""
    kernel, operands = _KERNELS[kind], _operands(kind)
    tic = perf_counter()
    kernel(*operands)
    return perf_counter() - tic
