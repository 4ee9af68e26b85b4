"""Operator-splitting machinery and reference ODE integration.

Dense matrix exponentials, sequential (Lie) and symmetric (Strang)
splitting steps for linear systems X' = (A+B)X, each returning its one-step
propagator S(h), the factorization defect of any one-step matrix, and a
fourth-order reference integrator for second-order gradient flows
u'' + gamma(t) u' = -grad f(u).

The Strang step exists only for order comparisons; none of the optimizer
derivations use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .optimizers import _checked_grad


class DivergenceError(RuntimeError):
    """Raised when an integration produces a non-finite state."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state encountered at t = {time!r}")
        self.time = time


@dataclass(frozen=True, eq=False)
class LinearSplitSystem:
    """Matrix pair (A, B) splitting the linear field X' = (A+B)X.

    The system owns read-only float64 copies of A and B, so later changes
    to the caller's arrays cannot reach it.
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        B = np.array(self.B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
            raise ValueError(f"A must be square and non-empty, got shape {A.shape}")
        if B.shape != A.shape:
            raise ValueError(f"A and B shapes differ: {A.shape} vs {B.shape}")
        _check_finite("A", A)
        _check_finite("B", B)
        A.flags.writeable = False
        B.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)


@dataclass(frozen=True, eq=False)
class SecondOrderSystem:
    """First-order reformulation u' = v, v' = -damping(t) v - grad(u)."""

    damping: Callable[[float], float]
    grad: Callable[[np.ndarray], np.ndarray]
    u0: np.ndarray
    v0: np.ndarray
    t0: float = 0.0


def _checked_times(t: float | np.ndarray, what: str) -> np.ndarray:
    """t as a float64 scalar or 1-D array whose entries are all finite and
    >= 0, else a ValueError naming the bad entry."""
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError(f"{what} must be a scalar or a 1-D array, got shape {t.shape}")
    bad = ~np.isfinite(t) | (t < 0)
    if bad.any():
        where = "" if t.ndim == 0 else f" at index {int(np.argmax(bad))}"
        raise ValueError(f"{what} must be nonnegative and finite, got {t[bad].flat[0]}{where}")
    return t


def _stack_position(flat: int, stack_shape: Tuple[int, ...]) -> str:
    """Where matrix number `flat` of a stack sits, for error messages."""
    if not stack_shape:
        return ""
    index = np.unravel_index(flat, stack_shape)
    return f" at stack index {index[0] if len(index) == 1 else tuple(map(int, index))}"


def _check_finite(what: str, M: np.ndarray) -> None:
    """A ValueError naming the first non-finite entry of the matrix or the
    stack of matrices M: its value, its (i, j) and, in a stack, its index."""
    finite = np.isfinite(M)
    if not finite.all():
        matrices = M.reshape((-1,) + M.shape[-2:])
        k, i, j = np.argwhere(~finite.reshape(matrices.shape))[0]
        raise ValueError(
            f"{what} entries must be finite, got {matrices[k, i, j]} at ({i}, {j})"
            f"{_stack_position(k, M.shape[:-2])}"
        )


# 1-norms above this would need more than 1023 halvings to reach 0.5.
_MAX_EXP_NORM = 2.0**1022


def matrix_exp(M: np.ndarray) -> np.ndarray:
    """Dense e^M by scaling and squaring with a truncated Taylor series.

    M is one n x n matrix or a stack of shape (..., n, n).  Each matrix is
    scaled by its own 2^-s, s = ceil(log2(||M||_1 / 0.5)) when its 1-norm
    exceeds 0.5, else 0; the Taylor series runs once over the whole stack,
    and each matrix is squared back s times.  Every matrix of a stack gets
    the same bits as its own single call.  Accurate to about 1e-13 relative
    for norm(M) up to 10.  A ValueError names the 1-norm (and the stack
    index) of a matrix whose e^M overflows float64.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2] or M.shape[-1] == 0:
        raise ValueError(f"matrix must be square and non-empty, got shape {M.shape}")
    _check_finite("matrix", M)
    stack_shape, n = M.shape[:-2], M.shape[-1]
    M = M.reshape(-1, n, n)
    with np.errstate(over="ignore"):  # an overflowing column sum is caught below
        norms = np.linalg.norm(M, 1, axis=(1, 2))
    too_big = norms > _MAX_EXP_NORM
    if too_big.any():
        k = int(np.argmax(too_big))
        raise ValueError(
            f"1-norm {float(norms[k])}{_stack_position(k, stack_shape)} "
            "exceeds 2^1022, too large to scale for e^M"
        )
    # Scale so the series argument has norm <= 0.5, then square back.
    squarings = np.ceil(np.log2(np.maximum(norms, 0.5) / 0.5)).astype(int)
    most = int(squarings.max(initial=0))
    S = M / (2.0**squarings)[:, None, None] if most else M
    # Horner evaluation of sum_{i<=17} S^i / i!; remainder < 1e-16 at norm 0.5.
    identity = np.eye(n)
    E = identity
    for i in range(17, 0, -1):
        E = identity + (S @ E) / i
    if most:
        # a squaring that overflows leaves a non-finite entry, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(most):
                todo = np.flatnonzero(squarings > k)
                E[todo] = E[todo] @ E[todo]
        finite = np.isfinite(E).all(axis=(1, 2))
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(
                f"e^M is not representable in float64: 1-norm {float(norms[k])}"
                f"{_stack_position(k, stack_shape)}"
            )
    return E.reshape(stack_shape + (n, n))


def spectral_norm(M: np.ndarray) -> float | np.ndarray:
    """Operator 2-norm, the largest singular value (by SVD).

    A float for one matrix, an array of norms for a stack (..., m, n).
    """
    norms = np.linalg.norm(np.asarray(M, dtype=float), 2, axis=(-2, -1))
    return float(norms) if norms.ndim == 0 else norms


def _flow(M: np.ndarray, h: np.ndarray) -> np.ndarray:
    """e^{Mh}, or the stack of e^{M h_i} for a 1-D array of h."""
    return matrix_exp(M * h[..., None, None])


def lie_split_step(sys: LinearSplitSystem, h: float | np.ndarray) -> np.ndarray:
    """The propagator e^{Bh} e^{Ah} of one sequential-splitting step: solve
    the A flow, then the B flow.

    A scalar h gives one n x n matrix, so lie_split_step(sys, h) @ x steps a
    state x; a 1-D array of k step sizes gives the (k, n, n) stack of their
    propagators.
    """
    h = _checked_times(h, "time step")
    return _flow(sys.B, h) @ _flow(sys.A, h)


def strang_split_step(sys: LinearSplitSystem, h: float | np.ndarray) -> np.ndarray:
    """The propagator e^{Ah/2} e^{Bh} e^{Ah/2} of one symmetric-splitting step.

    Takes h as lie_split_step does.  Supplementary: second-order reference
    for defect comparisons only.
    """
    h = _checked_times(h, "time step")
    half = _flow(sys.A, h / 2.0)
    return half @ (_flow(sys.B, h) @ half)


def splitting_defect(
    sys: LinearSplitSystem, h: float | np.ndarray, propagator: np.ndarray
) -> float | np.ndarray:
    """Spectral norm of e^{(A+B)h} minus a one-step propagator S(h).

    For a splitting, S(h) is what its step returns, such as
    lie_split_step(sys, h) for e^{Bh} e^{Ah}.  A scalar h takes
    one n x n propagator and gives a float; a 1-D array of k step sizes
    takes the (k, n, n) stack of their propagators and gives an array of
    defects from one exponential call.  A propagator of another shape, or
    with a non-finite entry, raises a ValueError naming the shape or the
    entry (and its stack index).  The norm is taken by one spectral_norm
    call per step size, the count that perfbench's traced splitting-study
    schema test pins (splitting.spectral_norm_calls).
    """
    h = _checked_times(h, "time step")
    S = np.asarray(propagator, dtype=float)
    shape = h.shape + sys.A.shape
    if S.shape != shape:
        raise ValueError(f"propagator must have shape {shape}, got {S.shape}")
    _check_finite("propagator", S)
    gap = _flow(sys.A + sys.B, h) - S
    if gap.ndim == 2:
        return spectral_norm(gap)
    return np.array([spectral_norm(g) for g in gap])


def integrate_second_order(
    sys: SecondOrderSystem, T: float, steps: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classical fourth-order integration of the pair (u, v) over [t0, T].

    Returns (ts, us, vs) with steps+1 rows; global error O(((T-t0)/steps)^4)
    for smooth fields.  Raises DivergenceError at the first non-finite state,
    and ValueError if u0 and v0 differ in shape or a gradient is not shaped
    like u.
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if not T > sys.t0:  # negated so that NaN fails it
        raise ValueError(f"horizon {T} must exceed start time {sys.t0}")
    if not np.isfinite([T, sys.t0]).all():
        raise ValueError(f"horizon {T} and start time {sys.t0} must be finite")
    u = np.atleast_1d(np.asarray(sys.u0, dtype=float)).copy()
    v = np.atleast_1d(np.asarray(sys.v0, dtype=float)).copy()
    if u.shape != v.shape:
        raise ValueError(f"u0 shape {u.shape} != v0 shape {v.shape}")
    h = (T - sys.t0) / steps

    def rhs(t, u, v):
        return v, -sys.damping(t) * v - _checked_grad(sys.grad(u), u)

    ts = sys.t0 + h * np.arange(steps + 1)
    us = np.empty((steps + 1, u.size))
    vs = np.empty((steps + 1, v.size))
    us[0], vs[0] = u, v
    # overflow on a diverging trajectory is reported via DivergenceError,
    # not as a floating-point warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            t = ts[i]
            k1u, k1v = rhs(t, u, v)
            k2u, k2v = rhs(t + h / 2, u + h / 2 * k1u, v + h / 2 * k1v)
            k3u, k3v = rhs(t + h / 2, u + h / 2 * k2u, v + h / 2 * k2v)
            k4u, k4v = rhs(t + h, u + h * k3u, v + h * k3v)
            u = u + h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
            v = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
            if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
                raise DivergenceError(float(ts[i + 1]))
            us[i + 1], vs[i + 1] = u, v
    return ts, us, vs
