"""Operator-splitting machinery and reference ODE integration.

Dense matrix exponentials, sequential (Lie) and symmetric (Strang)
splitting steps for linear systems X' = (A+B)X, the factorization defect
of a splitting, the time-dependent damping function that interpolates the
discrete momentum schedule, and a fourth-order reference integrator for
second-order gradient flows u'' + gamma(t) u' = -grad f(u).

The Strang step exists only for order comparisons; none of the optimizer
derivations use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np


class DivergenceError(RuntimeError):
    """Raised when an integration produces a non-finite state."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state encountered at t = {time!r}")
        self.time = time


@dataclass(frozen=True, eq=False)
class LinearSplitSystem:
    """Matrix pair (A, B) splitting the linear field X' = (A+B)X.

    The system owns read-only float64 copies of A and B, so later changes
    to the caller's arrays cannot reach it or the flows it remembers.
    """

    A: np.ndarray
    B: np.ndarray
    _flows: Dict[Tuple[str, Tuple[int, ...]], Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        B = np.array(self.B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
            raise ValueError(f"A must be square and non-empty, got shape {A.shape}")
        if B.shape != A.shape:
            raise ValueError(f"A and B shapes differ: {A.shape} vs {B.shape}")
        for name, M in (("A", A), ("B", B)):
            bad = np.argwhere(~np.isfinite(M))
            if len(bad):
                i, j = bad[0]
                raise ValueError(f"{name} entries must be finite, got {M[i, j]} at ({i}, {j})")
        A.flags.writeable = False
        B.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    def flow(self, operator: str, t: float | np.ndarray) -> np.ndarray:
        """Read-only e^{Mt} for M = A (operator "A") or M = B ("B").

        t is a scalar, or a 1-D array for the stack of e^{M t_i}.  Each
        operator remembers the flow of the last t of each shape it was asked
        for, so steps of one size compute each exponential once; a scalar
        and a length-1 t are remembered apart.
        """
        if operator not in ("A", "B"):
            raise ValueError(f"operator must be 'A' or 'B', got {operator!r}")
        t = _checked_times(t, "flow time", nonnegative=False)
        key = (operator, t.shape)
        last = self._flows.get(key)
        if last is not None and np.array_equal(last[0], t):
            return last[1]
        E = matrix_exp(getattr(self, operator) * t[..., None, None])
        E.flags.writeable = False
        self._flows[key] = (t.copy(), E)
        return E


@dataclass(frozen=True)
class DampingSchedule:
    """Continuous damping delta(t) = (t - offset) / (t + 2*offset).

    With offset equal to the discrete step size h, delta(n*h) equals the
    momentum coefficient (n-1)/(n+2) exactly.  delta increases toward 1.
    """

    offset: float

    def __post_init__(self):
        if not self.offset > 0:  # negated so that NaN fails it
            raise ValueError(f"offset must be positive, got {self.offset}")


@dataclass(frozen=True, eq=False)
class SecondOrderSystem:
    """First-order reformulation u' = v, v' = -damping(t) v - grad(u)."""

    damping: Callable[[float], float]
    grad: Callable[[np.ndarray], np.ndarray]
    u0: np.ndarray
    v0: np.ndarray
    t0: float = 0.0


def _checked_times(t: float | np.ndarray, what: str, nonnegative: bool = True) -> np.ndarray:
    """t as a float64 scalar or 1-D array whose entries are all finite
    (and >= 0 when nonnegative), else a ValueError naming the bad entry."""
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError(f"{what} must be a scalar or a 1-D array, got shape {t.shape}")
    bad = ~np.isfinite(t)
    if nonnegative:
        bad |= t < 0
    if bad.any():
        rule = "nonnegative and finite" if nonnegative else "finite"
        where = "" if t.ndim == 0 else f" at index {int(np.argmax(bad))}"
        raise ValueError(f"{what} must be {rule}, got {t[bad].flat[0]}{where}")
    return t


def _stack_position(flat: int, stack_shape: Tuple[int, ...]) -> str:
    """Where matrix number `flat` of a stack sits, for error messages."""
    if not stack_shape:
        return ""
    index = np.unravel_index(flat, stack_shape)
    return f" at stack index {index[0] if len(index) == 1 else tuple(map(int, index))}"


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
    stack_shape, n = M.shape[:-2], M.shape[-1]
    M = M.reshape(-1, n, n)
    finite = np.isfinite(M).all(axis=(1, 2))
    if not finite.all():
        where = _stack_position(int(np.argmin(finite)), stack_shape)
        raise ValueError(f"matrix entries must be finite{where}")
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


def _checked_state(
    sys: LinearSplitSystem, X: np.ndarray, h: float | np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(X, h) as float64 arrays: X's length matches the system, and h is a
    scalar or 1-D array of finite step sizes >= 0."""
    X = np.asarray(X, dtype=float)
    if X.ndim > 2:
        raise ValueError(f"state must be a vector or a matrix, got shape {X.shape}")
    if X.ndim == 0 or X.shape[0] != sys.A.shape[0]:
        raise ValueError(
            f"dimension mismatch: state has shape {X.shape}, "
            f"system is {sys.A.shape[0]}-dimensional"
        )
    return X, _checked_times(h, "time step")


def _apply(flows: Tuple[np.ndarray, ...], X: np.ndarray) -> np.ndarray:
    """flows[0] @ ... @ flows[-1] @ X, for each step size of stacked flows.

    A state vector is carried as a column, so that a stack of flows maps it
    to one state per step size, shape (k, n).
    """
    Y = X[:, None] if X.ndim == 1 else X
    for F in reversed(flows):
        Y = F @ Y
    return Y[..., 0] if X.ndim == 1 else Y


def lie_split_step(sys: LinearSplitSystem, X: np.ndarray, h: float | np.ndarray) -> np.ndarray:
    """One sequential-splitting step: solve the A flow, then the B flow.

    Returns e^{Bh} e^{Ah} X; for a 1-D array of h, one result per h,
    stacked along a new first axis.
    """
    X, h = _checked_state(sys, X, h)
    return _apply((sys.flow("B", h), sys.flow("A", h)), X)


def strang_split_step(sys: LinearSplitSystem, X: np.ndarray, h: float | np.ndarray) -> np.ndarray:
    """One symmetric-splitting step e^{Ah/2} e^{Bh} e^{Ah/2} X.

    Takes a 1-D array of h as lie_split_step does.  Supplementary:
    second-order reference for defect comparisons only.
    """
    X, h = _checked_state(sys, X, h)
    half = sys.flow("A", h / 2.0)
    return _apply((half, sys.flow("B", h), half), X)


def splitting_defect(
    sys: LinearSplitSystem,
    h: float | np.ndarray,
    step: Callable[..., np.ndarray] = lie_split_step,
) -> float | np.ndarray:
    """Spectral norm of e^{(A+B)h} minus the propagator of one splitting step.

    The propagator is the step applied to the identity: e^{Bh} e^{Ah} for
    the default Lie step, e^{Ah/2} e^{Bh} e^{Ah/2} for strang_split_step.
    A float for a scalar h; for a 1-D array of h, an array of defects from
    one exponential call and one step call.  The norm is taken by one
    spectral_norm call per step size, the count that perfbench's traced
    splitting-study schema test pins (splitting.spectral_norm_calls).
    """
    exact = matrix_exp((sys.A + sys.B) * _checked_times(h, "time step")[..., None, None])
    gap = exact - step(sys, np.eye(len(sys.A)), h)
    if gap.ndim == 2:
        return spectral_norm(gap)
    return np.array([spectral_norm(g) for g in gap])


def integrate_second_order(
    sys: SecondOrderSystem, T: float, steps: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classical fourth-order integration of the pair (u, v) over [t0, T].

    Returns (ts, us, vs) with steps+1 rows; global error O(((T-t0)/steps)^4)
    for smooth fields.  Raises DivergenceError at the first non-finite state.
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if not T > sys.t0:  # negated so that NaN fails it
        raise ValueError(f"horizon {T} must exceed start time {sys.t0}")
    u = np.atleast_1d(np.asarray(sys.u0, dtype=float)).copy()
    v = np.atleast_1d(np.asarray(sys.v0, dtype=float)).copy()
    h = (T - sys.t0) / steps

    def rhs(t, u, v):
        return v, -sys.damping(t) * v - np.asarray(sys.grad(u), dtype=float)

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


def damping_delta(t: float, schedule: DampingSchedule) -> Tuple[float, float]:
    """Value and derivative of the damping function at time t.

    delta(t) = (t - d) / (t + 2d),  delta'(t) = 3d / (t + 2d)^2.
    """
    if not t >= 0:  # negated so that NaN fails it
        raise ValueError(f"time must be nonnegative, got {t}")
    d = schedule.offset
    value = (t - d) / (t + 2.0 * d)
    slope = 3.0 * d / (t + 2.0 * d) ** 2
    return value, slope


def ssa1_damping_coefficient(t: float, schedule: DampingSchedule) -> float:
    """Damping coefficient delta(t) - 2 delta'(t) / delta(t).

    The coefficient has a pole where delta vanishes (t = offset); times
    within 1e-9 of it are rejected.
    """
    if abs(t - schedule.offset) < 1e-9:
        raise ValueError(
            f"t = {t} is within 1e-9 of the singularity at {schedule.offset}"
        )
    value, slope = damping_delta(t, schedule)
    return value - 2.0 * slope / value
