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

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np


class DivergenceError(RuntimeError):
    """Raised when an integration produces a non-finite state."""

    def __init__(self, time: float):
        super().__init__(f"non-finite state encountered at t = {time!r}")
        self.time = time


@dataclass(frozen=True)
class LinearSplitSystem:
    """Matrix pair (A, B) splitting the linear field X' = (A+B)X."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if B.shape != A.shape:
            raise ValueError(f"A and B shapes differ: {A.shape} vs {B.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)


@dataclass(frozen=True)
class DampingSchedule:
    """Continuous damping delta(t) = (t - offset) / (t + 2*offset).

    With offset equal to the discrete step size h, delta(n*h) equals the
    momentum coefficient (n-1)/(n+2) exactly.  delta increases toward 1.
    """

    offset: float

    def __post_init__(self):
        if self.offset <= 0:
            raise ValueError(f"offset must be positive, got {self.offset}")


@dataclass(frozen=True)
class SecondOrderSystem:
    """First-order reformulation u' = v, v' = -damping(t) v - grad(u)."""

    damping: Callable[[float], float]
    grad: Callable[[np.ndarray], np.ndarray]
    u0: np.ndarray
    v0: np.ndarray
    t0: float = 0.0


def matrix_exp(M: np.ndarray) -> np.ndarray:
    """Dense e^M by scaling and squaring with a truncated Taylor series.

    Accurate to about 1e-13 relative for norm(M) up to 10.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    norm = np.linalg.norm(M, 1)
    # Scale so the series argument has norm <= 0.5, then square back.
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    S = M / (2.0**squarings)
    n = M.shape[0]
    # Horner evaluation of sum_{i<=17} S^i / i!; remainder < 1e-16 at norm 0.5.
    E = np.eye(n)
    for i in range(17, 0, -1):
        E = np.eye(n) + (S @ E) / i
    for _ in range(squarings):
        E = E @ E
    return E


def spectral_norm(M: np.ndarray) -> float:
    """Operator 2-norm, the largest singular value (by SVD)."""
    return float(np.linalg.norm(np.asarray(M, dtype=float), 2))


def _checked_state(sys: LinearSplitSystem, X: np.ndarray, h: float) -> np.ndarray:
    """X as a float64 array whose length matches the system, for h >= 0."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 0 or X.shape[0] != sys.A.shape[0]:
        raise ValueError(
            f"dimension mismatch: state has shape {X.shape}, "
            f"system is {sys.A.shape[0]}-dimensional"
        )
    if not h >= 0:  # negated so that NaN fails it
        raise ValueError(f"time step must be nonnegative, got {h}")
    return X


def lie_split_step(
    sys: LinearSplitSystem, X: np.ndarray, h: float, reverse: bool = False
) -> np.ndarray:
    """One sequential-splitting step: solve the A flow, then the B flow.

    Returns e^{Bh} e^{Ah} X (or e^{Ah} e^{Bh} X with reverse=True, for
    order-sensitivity experiments).
    """
    X = _checked_state(sys, X, h)
    first, second = (sys.B, sys.A) if reverse else (sys.A, sys.B)
    return matrix_exp(second * h) @ (matrix_exp(first * h) @ X)


def strang_split_step(sys: LinearSplitSystem, X: np.ndarray, h: float) -> np.ndarray:
    """One symmetric-splitting step e^{Ah/2} e^{Bh} e^{Ah/2} X.

    Supplementary: second-order reference for defect comparisons only.
    """
    X = _checked_state(sys, X, h)
    half = matrix_exp(sys.A * (h / 2.0))
    return half @ (matrix_exp(sys.B * h) @ (half @ X))


def splitting_defect(
    sys: LinearSplitSystem,
    h: float,
    step: Callable[[LinearSplitSystem, np.ndarray, float], np.ndarray] = lie_split_step,
) -> float:
    """Spectral norm of e^{(A+B)h} minus the propagator of one splitting step.

    The propagator is the step applied to the identity: e^{Bh} e^{Ah} for
    the default Lie step, e^{Ah/2} e^{Bh} e^{Ah/2} for strang_split_step.
    """
    if h < 0:
        raise ValueError(f"time step must be nonnegative, got {h}")
    return spectral_norm(matrix_exp((sys.A + sys.B) * h) - step(sys, np.eye(len(sys.A)), h))


def integrate_second_order(
    sys: SecondOrderSystem, T: float, steps: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classical fourth-order integration of the pair (u, v) over [t0, T].

    Returns (ts, us, vs) with steps+1 rows; global error O(((T-t0)/steps)^4)
    for smooth fields.  Raises DivergenceError at the first non-finite state.
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if T <= sys.t0:
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
    if t < 0:
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
