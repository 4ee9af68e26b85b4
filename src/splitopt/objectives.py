"""Differentiable test problems with analytic gradients.

Quadratics with known spectrum, the two-dimensional Rosenbrock valley, a
small logistic-regression problem, and a central finite-difference oracle
for checking any of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Objective:
    """Differentiable function: value, gradient, optional argmin and
    gradient-Lipschitz constant."""

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    minimizer: Optional[np.ndarray] = None
    L: Optional[float] = None


def quadratic(Q: np.ndarray, b: np.ndarray) -> Objective:
    """Convex quadratic f(u) = u'Qu/2 - b'u for symmetric positive-definite Q.

    Gradient Qu - b, minimizer solve(Q, b), Lipschitz constant lambda_max(Q).
    """
    Q = np.asarray(Q, dtype=float)
    b = np.asarray(b, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"Q must be square, got shape {Q.shape}")
    if b.shape != (Q.shape[0],):
        raise ValueError(f"b has shape {b.shape}, expected ({Q.shape[0]},)")
    if not np.allclose(Q, Q.T, rtol=0, atol=1e-12):
        raise ValueError("Q must be symmetric")
    eigs = np.linalg.eigvalsh(Q)
    if eigs[0] <= 0:
        raise ValueError(f"Q must be positive definite, smallest eigenvalue {eigs[0]}")

    def value(u):
        u = np.asarray(u, dtype=float)
        return float(0.5 * u @ (Q @ u) - b @ u)

    def gradient(u):
        u = np.asarray(u, dtype=float)
        return Q @ u - b

    return Objective(
        dim=Q.shape[0],
        value=value,
        gradient=gradient,
        minimizer=np.linalg.solve(Q, b),
        L=float(eigs[-1]),
    )


def rosenbrock(u: np.ndarray) -> Tuple[float, np.ndarray]:
    """Value and gradient of (1-x)^2 + 100 (y - x^2)^2."""
    x, y = np.asarray(u, dtype=float)
    value = (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2
    grad = np.array(
        [-2.0 * (1.0 - x) - 400.0 * x * (y - x * x), 200.0 * (y - x * x)]
    )
    return float(value), grad


def logistic_regression(X: np.ndarray, y: np.ndarray) -> Objective:
    """Mean logistic loss of a linear classifier on labels in {0, 1}.

        f(w) = mean log(1 + exp(-s_i * X_i w)),   s_i = 2 y_i - 1

    Convex but not quadratic; L = lambda_max(X'X) / (4m).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be (m, d) with one label per row")
    s = 2.0 * y.astype(float) - 1.0
    m = X.shape[0]

    def value(w):
        margins = s * (X @ np.asarray(w, dtype=float))
        # log(1 + e^-t) computed stably for both signs of t
        return float(np.mean(np.logaddexp(0.0, -margins)))

    def gradient(w):
        margins = s * (X @ np.asarray(w, dtype=float))
        sigma = 1.0 / (1.0 + np.exp(margins))
        return -(X.T @ (s * sigma)) / m

    L = float(np.linalg.eigvalsh(X.T @ X)[-1]) / (4.0 * m)
    return Objective(dim=X.shape[1], value=value, gradient=gradient, L=L)


def fd_gradient(f: Callable[[np.ndarray], float], u: np.ndarray, step: float) -> np.ndarray:
    """Central finite-difference gradient, one coordinate at a time."""
    if not 0 < step < np.inf:  # negated so that NaN fails it
        raise ValueError(f"step must be positive and finite, got {step}")
    u = np.asarray(u, dtype=float)
    grad = np.zeros_like(u)
    for i in range(u.size):
        up = u.copy()
        dn = u.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (f(up) - f(dn)) / (2.0 * step)
    return grad
