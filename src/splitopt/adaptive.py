"""Adaptive-learning-rate optimizers.

Adagrad, Adadelta, RMSProp, Adam, and the adaptive splitting optimizer
(ssa1_ada_step) that combines the first splitting scheme with Adadelta-style
running averages.  Accumulators are componentwise; all step functions are
pure and return a new state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .optimizers import GradFn, MomentumSchedule, momentum_coefficient


@dataclass(frozen=True)
class AdaptiveHyperParams:
    """Shared hyper-parameter record for the adaptive family.

    h is the base learning rate; gamma the running-average decay rate
    (rho); eps the division guard; beta1/beta2 the Adam moment decays;
    k the velocity-boost exponent of the adaptive splitting step.
    """

    h: float
    gamma: float = 0.9
    eps: float = 1e-8
    beta1: float = 0.9
    beta2: float = 0.999
    k: float = 2.0

    def __post_init__(self):
        # each range check is negated so that NaN fails it
        if not self.h > 0:
            raise ValueError(f"learning rate must be positive, got {self.h}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"decay rate must lie in (0, 1), got {self.gamma}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not 0.0 < self.beta1 < 1.0 or not 0.0 < self.beta2 < 1.0:
            raise ValueError("Adam decay rates must lie in (0, 1)")
        if not self.k >= 0:
            raise ValueError(f"velocity exponent must be nonnegative, got {self.k}")


# Conventional division guards: the Adadelta family uses 1e-6, the rest 1e-8.
ADADELTA_EPS = 1e-6
DEFAULT_EPS = 1e-8

SSA1_ADA_VARIANTS = ("as-written", "z-first")


@dataclass
class AdaptiveState:
    """Parameters plus the running statistics of the adaptive optimizers.

    acc_grad_sq holds E[g^2], acc_update_sq holds E[delta^2], mom the Adam
    first moment, v and z the velocity and auxiliary point of the adaptive
    splitting step (z starts at theta).  Unused fields simply stay zero.
    """

    theta: np.ndarray
    acc_grad_sq: np.ndarray
    acc_update_sq: np.ndarray
    mom: np.ndarray
    v: np.ndarray
    z: np.ndarray
    n: int = 0

    @classmethod
    def fresh(cls, theta0: np.ndarray) -> "AdaptiveState":
        theta0 = np.asarray(theta0, dtype=float)
        zeros = np.zeros_like(theta0)
        return cls(
            theta=theta0.copy(),
            acc_grad_sq=zeros.copy(),
            acc_update_sq=zeros.copy(),
            mom=zeros.copy(),
            v=zeros.copy(),
            z=theta0.copy(),
            n=0,
        )


def _check_grad(state: AdaptiveState, grad: np.ndarray) -> np.ndarray:
    grad = np.asarray(grad, dtype=float)
    if grad.shape != state.theta.shape:
        raise ValueError(
            f"dimension mismatch: gradient has shape {grad.shape}, "
            f"expected {state.theta.shape}"
        )
    return grad


def adagrad_step(
    state: AdaptiveState, grad: np.ndarray, hp: AdaptiveHyperParams
) -> AdaptiveState:
    """Accumulated-squared-gradient step.

        G += g^2
        theta -= h * g / (sqrt(G) + eps)
    """
    grad = _check_grad(state, grad)
    acc = state.acc_grad_sq + grad**2
    theta = state.theta - hp.h * grad / (np.sqrt(acc) + hp.eps)
    return replace(state, theta=theta, acc_grad_sq=acc, n=state.n + 1)


def adadelta_step(
    state: AdaptiveState, grad: np.ndarray, hp: AdaptiveHyperParams
) -> AdaptiveState:
    """Running-average step with a unitless update ratio.

        E[g^2] <- gamma E[g^2] + (1-gamma) g^2
        delta   = -(sqrt(E[d^2] + eps) / sqrt(E[g^2] + eps)) * g
        E[d^2] <- gamma E[d^2] + (1-gamma) delta^2
        theta  += h * delta

    The numerator uses E[d^2] from the previous step; h defaults to 1.0
    in benchmark configurations.
    """
    grad = _check_grad(state, grad)
    acc_g = hp.gamma * state.acc_grad_sq + (1.0 - hp.gamma) * grad**2
    delta = -(np.sqrt(state.acc_update_sq + hp.eps) / np.sqrt(acc_g + hp.eps)) * grad
    acc_d = hp.gamma * state.acc_update_sq + (1.0 - hp.gamma) * delta**2
    theta = state.theta + hp.h * delta
    return replace(
        state, theta=theta, acc_grad_sq=acc_g, acc_update_sq=acc_d, n=state.n + 1
    )


def rmsprop_step(
    state: AdaptiveState, grad: np.ndarray, hp: AdaptiveHyperParams
) -> AdaptiveState:
    """Running-average step with a fixed-rate numerator.

        E[g^2] <- gamma E[g^2] + (1-gamma) g^2
        theta  -= h * g / sqrt(E[g^2] + eps)
    """
    grad = _check_grad(state, grad)
    acc_g = hp.gamma * state.acc_grad_sq + (1.0 - hp.gamma) * grad**2
    theta = state.theta - hp.h * grad / np.sqrt(acc_g + hp.eps)
    return replace(state, theta=theta, acc_grad_sq=acc_g, n=state.n + 1)


def adam_step(
    state: AdaptiveState, grad: np.ndarray, hp: AdaptiveHyperParams
) -> AdaptiveState:
    """Bias-corrected two-moment step.

        m <- beta1 m + (1-beta1) g        m_hat = m / (1 - beta1^t)
        s <- beta2 s + (1-beta2) g^2      s_hat = s / (1 - beta2^t)
        theta -= h * m_hat / (sqrt(s_hat) + eps)

    with t = n + 1 so the first correction divides by (1 - beta).
    """
    grad = _check_grad(state, grad)
    t = state.n + 1
    mom = hp.beta1 * state.mom + (1.0 - hp.beta1) * grad
    acc = hp.beta2 * state.acc_grad_sq + (1.0 - hp.beta2) * grad**2
    m_hat = mom / (1.0 - hp.beta1**t)
    s_hat = acc / (1.0 - hp.beta2**t)
    theta = state.theta - hp.h * m_hat / (np.sqrt(s_hat) + hp.eps)
    return replace(state, theta=theta, mom=mom, acc_grad_sq=acc, n=t)


def ssa1_ada_step(
    state: AdaptiveState,
    grad_fn: GradFn,
    hp: AdaptiveHyperParams,
    schedule: MomentumSchedule,
    variant: str = "as-written",
) -> AdaptiveState:
    """Adaptive splitting step: Adadelta-style step sizes inside ssa1.

    The per-component step size is

        h_n = h * RMS[dz]_prev / RMS[grad]_n

    where RMS[x] = sqrt(E[x^2] + eps) and RMS[dz]_prev comes from the
    accumulator before this step (sqrt(eps) initially).  The splitting
    update then runs with h_n in place of h:

        z_next     = theta + h * beta * v
        v_next     = beta^k * ((1 - h_n*beta) * v - h_n * grad(z_next))
        theta_next = theta + beta*(1 - h_n*beta)*(z_next - theta)
                     - h_n^2 * grad(z_next)

    variant="as-written" accumulates E[g^2] and E[dz^2] at the carried
    auxiliary point z (two gradient evaluations per step); variant
    "z-first" computes z_next first and uses grad(z_next) everywhere
    (one evaluation).
    """
    if variant not in SSA1_ADA_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    h, gamma, eps, k = hp.h, hp.gamma, hp.eps, hp.k
    beta = momentum_coefficient(state.n, schedule)

    z_next = state.theta + h * beta * state.v
    if variant == "as-written":
        grad_acc = np.asarray(grad_fn(state.z), dtype=float)
        _check_grad(state, grad_acc)
        grad_upd = np.asarray(grad_fn(z_next), dtype=float)
    else:
        grad_acc = np.asarray(grad_fn(z_next), dtype=float)
        grad_upd = grad_acc
    _check_grad(state, grad_upd)

    acc_g = gamma * state.acc_grad_sq + (1.0 - gamma) * grad_acc**2
    rms_grad = np.sqrt(acc_g + eps)
    rms_dz_prev = np.sqrt(state.acc_update_sq + eps)
    h_n = h * rms_dz_prev / rms_grad
    dz = -h_n * grad_acc
    acc_d = gamma * state.acc_update_sq + (1.0 - gamma) * dz**2

    v_next = beta**k * ((1.0 - h_n * beta) * state.v - h_n * grad_upd)
    theta_next = (
        state.theta
        + beta * (1.0 - h_n * beta) * (z_next - state.theta)
        - h_n**2 * grad_upd
    )
    return replace(
        state,
        theta=theta_next,
        acc_grad_sq=acc_g,
        acc_update_sq=acc_d,
        v=v_next,
        z=z_next,
        n=state.n + 1,
    )
