"""Adaptive-learning-rate optimizers.

Adagrad, Adadelta, RMSProp, Adam, and the adaptive splitting optimizer
(ssa1_ada_step) that combines the first splitting scheme with Adadelta-style
running averages.  Accumulators are componentwise.  Every rule keeps the
optimizers module's contract, its field tuple checked before the oracle is
called: it calls the gradient oracle itself (at state.u, or ssa1_ada_step
at its own points) and returns a fresh state, or fills out=, which may be
the input state itself.
Each rule takes the base learning rate h and, as keywords, exactly the
hyper-parameters it reads: the running-average decay rate gamma (rho), the
division guard eps, Adam's moment decays beta1 and beta2, and ssa1_ada_step's
velocity-boost exponent k.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .optimizers import (
    GradFn, MomentumSchedule, State, _check_hyper, _checked_grad, _look_ahead, _output,
    _split_position, _split_velocity, momentum_coefficient,
)


# Conventional division guards: the Adadelta family uses 1e-6, the rest 1e-8.
ADADELTA_EPS = 1e-6
DEFAULT_EPS = 1e-8

SSA1_ADA_VARIANTS = ("as-written", "z-first")


def _running_average(acc, x, gamma: float, out, scratch) -> None:
    """Writes gamma * acc + (1 - gamma) * x^2 into out.  (1 - gamma) * x^2 is
    built first in scratch, which may be x's buffer; out may be acc's."""
    np.multiply(x, x, out=scratch)
    scratch *= 1.0 - gamma
    np.multiply(acc, gamma, out=out)
    out += scratch


ADAGRAD_FIELDS = ("u", "acc_grad_sq", "work", "work2")


def adagrad_step(
    state: State,
    grad_fn: GradFn,
    h: float,
    *,
    eps: float = DEFAULT_EPS,
    out: Optional[State] = None,
) -> State:
    """Accumulated-squared-gradient step; writes ADAGRAD_FIELDS.

        G += g^2
        u -= h * g / (sqrt(G) + eps)
    """
    _check_hyper(h, eps=eps)
    out = _output("adagrad_step", state, out, ADAGRAD_FIELDS)
    grad = _checked_grad(grad_fn(state.u), state.u)
    np.multiply(grad, grad, out=out.work)
    np.add(state.acc_grad_sq, out.work, out=out.acc_grad_sq)
    denom = np.sqrt(out.acc_grad_sq, out=out.work)
    denom += eps
    np.multiply(grad, h, out=out.work2)
    out.work2 /= denom
    np.subtract(state.u, out.work2, out=out.u)
    return out


ADADELTA_FIELDS = ("u", "acc_grad_sq", "acc_update_sq", "work", "work2")


def adadelta_step(
    state: State,
    grad_fn: GradFn,
    h: float,
    *,
    gamma: float = 0.9,
    eps: float = ADADELTA_EPS,
    out: Optional[State] = None,
) -> State:
    """Running-average step with a unitless update ratio; writes ADADELTA_FIELDS.

        E[g^2] <- gamma E[g^2] + (1-gamma) g^2
        delta   = -(sqrt(E[d^2] + eps) / sqrt(E[g^2] + eps)) * g
        E[d^2] <- gamma E[d^2] + (1-gamma) delta^2
        u      += h * delta

    The numerator uses E[d^2] from the previous step; h defaults to 1.0
    in benchmark configurations.  -delta is built in work: its sign enters
    E[d^2] only squared, and u - h * (-delta) has the bits of u + h * delta.
    """
    _check_hyper(h, gamma=gamma, eps=eps)
    out = _output("adadelta_step", state, out, ADADELTA_FIELDS)
    grad = _checked_grad(grad_fn(state.u), state.u)
    _running_average(state.acc_grad_sq, grad, gamma, out.acc_grad_sq, out.work)
    ratio = np.add(state.acc_update_sq, eps, out=out.work)
    np.sqrt(ratio, out=ratio)
    denom = np.add(out.acc_grad_sq, eps, out=out.work2)
    np.sqrt(denom, out=denom)
    ratio /= denom
    ratio *= grad  # -delta
    _running_average(state.acc_update_sq, ratio, gamma, out.acc_update_sq, out.work2)
    ratio *= h
    np.subtract(state.u, ratio, out=out.u)
    return out


RMSPROP_FIELDS = ("u", "acc_grad_sq", "work", "work2")


def rmsprop_step(
    state: State,
    grad_fn: GradFn,
    h: float,
    *,
    gamma: float = 0.9,
    eps: float = DEFAULT_EPS,
    out: Optional[State] = None,
) -> State:
    """Running-average step with a fixed-rate numerator; writes RMSPROP_FIELDS.

        E[g^2] <- gamma E[g^2] + (1-gamma) g^2
        u      -= h * g / sqrt(E[g^2] + eps)
    """
    _check_hyper(h, gamma=gamma, eps=eps)
    out = _output("rmsprop_step", state, out, RMSPROP_FIELDS)
    grad = _checked_grad(grad_fn(state.u), state.u)
    _running_average(state.acc_grad_sq, grad, gamma, out.acc_grad_sq, out.work)
    denom = np.add(out.acc_grad_sq, eps, out=out.work)
    np.sqrt(denom, out=denom)
    np.multiply(grad, h, out=out.work2)
    out.work2 /= denom
    np.subtract(state.u, out.work2, out=out.u)
    return out


ADAM_FIELDS = ("u", "mom", "acc_grad_sq", "work", "work2")


def adam_step(
    state: State,
    grad_fn: GradFn,
    h: float,
    *,
    eps: float = DEFAULT_EPS,
    beta1: float = 0.9,
    beta2: float = 0.999,
    out: Optional[State] = None,
) -> State:
    """Bias-corrected two-moment step; writes ADAM_FIELDS.

        m <- beta1 m + (1-beta1) g        m_hat = m / (1 - beta1^t)
        s <- beta2 s + (1-beta2) g^2      s_hat = s / (1 - beta2^t)
        u -= h * m_hat / (sqrt(s_hat) + eps)

    with t = n + 1 so the first correction divides by (1 - beta).
    """
    _check_hyper(h, eps=eps)
    if not 0.0 < beta1 < 1.0 or not 0.0 < beta2 < 1.0:
        raise ValueError("Adam decay rates must lie in (0, 1)")
    out = _output("adam_step", state, out, ADAM_FIELDS)
    grad = _checked_grad(grad_fn(state.u), state.u)
    t = out.n
    np.multiply(grad, 1.0 - beta1, out=out.work)
    np.multiply(state.mom, beta1, out=out.mom)
    out.mom += out.work
    _running_average(state.acc_grad_sq, grad, beta2, out.acc_grad_sq, out.work)
    denom = np.divide(out.acc_grad_sq, 1.0 - beta2**t, out=out.work)
    np.sqrt(denom, out=denom)
    denom += eps
    step = np.divide(out.mom, 1.0 - beta1**t, out=out.work2)
    step *= h
    step /= denom
    np.subtract(state.u, step, out=out.u)
    return out


SSA1_ADA_FIELDS = ("u", "acc_grad_sq", "acc_update_sq", "v", "z", "work", "work2", "work3")


def ssa1_ada_step(
    state: State,
    grad_fn: GradFn,
    h: float,
    schedule: MomentumSchedule,
    variant: str = "as-written",
    *,
    k: float = 2.0,
    gamma: float = 0.9,
    eps: float = ADADELTA_EPS,
    out: Optional[State] = None,
) -> State:
    """Adaptive splitting step: Adadelta-style step sizes inside ssa1.

    The per-component step size is

        h_n = h * RMS[dz]_prev / RMS[grad]_n

    where RMS[x] = sqrt(E[x^2] + eps) and RMS[dz]_prev comes from the
    accumulator before this step (sqrt(eps) initially).  The splitting
    update then runs with h_n in place of h:

        z_next = u + h * beta * v
        v_next = beta^k * ((1 - h_n*beta) * v - h_n * grad(z_next))
        u_next = u + beta*(1 - h_n*beta)*(z_next - u) - h_n^2 * grad(z_next)

    variant="as-written" accumulates E[g^2] and E[dz^2] at the carried
    auxiliary point z (two gradient evaluations per step); variant
    "z-first" computes z_next first and uses grad(z_next) everywhere
    (one evaluation).  Writes SSA1_ADA_FIELDS, h_n in work2.
    """
    _check_hyper(h, gamma=gamma, eps=eps, k=k)
    if variant not in SSA1_ADA_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {SSA1_ADA_VARIANTS}")
    beta = momentum_coefficient(state.n, schedule)
    unread = ("z",) if variant == "z-first" else ()
    out = _output("ssa1_ada_step", state, out, SSA1_ADA_FIELDS, unread)

    if variant == "as-written":
        grad_acc = _checked_grad(grad_fn(state.z), state.u)
    else:
        grad_acc = _look_ahead(state.u, state.v, grad_fn, h, beta, out.z)

    work = out.work
    _running_average(state.acc_grad_sq, grad_acc, gamma, out.acc_grad_sq, work)
    h_n = np.add(state.acc_update_sq, eps, out=out.work2)
    np.sqrt(h_n, out=h_n)
    h_n *= h
    np.add(out.acc_grad_sq, eps, out=work)
    np.sqrt(work, out=work)
    h_n /= work
    # -dz: its sign enters E[dz^2] only squared
    np.multiply(h_n, grad_acc, out=work)
    _running_average(state.acc_update_sq, work, gamma, out.acc_update_sq, work)

    # as-written is done with grad_acc, which may be z's buffer or the
    # oracle's gradient kept for it, before z_next is written there
    if variant == "as-written":
        grad_upd = _look_ahead(state.u, state.v, grad_fn, h, beta, out.z)
    else:
        grad_upd = grad_acc
    damp = np.multiply(h_n, beta, out=work)
    np.subtract(1.0, damp, out=damp)
    _split_velocity(state.v, grad_upd, h_n, damp, beta**k, out.v, out.work3)
    damp *= beta  # drift
    _split_position(state.u, out.z, grad_upd, h_n, damp, out.u, out.work3, h_n)
    return out
