"""Non-adaptive optimizer step rules.

Plain gradient descent, mini-batch SGD, Polyak's heavy-ball method,
Nesterov's accelerated gradient in its two-sequence and velocity forms,
and the two sequential-splitting optimizers (SSA1, SSA2) derived from the
constant-damping dynamical system  u'' + u' = -grad f(u).

Every step function is pure: it takes a state value and returns a new one,
evaluating the supplied gradient oracle exactly once.  All arithmetic is
64-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

GradFn = Callable[[np.ndarray], np.ndarray]

RATIO_N_OVER_N3 = "ratio-n-over-n-plus-3"
RATIO_NM1_OVER_N2 = "ratio-n-minus-1-over-n-plus-2"
CONSTANT = "constant"

_SCHEDULE_KINDS = (RATIO_N_OVER_N3, RATIO_NM1_OVER_N2, CONSTANT)

NESTEROV_FORMS = ("velocity", "two-sequence")


@dataclass(frozen=True)
class MomentumSchedule:
    """Rule producing the inertial coefficient beta_n.

    Kinds: n/(n+3), (n-1)/(n+2) (clamped to 0 at n=0), or a constant
    beta in [0, 1].  The ratio kinds increase monotonically toward 1.
    """

    kind: str
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in _SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        # the closed upper end admits the undamped limit beta = 1
        if self.kind == CONSTANT and not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"constant beta must lie in [0, 1], got {self.beta}")

    @classmethod
    def ratio_n_over_n_plus_3(cls) -> "MomentumSchedule":
        return cls(RATIO_N_OVER_N3)

    @classmethod
    def ratio_n_minus_1_over_n_plus_2(cls) -> "MomentumSchedule":
        return cls(RATIO_NM1_OVER_N2)

    @classmethod
    def constant(cls, beta: float) -> "MomentumSchedule":
        return cls(CONSTANT, beta)


def momentum_coefficient(n: int, schedule: MomentumSchedule) -> float:
    """Inertial coefficient beta_n for iteration n >= 0."""
    if n < 0:
        raise ValueError(f"iteration must be nonnegative, got {n}")
    if schedule.kind == RATIO_N_OVER_N3:
        return n / (n + 3)
    if schedule.kind == RATIO_NM1_OVER_N2:
        return max(0.0, (n - 1) / (n + 2))
    return schedule.beta


@dataclass(frozen=True)
class SplitHyperParams:
    """Step size and velocity-boost exponent for the splitting optimizers.

    The boost multiplies the velocity update by beta_n**k; k defaults
    to 2.0.  With k_schedule="exp-decay" the exponent becomes
    exp(-k/n) from n = 1 on (the base k is used at n = 0).
    """

    h: float
    k: float = 2.0
    k_schedule: str = "constant"

    def __post_init__(self):
        # each range check is negated so that NaN fails it
        if not self.h > 0:
            raise ValueError(f"step size must be positive, got {self.h}")
        if not self.k >= 0:
            raise ValueError(f"velocity exponent must be nonnegative, got {self.k}")
        if self.k_schedule not in ("constant", "exp-decay"):
            raise ValueError(f"unknown k_schedule {self.k_schedule!r}")

    def k_at(self, n: int) -> float:
        if self.k_schedule == "exp-decay" and n >= 1:
            return math.exp(-self.k / n)
        return self.k


@dataclass
class InertialState:
    """Iterate, velocity, and previous iterate of a momentum method.

    nesterov_step keeps its velocity and two-sequence representations in
    sync: after each of its steps, in either form, h * v = u - u_prev up to
    rounding.  The other rules do not: polyak_step leaves v as it was, and
    the splitting steps carry the boosted velocity of their own update.
    """

    u: np.ndarray
    v: np.ndarray
    n: int = 0
    u_prev: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.v is not None and np.shape(self.v) != np.shape(self.u):
            raise ValueError(
                f"velocity shape {np.shape(self.v)} != iterate shape {np.shape(self.u)}"
            )
        if self.u_prev is not None and np.shape(self.u_prev) != np.shape(self.u):
            raise ValueError(
                f"u_prev shape {np.shape(self.u_prev)} != iterate shape {np.shape(self.u)}"
            )
        if self.n < 0:
            raise ValueError(f"iteration counter must be nonnegative, got {self.n}")

    @classmethod
    def at_rest(cls, u0: np.ndarray, n: int = 0) -> "InertialState":
        """State with zero velocity and u_prev = u0."""
        u0 = np.asarray(u0, dtype=float)
        return cls(u=u0.copy(), v=np.zeros_like(u0), n=n, u_prev=u0.copy())


def _checked_grad(grad: np.ndarray, like: np.ndarray) -> np.ndarray:
    """grad as a float64 array, which must have the shape of like."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != np.shape(like):
        raise ValueError(
            f"dimension mismatch: gradient has shape {grad.shape}, "
            f"expected {np.shape(like)}"
        )
    return grad


def _look_ahead(u: np.ndarray, v: np.ndarray, grad_fn: GradFn, h: float, beta: float):
    """The look-ahead point y = u + h*beta*v and the checked gradient there."""
    y = u + h * beta * v
    return y, _checked_grad(grad_fn(y), u)


def _split_velocity(v, grad_y, h, beta: float, k: float):
    """Velocity update of the splitting schemes,
    beta^k * ((1 - h*beta) * v - h * grad(y)); h may be per-component."""
    return beta**k * ((1.0 - h * beta) * v - h * grad_y)


def _split_position(u, y, grad_y, h, beta: float):
    """Scaled-drift position update of the first splitting scheme,
    u + beta*(1 - h*beta)*(y - u) - h^2 * grad(y); h may be per-component."""
    return u + beta * (1.0 - h * beta) * (y - u) - h * h * grad_y


def gd_step(u: np.ndarray, grad: np.ndarray, h: float) -> np.ndarray:
    """One explicit-Euler gradient step u - h * grad, for h > 0."""
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    return minibatch_sgd_step(u, grad, h)


def minibatch_sgd_step(theta: np.ndarray, grad_batch: np.ndarray, h: float) -> np.ndarray:
    """SGD update with the gradient of the loss on the current mini-batch.

    gd_step runs this arithmetic; the contract differs in that grad_batch
    is a batch gradient rather than the full one, and h = 0 is permitted
    (a frozen run is a valid experiment).
    """
    theta = np.asarray(theta, dtype=float)
    grad_batch = _checked_grad(grad_batch, theta)
    if not h >= 0:
        raise ValueError(f"step size must be nonnegative, got {h}")
    return theta - h * grad_batch


def sun_stepsize(alpha_n: float, c: float, L: float) -> float:
    """Step size 2 * (1 - alpha_n) * c / L tied to the heavy-ball coefficient."""
    if not 0.0 <= alpha_n < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha_n}")
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must lie in (0, 1), got {c}")
    if L <= 0:
        raise ValueError(f"Lipschitz constant must be positive, got {L}")
    return 2.0 * (1.0 - alpha_n) * c / L


def polyak_step(
    state: InertialState,
    grad_at_u: np.ndarray,
    alpha_n: float,
    beta_n: float,
) -> InertialState:
    """Heavy-ball step with extrapolation alpha_n and step size beta_n.

        y = u + alpha_n * (u - u_prev)
        u_next = y - beta_n * grad_at_u

    The gradient is evaluated at u, not at y.  The constant-coefficient
    method is the special case alpha_n = gamma, beta_n = h.
    """
    if state.u_prev is None:
        raise ValueError("polyak_step requires u_prev to be populated")
    if not 0.0 <= alpha_n < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha_n}")
    if not beta_n > 0:
        raise ValueError(f"step size must be positive, got {beta_n}")
    grad_at_u = _checked_grad(grad_at_u, state.u)
    y = state.u + alpha_n * (state.u - state.u_prev)
    u_next = y - beta_n * grad_at_u
    return replace(state, u=u_next, u_prev=state.u.copy(), n=state.n + 1)


def nesterov_step(
    state: InertialState,
    grad_fn: GradFn,
    h: float,
    schedule: MomentumSchedule,
    form: str = "velocity",
) -> InertialState:
    """Accelerated-gradient step in the requested representation.

    velocity form:
        y = u + h * beta_n * v
        v_next = beta_n * v - h * grad(y)
        u_next = u + h * v_next

    two-sequence form (s = h^2):
        y = u + beta_n * (u - u_prev)
        u_next = y - h^2 * grad(y)

    With v_0 = (u_0 - u_{-1}) / h the two produce identical iterates.
    Both representations are updated regardless of form so states stay
    interchangeable.
    """
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    beta = momentum_coefficient(state.n, schedule)
    if form == "velocity":
        if state.v is None:
            raise ValueError("velocity form requires v to be populated")
        _, grad_y = _look_ahead(state.u, state.v, grad_fn, h, beta)
        v_next = beta * state.v - h * grad_y
        u_next = state.u + h * v_next
    elif form == "two-sequence":
        if state.u_prev is None:
            raise ValueError("two-sequence form requires u_prev to be populated")
        y = state.u + beta * (state.u - state.u_prev)
        grad_y = _checked_grad(grad_fn(y), state.u)
        u_next = y - h * h * grad_y
        v_next = (u_next - state.u) / h
    else:
        raise ValueError(f"unknown form {form!r}")
    return InertialState(u=u_next, v=v_next, n=state.n + 1, u_prev=state.u.copy())


def ssa1_step(
    state: InertialState,
    grad_fn: GradFn,
    hp: SplitHyperParams,
    schedule: MomentumSchedule,
    plain_drift: bool = False,
) -> InertialState:
    """First sequential-splitting step.

        y = u + h * beta * v
        v_next = beta^k * ((1 - h*beta) * v - h * grad(y))
        u_next = u + beta * (1 - h*beta) * (y - u) - h^2 * grad(y)

    With plain_drift=True the parameter update carries h*(1-h*beta)*v
    instead of the beta^2-scaled drift (a published pseudocode variant;
    the scaled form above is canonical here).
    """
    if state.v is None:
        raise ValueError("ssa1_step requires v to be populated")
    h = hp.h
    beta = momentum_coefficient(state.n, schedule)
    k = hp.k_at(state.n)
    y, grad_y = _look_ahead(state.u, state.v, grad_fn, h, beta)
    v_next = _split_velocity(state.v, grad_y, h, beta, k)
    if plain_drift:
        u_next = state.u + h * (1.0 - h * beta) * state.v - h * h * grad_y
    else:
        u_next = _split_position(state.u, y, grad_y, h, beta)
    return InertialState(u=u_next, v=v_next, n=state.n + 1, u_prev=state.u.copy())


def ssa2_step(
    state: InertialState,
    grad_fn: GradFn,
    hp: SplitHyperParams,
    schedule: MomentumSchedule,
) -> InertialState:
    """Second sequential-splitting step.

        y = u + h * beta * v
        v_next = beta^k * ((1 - h*beta) * v - h * grad(y))
        u_next = u + ((1 - h*beta) / beta) * (y - u)

    The parameter update is computed in the equivalent division-free form
    u + h * (1 - h*beta) * v, which is well defined at beta = 0.
    """
    if state.v is None:
        raise ValueError("ssa2_step requires v to be populated")
    h = hp.h
    beta = momentum_coefficient(state.n, schedule)
    k = hp.k_at(state.n)
    _, grad_y = _look_ahead(state.u, state.v, grad_fn, h, beta)
    v_next = _split_velocity(state.v, grad_y, h, beta, k)
    u_next = state.u + h * (1.0 - h * beta) * state.v
    return InertialState(u=u_next, v=v_next, n=state.n + 1, u_prev=state.u.copy())


# --- splitting sub-steps ----------------------------------------------------
#
# The two half-updates whose composition yields the first splitting scheme:
# a forward-Euler damping flow, then a symplectic-Euler gradient flow whose
# parameter update uses a gradient-perturbed velocity.  Exposed so the
# composition can be checked against ssa1_step directly.


def damping_substep(u: np.ndarray, v: np.ndarray, h: float, beta: float):
    """Forward Euler on (u' = 0, v' = -beta v): returns (u, (1 - h*beta) v)."""
    return u.copy(), (1.0 - h * beta) * v


def gradient_substep_perturbed(
    u_half: np.ndarray,
    v_half: np.ndarray,
    grad_y: np.ndarray,
    h: float,
    beta: float,
):
    """Symplectic Euler on (u' = beta^2 v, v' = -grad f) with perturbed velocity.

        v_next = v_half - h * grad_y
        v_hat  = v_next - h * (1/beta^2 - 1) * grad_y
        u_next = u_half + h * beta^2 * v_hat

    Requires beta > 0 (the perturbation divides by beta^2).
    """
    if beta <= 0:
        raise ValueError(f"perturbed substep requires beta > 0, got {beta}")
    v_next = v_half - h * grad_y
    v_hat = v_next - h * (1.0 / beta**2 - 1.0) * grad_y
    u_next = u_half + h * beta**2 * v_hat
    return u_next, v_next
