"""Non-adaptive optimizer step rules.

Mini-batch SGD (gradient descent given the full gradient), Polyak's
heavy-ball method, Nesterov's accelerated gradient in velocity form, and
the two sequential-splitting optimizers (SSA1, SSA2) derived from the
constant-damping dynamical system  u'' + u' = -grad f(u).

Every rule is rule(state, grad_fn, h, [schedule, [variant]], *,
<the hyper-parameters it reads>): it advances state in place by one step,
calling the gradient oracle itself exactly once, and returns None.  The
state must hold every field of the rule's *_FIELDS tuple, scratch fields
included; each rule checks that, and the values it reads, before the
oracle is called.  Each rule reads every input value before it overwrites
it, and may hand the state's arrays between fields instead of copying.
All arithmetic is 64-bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

GradFn = Callable[[np.ndarray], np.ndarray]

RATIO_N_OVER_N3 = "ratio-n-over-n-plus-3"
RATIO_NM1_OVER_N2 = "ratio-n-minus-1-over-n-plus-2"
CONSTANT = "constant"

_SCHEDULE_KINDS = (RATIO_N_OVER_N3, RATIO_NM1_OVER_N2, CONSTANT)


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
        # a ratio kind takes no beta; a constant may reach the undamped limit 1
        top = 1.0 if self.kind == CONSTANT else 0.0
        if not 0.0 <= self.beta <= top:
            raise ValueError(f"{self.kind} beta must lie in [0, {top:g}], got {self.beta}")

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


def _check_hyper(h: float, *, gamma: Optional[float] = None, eps: Optional[float] = None,
                 k: Optional[float] = None) -> None:
    """Raises the ValueError of the first of the step size h, decay rate gamma,
    division guard eps and velocity exponent k that is out of range, skipping
    any not given.  Each check is negated so that NaN fails it."""
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    if gamma is not None and not 0.0 < gamma < 1.0:
        raise ValueError(f"decay rate must lie in (0, 1), got {gamma}")
    if eps is not None and not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if k is not None and not k >= 0:
        raise ValueError(f"velocity exponent must be nonnegative, got {k}")


@dataclass(eq=False)
class State:
    """Iterate u, step counter n, and the arrays a step rule declares in
    its *_FIELDS tuple, all written every step; the others stay None.

    v is a velocity, u_prev the previous iterate, acc_grad_sq E[g^2],
    acc_update_sq E[delta^2], mom Adam's first moment and z ssa1-ada's
    auxiliary point.  work, work2 and work3 are scratch buffers whose
    contents mean nothing between steps.  Each array must be a float64
    ndarray of u's shape sharing no memory with another, which the
    constructor checks once; a rule writes the arrays in place.
    """

    u: np.ndarray
    n: int = 0
    v: Optional[np.ndarray] = None
    u_prev: Optional[np.ndarray] = None
    acc_grad_sq: Optional[np.ndarray] = None
    acc_update_sq: Optional[np.ndarray] = None
    mom: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    work: Optional[np.ndarray] = None
    work2: Optional[np.ndarray] = None
    work3: Optional[np.ndarray] = None

    def __post_init__(self):
        shape = np.shape(self.u)
        held = {name: value for name, value in vars(self).items()
                if name != "n" and value is not None}
        for name, value in held.items():
            if not isinstance(value, np.ndarray) or value.dtype != np.float64:
                found = getattr(value, "dtype", type(value).__name__)
                raise ValueError(f"{name} must be a float64 ndarray, got {found}")
            if value.shape != shape:
                raise ValueError(f"{name} shape {value.shape} != iterate shape {shape}")
        for (name, value), (other, array) in itertools.combinations(held.items(), 2):
            if np.shares_memory(value, array):
                raise ValueError(f"{name} and {other} share memory")
        if self.n < 0:
            raise ValueError(f"iteration counter must be nonnegative, got {self.n}")

    @classmethod
    def start(cls, u0: np.ndarray, fields: Tuple[str, ...], n: int = 0) -> "State":
        """State at u0 holding exactly fields: u, u_prev and z at u0, the rest 0."""
        u0 = np.asarray(u0, dtype=float)
        return cls(n=n, **{name: u0.copy() if name in ("u", "u_prev", "z") else np.zeros_like(u0)
                           for name in fields})


def _checked_grad(grad: np.ndarray, like: np.ndarray) -> np.ndarray:
    """grad as a float64 array, which must have the shape of like."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != np.shape(like):
        raise ValueError(
            f"dimension mismatch: gradient has shape {grad.shape}, "
            f"expected {np.shape(like)}"
        )
    return grad


def _check_fields(rule: str, state: State, fields: Tuple[str, ...]) -> None:
    """Raises a ValueError naming rule and the first of fields that state lacks."""
    for name in fields:
        if getattr(state, name) is None:
            raise ValueError(f"{rule} advances {name}, which the state lacks")


def _look_ahead(u: np.ndarray, v: np.ndarray, grad_fn: GradFn, h: float, beta: float, out):
    """Writes the look-ahead point y = u + h*beta*v into out, which must be
    neither u nor v, and returns the checked gradient there, which may be
    out itself."""
    np.multiply(v, h * beta, out=out)
    out += u
    return _checked_grad(grad_fn(out), u)


def _split_velocity(v, grad_y, h, damp, boost: float, scratch):
    """Velocity update of the splitting schemes, in place in v:
    beta^k * ((1 - h*beta) * v - h * grad(y)), given damp = 1 - h*beta and
    boost = beta^k.  h and damp may be per-component.  scratch, which is
    written first, must hold none of the inputs."""
    np.multiply(grad_y, h, out=scratch)
    v *= damp
    v -= scratch
    v *= boost


def _split_position(u, y, grad_y, h, drift, t, s2):
    """Scaled-drift position update of the first splitting scheme, in place
    in u: u + beta*(1 - h*beta)*(y - u) - h^2 * grad(y), given
    drift = beta*(1 - h*beta).  h and drift may be per-component.  h^2 *
    grad(y) is built first in s2, which may be h's buffer; y - u is then
    built in t, which may be y's buffer."""
    h_sq = np.multiply(h, h, out=s2) if np.ndim(h) else h * h
    np.multiply(grad_y, h_sq, out=s2)
    np.subtract(y, u, out=t)
    t *= drift
    u += t
    u -= s2


SGD_FIELDS = ("u", "work")


def minibatch_sgd_step(state: State, grad_fn: GradFn, h: float) -> None:
    """SGD step u - h * grad(u) on SGD_FIELDS, h * grad(u) in work.

    With the full gradient as the oracle this is plain gradient descent.
    h = 0 is permitted (a frozen run is a valid experiment).
    """
    if not h >= 0:
        raise ValueError(f"step size must be nonnegative, got {h}")
    _check_fields("minibatch_sgd_step", state, SGD_FIELDS)
    grad = _checked_grad(grad_fn(state.u), state.u)
    np.multiply(grad, h, out=state.work)
    state.u -= state.work
    state.n += 1


POLYAK_FIELDS = ("u", "u_prev", "work")


def polyak_step(state: State, grad_fn: GradFn, h: float, schedule: MomentumSchedule) -> None:
    """Heavy-ball step with extrapolation alpha_n, the schedule's coefficient.

        y = u + alpha_n * (u - u_prev)
        u_next = y - h * grad(u)

    The gradient is evaluated at u, not at y, and alpha_n must lie in
    [0, 1).  Advances POLYAK_FIELDS, h * grad(u) in work; u and u_prev
    swap arrays each step.
    """
    alpha = momentum_coefficient(state.n, schedule)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    _check_hyper(h)
    _check_fields("polyak_step", state, POLYAK_FIELDS)
    grad = _checked_grad(grad_fn(state.u), state.u)
    np.multiply(grad, h, out=state.work)
    u_next = state.u_prev
    np.subtract(state.u, state.u_prev, out=u_next)
    u_next *= alpha
    u_next += state.u
    u_next -= state.work
    state.u, state.u_prev = u_next, state.u
    state.n += 1


NESTEROV_FIELDS = ("u", "v", "work")


def nesterov_step(state: State, grad_fn: GradFn, h: float, schedule: MomentumSchedule) -> None:
    """Accelerated-gradient step in velocity form; advances NESTEROV_FIELDS,
    the look-ahead y in work.

        y = u + h * beta_n * v
        v_next = beta_n * v - h * grad(y)
        u_next = u + h * v_next

    With v_0 = (u_0 - u_{-1}) / h its iterates are those of the two-sequence
    form y = u + beta_n * (u - u_prev), u_next = y - h^2 * grad(y).
    """
    _check_hyper(h)
    beta = momentum_coefficient(state.n, schedule)
    _check_fields("nesterov_step", state, NESTEROV_FIELDS)
    u, v, work = state.u, state.v, state.work
    # work is overwritten only after the last read of grad(y), which may be
    # y's buffer itself
    grad_y = _look_ahead(u, v, grad_fn, h, beta, work)
    v *= beta
    np.multiply(grad_y, h, out=work)
    v -= work
    np.multiply(v, h, out=work)
    u += work
    state.n += 1


SPLIT_FIELDS = ("u", "v", "work", "work2")


def ssa1_step(
    state: State,
    grad_fn: GradFn,
    h: float,
    schedule: MomentumSchedule,
    *,
    k: float = 2.0,
) -> None:
    """First sequential-splitting step; advances SPLIT_FIELDS, the look-ahead y in work.

        y = u + h * beta * v
        v_next = beta^k * ((1 - h*beta) * v - h * grad(y))
        u_next = u + beta * (1 - h*beta) * (y - u) - h^2 * grad(y)
    """
    _check_hyper(h, k=k)
    beta = momentum_coefficient(state.n, schedule)
    _check_fields("ssa1_step", state, SPLIT_FIELDS)
    grad_y = _look_ahead(state.u, state.v, grad_fn, h, beta, state.work)
    damp = 1.0 - h * beta
    _split_velocity(state.v, grad_y, h, damp, beta**k, state.work2)
    _split_position(state.u, state.work, grad_y, h, beta * damp, state.work, state.work2)
    state.n += 1


def ssa2_step(
    state: State,
    grad_fn: GradFn,
    h: float,
    schedule: MomentumSchedule,
    *,
    k: float = 2.0,
) -> None:
    """Second sequential-splitting step; advances SPLIT_FIELDS, y in work.

        y = u + h * beta * v
        v_next = beta^k * ((1 - h*beta) * v - h * grad(y))
        u_next = u + ((1 - h*beta) / beta) * (y - u)

    The parameter update is computed in the equivalent division-free form
    u + h * (1 - h*beta) * v, which is well defined at beta = 0; it reads v
    before the velocity update writes it.
    """
    _check_hyper(h, k=k)
    beta = momentum_coefficient(state.n, schedule)
    _check_fields("ssa2_step", state, SPLIT_FIELDS)
    grad_y = _look_ahead(state.u, state.v, grad_fn, h, beta, state.work)
    damp = 1.0 - h * beta
    np.multiply(state.v, h * damp, out=state.work2)
    state.u += state.work2
    _split_velocity(state.v, grad_y, h, damp, beta**k, state.work2)
    state.n += 1


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

    Requires a finite beta > 0 (the perturbation divides by beta^2).
    """
    if not 0 < beta < np.inf:  # negated so that NaN fails it
        raise ValueError(f"perturbed substep requires a finite beta > 0, got {beta}")
    v_next = v_half - h * grad_y
    v_hat = v_next - h * (1.0 / beta**2 - 1.0) * grad_y
    u_next = u_half + h * beta**2 * v_hat
    return u_next, v_next
