"""Non-adaptive optimizer step rules.

Mini-batch SGD (gradient descent given the full gradient), Polyak's
heavy-ball method, Nesterov's accelerated gradient in its two-sequence and
velocity forms, and the two sequential-splitting optimizers (SSA1, SSA2)
derived from the constant-damping dynamical system  u'' + u' = -grad f(u).

Every rule is rule(state, grad_fn, h, [schedule, [form | variant]], *,
<the hyper-parameters it reads>, out=None): it returns the next state,
calling the gradient oracle itself exactly once.  Without out= the next
state is fresh and the input is left as it was.  Given out=, the rule writes
the next state into out's arrays instead: out may be the input state itself,
which then advances in place, or a state that shares no memory with it.
Each rule reads every input value before it overwrites it, and may hand
out's arrays between fields instead of copying.  Before the oracle is
called, each rule checks the values it reads and _output holds it to its
*_FIELDS tuple.  All arithmetic is 64-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

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
    contents mean nothing between steps.
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
        for name, value in vars(self).items():
            if name != "n" and value is not None and np.shape(value) != shape:
                raise ValueError(f"{name} shape {np.shape(value)} != iterate shape {shape}")
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


_FLOAT64 = np.dtype(np.float64)
SCRATCH_FIELDS = ("work", "work2", "work3")


def _output(rule: str, state: State, out: Optional[State], fields: Tuple[str, ...],
            unread: Tuple[str, ...] = ()) -> State:
    """out, or with out None fresh float64 buffers for exactly fields, with
    n = state.n + 1.  A ValueError naming rule and the field rejects a state
    lacking any of fields but the scratch ones and unread, or an out lacking
    any or holding one that is not a float64 ndarray of the iterate's shape.
    An out other than state itself must share no memory with state's arrays;
    a ValueError names the field of each that do."""
    shape = np.shape(state.u)
    for name in fields:
        if getattr(state, name) is None and name not in SCRATCH_FIELDS and name not in unread:
            raise ValueError(f"{rule} reads {name}, which the input state lacks")
        if out is not None:
            array = getattr(out, name)
            if array is None:
                raise ValueError(f"{rule} writes {name}, which out lacks")
            if not isinstance(array, np.ndarray) or array.dtype != _FLOAT64 or array.shape != shape:
                found = f"{getattr(array, 'dtype', type(array).__name__)} {np.shape(array)}"
                raise ValueError(f"{rule} writes {name} as float64 {shape}, but out's is {found}")
            if out is not state:
                for held, value in vars(state).items():
                    if isinstance(value, np.ndarray) and np.shares_memory(array, value):
                        raise ValueError(
                            f"{rule} writes {name} into memory of the input state's {held}"
                        )
    if out is None:
        out = State(**{name: np.empty(shape) for name in fields})
    out.n = state.n + 1
    return out


def _look_ahead(u: np.ndarray, v: np.ndarray, grad_fn: GradFn, h: float, beta: float, out):
    """Writes the look-ahead point y = u + h*beta*v into out, which must be
    neither u nor v, and returns the checked gradient there, which may be
    out itself."""
    np.multiply(v, h * beta, out=out)
    out += u
    return _checked_grad(grad_fn(out), u)


def _shift(state: State, out: State) -> None:
    """Makes the new iterate, which the caller wrote into out.u_prev, out's u
    and the input iterate out's u_prev, by swapping out's two arrays; the
    input iterate is copied only when out.u does not hold it already."""
    if out.u is not state.u:
        np.copyto(out.u, state.u)
    out.u, out.u_prev = out.u_prev, out.u


def _split_velocity(v, grad_y, h, damp, boost: float, out, scratch):
    """Velocity update of the splitting schemes, written into out:
    beta^k * ((1 - h*beta) * v - h * grad(y)), given damp = 1 - h*beta and
    boost = beta^k.  h and damp may be per-component.  out may be v's
    buffer; scratch, which is written first, must hold none of the inputs."""
    np.multiply(grad_y, h, out=scratch)
    np.multiply(v, damp, out=out)
    out -= scratch
    out *= boost


def _split_position(u, y, grad_y, h, drift, out, t, s2):
    """Scaled-drift position update of the first splitting scheme, written
    into out: u + beta*(1 - h*beta)*(y - u) - h^2 * grad(y), given
    drift = beta*(1 - h*beta).  h and drift may be per-component.  h^2 *
    grad(y) is built first in s2, which may be h's buffer; y - u is then
    built in t, which may be y's buffer, and out may be u's."""
    h_sq = np.multiply(h, h, out=s2) if np.ndim(h) else h * h
    np.multiply(grad_y, h_sq, out=s2)
    np.subtract(y, u, out=t)
    t *= drift
    np.add(u, t, out=out)
    out -= s2


SGD_FIELDS = ("u", "work")


def minibatch_sgd_step(
    state: State,
    grad_fn: GradFn,
    h: float,
    *,
    out: Optional[State] = None,
) -> State:
    """SGD step u - h * grad(u); writes SGD_FIELDS, h * grad(u) in work.

    With the full gradient as the oracle this is plain gradient descent.
    h = 0 is permitted (a frozen run is a valid experiment).
    """
    if not h >= 0:
        raise ValueError(f"step size must be nonnegative, got {h}")
    out = _output("minibatch_sgd_step", state, out, SGD_FIELDS)
    grad = _checked_grad(grad_fn(state.u), state.u)
    np.multiply(grad, h, out=out.work)
    np.subtract(state.u, out.work, out=out.u)
    return out


POLYAK_FIELDS = ("u", "u_prev", "work")


def polyak_step(
    state: State,
    grad_fn: GradFn,
    h: float,
    schedule: MomentumSchedule,
    *,
    out: Optional[State] = None,
) -> State:
    """Heavy-ball step with extrapolation alpha_n, the schedule's coefficient.

        y = u + alpha_n * (u - u_prev)
        u_next = y - h * grad(u)

    The gradient is evaluated at u, not at y, and alpha_n must lie in
    [0, 1).  Writes POLYAK_FIELDS, h * grad(u) in work; u and u_prev
    swap arrays each step.
    """
    alpha = momentum_coefficient(state.n, schedule)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    _check_hyper(h)
    out = _output("polyak_step", state, out, POLYAK_FIELDS)
    grad = _checked_grad(grad_fn(state.u), state.u)
    np.multiply(grad, h, out=out.work)
    u_next = out.u_prev
    np.subtract(state.u, state.u_prev, out=u_next)
    u_next *= alpha
    u_next += state.u
    u_next -= out.work
    _shift(state, out)
    return out


NESTEROV_FIELDS = ("u", "v", "u_prev")


def nesterov_step(
    state: State,
    grad_fn: GradFn,
    h: float,
    schedule: MomentumSchedule,
    form: str = "velocity",
    *,
    out: Optional[State] = None,
) -> State:
    """Accelerated-gradient step in the requested representation.

    velocity form:
        y = u + h * beta_n * v
        v_next = beta_n * v - h * grad(y)
        u_next = u + h * v_next

    two-sequence form (s = h^2):
        y = u + beta_n * (u - u_prev)
        u_next = y - h^2 * grad(y)

    With v_0 = (u_0 - u_{-1}) / h the two produce identical iterates.
    Both forms write NESTEROV_FIELDS and keep h * v = u - u_prev (to rounding);
    u and u_prev swap arrays each step.
    """
    _check_hyper(h)
    if form not in NESTEROV_FORMS:
        raise ValueError(f"unknown nesterov form {form!r}; choose from {NESTEROV_FORMS}")
    beta = momentum_coefficient(state.n, schedule)
    unread = ("u_prev",) if form == "velocity" else ("v",)
    out = _output("nesterov_step", state, out, NESTEROV_FIELDS, unread)
    # y and then u_next live in out.u_prev, which the form does not read or
    # reads before y is written; y is overwritten only after the last read
    # of grad(y), which may be y's buffer itself
    u_next = out.u_prev
    if form == "velocity":
        grad_y = _look_ahead(state.u, state.v, grad_fn, h, beta, u_next)
        np.multiply(state.v, beta, out=out.v)
        np.multiply(grad_y, h, out=u_next)
        out.v -= u_next
        np.multiply(out.v, h, out=u_next)
        u_next += state.u
    else:
        np.subtract(state.u, state.u_prev, out=u_next)
        u_next *= beta
        u_next += state.u
        grad_y = _checked_grad(grad_fn(u_next), state.u)
        np.multiply(grad_y, h * h, out=out.v)
        np.subtract(u_next, out.v, out=u_next)
        np.subtract(u_next, state.u, out=out.v)
        out.v /= h
    _shift(state, out)
    return out


SPLIT_FIELDS = ("u", "v", "work", "work2")


def ssa1_step(
    state: State,
    grad_fn: GradFn,
    h: float,
    schedule: MomentumSchedule,
    *,
    k: float = 2.0,
    out: Optional[State] = None,
) -> State:
    """First sequential-splitting step; writes SPLIT_FIELDS, the look-ahead y in work.

        y = u + h * beta * v
        v_next = beta^k * ((1 - h*beta) * v - h * grad(y))
        u_next = u + beta * (1 - h*beta) * (y - u) - h^2 * grad(y)
    """
    _check_hyper(h, k=k)
    beta = momentum_coefficient(state.n, schedule)
    out = _output("ssa1_step", state, out, SPLIT_FIELDS)
    grad_y = _look_ahead(state.u, state.v, grad_fn, h, beta, out.work)
    damp = 1.0 - h * beta
    _split_velocity(state.v, grad_y, h, damp, beta**k, out.v, out.work2)
    _split_position(state.u, out.work, grad_y, h, beta * damp, out.u, out.work, out.work2)
    return out


def ssa2_step(
    state: State,
    grad_fn: GradFn,
    h: float,
    schedule: MomentumSchedule,
    *,
    k: float = 2.0,
    out: Optional[State] = None,
) -> State:
    """Second sequential-splitting step; writes SPLIT_FIELDS, y in work.

        y = u + h * beta * v
        v_next = beta^k * ((1 - h*beta) * v - h * grad(y))
        u_next = u + ((1 - h*beta) / beta) * (y - u)

    The parameter update is computed in the equivalent division-free form
    u + h * (1 - h*beta) * v, which is well defined at beta = 0; it reads v
    before the velocity update writes it.
    """
    _check_hyper(h, k=k)
    beta = momentum_coefficient(state.n, schedule)
    out = _output("ssa2_step", state, out, SPLIT_FIELDS)
    grad_y = _look_ahead(state.u, state.v, grad_fn, h, beta, out.work)
    damp = 1.0 - h * beta
    np.multiply(state.v, h * damp, out=out.work2)
    np.add(state.u, out.work2, out=out.u)
    _split_velocity(state.v, grad_y, h, damp, beta**k, out.v, out.work2)
    return out


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
