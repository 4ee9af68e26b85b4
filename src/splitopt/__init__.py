"""Sequential-splitting momentum optimizers with their ODE machinery and
a desk-scale training benchmark."""

from .adaptive import (
    adagrad_step,
    adadelta_step,
    adam_step,
    rmsprop_step,
    ssa1_ada_step,
)
from .objectives import Objective, fd_gradient, quadratic, rosenbrock
from .optimizers import (
    MomentumSchedule,
    State,
    minibatch_sgd_step,
    momentum_coefficient,
    nesterov_step,
    polyak_step,
    ssa1_step,
    ssa2_step,
)
from .splitting import (
    LinearSplitSystem,
    SecondOrderSystem,
    integrate_second_order,
    lie_split_step,
    matrix_exp,
    splitting_defect,
)

__version__ = "0.1.0"
