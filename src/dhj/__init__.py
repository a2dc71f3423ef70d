"""Discrete Hamilton-Jacobi toolkit.

Variational integrators built from one-step Lagrangians and their right/left
Hamiltonian duals, two evolution schemes for generating-function slopes along
the discrete flow (value recursion and vector-field form), and the reduction
of optimal control problems to the discrete Hamiltonian setting, with a CLI
driving a scalar cubic benchmark.
"""

from .core import (
    ConvergenceError,
    NewtonConfig,
    NumericalError,
    PhasePoint,
    SingularJacobianError,
    as_grid,
    as_vec,
    dot,
    fd_gradient,
    fd_jacobian,
    iterate,
    newton_solve,
    norm_inf,
)
from .hj_flow import (
    Branch,
    BranchError,
    GeneratingSequence,
    ResidualCheckFailure,
    hj_residual,
    run_closed_form_flow,
    solve_generating_sequence,
)
from .hj_vf import (
    DegenerateGridError,
    SingularDenominatorError,
    closed_form_gamma_step,
    equivalence_check,
    eval_field,
    run_closed_form_vf,
    solve_gamma_generic,
    vf_residual,
)
from .mechanics import (
    DiscreteHamiltonian,
    DiscreteLagrangian,
    DiscreteTrajectory,
    Side,
    hamiltonian_from_lagrangian,
    left_right_relation_residual,
    run_trajectory,
    step_left,
    step_right,
    symplecticity_defect,
    verify_step,
)
from .optctrl import (
    MODEL_REGISTRY,
    ControlProblem,
    SignCriterion,
    discretize_right,
    eliminate_control,
    make_sakamoto1d,
    secondary_constraint,
)

__version__ = "0.1.0"
