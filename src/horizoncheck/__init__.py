"""Numerical verification of necessary optimality conditions for
infinite-horizon optimal control problems.

The library checks candidate optimal controls against classical limit
(transversality) conditions, tail conditions on the Hamiltonian difference
built from finite-horizon payoff gradients, and empirical overtaking
comparisons, validated on three built-in problems with closed-form solutions.
"""

from .ode_engine import (
    Box,
    ControlSignal,
    ExitEvent,
    IntegrationError,
    IntegratorSettings,
    NonExtendibleError,
    Trajectory,
    integrate,
    integrate_controlled,
)
from .problem_model import (
    ControlProblem,
    ControlSet,
    hamiltonian,
    hamiltonian_jumps,
    jacobians,
)
from .variational import (
    CostatePath,
    JxRecord,
    TransitionOperator,
    integrate_adjoint,
    jx_scan,
    transition_matrix,
)
from .conditions import (
    ConditionVerdict,
    GeneralConditionReport,
    Verdict,
    check_classical,
    check_general,
    check_gmax,
    check_jx_bounded,
    check_max_principle,
    decompose_costate,
    dense_horizon_grid,
    limit_costate,
)
from .overtaking import (
    NeedleCheckReport,
    OvertakingReport,
    empirical_overtaking_test,
    needle_limit_check,
    payoff_value,
)
from .reference_examples import (
    IntegratorReference,
    OscillatorReference,
    RamseyParams,
    SteadyState,
    make_builtin_problem,
    oscillator_reference,
    ramsey_classify,
    ramsey_shoot,
    ramsey_steady_state,
)

__version__ = "0.1.0"
