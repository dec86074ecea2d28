import dataclasses

import numpy as np
import pytest

from horizoncheck import (
    ControlSignal,
    IntegratorSettings,
    RamseyParams,
    check_jx_bounded,
    limit_costate,
    make_builtin_problem,
    transition_matrix,
)
from horizoncheck.reference_examples import (
    ramsey_feasible_candidate,
    ramsey_saddle_candidate,
)

from oracles import solve_state

# tight enough for the 1e-6 oracle comparisons, still fast on the built-ins
TIGHT = IntegratorSettings(rel_tol=1e-11, abs_tol=1e-13)
STANDARD = IntegratorSettings(rel_tol=1e-10, abs_tol=1e-12)
# for tests of the engine's behaviour rather than its accuracy
COARSE = IntegratorSettings(rel_tol=1e-8, abs_tol=1e-10)

FIG1 = dict(alpha=0.4, delta=0.05, theta=0.5, k0=10.0)


def counted(problem, calls: dict):
    """The problem with dynamics and payoff that count their calls in
    ``calls["f"]`` and ``calls["g"]``, both set to 0 here."""
    def count(key, fn):
        def wrapper(x, u, t):
            calls[key] += 1
            return fn(x, u, t)
        return wrapper

    calls.update(f=0, g=0)
    return dataclasses.replace(problem, dynamics=count("f", problem.dynamics),
                               payoff=count("g", problem.payoff))


def record_limits(records):
    """The (tau, psi_hat) of each gradient record, psi_hat its limit costate
    or None, as ``check`` hands them to ``decompose_costate``."""
    return [(rec.tau, limit_costate(rec, check_jx_bounded(rec))[0]) for rec in records]


@pytest.fixture(scope="session")
def u_one():
    return ControlSignal.constant([1.0])


@pytest.fixture(scope="session")
def oscillator():
    return make_builtin_problem("oscillator", {"b": 0.5})


@pytest.fixture(scope="session")
def integrator():
    return make_builtin_problem("integrator", {"rho": 0.1})


@pytest.fixture(scope="session")
def integrator_undiscounted():
    return make_builtin_problem("integrator", {"rho": 0.0})


@pytest.fixture(scope="session")
def osc_traj_30(oscillator, u_one):
    return solve_state(oscillator, u_one, 30.0, TIGHT)


@pytest.fixture(scope="session")
def osc_op_30(oscillator, u_one):
    return transition_matrix(oscillator, u_one, 30.0, settings=TIGHT)


@pytest.fixture(scope="session")
def osc_traj_400(oscillator, u_one):
    return solve_state(oscillator, u_one, 400.0, STANDARD)


@pytest.fixture(scope="session")
def osc_op_400(oscillator, u_one):
    return transition_matrix(oscillator, u_one, 400.0, settings=STANDARD)


@pytest.fixture(scope="session")
def int_traj_400(integrator, u_one):
    return solve_state(integrator, u_one, 400.0, STANDARD)


@pytest.fixture(scope="session")
def int_op_400(integrator, u_one):
    return transition_matrix(integrator, u_one, 400.0, settings=STANDARD)


@pytest.fixture(scope="session")
def ramsey_params():
    return RamseyParams(**FIG1)


@pytest.fixture(scope="session")
def ramsey_saddle(ramsey_params):
    """(c0_saddle, k trajectory to t=150, consumption signal)."""
    return ramsey_saddle_candidate(ramsey_params, 150.0, 2000.0)


@pytest.fixture(scope="session")
def ramsey_family(ramsey_params, ramsey_saddle):
    """Saddle plus four feasible sub-saddle candidates on [0, 150]."""
    c0_saddle, k_traj, control = ramsey_saddle
    family = [(k_traj, control)]
    for frac in (0.9, 0.75, 0.55, 0.35):
        family.append(ramsey_feasible_candidate(ramsey_params, frac * c0_saddle, 150.0))
    return c0_saddle, family
