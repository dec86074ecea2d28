import math

import numpy as np
import pytest

from horizoncheck import (
    ControlSet,
    hamiltonian,
    hamiltonian_jumps,
    jacobians,
    make_builtin_problem,
)


@pytest.mark.parametrize("name,params", [
    ("ramsey", {"alpha": 0.4, "delta": 0.05, "theta": 0.5, "k0": 10.0}),
    ("integrator", {"rho": 0.1}),
    ("oscillator", {"b": 0.5}),
])
def test_builtins_construct(name, params):
    problem = make_builtin_problem(name, params)
    assert problem.name == name
    x, u, t = problem.initial_state, problem.control_set.sample_grid(3)[0], 0.0
    assert np.all(np.isfinite(problem.dynamics(x, u, t)))


def test_unknown_name_and_bad_params_rejected():
    with pytest.raises(ValueError):
        make_builtin_problem("lander", {})
    with pytest.raises(ValueError):
        make_builtin_problem("ramsey", {"alpha": 0.4, "delta": 0.05, "theta": 1.0, "k0": 1.0})
    with pytest.raises(ValueError):
        make_builtin_problem("ramsey", {"alpha": 1.4, "delta": 0.05, "theta": 0.5, "k0": 1.0})
    with pytest.raises(ValueError):
        make_builtin_problem("ramsey", {"alpha": 0.4, "delta": 0.05, "theta": 0.5})
    with pytest.raises(ValueError):
        make_builtin_problem("integrator", {"rho": -0.1})
    with pytest.raises(ValueError):
        make_builtin_problem("oscillator", {"b": 0.0})
    with pytest.raises(ValueError):
        make_builtin_problem("oscillator", {"b": 0.5, "frequency": 2.0})


def test_jacobian_examples():
    osc = make_builtin_problem("oscillator", {"b": 0.5})
    fx, gx = jacobians(osc, [0.3, -0.2], [1.0], 1.7)
    assert np.array_equal(fx, [[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(gx, [0.0, 1.0])

    integ = make_builtin_problem("integrator", {"rho": 0.1})
    fx, gx = jacobians(integ, [2.0], [1.0], 3.0)
    assert fx[0, 0] == 0.0
    assert gx[0] == pytest.approx(math.exp(-0.3), rel=1e-12)

    ramsey = make_builtin_problem("ramsey",
                                  {"alpha": 0.4, "delta": 0.05, "theta": 0.5, "k0": 10.0})
    fx, _ = jacobians(ramsey, [32.0], [2.4], 0.0)
    assert fx[0, 0] == pytest.approx(0.0, abs=1e-15)  # 0.4 * 32**-0.6 = 0.05


@pytest.mark.parametrize("name,params", [
    ("ramsey", {"alpha": 0.4, "delta": 0.05, "theta": 1.5, "k0": 10.0}),
    ("integrator", {"rho": 0.25}),
    ("oscillator", {"b": 1.2}),
])
def test_analytic_jacobians_match_finite_differences(name, params):
    problem = make_builtin_problem(name, params)
    stripped = problem.__class__(**{**problem.__dict__,
                                    "dynamics_jac_x": None, "payoff_grad_x": None})
    rng = np.random.default_rng(42)
    grid = problem.control_set.sample_grid(5)
    for _ in range(100):
        if name == "ramsey":
            x = np.array([rng.uniform(0.5, 60.0)])
        else:
            x = rng.uniform(-3.0, 3.0, size=problem.state_dim)
        u = grid[rng.integers(len(grid))]
        t = rng.uniform(0.0, 5.0)
        fx_a, gx_a = jacobians(problem, x, u, t)
        fx_n, gx_n = jacobians(stripped, x, u, t)
        scale_f = np.maximum(1.0, np.abs(fx_a))
        scale_g = np.maximum(1.0, np.abs(gx_a))
        assert np.max(np.abs(fx_a - fx_n) / scale_f) <= 1e-6
        assert np.max(np.abs(gx_a - gx_n) / scale_g) <= 1e-6


def test_hamiltonian_values():
    osc = make_builtin_problem("oscillator", {"b": 0.5})
    assert hamiltonian(osc, [0.0, 0.0], [1.0], 0.0, [0.0, 1.0], 1.0) == pytest.approx(1.5)
    assert hamiltonian(osc, [0.7, -0.3], [0.2], 1.0, [0.0, 0.0], 0.0) == 0.0
    integ = make_builtin_problem("integrator", {"rho": 0.0})
    assert hamiltonian(integ, [2.0], [1.0], 9.0, [3.0], 1.0) == pytest.approx(5.0)


def test_hamiltonian_affine_in_multipliers():
    osc = make_builtin_problem("oscillator", {"b": 0.8})
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.uniform(-2, 2, size=2)
        u = rng.uniform(-1, 1, size=1)
        t = rng.uniform(0, 10)
        psi1, psi2 = rng.uniform(-3, 3, size=2), rng.uniform(-3, 3, size=2)
        lam1, lam2 = rng.uniform(0, 2), rng.uniform(0, 2)
        a = rng.uniform(-2, 2)
        lhs = hamiltonian(osc, x, u, t, a * psi1 + psi2, a * lam1 + lam2)
        rhs = a * hamiltonian(osc, x, u, t, psi1, lam1) + hamiltonian(osc, x, u, t, psi2, lam2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_hamiltonian_nonfinite_raises():
    ramsey = make_builtin_problem("ramsey",
                                  {"alpha": 0.4, "delta": 0.05, "theta": 3.0, "k0": 10.0})
    with pytest.raises(ValueError):
        hamiltonian(ramsey, [10.0], [1e-200], 0.0, [1.0], 1.0)


# (name, params, state box) of the built-in problems
_BUILTINS = [
    ("ramsey", {"alpha": 0.4, "delta": 0.05, "theta": 0.5, "k0": 10.0}, ([0.5], [60.0])),
    ("integrator", {"rho": 0.1}, ([-10.0], [10.0])),
    ("oscillator", {"b": 0.5}, ([-5.0, -5.0], [5.0, 5.0])),
]


def test_hamiltonian_jumps_match_per_cell_hamiltonian():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.sampled_from(_BUILTINS), st.data())
    def check(builtin, data):
        name, params, (x_lo, x_hi) = builtin
        problem = make_builtin_problem(name, params)
        unit = st.floats(0.0, 1.0)
        x = np.array([lo + data.draw(unit) * (hi - lo) for lo, hi in zip(x_lo, x_hi)])
        t = data.draw(st.floats(0.0, 50.0))
        lam = data.draw(st.floats(0.0, 2.0))
        grid = problem.control_set.sample_grid(data.draw(st.integers(2, 9)))
        u_hat = grid[data.draw(st.integers(0, len(grid) - 1))]
        psi = np.array(data.draw(st.lists(
            st.lists(st.floats(-5.0, 5.0), min_size=problem.state_dim,
                     max_size=problem.state_dim), min_size=1, max_size=4)))

        jumps = hamiltonian_jumps(problem, x, u_hat, t, grid, psi, lam)
        assert jumps.shape == (len(psi), len(grid))
        for k, row in enumerate(psi):
            h_hat = hamiltonian(problem, x, u_hat, t, row, lam)
            for j, u in enumerate(grid):
                h = hamiltonian(problem, x, u, t, row, lam)
                assert jumps[k, j] == pytest.approx(h - h_hat, rel=1e-12,
                                                    abs=1e-12 * (1.0 + abs(h_hat)))
        # one multiplier vector gives one row; the candidate's own control, none
        np.testing.assert_array_equal(
            hamiltonian_jumps(problem, x, u_hat, t, grid, psi[0], lam), jumps[0])
        assert np.all(jumps[:, np.all(grid == u_hat, axis=1)] == 0.0)

    check()


def test_hamiltonian_jumps_nonfinite_raises():
    ramsey = make_builtin_problem("ramsey",
                                  {"alpha": 0.4, "delta": 0.05, "theta": 3.0, "k0": 10.0})
    # c**(1 - theta) overflows at c = 1e-200
    with pytest.raises(ValueError, match="non-finite"):
        hamiltonian_jumps(ramsey, [10.0], [1.0], 0.0, [[0.5], [1e-200]], [1.0], 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        hamiltonian_jumps(ramsey, [10.0], [1e-200], 0.0, [[0.5]], [[1.0], [2.0]], 1.0)
    assert np.all(np.isfinite(
        hamiltonian_jumps(ramsey, [10.0], [1.0], 0.0, [[0.5], [2.0]], [1.0], 1.0)))


def test_builtin_determinism():
    a = make_builtin_problem("ramsey", {"alpha": 0.4, "delta": 0.05, "theta": 0.5, "k0": 10.0})
    b = make_builtin_problem("ramsey", {"alpha": 0.4, "delta": 0.05, "theta": 0.5, "k0": 10.0})
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = np.array([rng.uniform(0.5, 60)])
        u = np.array([rng.uniform(0.1, 5)])
        t = rng.uniform(0, 10)
        assert a.dynamics(x, u, t) == b.dynamics(x, u, t)
        assert a.payoff(x, u, t) == b.payoff(x, u, t)


def test_control_set_grids():
    box = ControlSet.box([-1.0, 0.0], [1.0, 2.0])
    grid = box.sample_grid(5)
    assert grid.shape == (25, 2)
    for vertex in ([-1, 0], [-1, 2], [1, 0], [1, 2]):
        assert np.any(np.all(grid == vertex, axis=1))
    with pytest.raises(ValueError):
        ControlSet.box([1.0], [0.0])


def test_open_lower_bound_never_sampled_at_zero():
    ramsey = make_builtin_problem("ramsey",
                                  {"alpha": 0.4, "delta": 0.05, "theta": 0.5, "k0": 10.0})
    grid = ramsey.control_set.sample_grid(33)
    assert np.all(grid > 0.0)
    assert ramsey.control_set.contains([grid.max()])
    assert not ramsey.control_set.contains([0.0])

