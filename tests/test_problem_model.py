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
from horizoncheck.problem_model import _probe_pair


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
    with pytest.raises(ValueError, match="unknown builtin problem 'lander'"):
        make_builtin_problem("lander", {})
    with pytest.raises(ValueError, match=r"ramsey: parameter theta=1 out of range \(need theta"):
        make_builtin_problem("ramsey", {"alpha": 0.4, "delta": 0.05, "theta": 1.0, "k0": 1.0})
    with pytest.raises(ValueError, match=r"ramsey: parameter alpha=1.4 out of range \(need alpha"):
        make_builtin_problem("ramsey", {"alpha": 1.4, "delta": 0.05, "theta": 0.5, "k0": 1.0})
    with pytest.raises(ValueError, match=r"ramsey: need the parameters .*'k0'.*, got"):
        make_builtin_problem("ramsey", {"alpha": 0.4, "delta": 0.05, "theta": 0.5})
    with pytest.raises(ValueError, match=r"integrator: parameter rho=-0.1 out of range \(need"):
        make_builtin_problem("integrator", {"rho": -0.1})
    with pytest.raises(ValueError,
                       match=r"oscillator: parameter b=0 out of range \(need b > 0\)"):
        make_builtin_problem("oscillator", {"b": 0.0})
    with pytest.raises(ValueError, match=r"oscillator: need the parameters \['b'\], got .*'freq"):
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


def test_array_calls_equal_point_calls():
    # the array contract: over leading shapes (k,) and (k, m), f, g,
    # hamiltonian and hamiltonian_jumps give, bit for bit, what one call per
    # point gives
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.sampled_from(_BUILTINS),
                      st.lists(st.integers(1, 4), min_size=1, max_size=2),
                      st.booleans(), st.integers(0, 2 ** 32 - 1))
    def check(builtin, lead, one_time, seed):
        name, params, (x_lo, x_hi) = builtin
        problem = make_builtin_problem(name, params)
        n, d, lead = problem.state_dim, problem.control_dim, tuple(lead)
        rng = np.random.default_rng(seed)
        controls = problem.control_set.sample_grid(5)
        x = rng.uniform(x_lo, x_hi, size=(*lead, n))
        u = rng.uniform(controls.min(axis=0), controls.max(axis=0), size=(*lead, d))
        t = float(rng.uniform(0.0, 50.0)) if one_time else rng.uniform(0.0, 50.0, size=lead)
        psi = rng.uniform(-5.0, 5.0, size=(*lead, n))
        rows = rng.uniform(-5.0, 5.0, size=(*lead, 3, n))
        lam, lams = float(rng.uniform(0.0, 2.0)), rng.uniform(0.0, 2.0, size=3)

        f, g = problem.dynamics(x, u, t), problem.payoff(x, u, t)
        assert f.shape == (*lead, n) and np.shape(g) == lead
        h, h_rows = hamiltonian(problem, x, u, t, psi, lam), hamiltonian(problem, x, u, t, rows, lams)
        jumps = hamiltonian_jumps(problem, x, u, t, controls, psi, lam)
        jumps_rows = hamiltonian_jumps(problem, x, u, t, controls, rows, lams)
        assert jumps_rows.shape == (*lead, 3, len(controls))
        for i in np.ndindex(lead):
            at = (x[i], u[i], t if one_time else float(t[i]))
            assert np.array_equal(problem.dynamics(*at), f[i])
            assert problem.payoff(*at) == g[i]
            assert hamiltonian(problem, *at, psi[i], lam) == h[i]
            assert np.array_equal(hamiltonian(problem, *at, rows[i], lams), h_rows[i])
            assert np.array_equal(hamiltonian_jumps(problem, *at, controls, psi[i], lam),
                                  jumps[i])
            assert np.array_equal(hamiltonian_jumps(problem, *at, controls, rows[i], lams),
                                  jumps_rows[i])

    check()


def _per_component_jacobians(problem, x, u, t):
    """Central differences with one f call and one g call per probe point."""
    n = problem.state_dim
    fx, gx = np.empty((n, n)), np.empty(n)
    for i in range(n):
        plus, minus, hi = _probe_pair(problem, x, i)
        fx[:, i] = (problem.dynamics(plus, u, t) - problem.dynamics(minus, u, t)) / (2 * hi)
        gx[i] = (problem.payoff(plus, u, t) - problem.payoff(minus, u, t)) / (2 * hi)
    return fx, gx


@pytest.mark.parametrize("name,params,box", _BUILTINS, ids=[b[0] for b in _BUILTINS])
def test_finite_difference_jacobians_equal_the_per_component_route(name, params, box):
    problem = make_builtin_problem(name, params)
    stripped = problem.__class__(**{**problem.__dict__,
                                    "dynamics_jac_x": None, "payoff_grad_x": None})
    rng = np.random.default_rng(5)
    grid = problem.control_set.sample_grid(5)
    points = [rng.uniform(*box) for _ in range(30)]
    if name == "ramsey":
        points.append(np.array([3e-7]))  # the probe step shrinks to stay in k > 0
    for x in points:
        u, t = grid[rng.integers(len(grid))], float(rng.uniform(0.0, 5.0))
        fx, gx = jacobians(stripped, x, u, t)
        fx_lone, gx_lone = _per_component_jacobians(stripped, x, u, t)
        assert np.array_equal(fx, fx_lone) and np.array_equal(gx, gx_lone)


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


def test_nonfinite_guard_names_the_first_non_finite_cell():
    ramsey = make_builtin_problem("ramsey",
                                  {"alpha": 0.4, "delta": 0.05, "theta": 3.0, "k0": 10.0})
    x, u, t = [[10.0], [20.0], [30.0]], [[1.0], [1e-200], [1e-200]], [0.0, 1.5, 2.5]
    with pytest.raises(ValueError, match=r"Hamiltonian at x=\[20\.\], u=\[1\.e-200\], t=1\.5$"):
        hamiltonian(ramsey, x, u, t, [[1.0], [1.0], [1.0]], 1.0)
    with pytest.raises(ValueError, match=r"jump at x=\[10\.\], u=\[1\.e-200\], u_hat=\[1\.\], t=0$"):
        hamiltonian_jumps(ramsey, x[:1], u[:1], t[:1], [[0.5], [1e-200]], [[1.0]], 1.0)


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

