import dataclasses
import math

import numpy as np
import pytest

from horizoncheck import (
    Box,
    ControlProblem,
    ControlSet,
    ControlSignal,
    IntegrationError,
    IntegratorReference,
    IntegratorSettings,
    Trajectory,
    check_jx_bounded,
    dense_horizon_grid,
    integrate,
    integrate_adjoint,
    jx_scan,
    limit_costate,
    needle_limit_check,
    oscillator_reference,
    payoff_value,
    transition_matrix,
)
from horizoncheck.problem_model import jacobians
from horizoncheck.variational import _augmented_rhs
from horizoncheck.conditions import Verdict

from conftest import STANDARD, TIGHT
import oracles
from oracles import (
    OscillatorOracle,
    adjoint_basis,
    basis_costate,
    check_assumption_uniform,
    dense_slope,
    fd_gradient,
    lemma1_residual,
    record_value_at,
    solve_state,
)


def test_transition_identity_and_semigroup(osc_op_30):
    rng = np.random.default_rng(5)
    assert np.array_equal(osc_op_30.evaluate(3.7, 3.7), np.eye(2))
    for _ in range(15):
        t, s, tau = np.sort(rng.uniform(0.0, 30.0, size=3))[::-1]
        lhs = osc_op_30.evaluate(t, s) @ osc_op_30.evaluate(s, tau)
        rhs = osc_op_30.evaluate(t, tau)
        assert np.max(np.abs(lhs - rhs)) < 1e-8
    assert np.max(np.abs(osc_op_30.fundamental(0.0) - np.eye(2))) < 1e-12


def test_transition_matches_rotation(oscillator, osc_traj_30, osc_op_30):
    ref = oscillator_reference(0.5)
    for t, tau in [(math.pi / 2, 0.0), (7.0, 2.5), (29.0, 13.0)]:
        K = osc_op_30.evaluate(t, tau)
        assert np.max(np.abs(K - ref.transition(t, tau))) < 1e-8


def _nonlinear_problem(n, analytic):
    """dx/dt = tanh(M x) + u cos(x), g = u |x|^2 + sin(x_0) on R^n; with
    analytic Jacobians, or with central differences when ``analytic`` is
    False."""
    M = np.arange(1.0, n * n + 1.0).reshape(n, n) / (n * n) - 0.3 * np.eye(n)

    def f(x, u, t):
        return np.tanh(x @ M.T) + u[..., :1] * np.cos(x)

    def g(x, u, t):
        return u[..., 0] * np.sum(x * x, axis=-1) + np.sin(x[..., 0])

    def fx(x, u, t):
        return (1.0 - np.tanh(M @ x) ** 2)[:, None] * M - u[0] * np.diag(np.sin(x))

    def gx(x, u, t):
        return 2.0 * u[0] * x + np.eye(n)[0] * math.cos(x[0])

    return ControlProblem(
        state_dim=n, control_dim=1, dynamics=f, payoff=g,
        dynamics_jac_x=fx if analytic else None, payoff_grad_x=gx if analytic else None,
        control_set=ControlSet.box([-1.0], [1.0]), state_domain=Box.unbounded(n),
        initial_state=np.zeros(n))


@pytest.mark.parametrize("analytic", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_augmented_rhs_equals_the_concatenated_blocks(n, analytic):
    # the right-hand side writes its three blocks into one vector; each must
    # equal its block of np.concatenate([f, (fx @ Y).ravel(), Y.T @ gx])
    problem = _nonlinear_problem(n, analytic)
    rhs = _augmented_rhs(problem)
    rng = np.random.default_rng(10 * n + analytic)
    for _ in range(50):
        z = rng.standard_normal(n + n * n + n) * 10.0 ** rng.integers(-3, 3)
        u, t = rng.uniform(-1.0, 1.0, 1), float(rng.uniform(0.0, 50.0))
        x, Y = z[:n], z[n:n + n * n].reshape(n, n)
        fx, gx = jacobians(problem, x, u, t)
        expected = np.concatenate([problem.dynamics(x, u, t), (fx @ Y).ravel(), Y.T @ gx])
        assert np.array_equal(rhs(z, u, t), expected)


def test_transition_trivial_cases(integrator, u_one, ramsey_params):
    op = transition_matrix(integrator, u_one, 20.0, settings=TIGHT)
    assert op.evaluate(17.0, 2.0)[0, 0] == pytest.approx(1.0, abs=1e-12)

    # stationary capital path: the scalar linearization vanishes at k*
    problem = dataclasses.replace(ramsey_params, k0=32.0).problem()
    c_star = ControlSignal.constant([2.4])
    op_k = transition_matrix(problem, c_star, 20.0, settings=TIGHT)
    assert op_k.evaluate(15.0, 1.0)[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_transition_trajectory_is_the_pass_state(oscillator, u_one):
    op = transition_matrix(oscillator, u_one, 100.0, settings=STANDARD)
    traj, aug = op.trajectory, op._aug
    assert traj.time_grid is aug.time_grid
    assert np.array_equal(traj.states, aug.states[:, :2])
    assert np.array_equal(traj.derivs, aug.derivs[:, :2])
    assert np.shares_memory(traj.states, aug.states)
    assert np.shares_memory(traj.derivs, aug.derivs)
    assert np.array_equal(traj.coeffs, aug.coeffs[:, :, :2])
    assert np.shares_memory(traj.coeffs, aug.coeffs)
    ts = np.linspace(0.0, 100.0, 20001)
    assert np.max(np.abs(traj(ts) - OscillatorOracle(0.5).state(ts))) <= 1e-8


def test_gradient_oracles(osc_op_30, u_one, integrator):
    rec = jx_scan(osc_op_30, [0.0], [0.0, math.pi, 2 * math.pi])[0]
    assert np.allclose(record_value_at(rec, math.pi), [-2.0, 0.0], atol=1e-8)
    assert np.array_equal(record_value_at(rec, 0.0), [0.0, 0.0])

    op = transition_matrix(integrator, u_one, 50.0, settings=TIGHT)
    assert op.gradient(0.0, 50.0)[0] == pytest.approx((1 - math.exp(-5)) / 0.1, abs=1e-8)


def test_one_pass_gradient_inside_a_step_matches_the_closed_form(integrator, u_one):
    # grad(1, 20) = (e^-0.1 - e^-2) / 0.1 for rho = 0.1.  Read off one pass
    # from t0 at tau = 1, inside a step: the dense output there must be as
    # accurate as the nodes (a cubic Hermite one erred by 1.7e-8)
    exact = (math.exp(-0.1) - math.exp(-2.0)) / 0.1
    op = transition_matrix(integrator, u_one, 20.0, settings=TIGHT)
    assert not np.any(op.trajectory.time_grid == 1.0)
    assert abs(op.gradient(1.0, 20.0)[0] - exact) <= 1e-10
    report = needle_limit_check(integrator, u_one, 1.0, [0.0], 20.0, [1e-1, 1e-2, 1e-3])
    assert abs(report.prediction + exact) <= 1e-10


def test_adjoint_reproduces_integrator_closed_form(integrator, u_one):
    # psi(t) = a0 + exp(-rho t)/rho from T = 100, read off the pass and
    # integrated backward by the oracle; dense (between-node) values are as
    # accurate as the nodes
    settings = IntegratorSettings(rel_tol=1e-11, abs_tol=1e-13)
    op = transition_matrix(integrator, u_one, 100.0, settings=settings)
    ref = IntegratorReference(0.1)
    psi_T = [float(ref.costate(0.7, 1.0, 100.0))]
    ts = np.linspace(0.0, 100.0, 300)
    for costate in (integrate_adjoint(op, 100.0, psi_T, 1.0),
                    basis_costate(adjoint_basis(integrator, op.trajectory, u_one, 100.0,
                                                settings), psi_T, 1.0)):
        err = np.max(np.abs(costate.psi(ts)[:, 0] - ref.costate(0.7, 1.0, ts)))
        assert err <= 1e-8


def test_adjoint_zero_terminal_matches_gradients(integrator, u_one):
    traj = solve_state(integrator, u_one, 50.0, TIGHT)
    costate = basis_costate(adjoint_basis(integrator, traj, u_one, 50.0, TIGHT), [0.0], 1.0)
    assert costate.psi(0.0)[0] == pytest.approx((1 - math.exp(-5)) / 0.1, abs=1e-8)
    op = transition_matrix(integrator, u_one, 50.0, settings=TIGHT)
    for tau in (0.0, 5.0, 20.0):
        assert costate.psi(tau)[0] == pytest.approx(op.gradient(tau, 50.0)[0], abs=1e-6)


def test_adjoint_oscillator_family_and_homogeneous(oscillator, osc_traj_30, osc_op_30, u_one):
    ref = oscillator_reference(0.5)
    ts = np.linspace(0.0, 20.0, 101)
    basis = adjoint_basis(oscillator, osc_traj_30, u_one, 20.0, TIGHT)
    for read in (lambda psi_T, lam: integrate_adjoint(osc_op_30, 20.0, psi_T, lam),
                 lambda psi_T, lam: basis_costate(basis, psi_T, lam)):
        costate = read(ref.costate(0.3, 0.0, 20.0), 1.0)
        assert np.max(np.abs(costate.psi(ts) - ref.costate(0.3, 0.0, ts))) < 1e-8

        flat = read([0.4, -0.6], 0.0)
        # lam = 0 keeps the rotation norm: |psi| is conserved
        norms = np.linalg.norm(flat.psi(ts), axis=1)
        assert np.max(np.abs(norms - math.hypot(0.4, 0.6))) < 1e-9


def _adjoint_in_reversed_time(problem, trajectory, control, T, y_T, slope, settings):
    """An adjoint solve written the other way: ``integrate`` run forward in
    reversed time s = -t from y_T at s = -T on dy/ds = slope(f_x, g_x, y),
    one call per segment between the switches of a piecewise-constant
    control.  Returns grid, states, slopes and dense coefficient rows, in s."""
    cuts = [c for c in control.breakpoints() if trajectory.t0 < c < T]
    nodes = [T, *cuts[::-1], trajectory.t0]
    pieces, y = [], np.asarray(y_T, dtype=float)
    for a, b in zip(nodes[:-1], nodes[1:]):
        def field(s, y, u=control.segment_piece(b, a)):
            return slope(*jacobians(problem, trajectory(-s), u, -s), y)

        pieces.append(integrate(field, -a, y, -b, settings))
        y = pieces[-1].states[-1]
    return [np.concatenate([getattr(p, name) for p in pieces])
            for name in ("time_grid", "states", "derivs", "coeffs")]


def _basis_slope(fx, gx, y):
    """[Phi* | r] f_x + [0 | g_x] on the flattened rows y of the basis."""
    rows = y.reshape(-1, fx.shape[0]) @ fx
    rows[-1] += gx
    return rows.ravel()


def _switched_adjoint_cases(oscillator, integrator):
    """(problem, pass, T, psi_T) cases and one control with switches inside the
    span and a pulse that ends at the terminal time T = 7: lam = 1 and 0,
    the integrator's time-dependent g_x, and a problem whose f_x = u/10 and
    g_x = u change at every switch, where the field is read under both
    controls at one time."""
    control = (ControlSignal.constant([1.0]).with_needle(4.0, 1.5, [-1.0])
               .with_needle(7.0, 0.5, [0.25]))
    switched = ControlProblem(
        state_dim=1, control_dim=1, dynamics=lambda x, u, t: 0.1 * u * x,
        payoff=lambda x, u, t: u[..., 0] * x[..., 0], control_set=ControlSet.box([-1.0], [1.0]),
        state_domain=Box.unbounded(1), initial_state=[1.0],
        dynamics_jac_x=lambda x, u, t: np.array([[0.1 * u[0]]]),
        payoff_grad_x=lambda x, u, t: np.array([u[0]]))
    cases = ((oscillator, 12.0, [-1.0, 0.2]), (oscillator, 7.0, [0.3, 0.5]),
             (integrator, 12.0, [0.4]), (switched, 12.0, [0.4]))
    return control, [(problem, transition_matrix(problem, control, 12.0, settings=STANDARD),
                      T, psi_T)
                     for problem, T, psi_T in cases]


def test_reversed_time_adjoint_equals_backward_integration_bit_for_bit(oscillator,
                                                                       integrator):
    # the basis [Phi* | r], solved under the reflected control, equals the
    # segment-by-segment reversed-time ``integrate`` of the (n + 1) x n
    # system on the switched cases
    control, cases = _switched_adjoint_cases(oscillator, integrator)
    for problem, op, T, _ in cases:
        traj = op.trajectory
        n = problem.state_dim
        basis = adjoint_basis(problem, traj, control, T, STANDARD)
        rows_T = np.vstack([np.eye(n), np.zeros(n)]).ravel()
        expected = _adjoint_in_reversed_time(problem, traj, control, T, rows_T,
                                             _basis_slope, STANDARD)
        got = basis.trajectory
        switches = np.count_nonzero(control.breakpoints() < T)
        assert np.count_nonzero(np.diff(got.time_grid) == 0.0) == switches
        for name, want in zip(("time_grid", "states", "derivs", "coeffs"), expected):
            assert np.array_equal(getattr(got, name), want), (problem.name, T, name)


def test_costates_read_off_the_basis_match_solo_backward_solves(oscillator, integrator):
    # psi = Phi psi_T + lam r is the solo adjoint solve up to the error of
    # the two step sequences: compared at the nodes of both, lam = 0 and 1,
    # relative to the largest |psi|; the worst case measured is 4.2e-10
    # (the integrator at lam = 1, between nodes)
    control, cases = _switched_adjoint_cases(oscillator, integrator)
    worst = 0.0
    for problem, op, T, psi_T in cases:
        traj = op.trajectory
        basis = adjoint_basis(problem, traj, control, T, STANDARD)
        for lam in (1.0, 0.0):
            costate = basis_costate(basis, psi_T, lam)
            solo = Trajectory(*_adjoint_in_reversed_time(
                problem, traj, control, T, psi_T,
                lambda fx, gx, y: fx.T @ y + lam * gx, STANDARD))
            # both grids are in s = -t
            times = -np.concatenate([solo.time_grid, costate.trajectory.time_grid])
            scale = max(1.0, np.max(np.abs(solo.states)))
            worst = max(worst, np.max(np.abs(costate.psi(times) - solo(-times))) / scale)
    assert worst <= 1e-9
    # a terminal time past the state path, or a psi_T of another dimension
    with pytest.raises(ValueError, match="terminal time outside"):
        adjoint_basis(problem, traj, control, 13.0, STANDARD)
    with pytest.raises(ValueError, match="basis dimension"):
        basis_costate(basis, [0.4, 0.2], 1.0)


def test_costates_read_off_the_pass_match_the_basis_oracle(oscillator, integrator):
    # psi(t) = Y(t)^-* (Y(T)* psi_T + lam (S(T) - S(t))) against the oracle's
    # backward solve, at the nodes of both and the midpoints of their steps,
    # lam = 0 and 1, relative to the largest |psi|; the worst case measured
    # is 6.0e-10 (the integrator at lam = 1)
    control, cases = _switched_adjoint_cases(oscillator, integrator)
    worst = 0.0
    for problem, op, T, psi_T in cases:
        basis = adjoint_basis(problem, op.trajectory, control, T, STANDARD)
        grid = np.concatenate([-basis.trajectory.time_grid,
                               op.trajectory.time_grid[op.trajectory.time_grid <= T]])
        times = np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])])
        for lam in (1.0, 0.0):
            read, solved = integrate_adjoint(op, T, psi_T, lam), basis_costate(basis, psi_T, lam)
            assert (read.t0, read.t_end) == (-solved.trajectory.t_end, -solved.trajectory.t0)
            scale = max(1.0, np.max(np.abs(solved.trajectory.states)))
            worst = max(worst, np.max(np.abs(read.psi(times) - solved.psi(times))) / scale)
    assert worst <= 1e-9


def test_pass_costate_rejects_a_terminal_time_or_costate_off_the_pass(osc_op_30):
    with pytest.raises(ValueError, match="terminal time outside"):
        integrate_adjoint(osc_op_30, 31.0, [0.4, 0.2], 1.0)
    with pytest.raises(ValueError, match="terminal time outside"):
        integrate_adjoint(osc_op_30, -1.0, [0.4, 0.2], 1.0)
    for psi_T in ([0.4], [0.4, 0.2, 0.1], [[0.4, 0.2]]):
        with pytest.raises(ValueError, match="state dimension"):
            integrate_adjoint(osc_op_30, 20.0, psi_T, 1.0)


def test_pulled_back_costate_equals_the_fundamental_product(osc_op_400, int_op_400):
    # K(t, t0)* psi(t) = Y(t)* psi(t) = c - lam S(t), read with no solve
    for op, psi_T in ((osc_op_400, [0.3, -1.2]), (int_op_400, [2.5])):
        ts = np.linspace(0.0, 400.0, 1001)
        for lam in (1.0, 0.0):
            costate = integrate_adjoint(op, 400.0, psi_T, lam)
            product = np.einsum("ikj,ik->ij", op.fundamental(ts), costate.psi(ts))
            assert np.max(np.abs(costate.pulled_back(ts) - product)) <= 1e-12


def _decaying_problem(a):
    """dx/dt = a x + u, g = x: Y(t) = e^{at}, grad(t, T) = (e^{a(T - t)} - 1)/a."""
    return ControlProblem(
        state_dim=1, control_dim=1, dynamics=lambda x, u, t: a * x + u,
        payoff=lambda x, u, t: x[..., 0].copy(), control_set=ControlSet.box([-1.0], [1.0]),
        state_domain=Box.unbounded(1), initial_state=[1.0],
        dynamics_jac_x=lambda x, u, t: np.array([[a]]),
        payoff_grad_x=lambda x, u, t: np.ones(1))


def test_propagator_refuses_an_anchor_where_y_has_decayed_into_noise(u_one):
    # on dx/dt = -10 x, Y(100) = e^-1000 underflows, and the pass's Y(100) is
    # integration noise of size abs_tol: K(t, 100) and grad(100, T) would
    # divide by it (or by zero), so both raise a ValueError naming tau, as
    # the costate guard does; an anchor where Y is resolved still reads
    # e^-10 (t - tau)
    op = transition_matrix(_decaying_problem(-10.0), u_one, 100.0, settings=STANDARD)
    for read in (lambda: op.evaluate(1.0, 100.0), lambda: op.gradient(100.0, 100.0),
                 lambda: op.gradient(100.0, np.array([100.0]))):
        with pytest.raises(ValueError, match="unresolved at tau=100"):
            read()
    assert op.evaluate(1.0, 0.5)[0, 0] == pytest.approx(math.exp(-5.0), rel=1e-6)
    assert op.gradient(0.5, 1.0)[0] == pytest.approx((math.exp(-5.0) - 1.0) / -10.0, rel=1e-6)


def test_pass_costate_reports_a_fundamental_matrix_without_relative_accuracy(u_one):
    # on dx/dt = -x + u the costate psi(t) = grad(t, T) = 1 - e^{-(T - t)}
    # divides by Y(t) = e^{-t}, which the pass resolves only to abs_tol:
    # past T ~ 14 (Y below 1e6 abs_tol) the read would err by about
    # 2.5e-13 / Y, so it raises instead
    op = transition_matrix(_decaying_problem(-1.0), u_one, 100.0, settings=STANDARD)
    for T in (30.0, 100.0):
        with pytest.raises(ValueError, match="costate unresolved"):
            integrate_adjoint(op, T, [0.0], 1.0)
    ts = np.linspace(0.0, 10.0, 201)
    costate = integrate_adjoint(op, 10.0, [0.0], 1.0)
    assert np.max(np.abs(costate.psi(ts)[:, 0] - (np.exp(-(10.0 - ts)) - 1.0) / -1.0)) <= 1e-8
    # slow decay and slow growth keep Y resolved over [0, 100]; relative to
    # max(1, |psi|), as psi reaches 2,948 at a = 0.05
    ts = np.linspace(0.0, 100.0, 501)
    for a in (-0.05, 0.05):
        op = transition_matrix(_decaying_problem(a), u_one, 100.0, settings=STANDARD)
        costate = integrate_adjoint(op, 100.0, [0.0], 1.0)
        exact = (np.exp(a * (100.0 - ts)) - 1.0) / a
        err = np.abs(costate.psi(ts)[:, 0] - exact) / np.maximum(1.0, np.abs(exact))
        assert np.max(err) <= 1e-8


def test_pass_costate_guard_never_fires_on_the_linear_built_ins(osc_op_400, int_op_400,
                                                                  integrator_undiscounted,
                                                                  u_one):
    # Y is a rotation on the oscillator (up to its integration error) and 1
    # on the integrator, far above the 1e6 abs_tol = 1e-6 that the guard needs
    undiscounted = transition_matrix(integrator_undiscounted, u_one, 400.0, settings=STANDARD)
    for op in (osc_op_400, int_op_400, undiscounted):
        assert np.allclose(op._smallest_singular, 1.0, atol=1e-8, rtol=0.0)
        integrate_adjoint(op, 400.0, np.zeros(op.trajectory.dim), 1.0)


def test_basis_reads_each_stage_time_once_under_a_closed_form_control(ramsey_params,
                                                                      ramsey_saddle,
                                                                      monkeypatch):
    # the FIG1 saddle control is a closed form up to t ~ 151.9, whose piece
    # hands over a new array at every call; keyed on the control's value,
    # the two c = 1 stages of an attempt share one read (keyed on the
    # array's identity, the second would read again at the time of the
    # first): one read at the start, eleven per attempt and three per
    # accepted step
    _, k_traj, control = ramsey_saddle
    jacobians_, calls = oracles.jacobians, []
    monkeypatch.setattr(oracles, "jacobians",
                        lambda *args: calls.append(args[3]) or jacobians_(*args))
    adjoint_basis(ramsey_params.problem(), k_traj, control, 150.0, STANDARD)
    assert all(a != b for a, b in zip(calls, calls[1:]))
    assert len(calls) == 551 == 1 + 11 * 44 + 3 * 22


def test_costate_ode_residual_at_midpoints(oscillator, osc_traj_30, u_one):
    settings = IntegratorSettings(rel_tol=1e-10, abs_tol=1e-12)
    costate = basis_costate(adjoint_basis(oscillator, osc_traj_30, u_one, 10.0, settings),
                            [0.2, -0.1], 1.0)
    # the basis runs in s = -t: its step midpoints are at -mids, and
    # d psi / dt there is minus the slope in s
    grid = costate.trajectory.time_grid
    mids = -0.5 * (grid[:-1] + grid[1:])
    lhs = -dense_slope(costate.trajectory, -mids)
    psi = costate.psi(mids)
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rhs = -(psi @ A) - np.array([0.0, 1.0])
    assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_lemma1_identity_all_examples(oscillator, osc_traj_30, u_one,
                                      integrator, ramsey_params, ramsey_saddle):
    cases = []
    T = 25.0
    cases.append((oscillator, osc_traj_30, u_one, [0.0, 3.0, 11.0]))
    traj_i = solve_state(integrator, u_one, 30.0, TIGHT)
    cases.append((integrator, traj_i, u_one, [0.0, 4.0, 12.0]))
    _, k_traj, control = ramsey_saddle
    cases.append((ramsey_params.problem(), k_traj, control, [0.0, 7.0, 18.0]))

    terminals = [lambda n: np.zeros(n), lambda n: 0.8 * np.ones(n),
                 lambda n: np.array([(-0.6) ** (i + 1) for i in range(n)])]
    for problem, traj, ctrl, taus in cases:
        op = transition_matrix(problem, ctrl, traj.t_end, settings=TIGHT)
        records = jx_scan(op, taus, [T])
        basis = adjoint_basis(problem, traj, ctrl, T, TIGHT)
        for lam in (0.0, 1.0):
            for term in terminals:
                costate = basis_costate(basis, term(problem.state_dim), lam)
                res = lemma1_residual(costate, records, T, op)
                assert res <= 1e-6, (problem.name, lam, res)


def test_lemma1_closed_form_oscillator_costate(oscillator, osc_traj_30, u_one):
    ref = oscillator_reference(0.5)
    T = 20.0
    op = transition_matrix(oscillator, u_one, 30.0, settings=TIGHT)
    records = jx_scan(op, [0.0, 2.0, 9.0], [T])
    costate = basis_costate(adjoint_basis(oscillator, osc_traj_30, u_one, T, TIGHT),
                            ref.costate(0.3, 0.0, T), 1.0)
    assert lemma1_residual(costate, records, T, op) <= 1e-6


def test_fd_gradient_matches_jx_on_linear_examples(oscillator, osc_traj_30, osc_op_30,
                                                   integrator, u_one):
    rng = np.random.default_rng(17)
    traj_i = solve_state(integrator, u_one, 30.0, TIGHT)
    op_i = transition_matrix(integrator, u_one, 30.0, settings=TIGHT)
    for problem, traj, op in ((oscillator, osc_traj_30, osc_op_30), (integrator, traj_i, op_i)):
        for _ in range(20):
            tau = rng.uniform(0.0, 8.0)
            T = tau + rng.uniform(0.5, 18.0)
            grad = fd_gradient(problem, u_one, tau, traj(tau), T, settings=TIGHT)
            assert np.max(np.abs(grad - op.gradient(tau, T))) <= 1e-5


def test_fd_gradient_trivial_and_oracle_values(oscillator, osc_traj_30, u_one,
                                               integrator):
    grad = fd_gradient(oscillator, u_one, 0.0, [0.0, 0.0], math.pi, settings=TIGHT)
    assert np.allclose(grad, [-2.0, 0.0], atol=1e-6)
    same = fd_gradient(oscillator, u_one, 2.0, [0.3, 0.1], 2.0, settings=TIGHT)
    assert np.array_equal(same, [0.0, 0.0])
    traj = solve_state(integrator, u_one, 50.0, TIGHT)
    g = fd_gradient(integrator, u_one, 0.0, [0.0], 50.0, settings=TIGHT)
    assert g[0] == pytest.approx(9.932620530, abs=1e-6)


def test_limit_costate_three_regimes(integrator, integrator_undiscounted,
                                     oscillator, u_one):
    op = transition_matrix(integrator, u_one, 250.0, settings=STANDARD)
    rec = jx_scan(op, [0.0], dense_horizon_grid(0.0, 250.0))[0]
    psi_hat, verdict = limit_costate(rec, check_jx_bounded(rec))
    assert verdict.status is Verdict.HOLDS
    assert psi_hat[0] == pytest.approx(10.0, abs=1e-4)

    op0 = transition_matrix(integrator_undiscounted, u_one, 250.0, settings=STANDARD)
    rec0 = jx_scan(op0, [0.0], dense_horizon_grid(0.0, 250.0))[0]
    psi0, verdict0 = limit_costate(rec0, check_jx_bounded(rec0))
    assert psi0 is None and verdict0.status is Verdict.FAILS
    assert "unbounded" in verdict0.note

    op_o = transition_matrix(oscillator, u_one, 250.0, settings=STANDARD)
    rec_o = jx_scan(op_o, [0.0], dense_horizon_grid(0.0, 250.0))[0]
    psi_o, verdict_o = limit_costate(rec_o, check_jx_bounded(rec_o))
    assert psi_o is None and verdict_o.status is Verdict.FAILS
    assert "non-convergent" in verdict_o.note


def test_payoff_value_and_quadrature(integrator, u_one):
    value = payoff_value(integrator, [u_one], 10.0)[0].states[-1, 1]
    expect = (1 - math.exp(-1.0) * (1 + 1.0)) / 0.01
    assert value == pytest.approx(expect, abs=1e-8)


def test_payoff_value_runs_forward_only(integrator, u_one):
    with pytest.raises(ValueError, match="forward"):
        payoff_value(integrator, [u_one], -5.0)


def test_assumption_uniform_linear_problems(oscillator, integrator, u_one):
    settings = IntegratorSettings(rel_tol=1e-12, abs_tol=1e-14)
    for problem in (oscillator, integrator):
        op = transition_matrix(problem, u_one, 30.0, settings=settings)
        dirs = [np.ones(problem.state_dim),
                np.array([0.3, -0.7])[: problem.state_dim]]
        verdict = check_assumption_uniform(problem, u_one, op, 1.0, dirs,
                                           [1.0, 0.5], np.linspace(1.0, 30.0, 40),
                                           settings)
        assert verdict.status is Verdict.HOLDS
        # one call per (alpha, zeta): each estimate is that pair's infimum
        for alpha in (1.0, 0.5):
            for zeta in dirs:
                alone = check_assumption_uniform(problem, u_one, op, 1.0, [zeta], [alpha],
                                                 np.linspace(1.0, 30.0, 40), settings)
                assert alone.status is Verdict.HOLDS
                assert abs(alone.estimate) <= 1e-8


def test_assumption_uniform_ramsey_saddle(ramsey_params, ramsey_saddle):
    _, k_traj, control = ramsey_saddle
    problem = ramsey_params.problem()
    op = transition_matrix(problem, control, k_traj.t_end, settings=TIGHT)
    verdict = check_assumption_uniform(problem, control, op,
                                       5.0, [[1.0]], [1e-2, 1e-3, 1e-4],
                                       np.linspace(5.0, 80.0, 40), TIGHT)
    assert verdict.status is Verdict.HOLDS


def test_assumption_uniform_fails_a_violation_that_stays_flat(u_one):
    # x' = 0 with payoff -|x| from x = 0: grad = 0, so q = -(T - tau) |zeta|
    # at every alpha, a violation that shrinking alpha does not move
    problem = ControlProblem(
        state_dim=1, control_dim=1, dynamics=lambda x, u, t: np.zeros(x.shape),
        payoff=lambda x, u, t: -np.abs(x[..., 0]), control_set=ControlSet.box([0.0], [1.0]),
        state_domain=Box.unbounded(1), initial_state=[0.0],
        dynamics_jac_x=lambda x, u, t: np.zeros((1, 1)),
        payoff_grad_x=lambda x, u, t: -np.sign(x))
    op = transition_matrix(problem, u_one, 10.0, settings=TIGHT)
    verdict = check_assumption_uniform(problem, u_one, op, 1.0, [[1.0], [-0.5]],
                                       [1e-1, 1e-2, 1e-3], np.linspace(1.0, 10.0, 10), TIGHT)
    assert verdict.status is Verdict.FAILS
    assert verdict.estimate == pytest.approx(-9.0, abs=1e-8)


def test_assumption_infeasible_perturbation_reported(ramsey_params, ramsey_saddle):
    _, k_traj, control = ramsey_saddle
    problem = ramsey_params.problem()
    op = transition_matrix(problem, control, k_traj.t_end, settings=TIGHT)
    with pytest.raises(ValueError):
        check_assumption_uniform(problem, control, op, 1.0, [[-1.0]],
                                 [20.0], np.linspace(1.0, 50.0, 10), TIGHT)


def test_payoff_overflow_is_integration_error_not_domain_exit():
    # the payoff integral of e^t overflows near t = 709.8; on an unbounded
    # domain that is numerical breakdown, not a trajectory leaving the domain
    problem = ControlProblem(
        state_dim=1, control_dim=1,
        dynamics=lambda x, u, t: np.zeros(x.shape),
        payoff=lambda x, u, t: np.full(x.shape[:-1], np.exp(t)),
        control_set=ControlSet.box([0.0], [1.0]),
        state_domain=Box.unbounded(1), initial_state=[0.0])
    with pytest.raises(IntegrationError):
        payoff_value(problem, [ControlSignal.constant([0.0])], 800.0)
