import dataclasses
import math

import numpy as np
import pytest

from horizoncheck import (
    Box,
    ControlSignal,
    IntegrationError,
    IntegratorSettings,
    Trajectory,
    integrate,
    integrate_controlled,
    make_builtin_problem,
    transition_matrix,
)
from horizoncheck import ode_engine
from horizoncheck.cli import _CHECK_SETTINGS
from horizoncheck.ode_engine import _dense_on_step, _error_norm
from horizoncheck.reference_examples import (
    RamseyParams,
    _classify_stops,
    _euler_rates,
    ramsey_euler_orbit,
    ramsey_shoot,
    ramsey_steady_state,
)

from conftest import COARSE, FIG1, STANDARD, TIGHT
import oracles
from oracles import adjoint_basis, basis_costate, dense_slope, reflected_signal, solve_state


def test_zero_field_stays_constant():
    v = np.array([2.0, -3.0, 0.5])
    traj = integrate(lambda t, y: np.zeros(3), 0.0, v, 7.0, COARSE)
    assert np.array_equal(traj.states[-1], v)
    assert np.array_equal(traj(3.1), v)


def test_exponential_growth_matches_closed_form():
    settings = IntegratorSettings(rel_tol=1e-10, abs_tol=1e-12)
    traj = integrate(lambda t, y: y, 0.0, [1.0], 1.0, settings)
    assert traj.states[-1, 0] == pytest.approx(math.e, rel=1e-9)


def test_ramsey_steady_field_is_stationary():
    # dk/dt = k**0.4 - 0.05 k - 2.4 vanishes at k = 32 (32**0.4 = 4)
    field = lambda t, y: np.array([y[0] ** 0.4 - 0.05 * y[0] - 2.4])
    traj = integrate(field, 0.0, [32.0], 50.0, TIGHT)
    assert traj.states[-1, 0] == pytest.approx(32.0, abs=1e-8)


def test_integrate_runs_forward_only():
    # an end before t0 is refused before the field is called
    calls = []
    with pytest.raises(ValueError, match="forward"):
        integrate(lambda t, y: calls.append(t) or -y, 5.0, [1.0], 0.0, COARSE)
    assert calls == []


def test_interpolant_exact_at_nodes_and_order():
    # y = exp(1 - cos t) solves y' = sin(t) y; the nodes carry exact states
    # and slopes, so only the interpolant contributes to the error
    def midpoint_error(h):
        grid = np.linspace(0.0, 6.0, round(6.0 / h) + 1)
        y = np.exp(1.0 - np.cos(grid))
        traj = Trajectory(grid, y[:, None], (np.sin(grid) * y)[:, None],
                          np.zeros((grid.size, 4, 1)))
        k = len(traj.time_grid) // 2
        assert np.array_equal(traj(traj.time_grid[k]), traj.states[k])
        mids = 0.5 * (grid[:-1] + grid[1:])
        return np.max(np.abs(traj(mids)[:, 0] - np.exp(1.0 - np.cos(mids))))

    # with zero coefficient rows the dense output is the cubic Hermite, 4th order between
    # nodes: halving the step cuts the midpoint error ~16x
    e1, e2 = midpoint_error(0.1), midpoint_error(0.05)
    assert e2 < 1e-6
    assert 8.0 <= e1 / e2 <= 32.0


def test_dense_output_is_as_accurate_as_the_nodes():
    # y = exp(1 - cos t) solves y' = sin(t) y.  The dense output errs
    # between the nodes within 10x the node error (2.3x here), where the
    # cubic Hermite of the same steps errs about 100,000x more
    field = lambda t, y: np.sin(t) * y
    exact = lambda t: np.exp(1.0 - np.cos(t))
    settings = IntegratorSettings(rel_tol=1e-10, abs_tol=1e-12)
    ts = np.linspace(0.0, 20.0, 20001)
    traj = integrate(field, 0.0, [1.0], 20.0, settings)
    node = np.max(np.abs(traj.states[:, 0] - exact(traj.time_grid)))
    dense = np.max(np.abs(traj(ts)[:, 0] - exact(ts)))
    cubic = Trajectory(traj.time_grid, traj.states, traj.derivs, np.zeros_like(traj.coeffs))
    assert dense <= 10 * node
    assert np.max(np.abs(cubic(ts)[:, 0] - exact(ts))) >= 100 * dense
    slope = np.max(np.abs(dense_slope(traj, ts)[:, 0] - np.sin(ts) * exact(ts)))
    assert slope <= 1e-6
    assert np.max(np.abs(dense_slope(cubic, ts)[:, 0] - np.sin(ts) * exact(ts))) >= 100 * slope


def test_dop853_tableau_conditions():
    # the coefficients as written out in ode_engine: every node is its row
    # sum, the eighth-order weights integrate t^(k-1) exactly for k <= 8, and
    # both error-weight vectors sum to zero (each estimate vanishes on y' = 1)
    A, C, B = ode_engine._A, ode_engine._C, ode_engine._B
    assert A.shape == (16, 16) and not np.triu(A).any()
    assert np.max(np.abs(A.sum(axis=1) - C)) <= 2e-15
    for k in range(1, 9):
        assert abs(np.sum(B * C[:12] ** (k - 1)) - 1 / k) <= 1e-15
    assert abs(ode_engine._E5.sum()) <= 1e-15 and abs(ode_engine._E3.sum()) <= 1e-15


def _one_step(field, y, h):
    """End state, end slope and dense coefficient rows of one DOP853 step of
    width h from (0, y), formed from the tableau of ode_engine."""
    hK = np.zeros((16, y.size))
    hK[0] = h * field(0.0, y)
    for i in range(1, 16):
        hK[i] = h * field(ode_engine._C[i] * h, y + ode_engine._A[i, :i] @ hK[:i])
    return y + ode_engine._B @ hK[:12], hK[12] / h, ode_engine._DENSE @ hK


def test_dop853_dense_output_is_of_order_seven():
    # on y' = y from y(0) = 1, halving h cuts the mid-step error of the dense
    # output by about 2^8 (local order 8) and the step's end error by about
    # 2^9 (log2 ratios 8.07 and 8.05, and 9.42 and 9.22)
    mid_errors, end_errors = [], []
    for h in (1.0, 0.5, 0.25):
        y0 = np.array([1.0])
        y1, f1, coeffs = _one_step(lambda t, y: y, y0, h)
        mid = _dense_on_step(y0, y0, h, y1, f1, coeffs, 0.5)
        mid_errors.append(abs(mid[0] - math.exp(h / 2)))
        end_errors.append(abs(y1[0] - math.exp(h)))
    for errors, order in ((mid_errors, 8), (end_errors, 9)):
        for coarse, fine in zip(errors, errors[1:]):
            assert order - 0.5 <= math.log2(coarse / fine) <= order + 0.5


def test_trajectory_rejects_rows_of_another_shape():
    # a narrower row would broadcast in the vector path and be cut short in
    # the scalar one, so the two paths would silently disagree
    grid, states = [0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]]
    for derivs, coeffs in (([[1.0], [1.0]], np.zeros((2, 4, 2))),
                           (np.ones((2, 2)), np.zeros((2, 4, 1))),
                           (np.ones((2, 2)), np.zeros((2, 2))),
                           (np.ones((2, 2)), np.zeros((2, 3, 2))),
                           (np.ones((2, 2)), np.zeros((1, 4, 2)))):
        with pytest.raises(ValueError, match="one row per node"):
            Trajectory(grid, states, derivs, coeffs)
    with pytest.raises(ValueError, match="one row per node"):
        Trajectory([0.0, 1.0, 2.0], states, np.ones((2, 2)), np.zeros((2, 4, 2)))


def test_coeff_rows_vanish_where_the_cubic_holds():
    # zero rows on the last node, on a step ended by a step-size stall, on a
    # one-node run and on a zero-length switching interval; a step cut short
    # by an exit event keeps its polynomial, restricted to the part before
    # the event
    field = lambda t, y: -y - 1.0
    cut = integrate(field, 0.0, [1.0], 5.0, COARSE, stops=(("zero", lambda t, y: y[0] <= 0),))
    assert cut.exit_event is not None and cut.exit_event.time == pytest.approx(math.log(2.0))
    assert cut.coeffs[:-1].any(axis=(1, 2)).all() and not cut.coeffs[-1].any()
    # the steps before the event are those of the run without the stop
    free = integrate(field, 0.0, [1.0], 5.0, COARSE)
    k = cut.time_grid.size - 2
    assert np.array_equal(cut.time_grid[:k + 1], free.time_grid[:k + 1])
    inside = np.linspace(cut.time_grid[k], cut.t_end, 17)
    np.testing.assert_allclose(cut(inside), free(inside), rtol=0.0, atol=1e-15)
    stalled = integrate(lambda t, y: np.array([-np.sqrt(y[0]) - 1.0]), 0.0, [1.0], 5.0, COARSE,
                        domain=Box.from_bounds([0.0], [np.inf]))
    assert stalled.exit_event is not None and not stalled.coeffs[-2:].any()
    stopped = integrate(field, 0.0, [1.0], 5.0, COARSE, stops=(("start", lambda t, y: t == 0.0),))
    assert np.array_equal(stopped.coeffs, np.zeros((1, 4, 1)))
    switched = integrate_controlled(lambda y, u, t: u - y,
                                    ControlSignal.piecewise_constant([1.0], [[0.0], [2.0]]),
                                    0.0, [0.5], 3.0, COARSE, domain=None)
    k = int(np.flatnonzero(np.diff(switched.time_grid) == 0.0)[0])
    assert switched.time_grid[k] == 1.0 and not switched.coeffs[k].any()
    assert np.delete(switched.coeffs[:-1], k, axis=0).any(axis=(1, 2)).all()


def test_domain_exit_event_localized():
    field = lambda t, y: np.array([-1.0])
    traj = integrate(field, 0.0, [1.0], 5.0,
                     IntegratorSettings(rel_tol=1e-10, abs_tol=1e-12),
                     domain=Box.from_bounds([0.0], [np.inf]))
    assert traj.exit_event is not None
    assert traj.exit_event.time == pytest.approx(1.0, abs=1e-8)
    assert abs(traj(traj.exit_event.time)[0]) <= 1e-10
    assert traj.t_end == pytest.approx(1.0, abs=1e-8)


def test_domain_exit_with_singular_field_beyond_boundary():
    # sqrt(y) is NaN past y = 0; the stall must resolve into an exit event
    field = lambda t, y: np.array([-np.sqrt(y[0]) - 1.0])
    traj = integrate(field, 0.0, [1.0], 5.0,
                     IntegratorSettings(rel_tol=1e-9, abs_tol=1e-12),
                     domain=Box.from_bounds([0.0], [np.inf]))
    assert traj.exit_event is not None
    assert traj.exit_event.state[0] == pytest.approx(0.0, abs=1e-7)


def test_blowup_without_domain_raises():
    field = lambda t, y: np.array([y[0] ** 2])
    with pytest.raises(IntegrationError):
        integrate(field, 0.0, [1.0], 3.0, COARSE)


def test_derivative_checks_the_span_like_evaluation():
    traj = integrate(lambda t, y: -y, 0.0, [1.0], 5.0,
                     IntegratorSettings(rel_tol=1e-10, abs_tol=1e-12))
    assert dense_slope(traj, 2.0)[0] == pytest.approx(-math.exp(-2.0), rel=1e-5)
    # within the 1e-9 relative slack a time is clipped to the span
    assert np.array_equal(dense_slope(traj, 5.0 + 1e-9), dense_slope(traj, 5.0))
    # a NaN time fails the span test like an out-of-span one
    for t in (50.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            traj(t)
        with pytest.raises(ValueError):
            traj(np.array([1.0, t]))
        with pytest.raises(ValueError):
            dense_slope(traj, t)
        with pytest.raises(ValueError):
            dense_slope(traj, np.array([1.0, t]))


@pytest.mark.parametrize("t0, t_end", [(0.0, math.inf), (0.0, math.nan), (math.nan, 1.0),
                                       (-math.inf, 0.0), (1.0, -math.inf)])
def test_nonfinite_span_is_rejected(t0, t_end):
    # an infinite or NaN end used to give a one-node trajectory
    with pytest.raises(ValueError, match="must be finite"):
        integrate(lambda t, y: -y, t0, [1.0], t_end, COARSE)


def test_stop_condition_label_recorded():
    field = lambda t, y: np.array([1.0])
    stops = (("past_two", lambda t, y: y[0] > 2.0),)
    traj = integrate(field, 0.0, [0.0], 10.0, COARSE, stops=stops)
    assert traj.exit_event is not None
    assert traj.exit_event.description == "past_two"
    assert traj.exit_event.time == pytest.approx(2.0, abs=1e-6)


def test_stops_follow_priority_and_the_true_time():
    field = lambda t, y: np.array([1.0])
    above = lambda t, y: y[0] > 2.0
    traj = integrate(field, 0.0, [0.0], 10.0, COARSE,
                     stops=(("first", above), ("second", above)))
    assert traj.exit_event is not None and traj.exit_event.description == "first"
    # a run from t0 = 1 calls each predicate at the true time t, not t - t0
    stops = (("after_three", lambda t, y: t > 3.0), ("above_three", lambda t, y: y[0] > 3.0))
    traj = integrate(field, 1.0, [0.0], 10.0, COARSE, stops=stops)
    assert traj.exit_event is not None and traj.exit_event.description == "after_three"
    assert traj.exit_event.time == pytest.approx(3.0, abs=1e-6)
    assert traj.t0 == 1.0 and traj.t_end == traj.exit_event.time


def test_piecewise_control_semantics():
    sig = ControlSignal.piecewise_constant([1.0, 2.0], [[0.0], [5.0], [1.0]])
    assert sig.evaluate(0.5)[0] == 0.0
    assert sig.evaluate(1.0)[0] == 0.0   # value at a switch belongs to (a, b]
    assert sig.evaluate(1.2)[0] == 5.0
    assert sig.evaluate(2.0)[0] == 5.0
    assert sig.evaluate(2.5)[0] == 1.0
    assert sig.segment_piece(1.0, 2.0)[0] == 5.0
    assert sig.segment_piece(0.5, 1.5) is None
    # one row per piece: values given as one flat row are refused
    with pytest.raises(ValueError, match=r"need len\(times\) \+ 1 control values"):
        ControlSignal.piecewise_constant([1.0, 2.0], [0.0, 5.0, 1.0])
    for times in ([2.0, 1.0], [1.0, 1.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            ControlSignal.piecewise_constant(times, [[0.0], [5.0], [1.0]])


def test_stacked_signal_joins_the_members_on_the_union_of_their_switches():
    first = ControlSignal.piecewise_constant([1.0, 2.0], [[0.0], [5.0], [1.0]])
    second = ControlSignal.constant([7.0, 8.0]).with_needle(1.5, 0.25, [-1.0, -2.0])
    third = ControlSignal.constant([3.0])
    stacked = ControlSignal.stacked([first, second, third])
    assert stacked.dim == 4
    assert stacked.breakpoints().tolist() == [1.0, 1.25, 1.5, 2.0]
    # each member's own value everywhere, switching times included
    for t in (-1.0, 0.5, 1.0, 1.1, 1.25, 1.4, 1.5, 1.75, 2.0, 2.5, 100.0):
        assert stacked.evaluate(t).tolist() == [*first.evaluate(t), *second.evaluate(t),
                                                *third.evaluate(t)]
    assert stacked.segment_piece(1.25, 1.5).tolist() == [5.0, -1.0, -2.0, 3.0]
    assert not stacked.has_closed_form
    # one signal is returned as it is, a closed-form one too; two do not stack
    closed = ControlSignal([], [lambda t: np.array([np.cos(t)])], 1)
    assert closed.has_closed_form and not first.has_closed_form
    assert ControlSignal.stacked([closed]) is closed
    assert ControlSignal.stacked([first]) is first
    with pytest.raises(ValueError, match="constant pieces"):
        ControlSignal.stacked([first, closed.with_needle(1.0, 0.5, [0.0])])


def test_column_block_is_a_view_without_the_exit_event():
    box = Box.from_bounds([-np.inf, -np.inf, -np.inf], [np.inf, 1.0, np.inf])
    traj = integrate(lambda t, y: np.array([1.0, 0.5, -y[2]]), 0.0, [0.0, 0.0, 1.0], 5.0,
                     COARSE, domain=box)
    assert traj.exit_event is not None
    block = traj.columns(1, 3)
    assert block.dim == 2 and block.exit_event is None
    assert np.shares_memory(block.states, traj.states)
    ts = np.linspace(0.0, traj.t_end, 7)
    assert np.array_equal(block(ts), traj(ts)[:, 1:3])
    assert block(1.3).tolist() == traj(1.3)[1:3].tolist()


def test_needle_composition_on_constant_signal():
    base = ControlSignal.constant([1.0])
    needled = base.with_needle(1.0, 0.1, [0.0])
    assert needled.evaluate(0.89)[0] == 1.0
    assert needled.evaluate(0.95)[0] == 0.0
    assert needled.evaluate(1.0)[0] == 0.0
    assert needled.evaluate(1.01)[0] == 1.0
    assert set(np.round(needled.breakpoints(), 12)) == {0.9, 1.0}


@pytest.mark.parametrize("width", [math.nan, math.inf, 0.0, -0.1])
def test_needle_width_must_be_finite_and_positive(width):
    # a NaN width used to drop the pulse silently, an infinite one to start
    # it at -inf
    for base in (ControlSignal.constant([1.0]),
                 ControlSignal.piecewise_constant([2.0], [[1.0], [0.0]]),
                 ControlSignal([], [lambda t: np.array([1.0])], 1)):
        with pytest.raises(ValueError, match="finite and positive"):
            base.with_needle(1.0, width, [0.0])


def test_controlled_integration_exact_across_switch():
    # dx/dt = u with a switch: node placed exactly at the breakpoint
    sig = ControlSignal.piecewise_constant([1.0], [[1.0], [0.0]])
    rhs = lambda y, u, t: np.array([u[0]])
    traj = integrate_controlled(rhs, sig, 0.0, [0.0], 3.0, TIGHT, domain=None)
    assert 1.0 in traj.time_grid
    assert traj.states[-1, 0] == pytest.approx(1.0, abs=1e-12)
    assert traj(2.5)[0] == pytest.approx(1.0, abs=1e-12)


def test_closed_form_piece_that_starts_at_a_switch_runs_from_its_first_node():
    # cos(t) with a pulse of 5 on (1.0, 1.2]: the segment from 1.2 on runs
    # under the cos piece also at its first node, where the signal itself
    # takes the pulse that ends there.  Given the pulse's slope there, the
    # first step shrank to 3e-8 and y(3) was off by 1.3e-8.
    sig = (ControlSignal([], [lambda t: np.array([np.cos(t)])], 1)
           .with_needle(1.2, 0.2, [5.0]))
    traj = integrate_controlled(lambda y, u, t: u, sig, 0.0, [0.0], 3.0, STANDARD, domain=None)
    first, second = np.flatnonzero(traj.time_grid == 1.2)
    assert traj.derivs[first, 0] == 5.0 and traj.derivs[second, 0] == np.cos(1.2)
    assert traj.time_grid[second + 1] - 1.2 > 1e-3
    exact = math.sin(1.0) + 5.0 * 0.2 + math.sin(3.0) - math.sin(1.2)
    assert abs(traj.states[-1, 0] - exact) <= 1e-9


def test_controlled_integration_runs_forward_only():
    with pytest.raises(ValueError, match="forward"):
        integrate_controlled(lambda y, u, t: u, ControlSignal.constant([1.0]), 2.0, [0.0],
                             1.0, COARSE, domain=None)


def test_reflected_signal_and_trajectory():
    # v(s) = u(-s) off the switching times, on every kind of piece
    for sig in (ControlSignal.piecewise_constant([1.0, 2.0], [[0.0], [5.0], [1.0]]),
                ControlSignal([], [lambda t: np.array([math.sin(t)])], 1)
                .with_needle(1.2, 0.2, [5.0])):
        back = reflected_signal(sig)
        assert np.array_equal(back.breakpoints(), -sig.breakpoints()[::-1])
        for t in (-1.0, 0.5, 1.1, 1.5, 2.5, 3.0):
            assert np.array_equal(back.evaluate(-t), sig.evaluate(t))
    # a run in s = -t, read at s = -t as the oracle reads its adjoint basis,
    # is the solution in t, dense values and slopes included: here
    # y' = cos(t) y backward from y(2) = 1, y(t) = exp(sin t - sin 2), with
    # errors of 7.5e-12 and 1.9e-10 measured
    field = lambda t, y: np.array([math.cos(t) * y[0]])
    forward = integrate(lambda s, y: -field(-s, y), -2.0, [1.0], 1.0, TIGHT)
    ts = np.linspace(-1.0, 2.0, 61)
    exact = np.exp(np.sin(ts) - math.sin(2.0))
    assert np.max(np.abs(forward(-ts)[:, 0] - exact)) <= 1e-9
    assert np.max(np.abs(-dense_slope(forward, -ts)[:, 0] - np.cos(ts) * exact)) <= 1e-8


def test_solve_state_non_extendible_marks_exit(ramsey_params=None):
    from horizoncheck import make_builtin_problem

    problem = make_builtin_problem("ramsey",
                                   {"alpha": 0.4, "delta": 0.05, "theta": 0.5, "k0": 32.0})
    # overconsumption from k0 = 32: dk/dt = 4 - 1.6 - 4 < 0 and worsening
    traj = solve_state(problem, ControlSignal.constant([4.0]), 200.0, COARSE)
    assert traj.exit_event is not None
    assert "lower bound" in traj.exit_event.description


def test_solve_state_starts_at_the_problem_initial_point():
    problem = dataclasses.replace(make_builtin_problem("integrator", {"rho": 0.0}),
                                  initial_state=[2.0], initial_time=5.0)
    traj = solve_state(problem, ControlSignal.constant([1.0]), 8.0, TIGHT)
    assert traj.t0 == 5.0 and traj.states[0, 0] == 2.0
    assert traj.states[-1, 0] == pytest.approx(5.0, abs=1e-12)
    # an end before the initial time, though after 0, is rejected
    with pytest.raises(ValueError, match="forward"):
        solve_state(problem, ControlSignal.constant([1.0]), 4.0, TIGHT)


def test_problem_rejects_an_initial_state_outside_its_domain_under_replace():
    # a state solve from the initial point relies on this and checks the
    # initial state no further
    ramsey = make_builtin_problem("ramsey",
                                  {"alpha": 0.4, "delta": 0.05, "theta": 0.5, "k0": 10.0})
    for x0 in ([0.0], [-1.0], [np.nan]):
        with pytest.raises(ValueError, match="outside the open state domain"):
            dataclasses.replace(ramsey, initial_state=x0)


def test_step_sequence_pins(monkeypatch):
    # accepted steps of the oscillator state solve, the check's (x, Y, S)
    # pass and the oracle's adjoint-basis solve at b = 0.5, t_max = 100; a
    # change to the stepping core that moves them must update these counts
    problem = make_builtin_problem("oscillator", {"b": 0.5})
    control = ControlSignal.constant([1.0])
    traj = solve_state(problem, control, 100.0, _CHECK_SETTINGS)
    transition = transition_matrix(problem, control, 100.0, settings=_CHECK_SETTINGS)
    jacobians, calls = oracles.jacobians, []
    monkeypatch.setattr(oracles, "jacobians",
                        lambda *args: calls.append(args[3]) or jacobians(*args))
    basis = adjoint_basis(problem, traj, control, 100.0, _CHECK_SETTINGS)
    assert traj.time_grid.size == 410
    assert transition._aug.time_grid.size == 410
    assert basis.trajectory.time_grid.size == 408
    # the basis solve reads f_x and g_x at the start, then once per distinct
    # stage time of each of its 432 attempts, eleven: the last two step
    # stages share the node c = 1; and three dense-output stages for each of
    # its 407 accepted steps
    assert len(calls) == 5974 == 1 + 11 * 432 + 3 * 407
    # a costate read off the basis integrates nothing
    costate = basis_costate(basis, [-1.0, 0.2], 1.0)
    assert costate.trajectory.time_grid is basis.trajectory.time_grid and len(calls) == 5974


def test_field_call_count_pin():
    # beside the step pins: the state solve of test_step_sequence_pins calls
    # the field once at t0, twelve times per attempt, 445 attempts for its
    # 410 nodes, and three times per accepted step for the dense output; a
    # rewrite of the step that adds an evaluation moves this
    problem = make_builtin_problem("oscillator", {"b": 0.5})
    u = np.array([1.0])
    calls = []

    def field(t, y):
        calls.append(t)
        return problem.dynamics(y, u, t)

    traj = integrate(field, 0.0, problem.initial_state, 100.0, _CHECK_SETTINGS)
    assert traj.time_grid.size == 410
    assert len(calls) == 6568 == 1 + 12 * 445 + 3 * 409


# ---------------------------------------------------------------------------
# property tests of the dense output and the error norm


def _hypothesis():
    """hypothesis, its strategies and its numpy strategies, or skip the test."""
    return (pytest.importorskip("hypothesis"), pytest.importorskip("hypothesis.strategies"),
            pytest.importorskip("hypothesis.extra.numpy"))


def _trajectories(st, hnp):
    """Dense solutions on random nondecreasing grids.  A zero step makes a
    repeated node (a derivative jump), where the state is continuous."""
    @st.composite
    def build(draw):
        dim = draw(st.integers(1, 3))
        steps = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)), max_size=10))
        grid = draw(st.floats(-50.0, 50.0)) + np.concatenate([[0.0], np.cumsum(steps)])
        values = st.floats(-1e3, 1e3)
        states = draw(hnp.arrays(float, (grid.size, dim), elements=values))
        derivs = draw(hnp.arrays(float, (grid.size, dim), elements=values))
        coeffs = draw(hnp.arrays(float, (grid.size, 4, dim), elements=values))
        for k, step in enumerate(steps, start=1):
            if step == 0.0:
                states[k] = states[k - 1]
        return Trajectory(grid, states, derivs, coeffs)
    return build()


def test_scalar_dense_output_matches_vector_rows():
    hypothesis, st, hnp = _hypothesis()

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(_trajectories(st, hnp), st.lists(st.floats(0.0, 1.0), max_size=8))
    def check(traj, fractions):
        width = traj.t_end - traj.t0
        times = np.concatenate([traj.t0 + width * np.array(fractions), traj.time_grid])
        # the scalar path evaluates the vector path's expression on floats
        rows = traj(times)
        for t, row in zip(times, rows):
            assert np.array_equal(traj(t), row)

    check()


def _assert_scalar_reads_match_rows(traj, rng):
    """Scalar reads at the nodes, the step midpoints and random times equal
    the rows of one vector read bit for bit."""
    grid = traj.time_grid
    times = np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:]),
                            rng.uniform(traj.t0, traj.t_end, 50)])
    for t, row in zip(times, traj(times)):
        assert np.array_equal(traj(float(t)), row)


def test_scalar_reads_match_vector_rows_on_program_trajectories():
    rng = np.random.default_rng(3)
    problem = make_builtin_problem("oscillator", {"b": 0.5})
    control = ControlSignal.constant([1.0]).with_needle(4.0, 1.5, [-1.0])
    # the state path of the (x, Y, S) pass: views of its first two columns
    transition = transition_matrix(problem, control, 10.0, settings=_CHECK_SETTINGS)
    assert transition.trajectory.states.base is not None
    _assert_scalar_reads_match_rows(transition.trajectory, rng)
    # the oracle's adjoint basis and a costate read off it, in reversed time
    # s = -t, their segments joined at the control's switch
    basis = adjoint_basis(problem, transition.trajectory, control, 10.0, _CHECK_SETTINGS)
    assert not basis.trajectory.coeffs[-1].any()
    _assert_scalar_reads_match_rows(basis.trajectory, rng)
    costate = basis_costate(basis, [-1.0, 0.2], 1.0)
    assert costate.trajectory.coeffs[-1].tolist() == [[0.0, 0.0]] * 4
    _assert_scalar_reads_match_rows(costate.trajectory, rng)
    # one node, whose only step joins the node to itself: the scalar read
    # takes its two end rows as the vector read does
    single = Trajectory([2.0], [[1.5, -0.25]], [[3.0, 7.0]], [[[0.125, -4.0]] * 4])
    for t in (2.0, 2.0 + 1e-10):
        assert np.array_equal(single(t), single(np.array([t]))[0])
        assert np.array_equal(single(t), [1.5, -0.25])
    stopped = integrate(lambda t, y: -y, 0.0, [1.0, 2.0], 5.0, _CHECK_SETTINGS,
                        stops=[("at once", lambda t, y: y[0] > 0.5)])
    assert stopped.time_grid.size == 1
    _assert_scalar_reads_match_rows(stopped, rng)


def test_dense_output_exact_at_nodes():
    hypothesis, st, hnp = _hypothesis()

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(_trajectories(st, hnp))
    def check(traj):
        assert np.array_equal(traj(traj.time_grid), traj.states)
        for t, state in zip(traj.time_grid, traj.states):
            assert np.array_equal(traj(float(t)), state)

    check()


def test_dense_output_span_check_and_clipping():
    hypothesis, st, hnp = _hypothesis()

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(_trajectories(st, hnp), st.floats(1e-6, 1e3), st.booleans())
    def check(traj, gap, below):
        width = max(traj.t_end - traj.t0, 1.0)
        t = traj.t0 - gap * width if below else traj.t_end + gap * width
        with pytest.raises(ValueError):
            traj(t)
        with pytest.raises(ValueError):
            traj(np.array([traj.t0, t]))
        # within the 1e-9 relative slack a time is clipped to the span
        near = traj.t0 - 1e-10 * width if below else traj.t_end + 1e-10 * width
        end = traj.states[0] if below else traj.states[-1]
        assert np.array_equal(traj(near), end)
        assert np.array_equal(traj(np.array([near]))[0], end)

    check()


def test_error_norm_is_rms_of_scaled_error():
    # Hairer's measure of the fifth- and third-order estimates is formed on
    # floats but must equal the array expression bit for bit; a plain sum of
    # the squares departs from np.add.reduce's pairwise order from n = 8 on.
    # Without a third-order error it is the RMS of the scaled fifth-order one
    hypothesis, st, hnp = _hypothesis()
    values = st.floats(-1e6, 1e6)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.integers(1, 12).flatmap(
                          lambda n: st.tuples(*[hnp.arrays(float, n, elements=values)] * 4)),
                      st.floats(1e-12, 1e-2), st.floats(1e-14, 1e-2))
    def check(arrays, rel_tol, abs_tol):
        err5, err3, y, y_new = arrays
        settings = IntegratorSettings(rel_tol=rel_tol, abs_tol=abs_tol)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        r5, r3 = err5 / scale, err3 / scale
        e5, e3 = np.add.reduce(r5 * r5), np.add.reduce(r3 * r3)
        expected = 0.0 if e5 == 0.0 else e5 / np.sqrt((e5 + 0.01 * e3) * r5.size)
        assert _error_norm(err5, err3, y, y_new, settings) == expected
        rms = math.sqrt(e5 / r5.size)
        assert _error_norm(err5, 0 * err3, y, y_new, settings) == pytest.approx(rms, rel=1e-15)

    check()


def test_switches_and_needles_follow_the_half_open_convention():
    hypothesis, st, _ = _hypothesis()
    values = st.sampled_from([-1.0, 0.0, 0.25, 1.0])

    @st.composite
    def signals(draw):
        kind = draw(st.sampled_from(["constant", "piecewise", "closed_form"]))
        if kind == "constant":
            return ControlSignal.constant([draw(values)])
        if kind == "closed_form":
            return ControlSignal([], [lambda t: np.array([math.sin(t)])], 1)
        times = sorted(draw(st.sets(st.floats(0.0, 10.0), min_size=1, max_size=5)))
        return ControlSignal.piecewise_constant(
            times, [[draw(values)] for _ in range(len(times) + 1)])

    def agrees_with_its_segments(signal):
        # a switching time belongs to the interval it ends, (a, b]: evaluation
        # agrees with the pieces that integration runs each segment under, a
        # constant or a closed form
        cuts = signal.breakpoints()
        assert np.all(np.diff(cuts) > 0)
        edges = [cuts[0] - 1.0, *cuts, cuts[-1] + 1.0] if cuts.size else []
        for a, t, b in zip(edges, edges[1:], edges[2:]):
            for seg, at in ((signal.segment_piece(a, t), t),
                            (signal.segment_piece(t, b), np.nextafter(t, np.inf))):
                assert np.array_equal(signal.evaluate(at), seg(at) if callable(seg) else seg)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(signals(), st.floats(0.5, 10.0), st.floats(1e-3, 0.5), values,
                      st.floats(-0.6, 0.6), st.floats(1e-3, 0.5), values)
    def check(base, tau, alpha, u, shift, alpha2, u2):
        agrees_with_its_segments(base)
        needled = base.with_needle(tau, alpha, [u])
        a = tau - alpha
        for t in (np.nextafter(a, np.inf), 0.5 * (a + tau), tau):
            assert needled.evaluate(t)[0] == u
        for t in (a, np.nextafter(tau, np.inf), tau + 1.0, a - 0.1):
            assert np.array_equal(needled.evaluate(t), base.evaluate(t))
        agrees_with_its_segments(needled)
        # a second pulse, often overlapping the first: the newer one holds on
        # its interval and the older one elsewhere, on every kind of base
        tau2 = tau + shift
        stacked = needled.with_needle(tau2, alpha2, [u2])
        a2 = tau2 - alpha2
        agrees_with_its_segments(stacked)
        for edge in (a, tau, a2, tau2):
            for t in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf),
                      edge - 0.05, edge + 0.05):
                expected = [u2] if a2 < t <= tau2 else needled.evaluate(t)
                assert np.array_equal(stacked.evaluate(t), expected)

    check()


def test_domain_exit_localized_within_h_floor():
    hypothesis, st, _ = _hypothesis()

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.floats(0.1, 10.0), st.floats(0.1, 3.0), st.floats(0.0, 2.0),
                      st.floats(1.1, 20.0))
    def check(y0, speed, accel, stretch):
        # y = y0 - speed t - accel t^2 / 2 reaches the face y = 0 at t_hit; the
        # steps and their dense output reproduce it up to round-off
        t_hit = (2 * y0 / (speed + math.sqrt(speed * speed + 2 * accel * y0)))
        t_end = stretch * t_hit
        traj = integrate(lambda t, y: np.array([-(speed + accel * t)]), 0.0, [y0], t_end,
                         IntegratorSettings(rel_tol=1e-10, abs_tol=1e-12),
                         domain=Box.from_bounds([0.0], [np.inf]))
        assert traj.exit_event is not None
        h_floor = 1e-9 * t_end
        assert abs(traj.exit_event.time - t_hit) <= h_floor + 1e-12 * t_end
        assert traj.t_end == traj.exit_event.time

    check()


# ---------------------------------------------------------------------------
# zero-length spans, finiteness checks and event localisation


def test_zero_length_span_makes_the_initial_checks():
    box = Box.from_bounds([0.0], [1.0])
    for t_end in (0.0, 1.0):
        with pytest.raises(ValueError, match="outside the open domain"):
            integrate(lambda t, y: -y, 0.0, [2.0], t_end, COARSE, domain=box)
        with pytest.raises(IntegrationError):
            integrate(lambda t, y: np.array([np.nan]), 0.0, [0.5], t_end, COARSE)
        traj = integrate(lambda t, y: -y, 0.0, [0.5], t_end, COARSE,
                         stops=(("start", lambda t, y: t == 0.0),))
        assert traj.exit_event is not None and traj.exit_event.description == "start"
        assert traj.exit_event.time == 0.0 and traj.t_end == 0.0
    traj = integrate(lambda t, y: -y, 3.0, [0.5], 3.0, COARSE, domain=box)
    assert traj.exit_event is None
    assert np.array_equal(traj.time_grid, [3.0]) and np.array_equal(traj.derivs, [[-0.5]])


def test_batch_zero_length_span_makes_the_initial_checks():
    # a batch of starts, each run on its own as the band cells of a phase
    # diagram are: a state stop that holds at t0 ends that start's run there,
    # inside the domain, while the other start reaches t_end
    box = Box.from_bounds([0.0], [1.0])
    low = (("low", lambda t, y: y[0] < 0.15),)
    for t_end in (0.0, 1.0):
        with pytest.raises(ValueError, match="outside the open domain"):
            for y0 in ([0.5], [2.0]):
                integrate(lambda t, y: -y, 0.0, y0, t_end, COARSE, domain=box, stops=low)
        with pytest.raises(IntegrationError):
            integrate(lambda t, y: np.full_like(y, np.nan), 0.0, [0.5], t_end, COARSE)
        reach, stop = (integrate(lambda t, y: -y, 0.0, y0, t_end, COARSE, domain=box, stops=low)
                       for y0 in ([0.5], [0.125]))
        assert reach.exit_event is None and reach.t_end == t_end
        assert stop.exit_event is not None and stop.exit_event.description == "low"
        assert stop.exit_event.time == 0.0 and stop.t_end == 0.0
        assert stop.states[-1, 0] == 0.125


def test_controlled_zero_length_span_makes_the_initial_checks():
    rhs = lambda y, u, t: u - y
    control = ControlSignal.constant([0.0])
    box = Box.from_bounds([0.0], [1.0])
    for t_end in (0.0, 1.0):
        with pytest.raises(ValueError, match="outside the open domain"):
            integrate_controlled(rhs, control, 0.0, [2.0], t_end, COARSE, domain=box)
    traj = integrate_controlled(rhs, control, 3.0, [0.5], 3.0, COARSE, domain=box)
    assert traj.exit_event is None
    assert np.array_equal(traj.time_grid, [3.0]) and np.array_equal(traj.derivs, [[-0.5]])


def test_box_contains_rows_like_single_states():
    hypothesis, st, hnp = _hypothesis()
    values = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 1.0, -np.inf, np.inf, np.nan]))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        hnp.arrays(float, st.tuples(st.integers(0, 6), st.just(n)), elements=values),
        hnp.arrays(float, n, elements=st.sampled_from([-np.inf, -1.0, 0.0])),
        hnp.arrays(float, n, elements=st.sampled_from([0.0, 1.0, np.inf])))))
    def check(drawn):
        Y, lower, upper = drawn
        box = Box.from_bounds(lower, upper)
        inside = box.contains(Y)
        assert inside.shape == (Y.shape[0],)
        expected = [all(lo < v < hi for v, lo, hi in zip(y, lower, upper)) for y in Y]
        assert [bool(box.contains(y)) for y in Y] == expected == inside.tolist()

    check()
    box = Box.from_bounds([0.0, -np.inf], [1.0, np.inf])
    rows = np.array([[0.5, 3.0], [np.nan, 0.0], [0.5, np.nan], [0.5, np.inf], [1.0, 0.0]])
    assert box.contains(rows).tolist() == [True, False, False, False, False]


def test_float_domain_test_agrees_with_box_contains():
    # the solo loop tests an accepted state against the faces on floats
    hypothesis, st, hnp = _hypothesis()
    values = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([-1.0, 0.0, 1.0, -np.inf, np.inf,
                                                              np.nan]))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        hnp.arrays(float, n, elements=values),
        hnp.arrays(float, n, elements=st.sampled_from([-np.inf, -1.0, 0.0])),
        hnp.arrays(float, n, elements=st.sampled_from([0.0, 1.0, np.inf])))))
    def check(drawn):
        y, lower, upper = drawn
        box = Box.from_bounds(lower, upper)
        faces = list(zip(lower.tolist(), upper.tolist()))
        assert ode_engine._inside(y.tolist(), faces) is bool(box.contains(y))

    check()
    faces = [(0.0, 1.0), (-np.inf, np.inf)]
    for y, inside in (([0.5, 3.0], True), ([0.0, 3.0], False), ([1.0, 3.0], False),
                      ([0.5, np.inf], False), ([0.5, -np.inf], False), ([np.nan, 0.0], False)):
        assert ode_engine._inside(y, faces) is inside


def test_fig1_shooting_orbit_pins():
    # node count and final state of the FIG1 shot orbit, bit for bit; the
    # solo loop's float domain test and the field's float unpacking must not
    # move them
    _, orbit = ramsey_shoot(RamseyParams(**FIG1), 2000.0)
    assert orbit.time_grid.size == 37
    assert [float(v).hex() for v in orbit.states[-1]] == ["0x1.fffbe9b4f747ap+4",
                                                          "0x1.333109f7e94d9p+1"]


def test_solo_ramsey_events_land_on_the_bisected_theta(monkeypatch):
    # each event of a solo orbit is localized by _locate_exit on the float
    # dense output; its theta must be the one that bisection finds on the
    # vector dense output
    located = []
    locate_exit = ode_engine._locate_exit

    def recorded(*args):
        event, theta = locate_exit(*args)
        located.append((args, event, theta))
        return event, theta

    monkeypatch.setattr(ode_engine, "_locate_exit", recorded)
    params = RamseyParams(**FIG1)
    interior, _ = ramsey_steady_state(params)
    stops = _classify_stops(interior.k_star, interior.c_star)

    def last_located(orbit):
        args, event, theta = located[-1]
        assert orbit.exit_event is event and orbit.t_end == event.time
        t, y, fy, h, y_new, f_new, coeffs, domain, event_stops, h_floor = args
        point = lambda th: _dense_on_step(y, fy, h, y_new, f_new, coeffs, th)
        if domain is not None:
            holds = lambda th: not domain.contains(point(th))
        else:
            holds = lambda th: any(pred(t + th * h, point(th)) for _, pred in event_stops)
        assert theta == _bisect_predicate(holds, h, h_floor)
        assert event.time == t + theta * h
        return event

    _, orbit = ramsey_shoot(params, 2000.0)
    assert last_located(orbit).description == "saddle_ball"
    orbit = ramsey_euler_orbit(params, 60.0, 3.0, 600.0, stops=stops)
    assert last_located(orbit).description == "to_zero_consumption"
    # past k = 0 the field is NaN, so no step across that face is accepted
    # and the exit comes from the step-size stall; a face at k = 2 is crossed
    # by an accepted step and localized by bisection.  (10, 3) lies in the
    # hits_zero_capital region, so these orbits run without that stop.
    located.clear()
    crash_free = stops[:2]
    orbit = ramsey_euler_orbit(params, 10.0, 3.0, 600.0, stops=crash_free)
    assert not located and orbit.exit_event.state[0] == 0.0
    orbit = integrate(lambda t, y: np.array(_euler_rates(params, *y)), 0.0, [10.0, 3.0], 600.0,
                      IntegratorSettings(rel_tol=1e-9, abs_tol=1e-11),
                      domain=Box.from_bounds([2.0, 0.0], [np.inf, 1e12]), stops=crash_free)
    assert last_located(orbit).description == "y[0] reached lower bound 2"


def test_stop_is_called_once_at_t0():
    calls = []

    def start(t, y):
        calls.append(t)
        return True

    for t_end in (0.0, 1.0):
        calls.clear()
        integrate(lambda t, y: -y, 0.0, [0.5], t_end, COARSE, stops=(("start", start),))
        assert calls == [0.0]


def test_finite_stages_whose_sum_overflows_are_accepted():
    # each stage [1e308, 1e308] is finite, but its sum overflows; the step
    # must still be accepted
    with np.errstate(over="ignore"):
        assert not math.isfinite(np.add.reduce(np.array([1e308, 1e308])))
    field = lambda t, y: np.array([1e308, 1e308])
    traj = integrate(field, 0.0, [0.0, 0.0], 1e-10, COARSE)
    assert traj.exit_event is None and traj.t_end == 1e-10
    np.testing.assert_allclose(traj.states[-1], [1e298, 1e298], rtol=1e-12)
    # the stages are kept times h; on a unit step that product's sum
    # overflows too, and the exact finiteness test must accept the stage
    hK = np.full((16, 2), 1e308)
    stages = [(ode_engine._A[i, :i], ode_engine._C[i], hK[:i], hK[i]) for i in (1, 2)]
    point, slope = ode_engine._run_stages(field, 0.0, np.zeros(2), 1.0, np.array(1.0), stages)
    assert point is not None and slope.tolist() == [1e308, 1e308]


@pytest.mark.parametrize("bad", [[np.nan, 1.0], [np.inf, -np.inf], [np.inf, 1.0]],
                         ids=["nan", "inf-inf", "inf"])
def test_nonfinite_stage_ends_the_attempt_before_the_next_field_call(bad):
    # the field fails from t = 0.5 on; after a failed stage the next call
    # must start a retry, which lies strictly earlier than any later stage
    calls = []

    def field(t, y):
        out = np.array(bad) if t >= 0.5 else np.array([1.0, 0.0])
        calls.append((t, bool(np.isfinite(out).all())))
        return out

    with pytest.raises(IntegrationError):
        integrate(field, 0.0, [0.0, 0.0], 1.0, COARSE)
    failed = [k for k, (_, finite) in enumerate(calls) if not finite]
    assert failed
    for k in failed:
        if k + 1 < len(calls):
            assert calls[k + 1][0] < calls[k][0]


def test_box_without_finite_faces_matches_no_domain():
    field = lambda t, y: np.array([y[1], -y[0] - 0.1 * y[1]])
    settings = IntegratorSettings(rel_tol=1e-9, abs_tol=1e-11)
    free = integrate(field, 0.0, [1.0, 0.0], 30.0, settings)
    for box in (Box.unbounded(2), Box.from_bounds([-np.inf] * 2, [np.inf] * 2)):
        boxed = integrate(field, 0.0, [1.0, 0.0], 30.0, settings, domain=box)
        assert np.array_equal(boxed.time_grid, free.time_grid)
        assert np.array_equal(boxed.states, free.states)
        assert np.array_equal(boxed.derivs, free.derivs)


def _bisect_predicate(outside, h, h_floor, max_iter=80):
    """Smallest theta in (0, 1] with outside(theta) true, to within h_floor/h,
    by bisection with one scalar theta per level: the oracle of the event
    localiser."""
    lo, hi = 0.0, 1.0
    tol = max(h_floor / h, 1e-15)
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if outside(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_integrate_calls_every_test_with_a_float_time_and_one_state(monkeypatch):
    # the stops and the domain test see a float t and one state y[n], after
    # each accepted step and at every interior point that localises an
    # event
    shapes, times = [], []
    contains, inside = Box.contains, ode_engine._inside
    monkeypatch.setattr(Box, "contains",
                        lambda box, y: shapes.append(np.shape(y)) or contains(box, y))
    monkeypatch.setattr(ode_engine, "_inside",
                        lambda v, faces: shapes.append(np.shape(v)) or inside(v, faces))

    def recorded(holds):
        def pred(t, y):
            times.append(t)
            shapes.append(np.shape(y))
            return holds(y)
        return pred

    field = lambda t, y: np.array([-1.0, y[0]])
    runs = [dict(t_end=5.0, domain=Box.from_bounds([0.0, -np.inf], [np.inf, np.inf])),
            dict(t_end=5.0, stops=(("half", recorded(lambda y: y[0] < 0.5)),))]
    for run, t_hit in zip(runs, (1.0, 0.5)):
        shapes.clear()
        t_end = run.pop("t_end")
        traj = integrate(field, 0.0, [1.0, 0.0], t_end, COARSE, **run)
        assert traj.exit_event is not None
        assert traj.exit_event.time == pytest.approx(t_hit, abs=1e-8)
        # more tests than nodes: the event was localised between two of them
        assert len(shapes) > traj.time_grid.size
        assert set(shapes) == {(2,)}
    assert times and all(type(t) is float for t in times)


def test_crossings_of_a_sine_match_the_closed_form():
    # y = (sin t, cos t) on [0, 20]: sin t = 0.5 at pi/6 + 2 pi k and
    # 5 pi/6 + 2 pi k, cos t = 0.5 at pi/3 + 2 pi k and 5 pi/3 + 2 pi k,
    # seven times each
    traj = integrate(lambda t, y: np.array([y[1], -y[0]]), 0.0, [0.0, 1.0], 20.0, TIGHT)
    for i, roots in ((0, (math.pi / 6, 5 * math.pi / 6)), (1, (math.pi / 3, 5 * math.pi / 3))):
        exact = sorted(r + 2 * math.pi * k for r in roots for k in range(4)
                       if r + 2 * math.pi * k <= 20.0)
        found = list(traj.crossings(i, 0.5))
        assert len(found) == len(exact) == 7
        np.testing.assert_allclose(found, exact, rtol=0.0, atol=1e-10)
    assert list(traj.crossings(0, 1.5)) == []
