import dataclasses
import math

import numpy as np
import pytest

from horizoncheck import (
    Box,
    ControlProblem,
    ControlSet,
    ControlSignal,
    NonExtendibleError,
    Trajectory,
    empirical_overtaking_test,
    make_builtin_problem,
    needle_limit_check,
    overtaking,
    payoff_value,
    transition_matrix,
)
from horizoncheck import cli
from horizoncheck.cli import RunConfig, build_overtake_report
from horizoncheck.reference_examples import ramsey_control_from_orbit, ramsey_euler_orbit

from conftest import FIG1, TIGHT, counted
from oracles import OscillatorOracle, appendix_identity_residual, oscillator_delta_x1


def value(problem, control, T):
    """Payoff of the control from the problem's initial point to T, from a
    payoff pass of its own."""
    path, = payoff_value(problem, [control], T)
    assert path.exit_event is None
    return path.states[-1, problem.state_dim]


def overtake(problem, candidate, challenger, T_max, sample_spacing=0.02):
    """The overtaking test of the candidate's payoff path against one
    challenger's, both from one payoff_value call, at the CLI's eps and, by
    default, its oscillator spacing."""
    return empirical_overtaking_test(problem, *payoff_value(problem, [candidate, challenger],
                                                            T_max),
                                     eps=1e-6, T_max=T_max, sample_spacing=sample_spacing)


def test_finite_horizon_values(oscillator, integrator, u_one):
    # x1(2pi) + b * 2pi with x1(t) = 1 - cos t
    assert value(oscillator, u_one, 2 * math.pi) == pytest.approx(math.pi, abs=1e-9)
    expect = (1 - math.exp(-1.0) * 2.0) / 0.01
    assert value(integrator, u_one, 10.0) == pytest.approx(expect, abs=1e-7)
    assert value(integrator, u_one, 0.0) == 0.0


def test_finite_horizon_non_extendible(ramsey_params):
    # the path ends at its exit event, which is set rather than raised
    problem = ramsey_params.problem()
    path, = payoff_value(problem, [ControlSignal.constant([4.0])], 500.0)
    assert path.exit_event is not None and path.t_end == path.exit_event.time
    assert path.exit_event.time < 500.0


def test_base_path_leaving_the_domain_is_not_extendible(ramsey_params):
    # consuming 4 from k0 = 10 runs the capital down to 0 near t = 4.17; the
    # gradients and the needle check must say so, not work on a cut grid
    problem = ramsey_params.problem()
    base = ControlSignal.constant([4.0])
    with pytest.raises(NonExtendibleError, match="reached lower bound 0") as err:
        transition_matrix(problem, base, 200.0, TIGHT)
    assert err.value.event.time == pytest.approx(4.17, abs=0.01)
    with pytest.raises(NonExtendibleError, match="not extendible past t=4.1"):
        needle_limit_check(problem, base, 1.0, [2.0], 200.0, [0.1, 0.01])


def test_needle_gap_closed_form(integrator_undiscounted, u_one):
    problem = integrator_undiscounted
    gap = (value(problem, u_one.with_needle(1.0, 0.1, [0.0]), 5.0)
           - value(problem, u_one, 5.0))
    assert gap == pytest.approx(-0.405, abs=1e-6)


def test_needle_noop_is_exactly_zero(oscillator, u_one):
    gap = (value(oscillator, u_one.with_needle(2.0, 0.5, [1.0]), 10.0)
           - value(oscillator, u_one, 10.0))
    assert gap == 0.0


def test_needle_first_order_matches_hamiltonian_difference(oscillator, u_one):
    ref = OscillatorOracle(0.5)
    alpha = 0.01
    gap = (value(oscillator, u_one.with_needle(math.pi, alpha, [-1.0]), 2 * math.pi)
           - value(oscillator, u_one, 2 * math.pi))
    predict = alpha * ref.delta_hamiltonian(-1.0, math.pi, 2 * math.pi)
    assert gap == pytest.approx(predict, abs=5 * alpha ** 2)


@pytest.mark.parametrize("example", ["oscillator", "integrator"])
def test_needle_limit_check_first_order_rate(example, oscillator, integrator, u_one):
    problem = oscillator if example == "oscillator" else integrator
    alphas = [1e-1 * 2.0 ** -k for k in range(10)]
    report = needle_limit_check(problem, u_one, 1.0, [0.0], 20.0, alphas)
    assert report.fitted_order >= 0.9
    assert report.errors[-1] < report.errors[0]


def test_needle_limit_check_trivial_direction(oscillator, u_one):
    report = needle_limit_check(oscillator, u_one, 1.0, [1.0], 20.0, [1e-1, 1e-2])
    assert report.prediction == 0.0
    assert np.all(report.slopes == 0.0)


def test_needle_limit_check_ramsey_saddle(ramsey_params, ramsey_saddle):
    _, _, control = ramsey_saddle
    problem = ramsey_params.problem()
    u_lower = [0.9 * float(control.evaluate(5.0)[0])]
    report = needle_limit_check(problem, control, 5.0, u_lower, 100.0, [1e-1, 1e-2, 1e-3])
    assert report.fitted_order >= 0.9


@pytest.fixture
def payoff_solves(monkeypatch):
    """Count the payoff_value solves made through the overtaking module."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    original = overtaking.payoff_value
    monkeypatch.setattr(overtaking, "payoff_value", counting)
    return calls


def test_needle_limit_check_integrates_base_once(oscillator, u_one, payoff_solves):
    alphas = [1e-1, 1e-2, 1e-3]
    report = needle_limit_check(oscillator, u_one, 1.0, [0.0], 20.0, alphas)
    # one payoff_value call carries the base control and every needled one
    assert [len(controls) for controls in payoff_solves] == [len(alphas) + 1]
    # the slopes of one-shot needled-minus-base payoffs, each from a pass of
    # its own, to the payoff tolerances: the stacked pass takes other steps
    base = value(oscillator, u_one, 20.0)
    one_shot = [(value(oscillator, u_one.with_needle(1.0, alpha, [0.0]), 20.0) - base) / alpha
                for alpha in report.alphas]
    for alpha, slope, lone in zip(report.alphas.tolist(), report.slopes.tolist(), one_shot):
        assert abs(slope - lone) * alpha <= 1e-10 * max(1.0, abs(base))


def test_needle_limit_check_validates_every_width(oscillator, u_one, payoff_solves):
    # the widest pulse starts before t0 = 0; nothing is integrated
    with pytest.raises(ValueError, match="inside"):
        needle_limit_check(oscillator, u_one, 1.0, [0.0], 20.0, [1e-1, 2.0])
    with pytest.raises(ValueError, match="admissible"):
        needle_limit_check(oscillator, u_one, 1.0, [5.0], 20.0, [1e-1])
    # a NaN width used to drop the pulse silently and give a NaN slope
    for width in (math.nan, math.inf, 0.0, -1e-2):
        with pytest.raises(ValueError, match="finite and positive"):
            needle_limit_check(oscillator, u_one, 1.0, [0.0], 20.0, [1e-2, width])
    # the error order used to come out as inf, or fitted through one point
    for alphas in ([], [1e-1], [1e-1, 1e-1]):
        with pytest.raises(ValueError, match="two distinct"):
            needle_limit_check(oscillator, u_one, 1.0, [0.0], 20.0, alphas)
    assert payoff_solves == []


def test_needle_limit_check_rejects_a_nan_tau_before_integrating(oscillator, u_one,
                                                                payoff_solves, monkeypatch):
    # every comparison with a NaN tau is False, so the interval test used to
    # pass it and the state was solved before the anchor check failed
    def no_pass(*args):
        raise AssertionError("transition pass made")

    monkeypatch.setattr(overtaking, "transition_matrix", no_pass)
    with pytest.raises(ValueError, match=r"inside \[t0, T\]"):
        needle_limit_check(oscillator, u_one, math.nan, [0.0], 20.0, [1e-1, 1e-2])
    assert payoff_solves == []


def test_payoff_path_step_pin(oscillator, u_one):
    # accepted steps of the payoff solve of u = 1 on the oscillator to T = 100
    # at the overtaking settings; a change to the payoff right-hand side or
    # the stepping core that moves them must update this count
    path, = payoff_value(oscillator, [u_one], 100.0)
    assert path.time_grid.size == 531
    assert path.states[-1, 2] == pytest.approx(1.0 - math.cos(100.0) + 50.0, abs=1e-9)


def test_overtaking_reuses_candidate_path(oscillator, u_one, payoff_solves):
    challenger = ControlSignal.piecewise_constant([math.pi], [[0.0], [1.0]])
    path, chal_path = payoff_value(oscillator, [u_one, challenger], 100.0)
    del payoff_solves[:]
    report = empirical_overtaking_test(oscillator, path, chal_path, eps=1e-6, T_max=100.0,
                                       sample_spacing=0.02)
    assert payoff_solves == []  # both paths are given
    assert report.verdict == "consistent_WOO_only"
    # a path past T_max serves as well, with the same gaps up to T_max
    longer, = payoff_value(oscillator, [u_one], 150.0)
    longer = empirical_overtaking_test(oscillator, longer, chal_path, eps=1e-6, T_max=100.0,
                                       sample_spacing=0.02)
    assert longer.verdict == report.verdict
    assert longer.max_gap == pytest.approx(report.max_gap, abs=1e-9)


def test_overtaking_reads_the_payoff_columns_alone(oscillator, u_one, monkeypatch):
    # the test and its gap_fn read column n of each path through a one-column
    # view, which gives the full read's payoff column bit for bit
    delayed = ControlSignal.piecewise_constant([math.pi], [[0.0], [1.0]])
    candidate, challenger = payoff_value(oscillator, [u_one, delayed], 30.0)
    widths, call = [], Trajectory.__call__
    monkeypatch.setattr(Trajectory, "__call__",
                        lambda self, t: widths.append(self.dim) or call(self, t))
    report = empirical_overtaking_test(oscillator, candidate, challenger, eps=1e-6,
                                       T_max=30.0, sample_spacing=0.02)
    grid = np.linspace(0.0, 30.0, 777)
    gaps, gap = report.gap_fn(grid), report.gap_fn(7.5)
    assert widths == [1] * 6
    monkeypatch.undo()
    assert np.array_equal(gaps, challenger(grid)[:, 2] - candidate(grid)[:, 2])
    assert gap == challenger(7.5)[2] - candidate(7.5)[2]


def test_overtaking_rejects_short_candidate_path(oscillator, u_one):
    challenger = ControlSignal.piecewise_constant([math.pi], [[0.0], [1.0]])
    short, chal_short = payoff_value(oscillator, [u_one, challenger], 50.0)
    path, chal_path = payoff_value(oscillator, [u_one, challenger], 100.0)
    with pytest.raises(ValueError, match="candidate path"):
        empirical_overtaking_test(oscillator, short, chal_path, eps=1e-6, T_max=100.0,
                                  sample_spacing=0.02)
    with pytest.raises(ValueError, match="challenger path"):
        empirical_overtaking_test(oscillator, path, chal_short, eps=1e-6, T_max=100.0,
                                  sample_spacing=0.02)


@pytest.mark.parametrize("T_max", [0.0, -1.0, math.nan])
def test_overtaking_rejects_a_horizon_not_after_t0(oscillator, u_one, T_max, payoff_solves):
    challenger = ControlSignal.piecewise_constant([math.pi], [[0.0], [1.0]])
    paths = payoff_value(oscillator, [u_one, challenger], 40.0)
    del payoff_solves[:]
    with pytest.raises(ValueError, match="must exceed t0"):
        empirical_overtaking_test(oscillator, *paths, eps=1e-6, T_max=T_max,
                                  sample_spacing=0.02)
    assert payoff_solves == []


def test_overtaking_checkpoints_follow_t0(oscillator, u_one):
    # the tail windows start at t0 + (T_max - t0) * {1/8, 1/4, 1/2}
    late = dataclasses.replace(oscillator, initial_time=10.0)
    challenger = ControlSignal.piecewise_constant([10.0 + math.pi], [[0.0], [1.0]])
    report = overtake(late, u_one, challenger, 50.0)
    assert [w.split(":")[0] for w in report.evidence.split("; ")[-3:]] == [
        "[15,20]", "[20,30]", "[30,50]"]


@pytest.mark.parametrize("eps", [math.nan, -1e-6, -math.inf])
def test_overtaking_rejects_nan_and_negative_eps(oscillator, u_one, eps, payoff_solves):
    # every comparison with a NaN eps is False, which used to read as gaps
    # that never exceed eps: consistent_OO where the verdict is WOO only
    challenger = ControlSignal.piecewise_constant([math.pi], [[0.0], [1.0]])
    paths = payoff_value(oscillator, [u_one, challenger], 40.0)
    del payoff_solves[:]
    with pytest.raises(ValueError, match="eps"):
        empirical_overtaking_test(oscillator, *paths, eps=eps, T_max=40.0,
                                  sample_spacing=0.02)
    assert payoff_solves == []


@pytest.mark.parametrize("example, params", [("oscillator", {"b": 0.5}),
                                             ("integrator", {"rho": 0.1})])
def test_overtake_report_integrates_candidate_once(example, params, payoff_solves):
    # one payoff_value call, for the candidate and every challenger
    report = build_overtake_report(RunConfig(example, params, t_max=40.0))
    assert [len(controls) for controls in payoff_solves] == [1 + len(report.rows)]


@pytest.fixture
def passes(monkeypatch):
    """Count the integrate_controlled passes that the overtaking module makes."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    original = overtaking.integrate_controlled
    monkeypatch.setattr(overtaking, "integrate_controlled", counting)
    return calls


@pytest.mark.parametrize("example, params, count", [("oscillator", {"b": 0.5}, 1),
                                                    ("integrator", {"rho": 0.1}, 1),
                                                    ("ramsey", FIG1, 3)])
def test_overtake_report_passes(example, params, count, passes):
    # the piecewise-constant controls share one pass; each Ramsey control,
    # read off an orbit, runs in a pass of its own
    build_overtake_report(RunConfig(example, params, t_max=40.0 if example != "ramsey" else None))
    assert len(passes) == count


def _assert_same_paths(path, solo, n):
    """path agrees with solo on a grid and at its end, within 1e-9 max(1, |J|)."""
    assert path.t_end == solo.t_end
    ts = np.linspace(solo.t0, solo.t_end, 401)
    got, want = path(ts), solo(ts)
    scale = np.maximum(1.0, np.abs(want[:, n]))[:, None]
    assert np.all(np.abs(got - want) <= 1e-9 * scale)
    assert np.all(np.abs(path.states[-1] - solo.states[-1])
                  <= 1e-9 * max(1.0, abs(solo.states[-1, n])))


@pytest.mark.parametrize("example, params", [("oscillator", {"b": 0.5}),
                                             ("integrator", {"rho": 0.1})])
def test_stacked_members_match_their_own_passes(example, params, payoff_solves):
    build_overtake_report(RunConfig(example, params, t_max=100.0))
    controls, = payoff_solves
    assert len(controls) == 4
    problem = make_builtin_problem(example, params)
    for control, path in zip(controls, payoff_value(problem, controls, 100.0)):
        solo, = payoff_value(problem, [control], 100.0)
        assert path.exit_event is None and solo.exit_event is None
        _assert_same_paths(path, solo, problem.state_dim)


@pytest.mark.xfail(strict=True, reason=(
    "known defect, the FOUND line of CHANGES.md on stacked members' rounding: the BLAS gemv "
    "of _run_stages' a.dot(head) rounds identical columns by their place in the stack"))
def test_identical_controls_in_one_pass_get_bit_equal_payoffs(oscillator):
    # three equal but distinct controls share one stacked pass; each member
    # integrates the same equations, so their payoffs should agree bit for bit
    paths = payoff_value(oscillator, [ControlSignal.constant([1.0]) for _ in range(3)], 20.0)
    payoffs = [path.states[-1, -1] for path in paths]
    assert payoffs[0] == payoffs[1] == payoffs[2], [p.hex() for p in payoffs]


def test_stacked_field_calls_f_and_g_once_per_stage(oscillator, u_one, monkeypatch):
    calls = {}
    problem = counted(oscillator, calls)
    original = overtaking._stacked_rhs

    def stacked_rhs(problem, members):
        rhs = original(problem, members)

        def counting(z, u, t):
            calls["rhs"] += 1
            return rhs(z, u, t)
        return counting

    monkeypatch.setattr(overtaking, "_stacked_rhs", stacked_rhs)
    calls["rhs"] = 0
    controls = [u_one, *(u_one.with_needle(s, 1.0, [-1.0]) for s in (2.0, 5.0, 9.0))]
    payoff_value(problem, controls, 30.0)
    assert calls["rhs"] > 0 and calls["f"] == calls["g"] == calls["rhs"]


def test_integrator_overtake_gaps_match_the_closed_forms(monkeypatch):
    # the overtake report of the integrator prints max_gap 0 for every
    # challenger, so its golden pins no payoff value: each challenger's gap
    # on the sampling grid is checked here against the closed form, for
    # rho = 0.1 and the candidate u = 1 with payoff (1 - e^{-rho T}(1 + rho T))/rho^2
    reports = []

    def recording(*args, **kwargs):
        reports.append(empirical_overtaking_test(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "empirical_overtaking_test", recording)
    build_overtake_report(RunConfig("integrator", {"rho": 0.1}, None))
    rho, T = 0.1, np.linspace(0.0, 400.0, 20_000)  # the sampling grid: spacing 0.02 to 400

    def ramp(T):
        """The payoff of u = 1 over [0, T], the integral of t e^{-rho t}."""
        return (1.0 - np.exp(-rho * T) * (1.0 + rho * T)) / rho ** 2

    J = ramp(T)
    delayed = np.exp(-rho) * ramp(np.maximum(T - 1.0, 0.0))  # u = 0 until s = 1, then 1
    exact = [-J, delayed - J, -0.5 * J]  # u = 0, delayed start, u = 0.5
    assert len(reports) == len(exact)
    for report, gap in zip(reports, exact):
        assert np.all(np.abs(report.gap_fn(T) - gap) <= 1e-8 * np.maximum(1.0, np.abs(J)))


def _bounded_drift():
    """dx/dt = u with payoff rate x on the domain x < 1, from x = 0."""
    return ControlProblem(
        state_dim=1, control_dim=1, dynamics=lambda x, u, t: u[..., :1].copy(),
        payoff=lambda x, u, t: x[..., 0].copy(), control_set=ControlSet.box([-1.0], [1.0]),
        state_domain=Box.from_bounds([-np.inf], [1.0]), initial_state=[0.0])


def test_stacked_member_that_leaves_the_domain_gets_its_own_exit(passes):
    # u = 0.5 reaches x = 1 at t = 2 and the delayed 0.5 at t = 3; each pass
    # ends at the first exit, and the members still inside run again
    problem = _bounded_drift()
    controls = [ControlSignal.constant([0.1]), ControlSignal.constant([0.5]),
                ControlSignal.piecewise_constant([1.0], [[0.0], [0.5]]),
                ControlSignal.constant([-1.0])]
    T = 4.0
    paths = payoff_value(problem, controls, T)
    assert len(passes) == 3
    del passes[:]
    for control, path, exit_time in zip(controls, paths, (None, 2.0, 3.0, None)):
        solo, = payoff_value(problem, [control], T)
        if exit_time is None:
            assert path.exit_event is None and solo.exit_event is None
            _assert_same_paths(path, solo, 1)
            continue
        event, own = path.exit_event, solo.exit_event
        assert abs(event.time - own.time) <= 1e-9 * T
        assert event.time == pytest.approx(exit_time, abs=1e-8)
        assert event.description == own.description == "y[0] reached upper bound 1"
        assert path.dim == 2 and path.t_end == event.time
        # both rates, u and x, are at most 1 in size before the exit
        assert np.all(np.abs(event.state - own.state) <= 1e-9 * T)
    assert len(passes) == len(controls)


def test_overtaking_refuses_a_candidate_that_leaves_the_domain():
    problem = _bounded_drift()
    leaving, staying = payoff_value(
        problem, [ControlSignal.constant([0.5]), ControlSignal.constant([0.1])], 4.0)
    with pytest.raises(NonExtendibleError, match="reached upper bound 1"):
        empirical_overtaking_test(problem, leaving, staying, eps=1e-6, T_max=4.0,
                                  sample_spacing=0.02)
    report = empirical_overtaking_test(problem, staying, leaving, eps=1e-6, T_max=4.0,
                                       sample_spacing=0.02)
    assert report.verdict == "non_extendible_challenger"
    assert report.evidence.startswith("challenger exits the state domain at t=2 ")


def test_overtaking_oscillator_woo_only(oscillator, u_one):
    challenger = ControlSignal.piecewise_constant([math.pi], [[0.0], [1.0]])
    report = overtake(oscillator, u_one, challenger, 400.0)
    assert report.verdict == "consistent_WOO_only"
    assert report.max_gap == pytest.approx(2 - math.pi / 2, abs=1e-3)
    assert report.argmax_T % (2 * math.pi) == pytest.approx(0.0, abs=0.05) or \
        report.argmax_T % (2 * math.pi) == pytest.approx(2 * math.pi, abs=0.05)


def test_overtaking_oscillator_oo_when_b_large(u_one):
    from horizoncheck import make_builtin_problem

    problem = make_builtin_problem("oscillator", {"b": 1.5})
    challenger = ControlSignal.piecewise_constant([math.pi], [[0.0], [1.0]])
    report = overtake(problem, u_one, challenger, 400.0)
    assert report.verdict == "consistent_OO"


def test_overtaking_gap_additivity(oscillator, u_one):
    challenger = ControlSignal.piecewise_constant([math.pi], [[0.0], [1.0]])
    report = overtake(oscillator, u_one, challenger, 100.0)
    for T in (11.0, 47.0, 93.0):
        direct = value(oscillator, challenger, T) - value(oscillator, u_one, T)
        assert report.gap_fn(T) == pytest.approx(direct, abs=1e-7)


def test_overtaking_violates_woo_detected(integrator_undiscounted, u_one):
    # swap roles: u = 0 as candidate is beaten by u = 1 at every horizon
    challenger = u_one
    candidate = ControlSignal.constant([0.0])
    report = overtake(integrator_undiscounted, candidate, challenger, 200.0)
    assert report.verdict == "violates_WOO"


def test_overtaking_ramsey_challengers(ramsey_params, ramsey_saddle):
    problem = ramsey_params.problem()
    c0, _, candidate = ramsey_saddle
    high = ramsey_control_from_orbit(
        ramsey_euler_orbit(ramsey_params, 10.0, c0 + 0.5, 2000.0))
    low = ramsey_control_from_orbit(
        ramsey_euler_orbit(ramsey_params, 10.0, c0 - 0.5, 2000.0))
    rep_high = overtake(problem, candidate, high, 2000.0, sample_spacing=0.25)
    rep_low = overtake(problem, candidate, low, 2000.0, sample_spacing=0.25)
    assert rep_high.verdict == "non_extendible_challenger"
    assert rep_low.verdict == "consistent_OO"


def test_oscillator_delta_x1_values():
    assert oscillator_delta_x1(ControlSignal.constant([1.0]), 13.0) == 0.0
    assert oscillator_delta_x1(ControlSignal.constant([0.0]), 2 * math.pi) == \
        pytest.approx(0.0, abs=1e-14)
    assert oscillator_delta_x1(ControlSignal.constant([0.0]), math.pi) == \
        pytest.approx(-2.0, abs=1e-14)


def test_appendix_identity_random_piecewise_controls():
    rng = np.random.default_rng(1234)
    for _ in range(10):
        k = int(rng.integers(2, 7))
        times = np.sort(rng.uniform(0.3, 6 * math.pi, size=k))
        values = rng.uniform(0.0, 1.0, size=(k + 1, 1))
        control = ControlSignal.piecewise_constant(times, values)
        for n in (1, 2, 3):
            residual, tail = appendix_identity_residual(control, n)
            assert residual <= 1e-8
            assert tail >= -1e-12


def test_oscillator_delta_x1_closed_form_control_quadrature():
    # u = 0.5 given as a closed form takes the trapezoid branch; the exact
    # value is -0.5 (1 - cos T), and the trapezoid error on n nodes is at
    # most T dt^2 / 12 * max|f''| with |f''| = 0.5 |sin| <= 0.5
    T, n_quad = 10.0, 4001
    closed = ControlSignal([], [lambda t: np.array([0.5])], 1)
    exact = oscillator_delta_x1(ControlSignal.constant([0.5]), T)
    assert exact == pytest.approx(-0.5 * (1.0 - math.cos(T)), abs=1e-14)
    dt = T / (n_quad - 1)
    assert abs(oscillator_delta_x1(closed, T) - exact) <= T * dt ** 2 / 24.0


def test_oscillator_delta_x1_closed_form_control_with_needle():
    # u = 1 as a closed form with a needle to 0 on (2.7, 3]: the integrand
    # vanishes off the needle, so the result is the piecewise-constant value
    # -(cos(T - 3) - cos(T - 2.7)) up to the 2.6e-6 trapezoid bound
    T = 10.0
    closed = ControlSignal([], [lambda t: np.array([1.0])], 1).with_needle(3.0, 0.3, [0.0])
    exact = oscillator_delta_x1(ControlSignal.constant([1.0]).with_needle(3.0, 0.3, [0.0]), T)
    assert exact == pytest.approx(-(math.cos(T - 3.0) - math.cos(T - 2.7)), abs=1e-14)
    assert abs(oscillator_delta_x1(closed, T) - exact) <= 2.6e-6
