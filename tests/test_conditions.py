import math
import warnings

import numpy as np
import pytest

from horizoncheck import (
    Box,
    ControlProblem,
    ControlSet,
    ControlSignal,
    IntegratorReference,
    JxRecord,
    TailSamples,
    Verdict,
    check_classical,
    check_general,
    check_gmax,
    check_jx_bounded,
    check_max_principle,
    decompose_costate,
    dense_horizon_grid,
    hamiltonian,
    hamiltonian_jumps,
    integrate_adjoint,
    jx_scan,
    limit_costate,
    oscillator_reference,
    transition_matrix,
)
from horizoncheck import conditions
from horizoncheck.conditions import (
    TAIL_FAIL_TOL,
    TAIL_HOLD_TOL,
    tail_limit_verdict,
    tail_rule,
    tail_windows,
)

from conftest import STANDARD, TIGHT, counted, record_limits
from oracles import OscillatorOracle


def test_delta_hamiltonian_oracles(oscillator, osc_traj_30, osc_op_30, u_one,
                                   integrator_undiscounted):
    # H(x(tau), u, tau, grad(tau, T), 1) - H(x(tau), 1, tau, grad(tau, T), 1)
    low, same = hamiltonian_jumps(oscillator, osc_traj_30(0.0), u_one.evaluate(0.0), 0.0,
                                  [[-1.0], [1.0]], osc_op_30.gradient(0.0, math.pi / 2), 1.0)
    assert low == pytest.approx(-3.0, abs=1e-8)
    assert same == 0.0

    op = transition_matrix(integrator_undiscounted, u_one, 10.0, settings=TIGHT)
    jump = hamiltonian_jumps(integrator_undiscounted, op.trajectory(1.0), u_one.evaluate(1.0),
                             1.0, [[0.0]], op.gradient(1.0, 5.0), 1.0)[0]
    assert jump == pytest.approx(-4.0, abs=1e-9)


def test_check_general_oscillator_verdicts(oscillator, osc_op_400, u_one):
    records = jx_scan(osc_op_400, [0.0], dense_horizon_grid(0.0, 400.0))
    report = check_general(oscillator, osc_op_400, u_one, records)
    assert list(report.verdicts) == ["WOO", "OO"]
    assert report.verdicts["WOO"].status is Verdict.HOLDS
    assert report.verdicts["OO"].status is Verdict.FAILS
    woo, oo = report.estimates
    ref = OscillatorOracle(0.5)
    ugrid = oscillator.control_set.sample_grid(conditions._CONTROL_RESOLUTION)[:, 0]
    for u in (-1.0, 0.0, 0.5):
        j = int(np.argmin(np.abs(ugrid - u)))
        assert woo[0, j] == pytest.approx(ref.woo_bound(u), abs=5e-3)
        assert oo[0, j] == pytest.approx(ref.oo_bound(u), abs=5e-3)


def test_check_general_diagonal_identity(oscillator, osc_op_400, u_one):
    records = jx_scan(osc_op_400, [0.0, 3.0], dense_horizon_grid(0.0, 400.0))
    woo = check_general(oscillator, osc_op_400, u_one, records).estimates[0]
    ugrid = oscillator.control_set.sample_grid(conditions._CONTROL_RESOLUTION)[:, 0]
    j_one = int(np.argmin(np.abs(ugrid - 1.0)))
    assert woo[0, j_one] == 0.0
    assert woo[1, j_one] == 0.0


def test_check_general_integrator_both_modes(integrator, integrator_undiscounted,
                                             u_one):
    for problem in (integrator, integrator_undiscounted):
        op = transition_matrix(problem, u_one, 400.0, settings=STANDARD)
        records = jx_scan(op, [0.0], dense_horizon_grid(0.0, 400.0))
        report = check_general(problem, op, u_one, records)
        for mode, verdict in report.verdicts.items():
            assert verdict.status is Verdict.HOLDS, (problem.name, mode)


def test_check_general_refinement_stability(oscillator, osc_op_400, u_one, monkeypatch):
    monkeypatch.setattr(conditions, "_CONTROL_RESOLUTION", 9)
    coarse = check_general(oscillator, osc_op_400, u_one,
                           jx_scan(osc_op_400, [0.0], np.linspace(0.0, 400.0, 10001)))
    fine = check_general(oscillator, osc_op_400, u_one,
                         jx_scan(osc_op_400, [0.0], dense_horizon_grid(0.0, 400.0)))
    assert fine.estimates.shape == (2, 1, 9)

    def side(e):  # above +VERDICT_SLACK, within it, or below -VERDICT_SLACK
        return int(e > conditions.VERDICT_SLACK) - int(e < -conditions.VERDICT_SLACK)

    # the limsup (OO) cells
    assert [side(e) for e in coarse.estimates[1].ravel()] == [
        side(e) for e in fine.estimates[1].ravel()]
    assert coarse.verdicts["OO"].status is fine.verdicts["OO"].status


def test_both_general_modes_judge_one_table_per_anchor(oscillator, osc_op_30, u_one,
                                                       monkeypatch):
    # one hamiltonian_jumps call per anchor: the WOO cells take the min and
    # the OO cells the max of its table over the last half of the span
    records = jx_scan(osc_op_30, [0.0, 3.0], dense_horizon_grid(0.0, 30.0))
    controls = oscillator.control_set.sample_grid(conditions._CONTROL_RESOLUTION)
    tables = [hamiltonian_jumps(oscillator, osc_op_30.trajectory(rec.tau), u_one.evaluate(rec.tau),
                                rec.tau, controls, rec.values, 1.0) for rec in records]
    anchors, jumps = [], conditions.hamiltonian_jumps
    monkeypatch.setattr(conditions, "hamiltonian_jumps",
                        lambda *args: anchors.append(args[3]) or jumps(*args))
    report = check_general(oscillator, osc_op_30, u_one, records)
    assert anchors == [0.0, 3.0]
    assert report.estimates.shape == (2, 2, controls.shape[0])
    for i, (rec, dH) in enumerate(zip(records, tables)):
        last = rec.T_grid > rec.tau + 0.5 * float(rec.T_grid[-1] - rec.tau)
        assert np.array_equal(report.estimates[0, i], dH[last].min(axis=0))
        assert np.array_equal(report.estimates[1, i], dH[last].max(axis=0))


def test_check_jx_bounded_three_regimes(oscillator, integrator,
                                        integrator_undiscounted, u_one):
    outcomes = []
    for problem in (oscillator, integrator, integrator_undiscounted):
        op = transition_matrix(problem, u_one, 250.0, settings=STANDARD)
        rec = jx_scan(op, [0.0], dense_horizon_grid(0.0, 250.0))[0]
        verdict = check_jx_bounded(rec)
        outcomes.append((verdict.status, verdict.estimate))
    (s_osc, m_osc), (s_int, m_int), (s_und, _) = outcomes
    assert s_osc is Verdict.HOLDS and m_osc == pytest.approx(2.0, abs=1e-3)
    assert s_int is Verdict.HOLDS and m_int == pytest.approx(10.0, abs=1e-3)
    assert s_und is Verdict.FAILS


def _oscillator_battery(b, t_max, settings=STANDARD):
    from horizoncheck import make_builtin_problem

    problem = make_builtin_problem("oscillator", {"b": b})
    ref = oscillator_reference(b)
    u_one = ControlSignal.constant([1.0])
    op = transition_matrix(problem, u_one, t_max, settings=settings)
    return problem, ref, u_one, op


def test_classical_conditions_oscillator_battery():
    t_max = 400.0
    problem, ref, u_one, op = _oscillator_battery(0.5, t_max)
    keys = [(0.0, 0.0), (0.25, 0.7), (0.5, -math.pi / 2)]
    costates = [integrate_adjoint(op, t_max, ref.costate(r, phi, t_max), 1.0) for r, phi in keys]
    for key, verdicts in zip(keys, check_classical(problem, u_one, TailSamples(costates))):
        assert verdicts["tcPSI"].status is Verdict.FAILS
        assert verdicts["tcXPSI"].status is Verdict.FAILS
        assert verdicts["tcKAV"].status is Verdict.FAILS
        expect_m = Verdict.HOLDS if key == (0.5, -math.pi / 2) else Verdict.FAILS
        assert verdicts["tcM"].status is expect_m, key


def test_classical_xpsi_branch_needs_b_at_least_one():
    t_max = 400.0
    problem, ref, u_one, op = _oscillator_battery(1.5, t_max)
    costate = integrate_adjoint(op, t_max, ref.costate(1.0, 0.0, t_max), 1.0)
    [verdicts] = check_classical(problem, u_one, TailSamples([costate]))
    assert verdicts["tcXPSI"].status is Verdict.HOLDS
    assert verdicts["tcPSI"].status is Verdict.FAILS
    assert verdicts["tcKAV"].status is Verdict.FAILS
    # inadmissible for b = 0.5: |r| = 1 > b
    with pytest.raises(ValueError):
        oscillator_reference(0.5).costate(1.0, 0.0, 0.0)


def test_tail_rule_thresholds():
    # a flat tail has no trend: its excess alone decides
    assert [tail_rule([s, s], TAIL_HOLD_TOL, TAIL_FAIL_TOL)[0]
            for s in (0.0, 9.9e-5, 1e-4, 9.9e-3, 1e-2, math.inf, math.nan)] == [
        Verdict.HOLDS, Verdict.HOLDS, Verdict.INCONCLUSIVE, Verdict.INCONCLUSIVE,
        Verdict.FAILS, Verdict.FAILS, Verdict.INCONCLUSIVE]
    # a limit of zero needs both a flat tail and a small mean
    assert tail_limit_verdict([5e-5] * 3, [5e-5] * 3, "flat").status is Verdict.HOLDS
    assert tail_limit_verdict([0.5] * 3, [0.5] * 3, "offset").status is Verdict.FAILS
    wobble = [0.0, 1e-3, 0.0]
    assert tail_limit_verdict(wobble, wobble, "wobble").status is Verdict.INCONCLUSIVE
    # an all-infinite tail has a NaN oscillation but fails on its mean
    assert tail_limit_verdict([math.inf] * 3, [math.inf] * 3,
                              "blow-up").status is Verdict.FAILS
    # the estimate is the tail's judged excess max(|mean|, oscillation),
    # not its last value
    assert tail_limit_verdict([0.0, 1.0, -1.0], [0.5] * 3, "swing").estimate == 2.0
    assert tail_limit_verdict([-0.5] * 3, [0.5] * 3, "offset").estimate == 0.5


def test_tail_rule_sees_a_trend_beyond_its_slack():
    # each window must leave (1 +- 0.1) times the one before, widened by 1e-3
    assert tail_rule([1.0, 0.89], TAIL_HOLD_TOL, TAIL_FAIL_TOL)[0] is Verdict.INCONCLUSIVE
    assert tail_rule([1.0, 0.9], TAIL_HOLD_TOL, TAIL_FAIL_TOL)[0] is Verdict.FAILS
    assert tail_rule([0.0, 5e-4], 1e-6, 1e-6)[0] is Verdict.FAILS
    assert tail_rule([-1.0, -0.5, 0.0], 1e-6, 1e-6)[0] is Verdict.INCONCLUSIVE
    assert tail_rule([-0.5, -1.0, -1.05], 1e-6, 1e-6)[0] is Verdict.HOLDS
    # the note gives the mean shrink per window
    status, note = tail_rule([1.0, 0.5, 0.25], TAIL_HOLD_TOL, TAIL_FAIL_TOL)
    assert status is Verdict.INCONCLUSIVE
    assert note == "; shrinks x0.5 per window, a longer horizon may decide"
    # a tail that fell but ends above where it began is no failure either,
    # and it earns no shrink note
    assert tail_rule([0.25, 1.0, 0.5], TAIL_HOLD_TOL, TAIL_FAIL_TOL) == (Verdict.INCONCLUSIVE, "")


def _tail_of(f, t_end=400.0):
    """f on the tail window of 4000 times across [0, t_end] and on the window
    before it."""
    t = np.linspace(0.0, t_end, 4000)
    earlier, tail = tail_windows(t)
    return f(t[tail]), f(t[earlier])


@pytest.mark.parametrize("f, status, shrink", [
    # per-window factors e^-1 = 0.37 and e^-0.5 = 0.61 on windows of 100
    (lambda t: np.exp(-t / 100), Verdict.INCONCLUSIVE, math.exp(-1.0)),
    (lambda t: np.exp(-t / 200), Verdict.INCONCLUSIVE, math.exp(-0.5)),
    (lambda t: np.full_like(t, 0.5), Verdict.FAILS, None),
    (np.sin, Verdict.FAILS, None),
    (lambda t: t / 100, Verdict.FAILS, None),
    (lambda t: 1e-5 * np.exp(-t / 100), Verdict.HOLDS, None),
    (lambda t: np.full_like(t, np.inf), Verdict.FAILS, None),
    (lambda t: np.full_like(t, np.nan), Verdict.INCONCLUSIVE, None),
], ids=["decay-0.37", "decay-0.61", "offset", "sine", "linear", "below-hold", "inf", "nan"])
def test_tail_rule_on_synthetic_tails(f, status, shrink):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = tail_limit_verdict(*_tail_of(f), "synthetic")
    assert verdict.status is status
    if shrink is None:
        assert "shrinks" not in verdict.note
    else:
        factor = float(verdict.note.split("shrinks x")[1].split()[0])
        assert factor == pytest.approx(shrink, rel=1e-2)
        assert verdict.note.endswith(", a longer horizon may decide")


def test_tail_windows_of_fewer_than_three_points_are_inconclusive():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (0, 1, 2):
            for earlier in ([0.5] * n, [0.5] * 3):
                verdict = tail_limit_verdict([0.5] * n, earlier, "short")
                assert verdict.status is Verdict.INCONCLUSIVE
                # fewer than 3 samples have no excess; an empty tail has none
                if n:
                    assert math.isnan(verdict.estimate)
                else:
                    assert verdict.estimate is None
            assert tail_limit_verdict([0.5] * 3, [0.5] * n,
                                      "short").status is Verdict.INCONCLUSIVE
        # four horizons leave one point in the last quarter
        record = JxRecord(tau=0.0, T_grid=[0.0, 1.0, 2.0, 3.0], values=[[0.0], [1.0], [1.5], [1.6]])
        psi_hat, verdict = limit_costate(record, check_jx_bounded(record))
    assert psi_hat is None and verdict.status is Verdict.INCONCLUSIVE


def test_classical_conditions_integrator(integrator, int_traj_400, int_op_400,
                                         integrator_undiscounted, u_one):
    t_max = 400.0
    ref = IntegratorReference(0.1)
    costate = integrate_adjoint(int_op_400, t_max, [float(ref.costate(0.0, 1.0, t_max))], 1.0)
    [verdicts] = check_classical(integrator, u_one, TailSamples([costate]))
    assert all(v.status is Verdict.HOLDS for v in verdicts.values())

    op0 = transition_matrix(integrator_undiscounted, u_one, t_max,
                            settings=STANDARD)
    abnormal = integrate_adjoint(op0, t_max, [1.0], 0.0)
    [verdicts0] = check_classical(integrator_undiscounted, u_one, TailSamples([abnormal]))
    assert all(v.status is Verdict.FAILS for v in verdicts0.values())


def test_classical_over_many_costates_matches_lone_calls(oscillator, osc_traj_30, osc_op_30,
                                                        u_one):
    # one shared sweep judges every costate as a lone call does; only the
    # Hamiltonian, formed from a stack of psi rows, may differ by round-off
    ref = oscillator_reference(0.5)
    costates = [integrate_adjoint(osc_op_30, 30.0, ref.costate(r, phi, 30.0), lam)
                for r, phi, lam in ((0.5, -math.pi / 2, 1.0), (0.3, 0.7, 0.0),
                                    (0.25, 0.7, 1.0), (0.0, 0.0, 1.0))]
    together = check_classical(oscillator, u_one, TailSamples(costates))
    # H is constant along each path: r sin(phi) + b = 0 only for the first
    assert [v["tcM"].status for v in together] == [Verdict.HOLDS, Verdict.FAILS,
                                                   Verdict.FAILS, Verdict.FAILS]
    for costate, verdicts in zip(costates, together):
        [alone] = check_classical(oscillator, u_one, TailSamples([costate]))
        assert list(verdicts) == list(alone) == ["tcPSI", "tcXPSI", "tcM", "tcKAV"]
        for cond_id, verdict in verdicts.items():
            assert verdict.status is alone[cond_id].status, cond_id
            if cond_id == "tcM":
                assert abs(verdict.estimate - alone[cond_id].estimate) <= 1e-12
            else:
                assert (verdict.estimate, verdict.note) == (alone[cond_id].estimate,
                                                            alone[cond_id].note), cond_id
    # the stacked Hamiltonian rows against lone rows on both tail windows
    lams = np.array([c.lam for c in costates])
    for t in TailSamples(costates).read.t.tolist():
        x, u = osc_op_30.trajectory(t), u_one.evaluate(t)
        rows = np.array([c.psi(t) for c in costates])
        lone = [hamiltonian(oscillator, x, u, t, row, lam) for row, lam in zip(rows, lams)]
        assert np.max(np.abs(hamiltonian(oscillator, x, u, t, rows, lams) - lone)) <= 1e-12


def test_classical_raises_on_a_non_finite_hamiltonian_in_the_tail(u_one):
    # the payoff turns NaN at t = 20, inside the tail window of [0, 30];
    # its analytic gradient keeps the pass finite
    problem = ControlProblem(
        state_dim=1, control_dim=1, dynamics=lambda x, u, t: u[..., :1].copy(),
        payoff=lambda x, u, t: np.where(np.less(t, 20.0), x[..., 0], math.nan),
        control_set=ControlSet.box([0.0], [1.0]), state_domain=Box.unbounded(1),
        initial_state=[0.0], dynamics_jac_x=lambda x, u, t: np.zeros((1, 1)),
        payoff_grad_x=lambda x, u, t: np.ones(1))
    op = transition_matrix(problem, u_one, 30.0, settings=STANDARD)
    costates = [integrate_adjoint(op, 30.0, [0.0], 1.0), integrate_adjoint(op, 30.0, [1.0], 0.0)]
    with pytest.raises(ValueError, match="non-finite Hamiltonian"):
        check_classical(problem, u_one, TailSamples(costates))
    # paths of two spans share no tail grid
    short = integrate_adjoint(op, 25.0, [0.0], 1.0)
    with pytest.raises(ValueError, match="share one span"):
        TailSamples([costates[0], short])


def test_costate_checks_refuse_paths_of_two_passes(integrator, u_one):
    # each check reads x, Y and S from its costates' own pass: paths of two
    # passes, even of one problem and one span, are refused, not mixed
    passes = [transition_matrix(integrator, u_one, 30.0, settings=settings)
              for settings in (STANDARD, TIGHT)]
    costates = [integrate_adjoint(op, 30.0, [1.0], 0.0) for op in passes]
    with pytest.raises(ValueError, match="share one span"):
        TailSamples(costates)
    with pytest.raises(ValueError, match="share one span"):
        check_max_principle(integrator, u_one, costates, time_grid=[0.0, 15.0, 30.0])
    # one pass alone is judged
    assert len(check_classical(integrator, u_one, TailSamples(costates[:1]))) == 1
    assert len(check_max_principle(integrator, u_one, costates[1:], time_grid=[0.0])) == 1


def test_max_principle_cases(integrator, int_op_400, integrator_undiscounted, oscillator,
                             osc_op_400, u_one):
    grid = np.linspace(0.0, 400.0, 201)
    ref = IntegratorReference(0.1)
    cp = integrate_adjoint(int_op_400, 400.0, [float(ref.costate(0.0, 1.0, 400.0))], 1.0)
    [held] = check_max_principle(integrator, u_one, [cp], time_grid=grid)
    assert held.status is Verdict.HOLDS

    op0 = transition_matrix(integrator_undiscounted, u_one, 400.0, settings=STANDARD)
    doomed = integrate_adjoint(op0, 400.0, [0.5 - 400.0], 1.0)
    [failed] = check_max_principle(integrator_undiscounted, u_one, [doomed], time_grid=grid)
    assert failed.status is Verdict.FAILS

    osc_ref = oscillator_reference(0.5)
    cp_osc = integrate_adjoint(osc_op_400, 400.0, osc_ref.costate(0.5, 1.1, 400.0), 1.0)
    [held_osc] = check_max_principle(oscillator, u_one, [cp_osc], time_grid=grid)
    assert held_osc.status is Verdict.HOLDS


def test_max_principle_calls_f_and_g_as_often_on_any_time_grid(oscillator, osc_op_30, u_one):
    # every (time, control) cell goes to one hamiltonian_jumps call
    ref = oscillator_reference(0.5)
    costates = [integrate_adjoint(osc_op_30, 30.0, ref.costate(r, phi, 30.0), lam)
                for r, phi, lam in ((0.5, -math.pi / 2, 1.0), (0.3, 0.7, 0.0))]
    calls, counts = {}, []
    problem = counted(oscillator, calls)
    for size in (2, 31, 601):
        calls.update(f=0, g=0)
        check_max_principle(problem, u_one, costates, time_grid=np.linspace(0.0, 30.0, size))
        counts.append(dict(calls))
    assert counts == [{"f": 2, "g": 2}] * 3


def test_max_principle_over_mixed_multipliers_matches_lone_calls(oscillator, osc_traj_30,
                                                                  osc_op_30, u_one):
    # the oscillator's payoff depends on u, so a lam given to the wrong psi
    # row would move its jumps; the costates with lam = 0 fail the check
    ref = oscillator_reference(0.5)
    grid = np.linspace(0.0, 30.0, 61)
    costates = [integrate_adjoint(osc_op_30, 30.0, ref.costate(r, phi, 30.0), lam)
                for r, phi, lam in ((0.5, -math.pi / 2, 1.0), (0.3, 0.7, 0.0),
                                    (0.25, 0.7, 1.0), (0.5, 0.0, 0.0))]
    together = check_max_principle(oscillator, u_one, costates, time_grid=grid)
    assert [v.status for v in together] == [Verdict.HOLDS, Verdict.FAILS,
                                            Verdict.HOLDS, Verdict.FAILS]
    for costate, verdict in zip(costates, together):
        [alone] = check_max_principle(oscillator, u_one, [costate], time_grid=grid)
        assert (verdict.status, verdict.estimate, verdict.note) == (alone.status, alone.estimate,
                                                                   alone.note)
    # the jumps of the stacked psi rows equal the lone rows' at every time
    controls = oscillator.control_set.sample_grid(conditions._CONTROL_RESOLUTION)
    lams = np.array([c.lam for c in costates])
    for t in grid.tolist():
        x, u = osc_traj_30(t), u_one.evaluate(t)
        rows = np.array([c.psi(t) for c in costates])
        stacked = hamiltonian_jumps(oscillator, x, u, t, controls, rows, lams)
        for k in range(len(costates)):
            lone = hamiltonian_jumps(oscillator, x, u, t, controls, rows[k:k + 1], lams[k:k + 1])
            assert np.array_equal(stacked[k], lone[0])


def test_decompose_costate_integrator(integrator, int_traj_400, int_op_400, u_one):
    records = jx_scan(int_op_400, [0.0, 5.0], dense_horizon_grid(0.0, 400.0))
    ref = IntegratorReference(0.1)
    cp = integrate_adjoint(int_op_400, 400.0, [float(ref.costate(0.7, 1.0, 400.0))], 1.0)
    [(a0, verdict)] = decompose_costate(TailSamples([cp]), record_limits(records))
    assert verdict.status is Verdict.HOLDS
    assert a0[0] == pytest.approx(0.7, abs=1e-6)
    assert verdict.estimate <= 1e-4

    homon = integrate_adjoint(int_op_400, 400.0, [0.7], 0.0)
    [(a0h, verdicth)] = decompose_costate(TailSamples([homon]), record_limits(records))
    assert verdicth.status is Verdict.HOLDS
    assert a0h[0] == pytest.approx(0.7, abs=1e-9)
    assert verdicth.estimate <= 1e-6


def test_decompose_costate_oscillator_never_settles(oscillator, osc_traj_400,
                                                    osc_op_400, u_one):
    ref = oscillator_reference(0.5)
    records = jx_scan(osc_op_400, [0.0], dense_horizon_grid(0.0, 400.0))
    for r in (0.0, 0.3):
        cp = integrate_adjoint(osc_op_400, 400.0, ref.costate(r, 0.0, 400.0), 1.0)
        [(a0, verdict)] = decompose_costate(TailSamples([cp]), record_limits(records))
        assert a0 is None and math.isnan(verdict.estimate)
        assert verdict.status is Verdict.FAILS


def test_corollary_equivalence_limit_vs_kav(integrator, integrator_undiscounted,
                                            oscillator, u_one):
    # the limit costate exists iff the homogeneous-part condition holds for
    # the zero-terminal adjoint surrogate, across all scenarios
    for problem in (integrator, integrator_undiscounted, oscillator):
        op = transition_matrix(problem, u_one, 250.0, settings=STANDARD)
        rec = jx_scan(op, [0.0], dense_horizon_grid(0.0, 250.0))[0]
        _, lc = limit_costate(rec, check_jx_bounded(rec))
        surrogate = integrate_adjoint(op, 250.0, np.zeros(problem.state_dim), 1.0)
        [verdicts] = check_classical(problem, u_one, TailSamples([surrogate]))
        kav = verdicts["tcKAV"]
        assert (lc.status is Verdict.HOLDS) == (kav.status is Verdict.HOLDS), problem.name


def test_gmax_selects_saddle(ramsey_params, ramsey_family):
    _, family = ramsey_family
    problem = ramsey_params.problem()
    verdicts = check_gmax(problem, family, [1.0, 2.0, 4.0, 6.0, 9.0])
    assert verdicts[0].status is Verdict.HOLDS
    for v in verdicts[1:]:
        assert v.status is Verdict.FAILS


def test_gmax_single_candidate_vacuous(ramsey_params, ramsey_family):
    _, family = ramsey_family
    verdicts = check_gmax(ramsey_params.problem(), family[:1], [1.0, 5.0])
    assert verdicts[0].status is Verdict.HOLDS


def test_gmax_rejects_state_dependent_payoff(oscillator, osc_traj_30, u_one):
    with pytest.raises(ValueError):
        check_gmax(oscillator, [(osc_traj_30, u_one)], [1.0])
