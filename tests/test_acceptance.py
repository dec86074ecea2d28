"""Acceptance battery: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here and match the library's documented
guarantees; nothing is calibrated at run time.
"""

import math

import numpy as np
import pytest

from horizoncheck import (
    ControlSignal,
    IntegratorReference,
    IntegratorSettings,
    JxRecord,
    Verdict,
    check_general,
    check_gmax,
    check_jx_bounded,
    dense_horizon_grid,
    empirical_overtaking_test,
    integrate_adjoint,
    jx_scan,
    limit_costate,
    make_builtin_problem,
    needle_limit_check,
    oscillator_reference,
    payoff_value,
    ramsey_classify,
    ramsey_steady_state,
    transition_matrix,
)
from horizoncheck import conditions
from horizoncheck.cli import RunConfig, build_check_report
from horizoncheck.reference_examples import _euler_rates
from horizoncheck.conditions import ConditionVerdict

from conftest import STANDARD, TIGHT, record_limits
from oracles import (
    OscillatorOracle,
    adjoint_basis,
    appendix_identity_residual,
    basis_costate,
    fd_gradient,
    lemma1_residual,
    solve_state,
)


def _ok(tag, message):
    print(f"[{tag}] PASS {message}")


@pytest.fixture(scope="module")
def osc_400pi(oscillator, u_one):
    settings = IntegratorSettings(rel_tol=1e-9, abs_tol=1e-11)
    t_max = 400 * math.pi
    return transition_matrix(oscillator, u_one, t_max, settings=settings), t_max


def test_criterion_01_oscillator_variational_oracle(oscillator, osc_traj_30,
                                                    osc_op_30):
    ref = oscillator_reference(0.5)
    taus = np.linspace(0.0, 10.0, 20)
    dts = np.linspace(0.0, 20.0, 20)
    worst_k = 0.0
    worst_j = 0.0
    for tau in taus:
        Ts = tau + dts
        grads = osc_op_30.gradient(float(tau), Ts)
        worst_j = max(worst_j, float(np.max(np.abs(grads - ref.jx(tau, Ts)))))
        for T in Ts:
            K = osc_op_30.evaluate(float(T), float(tau))
            worst_k = max(worst_k, float(np.max(np.abs(K - ref.transition(T, tau)))))
    assert worst_k <= 1e-6
    assert worst_j <= 1e-6
    _ok("A01", f"transition max err {worst_k:.2e}, gradient max err {worst_j:.2e} "
               "on the 20x20 (tau, T) grid (tol 1e-6)")


def test_criterion_02_general_condition_estimates(oscillator, u_one, osc_400pi):
    op, t_max = osc_400pi
    ref = OscillatorOracle(0.5)
    records = jx_scan(op, [0.0], dense_horizon_grid(0.0, t_max))
    report = check_general(oscillator, op, u_one, records)
    (woo, oo), verdicts = report.estimates, report.verdicts
    ugrid = oscillator.control_set.sample_grid(conditions._CONTROL_RESOLUTION)[:, 0]
    worst = 0.0
    for u in (-1.0, -0.5, 0.0, 0.5, 1.0):
        j = int(np.argmin(np.abs(ugrid - u)))
        assert abs(ugrid[j] - u) < 1e-12
        err_w = abs(woo[0, j] - ref.woo_bound(u))
        err_o = abs(oo[0, j] - ref.oo_bound(u))
        assert err_w <= 1e-3, (u, err_w)
        assert err_o <= 1e-3, (u, err_o)
        worst = max(worst, err_w, err_o)
    assert verdicts["WOO"].status is Verdict.HOLDS
    assert verdicts["OO"].status is Verdict.FAILS
    _ok("A02", f"liminf/limsup estimates within {worst:.2e} of closed forms at "
               "T_max = 400*pi (tol 1e-3); weak battery holds, strong battery fails")


def test_criterion_03_classical_condition_table():
    # rotation problem, b = 0.5: every candidate fails the four classical
    # conditions except the special adjoint that zeroes the Hamiltonian
    report = build_check_report(RunConfig(example="oscillator",
                                          params={"b": 0.5}, t_max=400.0))
    rows = {(r[1], r[2]): r[3] for r in report.rows}
    candidates_05 = sorted({c for (c, _) in rows if c.startswith("psi(")})
    assert len(candidates_05) == 3
    special = "psi(r=0.5,phi=-pi/2)"
    for cand in candidates_05:
        assert rows[(cand, "tcPSI")] == "fails"
        assert rows[(cand, "tcXPSI")] == "fails"
        assert rows[(cand, "tcKAV")] == "fails"
        assert rows[(cand, "tcM")] == ("holds" if cand == special else "fails")
        assert rows[(cand, "maxH")] == "holds"
    assert rows[("(gradient route)", "prop_general_WOO")] == "holds"
    assert rows[("(gradient route)", "prop_general_OO")] == "fails"

    # b = 1.5 admits the adjoint matching the state trajectory in tcXPSI
    report_15 = build_check_report(RunConfig(example="oscillator",
                                             params={"b": 1.5}, t_max=400.0))
    rows_15 = {(r[1], r[2]): r[3] for r in report_15.rows}
    cands_15 = sorted({c for (c, _) in rows_15 if c.startswith("psi(")})
    assert "psi(r=1,phi=0)" in cands_15
    for cand in cands_15:
        expect = "holds" if cand == "psi(r=1,phi=0)" else "fails"
        assert rows_15[(cand, "tcXPSI")] == expect, cand

    # undiscounted integrator: only the abnormal candidate passes the
    # maximum principle, and every classical condition fails for it
    report_0 = build_check_report(RunConfig(example="integrator",
                                            params={"rho": 0.0}, t_max=400.0))
    rows_0 = {(r[1], r[2]): r[3] for r in report_0.rows}
    abnormal = [c for (c, _) in rows_0 if c.startswith("psi(lam=0")][0]
    normal = [c for (c, _) in rows_0 if c.startswith("psi(lam=1")][0]
    for cond in ("tcPSI", "tcXPSI", "tcM", "tcKAV"):
        assert rows_0[(abnormal, cond)] == "fails"
    assert rows_0[(abnormal, "maxH")] == "holds"
    assert rows_0[(normal, "maxH")] == "fails"
    assert rows_0[("(gradient route)", "prop_general_OO")] == "holds"
    _ok("A03", "classical-condition tables reproduced for the rotation problem "
               "(b in {0.5, 1.5}) and the undiscounted integrator")


def test_criterion_04_limit_equivalence_matrix(u_one):
    scenarios = []
    for rho in (0.0, 0.1):
        for a0 in (0.0, 0.7):
            scenarios.append(("integrator", {"rho": rho}, {"a0": a0, "lam": 1.0}))
    for r in (0.0, 0.3):
        scenarios.append(("oscillator", {"b": 0.5}, {"r": r, "phi": 0.0}))

    for name, params, extra in scenarios:
        problem = make_builtin_problem(name, params)
        op = transition_matrix(problem, u_one, 250.0, settings=STANDARD)
        records = jx_scan(op, [0.0], dense_horizon_grid(0.0, 250.0))
        _, lc = limit_costate(records[0], check_jx_bounded(records[0]))

        surrogate = integrate_adjoint(op, 250.0, np.zeros(problem.state_dim), 1.0)
        from horizoncheck import TailSamples, check_classical
        [verdicts] = check_classical(problem, u_one, TailSamples([surrogate]))
        kav = verdicts["tcKAV"]
        assert (lc.status is Verdict.HOLDS) == (kav.status is Verdict.HOLDS), \
            (name, params, extra)

        # candidate-specific decomposition agrees with the scenario
        from horizoncheck import decompose_costate
        if name == "integrator":
            ref = IntegratorReference(params["rho"])
            psi_T = [float(ref.costate(extra["a0"], 1.0, 250.0))]
        else:
            ref = oscillator_reference(0.5)
            psi_T = ref.costate(extra["r"], extra["phi"], 250.0)
        candidate = integrate_adjoint(op, 250.0, psi_T, 1.0)
        [(a0_est, dec)] = decompose_costate(TailSamples([candidate]), record_limits(records))
        if name == "integrator" and params["rho"] > 0:
            assert dec.status is Verdict.HOLDS
            assert a0_est[0] == pytest.approx(extra["a0"], abs=1e-4)
            assert dec.estimate <= 1e-4
        else:
            assert dec.status is not Verdict.HOLDS
    _ok("A04", "limit-costate convergence matches the homogeneous-part "
               "condition on all six scenarios, with consistent decompositions")


def test_criterion_05_adjoint_identity(oscillator, osc_traj_30, u_one,
                                       integrator, ramsey_params, ramsey_saddle):
    T = 25.0
    terminals = [lambda n: np.zeros(n), lambda n: 0.8 * np.ones(n),
                 lambda n: np.array([(-0.6) ** (i + 1) for i in range(n)])]
    cases = [(oscillator, osc_traj_30, u_one, [0.0, 3.0, 11.0])]
    traj_i = solve_state(integrator, u_one, 30.0, TIGHT)
    cases.append((integrator, traj_i, u_one, [0.0, 4.0, 12.0]))
    _, k_traj, control = ramsey_saddle
    cases.append((ramsey_params.problem(), k_traj, control, [0.0, 7.0, 18.0]))

    n_cases = 0
    worst = 0.0
    for problem, traj, ctrl, taus in cases:
        op = transition_matrix(problem, ctrl, traj.t_end, settings=TIGHT)
        records = jx_scan(op, taus, [T])
        basis = adjoint_basis(problem, traj, ctrl, T, TIGHT)
        for lam in (0.0, 1.0):
            for term in terminals:
                costate = basis_costate(basis, term(problem.state_dim), lam)
                res = lemma1_residual(costate, records, T, op)
                worst = max(worst, res)
                n_cases += 1
                assert res <= 1e-6, (problem.name, lam, res)
    assert n_cases == 18
    _ok("A05", f"adjoint reconstruction identity residual <= {worst:.2e} over "
               f"{n_cases} cases (tol 1e-6)")


def test_criterion_06_gradient_oracle(oscillator, osc_traj_30, osc_op_30, integrator,
                                      u_one, ramsey_params, ramsey_saddle):
    rng = np.random.default_rng(2024)
    traj_i = solve_state(integrator, u_one, 30.0, TIGHT)
    op_i = transition_matrix(integrator, u_one, 30.0, settings=TIGHT)
    worst_linear = 0.0
    for problem, traj, op in ((oscillator, osc_traj_30, osc_op_30), (integrator, traj_i, op_i)):
        for _ in range(20):
            tau = rng.uniform(0.0, 8.0)
            T = tau + rng.uniform(0.5, 18.0)
            grad = fd_gradient(problem, u_one, tau, traj(tau), T, settings=TIGHT)
            err = float(np.max(np.abs(grad - op.gradient(tau, T))))
            worst_linear = max(worst_linear, err)
            assert err <= 1e-5

    _, k_traj, control = ramsey_saddle
    problem = ramsey_params.problem()
    op_k = transition_matrix(problem, control, k_traj.t_end, settings=TIGHT)
    worst_ramsey = 0.0
    for _ in range(5):
        tau = rng.uniform(0.0, 20.0)
        T = tau + rng.uniform(10.0, 60.0)
        grad = fd_gradient(problem, control, tau, k_traj(tau), T, settings=TIGHT)
        scale = max(1.0, float(np.max(np.abs(grad))))
        err = float(np.max(np.abs(grad - op_k.gradient(tau, T)))) / scale
        worst_ramsey = max(worst_ramsey, err)
        assert err <= 1e-3
    _ok("A06", f"propagator gradients vs central differences: linear examples "
               f"within {worst_linear:.2e} (tol 1e-5), capital model within "
               f"{worst_ramsey:.2e} relative (tol 1e-3)")


def test_criterion_07_ramsey_quantitative(ramsey_params, ramsey_saddle,
                                          ramsey_family):
    interior, limit = ramsey_steady_state(ramsey_params)
    assert interior.k_star == pytest.approx(32.0, rel=1e-12)
    assert interior.c_star == pytest.approx(2.4, rel=1e-12)
    assert np.max(np.abs(_euler_rates(ramsey_params, interior.k_star,
                                      interior.c_star))) <= 1e-12

    c0_saddle, k_traj, control = ramsey_saddle
    from horizoncheck import ramsey_shoot
    _, orbit = ramsey_shoot(ramsey_params, 2000.0)
    k_T, c_T = orbit.states[-1]
    assert math.hypot(k_T - 32.0, c_T - 2.4) <= 1e-3 + 1e-9

    # classification sweep over (0, 160] x (0, 8]: three regions present and
    # the boundary through the k0 = 10 column brackets the shot c0
    nk, nc = 16, 16
    k_vals = [160.0 * (i + 1) / nk for i in range(nk)]
    c_vals = [8.0 * (j + 1) / nc for j in range(nc)]
    classes = {}
    for k0 in k_vals:
        for c0 in c_vals:
            classes[(k0, c0)] = ramsey_classify(ramsey_params, k0, c0, t_max=600.0)
    seen = set(classes.values())
    assert "hits_zero_capital" in seen and "to_zero_consumption" in seen
    # region separation in every column: low consumption falls to the
    # zero-consumption point, high consumption crashes the capital stock
    for k0 in k_vals:
        to_zero = [c for c in c_vals if classes[(k0, c)] == "to_zero_consumption"]
        hits = [c for c in c_vals if classes[(k0, c)] == "hits_zero_capital"]
        if to_zero and hits:
            assert max(to_zero) < min(hits), k0
    column = {c: classes[(10.0, c)] for c in c_vals}
    below = max(c for c in c_vals if column[c] == "to_zero_consumption")
    above = min(c for c in c_vals if column[c] == "hits_zero_capital")
    assert below < c0_saddle < above

    # the pointwise payoff-rate rule selects the saddle candidate
    _, family = ramsey_family
    verdicts = check_gmax(ramsey_params.problem(), family,
                          [1.0, 2.0, 4.0, 6.0, 9.0])
    assert verdicts[0].status is Verdict.HOLDS
    assert all(v.status is Verdict.FAILS for v in verdicts[1:])
    _ok("A07", f"steady state exact, shot orbit enters the 1e-3 ball, sweep "
               f"shows the three-region structure with the k0=10 boundary in "
               f"({below:g}, {above:g}) around c0 = {c0_saddle:.6f}, and the "
               "payoff-rate rule selects the saddle candidate")


def test_criterion_08_needle_first_order(oscillator, integrator, u_one):
    alphas = np.geomspace(1e-1, 1e-4, 10)
    orders = {}
    for problem in (oscillator, integrator):
        report = needle_limit_check(problem, u_one, 1.0, [0.0], 20.0, alphas)
        orders[problem.name] = report.fitted_order
        assert report.fitted_order >= 0.9, (problem.name, report.fitted_order)
        # |dJ/alpha - prediction| <= C * alpha with stable C under halving
        cs = report.errors / report.alphas
        assert np.max(cs) <= 10 * np.median(cs)
    _ok("A08", "needle slopes converge to the Hamiltonian-difference "
               f"prediction at first order (fitted orders {orders})")


def test_criterion_09_overtaking_verdicts(oscillator, u_one):
    challenger = ControlSignal.piecewise_constant([math.pi], [[0.0], [1.0]])
    report = empirical_overtaking_test(oscillator, *payoff_value(oscillator, [u_one, challenger],
                                                                 400.0),
                                       eps=1e-6, T_max=400.0, sample_spacing=0.02)
    assert report.verdict == "consistent_WOO_only"
    assert report.max_gap == pytest.approx(2 - math.pi / 2, abs=1e-3)
    wrap = report.argmax_T % (2 * math.pi)
    assert min(wrap, 2 * math.pi - wrap) <= 0.05
    # both recurrence events in every dyadic tail window
    Ts = np.linspace(0.0, 400.0, 20001)
    gaps = report.gap_fn(Ts)
    for lo, hi in ((50.0, 100.0), (100.0, 200.0), (200.0, 400.0)):
        window = gaps[(Ts >= lo) & (Ts <= hi)]
        assert np.max(window) == pytest.approx(2 - math.pi / 2, abs=1e-3)
        assert np.min(window) <= 0.0

    problem_15 = make_builtin_problem("oscillator", {"b": 1.5})
    report_15 = empirical_overtaking_test(problem_15,
                                          *payoff_value(problem_15, [u_one, challenger], 400.0),
                                          eps=1e-6, T_max=400.0, sample_spacing=0.02)
    assert report_15.verdict == "consistent_OO"

    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(10):
        k = int(rng.integers(2, 7))
        times = np.sort(rng.uniform(0.3, 6 * math.pi, size=k))
        values = rng.uniform(0.0, 1.0, size=(k + 1, 1))
        control = ControlSignal.piecewise_constant(times, values)
        for n in (1, 2, 3):
            residual, tail = appendix_identity_residual(control, n)
            worst = max(worst, residual)
            assert residual <= 1e-8
            assert tail >= -1e-12
    _ok("A09", f"recurring gap 2 - pi/2 near full periods (weak-overtaking "
               f"consistency), strong consistency at b = 1.5, pulse-response "
               f"identity residual <= {worst:.2e}")


def test_criterion_10_integrator_limit_values(integrator,
                                              integrator_undiscounted, u_one):
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
    assert check_jx_bounded(rec0).status is Verdict.FAILS
    _ok("A10", f"limit costate {psi_hat[0]:.6f} (tol 1e-4 around 10) at "
               "rho = 0.1; gradient divergence flagged at rho = 0")


def _statuses(example, params, t_max):
    """(candidate, condition) -> status of a ``check`` report."""
    rows = build_check_report(RunConfig(example, params, t_max)).rows
    return {(row[1], row[2]): row[3] for row in rows}


# integrator horizons too short to see psi = e^{-rho t}/rho reach its limits
SLOW_LIMITS = [(0.01, 400.0), (0.02, 400.0), (0.03, 400.0), (0.04, 400.0),
               (0.05, 100.0), (0.02, 100.0), (0.1, 50.0), (0.1, 100.0)]


@pytest.mark.parametrize("rho, t_max", SLOW_LIMITS)
def test_criterion_11_slow_limits_are_never_failed(rho, t_max):
    statuses = _statuses("integrator", {"rho": rho}, t_max)
    normal = {key: s for key, s in statuses.items()
              if key[0] == "psi(lam=1,a0=0)"
              or key[1] in ("limit_costate", "jx_bounded")}
    assert len(normal) == 8
    assert [key for key, s in normal.items() if s == "fails"] == []
    # the abnormal candidate's psi = 1 keeps failing every classical limit
    abnormal = {cond: s for (label, cond), s in statuses.items() if label == "psi(lam=0,a0=1)"}
    assert abnormal == {"tcPSI": "fails", "tcXPSI": "fails", "tcM": "fails", "tcKAV": "fails",
                        "maxH": "holds", "a0_limit": "holds"}
    _ok("A11", f"rho = {rho:g}, t_max {t_max:g}: no limit of the normal candidate "
               "is failed, the abnormal one fails all four")


@pytest.mark.parametrize("t_max", [50.0, 100.0, 400.0])
def test_criterion_11_undiscounted_limits_keep_failing(t_max):
    # grad(0, T) = T: no limit exists and the normal adjoint is unbounded
    statuses = _statuses("integrator", {"rho": 0.0}, t_max)
    holding = {("(gradient route)", "prop_general_WOO"), ("(gradient route)", "prop_general_OO"),
               ("psi(lam=0,a0=0.5)", "maxH"), ("psi(lam=0,a0=0.5)", "a0_limit")}
    assert {key for key, s in statuses.items() if s != "fails"} == holding
    assert all(statuses[key] == "holds" for key in holding)


@pytest.mark.parametrize("b, t_max", [(0.5, 30.0), (0.5, 100.0), (0.5, 800.0),
                                      (1.5, 30.0), (1.5, 100.0), (1.5, 800.0)])
def test_criterion_11_oscillating_limits_keep_failing(b, t_max):
    # the oscillator's tails neither shrink nor grow; t_max 400 is pinned
    # byte for byte by the golden reports, and at 800 a limit costate read
    # off too few horizons took sampling noise for a shrinking tail
    failing = {key for key, s in _statuses("oscillator", {"b": b}, t_max).items()
               if s == "fails"}
    expected = {("(gradient route)", "limit_costate")}
    if b < 1.0:
        expected.add(("(gradient route)", "prop_general_OO"))
    candidates = ["psi(r=0,phi=0)", f"psi(r={b / 2:g},phi=0.7)", f"psi(r={b:g},phi=-pi/2)"]
    if b >= 1.0:
        candidates.append("psi(r=1,phi=0)")
    for label in candidates:
        expected |= {(label, "tcPSI"), (label, "tcKAV"), (label, "a0_limit")}
        if label != "psi(r=1,phi=0)":
            expected.add((label, "tcXPSI"))
        if not label.endswith("phi=-pi/2)"):
            expected.add((label, "tcM"))
    assert failing == expected


@pytest.mark.parametrize("t_max", [400.0, 800.0, 1600.0, 3200.0])
def test_criterion_12_oscillator_limit_costate_fails_at_every_horizon(t_max):
    # grad(0, T) = (cos T - 1, sin T) has period 2 pi; on horizons at most
    # 0.02 apart every tail window sweeps whole periods, so the oscillation
    # is 2 at every horizon: the limit fails, and the gradient stays bounded
    T = dense_horizon_grid(0.0, t_max)
    record = JxRecord(0.0, T, oscillator_reference(0.5).jx(0.0, T))
    bounded = check_jx_bounded(record)
    psi_hat, verdict = limit_costate(record, bounded)
    assert psi_hat is None and verdict.status is Verdict.FAILS
    assert verdict.note == "bounded, non-convergent: tail oscillation 2"
    assert bounded.status is Verdict.HOLDS
    assert bounded.estimate == pytest.approx(2.0, abs=1e-6)
    _ok("A12", f"t_max {t_max:g}: limit costate fails on the closed-form gradient, "
               "bounded by 2")
