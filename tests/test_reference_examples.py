import math

import numpy as np
import pytest

from horizoncheck import (
    RamseyParams,
    oscillator_reference,
    ramsey_classify,
    ramsey_shoot,
    ramsey_steady_state,
)
from horizoncheck import reference_examples
from horizoncheck.conditions import _state_crossings
from horizoncheck.reference_examples import ramsey_control_from_orbit, ramsey_euler_orbit

from conftest import FIG1
from oracles import IntegratorOracle, OscillatorOracle, solve_state


def test_steady_state_closed_form_exact():
    params = RamseyParams(**FIG1)
    interior, limit = ramsey_steady_state(params)
    assert interior.k_star == pytest.approx(32.0, rel=1e-13)
    assert interior.c_star == pytest.approx(2.4, rel=1e-13)
    assert limit.k_star == pytest.approx(0.05 ** (-5.0 / 3.0), rel=1e-13)
    assert limit.c_star == 0.0
    assert interior.k_star < limit.k_star


def test_steady_state_field_residual_random_params():
    rng = np.random.default_rng(11)
    for _ in range(50):
        params = RamseyParams(alpha=rng.uniform(0.2, 0.6),
                              delta=rng.uniform(0.02, 0.12),
                              theta=rng.uniform(0.3, 3.0) + 0.01,
                              k0=1.0)
        interior, _ = ramsey_steady_state(params)
        residual = reference_examples._euler_rates(params, interior.k_star, interior.c_star)
        assert np.max(np.abs(residual)) <= 1e-12


def test_field_values():
    params = RamseyParams(**FIG1)
    rates = reference_examples._euler_rates
    assert np.allclose(rates(params, 32.0, 2.4), [0.0, 0.0], atol=1e-13)
    assert np.allclose(rates(params, 32.0, 3.0), [-0.6, 0.0], atol=1e-13)
    assert np.allclose(rates(params, 1.0, 1.0), [-0.05, 0.7], atol=1e-13)


def test_classify_examples():
    params = RamseyParams(**FIG1)
    assert ramsey_classify(params, 32.0, 2.4, 2000.0) == "saddle"
    assert ramsey_classify(params, 10.0, 5.0, 2000.0) == "hits_zero_capital"
    assert ramsey_classify(params, 10.0, 0.5, 2000.0) == "to_zero_consumption"
    # this orbit reaches k = 0 below c* + 0.25, so the k = 0 face ends it and
    # not the hits_zero_capital region
    assert ramsey_classify(params, 0.1, 1.0, 2000.0) == "hits_zero_capital"
    interior, _ = ramsey_steady_state(params)
    stops = reference_examples._classify_stops(interior.k_star, interior.c_star)
    exit_event = ramsey_euler_orbit(params, 0.1, 1.0, 2000.0, stops=stops).exit_event
    assert exit_event.description == "y[0] reached lower bound 0"
    assert exit_event.state[1] < interior.c_star + 0.25


def test_scalar_and_array_routes_agree_at_a_small_steady_state():
    # k* = 1/16 and c* = 1/8: fixed stop margins of 0.5 in k and 0.25 in c
    # would leave both stop regions empty, and the scalar route would run
    # the lower orbit to t_max as "inconclusive"
    params = RamseyParams(alpha=0.5, delta=2.0, theta=1.5, k0=0.2)
    interior, _ = ramsey_steady_state(params)
    assert (interior.k_star, interior.c_star) == pytest.approx((1 / 16, 1 / 8), rel=1e-14)
    c_s = reference_examples._saddle_consumption(params, interior, np.array([0.2]))[0]
    stops = reference_examples._classify_stops(interior.k_star, interior.c_star)
    for c0, label in ((0.9 * c_s, "to_zero_consumption"), (1.5 * c_s, "hits_zero_capital")):
        assert ramsey_classify(params, 0.2, c0, 2000.0) == label
        assert ramsey_classify(params, np.array([0.2]), np.array([c0]), 2000.0).tolist() == [label]
        # the region stop ends the orbit, not the k = 0 face or t_max
        event = ramsey_euler_orbit(params, 0.2, c0, 2000.0, stops=stops).exit_event
        assert event.description == label and event.time < 2.0


def _per_orbit_labels(params, k_vals, c_vals, t_max):
    return np.array([[ramsey_classify(params, k, c, t_max=t_max) for c in c_vals]
                     for k in k_vals])


def _refuse_orbits(monkeypatch):
    def refuse(*args):
        raise AssertionError("cell run as an orbit")

    monkeypatch.setattr(reference_examples, "_orbit_class", refuse)


@pytest.mark.parametrize("grid", ["A07", "bench"])
def test_grid_labels_match_per_orbit_labels(grid, monkeypatch):
    # every cell takes its side of the stable manifold; its solo orbit is the
    # oracle
    params = RamseyParams(**FIG1)
    if grid == "A07":
        k_hi, c_hi = 160.0, 8.0
    else:
        interior, limit = ramsey_steady_state(params)
        k_hi, c_hi = 1.1 * limit.k_star, 3.3 * interior.c_star
    k_vals = [k_hi * (i + 1) / 16 for i in range(16)]
    c_vals = [c_hi * (j + 1) / 16 for j in range(16)]
    with monkeypatch.context() as patch:
        _refuse_orbits(patch)
        labels = ramsey_classify(params, np.array(k_vals)[:, None], np.array(c_vals),
                                 t_max=600.0)
    assert labels.shape == (16, 16)
    assert np.array_equal(labels, _per_orbit_labels(params, k_vals, c_vals, 600.0))


# the cells of the default 100x100 phase diagram, at k = k_hi i / 100 with
# c = c_hi j / 100 for j <= count, that start in the to-zero region beyond
# the zero-consumption capital, where dk/dt < 0: their orbits approach k*
# while they fall to the zero-consumption point
CORNER_COUNTS = {93: 1, 94: 1, 95: 2, 96: 3, 97: 3, 98: 4, 99: 5, 100: 5}


def test_corner_cells_go_to_zero_consumption_on_both_routes(monkeypatch):
    params = RamseyParams(**FIG1)
    interior, limit = ramsey_steady_state(params)
    k_hi, c_hi = 1.1 * limit.k_star, 3.3 * interior.c_star
    cells = [(k_hi * i / 100, c_hi * j / 100)
             for i, count in CORNER_COUNTS.items() for j in range(1, count + 1)]
    assert len(cells) == 24
    k0, c0 = (np.array(v) for v in zip(*cells))
    assert all(ramsey_classify(params, k, c, t_max=600.0) == "to_zero_consumption"
               for k, c in cells)
    _refuse_orbits(monkeypatch)
    assert set(ramsey_classify(params, k0, c0, t_max=600.0)) == {"to_zero_consumption"}


@pytest.mark.parametrize("k0", [10.0, 50.0])
def test_only_cells_in_the_band_run_their_orbits(k0, monkeypatch):
    params = RamseyParams(**FIG1)
    c_s = reference_examples._saddle_consumption(params, ramsey_steady_state(params)[0], [k0])[0]
    runs = []

    def solo(params, k, c, t_max):
        runs.append((k, c))
        return "solo"

    monkeypatch.setattr(reference_examples, "_orbit_class", solo)
    near = [c_s * (1 - 1e-10), c_s * (1 + 1e-10)]
    far = [c_s * (1 - 1e-6), c_s * (1 + 1e-6)]
    labels = ramsey_classify(params, [k0], near + far, t_max=600.0)
    assert labels.tolist() == ["solo", "solo", "to_zero_consumption", "hits_zero_capital"]
    assert runs == [(k0, c) for c in near]


def test_grid_cell_at_steady_state_is_saddle():
    labels = ramsey_classify(RamseyParams(**FIG1), [[32.0]], [[2.4]], 2000.0)
    assert labels.tolist() == [["saddle"]]


def test_empty_grid_calls_no_field(monkeypatch):
    def refuse(*args):
        raise AssertionError("field evaluated")

    monkeypatch.setattr(reference_examples, "_euler_rates", refuse)
    labels = ramsey_classify(RamseyParams(**FIG1), np.empty(0), np.empty(0), 2000.0)
    assert labels.shape == (0,)
    with pytest.raises(ValueError):
        ramsey_classify(RamseyParams(**FIG1), [10.0, -1.0], 1.0, 2000.0)


def test_shoot_from_steady_state_recovers_c_star():
    params = RamseyParams(alpha=0.4, delta=0.05, theta=0.5, k0=32.0)
    c0, orbit = ramsey_shoot(params, 2000.0)
    assert c0 == pytest.approx(2.4, abs=1e-6)
    assert orbit.exit_event.description == "saddle_ball"


# a set on which the orbit from the time-eliminated c_s(k0) misses the ball,
# so that the shooting runs 13 probes on both sides of the saddle path
THIRTEEN_PROBES = dict(alpha=0.6913966632235626, delta=0.10611118791447843,
                       theta=3.2677172227617186, k0=5.662448804924795)


def _recorded_probes(monkeypatch, params, t_max):
    """(c0, orbit) of every probe of one shoot, through ramsey_euler_orbit."""
    probes = []
    euler_orbit = reference_examples.ramsey_euler_orbit

    def recorded(params, k0, c0, *args, **kwargs):
        orbit = euler_orbit(params, k0, c0, *args, **kwargs)
        probes.append((c0, orbit))
        return orbit

    with monkeypatch.context() as patch:
        patch.setattr(reference_examples, "ramsey_euler_orbit", recorded)
        ramsey_shoot(params, t_max)
    return probes


def test_shoot_from_k0_10(ramsey_params, ramsey_saddle, monkeypatch):
    c0, _, _ = ramsey_saddle
    c0_again, orbit = ramsey_shoot(ramsey_params, 2000.0)
    assert c0_again == pytest.approx(c0, abs=1e-8)
    # the first probe is the time-eliminated value, and its orbit enters the ball
    interior, _ = ramsey_steady_state(ramsey_params)
    assert c0_again == reference_examples._saddle_consumption(ramsey_params, interior, [10.0])[0]
    # enters the 1e-3 ball around (32, 2.4)
    k_T, c_T = orbit.states[-1]
    assert math.hypot(k_T - 32.0, c_T - 2.4) <= 1e-3 + 1e-9
    # saddle consumption increases with capital along the stable manifold
    assert c0 < 2.4
    # as a control: the orbit's consumption up to its end, then the end value
    control = ramsey_control_from_orbit(orbit)
    assert control.breakpoints().tolist() == [orbit.t_end]
    assert control.evaluate(orbit.t_end + 1.0)[0] == c_T
    # bracket invariant: above a probe judged above the saddle path the orbit
    # hits k = 0, below one judged below it falls to zero consumption
    params = RamseyParams(**THIRTEEN_PROBES)
    interior, _ = ramsey_steady_state(params)
    probes = _recorded_probes(monkeypatch, params, 2000.0)
    assert len(probes) == 13 and probes[-1][1].exit_event.description == "saddle_ball"
    judged = [(c0, reference_examples._lies_below(orbit, interior.k_star))
              for c0, orbit in probes[:-1]]
    assert {below for _, below in judged} == {True, False}
    for c0_judged, below in judged:
        if below:
            assert ramsey_classify(params, params.k0, c0_judged * 0.999999,
                                   t_max=3000) == "to_zero_consumption"
        else:
            assert ramsey_classify(params, params.k0, c0_judged * 1.000001,
                                   t_max=3000) == "hits_zero_capital"


def test_shooting_runs_no_orbit_into_the_k_0_face(monkeypatch):
    # over the k0 that the ramsey-fig1 benchmark draws, c_s(k0)'s orbit
    # enters the ball: one probe
    for k0 in (8.0, 9.0, 10.0, 11.0, 12.0):
        probes = _recorded_probes(monkeypatch, RamseyParams(**dict(FIG1, k0=k0)), 2000.0)
        assert [orbit.exit_event.description for _, orbit in probes] == ["saddle_ball"], k0
    probes = _recorded_probes(monkeypatch, RamseyParams(**THIRTEEN_PROBES), 2000.0)
    exits = [orbit.exit_event.description for _, orbit in probes]
    assert len(exits) == 13
    assert "hits_zero_capital" in exits and "y[0] reached lower bound 0" not in exits


def test_shoot_without_a_bracket_names_t_max():
    # every FIG1 orbit of length 10 ends left of k* with no event, so every
    # probe lies above the saddle path
    with pytest.raises(RuntimeError, match="by t_max = 10"):
        ramsey_shoot(RamseyParams(**FIG1), 10.0)


def _side_by_the_crash(params, k0, c0, t_max):
    # the probe orbit without the ball and the hits_zero_capital stop: a 'hi'
    # orbit runs into the k = 0 face, a 'lo' one into the to_zero region
    interior, _ = ramsey_steady_state(params)
    to_zero = [stop for stop in reference_examples._classify_stops(
        interior.k_star, interior.c_star) if stop[0] == "to_zero_consumption"]
    exit_event = ramsey_euler_orbit(params, k0, c0, t_max, stops=to_zero).exit_event
    sides = {"y[0] reached lower bound 0": "hi", "to_zero_consumption": "lo"}
    assert exit_event is not None and exit_event.description in sides
    return sides[exit_event.description]


def _rng29_sets(count):
    rng = np.random.default_rng(29)
    sets = []
    for _ in range(count):
        a, d, th = rng.uniform(0.2, 0.7), rng.uniform(0.02, 0.12), rng.uniform(0.3, 5.0)
        k_star = (d / a) ** (1.0 / (a - 1.0))
        sets.append(dict(alpha=a, delta=d, theta=th, k0=k_star * 10 ** rng.uniform(-2.5, 0.8)))
    return sets


def test_crash_stop_gives_the_side_of_the_crash(monkeypatch):
    # a ball too small to enter makes every probe orbit show its side
    monkeypatch.setattr(reference_examples, "_BALL_RADIUS", 1e-12)
    sides = set()
    for values in [FIG1] + _rng29_sets(10):
        params = RamseyParams(**values)
        interior, _ = ramsey_steady_state(params)
        stops = reference_examples._classify_stops(interior.k_star, interior.c_star)
        c_s = reference_examples._saddle_consumption(params, interior, [params.k0])[0]
        for factor in (1 - 1e-6, 1 - 1e-9, 1 + 1e-9, 1 + 1e-6):
            # a t_max long enough for every orbit to leave the saddle
            orbit = ramsey_euler_orbit(params, params.k0, c_s * factor, 1e4, stops=stops)
            assert reference_examples._exit_label(orbit) != "saddle"
            side = "lo" if reference_examples._lies_below(orbit, interior.k_star) else "hi"
            assert side == _side_by_the_crash(params, params.k0, c_s * factor, 1e4), values
            sides.add(side)
    assert sides == {"lo", "hi"}


def test_shoot_lands_next_to_the_manifold_on_random_sets():
    for values in _rng29_sets(40):
        params = RamseyParams(**values)
        interior, _ = ramsey_steady_state(params)
        c0, orbit = ramsey_shoot(params, 2000.0)
        assert orbit.exit_event.description == "saddle_ball", values
        c_s = reference_examples._saddle_consumption(params, interior, [params.k0])[0]
        assert c0 == pytest.approx(c_s, rel=1e-9), values


@pytest.mark.parametrize("k0", [2.0, 10.0, 50.0])
def test_shot_c0_separates_the_families_within_1e_9(k0, monkeypatch):
    params = RamseyParams(**dict(FIG1, k0=k0))
    c0, _ = ramsey_shoot(params, 2000.0)
    # a ball too small to enter makes every orbit show its side
    monkeypatch.setattr(reference_examples, "_BALL_RADIUS", 1e-12)
    assert ramsey_classify(params, k0, c0 * (1 - 1e-9), t_max=3000) == "to_zero_consumption"
    assert ramsey_classify(params, k0, c0 * (1 + 1e-9), t_max=3000) == "hits_zero_capital"


# At theta = 1/alpha the stable manifold is c = (1 - alpha) k^alpha: on it
# dk/dt = alpha k^alpha - delta k, and the Euler equation's k^(2 alpha - 1)
# and k^alpha terms match those of d/dt (1 - alpha) k^alpha.
@pytest.mark.parametrize("alpha, delta, k0", [(0.4, 0.05, 10.0), (0.3, 0.1, 1.0)])
def test_saddle_path_closed_form_at_theta_one_over_alpha(alpha, delta, k0):
    params = RamseyParams(alpha=alpha, delta=delta, theta=1.0 / alpha, k0=k0)
    exact = (1.0 - alpha) * k0 ** alpha
    interior, _ = ramsey_steady_state(params)
    assert reference_examples._saddle_consumption(params, interior, [k0])[0] == \
        pytest.approx(exact, rel=1e-10)
    c0, orbit = ramsey_shoot(params, 2000.0)
    assert c0 == pytest.approx(exact, rel=1e-9)
    k, c = orbit.states.T
    assert np.max(np.abs(c / ((1.0 - alpha) * k ** alpha) - 1.0)) <= 1e-5


@pytest.mark.parametrize("factor", [1 - 1e-7, 1 + 1e-7])
def test_saddle_consumption_linear_branch_next_to_the_saddle(monkeypatch, factor):
    params = RamseyParams(**FIG1)
    interior, _ = ramsey_steady_state(params)
    a, th = params.alpha, params.theta
    # at rho = 0 the Jacobian is [[0, -1], [j21, 0]]: stable slope sqrt(-j21)
    j21 = interior.c_star * a * (a - 1.0) * interior.k_star ** (a - 2.0) / th
    params = RamseyParams(**dict(FIG1, k0=interior.k_star * factor))

    def refuse(*args, **kwargs):
        raise AssertionError("quadrature run next to the saddle")

    monkeypatch.setattr(reference_examples, "integrate", refuse)
    c = reference_examples._saddle_consumption(params, interior, [params.k0])[0]
    assert c == pytest.approx(
        interior.c_star + math.sqrt(-j21) * (params.k0 - interior.k_star), rel=1e-12)


def test_manifold_levels_read_off_one_path_per_branch(monkeypatch):
    # levels on both branches, two of them within 1e-3 of the farthest
    # level's distance from k*, read off one quadrature per branch, against
    # a quadrature of each level alone
    params = RamseyParams(**FIG1)
    interior, limit = ramsey_steady_state(params)
    ks = [0.5, 10.0, 31.99, 32.0, 32.01, 32.5, 100.0, 1.1 * limit.k_star]
    alone = [reference_examples._saddle_consumption(params, interior, [k])[0] for k in ks]
    starts = []
    integrate = reference_examples.integrate

    def counted(field, t0, *args):
        starts.append(t0)
        return integrate(field, t0, *args)

    monkeypatch.setattr(reference_examples, "integrate", counted)
    together = reference_examples._saddle_consumption(params, interior, ks)
    assert len(starts) == 2 and starts[0] > interior.k_star > starts[1]
    np.testing.assert_allclose(together, alone, rtol=1e-10, atol=0.0)


def test_saddle_consumption_at_the_rounded_steady_state():
    # k* is not bit-equal to 32.0, so 32.0 must not start the quadrature at 0/0
    params = RamseyParams(**dict(FIG1, k0=32.0))
    interior, _ = ramsey_steady_state(params)
    assert reference_examples._saddle_consumption(params, interior, [32.0])[0] == \
        pytest.approx(2.4, abs=1e-9)


def test_saddle_consumption_beyond_zero_consumption_capital():
    params = RamseyParams(**dict(FIG1, k0=300.0))
    interior, limit = ramsey_steady_state(params)
    assert params.k0 > limit.k_star
    # the generic bracket search bisected to this value at c0_tol = 1e-10
    c = reference_examples._saddle_consumption(params, interior, [params.k0])[0]
    assert c == pytest.approx(18.554963428649152, abs=1e-10)


# c0 of the bisection from the generic bracket search that preceded the
# time-eliminated bracket, at c0_tol = 1e-10
@pytest.mark.parametrize("overrides, c0_before", [
    ({"k0": 10.0}, 0.8578570422138889),
    ({"k0": 50.0}, 3.5836388386256113),
    ({"k0": 0.01}, 0.0026893364953016786),
    ({"k0": 10.0, "theta": 5.0}, 1.6934688985182271),
])
def test_shoot_c0_parity(overrides, c0_before):
    c0, orbit = ramsey_shoot(RamseyParams(**dict(FIG1, **overrides)), 2000.0)
    assert abs(c0 - c0_before) <= 1e-10
    assert orbit.exit_event.description == "saddle_ball"


# Sets on which a bisection stopped at c0_tol raised RuntimeError: the c0
# whose forward orbits enter the 1e-3 ball span less than c0_tol there.  With
# k* in the thousands only a bracket bisected past c0_tol enters it; at
# k0 = 1e-3 the time-eliminated value itself does.
@pytest.mark.parametrize("alpha, delta, theta, k0", [(0.6, 0.02, 0.8, 100.0),
                                                     (0.7, 0.03, 0.5, 10.0),
                                                     (0.4, 0.05, 0.5, 1e-3)])
def test_shoot_reaches_the_ball(alpha, delta, theta, k0):
    params = RamseyParams(alpha=alpha, delta=delta, theta=theta, k0=k0)
    interior, _ = ramsey_steady_state(params)
    c0, orbit = ramsey_shoot(params, 2000.0)
    assert orbit.exit_event.description == "saddle_ball"
    assert c0 == pytest.approx(reference_examples._saddle_consumption(params, interior, [k0])[0],
                               rel=1e-8)


def test_feasible_k_path_agrees_with_the_state_equation(ramsey_params, ramsey_family):
    # two routes to k(t): the first column of the joint (k, c) orbit, and
    # k' = k^alpha - delta k - c(t) solved under the orbit's consumption.
    # Relative to the path's max-norm: pointwise, against a tight reference
    # solve, the second route's dense output errs by up to 2.7e-7 relative in
    # the first steps and the orbit's by 4.2e-8
    _, family = ramsey_family
    problem = ramsey_params.problem()
    ts = np.linspace(0.0, 150.0, 401)
    for k_traj, control in family[1:]:
        assert k_traj.t_end == 150.0 and k_traj.exit_event is None
        k_state = solve_state(problem, control, 150.0, reference_examples._CLASSIFY_SETTINGS)
        k_old = k_state(ts)[:, 0]
        assert np.max(np.abs(k_traj(ts)[:, 0] - k_old)) <= 1e-7 * np.max(np.abs(k_old))


def test_state_crossings_match_bisection_on_the_trajectory(ramsey_family):
    # the bisection of each crossing step on its fraction gives the times
    # that bisecting traj(t) itself in time gives, to within 1e-14 of the
    # step; a node at the target belongs to the step that ends there
    def bisected(traj, target):
        vals = traj.states[:, 0] - target
        hits = []
        steps = [k for k in range(vals.size - 1)
                 if vals[k] * vals[k + 1] <= 0 and (k == 0 or vals[k] != 0)]
        for idx in steps[:8]:
            lo, hi = traj.time_grid[idx], traj.time_grid[idx + 1]
            fa = vals[idx]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fm = float(traj(mid)[0]) - target
                hi, lo, fa = (mid, lo, fa) if fa * fm <= 0 else (hi, mid, fm)
            hits.append((0.5 * (lo + hi), traj.time_grid[idx + 1] - traj.time_grid[idx]))
        return hits

    _, family = ramsey_family
    for traj, _ in family:
        for target in (9.0, 10.0, 10.5, 13.7, 25.0, float(traj.states[10, 0])):
            found, expected = _state_crossings(traj, [target]), bisected(traj, target)
            assert len(found) == len(expected)
            for t, (t_bisected, width) in zip(found, expected):
                assert abs(t - t_bisected) <= 1e-14 * width


def test_a_crossing_at_a_node_is_reported_once(ramsey_params):
    # both steps that meet at node 10 touch the target there; the crossing
    # is the node's time, reported once
    traj, _ = reference_examples.ramsey_feasible_candidate(ramsey_params, 0.772071, 150.0)
    found = list(traj.crossings(0, float(traj.states[10, 0])))
    width = traj.time_grid[10] - traj.time_grid[9]
    assert len(found) == 1
    assert abs(found[0] - traj.time_grid[10]) <= 1e-14 * width


def test_sub_saddle_orbit_stays_feasible(ramsey_params):
    orbit = ramsey_euler_orbit(ramsey_params, 10.0, 0.5, 300.0)
    assert orbit.exit_event is None
    assert np.all(orbit.states[:, 0] > 0)


def test_oscillator_reference_values():
    ref = OscillatorOracle(0.5)
    assert np.allclose(ref.transition(math.pi / 2, 0.0), [[0.0, 1.0], [-1.0, 0.0]],
                       atol=1e-15)
    assert np.allclose(ref.jx(0.0, math.pi), [-2.0, 0.0], atol=1e-15)
    assert np.allclose(ref.state(2 * math.pi), [0.0, 0.0], atol=1e-12)
    # H along the candidate is constant in t: r sin(phi) + b
    for r, phi in [(0.3, 0.9), (0.5, -math.pi / 2), (0.0, 0.0)]:
        assert ref.hamiltonian_along(r, phi) == pytest.approx(r * math.sin(phi) + 0.5)
    with pytest.raises(ValueError):
        ref.costate(0.6, 0.0, 0.0)  # |r| > b not an admissible family member
    assert ref.delta_hamiltonian(-1.0, 0.0, math.pi / 2) == pytest.approx(-3.0)


def test_oscillator_costate_solves_adjoint_identities():
    ref = oscillator_reference(1.0)
    ts = np.linspace(0, 10, 101)
    psi = ref.costate(0.7, 0.3, ts)
    dpsi1 = np.gradient(psi[:, 0], ts)[1:-1]
    dpsi2 = np.gradient(psi[:, 1], ts)[1:-1]
    # dpsi1/dt = psi2 and dpsi2/dt = -psi1 - 1 (normal case)
    assert np.max(np.abs(dpsi1 - psi[1:-1, 1])) < 5e-3
    assert np.max(np.abs(dpsi2 - (-psi[1:-1, 0] - 1.0))) < 5e-3


def test_integrator_reference():
    ref = IntegratorOracle(0.1, 0.0, 1.0)
    assert ref.psi_hat(0.0) == pytest.approx(10.0)
    assert ref.psi(0.0) == pytest.approx(10.0)
    assert not ref.psi_hat_diverges
    assert ref.max_principle_holds()

    abnormal = IntegratorOracle(0.0, 1.0, 0.0)
    assert abnormal.psi(123.0) == 1.0
    assert abnormal.psi_hat_diverges
    assert abnormal.max_principle_holds()
    with pytest.raises(ValueError):
        abnormal.psi_hat(0.0)

    doomed = IntegratorOracle(0.0, 5.0, 1.0)
    assert doomed.psi(7.0) == pytest.approx(-2.0)
    assert not doomed.max_principle_holds()
    with pytest.raises(ValueError):
        IntegratorOracle(0.0, 0.0, 0.0)
