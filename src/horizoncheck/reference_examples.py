"""The three built-in problems, their closed forms and solvers.

Each built-in is one frozen dataclass whose fields are its parameters:
:class:`RamseyParams` (``ramsey``, undiscounted capital accumulation with
CRRA utility), :class:`IntegratorReference` (``integrator``, the discounted
integrator) and :class:`OscillatorReference` (``oscillator``, rotation
dynamics driven by a bounded input).  It checks each parameter once, raising
ValueError("<example>: parameter <key>=<value> out of range (<need ...>)"),
builds its :class:`ControlProblem` with ``problem()``, analytic derivatives
included, and carries its closed forms.  :func:`make_builtin_problem` builds
a built-in by name.  The oscillator bundle holds the exact transition
matrix, adjoint family, payoff gradient and challenger gap, and the
discounted-integrator bundle its adjoint family: ``check`` takes its
candidates' terminal costates from them.  The Ramsey helpers provide the
Euler phase-plane orbits, their steady states, the time-eliminated stable
manifold, and one orbit test that both labels phase-diagram cells and judges
the saddle-path shooting's probes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .ode_engine import (
    Box,
    ControlSignal,
    IntegratorSettings,
    Trajectory,
    integrate,
    integrate_controlled,
)
from .problem_model import ControlProblem, ControlSet

__all__ = [
    "IntegratorReference",
    "OscillatorReference",
    "RamseyParams",
    "SteadyState",
    "make_builtin_problem",
    "oscillator_reference",
    "ramsey_classify",
    "ramsey_control_from_orbit",
    "ramsey_euler_orbit",
    "ramsey_feasible_candidate",
    "ramsey_saddle_candidate",
    "ramsey_shoot",
    "ramsey_steady_state",
]


def _check_parameter(example: str, key: str, value: float, ok: bool, need: str):
    """Raise the ValueError of a built-in parameter out of range unless ``ok``."""
    if not ok:
        raise ValueError(f"{example}: parameter {key}={value:g} out of range ({need})")


# ---------------------------------------------------------------------------
# Ramsey capital accumulation


@dataclass(frozen=True)
class RamseyParams:
    alpha: float   # output elasticity, in (0, 1)
    delta: float   # depreciation, > 0
    theta: float   # relative risk aversion, > 0 and != 1
    k0: float      # initial capital, > 0

    def __post_init__(self):
        _check_parameter("ramsey", "alpha", self.alpha, 0 < self.alpha < 1, "need alpha in (0, 1)")
        _check_parameter("ramsey", "delta", self.delta, self.delta > 0, "need delta > 0")
        _check_parameter("ramsey", "theta", self.theta, self.theta > 0 and self.theta != 1.0,
                         "need theta > 0 and theta != 1")
        _check_parameter("ramsey", "k0", self.k0, self.k0 > 0, "need k0 > 0")
        try:
            interior, _ = ramsey_steady_state(self)
        except OverflowError as exc:
            raise ValueError("the steady state overflows") from exc
        if not (0 < interior.k_star < math.inf and 0 < interior.c_star < math.inf):
            raise ValueError(f"need finite, positive k* and c*, got k* = {interior.k_star:g}, "
                             f"c* = {interior.c_star:g}")

    def problem(self) -> ControlProblem:
        """The capital-accumulation problem from k0, consumption bounded by
        10 c*."""
        alpha, delta, theta = self.alpha, self.delta, self.theta

        def f(x, u, t):
            k = x[..., :1]
            return k ** alpha - delta * k - u[..., :1]

        def g(x, u, t):
            return u[..., 0] ** (1.0 - theta) / (1.0 - theta)

        c_max = 10.0 * ramsey_steady_state(self)[0].c_star
        return ControlProblem(
            state_dim=1, control_dim=1, dynamics=f, payoff=g,
            dynamics_jac_x=lambda x, u, t: np.array([[alpha * x[0] ** (alpha - 1.0) - delta]]),
            payoff_grad_x=lambda x, u, t: np.zeros(1),
            control_set=ControlSet.box([0.0], [c_max], lower_open=True),
            state_domain=Box.from_bounds([0.0], [np.inf]),
            initial_state=[self.k0], name="ramsey")


@dataclass(frozen=True)
class SteadyState:
    k_star: float
    c_star: float


def ramsey_steady_state(params: RamseyParams):
    """Interior saddle point and the zero-consumption limit point.

    k* = (delta/alpha)**(1/(alpha-1)),
    c* = (1-alpha) * (delta/alpha)**(alpha/(alpha-1)),
    and the zero-consumption capital level delta**(1/(alpha-1)) > k*.
    """
    a, d = params.alpha, params.delta
    k_star = (d / a) ** (1.0 / (a - 1.0))
    c_star = (1.0 - a) * (d / a) ** (a / (a - 1.0))
    k_limit = d ** (1.0 / (a - 1.0))
    return SteadyState(k_star, c_star), SteadyState(k_limit, 0.0)


def _euler_rates(params: RamseyParams, k, c):
    """Phase-plane field (dk/dt, dc/dt) of the state plus consumption-growth
    equations, for scalar or array k and c: dk/dt = k**a - d*k - c,
    dc/dt = c*(a*k**(a-1) - d)/theta."""
    a, d, th = params.alpha, params.delta, params.theta
    return k ** a - d * k - c, c * (a * k ** (a - 1.0) - d) / th


_CLASSIFY_SETTINGS = IntegratorSettings(rel_tol=1e-11, abs_tol=1e-13)
# radius of the ball around the interior steady state that ends a saddle orbit
_BALL_RADIUS = 1e-3


def ramsey_euler_orbit(params: RamseyParams, k0: float, c0: float, t_end: float,
                       stops: Sequence[tuple] = ()) -> Trajectory:
    """Integrate the joint (k, c) phase-plane system from (k0, c0), with the
    ``stops`` of :func:`integrate`."""
    def field(t, y):
        k, c = y.tolist()
        return np.array(_euler_rates(params, k, c) if k > 0 and c > 0 else (np.nan, np.nan))
    return integrate(field, 0.0, np.array([k0, c0]), t_end,
                     _CLASSIFY_SETTINGS, domain=Box.from_bounds([0.0, 0.0], [np.inf, 1e12]),
                     stops=stops)


def _classify_stops(k_star, c_star):
    """The Ramsey orbit stops of :func:`integrate` in priority order, each a
    test of one state (k, c): the ball of radius _BALL_RADIUS, read at each
    call, around (k*, c*), then the region k > k* + dk, c < c* - dc of the
    way to zero consumption, then its mirror image k < k* - dk, c > c* + dc
    of the way to zero capital, with the margins dk = k*/64 and dc = 5 c*/48
    relative to the steady state (0.5 and 0.25 at k* = 32, c* = 2.4), so
    that neither region is empty.  The stable manifold c = c_s(k) is
    increasing through c_s(k*) = c*, so the first region lies below its
    right branch and the second above its left branch; no orbit crosses the
    manifold, so only orbits heading to zero consumption enter the first,
    and every orbit that enters the second hits k = 0."""
    r2 = _BALL_RADIUS * _BALL_RADIUS
    dk, dc = k_star / 64.0, c_star * 5.0 / 48.0

    def in_ball(t, y):
        k, c = y.tolist()
        return (k - k_star) ** 2 + (c - c_star) ** 2 <= r2

    def to_zero(t, y):
        k, c = y.tolist()
        return k > k_star + dk and c < c_star - dc

    def to_crash(t, y):
        k, c = y.tolist()
        return k < k_star - dk and c > c_star + dc

    return (("saddle_ball", in_ball), ("to_zero_consumption", to_zero),
            ("hits_zero_capital", to_crash))


def _exit_label(orbit: Trajectory) -> str:
    """Label of an orbit run under the stops of :func:`_classify_stops`:
    ``inconclusive`` when no event ended it, and ``hits_zero_capital`` for
    its region or a face of the domain (k = 0) reached before a stop."""
    if orbit.exit_event is None:
        return "inconclusive"
    return {"saddle_ball": "saddle", "to_zero_consumption": "to_zero_consumption"}.get(
        orbit.exit_event.description, "hits_zero_capital")


def _orbit_class(params: RamseyParams, k0: float, c0: float, t_max: float) -> str:
    """Label of the Euler orbit through (k0, c0), run to at most t_max under
    the stops of :func:`_classify_stops`, as each probe of ramsey_shoot."""
    interior, _ = ramsey_steady_state(params)
    stops = _classify_stops(interior.k_star, interior.c_star)
    return _exit_label(ramsey_euler_orbit(params, k0, c0, t_max, stops=stops))


def _lies_below(orbit: Trajectory, k_star: float) -> bool:
    """Side of the saddle path of a shooting probe whose orbit missed the
    ball: below when it heads to zero consumption, or when no event ended it
    and it ends right of k*; above otherwise."""
    label = _exit_label(orbit)
    return label == "to_zero_consumption" or (label == "inconclusive"
                                              and orbit.states[-1, 0] > k_star)


# tolerances of the time-elimination quadrature along the stable manifold
_MANIFOLD_SETTINGS = IntegratorSettings(rel_tol=1e-12, abs_tol=1e-14)


def _saddle_consumption(params: RamseyParams, interior: SteadyState, ks) -> np.ndarray:
    """Saddle-path consumption c_s(k) at each capital level of the 1-d
    ``ks``, by time elimination.

    Integrates the policy dc/dk = (dc/dt)/(dk/dt) from the saddle outward,
    one forward :func:`integrate` call per branch of the manifold that holds
    a level, in s = side * k with side +1 right of k* and -1 left of it:
    from a small step eps along the stable eigenvector of the Jacobian at
    (k*, c*) to the branch's farthest level, reading every level of the
    branch off the dense path.  eps is 1e-3 of the smaller of k* and the
    distance from k* to the branch's nearest level, so every level lies past
    the start, and a single level gets the quadrature of its own.  Along
    that direction the manifold attracts nearby policies, so the quadrature
    is well conditioned where forward shooting is not.  Within 1e-6 k* of k*
    the eigenvector's linear value is returned.
    """
    ks = np.asarray(ks, dtype=float)
    if not ks.size:
        return ks
    k_star, c_star = interior.k_star, interior.c_star
    a, d, th = params.alpha, params.delta, params.theta
    j11 = a * k_star ** (a - 1.0) - d          # d(dk/dt)/dk; d(dk/dt)/dc = -1
    j21 = c_star * a * (a - 1.0) * k_star ** (a - 2.0) / th
    j22 = _euler_rates(params, k_star, 1.0)[1]  # dc/dt is linear in c
    trace, det = j11 + j22, j11 * j22 + j21
    lam_s = 0.5 * (trace - math.sqrt(trace * trace - 4.0 * det))
    slope = j11 - lam_s                        # dc/dk along the stable eigenvector
    gaps = ks - k_star
    c = c_star + slope * gaps

    def policy(k, y):
        dk, dc = _euler_rates(params, k, y[0])
        return np.array([dc / dk])

    for side in (1.0, -1.0):
        branch = side * gaps > 1e-6 * k_star
        if branch.any():
            reach = np.abs(gaps[branch])
            eps = math.copysign(1e-3 * min(float(reach.min()), k_star), side)
            path = integrate(lambda s, y, side=side: side * policy(side * s, y),
                             side * (k_star + eps), [c_star + slope * eps],
                             side * float(ks[branch][reach.argmax()]), _MANIFOLD_SETTINGS)
            c[branch] = path(side * ks[branch])[:, 0]
    return c


# relative distance to the stable manifold within which an array cell runs
# its own orbit instead of taking its side of the manifold
_MANIFOLD_BAND = 1e-8


def ramsey_classify(params: RamseyParams, k0, c0, t_max: float):
    """Classify the Euler orbit through (k0, c0).

    Returns one of ``saddle`` (enters the ball of radius 1e-3 around the
    interior steady state), ``hits_zero_capital`` (capital reaches its lower
    bound, or the orbit enters the region k < k* - k*/64, c > c* + 5 c*/48
    above the stable manifold, from which every orbit does), ``to_zero_consumption``
    (heads to the zero-consumption rest point), or ``inconclusive`` when t_max
    is exhausted first.  A scalar (k0, c0) runs its orbit.

    Array-like ``k0`` and ``c0`` broadcast against each other, and the labels
    come back as an array of the broadcast shape.  The stable manifold
    c = c_s(k) of :func:`_saddle_consumption` separates the two families of
    orbits, so a cell above it is labelled ``hits_zero_capital`` and a cell
    below it ``to_zero_consumption``.  Only a cell within the relative band
    1e-8 of c_s runs its orbit, so ``t_max`` bounds only those cells.
    """
    k, c = np.broadcast_arrays(np.asarray(k0, dtype=float), np.asarray(c0, dtype=float))
    if not ((k > 0).all() and (c > 0).all()):
        raise ValueError("need k0 > 0 and c0 > 0")
    if not k.ndim:
        return _orbit_class(params, float(k), float(c), t_max)
    c_s = _saddle_consumption(params, ramsey_steady_state(params)[0], k.ravel()).reshape(k.shape)
    labels = np.where(c > c_s, "hits_zero_capital", "to_zero_consumption")
    for i in np.flatnonzero(np.abs(c - c_s) <= _MANIFOLD_BAND * c_s):
        labels.flat[i] = _orbit_class(params, float(k.flat[i]), float(c.flat[i]), t_max)
    return labels


def ramsey_shoot(params: RamseyParams, t_max: float):
    """Shoot the initial consumption of the saddle path, with orbits of
    length at most t_max.

    Each probe c0 runs the orbit test of :func:`_orbit_class` from (k0, c0),
    the ball of radius 1e-3 around the interior steady state first.  The
    first probe is the time-eliminated c_s(k0) (:func:`_saddle_consumption`).
    Until both sides of the saddle path (:func:`_lies_below`) have been
    seen, the next probe steps away from c_s(k0) toward the side not seen,
    by a relative 1e-9 and ten times farther each time, up to a relative 1
    (RuntimeError); then the probes bisect.  Returns (c0_saddle, orbit): the
    first probe whose orbit enters the ball, and that joint (k, c) orbit."""
    interior, _ = ramsey_steady_state(params)
    c_manifold = float(_saddle_consumption(params, interior, [params.k0])[0])
    stops = _classify_stops(interior.k_star, interior.c_star)
    c0, eta, lo, hi = c_manifold, 1e-9, None, None
    while True:
        orbit = ramsey_euler_orbit(params, params.k0, c0, t_max, stops=stops)
        if _exit_label(orbit) == "saddle":
            return c0, orbit
        lo, hi = (c0, hi) if _lies_below(orbit, interior.k_star) else (lo, c0)
        if lo is None or hi is None:
            if eta >= 1.0:
                raise RuntimeError("ramsey_shoot: no bracket around the time-eliminated "
                                   f"consumption {c_manifold:g} by t_max = {t_max:g}")
            c0, eta = c_manifold * (1.0 - eta if lo is None else 1.0 + eta), 10.0 * eta
        elif (c0 := 0.5 * (lo + hi)) in (lo, hi):
            raise RuntimeError("ramsey_shoot: no bisected orbit reached the steady-state "
                               f"ball by t_max = {t_max:g}")


def ramsey_control_from_orbit(orbit: Trajectory, c_tail: Optional[float] = None) -> ControlSignal:
    """Consumption path of a (k, c) orbit as a control signal.

    Two pieces: the orbit's consumption up to its last node ``orbit.t_end``,
    then the constant ``c_tail`` (default: the final consumption value),
    which for a shot saddle orbit is the steady-state consumption.  The
    switch at ``orbit.t_end`` is a node of every integration across it.
    """
    tail = orbit.states[-1, 1] if c_tail is None else c_tail
    return ControlSignal([orbit.t_end], [lambda t: orbit(max(t, orbit.t0))[1:],
                                         np.array([float(tail)])], 1)


def ramsey_feasible_candidate(params: RamseyParams, c0: float, t_end: float):
    """A feasible Euler-family candidate: (state trajectory, control signal).

    Both come from the one joint (k, c) orbit from (k0, c0): the state
    trajectory is its k path, on views of its first column, and the control
    its consumption.  The orbit must stay in the domain through ``t_end``;
    an infeasible c0 (orbit hits k = 0) raises ValueError.
    """
    orbit = ramsey_euler_orbit(params, params.k0, c0, t_end)
    if orbit.exit_event is not None:
        raise ValueError(f"candidate c0={c0:g} infeasible: {orbit.exit_event.description}")
    return orbit.columns(0, 1), ramsey_control_from_orbit(orbit)


def ramsey_saddle_candidate(params: RamseyParams, t_end: float, t_max_shoot: float):
    """The shot saddle-path candidate over [0, t_end], with consumption
    clamped to c* after the orbit enters the steady-state ball; the shooting
    runs :func:`ramsey_shoot` with t_max_shoot.  The state path runs from
    the problem's initial point under that control; a domain exit is
    recorded as its ``exit_event`` rather than raised."""
    c0, orbit = ramsey_shoot(params, t_max=t_max_shoot)
    control = ramsey_control_from_orbit(orbit, c_tail=ramsey_steady_state(params)[0].c_star)
    problem = params.problem()
    k_path = integrate_controlled(problem.dynamics, control, problem.initial_time,
                                  problem.initial_state, t_end, _CLASSIFY_SETTINGS,
                                  problem.state_domain)
    return c0, k_path, control


# ---------------------------------------------------------------------------
# linear oscillator


@dataclass(frozen=True)
class OscillatorReference:
    """Closed forms for the rotation-driven problem with payoff x2 + b*u.

    The candidate optimal control is u = 1; admissible maximizing adjoints
    form the family psi1 = -r*cos(t + phi) - 1, psi2 = r*sin(t + phi) with
    |r| <= b, and the payoff gradient over [tau, T] is
    (cos(T - tau) - 1, sin(T - tau)).
    """

    b: float

    def __post_init__(self):
        _check_parameter("oscillator", "b", self.b, self.b > 0, "need b > 0")

    def problem(self) -> ControlProblem:
        """dx1/dt = x2, dx2/dt = u - x1 from the origin, payoff x2 + b*u,
        u in [-1, 1]."""
        b = self.b
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])

        def f(x, u, t):
            dx = np.empty(x.shape)
            dx[..., 0] = x[..., 1]
            dx[..., 1] = u[..., 0] - x[..., 0]
            return dx

        def g(x, u, t):
            return x[..., 1] + b * u[..., 0]

        return ControlProblem(
            state_dim=2, control_dim=1, dynamics=f, payoff=g,
            dynamics_jac_x=lambda x, u, t: A, payoff_grad_x=lambda x, u, t: np.array([0.0, 1.0]),
            control_set=ControlSet.box([-1.0], [1.0]),
            state_domain=Box.unbounded(2),
            initial_state=[0.0, 0.0], name="oscillator")

    def transition(self, t: float, tau: float) -> np.ndarray:
        dt = t - tau
        c, s = math.cos(dt), math.sin(dt)
        return np.array([[c, s], [-s, c]])

    def _check_rphi(self, r: float):
        if abs(r) > self.b + 1e-12:
            raise ValueError(f"adjoint family requires |r| <= b = {self.b:g}")

    def costate(self, r: float, phi: float, t) -> np.ndarray:
        self._check_rphi(r)
        t = np.asarray(t, dtype=float)
        return np.stack([-r * np.cos(t + phi) - 1.0, r * np.sin(t + phi)], axis=-1)

    def jx(self, tau: float, T) -> np.ndarray:
        dt = np.asarray(T, dtype=float) - tau
        return np.stack([np.cos(dt) - 1.0, np.sin(dt)], axis=-1)

    def hamiltonian_along(self, r: float, phi: float) -> float:
        """H along the candidate solution with the (r, phi) adjoint, constant
        in time: r*sin(phi) + b."""
        self._check_rphi(r)
        return r * math.sin(phi) + self.b

    def challenger_gap(self, s: float, T) -> np.ndarray:
        """Payoff gap of 'u = 0 until s, then 1' relative to u = 1, for T >= s:
        cos(T) - cos(T - s) - b*s."""
        T = np.asarray(T, dtype=float)
        return np.cos(T) - np.cos(T - s) - self.b * s


def oscillator_reference(b: float) -> OscillatorReference:
    return OscillatorReference(b)


# ---------------------------------------------------------------------------
# discounted integrator


@dataclass(frozen=True)
class IntegratorReference:
    """Closed forms for dx/dt = u with payoff exp(-rho*t)*x and u in [0, 1].

    Adjoint solutions under the candidate u = 1, for lam in {0, 1} and
    (lam, a0) not both zero:
      rho > 0:  psi(t) = a0 + lam * exp(-rho*t)/rho
      rho = 0:  psi(t) = a0 - lam * t
    The normal-case limit costate exp(-rho*t)/rho exists only when rho > 0.
    """

    rho: float

    def __post_init__(self):
        _check_parameter("integrator", "rho", self.rho, self.rho >= 0, "need rho >= 0")

    def problem(self) -> ControlProblem:
        """dx/dt = u from x = 0, payoff exp(-rho*t)*x, u in [0, 1]."""
        rho = self.rho

        def f(x, u, t):
            return u[..., :1].copy()

        def g(x, u, t):
            return np.exp(-rho * t) * x[..., 0]

        return ControlProblem(
            state_dim=1, control_dim=1, dynamics=f, payoff=g,
            dynamics_jac_x=lambda x, u, t: np.zeros((1, 1)),
            payoff_grad_x=lambda x, u, t: np.array([np.exp(-rho * t)]),
            control_set=ControlSet.box([0.0], [1.0]),
            state_domain=Box.unbounded(1),
            initial_state=[0.0], name="integrator")

    def costate(self, a0: float, lam: float, t) -> np.ndarray:
        """The adjoint solution psi(t) of the candidate (a0, lam); ValueError
        for lam not in {0, 1} or for a0 = lam = 0."""
        if lam not in (0.0, 1.0):
            raise ValueError("lam must be 0 or 1")
        if lam == 0.0 and a0 == 0.0:
            raise ValueError("(lam, a0) must not both vanish")
        t = np.asarray(t, dtype=float)
        if self.rho == 0.0:
            return a0 - lam * t
        return a0 + lam * np.exp(-self.rho * t) / self.rho


# ---------------------------------------------------------------------------
# the built-ins by name


# the dataclass of each built-in problem, whose fields are its parameters
_BUILTINS = {"ramsey": RamseyParams, "integrator": IntegratorReference,
             "oscillator": OscillatorReference}


def make_builtin_problem(name: str, params: Mapping[str, float]) -> ControlProblem:
    """The built-in problem ``name`` with analytic derivatives, from
    ``params``, one float per field of its dataclass (:class:`RamseyParams`,
    :class:`IntegratorReference` or :class:`OscillatorReference`), which
    checks each value."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin problem {name!r}; choose from {sorted(_BUILTINS)}")
    keys = [field.name for field in dataclasses.fields(_BUILTINS[name])]
    if set(params) != set(keys):
        raise ValueError(f"{name}: need the parameters {keys}, got {sorted(params)}")
    return _BUILTINS[name](*(float(params[key]) for key in keys)).problem()
