"""Independent routes that the identity tests compare the program with.

The program reads every adjoint path off the one (x, Y, S) pass by Lemma 1
(:func:`horizoncheck.integrate_adjoint`), so a Lemma-1 test on such a path
would hold by construction.  The oracle here solves the adjoint equation
itself: the basis rows [Phi(t)* | r(t)] of -dB/dt = B f_x(t) + [0 | g_x(t)],
integrated forward in reversed time s = -t once, off which every adjoint
path psi(t) = Phi(t) psi_T + lam r(t) is read at s = -t by superposition.
The Lemma-1 residual ties such a path to the gradients, and central
differences of the payoff are the independent route to the gradients
themselves.  The state equation is solved alone, and the slope of a dense
output is read in closed form, for the residual tests.

The closed forms that only tests compare against extend the program's
reference bundles, and the paper's uniform-bound assumption is checked by
payoff perturbations.  The oscillator's pulse response to a control and its
half-period identity are quadratures of the closed form, for the overtaking
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from horizoncheck import (
    ConditionVerdict,
    ControlProblem,
    ControlSignal,
    IntegratorReference,
    IntegratorSettings,
    JxRecord,
    NonExtendibleError,
    OscillatorReference,
    Trajectory,
    TransitionOperator,
    Verdict,
)
from horizoncheck.ode_engine import _dense_slope_on_step, integrate_controlled
from horizoncheck.problem_model import jacobians
from horizoncheck.conditions import tail_rule


def solve_state(problem: ControlProblem, control: ControlSignal, t_end: float,
                settings: IntegratorSettings) -> Trajectory:
    """State response x(.) of the problem under the control, from its
    initial point forward to t_end, solved alone; a domain exit is recorded
    as the trajectory's ``exit_event``."""
    return integrate_controlled(problem.dynamics, control, problem.initial_time,
                                problem.initial_state, t_end, settings, problem.state_domain)


def dense_slope(traj: Trajectory, t):
    """Time derivative of the dense output of ``traj`` at t, in closed form
    on each step's polynomial; times are span-checked and clipped as a read
    of ``traj`` is."""
    i, s, h = traj._steps(t)
    out = _dense_slope_on_step(traj.states[i], traj.derivs[i], np.where(h > 0, h, 1.0),
                               traj.states[i + 1],
                               traj.derivs[i + 1], traj.coeffs[i], s)
    return out[0] if np.ndim(t) == 0 else out


class OscillatorOracle(OscillatorReference):
    """The oscillator's closed forms, with those that only tests use."""

    def state(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.stack([1.0 - np.cos(t), np.sin(t)], axis=-1)

    def delta_hamiltonian(self, u: float, tau: float, T: float) -> float:
        return (u - 1.0) * (math.sin(T - tau) + self.b)

    def woo_bound(self, u: float) -> float:
        """Tail lower estimate of the Hamiltonian difference: (u-1)(1+b)."""
        return (u - 1.0) * (1.0 + self.b)

    def oo_bound(self, u: float) -> float:
        """Tail upper estimate of the Hamiltonian difference: (u-1)(b-1)."""
        return (u - 1.0) * (self.b - 1.0)


@dataclass(frozen=True)
class IntegratorOracle:
    """The discounted integrator's adjoint candidate (a0, lam) at rate rho,
    with the closed forms that only tests use; the program's
    :class:`IntegratorReference` checks the three values and gives psi."""

    rho: float
    a0: float
    lam: float

    def __post_init__(self):
        self.psi(0.0)  # an inadmissible candidate raises here, as in the program

    def psi(self, t) -> np.ndarray:
        return IntegratorReference(self.rho).costate(self.a0, self.lam, t)

    @property
    def psi_hat_diverges(self) -> bool:
        return self.rho == 0.0

    def psi_hat(self, t) -> np.ndarray:
        if self.psi_hat_diverges:
            raise ValueError("limit costate diverges at rho = 0")
        t = np.asarray(t, dtype=float)
        return np.exp(-self.rho * t) / self.rho

    def max_principle_holds(self) -> bool:
        if self.rho > 0:
            return self.a0 >= 0 or self.lam == 0.0 and self.a0 > 0
        return self.lam == 0.0 and self.a0 > 0


def reflected_signal(signal: ControlSignal) -> ControlSignal:
    """The signal v(s) = u(-s) in reflected time s = -t.  Its pieces are
    those of u in reverse order, so on every open interval between switching
    times it equals u(-s); at a switching time it takes, as every signal
    does, the piece that ends there."""
    return ControlSignal([-t for t in reversed(signal._times)],
                         [(lambda s, p=p: p(-s)) if callable(p) else p
                          for p in reversed(signal._pieces)], signal.dim)


@dataclass
class AdjointBasis:
    """The rows [Phi(t)* | r(t)], n + 1 of n columns, held row-major in
    ``trajectory`` in reversed time s = -t: every adjoint path that ends at
    T is psi(t) = Phi(t) psi_T + lam r(t), with Phi(t) = K(T, t)*."""

    trajectory: Trajectory


@dataclass
class SolvedCostate:
    """An adjoint path psi(.) read off a basis, with its multiplier lam;
    ``trajectory`` holds it in reversed time s = -t."""

    trajectory: Trajectory
    lam: float

    def psi(self, t):
        return self.trajectory(-np.asarray(t, dtype=float))


def adjoint_basis(problem: ControlProblem, trajectory: Trajectory, control: ControlSignal,
                  T: float, settings: IntegratorSettings) -> AdjointBasis:
    """Solve -dB/dt = B f_x(t) + [0 | g_x(t)] for the basis rows B backward
    from [I | 0] at T down to the base trajectory's initial time.

    The solve runs forward in reversed time s = -t under the reflected
    control, and the basis is that solution, read at s = -t.  Its field reads
    x(t) and calls :func:`jacobians` once per distinct (time, control value)
    pair: the last two DOP853 step stages share their time, and a switching
    time is met under two controls.
    """
    T = float(T)
    if not trajectory.covers(T):
        raise ValueError("terminal time outside the trajectory span")
    n = problem.state_dim
    last = [None, None, None, None]  # the key (s, u), f_x and g_x read there

    def rhs(rows, u, s):
        # keyed on u's value: a closed-form piece hands over a new array per call
        if s != last[0] or (u is not last[1] and u.tolist() != last[1].tolist()):
            last[:] = s, u, *jacobians(problem, trajectory(-s), u, -s)
        dB = rows.reshape(n + 1, n).dot(last[2])
        dB[n] += last[3]
        return dB.ravel()

    traj = integrate_controlled(rhs, reflected_signal(control), -T, np.eye(n + 1, n).ravel(),
                                -trajectory.t0, settings, domain=None)
    return AdjointBasis(traj)


def basis_costate(basis: AdjointBasis, psi_T, lam: float) -> SolvedCostate:
    """The adjoint path psi(t) = Phi(t) psi_T + lam r(t) from psi(T) = psi_T,
    read off the nodes, slopes and dense coefficient rows of ``basis``, in
    reversed time as the basis is.
    Every DOP853 stage is affine in the solution, so this is the DOP853
    solution of the adjoint equation on the basis's steps."""
    w = np.append(np.asarray(psi_T, dtype=float), lam)
    basis_traj = basis.trajectory
    if w.size * (w.size - 1) != basis_traj.dim:
        raise ValueError("terminal costate does not match the basis dimension")
    rows = [w @ a.reshape(*a.shape[:-1], w.size, w.size - 1)
            for a in (basis_traj.states, basis_traj.derivs, basis_traj.coeffs)]
    return SolvedCostate(Trajectory(basis_traj.time_grid, *rows), lam)


def record_value_at(record: JxRecord, T: float) -> np.ndarray:
    """The gradient of ``record`` over [tau, T], for a horizon T on its grid."""
    idx = int(np.argmin(np.abs(record.T_grid - T)))
    if abs(record.T_grid[idx] - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError(f"horizon {T:g} not on the record grid")
    return record.values[idx]


def lemma1_residual(costate, jx_by_tau, T: float, transition: TransitionOperator) -> float:
    """Max-norm defect of psi(tau) = K(T, tau)* psi(T) + lam * grad(tau, T)
    over the anchors of the records ``jx_by_tau``, for an adjoint path with
    ``psi(t)`` and ``lam``.  This is an exact identity for any adjoint
    solution, so the residual measures integration error only.  A
    :class:`horizoncheck.CostatePath` meets it by construction; the identity
    tests feed it a path solved on its own.
    """
    psi_T = costate.psi(T)
    worst = 0.0
    for rec in jx_by_tau:
        tau = rec.tau
        K = transition.evaluate(T, tau)
        reconstructed = K.T @ psi_T + costate.lam * record_value_at(rec, T)
        defect = float(np.max(np.abs(costate.psi(tau) - reconstructed)))
        worst = max(worst, defect)
    return worst


def fd_gradient(problem: ControlProblem, control: ControlSignal, tau: float,
                x_tau, T: float, settings: IntegratorSettings) -> np.ndarray:
    """Central-difference gradient of the frozen-control payoff over [tau, T]
    with respect to the state at tau; the independent oracle for the
    propagator-based gradient.

    The step is max(1e-3, 1e-3 * |x_i|) per component, and it shrinks when a
    probe leaves the state domain; a perturbed trajectory that exits the
    domain mid-horizon raises the NonExtendibleError of :func:`payoff_from`,
    which carries the exit event.
    """
    x_tau = np.atleast_1d(np.asarray(x_tau, dtype=float))
    n = problem.state_dim
    grad = np.empty(n)
    for i in range(n):
        hi = max(1e-3, 1e-3 * abs(x_tau[i]))
        for _ in range(60):
            plus, minus = x_tau.copy(), x_tau.copy()
            plus[i] += hi
            minus[i] -= hi
            if problem.state_domain.contains(plus) and problem.state_domain.contains(minus):
                break
            hi *= 0.5
        else:
            raise ValueError(f"cannot perturb component {i} inside the state domain")
        j_plus = payoff_from(problem, control, plus, tau, T, settings).states[-1, n]
        j_minus = payoff_from(problem, control, minus, tau, T, settings).states[-1, n]
        grad[i] = (j_plus - j_minus) / (2 * hi)
    return grad


def payoff_from(problem: ControlProblem, control: ControlSignal, x_start, t_start: float,
                T: float, settings: IntegratorSettings) -> Trajectory:
    """The augmented (x, payoff) trajectory of the control from the state
    x_start at t_start forward to T under ``settings``: column ``state_dim``
    is the running payoff.  Raises NonExtendibleError when the state leaves
    the domain before T."""
    n = problem.state_dim

    def rhs(z, u, t):
        return np.append(problem.dynamics(z[:n], u, t), problem.payoff(z[:n], u, t))

    z0 = np.append(np.asarray(x_start, dtype=float), 0.0)
    aug = integrate_controlled(rhs, control, t_start, z0, T, settings,
                               domain=problem.state_domain.extended(1))
    if aug.exit_event is not None:
        raise NonExtendibleError(aug.exit_event)
    return aug


def check_assumption_uniform(problem: ControlProblem, control: ControlSignal,
                             transition: TransitionOperator, tau: float,
                             directions: Sequence, alphas: Sequence[float],
                             T_grid, settings: IntegratorSettings) -> ConditionVerdict:
    """Uniform-in-horizon lower bound of the payoff perturbation by its
    linearization, the paper's uniform-bound assumption.

    For each direction zeta and scale alpha computes
      q(alpha, zeta, T) = (J(x + alpha*zeta) - J(x))/alpha - <grad(tau,T), zeta>
    and takes the infimum over the horizon grid and the directions.  The tail
    rule judges the excesses max(0, -inf), largest alpha first, with hold
    tolerance 1e-4 and fail tolerance 1e-3; the estimate is the infimum at
    the smallest alpha.  x(tau) and grad(tau, T) are read off
    ``transition``, the pass of ``control``.  For dynamics and payoff linear
    in the state the quantity vanishes identically up to integration error.
    """
    T_grid = np.sort(np.atleast_1d(np.asarray(T_grid, dtype=float)))
    alphas = sorted((float(a) for a in alphas), reverse=True)
    grads = transition.gradient(tau, T_grid)
    x_tau = transition.trajectory(tau)
    n = problem.state_dim
    T_end = float(T_grid[-1])
    base_vals = payoff_from(problem, control, x_tau, tau, T_end, settings)(T_grid)[:, n]

    infs = np.empty((len(alphas), len(directions)))  # inf over T per (alpha, zeta)
    for j, zeta in enumerate(directions):
        zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
        for k, alpha in enumerate(alphas):
            x_pert = x_tau + alpha * zeta
            if not problem.state_domain.contains(x_pert):
                raise ValueError(f"perturbation alpha={alpha:g}, zeta={zeta} leaves the domain")
            try:
                aug = payoff_from(problem, control, x_pert, tau, T_end, settings)
            except NonExtendibleError as exc:
                raise ValueError(
                    f"perturbed trajectory (alpha={alpha:g}, zeta={zeta}) not extendible: "
                    f"{exc.event.description}") from exc
            infs[k, j] = np.min((aug(T_grid)[:, n] - base_vals) / alpha - grads @ zeta)
    worst = infs.min(axis=1)
    status, trend = tail_rule(np.maximum(0.0, -worst), 1e-4, 1e-3)
    last = float(worst[-1])
    if status is Verdict.HOLDS:
        note = f"inf over horizons at smallest alpha: {last:.3g}"
    elif status is Verdict.FAILS:
        note = f"lower bound violated: {last:.3g}"
    else:
        note = f"unresolved trend, inf {last:.3g}{trend}"
    return ConditionVerdict(status, last, note=note)


def _sin_response_integral(control: ControlSignal, a: float, b: float, T: float) -> float:
    """integral_a^b sin(T - t) (u(t) - 1) dt, split at the control's breakpoints.

    Exact on each piece where u is constant; elsewhere the trapezoid rule on
    4001 nodes per piece.
    """
    if b <= a:
        return 0.0
    cuts = [c for c in control.breakpoints() if a < c < b]
    nodes = [a] + sorted(cuts) + [b]
    total = 0.0
    for lo, hi in zip(nodes[:-1], nodes[1:]):
        piece = control.segment_piece(lo, hi)
        if not callable(piece):
            # integral of sin(T - t) over [lo, hi] is cos(T - hi) - cos(T - lo)
            total += (float(piece[0]) - 1.0) * (math.cos(T - hi) - math.cos(T - lo))
            continue
        ts = np.linspace(lo, hi, 4001)
        us = np.array([float(piece(float(t))[0]) for t in ts])
        integrand = np.sin(T - ts) * (us - 1.0)
        # trapezoid rule written out: np.trapz is gone from numpy 2.x and its
        # successor np.trapezoid is missing before numpy 2.0
        total += float((np.diff(ts) * (integrand[1:] + integrand[:-1])).sum() / 2.0)
    return total


def oscillator_delta_x1(control: ControlSignal, T: float) -> float:
    """Pulse response of the first oscillator state relative to u = 1:
    integral_0^T sin(T - t) (u(t) - 1) dt.

    Exact on every piece between breakpoints where the control is constant,
    dense trapezoidal quadrature on the other pieces.
    """
    return _sin_response_integral(control, 0.0, T, T)


def appendix_identity_residual(control: ControlSignal, n: int):
    """Half-period recursion of the pulse response at full periods.

    For controls mapping into [0, 1],
      dx1(2*n*pi) = -dx1((2n-1)*pi) - integral_{(2n-1)pi}^{2n pi} sin(t)(u(t)-1) dt
    and the trailing integral is nonnegative (sin <= 0 and u <= 1 there).
    Returns (identity residual, trailing integral).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    lhs = oscillator_delta_x1(control, 2 * n * math.pi)
    half = oscillator_delta_x1(control, (2 * n - 1) * math.pi)
    # integral of sin(t)(u-1) over [(2n-1)pi, 2n pi] equals the T = 2n pi
    # response restricted to that window, since sin(2n pi - t) = -sin(t)
    tail = -_sin_response_integral(control, (2 * n - 1) * math.pi,
                                   2 * n * math.pi, 2 * n * math.pi)
    residual = abs(lhs - (-half - tail))
    return residual, tail
