"""Independent routes that the identity tests compare the program with.

The program reads every adjoint path off the one (x, Y, S) pass by Lemma 1
(:func:`horizoncheck.integrate_adjoint`), so a Lemma-1 test on such a path
would hold by construction.  The oracle here solves the adjoint equation
itself: the basis rows [Phi(t)* | r(t)] of -dB/dt = B f_x(t) + [0 | g_x(t)],
integrated forward in reversed time s = -t once, off which every adjoint
path psi(t) = Phi(t) psi_T + lam r(t) is read by superposition.  The
Lemma-1 residual ties such a path to the gradients, and central differences
of the payoff are the independent route to the gradients themselves.

The oscillator's pulse response to a control and its half-period identity
are quadratures of the closed form, for the overtaking tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from horizoncheck import (
    ControlProblem,
    ControlSignal,
    IntegratorSettings,
    JxRecord,
    Trajectory,
    TransitionOperator,
    payoff_value,
)
from horizoncheck.ode_engine import integrate_controlled
from horizoncheck.problem_model import jacobians


def reflected_signal(signal: ControlSignal) -> ControlSignal:
    """The signal v(s) = u(-s) in reflected time s = -t.  Its pieces are
    those of u in reverse order, so on every open interval between switching
    times it equals u(-s); at a switching time it takes, as every signal
    does, the piece that ends there."""
    fn = signal._fn
    return ControlSignal([-t for t in reversed(signal._times)], signal._pieces[::-1],
                         signal.dim, None if fn is None else lambda s: fn(-s))


@dataclass
class AdjointBasis:
    """The rows [Phi(t)* | r(t)], n + 1 of n columns, held row-major in
    ``trajectory``: every adjoint path that ends at T is
    psi(t) = Phi(t) psi_T + lam r(t), with Phi(t) = K(T, t)*."""

    trajectory: Trajectory


@dataclass
class SolvedCostate:
    """An adjoint path psi(.) read off a basis, with its multiplier lam."""

    trajectory: Trajectory
    lam: float

    def psi(self, t):
        return self.trajectory(t)


def adjoint_basis(problem: ControlProblem, trajectory: Trajectory, control: ControlSignal,
                  T: float, settings: IntegratorSettings) -> AdjointBasis:
    """Solve -dB/dt = B f_x(t) + [0 | g_x(t)] for the basis rows B backward
    from [I | 0] at T down to the base trajectory's initial time.

    The solve runs forward in reversed time s = -t under the reflected
    control, and the basis is that solution reflected back.  Its field reads
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
    return AdjointBasis(traj.reflected())


def basis_costate(basis: AdjointBasis, psi_T, lam: float) -> SolvedCostate:
    """The adjoint path psi(t) = Phi(t) psi_T + lam r(t) from psi(T) = psi_T,
    read off the nodes, slopes and dense coefficient rows of ``basis``.
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
    domain mid-horizon raises the NonExtendibleError of
    :func:`horizoncheck.payoff_value`, which carries the exit event.
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
        j_plus = payoff_value(problem, control, plus, tau, T, settings)
        j_minus = payoff_value(problem, control, minus, tau, T, settings)
        grad[i] = (j_plus - j_minus) / (2 * hi)
    return grad


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
