"""Linearized propagators, payoff gradients, and adjoint paths: the numbers
that :mod:`.conditions` judges.  This module integrates and reads; it holds
no verdict.

The central objects are

* the transition operator, which owns one forward pass of the augmented
  system (x, Y, S) under a fixed control u(.): the state x(.), the
  fundamental matrix Y of the dynamics linearized along x(.) and the running
  integral S(t) = integral_{t0}^t Y(s)* g_x(s) ds.  From that pass it gives
  the state path, K(t, tau) = Y(t) Y(tau)^-1 and the finite-horizon payoff
  gradient with respect to the state at time tau,
  grad(tau, T) = integral_tau^T K(t, tau)* g_x(t) dt = Y(tau)^-* (S(T) - S(tau));
* the gradient records of :func:`jx_scan`, one read of the pass per anchor
  tau over a horizon grid, which ``check`` shares between the general
  condition, the limit costate and the bound;
* adjoint paths read off the same pass by Lemma 1, with no solve of their
  own: psi(t) = K(T, t)* psi(T) + lam grad(t, T)
  = Y(t)^-* (Y(T)* psi(T) + lam (S(T) - S(t))), the explicit adjoint formula
  of Aseev and Kryazhimskiy (2004).  Each path keeps its pass, so a check of
  several paths reads x, Y and S from theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ode_engine import (
    ControlSignal,
    IntegratorSettings,
    NonExtendibleError,
    Trajectory,
    integrate_controlled,
)
from .problem_model import ControlProblem, jacobians

__all__ = [
    "CostatePath",
    "JxRecord",
    "TransitionOperator",
    "integrate_adjoint",
    "jx_scan",
    "transition_matrix",
]


# a smallest singular value of Y below this many abs_tol has lost its
# relative accuracy: the pass resolves Y only to abs_tol
_Y_RESOLVED = 1e6


# ---------------------------------------------------------------------------
# transition operator and payoff-gradient scans


def _augmented_rhs(problem: ControlProblem):
    """Right-hand side of the augmented system z = (x, Y, S): the state,
    dY/dt = f_x(t) Y and dS/dt = Y* g_x(t)."""
    n = problem.state_dim
    m = n + n * n  # the end of the Y block

    def rhs(z, u, t):
        x = z[:n]
        Y = z[n:m].reshape(n, n)
        fx, gx = jacobians(problem, x, u, t)
        # the blocks go into one vector, bit-equal to fx @ Y and Y.T @ gx
        dz = np.empty(m + n)
        dz[:n] = problem.dynamics(x, u, t)
        fx.dot(Y, out=dz[n:m].reshape(n, n))
        Y.T.dot(gx, out=dz[m:])
        return dz

    return rhs


class TransitionOperator:
    """Propagator samples K(t, tau) of the dynamics linearized along a
    trajectory, together with the running gradient integral S(t), read off
    the augmented pass ``aug`` of an n-dimensional state, integrated to
    ``abs_tol``.  ``trajectory`` is the state path of that pass, on views of
    its first n columns."""

    def __init__(self, aug: Trajectory, n: int, abs_tol: float):
        self._aug = aug
        self._n = n
        self._abs_tol = abs_tol
        self.trajectory = aug.columns(0, n)

    def _blocks(self, t):
        """Y(t) and S(t) from one dense read; an array of times gives a stack
        of matrices and a stack of rows."""
        n = self._n
        z = self._aug(t)
        return z[..., n:n + n * n].reshape(z.shape[:-1] + (n, n)), z[..., n + n * n:]

    @cached_property
    def _smallest_singular(self) -> np.ndarray:
        """The running minimum, node by node, of the smallest singular value
        of Y at the nodes of the pass."""
        n = self._n
        Ys = self._aug.states[:, n:n + n * n].reshape(-1, n, n)
        return np.minimum.accumulate(np.linalg.svd(Ys, compute_uv=False)[:, -1])

    def fundamental(self, t) -> np.ndarray:
        """Y(t) = K(t, t0); an array of times gives a stack of matrices."""
        return self._blocks(t)[0]

    def _require_resolved(self, t: float, what: str, end: str):
        """ValueError opening with ``what`` when Y has lost its relative
        accuracy on [t0, ``end``] = [t0, t], the guard of every division by
        Y: a Y that decayed into the integration noise, or to zero, is
        refused rather than inverted."""
        grid = self._aug.time_grid
        smallest = float(self._smallest_singular[min(np.searchsorted(grid, t), grid.size - 1)])
        if smallest < _Y_RESOLVED * self._abs_tol:
            raise ValueError(f"{what}: Y(t) lost its relative accuracy on [t0, {end}] "
                             f"(smallest singular value {smallest:.3g})")

    def _resolved_blocks(self, tau: float):
        """Y(tau) and S(tau), or ValueError naming tau when Y has lost its
        relative accuracy on [t0, tau]."""
        self._require_resolved(tau, f"K(t, tau) unresolved at tau={tau:g}", "tau")
        return self._blocks(tau)

    def evaluate(self, t: float, tau: float) -> np.ndarray:
        """K(t, tau) = Y(t) Y(tau)^-1."""
        if t == tau:
            return np.eye(self._n)
        Yt = self.fundamental(t)
        Ytau = self._resolved_blocks(tau)[0]
        return np.linalg.solve(Ytau.T, Yt.T).T

    def gradient(self, tau: float, T) -> np.ndarray:
        """Payoff gradient over [tau, T]: Y(tau)^-* (S(T) - S(tau))."""
        Ytau, Stau = self._resolved_blocks(tau)
        diff = self._blocks(T)[1] - Stau
        return np.linalg.solve(Ytau.T, diff.T).T


def transition_matrix(problem: ControlProblem, control: ControlSignal, t_end: float,
                      settings: IntegratorSettings) -> TransitionOperator:
    """Build the transition operator of the problem under a control.

    Integrates the augmented system (x, Y, S) forward once, from the
    problem's initial point (x0, I, 0) to t_end; the operator's
    ``trajectory`` is the state part of that pass, and evaluation at
    arbitrary (t, tau) pairs is exact via the fundamental matrix.  Raises
    NonExtendibleError when the state leaves the domain before t_end.
    """
    n = problem.state_dim
    z0 = np.concatenate([problem.initial_state, np.eye(n).ravel(), np.zeros(n)])
    aug = integrate_controlled(_augmented_rhs(problem), control, problem.initial_time, z0,
                               t_end, settings, domain=problem.state_domain.extended(n * n + n))
    if aug.exit_event is not None:
        raise NonExtendibleError(aug.exit_event)
    return TransitionOperator(aug, n, settings.abs_tol)


@dataclass
class JxRecord:
    """Finite-horizon payoff gradients at anchor time tau over a horizon grid.

    ``values[i]`` is the gradient over [tau, T_grid[i]]; ``bound_running`` is
    the running max of its max-norm, the empirical bound candidate M(tau).
    """

    tau: float
    T_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.T_grid = np.asarray(self.T_grid, dtype=float)
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        norms = np.max(np.abs(self.values), axis=1)
        self.bound_running = np.maximum.accumulate(norms)


def jx_scan(transition: TransitionOperator, tau_grid, T_grid) -> list[JxRecord]:
    """Gradient records for many anchors from one transition-operator pass,
    one read per anchor tau over tau and the horizons beyond it."""
    records = []
    T_grid = np.sort(np.atleast_1d(np.asarray(T_grid, dtype=float)))
    for tau in np.atleast_1d(np.asarray(tau_grid, dtype=float)):
        Ts = np.concatenate([[tau], T_grid[T_grid > tau]])
        vals = transition.gradient(float(tau), Ts)
        vals[0] = 0.0
        records.append(JxRecord(tau=float(tau), T_grid=Ts, values=vals))
    return records


# ---------------------------------------------------------------------------
# adjoint paths


@dataclass
class CostatePath:
    """Adjoint path psi(.) on [t0, t_end] with its multiplier lam, read off
    the (x, Y, S) pass of ``transition`` by Lemma 1:
    psi(t) = Y(t)^-* (c - lam S(t)) with c = Y(T)* psi(T) + lam S(T), T = t_end.
    Every read is one dense read of the pass and one n x n solve per time."""

    transition: TransitionOperator
    t_end: float
    c: np.ndarray
    lam: float

    @property
    def t0(self) -> float:
        return self.transition.trajectory.t0

    def psi(self, t):
        """psi(t); an array of times gives a stack of rows."""
        Y, S = self.transition._blocks(t)
        rhs = (self.c - self.lam * S)[..., None]
        return np.linalg.solve(np.swapaxes(Y, -1, -2), rhs)[..., 0]

    def pulled_back(self, t):
        """K(t, t0)* psi(t) = Y(t)* psi(t) = c - lam S(t), with no solve; an
        array of times gives a stack of rows."""
        return self.c - self.lam * self.transition._blocks(t)[1]


def integrate_adjoint(transition: TransitionOperator, T: float, psi_T,
                      lam: float) -> CostatePath:
    """The adjoint path psi(t) = K(T, t)* psi_T + lam grad(t, T) on [t0, T],
    read off the pass of ``transition``; no equation is solved.  (The name
    is that of the solve this read replaced; callers that wrap it by name
    keep working.)

    The formula divides by Y(t), so it needs Y to keep its relative accuracy
    on [t0, T]: a smallest singular value of Y below 1e6 times the pass's
    abs_tol at a node of the steps that cover [t0, T] raises ``ValueError``,
    as do a T outside the pass and a psi_T of another dimension than the
    state.
    """
    T = float(T)
    trajectory = transition.trajectory
    if not trajectory.covers(T):
        raise ValueError("terminal time outside the transition operator's pass")
    psi_T = np.atleast_1d(np.asarray(psi_T, dtype=float))
    if psi_T.shape != (trajectory.dim,):
        raise ValueError("terminal costate does not match the state dimension")
    transition._require_resolved(T, "costate unresolved", "T")
    Y_T, S_T = transition._blocks(T)
    return CostatePath(transition, T, Y_T.T @ psi_T + lam * S_T, lam)

