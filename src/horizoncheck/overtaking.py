"""Finite-horizon payoffs, needle variations, and empirical overtaking tests.

A candidate control is compared with challengers on growing horizons: the
candidate is consistent with overtaking optimality when challengers eventually
never beat it by more than eps, and with weak overtaking optimality when, for
every horizon, some later horizon exists at which no challenger is ahead by
more than eps.  Tail quantifiers are approximated by recurrence over dyadic
windows of the sampled horizon range.  The candidate's and every
challenger's payoff paths come from one :func:`payoff_value` call, which
integrates all controls with only constant pieces in one pass on their
stacked state.  Needle checks compare the payoff change of a short
constant-control pulse with its first-order prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ode_engine import (
    Box,
    ControlSignal,
    ExitEvent,
    IntegratorSettings,
    NonExtendibleError,
    Trajectory,
    integrate_controlled,
)
from .problem_model import ControlProblem, hamiltonian_jumps
from .variational import transition_matrix

__all__ = [
    "NeedleCheckReport",
    "NonExtendibleError",
    "OvertakingReport",
    "empirical_overtaking_test",
    "needle_limit_check",
    "payoff_value",
]

_VALUE_SETTINGS = IntegratorSettings(rel_tol=1e-11, abs_tol=1e-13)


def payoff_value(problem: ControlProblem, controls: Sequence[ControlSignal],
                 T: float) -> list:
    """Finite-horizon payoff of each control from the problem's initial point
    at every horizon up to T, as one augmented (x, payoff) trajectory per
    control over [t0, T]: column ``state_dim`` is the running payoff, and
    its last row holds the payoff over [t0, T].

    The payoff is accumulated as an extra quadrature component of the state
    integration, under the tolerances that every payoff comparison of this
    module uses.  The controls whose pieces are all constant run in one pass
    on the stacked state [(x, payoff) per control], under their
    :meth:`ControlSignal.stacked` signal, so they share its steps; a control
    with a closed-form piece runs in a pass of its own, so that no other
    member pays for its steps or calls it.  A path whose state leaves the
    domain before T ends there and carries its own ``exit_event`` (see
    :func:`_stacked_pass`).  A control given more than once (the same
    object) runs once, and gets the one path.  Raises ValueError for T < t0.
    """
    given = list(controls)
    controls = list({id(c): c for c in given}.values())
    stackable = [i for i, c in enumerate(controls) if not c.has_closed_form]
    groups = [stackable] if stackable else []
    groups += [[i] for i, c in enumerate(controls) if c.has_closed_form]
    paths = {}
    for group in groups:
        for i, path in zip(group, _stacked_pass(problem, [controls[i] for i in group], T)):
            paths[id(controls[i])] = path
    return [paths[id(c)] for c in given]


def _stacked_pass(problem: ControlProblem, controls: list, T: float) -> list:
    """The augmented paths of :func:`payoff_value` for ``controls``, from
    one :func:`integrate_controlled` call on their stacked state, each a
    column block of the stacked trajectory.  When a member leaves the
    domain, the pass ends there: each member whose block lies outside its
    own (x, payoff) box at that point gets the exit time, its block of the
    state and its box's description of the exit as its event, and the
    others are run again in one pass of their own."""
    m, width = len(controls), problem.state_dim + 1
    box = problem.state_domain.extended(1)
    stack = integrate_controlled(
        _stacked_rhs(problem, m), ControlSignal.stacked(controls), problem.initial_time,
        np.tile(np.append(problem.initial_state, 0.0), m), T, _VALUE_SETTINGS,
        domain=Box(np.tile(box.lower, m), np.tile(box.upper, m)))
    event = stack.exit_event
    paths = [stack.columns(a, a + width) for a in range(0, m * width, width)]
    rerun = []
    if event is not None:
        for i, path in enumerate(paths):
            state = path.states[-1]  # the event state's block
            if box.contains(state):
                rerun.append(i)
            else:
                path.exit_event = ExitEvent(event.time, state, box.describe_exit(state))
    if rerun:
        for i, path in zip(rerun, _stacked_pass(problem, [controls[i] for i in rerun], T)):
            paths[i] = path
    return paths


def _stacked_rhs(problem: ControlProblem, members: int):
    """Right-hand side of the stacked (x, payoff) state of ``members``
    controls under their stacked control vector: member i's block holds
    f(x_i, u_i, t) and then g(x_i, u_i, t), from one f call and one g call
    on the (members, n) block of states."""
    n, d = problem.state_dim, problem.control_dim

    def rhs(z, u, t):
        x, us = z.reshape(members, n + 1)[:, :n], u.reshape(members, d)
        dz = np.empty((members, n + 1))
        dz[:, :n] = problem.dynamics(x, us, t)
        dz[:, n] = problem.payoff(x, us, t)
        return dz.ravel()

    return rhs


def _needled(problem: ControlProblem, base_control: ControlSignal, tau: float,
             alpha: float, u: np.ndarray, T: float) -> ControlSignal:
    """The base control with the constant pulse ``u`` on (tau - alpha, tau],
    after checking that the pulse is admissible and lies inside [t0, T] (a
    NaN tau does not); ``with_needle`` checks the width."""
    if not problem.control_set.contains(u):
        raise ValueError(f"needle control {u} outside the admissible set")
    needled = base_control.with_needle(tau, alpha, u)
    if not (problem.initial_time <= tau - alpha and tau <= T):
        raise ValueError("needle interval must lie inside [t0, T]")
    return needled


@dataclass
class NeedleCheckReport:
    """First-order needle check: payoff slopes against the prediction
    H(x, u, tau, grad(tau, T), 1) - H(x, u_hat, tau, grad(tau, T), 1)."""

    tau: float
    T: float
    alphas: np.ndarray
    slopes: np.ndarray        # payoff change per unit width, per alpha
    prediction: float
    errors: np.ndarray        # |slope - prediction|
    fitted_order: float       # least-squares slope of log error vs log alpha

    def rows(self):
        return list(zip(self.alphas.tolist(), self.slopes.tolist(),
                        self.errors.tolist()))


def needle_limit_check(problem: ControlProblem, base_control: ControlSignal,
                       tau: float, u, T: float,
                       alphas: Sequence[float]) -> NeedleCheckReport:
    """Tabulate needle payoff slopes against their first-order prediction.

    The prediction is the Hamiltonian difference at tau with the payoff
    gradient as multiplier: the gradient times the dynamics jump
    f(x(tau), u, tau) - f(x(tau), u_hat(tau), tau) plus the payoff-rate jump.
    The error is expected to vanish linearly in the width, and its order is
    fitted over at least two distinct widths.  x(tau) and grad(tau, T) are
    read off one transition pass of the base control from t0 to T, and the
    payoffs of the base control and of every needled control come from one
    :func:`payoff_value` call; both run under its tolerances.  Raises
    NonExtendibleError when a state leaves the domain before T.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    alphas = np.sort(np.asarray(list(alphas), dtype=float))[::-1]
    needled = [_needled(problem, base_control, tau, float(alpha), u, T) for alpha in alphas]
    if np.unique(alphas).size < 2:
        raise ValueError(f"need at least two distinct needle widths, got {alphas.tolist()}")
    transition = transition_matrix(problem, base_control, T, _VALUE_SETTINGS)
    prediction = float(hamiltonian_jumps(problem, transition.trajectory(tau),
                                         base_control.evaluate(tau), tau, [u],
                                         transition.gradient(tau, T), 1.0)[0])

    paths = payoff_value(problem, [base_control, *needled], T)
    for path in paths:
        if path.exit_event is not None:
            raise NonExtendibleError(path.exit_event)
    j_base, *j_needled = [path.states[-1, problem.state_dim] for path in paths]
    slopes = (np.array(j_needled) - j_base) / alphas
    errors = np.abs(slopes - prediction)

    positive = errors > 0
    if np.count_nonzero(positive) >= 2:
        coeffs = np.polyfit(np.log(alphas[positive]), np.log(errors[positive]), 1)
        order = float(coeffs[0])
    else:
        order = math.inf  # errors at rounding level: better than any finite order
    return NeedleCheckReport(tau=tau, T=T, alphas=alphas, slopes=slopes,
                             prediction=prediction, errors=errors,
                             fitted_order=order)


# ---------------------------------------------------------------------------
# empirical overtaking comparison


@dataclass
class OvertakingReport:
    verdict: str                     # consistent_OO | consistent_WOO_only |
    #                                  violates_WOO | non_extendible_challenger |
    #                                  inconclusive
    max_gap: float
    argmax_T: float
    evidence: str
    gap_fn: object = field(default=None, repr=False)


def _window_flags(grid, gaps, eps, checkpoints) -> list:
    """(lo, hi, gap > eps somewhere, gap <= eps somewhere) for each window
    [checkpoint, next checkpoint], the last one ending at the grid's end."""
    bounds = [*checkpoints, float(grid[-1])]
    flags = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        window = gaps[(grid >= lo) & (grid <= hi)]
        flags.append((lo, hi, bool(np.any(window > eps)), bool(np.any(window <= eps))))
    return flags


def _exits_by(path: Trajectory, T: float) -> bool:
    """Whether the path's state leaves the domain at or before T."""
    return path.exit_event is not None and path.exit_event.time <= T


def empirical_overtaking_test(problem: ControlProblem, candidate_path: Trajectory,
                              challenger_path: Trajectory, *, eps: float, T_max: float,
                              sample_spacing: float) -> OvertakingReport:
    """Compare challenger and candidate payoffs on the horizon grid of
    max(64, ceil((T_max - t0) / sample_spacing)) evenly spaced points from t0
    to T_max, both included: its spacing is (T_max - t0) / (points - 1),
    slightly above ``sample_spacing`` when the ceiling sets the count.

    ``candidate_path`` and ``challenger_path`` are :func:`payoff_value`
    paths from t0 to T_max or later, so that one pass serves the candidate
    and every challenger; either may end early at its exit event.  A
    candidate that leaves the domain by T_max raises NonExtendibleError.
    The checkpoints are t0 + (T_max - t0) * {1/8, 1/4, 1/2}.
    Verdicts over the sampled range: ``consistent_OO`` when gaps stop
    exceeding eps beyond some checkpoint; ``consistent_WOO_only`` when both
    events (gap > eps and gap <= eps) recur in every dyadic tail window;
    ``violates_WOO`` when beyond some checkpoint every sampled gap exceeds
    eps; ``non_extendible_challenger`` when the challenger's state leaves the
    domain by T_max (which counts in the candidate's favor); else
    ``inconclusive``.
    """
    if not eps >= 0:  # also rejects NaN, against which every gap compares False
        raise ValueError(f"eps must be a nonnegative number, got {eps!r}")
    t0 = problem.initial_time
    n = problem.state_dim
    if not T_max > t0:
        raise ValueError(f"T_max = {T_max!r} must exceed t0 = {t0:.6g}")
    checkpoints = [t0 + (T_max - t0) * f for f in (0.125, 0.25, 0.5)]
    for name, path in (("candidate", candidate_path), ("challenger", challenger_path)):
        if path.dim != n + 1 or path.t0 != t0 or (path.exit_event is None
                                                  and path.t_end < T_max):
            raise ValueError(f"{name} path must be the augmented (x, payoff) path "
                             f"over [{t0:.6g}, {T_max:.6g}]")
    if _exits_by(candidate_path, T_max):
        raise NonExtendibleError(candidate_path.exit_event)

    if _exits_by(challenger_path, T_max):
        event = challenger_path.exit_event
        return OvertakingReport(
            verdict="non_extendible_challenger", max_gap=math.nan, argmax_T=math.nan,
            evidence=f"challenger exits the state domain at t={event.time:.6g} "
                     f"({event.description})")

    grid = np.linspace(t0, T_max, max(64, int(math.ceil((T_max - t0) / sample_spacing))))
    gaps = challenger_path(grid)[:, n] - candidate_path(grid)[:, n]

    i_max = int(np.argmax(gaps))
    max_gap, argmax_T = float(gaps[i_max]), float(grid[i_max])
    flags = _window_flags(grid, gaps, eps, checkpoints)
    evidence = "; ".join(f"[{lo:.6g},{hi:.6g}]:{'gap>eps' if viol else '-'}/"
                         f"{'gap<=eps' if ok else '-'}" for lo, hi, viol, ok in flags)

    def gap_fn(Ts):
        Ts = np.asarray(Ts, dtype=float)
        return challenger_path(Ts)[..., n] - candidate_path(Ts)[..., n]

    # the windows from checkpoint i on cover the tail beyond it
    for i, ck in enumerate(checkpoints):
        if not any(viol for _, _, viol, _ in flags[i:]):
            return OvertakingReport("consistent_OO", max_gap, argmax_T,
                                    f"no gap above eps beyond T={ck:.6g}; {evidence}",
                                    gap_fn)
        if not any(ok for _, _, _, ok in flags[i:]):
            return OvertakingReport("violates_WOO", max_gap, argmax_T,
                                    f"every sampled gap beyond T={ck:.6g} exceeds eps; {evidence}",
                                    gap_fn)

    recurs = all(viol and ok for _, _, viol, ok in flags)
    verdict = "consistent_WOO_only" if recurs else "inconclusive"
    return OvertakingReport(verdict, max_gap, argmax_T, evidence, gap_fn)
