"""Finite-horizon payoffs, needle variations, and empirical overtaking tests.

A candidate control is compared with challengers on growing horizons: the
candidate is consistent with overtaking optimality when challengers eventually
never beat it by more than eps, and with weak overtaking optimality when, for
every horizon, some later horizon exists at which no challenger is ahead by
more than eps.  Tail quantifiers are approximated by recurrence over dyadic
windows of the sampled horizon range.  Needle checks compare the payoff
change of a short constant-control pulse with its first-order prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ode_engine import (
    ControlSignal,
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


def payoff_value(problem: ControlProblem, control: ControlSignal, T: float) -> Trajectory:
    """Finite-horizon payoff of the control from the problem's initial point
    at every horizon up to T, as the augmented (x, payoff) trajectory over
    [t0, T]: column ``state_dim`` is the running payoff, and its last row
    holds the payoff over [t0, T].

    The payoff is accumulated as an extra quadrature component of the state
    integration, under the tolerances that every payoff comparison of this
    module uses.  Raises NonExtendibleError when the state leaves the domain
    before T, and ValueError for T < t0.
    """
    n = problem.state_dim

    def rhs(z, u, t):
        x = z[:n]
        dz = np.empty(n + 1)
        dz[:n] = problem.dynamics(x, u, t)
        dz[n] = problem.payoff(x, u, t)
        return dz

    z0 = np.concatenate([problem.initial_state, [0.0]])
    aug = integrate_controlled(rhs, control, problem.initial_time, z0, T, _VALUE_SETTINGS,
                               domain=problem.state_domain.extended(1))
    if aug.exit_event is not None:
        raise NonExtendibleError(aug.exit_event)
    return aug


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
    base payoff is integrated once; both run under the payoff tolerances of
    :func:`payoff_value` and serve every width.
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

    n = problem.state_dim
    j_base = payoff_value(problem, base_control, T).states[-1, n]
    slopes = np.array([payoff_value(problem, control, T).states[-1, n] - j_base
                       for control in needled]) / alphas
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


def empirical_overtaking_test(problem: ControlProblem, candidate_path: Trajectory,
                              challenger: ControlSignal, *, eps: float, T_max: float,
                              sample_spacing: float) -> OvertakingReport:
    """Compare challenger and candidate payoffs on the horizon grid of
    max(64, ceil((T_max - t0) / sample_spacing)) evenly spaced points from t0
    to T_max, both included: its spacing is (T_max - t0) / (points - 1),
    slightly above ``sample_spacing`` when the ceiling sets the count.

    ``candidate_path`` is the candidate's :func:`payoff_value` path from t0
    to T_max or later, so that one candidate integration serves every
    challenger.  The checkpoints are t0 + (T_max - t0) * {1/8, 1/4, 1/2}.
    Verdicts over the sampled range: ``consistent_OO`` when gaps stop
    exceeding eps beyond some checkpoint; ``consistent_WOO_only`` when both
    events (gap > eps and gap <= eps) recur in every dyadic tail window;
    ``violates_WOO`` when beyond some checkpoint every sampled gap exceeds
    eps; ``non_extendible_challenger`` when the challenger's state leaves the
    domain (which counts in the candidate's favor); else ``inconclusive``.
    """
    if not eps >= 0:  # also rejects NaN, against which every gap compares False
        raise ValueError(f"eps must be a nonnegative number, got {eps!r}")
    t0 = problem.initial_time
    n = problem.state_dim
    if not T_max > t0:
        raise ValueError(f"T_max = {T_max!r} must exceed t0 = {t0:.6g}")
    checkpoints = [t0 + (T_max - t0) * f for f in (0.125, 0.25, 0.5)]
    if candidate_path.dim != n + 1 or candidate_path.t0 != t0 \
            or candidate_path.t_end < T_max:
        raise ValueError(f"candidate path must be the augmented (x, payoff) path "
                         f"over [{t0:.6g}, {T_max:.6g}]")

    try:
        chal_aug = payoff_value(problem, challenger, T_max)
    except NonExtendibleError as exc:
        return OvertakingReport(
            verdict="non_extendible_challenger", max_gap=math.nan, argmax_T=math.nan,
            evidence=f"challenger exits the state domain at t={exc.event.time:.6g} "
                     f"({exc.event.description})")

    grid = np.linspace(t0, T_max, max(64, int(math.ceil((T_max - t0) / sample_spacing))))
    gaps = chal_aug(grid)[:, n] - candidate_path(grid)[:, n]

    i_max = int(np.argmax(gaps))
    max_gap, argmax_T = float(gaps[i_max]), float(grid[i_max])
    flags = _window_flags(grid, gaps, eps, checkpoints)
    evidence = "; ".join(f"[{lo:.6g},{hi:.6g}]:{'gap>eps' if viol else '-'}/"
                         f"{'gap<=eps' if ok else '-'}" for lo, hi, viol, ok in flags)

    def gap_fn(Ts):
        Ts = np.asarray(Ts, dtype=float)
        return chal_aug(Ts)[..., n] - candidate_path(Ts)[..., n]

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
