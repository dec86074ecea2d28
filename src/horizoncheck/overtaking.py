"""Finite-horizon payoffs, needle variations, and empirical overtaking tests.

A candidate control is compared with challengers on growing horizons: the
candidate is consistent with overtaking optimality when challengers eventually
never beat it by more than eps, and with weak overtaking optimality when, for
every horizon, some later horizon exists at which no challenger is ahead by
more than eps.  Tail quantifiers are approximated by recurrence over dyadic
windows of the sampled horizon range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .ode_engine import (
    ControlSignal,
    IntegratorSettings,
    NonExtendibleError,
    Trajectory,
    solve_state,
)
from .problem_model import ControlProblem, hamiltonian_jumps
from .variational import accumulate_jx, payoff_value

__all__ = [
    "NeedleCheckReport",
    "NeedleSpec",
    "NonExtendibleError",
    "OvertakingReport",
    "appendix_identity_residual",
    "empirical_overtaking_test",
    "finite_horizon_value",
    "needle_gap",
    "needle_limit_check",
    "oscillator_delta_x1",
    "payoff_path",
]

_VALUE_SETTINGS = IntegratorSettings(rel_tol=1e-11, abs_tol=1e-13)


@dataclass(frozen=True)
class NeedleSpec:
    """A constant-control pulse on the half-open interval (tau - alpha, tau]."""

    tau: float
    alpha: float
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", np.atleast_1d(np.asarray(self.u, dtype=float)))
        if self.alpha <= 0:
            raise ValueError("needle width must be positive")


def finite_horizon_value(problem: ControlProblem, control: ControlSignal,
                         x0=None, t0: Optional[float] = None, T: float = None,
                         settings: Optional[IntegratorSettings] = None) -> float:
    """Payoff integral of the controlled trajectory from (x0, t0) to T.

    Raises NonExtendibleError when the state leaves the domain before T (a
    different failure from numerical breakdown, which raises
    IntegrationError).
    """
    if T is None:
        raise ValueError("horizon T is required")
    x0 = problem.initial_state if x0 is None else x0
    t0 = problem.initial_time if t0 is None else float(t0)
    return payoff_value(problem, control, x0, t0, float(T),
                        settings or _VALUE_SETTINGS)


def _needled(problem: ControlProblem, base_control: ControlSignal,
             needle: NeedleSpec, T: float) -> ControlSignal:
    """The base control with the needle pulse applied, after checking that the
    pulse is admissible and lies inside [t0, T]."""
    if not problem.control_set.contains(needle.u):
        raise ValueError(f"needle control {needle.u} outside the admissible set")
    if needle.tau - needle.alpha < problem.initial_time or needle.tau > T:
        raise ValueError("needle interval must lie inside [t0, T]")
    return base_control.with_needle(needle.tau, needle.alpha, needle.u)


def needle_gap(problem: ControlProblem, base_control: ControlSignal,
               needle: NeedleSpec, T: float,
               settings: Optional[IntegratorSettings] = None) -> float:
    """Payoff change from applying the needle pulse to the base control."""
    needled = _needled(problem, base_control, needle, T)
    settings = settings or _VALUE_SETTINGS
    j_needled = finite_horizon_value(problem, needled, T=T, settings=settings)
    j_base = finite_horizon_value(problem, base_control, T=T, settings=settings)
    return j_needled - j_base


@dataclass
class NeedleCheckReport:
    """First-order needle check: payoff slopes against the prediction
    H(x, u, tau, grad(tau, T), 1) - H(x, u_hat, tau, grad(tau, T), 1)."""

    tau: float
    u: np.ndarray
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
                       tau: float, u, T: float, alphas: Sequence[float],
                       settings: Optional[IntegratorSettings] = None,
                       trajectory: Optional[Trajectory] = None) -> NeedleCheckReport:
    """Tabulate needle payoff slopes against their first-order prediction.

    The prediction is the Hamiltonian difference at tau with the payoff
    gradient as multiplier: the gradient times the dynamics jump
    f(x(tau), u, tau) - f(x(tau), u_hat(tau), tau) plus the payoff-rate jump.
    The error is expected to vanish linearly in the width.  The base payoff
    is integrated once and shared by every width.
    """
    settings = settings or _VALUE_SETTINGS
    u = np.atleast_1d(np.asarray(u, dtype=float))
    alphas = np.sort(np.asarray(list(alphas), dtype=float))[::-1]
    needled = [_needled(problem, base_control, NeedleSpec(tau, float(alpha), u), T)
               for alpha in alphas]
    if trajectory is None:
        trajectory = solve_state(problem, base_control, T, settings)
    jx = accumulate_jx(problem, trajectory, base_control, tau, [tau, T], settings)
    prediction = float(hamiltonian_jumps(problem, trajectory(tau), base_control.evaluate(tau),
                                         tau, [u], jx.value_at(T), 1.0)[0])

    j_base = finite_horizon_value(problem, base_control, T=T, settings=settings)
    slopes = np.array([(finite_horizon_value(problem, control, T=T, settings=settings)
                        - j_base) / alpha for control, alpha in zip(needled, alphas)])
    errors = np.abs(slopes - prediction)

    positive = errors > 0
    if np.count_nonzero(positive) >= 2:
        coeffs = np.polyfit(np.log(alphas[positive]), np.log(errors[positive]), 1)
        order = float(coeffs[0])
    else:
        order = math.inf  # errors at rounding level: better than any finite order
    return NeedleCheckReport(tau=tau, u=u, T=T, alphas=alphas, slopes=slopes,
                             prediction=prediction, errors=errors,
                             fitted_order=order)


# ---------------------------------------------------------------------------
# empirical overtaking comparison


@dataclass
class OvertakingReport:
    candidate: ControlSignal
    challenger: ControlSignal
    eps: float
    horizon_samples: list            # (T', gap) pairs, thinned for storage
    verdict: str                     # consistent_OO | consistent_WOO_only |
    #                                  violates_WOO | non_extendible_challenger |
    #                                  inconclusive
    max_gap: float
    argmax_T: float
    evidence: str
    gap_fn: object = field(default=None, repr=False)


def _window_evidence(T, gaps, eps, checkpoints):
    ev = []
    for ck, ck_next in zip(checkpoints, list(checkpoints[1:]) + [T[-1]]):
        mask = (T >= ck) & (T <= ck_next)
        if not np.any(mask):
            continue
        viol = bool(np.any(gaps[mask] > eps))
        ok = bool(np.any(gaps[mask] <= eps))
        ev.append(f"[{ck:.6g},{ck_next:.6g}]:"
                  f"{'gap>eps' if viol else '-'}/{'gap<=eps' if ok else '-'}")
    return "; ".join(ev)


def payoff_path(problem: ControlProblem, control: ControlSignal, T_max: float,
                settings: Optional[IntegratorSettings] = None) -> Trajectory:
    """Augmented (x, payoff) trajectory of the control from the problem's
    initial point to T_max; column ``state_dim`` is the running payoff."""
    _, aug = payoff_value(problem, control, problem.initial_state,
                          problem.initial_time, T_max, settings or _VALUE_SETTINGS,
                          return_trajectory=True)
    return aug


def empirical_overtaking_test(problem: ControlProblem, candidate: ControlSignal,
                              challenger: ControlSignal, eps: float = 1e-6,
                              T_checkpoints: Optional[Sequence[float]] = None,
                              T_max: float = 400.0,
                              settings: Optional[IntegratorSettings] = None,
                              sample_spacing: float = 0.02,
                              candidate_path: Optional[Trajectory] = None
                              ) -> OvertakingReport:
    """Compare challenger and candidate payoffs on a dense horizon grid.

    Verdicts over the sampled range: ``consistent_OO`` when gaps stop
    exceeding eps beyond some checkpoint; ``consistent_WOO_only`` when both
    events (gap > eps and gap <= eps) recur in every dyadic tail window;
    ``violates_WOO`` when beyond some checkpoint every sampled gap exceeds
    eps; ``non_extendible_challenger`` when the challenger's state leaves the
    domain (which counts in the candidate's favor); else ``inconclusive``.

    Every checkpoint must lie inside (t0, T_max), so that each tail holds
    samples.  ``candidate_path``, the :func:`payoff_path` of the candidate
    from t0 to T_max or later, spares the candidate's integration when one
    candidate meets several challengers.
    """
    if not eps >= 0:  # also rejects NaN, against which every gap compares False
        raise ValueError(f"eps must be a nonnegative number, got {eps!r}")
    settings = settings or _VALUE_SETTINGS
    t0 = problem.initial_time
    n = problem.state_dim
    if T_checkpoints is None:
        T_checkpoints = [T_max / 8, T_max / 4, T_max / 2]
    checkpoints = sorted(float(c) for c in T_checkpoints)
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    if not t0 < checkpoints[0] or not checkpoints[-1] < T_max:
        raise ValueError(f"checkpoints {checkpoints} must lie inside "
                         f"(t0, T_max) = ({t0:.6g}, {T_max:.6g})")

    if candidate_path is None:
        cand_aug = payoff_path(problem, candidate, T_max, settings)
    elif candidate_path.dim != n + 1 or candidate_path.t0 != t0 \
            or candidate_path.t_end < T_max:
        raise ValueError(f"candidate path must be the augmented (x, payoff) path "
                         f"over [{t0:.6g}, {T_max:.6g}]")
    else:
        cand_aug = candidate_path

    try:
        _, chal_aug = payoff_value(problem, challenger, problem.initial_state, t0,
                                   T_max, settings, return_trajectory=True)
    except NonExtendibleError as exc:
        return OvertakingReport(
            candidate=candidate, challenger=challenger, eps=eps,
            horizon_samples=[], verdict="non_extendible_challenger",
            max_gap=math.nan, argmax_T=math.nan,
            evidence=f"challenger exits the state domain at t={exc.event.time:.6g} "
                     f"({exc.event.description})")

    grid = np.linspace(t0, T_max, max(64, int(math.ceil((T_max - t0) / sample_spacing))))
    gaps = chal_aug(grid)[:, n] - cand_aug(grid)[:, n]
    samples = list(zip(grid[:: max(1, grid.size // 2000)].tolist(),
                       gaps[:: max(1, grid.size // 2000)].tolist()))

    i_max = int(np.argmax(gaps))
    max_gap, argmax_T = float(gaps[i_max]), float(grid[i_max])
    evidence = _window_evidence(grid, gaps, eps, checkpoints)

    def gap_fn(Ts):
        Ts = np.asarray(Ts, dtype=float)
        return chal_aug(Ts)[..., n] - cand_aug(Ts)[..., n]

    for ck in checkpoints:
        tail = grid >= ck
        tail_gaps = gaps[tail]
        if not np.any(tail_gaps > eps):
            return OvertakingReport(candidate, challenger, eps, samples,
                                    "consistent_OO", max_gap, argmax_T,
                                    f"no gap above eps beyond T={ck:.6g}; {evidence}",
                                    gap_fn)
        if not np.any(tail_gaps <= eps):
            return OvertakingReport(candidate, challenger, eps, samples,
                                    "violates_WOO", max_gap, argmax_T,
                                    f"every sampled gap beyond T={ck:.6g} exceeds eps; {evidence}",
                                    gap_fn)

    recurs = True
    for ck, ck_next in zip(checkpoints, list(checkpoints[1:]) + [float(grid[-1])]):
        window = (grid >= ck) & (grid <= ck_next)
        win_gaps = gaps[window]
        if not (np.any(win_gaps > eps) and np.any(win_gaps <= eps)):
            recurs = False
            break
    verdict = "consistent_WOO_only" if recurs else "inconclusive"
    return OvertakingReport(candidate, challenger, eps, samples, verdict,
                            max_gap, argmax_T, evidence, gap_fn)


# ---------------------------------------------------------------------------
# oscillator pulse-response identities


def _sin_response_integral(control: ControlSignal, a: float, b: float, T: float,
                           n_quad: int = 4001) -> float:
    """integral_a^b sin(T - t) (u(t) - 1) dt, split at the control's breakpoints.

    Exact on each piece where u is constant; elsewhere the trapezoid rule on
    ``n_quad`` nodes per piece.
    """
    if b <= a:
        return 0.0
    cuts = [c for c in control.breakpoints() if a < c < b]
    nodes = [a] + sorted(cuts) + [b]
    total = 0.0
    for lo, hi in zip(nodes[:-1], nodes[1:]):
        u = control.segment_value(lo, hi)
        if u is not None:
            # integral of sin(T - t) over [lo, hi] is cos(T - hi) - cos(T - lo)
            total += (float(u[0]) - 1.0) * (math.cos(T - hi) - math.cos(T - lo))
            continue
        ts = np.linspace(lo, hi, n_quad)
        # the piece is (lo, hi]: its value at lo is the limit from the right,
        # not the value an override ending at lo holds there
        us = np.array([float(control.evaluate(float(t))[0])
                       for t in (np.nextafter(lo, hi), *ts[1:])])
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
