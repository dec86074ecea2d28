"""Every verdict of the package, judged on the numbers of :mod:`.variational`.

That module integrates the (x, Y, S) pass and reads it: the state path, the
payoff gradients of :func:`~horizoncheck.variational.jx_scan` and the
adjoint paths.  This module owns the one tail rule, :func:`tail_rule`, with
its thresholds, and judges with it:

* the gradient route: the limit costate psi_hat as the horizon grows, and a
  horizon-uniform bound on the gradients;
* the classical limit conditions on an adjoint path: psi(t) -> 0,
  <x(t), psi(t)> -> 0, H(t) -> 0, and K(t, t0)* psi(t) -> 0;
* the pointwise maximum principle on a sampled control grid;
* the liminf/limsup tail conditions on the Hamiltonian difference built from
  finite-horizon payoff gradients (no adjoint needed), in a weak form (liminf,
  for weakly overtaking candidates) and a strong form (limsup, for overtaking
  candidates);
* the costate decomposition psi(tau) = K(t0, tau)* a0 + lam * psi_hat(tau)
  and, for state-independent payoffs under state constraints, the pointwise
  payoff-rate maximization rule over a family of feasible candidates.

Verdicts are three-way (holds / fails / inconclusive), each with the one
number its report row prints.  Every limit verdict comes from
:func:`tail_rule`, applied to per-window excesses that each check builds
from its own windows; a tail that still shrinks toward its target beyond the
rule's slack is never failed.  A costate check reads x, Y and S from the
pass of its adjoint paths, so it cannot mix two passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Optional, Sequence, Tuple

import numpy as np

from .ode_engine import ControlSignal, Trajectory
from .problem_model import ControlProblem, hamiltonian, hamiltonian_jumps, jacobians
from .variational import CostatePath, JxRecord, TransitionOperator

__all__ = [
    "GeneralConditionReport",
    "ConditionVerdict",
    "Verdict",
    "check_classical",
    "check_general",
    "check_gmax",
    "check_jx_bounded",
    "check_max_principle",
    "decompose_costate",
    "dense_horizon_grid",
    "limit_costate",
]

# The tail thresholds: a window is a quarter of the sampled range; a limit
# holds below the hold tolerance and fails from the fail tolerance; a running
# max that grows by the growth factor is unbounded; a window rises or falls
# when it leaves (1 +- TREND_SLACK) times the one before, widened by TREND_FLOOR.
TAIL_WINDOW_FRACTION = 0.25
TAIL_HOLD_TOL = 1e-4
TAIL_FAIL_TOL = 1e-2
GROWTH_FACTOR = 2.0
TREND_SLACK = 0.1
TREND_FLOOR = 1e-3
VERDICT_SLACK = 1e-6  # absolute slack for "<= 0" verdicts
# control values sampled per axis by the general condition and the maximum principle
_CONTROL_RESOLUTION = 33


# ---------------------------------------------------------------------------
# verdicts and the tail rule


class Verdict(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class ConditionVerdict:
    """Outcome of one condition check: its status, the number its report
    row prints (None for none) and a note that says what decided it."""

    status: Verdict
    estimate: Optional[float]
    note: str


def tail_windows(t_grid: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Masks of the points of an increasing grid in its last
    ``TAIL_WINDOW_FRACTION`` of range, the tail, and in the window before."""
    last = float(t_grid[-1])
    width = TAIL_WINDOW_FRACTION * (last - float(t_grid[0]))
    tail = t_grid >= last - width
    return (t_grid >= last - 2 * width) & ~tail, tail


def window_oscillation(window) -> float:
    """The largest range max - min of the components of a window of
    samples, one per row; NaN for fewer than 3 samples."""
    window = np.asarray(window, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf in an all-infinite window
        return float(np.max(np.ptp(window, axis=0))) if len(window) >= 3 else math.nan


def tail_rule(excesses, hold_tol: float, fail_tol: float) -> Tuple[Verdict, str]:
    """The tail rule on per-window excesses over a target, earliest first:
    holds when the last excess is below ``hold_tol`` and no window rises
    above the one before, fails when it reaches ``fail_tol`` and no window
    falls below the one before, and is inconclusive otherwise or on a NaN.
    Also returns a note suffix, empty unless the trend kept from failing a
    tail that shrank overall: then it names the mean shrink per window."""
    e = [float(v) for v in excesses]
    if any(math.isnan(v) for v in e):
        return Verdict.INCONCLUSIVE, ""
    bands = [sorted((v * (1 - TREND_SLACK), v * (1 + TREND_SLACK))) for v in e[:-1]]
    rises = any(v > high + TREND_FLOOR for v, (_, high) in zip(e[1:], bands))
    falls = any(v < low - TREND_FLOOR for v, (low, _) in zip(e[1:], bands))
    if e[-1] < hold_tol and not rises:
        return Verdict.HOLDS, ""
    if e[-1] >= fail_tol and not falls:
        return Verdict.FAILS, ""
    if e[-1] < fail_tol or e[-1] >= e[0]:
        return Verdict.INCONCLUSIVE, ""
    shrink = (e[-1] / e[0]) ** (1 / (len(e) - 1))
    return Verdict.INCONCLUSIVE, (f"; shrinks x{shrink:.3g} per window, "
                                  "a longer horizon may decide")


def tail_limit_verdict(values, earlier, note: str) -> ConditionVerdict:
    """Judge whether a sampled scalar quantity, ``values`` on the tail window
    and ``earlier`` on the window before, tends to zero.

    A window's excess is the larger of its oscillation and its |mean|, judged
    by :func:`tail_rule` with ``TAIL_HOLD_TOL`` and ``TAIL_FAIL_TOL``; slow or
    unresolved limits are never over-claimed.  ``note`` names the quantity;
    the estimate is the tail window's excess, None for an empty tail.
    """
    stats = [(window_oscillation(w), float(np.mean(w)) if len(w) >= 3 else math.nan)
             for w in (earlier, values)]
    # abs(mean) first: max keeps it when osc is NaN (an all-infinite tail)
    excesses = [max(abs(mean), osc) for osc, mean in stats]
    status, trend = tail_rule(excesses, TAIL_HOLD_TOL, TAIL_FAIL_TOL)
    osc, mean = stats[-1]
    detail = f"{note}; tail oscillation {osc:.3g}, tail mean {mean:.3g}{trend}"
    return ConditionVerdict(status, excesses[-1] if len(values) else None, note=detail)


def _settled_mean(earlier, tail):
    """The tail rule on the largest component oscillation of the ``tail``
    window of samples, one per row, against the ``earlier`` window, then the
    tail's mean when it holds: (mean or None, status, tail oscillation, trend
    note)."""
    osc = window_oscillation(tail)
    status, trend = tail_rule([window_oscillation(earlier), osc], TAIL_HOLD_TOL, TAIL_FAIL_TOL)
    return (tail.mean(axis=0) if status is Verdict.HOLDS else None), status, osc, trend


# ---------------------------------------------------------------------------
# the gradient route: limit costate and horizon-uniform bound


def dense_horizon_grid(tau: float, t_max: float) -> np.ndarray:
    """Uniform horizon grid dense enough to resolve almost-periodic tails:
    spacing at most 0.02, with at least 64 and at most 400,000 intervals."""
    if t_max <= tau:
        raise ValueError("need t_max > tau")
    n = int(min(400_000, max(64, math.ceil((t_max - tau) / 0.02))))
    return np.linspace(tau, t_max, n + 1)


def limit_costate(jx: JxRecord, bounded: ConditionVerdict):
    """Tail limit of the payoff gradient as the horizon grows.

    :func:`_settled_mean` judges the largest component oscillation on the
    last quarter of the record's horizon span against the quarter before it.
    When it holds, the limit psi_hat is the tail window's average, and the
    estimate is its max-norm; a failing limit is called unbounded when
    ``bounded``, the verdict of :func:`check_jx_bounded` on the same record,
    fails.  Returns (psi_hat or None, verdict).
    """
    earlier, tail = tail_windows(jx.T_grid)
    psi_hat, status, osc, trend = _settled_mean(jx.values[earlier], jx.values[tail])
    if psi_hat is not None:
        return psi_hat, ConditionVerdict(status, float(np.max(np.abs(psi_hat))),
                                         note=f"tail oscillation {osc:.3g}")
    if status is Verdict.INCONCLUSIVE:
        note = f"tail oscillation {osc:.3g} unresolved{trend}"
    elif bounded.status is Verdict.FAILS:
        note = f"unbounded: growth x{_growth_ratios(jx)[-1]:.3g} per two doublings"
    else:
        note = f"bounded, non-convergent: tail oscillation {osc:.3g}"
    return None, ConditionVerdict(status, None, note=note)


def check_jx_bounded(jx: JxRecord):
    """Empirical horizon-uniform bound on the payoff gradient of a record.

    A window's excess is the running max's growth ratio minus 1 over two
    horizon doublings, T/16 to T/4 and then T/4 to T.  The tail rule holds
    growth below ``TREND_SLACK`` and fails growth by ``GROWTH_FACTOR`` or
    more as unbounded; the estimate is the observed max.
    """
    ratios, m = _growth_ratios(jx), float(jx.bound_running[-1])
    status, trend = tail_rule([r - 1 for r in ratios], TREND_SLACK, GROWTH_FACTOR - 1)
    if status is Verdict.HOLDS:
        note = f"bounded, observed max {m:.6g}"
    elif status is Verdict.FAILS:
        note = f"unbounded: running max grew x{ratios[-1]:.3g}"
    else:
        note = f"growth ratio {ratios[-1]:.3g} unresolved{trend}"
    return ConditionVerdict(status, m, note=note)


def _growth_ratios(jx: JxRecord) -> list:
    """Running-max growth from T/16 to T/4 and from T/4 to T, with T counted
    from the anchor."""
    t = jx.T_grid
    tau, span = float(t[0]), float(t[-1]) - float(t[0])
    idx = np.minimum(np.searchsorted(t, [tau + span / 16, tau + 0.25 * span]), t.size - 1)
    maxima = [*jx.bound_running[idx], jx.bound_running[-1]]
    return [float(hi / lo) if lo > 0 else (math.inf if hi > 0 else 1.0)
            for lo, hi in zip(maxima, maxima[1:])]


# ---------------------------------------------------------------------------
# liminf / limsup tail conditions


@dataclass
class GeneralConditionReport:
    """Per-(tau, u) tail estimates of the Hamiltonian difference and the
    aggregate verdict of the battery, whose estimate is the worst cell;
    column j is the j-th control value of
    ``control_set.sample_grid(_CONTROL_RESOLUTION)``."""

    estimates: np.ndarray        # (n_tau, n_u) tail liminf or limsup estimates
    verdict: ConditionVerdict


def check_general(problem: ControlProblem, transition: TransitionOperator,
                  control: ControlSignal, records: Sequence[JxRecord], *,
                  mode: str) -> GeneralConditionReport:
    """Tail test of the Hamiltonian-difference condition over a (tau, u) grid.

    The anchors tau are those of the gradient ``records`` of
    :func:`~horizoncheck.variational.jx_scan`, the control values 33 per
    axis of the control set.  For each cell the liminf (mode WOO) or limsup
    (mode OO) of the Hamiltonian difference, built from the record's values,
    is estimated by the min/max over the last half of its horizon span.
    With the same extremum over the quarter and the eighth of the span
    before it, these three dyadic windows are judged by :func:`tail_rule`
    as excesses over 0, with ``VERDICT_SLACK`` as hold and fail tolerance.  The battery verdict aggregates all cells.  The state
    path is that of ``transition``.
    """
    if mode not in ("WOO", "OO"):
        raise ValueError("mode must be 'WOO' or 'OO'")
    control_grid = problem.control_set.sample_grid(_CONTROL_RESOLUTION)
    windows = np.empty((len(records), control_grid.shape[0], 3))
    extremum = np.min if mode == "WOO" else np.max

    for i, rec in enumerate(records):
        tau, Ts = rec.tau, rec.T_grid
        dH = hamiltonian_jumps(problem, transition.trajectory(tau), control.evaluate(tau), tau,
                               control_grid, rec.values, 1.0)  # (n_T, n_u)
        span = float(Ts[-1] - tau)
        for k, (lo, hi) in enumerate([(1 / 8, 1 / 4), (1 / 4, 1 / 2), (1 / 2, math.inf)]):
            mask = (Ts > tau + lo * span) & (Ts <= tau + hi * span)
            windows[i, :, k] = extremum(dH[mask], axis=0) if np.any(mask) else math.nan
    estimates = windows[:, :, 2].copy()
    cells = [tail_rule(w, VERDICT_SLACK, VERDICT_SLACK) for w in windows.reshape(-1, 3)]
    found = {status for status, _ in cells}
    if Verdict.FAILS in found:
        agg, note = Verdict.FAILS, "some (tau, u) cells violate the tail condition"
    elif Verdict.INCONCLUSIVE in found:
        agg, note = Verdict.INCONCLUSIVE, "some cells unresolved at this horizon"
    else:
        agg, note = Verdict.HOLDS, "all (tau, u) cells satisfy the tail condition"
    worst = float(np.nanmax(estimates))
    # an unresolved battery names the shrink of the largest estimate among
    # the cells that the trend kept from failing
    kept = [(e, trend) for e, (_, trend) in zip(estimates.ravel().tolist(), cells) if trend]
    trend = max(kept)[1] if kept and agg is Verdict.INCONCLUSIVE else ""
    verdict = ConditionVerdict(agg, worst, note=f"{note}; worst estimate {worst:.3g}{trend}")
    return GeneralConditionReport(estimates=estimates, verdict=verdict)


# ---------------------------------------------------------------------------
# classical limit conditions


def _tail_grid(t0: float, t_end: float):
    """The window before the tail, at every 8th time since it only decides
    the trend, and the tail window of 4000 times across [t0, t_end]."""
    times = np.linspace(t0, t_end, 4000)
    earlier, tail = tail_windows(times)
    return times[earlier][::8], times[tail]


def _shared_pass(costates: Sequence[CostatePath]) -> CostatePath:
    """The first of ``costates``, after checking that all are read off one
    (x, Y, S) pass to one terminal time; ValueError otherwise."""
    if len({(c.transition, c.t_end) for c in costates}) != 1:
        raise ValueError("the adjoint paths must share one span of one (x, Y, S) pass")
    return costates[0]


def check_classical(problem: ControlProblem, control: ControlSignal,
                    costates: Sequence[CostatePath]) -> list:
    """The four classical limit conditions on each adjoint path of
    ``costates``, with x(t) the state path of the paths' pass and lam that
    of the path.

    tcPSI:  |psi(t)| -> 0
    tcXPSI: <x(t), psi(t)> -> 0
    tcM:    H(x(t), u(t), t, psi(t), lam) -> 0
    tcKAV:  |K(t, t0)* psi(t)| -> 0

    Each is judged by :func:`tail_limit_verdict` on the tail window against
    the window before it, with the tail window's excess max(|mean|,
    oscillation) as estimate; returns one dict keyed by condition id per path.
    The paths share one span of one pass, as those of one terminal time do.
    """
    first = _shared_pass(costates)
    earlier, tail = _tail_grid(first.t0, first.t_end)
    times = np.concatenate([earlier, tail])
    xs = first.transition.trajectory(times)
    psis = [c.psi(times) for c in costates]
    lams = np.array([c.lam for c in costates])
    # all times in one call, with the rows of every path at each time
    s_h = hamiltonian(problem, xs, _controls(control, times), times,
                      np.stack(psis, axis=1), lams)

    def verdict(values, note):
        return tail_limit_verdict(values[earlier.size:], values[:earlier.size], note)

    return [{"tcPSI": verdict(np.max(np.abs(psi), axis=1), "|psi(t)|"),
             "tcXPSI": verdict(np.einsum("ij,ij->i", xs, psi), "<x(t), psi(t)>"),
             "tcM": verdict(h, "H along the candidate"),
             "tcKAV": verdict(np.linalg.norm(c.pulled_back(times), axis=1),
                              "|K(t,t0)* psi(t)|")}
            for c, psi, h in zip(costates, psis, s_h.T)]


def check_max_principle(problem: ControlProblem, control: ControlSignal,
                        costates: Sequence[CostatePath], time_grid) -> list:
    """Pointwise Hamiltonian maximization over a sampled control grid, one
    verdict per adjoint path of ``costates``, along the state path of their
    pass; the paths share one span of one pass.

    A path holds iff at every time of ``time_grid`` the candidate control's
    Hamiltonian is within ``VERDICT_SLACK`` of the maximum over 33 sampled
    control values per axis; the estimate is the worst shortfall.  The
    dynamics and payoff jumps of every (time, control) cell come from one
    :func:`hamiltonian_jumps` call for all paths together, each with its own
    psi row and lam.
    """
    time_grid = np.atleast_1d(np.asarray(time_grid, dtype=float))
    grid = problem.control_set.sample_grid(_CONTROL_RESOLUTION)
    lams = np.array([c.lam for c in costates])
    # one vector read each; its rows equal the scalar reads bit for bit
    xs = _shared_pass(costates).transition.trajectory(time_grid)
    psis = np.stack([c.psi(time_grid) for c in costates], axis=1)  # (n_t, n_c, n)
    gaps = hamiltonian_jumps(problem, xs, _controls(control, time_grid), time_grid,
                             grid, psis, lams).max(axis=-1)  # (n_t, n_c)
    verdicts = []
    for column in gaps.T.tolist():
        worst = max(column, default=-math.inf)
        status = Verdict.HOLDS if worst <= VERDICT_SLACK else Verdict.FAILS
        verdicts.append(ConditionVerdict(status, worst,
                                         note=f"max Hamiltonian shortfall {worst:.3g}"))
    return verdicts


def _controls(control: ControlSignal, times: np.ndarray) -> np.ndarray:
    """The control's values at ``times``, one row per time."""
    return np.array([control.evaluate(t) for t in times.tolist()])


def decompose_costate(costate: CostatePath, limits: Sequence[tuple]):
    """Split an adjoint path into homogeneous and payoff-driven parts.

    Estimates a0 as the tail limit of K(T, t0)* psi(T) by
    :func:`_settled_mean` on the tail window against the one before it; when
    that limit exists the defect of psi(tau) = K(t0, tau)* a0 + lam *
    psi_hat(tau) is evaluated at each (tau, psi_hat) of ``limits``, psi_hat
    the tail limit of the gradient record anchored at tau (the first value of
    :func:`limit_costate`, None when there is none), with K from the path's
    own pass.  Returns (a0 or None, verdict), the verdict's estimate the
    residual or NaN.
    """
    earlier, tail = _tail_grid(costate.t0, costate.t_end)
    # K(t, t0)* psi(t) on both windows
    a0, status, osc, trend = _settled_mean(costate.pulled_back(earlier),
                                           costate.pulled_back(tail))
    if a0 is None:
        return None, ConditionVerdict(
            status, math.nan,
            note=f"K(T,t0)*psi(T) does not settle (tail oscillation {osc:.3g}){trend}")

    lam = costate.lam
    residual = 0.0
    for tau, psi_hat in limits:
        if lam == 0.0:
            psi_hat = np.zeros_like(a0)
        elif psi_hat is None:
            return a0, ConditionVerdict(
                Verdict.INCONCLUSIVE, math.nan,
                note="a0 exists but the limit costate does not converge")
        Ytau = costate.transition.fundamental(tau)
        # K(t0, tau)* a0 = Y(tau)^-* a0
        k_part = np.linalg.solve(Ytau.T, a0)
        defect = float(np.max(np.abs(costate.psi(tau) - k_part - lam * psi_hat)))
        residual = max(residual, defect)
    return a0, ConditionVerdict(
        Verdict.HOLDS, residual,
        note=f"a0 = {np.array2string(a0, precision=6)}, residual {residual:.3g}")


# ---------------------------------------------------------------------------
# payoff-rate maximization under state constraints


def check_gmax(problem: ControlProblem, feasible_pairs: Sequence, time_grid) -> list:
    """Pointwise payoff-rate maximization over a family of feasible candidates.

    Applicable only when the payoff rate does not depend on the state (probed
    before running; otherwise ValueError).  For each candidate and each
    sampled time t, the fiber of competing control values consists of every
    family member's control evaluated where its own trajectory passes through
    the same state; the candidate holds iff its payoff rate is maximal, to
    within 1e-9, on every fiber.  The estimate is the worst shortfall.  The
    payoff rates of all fiber points come from one payoff call.
    """
    tol = 1e-9
    time_grid = np.atleast_1d(np.asarray(time_grid, dtype=float))
    pairs = list(feasible_pairs)
    if not pairs:
        raise ValueError("need at least one feasible candidate")
    _require_state_free_payoff(problem, pairs)

    # the (x, u, t) of every fiber point, fiber after fiber, each fiber
    # the candidate's own control first and then every crossing's control
    fibers, cells = [], []
    for i, (traj_i, ctrl_i) in enumerate(pairs):
        for t in time_grid.tolist():
            x_i = traj_i(t)
            controls = [ctrl_i.evaluate(t)] + [
                ctrl_j.evaluate(s) for j, (traj_j, ctrl_j) in enumerate(pairs) if j != i
                for s in _state_crossings(traj_j, x_i)]
            fibers.append((i, len(controls)))
            cells += [(x_i, u, t) for u in controls]
    xs, us, ts = (np.array(column) for column in zip(*cells))
    rates = iter(problem.payoff(xs, us, ts).tolist())
    shortfalls = [-math.inf] * len(pairs)
    for i, size in fibers:
        fiber = list(islice(rates, size))
        shortfalls[i] = max(shortfalls[i], max(fiber) - fiber[0])

    verdicts = []
    for i, worst in enumerate(shortfalls):
        status = Verdict.HOLDS if worst <= tol else Verdict.FAILS
        verdicts.append(ConditionVerdict(
            status, worst,
            note=f"candidate {i}: max payoff-rate shortfall {worst:.3g}"))
    return verdicts


def _require_state_free_payoff(problem: ControlProblem, pairs):
    probes = []
    for traj, ctrl in pairs[:3]:
        ts = np.linspace(traj.t0, traj.t_end, 5)
        probes.extend((traj(float(t)), ctrl.evaluate(float(t)), float(t)) for t in ts)
    for x, u, t in probes:
        _, gx = jacobians(problem, x, u, t)
        if np.max(np.abs(gx)) > 1e-10:
            raise ValueError("payoff depends on the state; the payoff-rate "
                             "maximization rule does not apply")


def _state_crossings(traj: Trajectory, x_target):
    """Up to 8 times where a (scalar-state) trajectory passes through x_target."""
    if traj.dim != 1:
        raise ValueError("fiber matching implemented for scalar states")
    return list(islice(traj.crossings(0, float(np.atleast_1d(x_target)[0])), 8))
