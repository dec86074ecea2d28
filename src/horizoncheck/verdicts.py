"""Three-way condition verdicts, each with the number its report row prints,
and the one tail rule of every limit row: each row measures its excess over
the target on successive windows, and :func:`tail_rule` never fails a tail
that still shrinks beyond its slack."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

__all__ = ["ConditionVerdict", "Verdict", "tail_limit_verdict", "tail_rule", "tail_windows",
           "window_oscillation"]

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
