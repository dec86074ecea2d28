"""Three-way condition verdicts and the tail rule shared by the checking
modules."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Tuple

import numpy as np

__all__ = ["ConditionVerdict", "Verdict", "tail_limit_verdict", "tail_status", "tail_window"]

# The tail rule: a limit is judged on the last quarter of the sampled range,
# where it holds below the hold tolerance and fails from the fail threshold;
# a running max growing by more than the growth factor is unbounded.
TAIL_WINDOW_FRACTION = 0.25
TAIL_HOLD_TOL = 1e-4
TAIL_FAIL_TOL = 1e-2
GROWTH_FACTOR = 2.0


class Verdict(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class ConditionVerdict:
    """Outcome of one condition check plus the series that justified it.

    ``diagnostic_series`` is a list of (parameter, value) pairs, e.g. sampled
    times against the quantity whose limit the condition constrains.
    """

    status: Verdict
    diagnostic_series: List[Tuple[float, float]]
    note: str


def tail_window(t_grid: np.ndarray) -> np.ndarray:
    """Mask of the points of an increasing grid in the last
    ``TAIL_WINDOW_FRACTION`` of its range."""
    first, last = float(t_grid[0]), float(t_grid[-1])
    return t_grid >= last - TAIL_WINDOW_FRACTION * (last - first)


def tail_status(spread: float) -> Verdict:
    """The tail rule on the spread of a series over its tail window: holds
    below ``TAIL_HOLD_TOL``, fails from ``TAIL_FAIL_TOL``, inconclusive in
    between or when the spread is NaN."""
    if spread < TAIL_HOLD_TOL:
        return Verdict.HOLDS
    return Verdict.FAILS if spread >= TAIL_FAIL_TOL else Verdict.INCONCLUSIVE


def tail_limit_verdict(params, values, note: str) -> ConditionVerdict:
    """Judge whether a sampled scalar series tends to zero.

    The spread of :func:`tail_status` is the larger of the tail oscillation
    and |tail mean|: the series holds when both stay below ``TAIL_HOLD_TOL``
    and fails when either reaches ``TAIL_FAIL_TOL``; slow or unresolved
    limits are never over-claimed.  ``note`` names the series.
    """
    values = np.asarray(values, dtype=float)
    params = np.asarray(params, dtype=float)
    osc = float(np.max(values) - np.min(values))
    mean = float(np.mean(values))
    series = list(zip(params.tolist(), values.tolist()))
    detail = f"{note}; tail oscillation {osc:.3g}, tail mean {mean:.3g}"
    # abs(mean) first: max keeps it when osc is NaN (an all-infinite tail)
    return ConditionVerdict(tail_status(max(abs(mean), osc)), series, note=detail)
