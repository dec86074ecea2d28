"""Three-way condition verdicts shared by the checking modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Tuple

import numpy as np

__all__ = ["ConditionVerdict", "Verdict", "tail_limit_verdict"]


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
    diagnostic_series: List[Tuple[float, float]] = field(default_factory=list)
    tolerance_used: float = 0.0
    note: str = ""


def tail_limit_verdict(params, values, hold_tol: float = 1e-4,
                       fail_tol: float = 1e-2, note: str = "") -> ConditionVerdict:
    """Judge whether a sampled scalar series tends to zero.

    Holds when the tail oscillation and |tail mean| both stay below
    ``hold_tol``; fails when the oscillation reaches ``fail_tol`` or the mean
    is bounded away from zero by ``fail_tol``; inconclusive in between (slow
    or unresolved limits are never over-claimed).
    """
    values = np.asarray(values, dtype=float)
    params = np.asarray(params, dtype=float)
    osc = float(np.max(values) - np.min(values))
    mean = float(np.mean(values))
    series = list(zip(params.tolist(), values.tolist()))
    detail = f"tail oscillation {osc:.3g}, tail mean {mean:.3g}"
    if note:
        detail = f"{note}; {detail}"
    if osc < hold_tol and abs(mean) < hold_tol:
        return ConditionVerdict(Verdict.HOLDS, series, hold_tol, note=detail)
    if osc >= fail_tol or abs(mean) >= fail_tol:
        return ConditionVerdict(Verdict.FAILS, series, hold_tol, note=detail)
    return ConditionVerdict(Verdict.INCONCLUSIVE, series, hold_tol, note=detail)
