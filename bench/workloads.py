"""The three benchmark workloads.

Each workload draws its parameters from the seeded generator, builds and
renders one CLI report set per iteration (the timed part), then checks the
rendered rows against the closed forms or the known verdict table and returns
its accuracy error.  A failed check raises :class:`Mismatch`.

The objects the report builders compute on the way (propagator, costates,
overtaking reports, shot orbit) are captured by wrapping the builder's calls
in the ``cli`` namespace; the capture costs a few calls per iteration.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from horizoncheck import cli, oscillator_reference
from layertrace import Patcher


class Mismatch(AssertionError):
    """A report disagrees with the closed forms or the verdict table."""


def expect(ok: bool, message: str):
    if not ok:
        raise Mismatch(message)


@dataclass
class Output:
    texts: list      # rendered CSV reports, in build order
    captured: dict   # cli function name -> list of return values


@contextlib.contextmanager
def capture(*names):
    """Record the return values of the named ``cli`` functions."""
    got = {name: [] for name in names}
    patcher = Patcher()

    def recording(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                got[name].append(result)
                return result
            return wrapper
        return make

    for name in names:
        patcher.wrap(cli, name, recording(name))
    try:
        yield got
    finally:
        patcher.restore()


def parse_rows(text: str) -> list:
    """Data rows of a rendered v1 CSV report (the header row dropped)."""
    return list(csv.reader(io.StringIO(text)))[1:]


# ---------------------------------------------------------------------------
# oscillator: candidate u = 1, adjoint family psi(r, phi) with |r| <= b


def oscillator_candidates(b: float):
    """(r, phi) of the CLI check battery for b < 1."""
    return [(0.0, 0.0), (b / 2, 0.7), (b, -math.pi / 2)]


def check_table(b: float):
    """(kind, condition, status) rows the closed forms imply for b in (0, 1)."""
    ref = oscillator_reference(b)
    table = [
        # liminf_T (u-1)(sin(T-tau)+b) = (u-1)(1+b) <= 0 for u <= 1
        ("general", "prop_general_WOO", "holds"),
        # limsup_T (u-1)(sin(T-tau)+b) = (u-1)(b-1) > 0 for u < 1
        ("general", "prop_general_OO", "fails"),
        # grad(tau, T) = (cos(T-tau)-1, sin(T-tau)) has no limit ...
        ("limit", "limit_costate", "fails"),
        # ... but stays bounded by 2
        ("limit", "jx_bounded", "holds"),
    ]
    for r, phi in oscillator_candidates(b):
        table += [
            # psi1 = -r cos(t+phi) - 1 stays away from 0 since |r| < 1
            ("classical", "tcPSI", "fails"),
            # <x, psi> with x = (1 - cos t, sin t) keeps oscillating
            ("classical", "tcXPSI", "fails"),
            # H along the candidate is the constant r sin(phi) + b
            ("classical", "tcM", "holds" if ref.hamiltonian_along(r, phi) == 0.0 else "fails"),
            # K is a rotation, so |K(t,t0)* psi(t)| = |psi(t)|
            ("classical", "tcKAV", "fails"),
            # every |r| <= b adjoint makes u = 1 maximize H
            ("max_principle", "maxH", "holds"),
            # K(T,t0)* psi(T) rotates and never settles
            ("decomposition", "a0_limit", "fails"),
        ]
    return table


@dataclass(frozen=True)
class CheckOscillator:
    """``check`` on the oscillator: propagator, adjoint and conditions."""

    t_max: float = 100.0
    name: str = "check-oscillator"

    def draw(self, rng) -> dict:
        return {"b": float(rng.uniform(0.4, 0.6))}

    def run(self, params: dict) -> Output:
        config = cli.RunConfig("oscillator", {"b": params["b"]}, t_max=self.t_max)
        with capture("transition_matrix", "integrate_adjoint") as got:
            text = cli.build_check_report(config).render("csv")
        return Output([text], got)

    def check(self, params: dict, out: Output) -> float:
        b = params["b"]
        rows = parse_rows(out.texts[0])
        got = [(row[0], row[2], row[3]) for row in rows]
        expect(got == check_table(b), f"status table differs at b={b:.6g}: {got}")

        ref = oscillator_reference(b)
        transition = out.captured["transition_matrix"][0]
        costates = out.captured["integrate_adjoint"]
        err = 0.0
        for tau in np.linspace(0.0, self.t_max / 2, 5):
            Ts = tau + np.linspace(0.0, self.t_max / 2, 9)
            for T in Ts:
                err = max(err, np.max(np.abs(transition.evaluate(T, tau)
                                             - ref.transition(T, tau))))
            err = max(err, np.max(np.abs(transition.gradient(tau, Ts) - ref.jx(tau, Ts))))
        ts = np.linspace(0.0, self.t_max, 201)
        expect(len(costates) == 3, f"{len(costates)} adjoint solves, expected 3")
        for costate, (r, phi) in zip(costates, oscillator_candidates(b)):
            err = max(err, np.max(np.abs(costate.psi(ts) - ref.costate(r, phi, ts))))
        return float(err)


# delayed-start challengers of the CLI overtake report, with their verdicts
CHALLENGER_SHIFTS = (math.pi / 2, math.pi, 2 * math.pi)
OVERTAKE_VERDICTS = ("consistent_WOO_only", "consistent_WOO_only", "consistent_OO")


def challenger_gap(b: float, s: float, T):
    """Exact payoff gap of 'u = 0 until s, then 1' against u = 1 at horizon T.

    Before the switch the challenger's state and payoff stay 0 while the
    candidate earns 1 - cos T + b T.
    """
    T = np.asarray(T, dtype=float)
    return np.where(T >= s, oscillator_reference(b).challenger_gap(s, T),
                    np.cos(T) - 1.0 - b * T)


@dataclass(frozen=True)
class OvertakeOscillator:
    """``overtake`` on the oscillator: forward payoff integration only."""

    t_max: float = 100.0
    name: str = "overtake-oscillator"

    def draw(self, rng) -> dict:
        return {"b": float(rng.uniform(0.4, 0.6))}

    def run(self, params: dict) -> Output:
        config = cli.RunConfig("oscillator", {"b": params["b"]}, t_max=self.t_max)
        with capture("empirical_overtaking_test") as got:
            text = cli.build_overtake_report(config).render("csv")
        return Output([text], got)

    def check(self, params: dict, out: Output) -> float:
        b = params["b"]
        rows = parse_rows(out.texts[0])
        verdicts = tuple(row[2] for row in rows)
        expect(verdicts == OVERTAKE_VERDICTS, f"verdicts {verdicts} at b={b:.6g}")
        # the sampling grid of empirical_overtaking_test at the CLI spacing 0.02
        grid = np.linspace(0.0, self.t_max, max(64, math.ceil(self.t_max / 0.02)))
        err = 0.0
        for s, row, report in zip(CHALLENGER_SHIFTS, rows,
                                  out.captured["empirical_overtaking_test"]):
            exact = challenger_gap(b, s, grid)
            max_gap = float(row[3])
            expect(abs(max_gap - exact.max()) <= 1e-6 * max(1.0, abs(max_gap)),
                   f"max_gap {max_gap} against {exact.max()} for s={s:.6g}")
            err = max(err, np.max(np.abs(report.gap_fn(grid) - exact)))
        return float(err)


# ---------------------------------------------------------------------------
# Ramsey FIG1: alpha 0.4, delta 0.05, theta 0.5

FIG1 = {"alpha": 0.4, "delta": 0.05, "theta": 0.5}
# k* = (delta/alpha)^(1/(alpha-1)) = 8^(5/3) = 32, c* = (1-alpha) k*^alpha = 2.4
K_STAR, C_STAR = 32.0, 2.4
GMAX_STATUSES = ["holds", "fails", "fails", "fails", "fails"]


@dataclass(frozen=True)
class RamseyFig1:
    """``check`` plus a phase diagram: many short event-terminated solves."""

    grid: int = 16
    t_max: Optional[float] = None  # None keeps the CLI default
    name: str = "ramsey-fig1"

    def draw(self, rng) -> dict:
        return {"k0": float(rng.uniform(8.0, 12.0))}

    def run(self, params: dict) -> Output:
        config = dict(FIG1, k0=params["k0"])
        with capture("ramsey_saddle_candidate", "ramsey_shoot") as got:
            check = cli.build_check_report(
                cli.RunConfig("ramsey", config, t_max=self.t_max)).render("csv")
            phase = cli.build_phase_diagram_report(
                cli.RunConfig("ramsey", config, t_max=self.t_max,
                              grid=(self.grid, self.grid))).render("csv")
        return Output([check, phase], got)

    def check(self, params: dict, out: Output) -> float:
        check_rows = parse_rows(out.texts[0])
        values = {row[2]: float(row[4]) for row in check_rows if row[0] == "value"}
        for key, exact in (("k_star", K_STAR), ("c_star", C_STAR)):
            expect(abs(values[key] - exact) <= 1e-12 * exact, f"{key} = {values[key]!r}")
        gmax = [row[3] for row in check_rows if row[0] == "gmax"]
        expect(gmax == GMAX_STATUSES, f"gmax statuses {gmax}")

        phase_rows = parse_rows(out.texts[1])
        columns = {}
        for kind, k, c, label in phase_rows:
            if kind == "grid":
                columns.setdefault(float(k), []).append((float(c), label))
        expect(len(columns) == self.grid, f"{len(columns)} phase columns")
        labels = {label for column in columns.values() for _, label in column}
        expect({"to_zero_consumption", "hits_zero_capital"} <= labels,
               f"phase labels {sorted(labels)}")
        for k, column in columns.items():
            low = [c for c, label in column if label == "to_zero_consumption"]
            high = [c for c, label in column if label == "hits_zero_capital"]
            expect(not low or not high or max(low) < min(high),
                   f"column k={k:g} does not separate the regions")
        k_end, c_end = (float(v) for v in
                        [row for row in phase_rows if row[0] == "saddle_path"][-1][1:3])
        expect(math.hypot(k_end - K_STAR, c_end - C_STAR) <= 1e-3 + 1e-7,
               f"shot orbit ends at ({k_end}, {c_end})")

        # no closed form for this saddle path: compare the two routes to k(t),
        # the joint (k, c) orbit and the state equation under its consumption
        _, k_traj, _ = out.captured["ramsey_saddle_candidate"][0]
        _, orbit = out.captured["ramsey_shoot"][0]
        ts = np.linspace(0.0, min(k_traj.t_end, orbit.t_end), 401)
        return float(np.max(np.abs(k_traj(ts)[:, 0] - orbit(ts)[:, 0])) / K_STAR)


WORKLOADS = {w.name: w for w in (CheckOscillator(), OvertakeOscillator(), RamseyFig1())}

# the same workloads at sizes whose verdict tables match the full ones
TINY = {w.name: w for w in (CheckOscillator(t_max=30.0), OvertakeOscillator(t_max=30.0),
                            RamseyFig1(grid=3, t_max=300.0))}
