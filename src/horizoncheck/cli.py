"""Command-line frontend.

Subcommands:

* ``check``          run the full condition battery for a built-in example
* ``phase-diagram``  classify a (k0, c0) grid of the capital-accumulation
                     phase plane, with nullclines and the shot saddle path
* ``overtake``       empirical overtaking comparison against built-in
                     challenger families
* ``needle``         first-order needle-variation check
* ``list-examples``  names and parameters of the built-in problems

Reports are CSV (versioned header, 9-significant-digit fields, LF line
endings) or JSON mirroring the same columns.  Exit status reflects only
operational success; condition verdicts never change it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conditions import (
    ConditionVerdict,
    TailSamples,
    Verdict,
    check_classical,
    check_general,
    check_gmax,
    check_jx_bounded,
    check_max_principle,
    decompose_costate,
    dense_horizon_grid,
    limit_costate,
)
from .ode_engine import ControlSignal, IntegrationError, IntegratorSettings
from .reference_examples import (
    IntegratorReference,
    OscillatorReference,
    RamseyParams,
    make_builtin_problem,
    ramsey_classify,
    ramsey_control_from_orbit,
    ramsey_euler_orbit,
    ramsey_feasible_candidate,
    ramsey_saddle_candidate,
    ramsey_shoot,
    ramsey_steady_state,
)
from . import overtaking
from .overtaking import empirical_overtaking_test, needle_limit_check
from .variational import integrate_adjoint, jx_scan, transition_matrix

__all__ = [
    "RunConfig",
    "ReportData",
    "build_check_report",
    "build_needle_report",
    "build_overtake_report",
    "build_phase_diagram_report",
    "main",
]

EXAMPLES = ("ramsey", "integrator", "oscillator")

# the parameters each example takes: its problem parameters with the values
# used when one is not given, then the optional adjoint-candidate parameters
# of ``check`` (None)
_EXAMPLE_PARAMS = {
    "ramsey": {"alpha": 0.4, "delta": 0.05, "theta": 0.5, "k0": 10.0},
    "integrator": {"rho": 0.1, "a0": None, "lambda": None},
    "oscillator": {"b": 0.5, "r": None, "phi": None},
}


@dataclass
class RunConfig:
    """One run of a report builder: the example, its parameters (a subset
    of its ``_EXAMPLE_PARAMS`` keys) and the horizon, None for the example's
    default."""

    example: str
    params: dict
    t_max: Optional[float]
    grid: tuple = (100, 100)
    out: Optional[str] = None
    fmt: str = "csv"
    eps: float = 1e-6
    k_max: Optional[float] = None
    c_max: Optional[float] = None

    def __post_init__(self):
        if self.example not in EXAMPLES:
            raise ValueError(f"unknown example {self.example!r}")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        taken = _EXAMPLE_PARAMS[self.example]
        unknown = sorted(set(self.params) - set(taken))
        if unknown:
            raise ValueError(f"example {self.example} takes {', '.join(taken)}, "
                             f"not {', '.join(unknown)}")
        if self.t_max is not None and not 0 < self.t_max < math.inf:
            raise ValueError("t-max must be positive and finite")
        for name, value in (("eps", self.eps), ("k-max", self.k_max), ("c-max", self.c_max),
                            *self.params.items()):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if min(self.grid) < 1:
            raise ValueError("grid sizes must be at least 1")

    def resolved_t_max(self) -> float:
        if self.t_max is not None:
            return self.t_max
        return 2000.0 if self.example == "ramsey" else 400.0


def _problem_params(config: RunConfig) -> dict:
    """The example's problem parameters, defaults filled in."""
    return {key: float(config.params.get(key, default))
            for key, default in _EXAMPLE_PARAMS[config.example].items() if default is not None}


@dataclass
class ReportData:
    schema: str
    columns: list
    rows: list  # list of lists, already formatted as strings

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([self.schema, *self.columns])
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {"schema": self.schema,
                   "columns": ["kind", *self.columns],
                   "rows": [list(r) for r in self.rows]}
        return json.dumps(payload, indent=1) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_csv() if fmt == "csv" else self.to_json()


def _fmt(value) -> str:
    if value is None:
        return ""
    v = float(value)
    if math.isnan(v):
        return "nan"
    return f"{v:.9g}"


_CHECK_SETTINGS = IntegratorSettings(rel_tol=1e-10, abs_tol=1e-12)
# the (kind, condition) rows of each adjoint candidate of ``check``, in order
_COSTATE_ROWS = [*(("classical", c) for c in ("tcPSI", "tcXPSI", "tcM", "tcKAV")),
                 ("max_principle", "maxH"), ("decomposition", "a0_limit")]


# ---------------------------------------------------------------------------
# check


def _integrator_candidates(ref: IntegratorReference, a0: Optional[float],
                           lam: Optional[float], t_max: float):
    """Adjoint candidates (label, lam, psi(t_max)) of the integrator battery;
    ValueError for an inadmissible (lam, a0)."""
    if lam is not None:
        battery = [(lam, a0 if a0 is not None else (0.0 if lam == 1.0 else 1.0))]
    else:
        a0 = (0.0 if ref.rho > 0 else 0.5) if a0 is None else a0
        battery = [(1.0, a0), (0.0, a0 if a0 > 0 else 1.0)]
    return [(f"psi(lam={lam:g},a0={a0:g})", lam, ref.costate(a0, lam, t_max))
            for lam, a0 in battery]


def _oscillator_candidates(ref: OscillatorReference, r: Optional[float],
                           phi: Optional[float], t_max: float):
    """Adjoint candidates (label, 1, psi(t_max)) of the oscillator battery,
    each the normal costate of the (r, phi) family; ValueError for |r| > b."""
    b = ref.b
    if r is not None or phi is not None:
        r, phi = (0.0 if r is None else r), (0.0 if phi is None else phi)
        battery = [(f"psi(r={r:g},phi={phi:g})", r, phi)]
    else:
        battery = [("psi(r=0,phi=0)", 0.0, 0.0), (f"psi(r={b / 2:g},phi=0.7)", b / 2, 0.7),
                   *([("psi(r=1,phi=0)", 1.0, 0.0)] if b >= 1.0 else []),
                   (f"psi(r={b:g},phi=-pi/2)", b, -math.pi / 2)]
    return [(label, 1.0, ref.costate(r, phi, t_max)) for label, r, phi in battery]


def build_check_report(config: RunConfig) -> ReportData:
    if config.example == "ramsey":
        return _build_ramsey_check(config)
    return _build_linear_check(config)


def _build_linear_check(config: RunConfig) -> ReportData:
    t_max = config.resolved_t_max()
    params = config.params
    # one reference object gives the problem and its adjoint candidates
    if config.example == "integrator":
        ref = IntegratorReference(**_problem_params(config))
        candidates = _integrator_candidates(ref, params.get("a0"), params.get("lambda"), t_max)
    else:
        ref = OscillatorReference(**_problem_params(config))
        candidates = _oscillator_candidates(ref, params.get("r"), params.get("phi"), t_max)
    problem = ref.problem()
    control = ControlSignal.constant([1.0])

    transition = transition_matrix(problem, control, t_max, settings=_CHECK_SETTINGS)

    # gradient-route rows, from one gradient read per anchor; each record is
    # judged once: its bound, then its limit, which every candidate shares
    records = jx_scan(transition, [problem.initial_time],
                      dense_horizon_grid(problem.initial_time, t_max)[1:])
    judged = [("general", "(gradient route)", f"prop_general_{mode}", verdict)
              for mode, verdict in check_general(problem, transition, control,
                                                 records).verdicts.items()]
    bounded = [check_jx_bounded(rec) for rec in records]
    limits = [limit_costate(rec, b) for rec, b in zip(records, bounded)]
    judged += [("limit", "(gradient route)", "limit_costate", limits[0][1]),
               ("limit", "(gradient route)", "jx_bounded", bounded[0])]
    psi_hats = [(rec.tau, psi_hat) for rec, (psi_hat, _) in zip(records, limits)]

    # adjoint-candidate rows, every costate read off the (x, Y, S) pass; a
    # costate the pass cannot resolve gives inconclusive rows with the reason
    costates, by_candidate = {}, {}
    for k, (_, lam, psi_T) in enumerate(candidates):
        try:
            costates[k] = integrate_adjoint(transition, t_max, psi_T, lam)
        except ValueError as exc:
            refused = ConditionVerdict(Verdict.INCONCLUSIVE, None, str(exc))
            by_candidate[k] = [refused] * len(_COSTATE_ROWS)
    if costates:
        paths = list(costates.values())
        grid = np.linspace(problem.initial_time, t_max, 201)
        # one read of the pass on the tail grid serves the classical rows and
        # the decomposition of every path
        tail = TailSamples(paths)
        for k, mp, classical, (_, a0_limit) in zip(
                costates, check_max_principle(problem, control, paths, time_grid=grid),
                check_classical(problem, control, tail), decompose_costate(tail, psi_hats)):
            by_candidate[k] = [*classical.values(), mp, a0_limit]
    judged += [(kind, label, cond_id, verdict)
               for k, (label, _, _) in enumerate(candidates)
               for (kind, cond_id), verdict in zip(_COSTATE_ROWS, by_candidate[k])]

    rows = [[kind, label, cond_id, v.status.value, _fmt(v.estimate), v.note]
            for kind, label, cond_id, v in judged]
    return ReportData("horizon_check_report_v1",
                      ["candidate", "condition", "status", "estimate", "note"], rows)


def _build_ramsey_check(config: RunConfig) -> ReportData:
    params = RamseyParams(**_problem_params(config))
    interior, limit = ramsey_steady_state(params)
    rows = [
        ["value", "(steady state)", "k_star", "holds", _fmt(interior.k_star), ""],
        ["value", "(steady state)", "c_star", "holds", _fmt(interior.c_star), ""],
        ["value", "(steady state)", "k_zero_consumption", "holds", _fmt(limit.k_star), ""],
    ]
    t_family = min(200.0, config.resolved_t_max())
    c0_saddle, k_traj, saddle_control = ramsey_saddle_candidate(
        params, t_family, t_max_shoot=config.resolved_t_max())
    rows.append(["value", "(saddle)", "c0_saddle", "holds", _fmt(c0_saddle), ""])

    problem = params.problem()
    family = [(k_traj, saddle_control)]
    labels = [f"c0={c0_saddle:.6g} (saddle)"]
    for frac in (0.9, 0.75, 0.55, 0.35):
        c0 = frac * c0_saddle
        traj, ctrl = ramsey_feasible_candidate(params, c0, t_family)
        family.append((traj, ctrl))
        labels.append(f"c0={c0:.6g}")
    rows += [["gmax", label, "payoff_rate_max", v.status.value, _fmt(v.estimate), v.note]
             for label, v in zip(labels, check_gmax(problem, family, [1.0, 2.0, 4.0, 6.0, 9.0]))]
    return ReportData("horizon_check_report_v1",
                      ["candidate", "condition", "status", "estimate", "note"],
                      rows)


# ---------------------------------------------------------------------------
# phase diagram


def build_phase_diagram_report(config: RunConfig) -> ReportData:
    if config.example != "ramsey":
        raise ValueError("phase-diagram requires --example ramsey")
    params = RamseyParams(**_problem_params(config))
    interior, limit = ramsey_steady_state(params)
    k_hi = config.k_max if config.k_max is not None else 1.1 * limit.k_star
    c_hi = config.c_max if config.c_max is not None else 3.3 * interior.c_star
    nk, nc = config.grid
    t_sweep = min(600.0, config.resolved_t_max())

    k_vals = [k_hi * (i + 1) / nk for i in range(nk)]
    c_vals = [c_hi * (j + 1) / nc for j in range(nc)]
    labels = ramsey_classify(params, np.array(k_vals)[:, None], np.array(c_vals),
                             t_max=t_sweep)
    rows = [["grid", _fmt(k0), _fmt(c0), str(label)]
            for k0, column in zip(k_vals, labels) for c0, label in zip(c_vals, column)]

    n_line = 60
    c_line = np.unique(np.append(np.linspace(c_hi / n_line, c_hi, n_line),
                                 interior.c_star))
    for c in c_line:
        rows.append(["nullcline_cdot", _fmt(interior.k_star), _fmt(float(c)), ""])
    k_line = np.unique(np.append(np.linspace(k_hi / n_line, k_hi, n_line),
                                 interior.k_star))
    for k in k_line:
        c_null = k ** params.alpha - params.delta * k
        if c_null > 0:
            rows.append(["nullcline_kdot", _fmt(float(k)), _fmt(float(c_null)), ""])

    _, orbit = ramsey_shoot(params, t_max=config.resolved_t_max())
    stride = max(1, orbit.time_grid.size // 200)
    for state in orbit.states[::stride]:
        rows.append(["saddle_path", _fmt(float(state[0])), _fmt(float(state[1])), ""])
    rows.append(["saddle_path", _fmt(float(orbit.states[-1, 0])),
                 _fmt(float(orbit.states[-1, 1])), ""])

    return ReportData("phase_diagram_report_v1", ["k", "c", "label"], rows)


# ---------------------------------------------------------------------------
# overtaking


def _delayed_start_signal(s: float) -> ControlSignal:
    return ControlSignal.piecewise_constant([s], [[0.0], [1.0]])


def build_overtake_report(config: RunConfig) -> ReportData:
    t_max = config.resolved_t_max()
    rows = []
    if config.example == "oscillator":
        problem = make_builtin_problem("oscillator", _problem_params(config))
        candidate = ControlSignal.constant([1.0])
        challengers = [(f"delayed_start(s={s:g})", _delayed_start_signal(s))
                       for s in (math.pi / 2, math.pi, 2 * math.pi)]
    elif config.example == "integrator":
        problem = make_builtin_problem("integrator", _problem_params(config))
        candidate = ControlSignal.constant([1.0])
        challengers = [("u=0", ControlSignal.constant([0.0])),
                       ("delayed_start(s=1)", _delayed_start_signal(1.0)),
                       ("u=0.5", ControlSignal.constant([0.5]))]
    else:
        params = RamseyParams(**_problem_params(config))
        problem = params.problem()
        c0_saddle, _, candidate = ramsey_saddle_candidate(params, t_max,
                                                          t_max_shoot=t_max)
        challengers = []
        for dc in (0.5, -0.5):
            c0 = c0_saddle + dc
            orbit = ramsey_euler_orbit(params, params.k0, c0, t_max)
            challengers.append((f"euler(c0={c0:.6g})", ramsey_control_from_orbit(orbit)))

    sample_spacing = 0.02 if config.example != "ramsey" else 0.25
    # one call for the candidate and every challenger, looked up in its
    # module like every payoff integration: a wrapper of
    # overtaking.payoff_value sees them all.  A candidate that leaves the
    # domain raises NonExtendibleError in the first comparison.
    candidate_path, *paths = overtaking.payoff_value(
        problem, [candidate, *(challenger for _, challenger in challengers)], t_max)
    for (label, _), path in zip(challengers, paths):
        report = empirical_overtaking_test(problem, candidate_path, path,
                                           eps=config.eps, T_max=t_max,
                                           sample_spacing=sample_spacing)
        rows.append(["challenger", label, report.verdict, _fmt(report.max_gap),
                     _fmt(report.argmax_T), report.evidence])
    return ReportData("overtake_report_v1",
                      ["challenger", "verdict", "max_gap", "argmax_T", "evidence"],
                      rows)


# ---------------------------------------------------------------------------
# needle


def build_needle_report(config: RunConfig, tau: float, u: float, T: float,
                        alphas) -> ReportData:
    if config.example == "ramsey":
        raise ValueError("needle supports the integrator and oscillator examples")
    problem = make_builtin_problem(config.example, _problem_params(config))
    base = ControlSignal.constant([1.0])
    report = needle_limit_check(problem, base, tau, [u], T, alphas)
    rows = [["sample", _fmt(a), _fmt(s), _fmt(report.prediction), _fmt(e)]
            for a, s, e in report.rows()]
    rows.append(["order", "", "", "", _fmt(report.fitted_order)])
    return ReportData("needle_report_v1",
                      ["alpha", "dj_over_alpha", "prediction", "abs_error"],
                      rows)


# ---------------------------------------------------------------------------
# driver


def _emit(report: ReportData, config: RunConfig):
    text = report.render(config.fmt)
    if config.out:
        with open(config.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# the report builder of each command, called with the run config and the
# parsed arguments
_BUILDERS = {
    "check": lambda config, args: build_check_report(config),
    "phase-diagram": lambda config, args: build_phase_diagram_report(config),
    "overtake": lambda config, args: build_overtake_report(config),
    "needle": lambda config, args: build_needle_report(
        config, args.tau, args.u, args.t_horizon,
        [float(a) for a in args.alphas.split(",") if a]),
}


# the flags that only some commands read, with those commands
_COMMAND_FLAGS = {**dict.fromkeys(("a0", "lambda", "r", "phi"), ("check",)),
                  **dict.fromkeys(("k-max", "c-max", "grid"), ("phase-diagram",)),
                  "t-max": ("check", "phase-diagram", "overtake"),
                  "eps": ("overtake",)}


def _add_common(parser):
    parser.add_argument("--example", required=True, choices=EXAMPLES)
    parser.add_argument("--t-max", type=float, default=None)
    parser.add_argument("--grid", type=str, default=None,
                        help="grid size as NKxNC (phase diagram, default 100x100)")
    parser.add_argument("--eps", type=float, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    for name in (*(key for table in _EXAMPLE_PARAMS.values() for key in table), "k-max", "c-max"):
        parser.add_argument(f"--{name}", type=float, default=None)


def _config_from_args(args) -> RunConfig:
    params = {key: value for table in _EXAMPLE_PARAMS.values() for key in table
              if (value := getattr(args, key)) is not None}
    try:
        nk, nc = (int(part) for part in (args.grid or "100x100").lower().split("x"))
    except ValueError as exc:
        raise ValueError(f"bad --grid {args.grid!r}, expected e.g. 100x100") from exc
    # an unset --eps keeps the RunConfig default
    given = {} if args.eps is None else {"eps": args.eps}
    return RunConfig(example=args.example, params=params, t_max=args.t_max,
                     grid=(nk, nc), out=args.out, fmt=args.fmt,
                     k_max=args.k_max, c_max=args.c_max, **given)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="horizoncheck",
        description="Numerical checks of necessary optimality conditions "
                    "for infinite-horizon control problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("check", "phase-diagram", "overtake"):
        p = sub.add_parser(name)
        _add_common(p)

    p_needle = sub.add_parser("needle")
    _add_common(p_needle)
    p_needle.add_argument("--tau", type=float, default=1.0)
    p_needle.add_argument("--u", type=float, default=0.0)
    p_needle.add_argument("--t-horizon", type=float, default=20.0)
    p_needle.add_argument("--alphas", type=str, default="1e-1,1e-2,1e-3")

    sub.add_parser("list-examples")

    args = parser.parse_args(argv)
    if args.command == "list-examples":
        for name in EXAMPLES:
            params = " ".join(key if default is not None else f"[{key}]"
                              for key, default in _EXAMPLE_PARAMS[name].items())
            print(f"{name}: parameters {params}")
        return 0

    try:
        config = _config_from_args(args)
        for flag, commands in _COMMAND_FLAGS.items():
            if getattr(args, flag.replace("-", "_")) is not None and args.command not in commands:
                verb = "does" if len(commands) == 1 else "do"
                raise ValueError(f"{args.command} does not read --{flag}; "
                                 f"only {', '.join(commands)} {verb}")
        _emit(_BUILDERS[args.command](config, args), config)
    except (ValueError, IntegrationError, RuntimeError) as exc:
        print(f"horizoncheck: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
