import csv
import json
import math

import numpy as np
import pytest

from horizoncheck import cli, conditions, ode_engine, reference_examples, variational
from horizoncheck.cli import (
    RunConfig,
    build_check_report,
    build_needle_report,
    build_overtake_report,
    build_phase_diagram_report,
    main,
)

from conftest import FIG1
from oracles import IntegratorOracle


def _rows(report):
    return [dict(zip(["kind", *report.columns], row)) for row in report.rows]


@pytest.mark.parametrize("example, params", [("oscillator", {"b": 0.5}),
                                             ("integrator", {"rho": 0.1})])
def test_check_judges_each_gradient_record_once(example, params, monkeypatch):
    # one check_jx_bounded and one limit_costate call per gradient record: the
    # limit takes the bound's verdict, and every candidate's decomposition row
    # shares the limit (the oscillator's limit fails, which consults the
    # bound; the integrator's holds, and its candidate with lam = 1 reads it)
    calls = {"check_jx_bounded": [], "limit_costate": []}
    for module in (cli, conditions):
        for name, seen in calls.items():
            if hasattr(module, name):
                fn = getattr(conditions, name)
                monkeypatch.setattr(module, name,
                                    lambda rec, *rest, fn=fn, seen=seen:
                                    seen.append(rec) or fn(rec, *rest))
    records = []
    monkeypatch.setattr(cli, "jx_scan", lambda *args: records.extend(
        variational.jx_scan(*args)) or records)
    report = build_check_report(RunConfig(example, params, None))
    assert len(records) == 1
    assert calls["check_jx_bounded"] == records and calls["limit_costate"] == records
    assert sum(row[2] == "a0_limit" for row in report.rows) >= 2


@pytest.mark.parametrize("example, params", [("oscillator", {"b": 0.5}),
                                             ("integrator", {"rho": 0.1})])
def test_check_reads_the_gradient_once_per_anchor(example, params, monkeypatch):
    # one read feeds both general rows, the bound, the limit costate and,
    # through it, the decomposition rows
    anchors = []
    gradient = variational.TransitionOperator.gradient
    monkeypatch.setattr(variational.TransitionOperator, "gradient",
                        lambda self, tau, T: anchors.append(tau) or gradient(self, tau, T))
    build_check_report(RunConfig(example, params, 100.0))
    assert anchors == [0.0]


def test_check_reads_the_pass_once_per_time_grid(monkeypatch):
    # three array reads of the (x, Y, S) pass: the horizon grid on the S
    # columns alone, the max-principle grid, and the tail grid, which serves
    # every candidate's classical rows and its decomposition
    reads, passes = [], []
    call, transition_matrix = ode_engine.Trajectory.__call__, cli.transition_matrix

    def counted(self, t):
        if np.ndim(t):
            reads.append((self, np.size(t)))
        return call(self, t)

    monkeypatch.setattr(ode_engine.Trajectory, "__call__", counted)
    monkeypatch.setattr(cli, "transition_matrix", lambda *args, **kwargs: passes.append(
        transition_matrix(*args, **kwargs)) or passes[-1])
    build_check_report(RunConfig("oscillator", {"b": 0.5}, 100.0))
    assert [size for _, size in reads] == [5001, 1125, 201]
    [op], (horizon, _) = passes, reads[0]
    assert horizon.dim == 2 and np.array_equal(horizon.states, op._aug.states[:, -2:])


def test_check_builds_one_hamiltonian_table_per_anchor(monkeypatch):
    # both general rows judge one table of Hamiltonian differences per
    # anchor; the max principle makes its own one call for all its times
    times, jumps = [], conditions.hamiltonian_jumps
    monkeypatch.setattr(conditions, "hamiltonian_jumps",
                        lambda *args: times.append(np.size(args[3])) or jumps(*args))
    report = build_check_report(RunConfig("oscillator", {"b": 0.5}, 100.0))
    assert times == [1, 201]
    assert [row[2] for row in report.rows[:2]] == ["prop_general_WOO", "prop_general_OO"]


def test_list_examples(capsys):
    assert main(["list-examples"]) == 0
    # --c-max bounds the phase-diagram axis; it is no parameter of the model
    assert capsys.readouterr().out.splitlines() == [
        "ramsey: parameters alpha delta theta k0",
        "integrator: parameters rho [a0] [lambda]",
        "oscillator: parameters b [r] [phi]",
    ]


@pytest.mark.parametrize("argv, message", [
    (["check", "--example", "integrator", "--b", "3", "--r", "7"],
     "takes rho, a0, lambda, not b, r"),
    (["needle", "--example", "oscillator", "--a0", "4"], "takes b, r, phi, not a0"),
    (["overtake", "--example", "ramsey", "--rho", "0.1"], "not rho"),
])
def test_parameters_the_example_does_not_take_are_rejected(argv, message, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("horizoncheck: error:")
    assert message in err


def test_bad_example_is_operational_failure(capsys, tmp_path):
    code = main(["check", "--example", "oscillator", "--b", "-2",
                 "--out", str(tmp_path / "r.csv")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("example", ["oscillator", "integrator"])
def test_check_integrates_forward_from_t0_once(monkeypatch, example):
    # the state path comes from the (x, Y, S) pass; no separate state solve
    starts = []
    integrate = ode_engine.integrate

    def counted(field, t0, y0, t_end, *args, **kwargs):
        if t_end > t0:
            starts.append(t0)
        return integrate(field, t0, y0, t_end, *args, **kwargs)

    monkeypatch.setattr(ode_engine, "integrate", counted)
    build_check_report(RunConfig(example=example, params={}, t_max=100.0))
    assert starts.count(0.0) == 1


@pytest.mark.parametrize("example, params, lams", [
    ("oscillator", {"b": 0.5}, [1.0] * 3),
    ("oscillator", {"b": 1.5}, [1.0] * 4),
    ("integrator", {"rho": 0.1}, [1.0, 0.0]),
])
def test_check_makes_one_forward_pass_for_all_candidates(monkeypatch, example, params, lams):
    # one solve per report, the (x, Y, S) pass from t0; every candidate's
    # costate is read off it, with no adjoint solve of its own
    starts, reads = [], []
    integrate, read = ode_engine.integrate, cli.integrate_adjoint

    def counted(field, t0, y0, t_end, *args, **kwargs):
        starts.append(t0)
        return integrate(field, t0, y0, t_end, *args, **kwargs)

    monkeypatch.setattr(ode_engine, "integrate", counted)
    monkeypatch.setattr(cli, "integrate_adjoint",
                        lambda op, T, psi_T, lam: reads.append(lam) or read(op, T, psi_T, lam))
    build_check_report(RunConfig(example=example, params=params, t_max=100.0))
    assert starts == [0.0]
    assert reads == lams


def test_ramsey_check_solves_the_state_equation_once(monkeypatch):
    # the feasible candidates read k off their joint (k, c) orbits; only the
    # saddle candidate solves the state equation under its consumption
    calls = []
    integrate_controlled = reference_examples.integrate_controlled

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate_controlled(*args, **kwargs)

    monkeypatch.setattr(reference_examples, "integrate_controlled", counted)
    build_check_report(RunConfig(example="ramsey", params={}, t_max=None))
    assert len(calls) == 1


@pytest.mark.parametrize("argv, message", [
    (["needle", "--example", "oscillator", "--r", "0.3"],
     "needle does not read --r; only check does"),
    (["overtake", "--example", "integrator", "--a0", "2"],
     "overtake does not read --a0; only check does"),
    (["check", "--example", "ramsey", "--grid", "8x8"],
     "check does not read --grid; only phase-diagram does"),
    (["overtake", "--example", "ramsey", "--k-max", "50"], "does not read --k-max"),
    (["needle", "--example", "integrator", "--lambda", "1"], "does not read --lambda"),
    # needle takes its horizon from --t-horizon, and only overtake reads --eps
    (["needle", "--example", "oscillator", "--t-max", "5", "--eps", "0.3"],
     "needle does not read --t-max; only check, phase-diagram, overtake do"),
    (["check", "--example", "integrator", "--eps", "0.3"],
     "check does not read --eps; only overtake does"),
])
def test_flags_the_command_does_not_read_are_rejected(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("horizoncheck: error:")
    assert message in captured.err


def test_overtake_reads_eps(capsys):
    argv = ["overtake", "--example", "oscillator", "--t-max", "40"]
    assert main(argv) == 0
    bare = capsys.readouterr().out
    # gaps of up to 0.63 recur beyond every checkpoint; none exceeds eps = 1
    assert main(argv + ["--eps", "1"]) == 0
    wide = capsys.readouterr().out
    assert "consistent_WOO_only" in bare and "consistent_WOO_only" not in wide


def test_check_csv_deterministic(tmp_path):
    args = ["check", "--example", "integrator", "--rho", "0.1", "--a0", "0",
            "--t-max", "150"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2
    assert b1.startswith(b"horizon_check_report_v1,")
    assert b"\r" not in b1


def test_check_exit_zero_even_when_conditions_fail(tmp_path):
    # undiscounted integrator: classical conditions all fail, exit still 0
    out = tmp_path / "r0.csv"
    assert main(["check", "--example", "integrator", "--rho", "0",
                 "--t-max", "150", "--out", str(out)]) == 0
    text = out.read_text()
    assert "fails" in text


def test_check_report_rows_integrator():
    config = RunConfig(example="integrator", params={"rho": 0.1, "a0": 0.0},
                       t_max=250.0)
    report = build_check_report(config)
    rows = _rows(report)
    by_key = {(r["candidate"], r["condition"]): r["status"] for r in rows}
    assert by_key[("(gradient route)", "prop_general_WOO")] == "holds"
    assert by_key[("(gradient route)", "prop_general_OO")] == "holds"
    assert by_key[("(gradient route)", "limit_costate")] == "holds"
    assert by_key[("psi(lam=1,a0=0)", "tcKAV")] == "holds"
    assert by_key[("psi(lam=0,a0=1)", "tcKAV")] == "fails"


def test_json_mirrors_csv(tmp_path):
    config_args = ["check", "--example", "integrator", "--rho", "0.1",
                   "--t-max", "150"]
    csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
    assert main(config_args + ["--out", str(csv_path), "--format", "csv"]) == 0
    assert main(config_args + ["--out", str(json_path), "--format", "json"]) == 0
    with open(csv_path, newline="") as fh:
        csv_rows = list(csv.reader(fh))
    payload = json.loads(json_path.read_text())
    assert payload["schema"] == "horizon_check_report_v1"
    assert payload["columns"][1:] == csv_rows[0][1:]
    assert len(payload["rows"]) == len(csv_rows) - 1
    assert payload["rows"][0] == csv_rows[1]


def test_phase_diagram_degenerate_grid():
    config = RunConfig(example="ramsey",
                       params=dict(alpha=0.4, delta=0.05, theta=0.5, k0=10.0),
                       grid=(1, 1), k_max=32.0, c_max=2.4, t_max=600.0)
    report = build_phase_diagram_report(config)
    rows = _rows(report)
    grid_rows = [r for r in rows if r["kind"] == "grid"]
    assert len(grid_rows) == 1
    assert grid_rows[0]["label"] == "saddle"
    assert float(grid_rows[0]["k"]) == 32.0
    # kdot nullcline passes through (32, 2.4)
    kdot = [r for r in rows if r["kind"] == "nullcline_kdot"]
    hit = [r for r in kdot if abs(float(r["k"]) - 32.0) < 1e-9]
    assert hit and float(hit[0]["c"]) == pytest.approx(2.4, abs=1e-9)
    # cdot nullcline is the vertical line k = k*
    cdot = [r for r in rows if r["kind"] == "nullcline_cdot"]
    assert all(float(r["k"]) == 32.0 for r in cdot)
    # each kdot row satisfies c = k**alpha - delta*k
    for r in kdot:
        k = float(r["k"])
        assert float(r["c"]) == pytest.approx(k ** 0.4 - 0.05 * k, abs=1e-6)
    assert any(r["kind"] == "saddle_path" for r in rows)


@pytest.mark.parametrize("grid", ["0x3", "-2x3", "3x0"])
def test_phase_diagram_rejects_grid_below_one(grid, capsys):
    assert main(["phase-diagram", "--example", "ramsey", f"--grid={grid}"]) == 1
    assert "grid sizes must be at least 1" in capsys.readouterr().err
    with pytest.raises(ValueError):
        RunConfig(example="ramsey", params={}, t_max=None,
                  grid=tuple(int(n) for n in grid.split("x")))


@pytest.mark.parametrize("flag, value", [("--t-max", "inf"), ("--t-max", "nan"),
                                         ("--t-max", "-1"), ("--eps", "nan"),
                                         ("--eps", "inf"), ("--k-max", "nan"),
                                         ("--c-max", "inf")])
def test_nonfinite_run_settings_are_rejected(flag, value, capsys):
    assert main(["check", "--example", "oscillator", flag, value]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("horizoncheck: error:")
    assert flag[2:] in err
    settings = {"params": {}, "t_max": None, flag[2:].replace("-", "_"): float(value)}
    with pytest.raises(ValueError):
        RunConfig(example="ramsey", **settings)


@pytest.mark.parametrize("example, flag, value, message", [
    ("ramsey", "--delta", "inf", "delta must be finite"),
    ("ramsey", "--k0", "inf", "k0 must be finite"),
    ("ramsey", "--theta", "inf", "theta must be finite"),
    ("integrator", "--rho", "inf", "rho must be finite"),
    ("oscillator", "--b", "inf", "b must be finite"),
    ("oscillator", "--phi", "nan", "phi must be finite"),
    # k* = (delta/alpha)**(1/(alpha-1)) underflows to 0
    ("ramsey", "--delta", "1e300", "need finite, positive k* and c*"),
    ("ramsey", "--delta", "1e-300", "steady state overflows"),
    # a parameter out of range is named with its value
    ("ramsey", "--alpha", "1.4", "ramsey: parameter alpha=1.4 out of range (need alpha in"),
    ("oscillator", "--b", "0", "oscillator: parameter b=0 out of range (need b > 0)"),
    ("integrator", "--rho", "-0.1", "integrator: parameter rho=-0.1 out of range (need rho >= 0)"),
])
def test_bad_example_parameters_are_rejected(example, flag, value, message, capsys):
    assert main(["check", "--example", example, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("horizoncheck: error:")
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (["--example", "integrator", "--lambda", "0.5"], "lam must be 0 or 1"),
    (["--example", "integrator", "--lambda", "0", "--a0", "0"], "must not both vanish"),
    (["--example", "oscillator", "--b", "0.5", "--r", "2"], "requires |r| <= b = 0.5"),
])
def test_inadmissible_candidates_are_rejected_before_the_pass(argv, message, capsys,
                                                             monkeypatch):
    # an inadmissible adjoint candidate is an input error, not six
    # inconclusive rows: it is refused before the (x, Y, S) pass is built
    passes = []
    monkeypatch.setattr(cli, "transition_matrix", lambda *args, **kwargs: passes.append(args))
    assert main(["check", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and passes == []
    assert captured.err.count("\n") == 1 and captured.err.startswith("horizoncheck: error:")
    assert message in captured.err


@pytest.mark.parametrize("rho", [0.0, 0.1])
def test_integrator_check_rows_match_the_closed_forms(rho):
    # each candidate's maxH row against the closed-form maximum principle,
    # and the limit costate against psi_hat(0) = 1/rho, or a failure where
    # psi_hat diverges
    for lam, a0 in ((1.0, 0.0), (1.0, -0.5), (0.0, 1.0)):
        config = RunConfig("integrator", {"rho": rho, "lambda": lam, "a0": a0}, None)
        rows = {row[2]: row for row in build_check_report(config).rows}
        oracle = IntegratorOracle(rho, a0, lam)
        assert rows["maxH"][3] == ("holds" if oracle.max_principle_holds() else "fails"), (lam, a0)
        status, estimate = rows["limit_costate"][3:5]
        if oracle.psi_hat_diverges:
            assert status == "fails"
        else:
            assert status == "holds"
            assert abs(float(estimate) - float(oracle.psi_hat(0.0))) <= 1e-6


def test_ramsey_shooting_error_names_a_short_horizon(capsys):
    # the FIG1 saddle orbit needs about 150 time units to reach the ball
    assert main(["check", "--example", "ramsey", "--t-max", "100"]) == 1
    assert "steady-state ball by t_max = 100" in capsys.readouterr().err


def test_ramsey_shooting_without_a_bracket_is_one_error_line(capsys):
    # at t_max 10 every probe of the shooting lies on one side of the saddle path
    assert main(["check", "--example", "ramsey", "--t-max", "10"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("horizoncheck: error: ")


def test_phase_diagram_saddle_path_lies_on_the_stable_manifold():
    # every saddle_path row of the default 16x16 report (FIG1) against the
    # time-eliminated manifold c_s(k)
    config = RunConfig(example="ramsey", params={}, t_max=None, grid=(16, 16))
    k, c = np.array([(float(r["k"]), float(r["c"]))
                     for r in _rows(build_phase_diagram_report(config))
                     if r["kind"] == "saddle_path"]).T
    params = reference_examples.RamseyParams(**FIG1)
    c_s = reference_examples._saddle_consumption(
        params, reference_examples.ramsey_steady_state(params)[0], k)
    assert k.size > 30 and np.max(np.abs(c / c_s - 1.0)) <= 1e-6


def test_phase_diagram_requires_ramsey():
    with pytest.raises(ValueError):
        build_phase_diagram_report(RunConfig(example="oscillator", params={}, t_max=None))


def test_overtake_report_oscillator():
    config = RunConfig(example="oscillator", params={"b": 0.5}, t_max=400.0)
    report = build_overtake_report(config)
    rows = _rows(report)
    by_challenger = {r["challenger"]: r for r in rows}
    s_pi = by_challenger[f"delayed_start(s={math.pi:g})"]
    assert s_pi["verdict"] == "consistent_WOO_only"
    assert float(s_pi["max_gap"]) == pytest.approx(2 - math.pi / 2, abs=1e-3)


def test_needle_report(tmp_path):
    config = RunConfig(example="oscillator", params={"b": 0.5}, t_max=None, fmt="csv",
                       out=str(tmp_path / "n.csv"))
    report = build_needle_report(config, tau=1.0, u=0.0, T=20.0,
                                 alphas=[1e-1, 1e-2, 1e-3])
    rows = _rows(report)
    samples = [r for r in rows if r["kind"] == "sample"]
    assert len(samples) == 3
    errs = [float(r["abs_error"]) for r in samples]
    assert errs == sorted(errs, reverse=True)
    order_row = [r for r in rows if r["kind"] == "order"][0]
    assert float(order_row["abs_error"]) >= 0.9


def test_float_formatting_nine_significant_digits(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["phase-diagram", "--example", "ramsey", "--alpha", "0.4",
                 "--delta", "0.05", "--theta", "0.5", "--k0", "10",
                 "--grid", "2x2", "--k-max", "64", "--c-max", "4.8",
                 "--t-max", "600", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "phase_diagram_report_v1"
    for row in rows[1:]:
        for cell in row[1:3]:
            assert len(cell.replace(".", "").replace("-", "").lstrip("0")) <= 10


@pytest.mark.parametrize("example,flag", [("oscillator", ["--b", "0.5"]),
                                          ("integrator", ["--rho", "0.1"])])
def test_needle_without_parameters_uses_the_defaults(example, flag, tmp_path):
    args = ["needle", "--example", example, "--alphas", "1e-1,1e-2"]
    bare, explicit = tmp_path / "bare.csv", tmp_path / "explicit.csv"
    assert main(args + ["--out", str(bare)]) == 0
    assert main(args + flag + ["--out", str(explicit)]) == 0
    assert bare.read_bytes() == explicit.read_bytes()


def test_needle_rejects_ramsey_by_name(capsys):
    assert main(["needle", "--example", "ramsey"]) == 1
    err = capsys.readouterr().err
    assert "needle supports the integrator and oscillator examples" in err
    assert "missing parameter" not in err


@pytest.mark.parametrize("alphas, message", [("nan", "finite and positive"),
                                             ("0.1,inf", "finite and positive"),
                                             (",", "two distinct"),
                                             ("0.1", "two distinct"),
                                             ("0.1,0.1", "two distinct")])
def test_needle_rejects_widths_it_cannot_fit(alphas, message, capsys):
    # these used to print a NaN sample, a lone order row, or an order of inf
    # or one fitted through a single point
    assert main(["needle", "--example", "oscillator", "--alphas", alphas]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_needle_rejects_a_nan_tau(capsys):
    # a NaN tau used to pass the interval test and fail later, after the
    # state solve, with "anchor time outside the trajectory span"
    assert main(["needle", "--example", "oscillator", "--tau", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needle interval must lie inside [t0, T]" in captured.err


def test_costate_breakdown_makes_only_its_candidate_inconclusive(monkeypatch, tmp_path):
    argv = ["check", "--example", "oscillator", "--t-max", "30"]
    assert main([*argv, "--out", str(tmp_path / "plain.csv")]) == 0
    message = ("costate unresolved: Y(t) lost its relative accuracy on [t0, T] "
               "(smallest singular value 1e-07)")
    read = cli.integrate_adjoint
    calls = []

    def second_breaks(transition, T, psi_T, lam):
        calls.append(lam)
        if len(calls) == 2:
            raise ValueError(message)
        return read(transition, T, psi_T, lam)

    monkeypatch.setattr(cli, "integrate_adjoint", second_breaks)
    assert main([*argv, "--out", str(tmp_path / "broken.csv")]) == 0
    assert len(calls) == 3
    plain, broken = (list(csv.reader((tmp_path / f"{name}.csv").open()))
                     for name in ("plain", "broken"))
    label = "psi(r=0.25,phi=0.7)"
    assert [row for row in broken if row[1] != label] == [row for row in plain
                                                          if row[1] != label]
    assert [row for row in broken if row[1] == label] == [
        [kind, label, condition, "inconclusive", "", message]
        for kind, condition in [("classical", "tcPSI"), ("classical", "tcXPSI"),
                                ("classical", "tcM"), ("classical", "tcKAV"),
                                ("max_principle", "maxH"), ("decomposition", "a0_limit")]]
    assert [row[:3] for row in broken] == [row[:3] for row in plain]
