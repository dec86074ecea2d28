"""Report pins: whole CLI reports against committed golden files, and the
oscillator status table that the benchmark's check gate encodes."""

import csv
import difflib
import io
import itertools
import math
from pathlib import Path

import pytest

from horizoncheck.cli import RunConfig, build_check_report, main

GOLDEN = Path(__file__).resolve().parent / "golden"

# golden file stem -> CLI arguments of the report it pins
GOLDEN_REPORTS = {
    "check_oscillator_b0.5": ["check", "--example", "oscillator", "--b", "0.5"],
    "check_oscillator_b1.5": ["check", "--example", "oscillator", "--b", "1.5"],
    "check_integrator_rho0.1": ["check", "--example", "integrator", "--rho", "0.1"],
    "check_integrator_rho0": ["check", "--example", "integrator", "--rho", "0"],
    "check_integrator_rho0.1_lambda0_a0_1": ["check", "--example", "integrator", "--rho", "0.1",
                                             "--lambda", "0", "--a0", "1"],
    "check_oscillator_b0.5_r0.3_phi0.2_tmax100": ["check", "--example", "oscillator", "--b", "0.5",
                                                  "--r", "0.3", "--phi", "0.2",
                                                  "--t-max", "100"],
    "check_ramsey": ["check", "--example", "ramsey"],
    "check_ramsey_k040": ["check", "--example", "ramsey", "--k0", "40"],
    "overtake_ramsey": ["overtake", "--example", "ramsey"],
    "phase_diagram_ramsey_16x16": ["phase-diagram", "--example", "ramsey", "--grid", "16x16"],
    "overtake_oscillator_tmax100": ["overtake", "--example", "oscillator", "--t-max", "100"],
    "overtake_integrator": ["overtake", "--example", "integrator"],
    "needle_oscillator_b0.5": ["needle", "--example", "oscillator", "--b", "0.5"],
}


def _differing_rows(golden: bytes, report: bytes) -> str:
    """The first 20 rows of the golden file and the report that differ, each
    with its line number, a golden row next to the report row that replaces
    it."""
    matcher = difflib.SequenceMatcher(None, golden.decode().splitlines(),
                                      report.decode().splitlines(), autojunk=False)
    lines = []
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            for i, j in itertools.zip_longest(range(i1, i2), range(j1, j2)):
                lines += [] if i is None else [f"golden {i + 1}: {matcher.a[i]}"]
                lines += [] if j is None else [f"report {j + 1}: {matcher.b[j]}"]
    return "\n".join(lines[:20])


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_report_matches_its_golden_file(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main([*GOLDEN_REPORTS[name], "--out", str(out)]) == 0
    report, golden = out.read_bytes(), (GOLDEN / f"{name}.csv").read_bytes()
    assert report == golden, _differing_rows(golden, report)


def _oscillator_table(b):
    """(kind, condition, status) rows of the oscillator ``check`` report for
    b in (0, 1), from the closed forms: grad(tau, T) = (cos(T-tau) - 1,
    sin(T-tau)) is bounded without a limit, and H along the candidate is
    r sin(phi) + b, zero only for (r, phi) = (b, -pi/2)."""
    table = [("general", "prop_general_WOO", "holds"),
             ("general", "prop_general_OO", "fails"),
             ("limit", "limit_costate", "fails"),
             ("limit", "jx_bounded", "holds")]
    for phi in (0.0, 0.7, -math.pi / 2):
        table += [("classical", "tcPSI", "fails"),
                  ("classical", "tcXPSI", "fails"),
                  ("classical", "tcM", "holds" if phi == -math.pi / 2 else "fails"),
                  ("classical", "tcKAV", "fails"),
                  ("max_principle", "maxH", "holds"),
                  ("decomposition", "a0_limit", "fails")]
    return table


@pytest.mark.parametrize("t_max", [30.0, 100.0])
@pytest.mark.parametrize("b", [0.4, 0.45, 0.5, 0.55, 0.6])
def test_oscillator_status_table(b, t_max):
    text = build_check_report(RunConfig("oscillator", {"b": b}, t_max)).to_csv()
    rows = list(csv.reader(io.StringIO(text)))[1:]
    assert [(row[0], row[2], row[3]) for row in rows] == _oscillator_table(b)
