"""Self-tests of the benchmark, at tiny sizes.

Run from the root of the checkout::

    python3 -m pytest -q bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import run_bench  # noqa: E402
import worker  # noqa: E402
from layertrace import COUNT_METRICS  # noqa: E402
from workloads import TINY, Output  # noqa: E402

SPEC = run_bench.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def traced_records():
    """Two traced tiny runs per workload, each in its own worker process."""
    return {name: [run_bench.measure(SPEC, name, seed=5, seconds=0, trace=1, tiny=True)
                   for _ in range(2)]
            for name in NAMES}


def _assert_metrics_match_spec(record, kind):
    result = record["result"]
    assert result["correct"] and result["failed"] == 0, record["errors"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_have_names_and_units(name, capsys):
    record = run_bench.measure(SPEC, name, seed=5, seconds=0, trace=0, tiny=True)
    _assert_metrics_match_spec(record, "end_to_end")
    assert all(record["result"]["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])

    run_bench.print_record(record)
    lines = capsys.readouterr().out.strip().splitlines()
    assert set(json.loads(lines[-1])) == {"correct", "attempted", "failed", "metrics"}
    for m in SPEC["end_to_end"]:
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_metrics_have_names_and_units(name, traced_records):
    _assert_metrics_match_spec(traced_records[name][0], "per_layer")


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_between_runs(name, traced_records):
    first, second = ([r["result"]["metrics"][m]["value"] for m in sorted(COUNT_METRICS)]
                     for r in traced_records[name])
    assert first == second
    assert traced_records[name][0]["result"]["metrics"]["ode_engine.integrate_calls"]["value"] > 0


class Corrupted:
    """A workload whose rendered report has one field replaced."""

    def __init__(self, workload, old, new):
        self.workload, self.old, self.new = workload, old, new

    def run(self, params):
        out = self.workload.run(params)
        hits = [i for i, text in enumerate(out.texts) if self.old in text]
        assert hits, f"{self.old!r} not in the report"
        texts = list(out.texts)
        texts[hits[0]] = texts[hits[0]].replace(self.old, self.new, 1)
        return Output(texts, out.captured)

    def check(self, params, out):
        return self.workload.check(params, out)


@pytest.mark.parametrize("name, old, new", [
    ("check-oscillator", ",prop_general_WOO,holds,", ",prop_general_WOO,fails,"),
    ("overtake-oscillator", ",consistent_OO,", ",inconclusive,"),
    ("overtake-oscillator", ",consistent_WOO_only,0.", ",consistent_WOO_only,1."),
    ("ramsey-fig1", ",payoff_rate_max,holds,", ",payoff_rate_max,fails,"),
    ("ramsey-fig1", ",k_star,holds,32,", ",k_star,holds,32.5,"),
])
def test_corrupted_report_counts_as_failure(name, old, new):
    tiny = TINY[name]
    inputs = [tiny.draw(np.random.default_rng(5))]
    clean = worker.measure(tiny, inputs, seconds=0, trace=False)
    assert (clean["attempted"], clean["failed"]) == (1, 0), clean["errors"]
    corrupted = worker.measure(Corrupted(tiny, old, new), inputs, seconds=0, trace=False)
    assert (corrupted["attempted"], corrupted["failed"]) == (1, 1)
    assert "Mismatch" in corrupted["errors"][0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run_bench.py", "--workload", NAMES[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("base, change, label", [
    ([10.0 + 0.01 * i for i in range(10)], [8.0 + 0.01 * i for i in range(10)], "improved"),
    ([10.0 + 0.01 * i for i in range(10)], [10.0 + 0.01 * i for i in range(10)], "no worse"),
    ([10.0 + 0.01 * i for i in range(10)], [12.0 + 0.01 * i for i in range(10)], "regressed"),
    ([10.0 + 3.0 * (i % 2) for i in range(10)], [10.5 + 3.0 * (i % 2) for i in range(10)],
     "unresolved"),
])
def test_compare_labels(base, change, label):
    assert run_bench.judge(base, change, list(zip(base, change)), 0.1, False) == label
