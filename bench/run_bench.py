"""Benchmark of the horizoncheck CLI report builders.

Run one workload from the root of a checkout::

    python3 bench/run_bench.py --workload check-oscillator --seed 1 --seconds 30 --trace 0

The workload runs in a fresh worker process (``worker.py``) that imports
horizoncheck from this checkout's ``src`` with BLAS/OpenMP pinned to one
thread.  Untraced runs (``--trace 0``) report the end-to-end metrics of
``BENCHMARK.json`` and start extra set-up-only processes for ``setup_s``;
traced runs report its per-layer metrics.  The lines before the last print
every metric by name and unit, the failure rate and an environment record;
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--out FILE`` also appends the whole record to a JSON-lines
file, and ``--compare BASE CHANGE`` judges two such files metric by metric.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 7
TIME_LIMIT_S = 165.0  # one run, set-up probes included
THREAD_PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                      "NUMEXPR_NUM_THREADS")}
MIN_PAIRS_FOR_GAIN = 10


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH")]))
    return env


def run_worker(args: list, timeout: float) -> dict:
    """Run worker.py to completion and return its last stdout line as JSON."""
    if timeout <= 0:
        raise BenchError("time limit reached")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(numpy_version: str) -> dict:
    """Where a result was measured: commit, versions, CPU, thread pins."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=5, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "thread_pins": THREAD_PINS}


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: int,
            tiny: bool = False) -> dict:
    """One run: the worker, then (untraced) the set-up probes.  ``tiny``
    selects the self-test sizes."""
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    out = run_worker([*common, "--seconds", str(seconds), "--trace", str(trace)],
                     deadline - time.monotonic())
    values = dict(out["metrics"])
    setups = []
    if not trace:
        # after the worker, so file caches are warm for every probe
        setups = [run_worker([*common, "--setup-only"], deadline - time.monotonic())
                  for _ in range(SETUP_PROBES)]
        values["setup_s"] = statistics.median(p["setup_s"] for p in setups)
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "env": environment(out["numpy"]), "result": result,
            "verdict_wall_s": out["verdict_wall_s"], "traced_wall_s": out["traced_wall_s"],
            "setup_wall_s": [p["setup_wall_s"] for p in setups],
            "kernel_ms_p1": out["kernel_ms_p1"], "kernel_ms_p50": out["kernel_ms_p50"],
            "errors": out["errors"]}


def print_record(record: dict):
    result = record["result"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"fail_rate {result['failed'] / result['attempted']:.6g} 1")
    # raw wall times; a percentile needs ten samples beyond it
    walls = sorted(record["verdict_wall_s"])
    n = len(walls)
    tail = f"p{int(100 * (1 - 10 / n))} {walls[n - 11]:.6g} s" if n >= 20 \
        else f"max {walls[-1]:.6g} s"
    print(f"# untraced wall time per iteration: n={n} median "
          f"{statistics.median(walls):.6g} s, {tail}; probe kernel p1 "
          f"{record['kernel_ms_p1']:.3f} ms, median {record['kernel_ms_p50']:.3f} ms")
    for error in record["errors"]:
        print(f"# failure: {error}")
    print("# env " + json.dumps(record["env"]))
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# compare mode


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def judge(base: list, change: list, pairs: list, bound: float, higher_better: bool) -> str:
    """improved / no worse / regressed / unresolved for one workload metric.

    A gain needs ten pairs at least, the change winning nine tenths of them
    (ties count for neither) and medians further apart than the base's
    quartile distance.  Worse than the base median by more than ``bound``
    (a share of it) is a regression.  A quartile distance on either side
    wider than the bound is unresolved unless every change run beats every
    base run.
    """
    sign = 1.0 if higher_better else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(pairs)
            and sign * (c_med - b_med) > b_q3 - b_q1):
        return "improved"
    if sign * (b_med - c_med) > bound * abs(b_med):
        return "regressed"
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    if max(b_q3 - b_q1, c_q3 - c_q1) > bound * abs(b_med) and not all_better:
        return "unresolved"
    return "no worse"


def load_records(path: str) -> list:
    with open(path) as fh:
        return [r for r in map(json.loads, filter(str.strip, fh)) if not r["trace"]]


def compare(spec: dict, base_path: str, change_path: str):
    base, change = load_records(base_path), load_records(change_path)
    print(f"{'workload':20} {'metric':16} {'unit':6} {'base median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'n':>7}  label")
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs = [r for r in base if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        if not b_runs or not c_runs:
            continue
        # pair runs by seed; without common seeds, in file order
        c_by_seed = {r["seed"]: r for r in c_runs}
        pairs = [(b, c_by_seed[b["seed"]]) for b in b_runs if b["seed"] in c_by_seed] \
            or list(zip(b_runs, c_runs))
        n = f"{len(b_runs):>3}/{len(c_runs):<3}"
        for m in spec["end_to_end"]:
            def value(run):
                return run["result"]["metrics"][m["name"]]["value"]
            bv, cv = [value(r) for r in b_runs], [value(r) for r in c_runs]
            label = judge(bv, cv, [(value(b), value(c)) for b, c in pairs],
                          m["bound"], m["better"] == "higher")
            print(f"{workload:20} {m['name']:16} {m['unit']:6} {_q(bv):34} {_q(cv):34} {n}  {label}")

        def fail_rate(runs):
            return (sum(r["result"]["failed"] for r in runs)
                    / sum(r["result"]["attempted"] for r in runs))
        b_fail, c_fail = fail_rate(b_runs), fail_rate(c_runs)
        label = "regressed" if c_fail > b_fail else "no worse"
        print(f"{workload:20} {'fail_rate':16} {'1':6} {b_fail:<34.4g} {c_fail:<34.4g} {n}  {label}")


def _q(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="judge two JSON-lines result files written by --out")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        compare(spec, *args.compare)
        return 0

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if not (ROOT / "src" / "horizoncheck" / "__init__.py").is_file():
        print(f"error: no horizoncheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        record = measure(spec, args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
    print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
