"""One workload process of the horizoncheck benchmark.

Started by ``run_bench.py`` in a fresh interpreter with BLAS/OpenMP pinned to
one thread.  It imports horizoncheck from the checkout's ``src``, draws the
workload's inputs from the seed (that is its set-up), runs timed iterations
until ``--seconds`` have passed, checks every iteration, and prints one JSON
object as its last stdout line.  Times are corrected for CPU contention by
the speed probe (see ``speedprobe.py``); raw wall times are reported beside.

With ``--trace 1`` even iterations run untraced and odd ones traced: the
traced ones give the per-layer metrics, both together the tracing overhead.
"""

import time

_START = time.perf_counter()  # set-up is timed from before the first import

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path

import numpy as np
from speedprobe import SpeedProbe

PROBE = SpeedProbe()
if __name__ == "__main__":
    PROBE.start()  # samples the core's speed from here on, set-up included

import horizoncheck  # noqa: E402
from layertrace import COUNT_METRICS, Tracer  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
MAX_ITERATIONS = 1000
MAX_ERRORS_KEPT = 5


def measure(workload, inputs, seconds: float, trace: bool) -> dict:
    """Run iterations until ``seconds`` have passed (two at least when
    tracing).  Records each iteration's (start, end); a raised exception or a
    failed check counts as a failure."""
    stats = {"untraced": [], "traced": [], "layers": [], "errors": [],
             "attempted": 0, "failed": 0, "max_error": None}
    start = time.perf_counter()
    for i, params in enumerate(inputs):
        tracer = Tracer() if trace and i % 2 == 1 else None
        stats["attempted"] += 1
        try:
            if tracer:
                tracer.install()
            try:
                t0 = time.perf_counter()
                out = workload.run(params)
                t1 = time.perf_counter()
            finally:
                if tracer:
                    tracer.uninstall()
            stats["traced" if tracer else "untraced"].append((t0, t1))
            error = workload.check(params, out)
        except Exception as exc:  # every failure is counted, none stops the run
            stats["failed"] += 1
            if len(stats["errors"]) < MAX_ERRORS_KEPT:
                stats["errors"].append(f"iteration {i} {params}: {type(exc).__name__}: {exc}")
        else:
            stats["max_error"] = max(stats["max_error"] or 0.0, error)
            if tracer:
                stats["layers"].append(tracer.metrics())
        if time.perf_counter() - start >= seconds and (not trace or i >= 1):
            break
    return stats


def summarize(stats: dict, trace: bool, probe: SpeedProbe) -> dict:
    """Metric values of one run: end-to-end, or per-layer when tracing."""
    untraced = statistics.median(probe.corrected_s(*iv) for iv in stats["untraced"])
    if not trace:
        return {
            "verdict_s": untraced,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # no verified digits when no iteration passed its check
            "accuracy_digits": 0.0 if stats["max_error"] is None
            else -math.log10(max(stats["max_error"], 1e-16)),
        }
    layers = stats["layers"]
    # counts repeat exactly for the first traced iteration's inputs; times are
    # medians over the traced iterations
    metrics = {name: value if name in COUNT_METRICS
               else statistics.median(layer[name] for layer in layers)
               for name, value in layers[0].items()}
    traced = statistics.median(probe.corrected_s(*iv) for iv in stats["traced"])
    metrics["bench.trace_overhead_frac"] = traced / untraced - 1.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time and exit")
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes with the same verdict tables (self-tests)")
    args = parser.parse_args(argv)

    if not Path(horizoncheck.__file__).resolve().is_relative_to(SRC):
        print(f"horizoncheck imported from {horizoncheck.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    workload = (TINY if args.tiny else WORKLOADS)[args.workload]
    rng = np.random.default_rng(args.seed)
    inputs = [workload.draw(rng) for _ in range(MAX_ITERATIONS)]
    setup_end = time.perf_counter()
    if args.setup_only:
        PROBE.stop()
        print(json.dumps({"setup_s": PROBE.corrected_s(_START, setup_end),
                          "setup_wall_s": setup_end - _START}))
        return 0

    try:
        stats = measure(workload, inputs, args.seconds, bool(args.trace))
    finally:
        PROBE.stop()
    if not stats["untraced"] or (args.trace and not stats["layers"]):
        print("no iteration completed:\n" + "\n".join(stats["errors"]), file=sys.stderr)
        return 1
    print(json.dumps({
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "errors": stats["errors"],
        "metrics": summarize(stats, bool(args.trace), PROBE),
        "verdict_wall_s": [t1 - t0 for t0, t1 in stats["untraced"]],
        "traced_wall_s": [t1 - t0 for t0, t1 in stats["traced"]],
        "kernel_ms_p1": 1e3 * PROBE.percentile_s(1),
        "kernel_ms_p50": 1e3 * PROBE.percentile_s(50),
        "numpy": np.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
