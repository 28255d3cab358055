#!/usr/bin/env python3
"""Phase-diagram benchmark of dicke_trimer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload grid-triple --seed 0 --seconds 40 --trace 0

The package is imported from ``src/`` of the checkout; nothing is installed.
The run times fresh-process set-up, then repeats one workload pass until
``--seconds`` have passed and reports medians over the passes.  Every pass is
checked against the closed forms.  ``--trace 1`` adds one traced pass after
the timed ones and reports the per-layer numbers instead of the end-to-end
ones.

The second-to-last line of standard output is a JSON report: configuration,
machine facts, every pass time, ``ref_err`` and ``fail_frac``.  The last line
is the result: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# fresh processes timed for setup_s; the median is reported
SETUP_RUNS = 5

# imports the package and the scipy parts it uses, then solves one point
SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import scipy.ndimage, scipy.optimize
import dicke_trimer
from dicke_trimer import ModelParams, solve_ground_state
if not dicke_trimer.__file__.startswith(sys.argv[1]):
    sys.exit(f"dicke_trimer imported from {dicke_trimer.__file__}, not {sys.argv[1]}")
solve_ground_state(ModelParams(g=0.5, J1=0.1, J2=0.1))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def setup_seconds():
    """Wall time of one fresh interpreter that imports the package and solves."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed: {proc.stderr.strip()}")
    return dt


def import_package():
    sys.path.insert(0, str(SRC))
    import dicke_trimer
    if not dicke_trimer.__file__.startswith(str(SRC)):
        raise BenchError(f"dicke_trimer imported from {dicke_trimer.__file__}")


def machine_facts():
    import numpy
    import scipy

    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_max": cpu_max,
        "loadavg": list(os.getloadavg()),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def warm_up():
    """Run each solver path once so that no lazy set-up lands in a pass."""
    from dicke_trimer import ModelParams, brute_force_minimize, solve_ground_state

    for J1, J2, g in ((0.1, 0.1, 0.5), (-0.1, -0.1, 1.1), (0.1, 0.1, 1.1), (0.1, -0.1, 1.05)):
        solve_ground_state(ModelParams(g=g, J1=J1, J2=J2))
    brute_force_minimize(ModelParams(g=1.0, J1=0.1, J2=-0.1))


def quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer, traced_s, untraced_s):
    from dicke_trimer.oracle import OracleConfig
    from tracer import LAYERS

    out = {}
    for name in LAYERS:
        if name == "sweep.refine":
            out["sweep.refine.solves"] = (
                tracer.nested["sweep.refine", "meanfield.solve_ground_state"], "count")
        else:
            out[f"{name}.calls"] = (tracer.calls[name], "count")
        out[f"{name}.self_s"] = (tracer.self_s[name], "s")
    lat = tracer.latencies["meanfield.solve_ground_state"]
    out["meanfield.solve_ground_state.p50_us"] = (1e6 * quantile(lat, 50), "us")
    out["meanfield.solve_ground_state.p99_us"] = (1e6 * quantile(lat, 99), "us")
    out["sweep.pool.map_s"] = (tracer.pool["map_s"], "s")
    out["sweep.pool.tasks"] = (tracer.pool["tasks"], "count")
    out["sweep.pool.task_bytes"] = (tracer.pool["task_bytes"], "bytes")
    n = OracleConfig().grid_points_per_axis
    out["oracle.grid_points"] = (tracer.calls["oracle.brute_force_minimize"] * n**3, "count")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    if not (SRC / "dicke_trimer" / "__init__.py").is_file():
        raise BenchError(f"no package source under {SRC}")
    setup = [setup_seconds() for _ in range(SETUP_RUNS)]
    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed)
    size = workload.size(config)
    warm_up()

    passes, ref_errs = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        out = workload.run(config)
        a, f, err = workload.check(config, out)
        passes.append(time.perf_counter() - t0)
        attempted, failed = attempted + int(a), failed + int(f)
        ref_errs.append(float(err))
    wall = statistics.median(passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "workload": args.workload, "seed": args.seed, "config": config,
        "size": size, "machine": machine_facts(), "setup_samples_s": setup,
        "passes_s": passes,
        # gates of `correct`, not bounded metrics: see bench/README.md
        "ref_err": {"value": max(ref_errs), "unit": "1"},
        "fail_frac": {"value": failed / attempted, "unit": "1"},
    }
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        restore = tracer.install()
        t0 = time.perf_counter()
        try:
            out = workload.run(config)
        finally:
            restore()
        traced = time.perf_counter() - t0
        a, f, _ = workload.check(config, out)
        attempted, failed = attempted + int(a), failed + int(f)
        metrics = layer_metrics(tracer, traced, wall)
        report["traced_s"] = traced
        report["layers_cover"] = "parent process only" if config.get("workers", 1) > 1 \
            else "whole workload"
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall, "s"),
            "points_per_s": (size / wall, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    declared = declared_metrics(args.trace)
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        raise BenchError(f"metrics differ from BENCHMARK.json: {produced} vs {declared}")

    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
