"""Workload process: runs one workload's passes and checks, and writes
the raw measurements as JSON for run.py to summarise.

Run by run.py with BLAS/OpenMP threads pinned to 1 and
CAVITYBUS_THREADS unset; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from dataclasses import asdict
from time import perf_counter

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _span_seconds(spans, name, op):
    return sum(s[2] - s[1] for s in spans if s[0] == name and s[4] == op)


def _aim1(workload, spans, wall):
    """The ROADMAP aim-1 baselines this workload re-measures."""
    if workload == "forward":
        return {
            "sweep_angle.grid_to_text_s": _span_seconds(spans, "gridio.grid_to_text", "sweep-angle"),
            "sweep_angle.sweep_s": _span_seconds(spans, "transmission.sweep", "sweep-angle"),
            "sweep_angle.cli_s": _span_seconds(spans, "cli.sweep-angle", "sweep-angle"),
            "calibrate_s": _span_seconds(spans, "calibrate.calibrate_geometry", "calibrate"),
        }
    if workload == "fit-grid":
        return {"read_grid_default_s": _span_seconds(spans, "gridio.read_grid", "fit-full-init")}
    return {"criterion9_pass_s": wall}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.prepare()
    tracer = Tracer() if args.trace else None

    passes = []
    ops = []
    layer_samples = []
    aim1_samples = []
    spans_out = []
    start = perf_counter()
    deadline = start + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        t0 = perf_counter()
        try:
            pass_ops = workload.run_pass(tracer if traced else None)
        finally:
            wall = perf_counter() - t0
            if traced:
                tracer.uninstall()
        workload.after_pass(pass_ops)
        if traced:
            converged_wrong = sum(1 for op in pass_ops if op.converged and not op.ok)
            layer_samples.append({**tracer.metrics(), "fitting.converged_wrong": converged_wrong})
            aim1_samples.append(_aim1(args.workload, tracer.spans, wall))
            spans_out.extend([len(passes)] + s for s in tracer.spans)
        passes.append({"wall_s": wall, "traced": traced})
        ops.extend(asdict(op) | {"pass": len(passes) - 1} for op in pass_ops)
        estimate = statistics.median(p["wall_s"] for p in passes)
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and perf_counter() + estimate > deadline:
            break

    failures = workload.final_checks()
    for op in ops:
        if op["name"] in failures:
            op["ok"] = False
            op["detail"] = (op["detail"] + "; " if op["detail"] else "") + failures[op["name"]]

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "ops": ops,
        "points_per_pass": workload.points_per_pass,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if args.trace:
        keys = layer_samples[0].keys()
        result["per_layer"] = {k: statistics.median(s[k] for s in layer_samples) for k in keys}
        result["aim1"] = {k: statistics.median(s[k] for s in aim1_samples) for k in aim1_samples[0]}
        with open(args.spans, "w") as handle:
            json.dump({"fields": ["pass", "name", "start", "end", "parent", "op", "bytes"],
                       "spans": spans_out}, handle)
    with open(args.out, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
