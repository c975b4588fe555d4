"""cavitybus benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {forward,fit-mc,fit-grid} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a cavitybus source checkout; it imports the
package from ./src and builds nothing.  The workload runs in a child
process with BLAS/OpenMP threads pinned to 1 and CAVITYBUS_THREADS
unset (the program default).  With --trace 0 the last stdout line holds
the end-to-end metrics, with --trace 1 the per-layer metrics from a run
that alternates untraced and traced passes.  Every output is checked;
the lines before the last one print each metric by name and unit.
Results, with provenance, go to .perfbench-out/results/.  See
perfbench/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("forward", "fit-mc", "fit-grid")
TIME_LIMIT_S = 170.0
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import cavitybus.cli; "
    "from cavitybus.config import default_config; default_config(); "
    "print(time.perf_counter() - t0)"
)
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env():
    env = dict(os.environ)
    env.pop("CAVITYBUS_THREADS", None)
    for name in PINNED_THREADS:
        env[name] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(argv, env, timeout):
    return subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=True)


def measure_setup(env):
    """Import cavitybus.cli and build the default config in fresh
    interpreters; the first run, which may compile bytecode, is dropped."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = _run([sys.executable, "-c", SETUP_CODE], env, 60).stdout
        if i:
            samples.append(float(out.strip().splitlines()[-1]))
    return samples


def measure_import_times(env):
    """Cumulative import time of each cavitybus module, from
    `python -X importtime`, median over fresh interpreters."""
    per_module = {}
    for _ in range(IMPORT_SAMPLES):
        err = _run([sys.executable, "-X", "importtime", "-c", "import cavitybus.cli"], env, 60).stderr
        for line in err.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2].startswith("cavitybus"):
                per_module.setdefault(parts[2], []).append(int(parts[1]) * 1e-6)
    return {
        f"{name.rpartition('.')[2] if '.' in name else name}.import_s": statistics.median(v)
        for name, v in per_module.items()
    }


def tail(values):
    """The highest percentile with at least ten samples beyond it (the
    (n-10)th smallest), or the maximum when there are ten or fewer."""
    values = sorted(values)
    n = len(values)
    if n <= 10:
        return {"p": "max", "value": values[-1], "n": n}
    return {"p": f"p{100.0 * (n - 10) / n:.4g}", "value": values[n - 11], "n": n}


def _provenance(args, versions):
    git_sha = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git_sha = _run(["git", "rev-parse", "HEAD"], None, 30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "cavitybus")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {name: "1" for name in PINNED_THREADS} | {"CAVITYBUS_THREADS": "unset"},
    }


def summarise(raw, setup):
    """End-to-end metrics (gated ones first) and the report-only extras."""
    walls = [p["wall_s"] for p in raw["passes"] if not p["traced"]]
    wall = statistics.median(walls)
    ops = raw["ops"]
    fits = [op for op in ops if op["is_fit"]]
    untraced = {i for i, p in enumerate(raw["passes"]) if not p["traced"]}
    e2e = {
        "wall_s": (wall, "s"),
        "grid_points_per_s": (raw["points_per_pass"] / wall, "1/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    if setup:
        e2e = {"setup_s": (statistics.median(setup), "s")} | e2e
    failed = sum(1 for op in ops if not op["ok"])
    extras = {
        "wall_tail_s": tail(walls),
        "fail_ratio": (failed / len(ops), "1"),
        "op_latency_s": {},
    }
    for name in dict.fromkeys(op["name"] for op in ops):
        latencies = [op["seconds"] for op in ops if op["name"] == name and op["pass"] in untraced]
        if latencies:
            extras["op_latency_s"][name] = {"p50": statistics.median(latencies), "tail": tail(latencies)}
    if fits:
        fit_latencies = [op["seconds"] for op in fits if op["pass"] in untraced]
        errors = sorted(e for op in fits for e in op["errors"])
        fits_per_pass = len(fits) / len(raw["passes"])
        extras |= {
            "fits_per_s": (fits_per_pass / wall, "1/s"),
            "fit_p50_s": (statistics.median(fit_latencies), "s"),
            "fit_tail_s": tail(fit_latencies),
            "param_err_p95": (errors[min(len(errors) - 1, math.ceil(0.95 * len(errors)) - 1)], "1"),
            "converged_wrong": (sum(1 for op in fits if op["converged"] and not op["ok"]), "count"),
        }
    return e2e, extras, failed


def _print_report(workload, seed, raw, e2e, extras, failed, correct):
    ops = raw["ops"]
    print(f"perfbench {workload} seed={seed} passes={len(raw['passes'])} "
          f"attempted={len(ops)} failed={failed} correct={str(correct).lower()}")
    for name, value in list(e2e.items()) + list(extras.items()):
        if isinstance(value, tuple):
            print(f"  {name:<22} {value[0]:.6g} {value[1]}")
        elif name == "op_latency_s":
            for op_name, lat in value.items():
                t = lat["tail"]
                print(f"  latency {op_name:<28} p50 {lat['p50']:.4g} s, {t['p']} {t['value']:.4g} s (n={t['n']})")
        else:
            print(f"  {name:<22} {value['p']} {value['value']:.6g} s (n={value['n']})")
    known = sorted({op["name"] for op in ops if not op["ok"] and op["known"]})
    if known:
        print(f"  known failures: {', '.join(known)}")
    for op in ops:
        if not op["ok"] and not op["known"]:
            print(f"  FAILED {op['name']} (pass {op['pass']}): {op['detail']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "cavitybus", "__init__.py")):
        sys.stderr.write("perfbench: run from the root of a cavitybus checkout (no src/cavitybus here)\n")
        return 2

    started = time.monotonic()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    env = _child_env()
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        setup = [] if args.trace else measure_setup(env)
        imports = measure_import_times(env) if args.trace else {}
        remaining = TIME_LIMIT_S - (time.monotonic() - started)
        _run([sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--workdir", workdir, "--out", stem + ".raw.json", "--spans", stem + "-spans.json"],
             env, remaining)
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(f"perfbench: a child process failed with exit code {exc.returncode}\n{exc.stderr}")
        return 1
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded its time limit\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(stem + ".raw.json") as handle:
        raw = json.load(handle)
    os.unlink(stem + ".raw.json")

    e2e, extras, failed = summarise(raw, setup)
    correct = all(op["ok"] or op["known"] for op in raw["ops"])
    _print_report(args.workload, args.seed, raw, e2e, extras, failed, correct)
    if args.trace:
        traced = [p["wall_s"] for p in raw["passes"] if p["traced"]]
        per_layer = imports | raw["per_layer"]
        per_layer["trace.overhead_s"] = statistics.median(traced) - e2e["wall_s"][0]
        metrics = {m["name"]: {"value": per_layer.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in declared["per_layer"]}
        for name, metric in sorted(metrics.items()):
            print(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
        for name, value in raw["aim1"].items():
            print(f"  aim-1 baseline {name:<30} {value:.4g} s")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]} for m in declared["end_to_end"]}

    record = {
        "provenance": _provenance(args, raw["versions"]),
        "correct": correct,
        "attempted": len(raw["ops"]),
        "failed": failed,
        "metrics": metrics,
        "report": extras | {"setup_samples_s": setup, "passes": raw["passes"]},
        "aim1": raw.get("aim1"),
        "ops": raw["ops"],
    }
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"correct": correct, "attempted": len(raw["ops"]), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
