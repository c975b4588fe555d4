"""List the lines of the package that no run of the program reaches.

    python3 tools/traffic_trace.py

Imports cavitybus from this checkout's `src` and, under a `sys.settrace`
line tracer, runs:

- every CLI command through `cavitybus.cli.main`: the run table of
  `compare_outputs.py`, plus the fit runs it leaves out, so that each fit
  mode runs on an angle grid and on a field grid; `selftest` is in the
  table;
- one `prepare` and one `run_pass` of the benchmark's `FitMC` and
  `FitGrid` workloads, imported from `perfbench/` (seed 1).

It then prints each executable line of `src/cavitybus` that none of them
reached, as `path:line: source`, and the count per module.  A line that
only the tests reach shows up here; so do input checks, error and
fallback paths, and entry points that the runs above do not use.
Commands write into a temporary directory, which is removed at the end.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cavitybus"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from compare_outputs import FITS, RUNS  # noqa: E402

# The fit runs the run table leaves out: lorentzian on the angle grid,
# and full and lorentzian on the field grid.
EXTRA_FITS = [
    ("fit-row-angle.json", ["fit", "lorentzian", "--in", "{dir}/sweep-angle-coarse.csv",
                            "--row", "45", "--out", "{out}"]),
    ("fit-full-field.json", ["fit", "full", "--in", "{dir}/sweep-field.csv", "--out", "{out}"]),
    ("fit-row-field.json", ["fit", "lorentzian", "--in", "{dir}/sweep-field.csv",
                            "--row", "15", "--out", "{out}"]),
]


def executable_lines(path: Path) -> set:
    """Line numbers that carry bytecode in the module at `path`."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced(run) -> set:
    """(file, line) pairs of the package that `run()` reaches."""
    prefix = str(PACKAGE)
    reached = set()

    def local(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        return local(frame, event, arg)

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return reached


def run_everything(work: Path) -> None:
    from cavitybus.cli import main
    from workloads import FitGrid, FitMC

    for name, args in RUNS + FITS + EXTRA_FITS:
        if args is None:
            continue
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([a.format(out=work / name, dir=work) for a in args])
        print(f"exit {code}: cavitybus {' '.join(args[:2])} ({name})", file=sys.stderr)
    for workload in (FitMC, FitGrid):
        bench = workload(1, str(work))
        bench.prepare()
        with contextlib.redirect_stdout(io.StringIO()):
            ops = bench.run_pass()
        print(f"{workload.__name__}: {len(ops)} operations", file=sys.stderr)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="traffic-") as work:
        reached = traced(lambda: run_everything(Path(work)))
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        missed = sorted(n for n in executable_lines(path) if (str(path), n) not in reached)
        total += len(missed)
        for n in missed:
            print(f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}")
        print(f"# {path.name}: {len(missed)} lines not reached")
    print(f"# {total} lines not reached in all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
