"""Write the CLI outputs of two checkouts and compare them byte for byte.

    python3 tools/compare_outputs.py <checkout-a> <checkout-b> [<work-dir>]

Each checkout's CLI runs in a fresh interpreter with its own `src` on
PYTHONPATH and writes into `<work-dir>/a` or `<work-dir>/b` (a new
temporary directory when omitted).  The script prints one line per
output, `same` or `DIFFERS`, with its sha256, and exits 1 if any output
differs in more than the expected way.

Fourteen outputs are compared whole: the calibrated config and the
`calibrate` stdout, three `transitions` tables, three grids from the
sweep commands, one `spectrum` row, the `dispersive` signal with its
report as a file and, for a given pump range, on stdout, and the
`selftest` stdout and exit code.  The three fit JSONs (`fit full` and
`fit avoided-crossing` on the 0:90:1 angle grid, `fit avoided-crossing`
on the field grid) name their input file in `provenance.input`, which
is a different path per checkout; they are compared without that one
entry, and a difference there alone is expected.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# (output name, CLI arguments); {out} is the output path, {dir} the
# run's directory.  An output named *.stdout is the command's stdout.
RUNS = [
    ("calibrate.cfg", ["calibrate", "--out", "{out}"]),
    ("calibrate.stdout", ["calibrate", "--out", "{dir}/calibrate-again.cfg"]),
    ("transitions.csv", ["transitions", "--out", "{out}"]),
    ("transitions-mag.csv", ["transitions", "--b-mags", "0:12:0.02", "--angle", "79",
                             "--out", "{out}"]),
    ("transitions-fine.csv", ["transitions", "--angles", "0:90:0.01", "--out", "{out}"]),
    ("sweep-angle.csv", ["sweep-angle", "--out", "{out}"]),
    ("sweep-angle-coarse.csv", ["sweep-angle", "--angles", "0:90:1", "--probe",
                                "2720:2780:0.25", "--out", "{out}"]),
    ("sweep-field.csv", ["sweep-field", "--angle", "79", "--b-mags", "7:8.5:0.05",
                         "--out", "{out}"]),
    ("spectrum.csv", ["spectrum", "--angle", "48.1", "--out", "{out}"]),
    ("dispersive.csv", ["dispersive", "--angle", "23", "--out", "{out}",
                        "--report", "{dir}/dispersive-report.json"]),
    ("dispersive-report.json", None),  # written by the run above
    ("dispersive-pump.csv", ["dispersive", "--angle", "23", "--pump", "2700:2760:0.01",
                             "--out", "{out}"]),
    ("dispersive-pump.stdout", ["dispersive", "--angle", "23", "--pump", "2700:2760:0.01",
                                "--out", "{dir}/dispersive-pump-again.csv"]),
    ("selftest.stdout", ["selftest"]),
]
FITS = [
    ("fit-full.json", ["fit", "full", "--in", "{dir}/sweep-angle-coarse.csv", "--out", "{out}"]),
    ("fit-crossing-angle.json", ["fit", "avoided-crossing", "--in",
                                 "{dir}/sweep-angle-coarse.csv", "--out", "{out}"]),
    ("fit-crossing-field.json", ["fit", "avoided-crossing", "--in", "{dir}/sweep-field.csv",
                                 "--out", "{out}"]),
]


def run_cli(checkout: Path, work: Path) -> dict:
    """Run every command with `checkout`'s CLI; returns {name: exit code}."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
    codes = {}
    for name, args in RUNS + FITS:
        if args is None:
            continue
        out = work / name
        argv = [a.format(out=out, dir=work) for a in args]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from cavitybus.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            env=env, capture_output=True,
        )
        if name.endswith(".stdout"):
            out.write_bytes(proc.stdout)
        codes[name] = proc.returncode
    return codes


def without_input(path: Path) -> bytes:
    document = json.loads(path.read_bytes())
    document.get("provenance", {}).pop("input", None)
    return json.dumps(document, sort_keys=True).encode()


def main(argv):
    a, b = (Path(p).resolve() for p in argv[:2])
    work = Path(argv[2]) if len(argv) > 2 else Path(tempfile.mkdtemp(prefix="compare-"))
    dirs = {side: work / side for side in ("a", "b")}
    for d in dirs.values():
        d.mkdir(parents=True, exist_ok=True)
    codes = {side: run_cli(checkout, dirs[side]) for side, checkout in (("a", a), ("b", b))}
    bad = 0
    for name, _ in RUNS + FITS:
        pa, pb = dirs["a"] / name, dirs["b"] / name
        digest = hashlib.sha256(pa.read_bytes()).hexdigest()[:16] if pa.exists() else "missing"
        same = pa.exists() and pb.exists() and pa.read_bytes() == pb.read_bytes()
        note = ""
        if not same and name.startswith("fit-") and pa.exists() and pb.exists():
            same = without_input(pa) == without_input(pb)
            note = " (provenance.input differs, as expected)" if same else ""
        if codes["a"].get(name) != codes["b"].get(name):
            same, note = False, f" (exit {codes['a'][name]} vs {codes['b'][name]})"
        bad += not same
        print(f"{'same   ' if same else 'DIFFERS'} {digest} {name}{note}")
    print(f"{len(RUNS) + len(FITS) - bad} of {len(RUNS) + len(FITS)} outputs match; work dir {work}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
