"""Output manifest: every CLI output of `tools/compare_outputs.py`'s run
table, written in-process and checked against `output_manifest.json`.

The 14 whole outputs are compared by sha256, after the `# cavitybus
<version>` line and the JSON `meta.version` are replaced by a fixed
placeholder, so a version bump alone does not trip the check.  The three
fit JSONs are compared by their parameter values at `FIT_RTOL` and
`FIT_SE_TOL` below, because their last digits depend on the CPU's SIMD
level.  Every exit code is compared too.

A change that moves an output rewrites the manifest in its own diff
(`PYTHONPATH=src python3 tests/test_output_manifest.py`) and says so in
CHANGES.md.  The test is not skipped on another numpy or CPU: if an
output moves there, it fails and names the output.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

from cavitybus import __version__, acceptance
from cavitybus.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("output_manifest.json")

# The run table of `tools/compare_outputs.py`, so the outputs are listed once.
_spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools/compare_outputs.py")
_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tool)
RUNS, FITS = _tool.RUNS, _tool.FITS

# A fit value may move by FIT_RTOL * |value| + FIT_SE_TOL * its standard
# error.  Source: the fits written with numpy's SIMD dispatch capped
# (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", and with
# X86_V3 added; both moved the same), 2-vCPU Xeon VM, numpy 2.4.6.  The
# branch fit on the 0:90:1 angle grid moved up to 2.7e-6 of an SE
# (1.5e-8 relative).  `fit full` on that clean grid, whose SEs are about
# 1e-10, moved up to 5.9e-15 relative, and its offset, which is near
# zero, moved 2.2e-4 of its SE.  So FIT_RTOL leaves a margin of about
# 170x on the full fit's values, and FIT_SE_TOL one of about 9x on its
# offset and over 700x on the branch fits.
FIT_RTOL = 1e-12
FIT_SE_TOL = 2e-3


def _normalized(data: bytes) -> bytes:
    return (
        data.replace(f"# cavitybus {__version__}\n".encode(), b"# cavitybus <version>\n")
        .replace(f'"version": "{__version__}"'.encode(), b'"version": "<version>"')
    )


def write_outputs(work: Path) -> dict:
    """Run every command of the run table through `cli.main` into
    `work`; returns {output name: exit code}."""
    codes = {}
    for name, args in RUNS + FITS:
        if args is None:
            continue
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            codes[name] = main([a.format(out=work / name, dir=work) for a in args])
        if name.endswith(".stdout"):
            (work / name).write_text(stdout.getvalue())
    return codes


def manifest_of(work: Path) -> dict:
    """Digests of the whole outputs in `work`, and the fits' values."""
    outputs = {
        name: hashlib.sha256(_normalized((work / name).read_bytes())).hexdigest()
        for name, _ in RUNS
    }
    fit_values = {}
    for name, _ in FITS:
        document = json.loads((work / name).read_text())
        fit_values[name] = {k: document[k] for k in ("parameters", "standard_errors")}
    return {"outputs": outputs, "fits": fit_values}


def test_outputs_match_the_manifest(tmp_path, monkeypatch, selftest_results):
    # selftest prints the session's criteria instead of running them again
    monkeypatch.setattr(acceptance, "run_all", lambda config: selftest_results)
    expected = json.loads(MANIFEST.read_text())
    assert write_outputs(tmp_path) == expected["exit_codes"]
    actual = manifest_of(tmp_path)
    assert actual["outputs"].keys() == expected["outputs"].keys()

    moved = [
        name for name, digest in expected["outputs"].items()
        if actual["outputs"][name] != digest
    ]
    for name, fit in expected["fits"].items():
        for key, value in fit["parameters"].items():
            got = actual["fits"][name]["parameters"][key]
            tol = FIT_RTOL * abs(value) + FIT_SE_TOL * fit["standard_errors"][key]
            if not abs(got - value) <= tol:
                moved.append(f"{name} {key}: {got!r} vs {value!r} (tolerance {tol:.2e})")
    assert not moved, "outputs moved: " + "; ".join(moved)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        manifest = {"exit_codes": write_outputs(Path(work)), **manifest_of(Path(work))}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {MANIFEST}")
