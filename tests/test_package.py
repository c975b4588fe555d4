import os
import subprocess
import sys
from pathlib import Path

import pytest

import cavitybus

ROOT = Path(__file__).resolve().parents[1]


def test_pyproject_version_matches_package():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == cavitybus.__version__


def test_cli_import_leaves_out_scipy_signal_and_stats():
    # scipy.signal drags in scipy.stats; peak finding imports it on first
    # use so that every CLI call does not pay for it.  (scipy.constants is
    # not checked: scipy.optimize, which the package needs for brentq,
    # imports it itself through scipy.spatial.)
    env = dict(os.environ)
    src = str(Path(cavitybus.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    probe = (
        "import sys, cavitybus.cli\n"
        "print(' '.join(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""
