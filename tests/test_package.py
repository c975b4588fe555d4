import importlib
import importlib.util
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


def test_default_config_ships_as_package_data():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    assert "default.cfg" in package_data["cavitybus"]
    assert (Path(cavitybus.__file__).parent / "default.cfg").is_file()


def test_exported_names_resolve():
    for name in cavitybus.__all__:
        assert hasattr(cavitybus, name), name


def test_benchmark_tracer_targets_resolve():
    # The benchmark tracer patches these names with getattr and no
    # default, so a renamed or deleted function breaks traced runs.
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for span_name in list(tracer.KINDS) + ["cli.main"]:
        if span_name == "fitting.model":  # a closure, traced through MODEL_FACTORIES
            continue
        module_name, _, attr = span_name.partition(".")
        module = importlib.import_module(f"cavitybus.{module_name}")
        assert callable(getattr(module, attr, None)), span_name
    fitting = importlib.import_module("cavitybus.fitting")
    for factory in tracer.MODEL_FACTORIES:
        assert callable(getattr(fitting, factory, None)), factory
