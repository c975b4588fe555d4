import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavitybus

ROOT = Path(__file__).resolve().parents[1]


def test_pyproject_version_matches_package():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == cavitybus.__version__


def _modules_after(probe, package):
    """Names of the `package` modules loaded once `probe` has run in a
    fresh interpreter that imports cavitybus from this checkout."""
    env = dict(os.environ)
    src = str(Path(cavitybus.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    probe += (
        "\nimport sys"
        f"\nprint(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == {package!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()[-1].split()


def test_cli_import_leaves_out_scipy_signal_and_stats():
    # The package runs on numpy alone; scipy is a test-only reference.
    assert _modules_after("import sys, cavitybus.cli", "scipy") == []


def test_no_command_loads_scipy(tmp_path):
    # Every command runs on numpy alone.  selftest is left out for time:
    # its peak searches go through the fits below and `peak_positions`,
    # which criterion 5's pump-peak count runs here.
    out = tmp_path.as_posix()
    commands = [
        ["calibrate", "--out", f"{out}/cal.cfg"],
        ["transitions", "--angles", "0:90:5", "--out", f"{out}/levels.csv"],
        ["spectrum", "--angle", "48.1", "--out", f"{out}/row.csv"],
        ["sweep-field", "--angle", "79", "--b-mags", "7:8.4:0.1", "--out", f"{out}/field.csv"],
        ["dispersive", "--angle", "23", "--out", f"{out}/pump.csv",
         "--report", f"{out}/modes.json"],
        ["sweep-angle", "--angles", "0:90:1", "--probe", "2720:2780:0.25",
         "--out", f"{out}/grid.csv"],
        ["fit", "full", "--in", f"{out}/grid.csv", "--out", f"{out}/full.json"],
        ["fit", "avoided-crossing", "--in", f"{out}/grid.csv", "--out", f"{out}/branch.json"],
        ["fit", "lorentzian", "--in", f"{out}/grid.csv", "--row", "0", "--out", f"{out}/row.json"],
    ]
    probe = (
        "import sys\n"
        "from cavitybus.acceptance import _count_pump_peaks\n"
        "from cavitybus.cli import main\n"
        "from cavitybus.config import default_config\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "assert _count_pump_peaks(default_config(), 23.0, (1, -1)) == 2\n"
    )
    assert _modules_after(probe, "scipy") == []


# Start-up: every CLI call is a fresh interpreter, and each module it
# imports is compiled anew when bytecode writing is off.
_COMMAND_MODULES = {f"cavitybus.{m}" for m in ("fitting", "dispersive", "calibrate", "acceptance")}


def test_cli_start_up_loads_only_what_config_needs():
    probe = "import cavitybus.cli\nfrom cavitybus.config import default_config\ndefault_config()"
    assert _modules_after(probe, "cavitybus") == [
        "cavitybus",
        "cavitybus.cli",
        "cavitybus.config",
        "cavitybus.coupled",
        "cavitybus.errors",
        "cavitybus.spin",
    ]


def test_transitions_loads_no_fit_dispersive_or_calibration_module(tmp_path):
    probe = (
        "from cavitybus.cli import main\n"
        f"assert main(['transitions', '--angles', '0:90:5', '--out', {str(tmp_path / 'l.csv')!r}]) == 0"
    )
    assert not set(_modules_after(probe, "cavitybus")) & _COMMAND_MODULES


def test_fit_lorentzian_loads_no_dispersive_or_calibration_module(tmp_path):
    from cavitybus.cli import main

    grid, fit = str(tmp_path / "grid.csv"), str(tmp_path / "fit.json")
    assert main(["sweep-angle", "--angles", "40:50:5", "--probe", "2720:2780:0.5",
                 "--out", grid]) == 0
    probe = (
        "from cavitybus.cli import main\n"
        f"assert main(['fit', 'lorentzian', '--in', {grid!r}, '--out', {fit!r}]) == 0"
    )
    loaded = set(_modules_after(probe, "cavitybus"))
    assert "cavitybus.fitting" in loaded
    assert not loaded & _COMMAND_MODULES - {"cavitybus.fitting"}


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]
    # the tests keep scipy as an independent reference
    test_extra = project["optional-dependencies"]["test"]
    assert [dep for dep in test_extra if re.match(r"scipy\b", dep)]


def test_default_config_ships_as_package_data():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    assert "default.cfg" in package_data["cavitybus"]
    assert (Path(cavitybus.__file__).parent / "default.cfg").is_file()


def test_library_defaults_repeat_the_shipped_ones(config):
    # Keyword defaults that repeat a default.cfg value or a CLI default;
    # a change to one copy alone fails here.
    from cavitybus import cli, dispersive, fitting, transmission
    from cavitybus.calibrate import calibrate_geometry

    assert transmission.DEFAULT_PROMINENCE == config.get("fit.peak_prominence")
    assert fitting.MAX_ITERATIONS == config.get("fit.max_iterations")
    assert dispersive.DEFAULT_FLOOR == config.get("dispersive.floor_mhz")
    scan_step = inspect.signature(calibrate_geometry).parameters["scan_step"].default
    assert scan_step == cli._build_parser().parse_args(["calibrate", "--out", "x"]).scan_step


def test_exported_names_resolve():
    # Every module's __all__, so a deleted function cannot leave a
    # dangling export behind.
    modules = ["cavitybus"] + [
        f"cavitybus.{info.name}" for info in pkgutil.iter_modules(cavitybus.__path__)
    ]
    assert len(modules) > 10
    for module_name in modules:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.{name}"


def _module_tree(name):
    path = Path(cavitybus.__file__).with_name(f"{name}.py")
    return ast.parse(path.read_text(encoding="utf-8"))


def _imported_names(module):
    """Module and alias names the package module's source imports."""
    imported = set()
    for node in ast.walk(_module_tree(module)):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rpartition(".")[2])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
    return imported


def test_config_imports_no_model_module():
    # default values live in default.cfg, so config needs no model constants
    assert not _imported_names("config") & {"dispersive", "fitting", "transmission"}


def test_gridio_imports_no_dispersive_or_fitting():
    # a pump-probe trace is two arrays, and a fit result is written via asdict
    assert not _imported_names("gridio") & {"dispersive", "fitting"}


def test_dispersive_imports_at_module_level():
    functions = [
        node for node in ast.walk(_module_tree("dispersive"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    local = [
        node.lineno for function in functions for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert local == []


def _benchmark_tracer():
    """perfbench/tracer.py, loaded read-only as a module."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_targets_resolve():
    # The benchmark tracer patches these names with getattr and no
    # default, so a renamed or deleted function breaks traced runs.
    tracer = _benchmark_tracer()
    for span_name in list(tracer.KINDS) + ["cli.main"]:
        if span_name == "fitting.model":  # a closure, traced through MODEL_FACTORIES
            continue
        module_name, _, attr = span_name.partition(".")
        module = importlib.import_module(f"cavitybus.{module_name}")
        assert callable(getattr(module, attr, None)), span_name
    fitting = importlib.import_module("cavitybus.fitting")
    for factory in tracer.MODEL_FACTORIES:
        assert callable(getattr(fitting, factory, None)), factory


def test_package_names_resolve_on_use_and_stay_live():
    # A fresh interpreter, where no public name has been read yet: the
    # model submodules resolve after a bare `import cavitybus`, and a
    # name first read while the benchmark tracer is installed (loaded
    # as _benchmark_tracer does) is the unwrapped function again once
    # the tracer is uninstalled.
    submodules = ("coupled", "dispersive", "fitting", "spin", "transmission")
    tracer_path = str(ROOT / "perfbench" / "tracer.py")
    probe = (
        "import importlib.util, types, cavitybus\n"
        f"for name in {list(submodules)!r}:\n"
        "    assert isinstance(getattr(cavitybus, name), types.ModuleType), name\n"
        f"spec = importlib.util.spec_from_file_location('tracer', {tracer_path!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "tracer = tracer.Tracer()\n"
        "tracer.install()\n"
        "try:\n"
        "    traced = cavitybus.fit_full_transmission\n"
        "finally:\n"
        "    tracer.uninstall()\n"
        "original = cavitybus.fitting.fit_full_transmission\n"
        "assert traced is not original\n"
        "assert cavitybus.fit_full_transmission is original\n"
    )
    assert {f"cavitybus.{m}" for m in submodules} <= set(_modules_after(probe, "cavitybus"))
    for name in cavitybus.__all__:
        if name != "__version__":
            home = importlib.import_module(getattr(cavitybus, name).__module__)
            assert getattr(cavitybus, name) is getattr(home, name), name
    namespace = {}
    exec("from cavitybus import *", namespace)
    assert set(cavitybus.__all__) <= set(namespace)
    assert set(cavitybus.__all__) <= set(dir(cavitybus))
    with pytest.raises(AttributeError):
        cavitybus.no_such_name


def test_benchmark_workload_calls_into_the_package_resolve():
    # perfbench/workloads.py imports six cavitybus modules under aliases;
    # every attribute chain it reads on one of them (such as
    # fitting.SpinTuning.from_ensemble) must exist.
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    aliases = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name.startswith("cavitybus.")
    }
    assert len(aliases) == 6
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in aliases:
            chains.add((node.id, *reversed(parts)))
    assert {("fitting", "SpinTuning", "from_ensemble"), ("config_mod", "range_values")} <= chains
    for alias, *attrs in sorted(chains):
        target = importlib.import_module(aliases[alias])
        for attr in attrs:
            assert hasattr(target, attr), ".".join([alias, *attrs])
            target = getattr(target, attr)


def _workload_target(node, aliases):
    """The package object that the attribute chain `node` of
    perfbench/workloads.py names, or None unless it starts at one of
    the `aliases` of a cavitybus module."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not (parts and isinstance(node, ast.Name) and node.id in aliases):
        return None
    target = importlib.import_module(aliases[node.id])
    for attr in reversed(parts):
        target = getattr(target, attr)
    return target


def test_benchmark_workload_calls_bind_to_their_targets():
    # Every call perfbench/workloads.py makes into the package, directly
    # or through _call(name, fn, *args, **kwargs), binds to its target's
    # signature by its positional count and keyword names, so a new
    # required parameter or a dropped keyword fails here.
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    aliases = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name.startswith("cavitybus.")
    }
    bound = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args, routed = node.func, node.args, False
        if isinstance(func, ast.Name) and func.id == "_call":
            func, args, routed = args[1], args[2:], True
        target = _workload_target(func, aliases)
        if target is None:
            continue
        label = f"line {node.lineno}: {ast.unparse(func)}"
        assert not any(isinstance(a, ast.Starred) for a in args), label
        assert all(k.arg for k in node.keywords), label
        try:
            inspect.signature(target).bind(*args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            pytest.fail(f"{label}: {exc}")
        bound.add((ast.unparse(func), routed))
    assert {
        ("transmission.sweep", False),
        ("fitting.fit_full_transmission", False),
        ("fitting.fit_full_transmission", True),
        ("fitting.fit_avoided_crossing", True),
        ("cli.main", False),
    } <= bound


def test_benchmark_tracer_reads_every_model_call_of_both_grid_fits():
    # The tracer unpacks each model call's result as two arrays and adds
    # their sizes, so both call forms must return (values, array).  The
    # solver's form carries the 8x8 Gram matrix, not a Jacobian.
    from cavitybus import fitting
    from cavitybus.config import default_config
    from cavitybus.spin import FieldSetting
    from cavitybus.transmission import sweep

    config = default_config()
    cavity = config.cavity()
    ensembles = [config.ensemble("i"), config.ensemble("ii")]
    magnitude = config.get("field.magnitude_mt")
    angles = np.arange(10.0, 90.0 + 1e-9, 2.0)
    probe = np.arange(cavity.center - 30.0, cavity.center + 30.0 + 1e-9, 0.5)
    grid = sweep(cavity, ensembles, [FieldSetting(magnitude, a) for a in angles], probe, "angle")
    tun_i, tun_ii = (fitting.SpinTuning.from_ensemble(e, "angle", magnitude) for e in ensembles)

    tracer = _benchmark_tracer().Tracer()
    tracer.install()
    try:
        fitting.fit_full_transmission(grid, tun_i, tun_ii)
        fitting.fit_avoided_crossing(grid, tun_i, tun_ii)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["fitting.model_evals"] > 0
    assert metrics["fitting.fits"] >= 2
    assert metrics["fitting.branches_s"] > 0
    assert 0 < metrics["fitting.model_bytes"] < 2 * grid.amplitudes.size * 8
