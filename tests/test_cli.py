import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavitybus
from cavitybus import __version__
from cavitybus.cli import main
from cavitybus.gridio import read_grid, write_grid
from cavitybus.transmission import SpectrumGrid

# the default config shipped as package data
DEFAULT_CFG = Path(cavitybus.__file__).with_name("default.cfg")
DEFAULT_TEXT = DEFAULT_CFG.read_text(encoding="utf-8")


@pytest.fixture()
def default_cfg():
    return DEFAULT_CFG


def read_table_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return np.array([[float(c) for c in ln.split(",")] for ln in lines])


# ---------------------------------------------------------------------------
# exit codes

def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 64
    assert "usage error" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    assert main([]) == 64


def test_unreadable_config_is_validation_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["transitions", "--config", str(tmp_path / "nope.cfg"), "--out", str(out)])
    assert code == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_verbose_flag_holds_for_each_call_in_one_interpreter(tmp_path):
    # A fresh interpreter, because pytest's log handlers would make the
    # CLI's logging.basicConfig a no-op here.
    script = (
        "import sys\n"
        "from cavitybus.cli import main\n"
        "for flags in ([], ['-v'], []):\n"
        "    print('--', file=sys.stderr, flush=True)\n"
        "    main(flags + ['transitions', '--angles', '0:2:1', '--out', sys.argv[1]])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(cavitybus.__file__).resolve().parents[1])
    err = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "levels.csv")],
        env=env, capture_output=True, text=True, check=True,
    ).stderr
    quiet, verbose, quiet_again = err.split("--\n")[1:]
    assert quiet == quiet_again == ""
    assert "INFO cavitybus.cli: wrote " in verbose


# ---------------------------------------------------------------------------
# tables and grids

def test_transitions_zero_field_constant_columns(default_cfg, tmp_path):
    out = tmp_path / "transitions.csv"
    code = main(
        [
            "transitions",
            "--config",
            str(default_cfg),
            "--b-mag",
            "0",
            "--angles",
            "0:90:5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_table_rows(out)
    np.testing.assert_allclose(rows[:, 1], 2857.0, atol=1e-9)
    np.testing.assert_allclose(rows[:, 2], 2883.0, atol=1e-9)
    np.testing.assert_allclose(rows[:, 3], 2857.0, atol=1e-9)
    np.testing.assert_allclose(rows[:, 4], 2883.0, atol=1e-9)


def test_transitions_magnitude_sweep(default_cfg, tmp_path):
    out = tmp_path / "mag.csv"
    code = main(
        [
            "transitions",
            "--config",
            str(default_cfg),
            "--angle",
            "79",
            "--b-mags",
            "0:8:0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_table_rows(out)
    # ensemble I tunes monotonically down toward the cavity at 79 deg
    assert np.all(np.diff(rows[:, 1]) < 0)


def test_sweep_angle_grid_and_determinism(default_cfg, tmp_path):
    args = [
        "sweep-angle",
        "--config",
        str(default_cfg),
        "--angles",
        "20:26:0.5",
        "--probe",
        "2744:2754:0.1",
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    grid, meta = read_grid(out_a)
    assert grid.sweep_kind == "angle"
    assert grid.sweep_values.size == 13
    assert meta.extra["fixed_magnitude_mt"]


def test_sweep_field_grid(default_cfg, tmp_path):
    out = tmp_path / "field.csv"
    code = main(
        [
            "sweep-field",
            "--config",
            str(default_cfg),
            "--angle",
            "79",
            "--b-mags",
            "7:8.4:0.05",
            "--probe",
            "2734:2764:0.1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    grid, meta = read_grid(out)
    assert grid.sweep_kind == "magnitude"
    assert meta.extra["fixed_angle_deg"] == "79"


@pytest.mark.parametrize(
    "argv",
    [
        ["transitions", "--b-mag", "150", "--angles", "40:40:1"],
        ["spectrum", "--angle", "40", "--b-mag", "150"],
    ],
)
def test_field_outside_the_spin_model_range_exits_2(default_cfg, tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    code = main(argv + ["--config", str(default_cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "150 mT at 40 deg" in err and "m_s=0 level is not the lowest" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# fits

def test_fit_avoided_crossing_roundtrip(tmp_path):
    # quiet second ensemble so the grid holds a single clean crossing
    cfg = tmp_path / "single.cfg"
    cfg.write_text(
        DEFAULT_TEXT.replace(
            "ensemble_ii.coupling_mhz = 5.6", "ensemble_ii.coupling_mhz = 0.001"
        ),
        encoding="utf-8",
    )
    grid_path = tmp_path / "grid.csv"
    assert (
        main(
            [
                "sweep-angle",
                "--config",
                str(cfg),
                "--angles",
                "71:87:0.25",
                "--probe",
                "2729:2769:0.1",
                "--out",
                str(grid_path),
            ]
        )
        == 0
    )
    fit_path = tmp_path / "fit.json"
    code = main(
        [
            "fit",
            "avoided-crossing",
            "--config",
            str(cfg),
            "--in",
            str(grid_path),
            "--out",
            str(fit_path),
        ]
    )
    assert code == 0
    payload = json.loads(fit_path.read_text())
    assert payload["converged"] is True
    assert abs(payload["parameters"]["g"] - 7.5) / 7.5 < 0.02


def test_fit_rejects_version_mismatch(default_cfg, tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    assert (
        main(
            [
                "spectrum",
                "--config",
                str(default_cfg),
                "--angle",
                "10",
                "--probe",
                "2744:2754:0.02",
                "--out",
                str(grid_path),
            ]
        )
        == 0
    )
    text = grid_path.read_text().replace(f"# cavitybus {__version__}", "# cavitybus 0.0.9")
    grid_path.write_text(text)
    fit_path = tmp_path / "fit.json"
    args = [
        "fit",
        "lorentzian",
        "--config",
        str(default_cfg),
        "--in",
        str(grid_path),
        "--out",
        str(fit_path),
    ]
    assert main(args) == 2
    assert "--force" in capsys.readouterr().err
    assert main(args + ["--force"]) == 0
    payload = json.loads(fit_path.read_text())
    assert payload["converged"] is True
    assert 2745.0 < payload["parameters"]["center"] < 2752.0


@pytest.fixture(scope="module")
def two_crossing_grid(tmp_path_factory):
    """A clean 91 x 241 sweep-angle grid over both ensembles' crossings."""
    path = tmp_path_factory.mktemp("two-crossing") / "grid.csv"
    argv = ["sweep-angle", "--angles", "0:90:1", "--probe", "2720:2780:0.25"]
    assert main(argv + ["--config", str(DEFAULT_CFG), "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("ensemble, g, g_other", [("i", 7.5, 5.6), ("ii", 5.6, 7.5)])
def test_fit_avoided_crossing_fits_either_ensemble_of_two(
    two_crossing_grid, tmp_path, ensemble, g, g_other
):
    fit_path = tmp_path / "fit.json"
    code = main(["fit", "avoided-crossing", "--ensemble", ensemble, "--config", str(DEFAULT_CFG),
                 "--in", str(two_crossing_grid), "--out", str(fit_path)])
    assert code == 0
    payload = json.loads(fit_path.read_text())
    assert payload["converged"] is True
    assert payload["parameters"]["g"] == pytest.approx(g, rel=0.02)
    assert payload["parameters"]["g_other"] == pytest.approx(g_other, rel=0.02)


def test_fit_full_out_of_iterations_exits_3(two_crossing_grid, tmp_path, capsys):
    # Half the clean grid's |S21|, as a cavity with kappa_ext = kappa/2
    # transmits.  The branch fit that seeds the full fit converges in 6
    # iterations; the full fit, which ties kappa_ext to kappa, needs 13.
    grid, meta = read_grid(two_crossing_grid)
    half = SpectrumGrid(grid.probe_frequencies, grid.sweep_values, 0.5 * grid.amplitudes, "angle")
    grid_path = tmp_path / "half.csv"
    write_grid(grid_path, half, meta.config_hash, meta.extra)
    config = _edited_config("fit.max_iterations", "9")(tmp_path)
    fit_path = tmp_path / "fit.json"
    capsys.readouterr()
    code = main(["fit", "full", *config, "--in", str(grid_path), "--out", str(fit_path)])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    payload = json.loads(fit_path.read_text())
    assert payload["converged"] is False
    assert payload["standard_errors"] is None


def test_fit_full_seed_uses_the_iteration_budget(two_crossing_grid, tmp_path, capsys):
    config = _edited_config("fit.max_iterations", "1")(tmp_path)
    fit_path = tmp_path / "fit.json"
    capsys.readouterr()
    code = main(["fit", "full", *config, "--in", str(two_crossing_grid), "--out", str(fit_path)])
    assert code == 3
    assert "the branch fit that seeds the full fit did not converge" in capsys.readouterr().err
    assert not fit_path.exists()


def test_fit_full_seed_uses_the_peak_prominence(two_crossing_grid, tmp_path, capsys):
    config = _edited_config("fit.peak_prominence", "1.0")(tmp_path)
    fit_path = tmp_path / "fit.json"
    capsys.readouterr()
    code = main(["fit", "full", *config, "--in", str(two_crossing_grid), "--out", str(fit_path)])
    assert code == 3
    assert "insufficient branch coverage" in capsys.readouterr().err
    assert not fit_path.exists()


EMPTY_GRIDS = {
    "no-rows": SpectrumGrid(np.linspace(2740.0, 2760.0, 11), np.array([]), np.zeros((0, 11)),
                            "angle"),
    "no-columns": SpectrumGrid(np.array([]), np.array([20.0, 21.0, 22.0]), np.zeros((3, 0)),
                               "angle"),
}


@pytest.mark.parametrize("shape", EMPTY_GRIDS)
@pytest.mark.parametrize("mode", ["full", "avoided-crossing"])
def test_fit_on_an_empty_grid_exits_3_with_one_line(tmp_path, capsys, mode, shape):
    grid_path = tmp_path / "grid.csv"
    write_grid(grid_path, EMPTY_GRIDS[shape], extra={"fixed_magnitude_mt": "7.69336558"})
    out = tmp_path / "fit.json"
    code = main(["fit", mode, "--config", str(DEFAULT_CFG), "--in", str(grid_path),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert "empty grid" in err and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# dispersive

def test_dispersive_report_and_signal(default_cfg, tmp_path):
    out = tmp_path / "signal.csv"
    report = tmp_path / "report.json"
    code = main(
        [
            "dispersive",
            "--config",
            str(default_cfg),
            "--angle",
            "23",
            "--out",
            str(out),
            "--report",
            str(report),
        ]
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["bright"]["drive_weight"] > payload["dark"]["drive_weight"]
    assert payload["detuning_i_mhz"] >= 12.0
    assert payload["detuning_ii_mhz"] >= 12.0
    rows = read_table_rows(out)
    assert np.min(rows[:, 1]) < 0  # depolarization reduces the pull


def test_dispersive_without_report_writes_it_to_stdout(default_cfg, tmp_path, capsys):
    argv = ["dispersive", "--config", str(default_cfg), "--angle", "23"]
    report = tmp_path / "report.json"
    assert main(argv + ["--out", str(tmp_path / "a.csv"), "--report", str(report)]) == 0
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "b.csv")]) == 0
    assert capsys.readouterr().out == report.read_text()


def test_dispersive_weighs_each_mode_once(tmp_path, monkeypatch):
    from cavitybus import dispersive

    calls = []
    weigh = dispersive.drive_weights
    monkeypatch.setattr(dispersive, "drive_weights", lambda *a: calls.append(a) or weigh(*a))
    argv = ["dispersive", "--angle", "23", "--out", str(tmp_path / "signal.csv"),
            "--report", str(tmp_path / "report.json")]
    assert main(argv) == 0
    # two modes, diagonalized once for the report and once for the signal
    assert len(calls) == 4


def test_dispersive_floor_violation_exits_2(default_cfg, tmp_path, capsys):
    out = tmp_path / "signal.csv"
    code = main(
        [
            "dispersive",
            "--config",
            str(default_cfg),
            "--angle",
            "23",
            "--b-mag",
            "7.69336558",
            "--out",
            str(out),
        ]
    )
    assert code == 2
    assert "dispersive floor" in capsys.readouterr().err


def test_dispersive_without_floor_runs_below_it(tmp_path, capsys):
    # 20 deg at the dispersive magnitude puts ensemble II 6.1 MHz from
    # the cavity, below the 12 MHz floor
    out = tmp_path / "signal.csv"
    report = tmp_path / "report.json"
    argv = ["dispersive", "--angle", "20", "--pump", "2700:2760:0.1", "--out", str(out)]
    argv += ["--report", str(report)]
    assert main(argv) == 2
    assert "ensemble II detuning +6.077 MHz" in capsys.readouterr().err
    edited = _edited_config("dispersive.floor_mhz", "0")(tmp_path)
    assert main(argv + edited) == 0
    payload = json.loads(report.read_text())
    assert payload["detuning_ii_mhz"] == pytest.approx(6.077, abs=1e-3)
    rows = read_table_rows(out)
    assert rows.shape == (601, 2) and np.all(np.isfinite(rows))


# ---------------------------------------------------------------------------
# calibrate

def test_calibrate_reproduces_shipped_defaults(default_cfg, tmp_path, capsys):
    out = tmp_path / "calibrated.cfg"
    code = main(["calibrate", "--config", str(default_cfg), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "degeneracy: angle=51" in stdout
    from cavitybus.config import load_config

    calibrated = load_config(out)
    assert calibrated.get("ensemble_i.azimuth_deg") == pytest.approx(173.9, abs=1e-4)
    assert calibrated.get("ensemble_ii.azimuth_deg") == pytest.approx(198.1, abs=1e-4)
    assert calibrated.get("field.magnitude_mt") == pytest.approx(7.69336558, abs=1e-6)
    assert calibrated.get("field.dispersive_magnitude_mt") == pytest.approx(
        8.74222984, abs=1e-6
    )


def test_calibrate_smallest_scan_step_reproduces_shipped_defaults(default_cfg, tmp_path, capsys):
    # At the smallest accepted step the shipped azimuth 173.9 deg is a
    # scan node, so the root sits exactly on the scan grid.
    out = tmp_path / "calibrated.cfg"
    code = main(
        ["calibrate", "--config", str(default_cfg), "--scan-step", "0.001", "--out", str(out)]
    )
    assert code == 0
    assert "degeneracy: angle=51" in capsys.readouterr().out
    from cavitybus.config import load_config

    calibrated = load_config(out)
    assert calibrated.get("ensemble_i.azimuth_deg") == 173.9
    assert calibrated.get("ensemble_ii.azimuth_deg") == pytest.approx(198.1, abs=1e-9)
    assert calibrated.get("field.magnitude_mt") == pytest.approx(7.69336558, abs=1e-6)


def test_calibrate_unreachable_target_exits_3(tmp_path, capsys):
    # cavity placed above the zero-field transition: no field magnitude
    # can bring the lower transition up to it
    cfg = tmp_path / "broken.cfg"
    cfg.write_text(
        DEFAULT_TEXT.replace(
            "cavity.center_mhz = 2749.1", "cavity.center_mhz = 2980.0"
        ),
        encoding="utf-8",
    )
    out = tmp_path / "calibrated.cfg"
    code = main(["calibrate", "--config", str(cfg), "--out", str(out)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["transitions", "--b-mag", "1e160", "--angles", "0:0:1"],
        ["spectrum", "--angle", "0", "--b-mag", "1e160"],
        ["sweep-field", "--angle", "0", "--b-mags", "0:1e160:1e160"],
        ["dispersive", "--angle", "23", "--b-mag", "1e308"],
    ],
)
def test_fields_too_large_to_square_exit_2(default_cfg, tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    code = main([*argv, "--config", str(default_cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "outside the spin model's range: the angle must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf", "1e-9", "90.5"])
def test_calibrate_bad_scan_step_exits_2(default_cfg, tmp_path, capsys, step):
    out = tmp_path / "calibrated.cfg"
    code = main(
        ["calibrate", "--config", str(default_cfg), "--scan-step", step, "--out", str(out)]
    )
    assert code == 2
    assert "scan step must be finite and between 0.001 and 90 deg" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "angles, message",
    [
        ("0:90:nan", "must be finite"),
        ("0:inf:1", "must be finite"),
        ("nan:90:1", "must be finite"),
        ("0:1e9:1e-9", "more than 1000000 points"),
    ],
)
def test_transitions_bad_range_exits_2(default_cfg, tmp_path, capsys, angles, message):
    out = tmp_path / "transitions.csv"
    code = main(
        ["transitions", "--config", str(default_cfg), "--angles", angles, "--out", str(out)]
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("probe", ["2720:2780:nan", "2720:2780:1e-9"])
def test_config_file_bad_range_exits_2(default_cfg, tmp_path, capsys, probe):
    shipped = "sweep.probe_mhz = 2720:2780:0.05"
    text = default_cfg.read_text()
    assert shipped in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(shipped, f"sweep.probe_mhz = {probe}"), encoding="utf-8")
    out = tmp_path / "grid.csv"
    code = main(["sweep-angle", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "sweep.probe_mhz" in capsys.readouterr().err
    assert not out.exists()


def _edited_config(key, value):
    """Setup: the default config with one key's value replaced."""

    def setup(tmp_path):
        text, count = re.subn(
            rf"(?m)^{re.escape(key)} = .*$", f"{key} = {value}", DEFAULT_TEXT
        )
        assert count == 1
        path = tmp_path / "edited.cfg"
        path.write_text(text, encoding="utf-8")
        return ["--config", str(path)]

    return setup


def _edited_grid(old="", new="", row=None):
    """Setup: a 37 x 161 sweep-angle grid with `old` replaced by `new`,
    in the given data row or in the whole file (unedited by default)."""

    def setup(tmp_path):
        path = tmp_path / "grid.csv"
        argv = ["sweep-angle", "--angles", "70:88:0.5", "--probe", "2730:2770:0.25"]
        assert main(argv + ["--config", str(DEFAULT_CFG), "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        if row is None:
            lines = [line.replace(old, new) for line in lines]
        else:
            probe_line = next(k for k, ln in enumerate(lines) if not ln.startswith("#"))
            k = probe_line + 1 + row
            cells = lines[k].split(",")
            cells[old] = new
            lines[k] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return ["--config", str(DEFAULT_CFG), "--in", str(path)]

    return setup


def _reordered_grid(order):
    """Setup: the unedited grid with its 161 probe columns, in the probe
    line and in every data row, put in the given order."""

    def setup(tmp_path):
        argv = _edited_grid()(tmp_path)
        path = tmp_path / "grid.csv"
        lines = path.read_text().splitlines()
        for k, line in enumerate(lines):
            if not line.startswith("#"):
                cells = line.split(",")
                lead, probe = cells[:-161], cells[-161:]
                lines[k] = ",".join(lead + [probe[j] for j in order])
        path.write_text("\n".join(lines) + "\n")
        return argv

    return setup


def _added_config(line):
    """Setup: the default config with one line added."""

    def setup(tmp_path):
        path = tmp_path / "added.cfg"
        path.write_text(DEFAULT_TEXT + line + "\n", encoding="utf-8")
        return ["--config", str(path)]

    return setup


def _external_width_grid(tmp_path):
    """Setup: a config whose external width is half the total width,
    and a 37 x 161 sweep-angle grid made with it."""
    config = _added_config("cavity.external_hwhm_mhz = 0.160")(tmp_path)
    path = tmp_path / "grid.csv"
    argv = ["sweep-angle", "--angles", "70:88:0.5", "--probe", "2730:2770:0.25"]
    assert main(argv + config + ["--out", str(path)]) == 0
    return config + ["--in", str(path)]


def _default_config(tmp_path):
    return ["--config", str(DEFAULT_CFG)]


SPECTRUM = ["spectrum", "--angle", "51"]
DISPERSIVE = ["dispersive", "--angle", "30"]
B_MAG = "--b-mag must be finite and >= 0, got "
WIDTH = "--width must be finite and > 0, got "

INVALID_INPUTS = {
    # non-finite config values
    "config-center-inf": (
        SPECTRUM, _edited_config("cavity.center_mhz", "inf"),
        "line 25: cavity.center_mhz: value must be finite, got 'inf'",
    ),
    "config-magnitude-nan": (
        SPECTRUM, _edited_config("field.magnitude_mt", "nan"),
        "field.magnitude_mt: value must be finite",
    ),
    "config-azimuth-nan": (
        SPECTRUM, _edited_config("ensemble_i.azimuth_deg", "nan"),
        "ensemble_i.azimuth_deg: value must be finite",
    ),
    "config-coupling-nan": (
        SPECTRUM, _edited_config("ensemble_i.coupling_mhz", "nan"),
        "ensemble_i.coupling_mhz: value must be finite",
    ),
    # values the schema bounds alone would let through to the model
    "config-coupling-zero": (
        SPECTRUM, _edited_config("ensemble_i.coupling_mhz", "0"),
        "ensemble_i.coupling_mhz: value 0.0 below minimum",
    ),
    "config-external-above-total": (
        SPECTRUM, _added_config("cavity.external_hwhm_mhz = 0.5"),
        "cavity.external_hwhm_mhz: value 0.5 above cavity.total_hwhm_mhz 0.32",
    ),
    # negative field magnitudes, from the flag or the config
    "transitions-b-mags-negative": (
        ["transitions", "--angle", "79", "--b-mags=-1:1:1"], _default_config,
        "--b-mags must be >= 0, got start -1",
    ),
    "sweep-field-b-mags-negative": (
        ["sweep-field", "--angle", "79", "--b-mags=-1:1:1"], _default_config,
        "--b-mags must be >= 0, got start -1",
    ),
    "config-transitions-magnitudes-negative": (
        ["transitions", "--angle", "79"], _edited_config("sweep.magnitudes_mt", "-1:1:1"),
        "sweep.magnitudes_mt must be >= 0, got start -1",
    ),
    "config-sweep-field-magnitudes-negative": (
        ["sweep-field", "--angle", "79"], _edited_config("sweep.magnitudes_mt", "-1:1:1"),
        "sweep.magnitudes_mt must be >= 0, got start -1",
    ),
    # range flags: errors name the flag, not the config key
    "transitions-b-mags-nan": (
        ["transitions", "--angle", "79", "--b-mags", "0:1:nan"], _default_config,
        "error: --b-mags: start, stop and step must be finite in '0:1:nan'",
    ),
    "sweep-angle-probe-reversed": (
        ["sweep-angle", "--probe", "1:0:1"], _default_config,
        "error: --probe: need stop >= start and step > 0 in '1:0:1'",
    ),
    "transitions-b-mags-without-angle": (
        ["transitions", "--b-mags", "0:1:0.5"], _default_config, "--b-mags sweeps need --angle"
    ),
    # one sweep kind per call: angle-sweep flags exclude magnitude-sweep flags
    "transitions-angle-with-angles": (
        ["transitions", "--angle", "79", "--angles", "0:90:1"], _default_config,
        "--angles (angle sweep) cannot be combined with --angle",
    ),
    "transitions-b-mag-with-b-mags": (
        ["transitions", "--b-mags", "0:1:0.5", "--angle", "79", "--b-mag", "5"], _default_config,
        "--b-mag (angle sweep) cannot be combined with --b-mags",
    ),
    # the full model has one cavity width
    "fit-full-external-width": (
        ["fit", "full"], _external_width_grid,
        "fit full needs cavity.external_hwhm_mhz equal to cavity.total_hwhm_mhz, "
        "got 0.16 and 0.32",
    ),
    # field flags
    "spectrum-b-mag-negative": (
        ["spectrum", "--angle", "10", "--b-mag", "-1"], _default_config, B_MAG + "-1"
    ),
    "spectrum-b-mag-nan": (
        ["spectrum", "--angle", "10", "--b-mag", "nan"], _default_config, B_MAG + "nan"
    ),
    "dispersive-b-mag-negative": (DISPERSIVE + ["--b-mag", "-3"], _default_config, B_MAG + "-3"),
    "transitions-b-mag-negative": (
        ["transitions", "--angles", "0:2:1", "--b-mag", "-2"], _default_config, B_MAG + "-2"
    ),
    "spectrum-angle-nan": (
        ["spectrum", "--angle", "nan"], _default_config, "--angle must be finite, got nan"
    ),
    "sweep-field-angle-inf": (
        ["sweep-field", "--angle", "inf"], _default_config, "--angle must be finite, got inf"
    ),
    "width-nan": (DISPERSIVE + ["--width", "nan"], _default_config, WIDTH + "nan"),
    "width-zero": (DISPERSIVE + ["--width", "0"], _default_config, WIDTH + "0"),
    "width-negative": (DISPERSIVE + ["--width", "-1"], _default_config, WIDTH + "-1"),
    # with floor_mhz = 0, ensemble II on the cavity pulls it by ~5e8 MHz,
    # and the pump range derived from the spin modes would not fit in memory
    "dispersive-derived-pump-range": (
        ["dispersive", "--angle", "23", "--b-mag", "7.69336558"],
        _edited_config("dispersive.floor_mhz", "0"),
        "has more than 1000000 points; give --pump start:stop:step",
    ),
    # non-finite grid cells and fixed coordinate
    "grid-cell-nan": (
        ["fit", "full"], _edited_grid(50, "nan", row=10), "non-finite value in data row 10"
    ),
    "grid-cell-inf": (
        ["fit", "avoided-crossing"], _edited_grid(50, "inf", row=10),
        "non-finite value in data row 10",
    ),
    # |S21| is never negative
    "grid-cell-negative": (
        ["fit", "full"], _edited_grid(50, "-0.25", row=10),
        "grid.csv: negative |S21| -0.25 in row 10, column 49",
    ),
    "grid-fixed-nan": (
        ["fit", "full"], _edited_grid("fixed_magnitude_mt=7.69336558", "fixed_magnitude_mt=nan"),
        "grid lacks a finite fixed_magnitude_mt comment",
    ),
    "grid-fixed-missing": (
        ["fit", "full"], _edited_grid("fixed_magnitude_mt=7.69336558", ""),
        "grid lacks a finite fixed_magnitude_mt comment",
    ),
    # the peak search and the half-power walk take file neighbours for
    # frequency neighbours
    "grid-probe-descending": (
        ["fit", "full"], _reordered_grid(range(160, -1, -1)),
        "grid.csv: probe frequencies are not strictly increasing",
    ),
    "grid-probe-shuffled": (
        ["fit", "lorentzian", "--row", "20"],
        _reordered_grid(np.random.default_rng(1).permutation(161)),
        "grid.csv: probe frequencies are not strictly increasing",
    ),
    "grid-sweep-kind-unknown": (
        ["fit", "full"], _edited_grid("sweep_kind=angle", "sweep_kind=foo"),
        "grid.csv: unknown sweep_kind 'foo'",
    ),
    "fit-lorentzian-row-past-end": (
        ["fit", "lorentzian", "--row", "37"], _edited_grid(), "row 37 outside grid with 37 rows"
    ),
}


@pytest.mark.parametrize(
    "argv, setup, message", INVALID_INPUTS.values(), ids=list(INVALID_INPUTS)
)
def test_invalid_input_exits_2_with_one_line(tmp_path, capsys, argv, setup, message):
    extra = setup(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out.csv"
    code = main(argv + extra + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# selftest

def test_selftest_deterministic_and_reports_geometry_failure(
    default_cfg, capsys, selftest_results
):
    # The CLI run and the session's own run_all print the same bytes.
    code = main(["selftest", "--config", str(default_cfg)])
    out = capsys.readouterr().out
    lines = [result.line() + "\n" for result in selftest_results]
    assert out == "".join(lines) + "9/10 criteria passed\n"
    assert code == 3
    assert "criterion  3 geometry-degeneracy: FAIL" in out
    assert out.count("PASS") == 9
