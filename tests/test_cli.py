import json

import numpy as np
import pytest

from cavitybus import __version__
from cavitybus.cli import main
from cavitybus.config import DEFAULT_CONFIG_TEXT
from cavitybus.gridio import read_grid


@pytest.fixture()
def default_cfg(tmp_path):
    path = tmp_path / "default.cfg"
    path.write_text(DEFAULT_CONFIG_TEXT, encoding="utf-8")
    return path


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


def test_sweep_angle_grid_and_determinism(default_cfg, tmp_path, monkeypatch):
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
    out_c = tmp_path / "c.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    monkeypatch.setenv("CAVITYBUS_THREADS", "3")
    assert main(args + ["--out", str(out_c)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes() == out_c.read_bytes()
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


# ---------------------------------------------------------------------------
# fits

def test_fit_avoided_crossing_roundtrip(tmp_path):
    # quiet second ensemble so the grid holds a single clean crossing
    cfg = tmp_path / "single.cfg"
    cfg.write_text(
        DEFAULT_CONFIG_TEXT.replace(
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
        DEFAULT_CONFIG_TEXT.replace(
            "cavity.center_mhz = 2749.1", "cavity.center_mhz = 2980.0"
        ),
        encoding="utf-8",
    )
    out = tmp_path / "calibrated.cfg"
    code = main(["calibrate", "--config", str(cfg), "--out", str(out)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# selftest

def test_selftest_deterministic_and_reports_geometry_failure(default_cfg, capsys):
    code_a = main(["selftest", "--config", str(default_cfg)])
    out_a = capsys.readouterr().out
    code_b = main(["selftest", "--config", str(default_cfg)])
    out_b = capsys.readouterr().out
    assert out_a == out_b
    assert code_a == code_b == 3
    assert "9/10 criteria passed" in out_a
    assert "criterion  3 geometry-degeneracy: FAIL" in out_a
    assert out_a.count("PASS") == 9
