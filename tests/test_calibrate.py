"""The vectorized calibration scan against the per-azimuth scalar loop
it replaced."""

import numpy as np
import pytest

from cavitybus.calibrate import (
    _scan_residuals,
    _solve_magnitude,
    _transition,
    calibrate_geometry,
)
from cavitybus.spin import FieldSetting


def scalar_scan(cfg, azimuths, angle_i, angle_ii, relative, target):
    """The original scan: a scalar brentq magnitude solve per node, then
    the ensemble-II residual there (None where no magnitude exists)."""
    residuals = []
    for azimuth in azimuths:
        mag = _solve_magnitude(cfg, azimuth, angle_i, target)
        if mag is None:
            residuals.append(None)
            continue
        field = FieldSetting(mag, angle_ii)
        residuals.append(_transition(cfg, "ii", azimuth + relative, field) - target)
    return residuals


@pytest.mark.parametrize("step", [0.25, 1.0])
@pytest.mark.parametrize("angles", [(79.0, 23.0), (75.0, 25.0), (60.0, 30.0), (85.0, 10.0)])
def test_vectorized_scan_matches_scalar_loop(config, angles, step):
    cfg = config.with_updates(
        {
            "calibration.resonance_angle_i_deg": angles[0],
            "calibration.resonance_angle_ii_deg": angles[1],
        }
    )
    target = cfg.get("cavity.center_mhz")
    relative = cfg.get("calibration.relative_azimuth_deg")
    azimuths = np.arange(0.0, 180.0, step)

    expected = scalar_scan(cfg, azimuths, *angles, relative, target)
    got = _scan_residuals(cfg, azimuths, *angles, relative, target)

    missing = np.array([r is None for r in expected])
    np.testing.assert_array_equal(np.isnan(got), missing)
    assert not missing.all()
    reference = np.array([r for r in expected if r is not None])
    np.testing.assert_array_equal(np.sign(got[~missing]), np.sign(reference))
    np.testing.assert_allclose(got[~missing], reference, rtol=0, atol=1e-6)



@pytest.mark.parametrize("step", [0.1, 0.01])
def test_roots_on_scan_nodes_give_the_coarse_scan_result(config, step):
    # At these steps both default roots (83.9 and 173.9 deg) are scan
    # nodes (to the 1e-8 deg root tolerance), where the residual's sign is
    # solver noise.
    coarse = calibrate_geometry(config, scan_step=0.25)
    fine = calibrate_geometry(config, scan_step=step)
    nodes = np.arange(0.0, 180.0, step)
    for candidate in coarse.candidates:
        assert np.abs(nodes - dict(candidate)["azimuth_i"]).min() < 1e-7

    assert [[k for k, _ in c] for c in fine.candidates] == [
        [k for k, _ in c] for c in coarse.candidates
    ]
    np.testing.assert_allclose(
        [[v for _, v in c] for c in fine.candidates],
        [[v for _, v in c] for c in coarse.candidates],
        rtol=0,
        atol=1e-6,
    )
    assert fine.azimuth_i == pytest.approx(coarse.azimuth_i, abs=1e-6)
    assert fine.magnitude == pytest.approx(coarse.magnitude, abs=1e-8)
    assert fine.dispersive_magnitude == pytest.approx(coarse.dispersive_magnitude, abs=1e-8)
