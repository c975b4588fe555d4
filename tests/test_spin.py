import math

import numpy as np
import pytest

from cavitybus.errors import BracketError
from cavitybus.spin import (
    AxisClass,
    CrystalOrientation,
    FieldSetting,
    NVParameters,
    field_in_nv_frame,
    find_resonance_angle,
    nv_axis_vectors,
    spin_hamiltonian,
    thermal_polarization,
    transition_batch,
    transition_frequencies,
    transition_minus,
    transition_minus_derivative,
)

NV = NVParameters(d_splitting=2870.0, e_strain=13.0, gyromagnetic=28.03)
ORI = CrystalOrientation(azimuth=0.0, axis_class=AxisClass.K111)


def axial_transition(d, e, gamma, b_par):
    """Closed-form m_s=0 -> -1-like transition for a purely axial field."""
    return d - math.sqrt(e**2 + (gamma * b_par) ** 2)


# ---------------------------------------------------------------------------
# axis geometry

def test_axis_vectors_unrotated():
    axes = nv_axis_vectors(ORI)
    np.testing.assert_allclose(axes[0], np.full(3, 1 / math.sqrt(3)), atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(axes, axis=1), 1.0, atol=1e-12)


def test_axis_vectors_quarter_turn():
    axes = nv_axis_vectors(CrystalOrientation(90.0, AxisClass.K111))
    expected = np.array([-1.0, 1.0, 1.0]) / math.sqrt(3)
    np.testing.assert_allclose(axes[0], expected, atol=1e-12)


def test_relative_azimuth_is_plain_z_rotation():
    a = nv_axis_vectors(CrystalOrientation(10.0, AxisClass.K111))
    b = nv_axis_vectors(CrystalOrientation(10.0 + 24.2, AxisClass.K111))
    rad = math.radians(24.2)
    rot = np.array(
        [
            [math.cos(rad), -math.sin(rad), 0.0],
            [math.sin(rad), math.cos(rad), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    np.testing.assert_allclose(b, a @ rot.T, atol=1e-12)


def test_azimuth_normalized_to_circle():
    assert CrystalOrientation(-90.0, 0).azimuth == 270.0
    assert CrystalOrientation(720.5, 0).azimuth == 0.5


# ---------------------------------------------------------------------------
# field decomposition

def test_field_projection_along_in_plane_axis():
    axis = nv_axis_vectors(ORI)[0]
    for magnitude in (1.0, 4.2):
        b_par, _ = field_in_nv_frame(axis, FieldSetting(magnitude, 45.0))
        assert b_par == pytest.approx(0.8165 * magnitude, abs=2e-4)


def test_field_projection_sign_flip():
    axis = nv_axis_vectors(ORI)[0]
    b_par, _ = field_in_nv_frame(axis, FieldSetting(3.0, 225.0))
    assert b_par == pytest.approx(-0.8165 * 3.0, abs=2e-4)


def test_zero_field_decomposition():
    axis = nv_axis_vectors(ORI)[1]
    assert field_in_nv_frame(axis, FieldSetting(0.0, 12.0)) == (0.0, 0.0)


def test_decomposition_preserves_magnitude():
    rng = np.random.default_rng(7)
    axes = nv_axis_vectors(CrystalOrientation(33.0, AxisClass.KM11M1))
    for _ in range(50):
        magnitude = float(rng.uniform(0.0, 12.0))
        angle = float(rng.uniform(0.0, 360.0))
        axis = axes[rng.integers(0, 4)]
        b_par, b_perp = field_in_nv_frame(axis, FieldSetting(magnitude, angle))
        assert b_par**2 + b_perp**2 == pytest.approx(magnitude**2, rel=1e-12)


# ---------------------------------------------------------------------------
# Hamiltonian spectrum

def test_zero_field_spectrum_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = float(rng.uniform(2000.0, 3500.0))
        e = float(rng.uniform(0.0, 40.0))
        h = spin_hamiltonian(NVParameters(d, e, 28.03), 0.0, 0.0)
        vals = np.linalg.eigvalsh(h)
        np.testing.assert_allclose(sorted(vals), [0.0, d - e, d + e], atol=1e-9)


def test_hamiltonian_hermitian_and_unitary_eigvecs():
    rng = np.random.default_rng(13)
    for _ in range(25):
        h = spin_hamiltonian(NV, float(rng.uniform(-8, 8)), float(rng.uniform(0, 8)))
        assert np.max(np.abs(h - h.T)) < 1e-12
        _, vecs = np.linalg.eigh(h)
        np.testing.assert_allclose(vecs @ vecs.T, np.eye(3), atol=1e-10)


def test_axial_field_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(25):
        b = float(rng.uniform(0.0, 8.0))
        vals = np.sort(np.linalg.eigvalsh(spin_hamiltonian(NV, b, 0.0)))
        split = math.sqrt(13.0**2 + (28.03 * b) ** 2)
        expected = np.sort([0.0, 2870.0 - split, 2870.0 + split])
        np.testing.assert_allclose(vals, expected, rtol=1e-9)


def test_axial_example_against_eigensolver_oracle():
    # oracle: exact 3x3 eigensolve; closed form gives 2748.2145689 MHz
    vals = np.sort(np.linalg.eigvalsh(spin_hamiltonian(NV, 4.32, 0.0)))
    transition = vals[1] - vals[0]
    assert transition == pytest.approx(axial_transition(2870.0, 13.0, 28.03, 4.32), rel=1e-12)
    assert transition == pytest.approx(2748.2145689, abs=1e-6)


# ---------------------------------------------------------------------------
# transitions

def test_zero_field_transitions():
    levels = transition_frequencies(NV, ORI, FieldSetting(0.0, 31.0))
    assert levels.transition_minus == pytest.approx(2857.0, abs=1e-9)
    assert levels.transition_plus == pytest.approx(2883.0, abs=1e-9)
    assert levels.eigenfrequencies[0] == pytest.approx(0.0, abs=1e-9)


def test_transitions_sorted_and_positive():
    rng = np.random.default_rng(19)
    for _ in range(30):
        field = FieldSetting(float(rng.uniform(0, 9)), float(rng.uniform(0, 360)))
        levels = transition_frequencies(NV, ORI, field)
        assert levels.transition_minus <= levels.transition_plus
        assert levels.transition_minus > 0
        assert list(levels.eigenfrequencies) == sorted(levels.eigenfrequencies)


def test_half_turn_invariance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        field = FieldSetting(float(rng.uniform(0.1, 9)), float(rng.uniform(0, 180)))
        flipped = FieldSetting(field.magnitude, field.angle + 180.0)
        a = transition_frequencies(NV, ORI, field)
        b = transition_frequencies(NV, ORI, flipped)
        np.testing.assert_allclose(a.eigenfrequencies, b.eigenfrequencies, atol=1e-9)


def test_angle_sweep_extrema_track_projection(config):
    ori = config.orientation("i")
    nv = config.nv("i")
    magnitude = config.get("field.magnitude_mt")
    angles = np.arange(0.0, 90.0 + 1e-9, 0.25)
    axis = nv_axis_vectors(ori)[int(ori.axis_class)]
    projections = np.array(
        [abs(field_in_nv_frame(axis, FieldSetting(magnitude, a))[0]) for a in angles]
    )
    transitions = transition_batch(nv, ori, magnitude, angles)
    assert np.argmin(transitions) == np.argmax(projections)
    assert np.argmax(transitions) == np.argmin(projections)


def test_transitions_continuous_in_field(config):
    nv = config.nv("i")
    ori = config.orientation("i")
    magnitude = config.get("field.magnitude_mt")
    angles = np.arange(0.0, 180.0, 0.05)
    values = transition_batch(nv, ori, magnitude, angles)
    # bounded slope: no branch jumps anywhere on a fine grid
    assert np.max(np.abs(np.diff(values))) < 0.25


def test_batch_matches_scalar_path():
    angles = np.linspace(0.0, 120.0, 25)
    batch = transition_batch(NV, ORI, 6.5, angles)
    scalar = [transition_minus(NV, ORI, FieldSetting(6.5, a)) for a in angles]
    np.testing.assert_allclose(batch, scalar, rtol=1e-12)


def test_hellmann_feynman_derivative_matches_finite_difference():
    angles = np.linspace(5.0, 85.0, 9)
    h = 1e-4
    for wrt, args in (("angle", (6.5, angles)), ("magnitude", (angles / 12.0, 40.0))):
        analytic = transition_minus_derivative(NV, ORI, args[0], args[1], wrt=wrt)
        if wrt == "angle":
            up = transition_batch(NV, ORI, args[0], args[1] + h)
            down = transition_batch(NV, ORI, args[0], args[1] - h)
        else:
            up = transition_batch(NV, ORI, args[0] + h, args[1])
            down = transition_batch(NV, ORI, args[0] - h, args[1])
        fd = (up - down) / (2 * h)
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------------------------
# resonance angle location

def test_resonance_angles_match_calibration(config):
    target = config.get("cavity.center_mhz")
    magnitude = config.get("field.magnitude_mt")
    angle_i = find_resonance_angle(
        config.nv("i"), config.orientation("i"), magnitude, target, (70.0, 88.0)
    )
    angle_ii = find_resonance_angle(
        config.nv("ii"), config.orientation("ii"), magnitude, target, (15.0, 31.0)
    )
    assert angle_i == pytest.approx(79.0, abs=0.5)
    assert angle_ii == pytest.approx(23.0, abs=0.5)


def test_resonance_angle_roundtrip(config):
    target = 2730.0
    magnitude = config.get("field.magnitude_mt")
    nv = config.nv("i")
    ori = config.orientation("i")
    angle = find_resonance_angle(nv, ori, magnitude, target, (55.0, 79.0))
    back = transition_minus(nv, ori, FieldSetting(magnitude, angle))
    assert back == pytest.approx(target, abs=1e-3)


def test_degeneracy_sits_at_resonance_midpoint(config):
    # Shifted copies of the same even tuning curve can only cross midway
    # between equal-frequency features, so the pinned 79/23 calibration
    # puts the ensemble-ensemble degeneracy at exactly 51 degrees.
    from cavitybus.calibrate import locate_degeneracy

    angle, freq = locate_degeneracy(
        config,
        config.get("ensemble_i.azimuth_deg"),
        config.get("calibration.relative_azimuth_deg"),
        config.get("field.magnitude_mt"),
        (23.0, 79.0),
    )
    assert angle == pytest.approx(51.0, abs=1e-3)
    assert freq < config.get("cavity.center_mhz")


def test_bracket_failure_reported():
    with pytest.raises(BracketError):
        find_resonance_angle(NV, ORI, 0.05, 2749.1, (0.0, 90.0))


# ---------------------------------------------------------------------------
# thermal polarization

def test_thermal_polarization_limits():
    assert thermal_polarization(NV, 1e9) == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert thermal_polarization(NV, 0.01) == pytest.approx(1.0, abs=1e-12)


def test_thermal_polarization_operating_point():
    assert thermal_polarization(NV, 60.0) == pytest.approx(0.832, abs=1e-3)


@pytest.mark.parametrize("temperature", [0.01, 1.0, 60.0, 300.0, 1e9])
def test_thermal_polarization_matches_scipy_constants_bitwise(temperature):
    from scipy.constants import h, k

    x = h * NV.d_splitting * 1e6 / (k * temperature * 1e-3)
    assert thermal_polarization(NV, temperature) == 1.0 / (1.0 + 2.0 * math.exp(-x))


def test_thermal_polarization_rejects_nonpositive_temperature():
    with pytest.raises(ValueError):
        thermal_polarization(NV, 0.0)


# ---------------------------------------------------------------------------
# parameter validation

def test_parameter_invariants():
    with pytest.raises(ValueError):
        NVParameters(-1.0, 13.0, 28.03)
    with pytest.raises(ValueError):
        NVParameters(2870.0, -1.0, 28.03)
    with pytest.raises(ValueError):
        NVParameters(2870.0, 13.0, 0.0)
    with pytest.raises(ValueError):
        FieldSetting(-0.1, 0.0)
