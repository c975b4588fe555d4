import math
import re
import warnings

import numpy as np
import pytest

from cavitybus.errors import BracketError, ValidationError
from cavitybus.spin import (
    AxisClass,
    CrystalOrientation,
    FieldSetting,
    NVParameters,
    _decompose,
    _solve,
    sweep_fields,
    thermal_polarization,
    transition_batch,
    transition_frequencies,
    transition_minus,
    transition_minus_derivative,
)
from spin_oracle import nv_axis_vectors, spin_hamiltonian

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
        b_par, _, _, _ = _decompose(axis, magnitude, 45.0)
        assert b_par == pytest.approx(0.8165 * magnitude, abs=2e-4)


def test_field_projection_sign_flip():
    axis = nv_axis_vectors(ORI)[0]
    b_par, _, _, _ = _decompose(axis, 3.0, 225.0)
    assert b_par == pytest.approx(-0.8165 * 3.0, abs=2e-4)


def test_zero_field_decomposition():
    axis = nv_axis_vectors(ORI)[1]
    assert _decompose(axis, 0.0, 12.0) == (0.0, 0.0, None, None)


def test_decomposition_preserves_magnitude():
    rng = np.random.default_rng(7)
    axes = nv_axis_vectors(CrystalOrientation(33.0, AxisClass.KM11M1))
    for _ in range(50):
        magnitude = float(rng.uniform(0.0, 12.0))
        angle = float(rng.uniform(0.0, 360.0))
        axis = axes[rng.integers(0, 4)]
        b_par, b_perp, _, _ = _decompose(axis, magnitude, angle)
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
    zero, minus, plus = transition_frequencies(NV, ORI, FieldSetting(0.0, 31.0))
    assert minus == pytest.approx(2857.0, abs=1e-9)
    assert plus == pytest.approx(2883.0, abs=1e-9)
    assert zero == pytest.approx(0.0, abs=1e-9)


def test_transitions_sorted_and_positive():
    rng = np.random.default_rng(19)
    for _ in range(30):
        field = FieldSetting(float(rng.uniform(0, 9)), float(rng.uniform(0, 360)))
        levels = transition_frequencies(NV, ORI, field)
        assert levels[1] <= levels[2]
        assert levels[1] > 0
        assert list(levels) == sorted(levels)


def test_half_turn_invariance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        field = FieldSetting(float(rng.uniform(0.1, 9)), float(rng.uniform(0, 180)))
        flipped = FieldSetting(field.magnitude, field.angle + 180.0)
        a = transition_frequencies(NV, ORI, field)
        b = transition_frequencies(NV, ORI, flipped)
        np.testing.assert_allclose(a, b, atol=1e-9)


def test_angle_sweep_extrema_track_projection(config):
    ori = config.orientation("i")
    nv = config.nv("i")
    magnitude = config.get("field.magnitude_mt")
    angles = np.arange(0.0, 90.0 + 1e-9, 0.25)
    axis = nv_axis_vectors(ori)[int(ori.axis_class)]
    projections = np.abs(_decompose(axis, magnitude, angles)[0])
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


def reference_transitions(nv, orientation, magnitude, angle):
    """Independent scalar reference: the field vector split by norm
    against the NV axis, a Hamiltonian written out here, and the m_s=0
    level picked by eigenvector content (largest |<0|v>|) rather than
    by energy order.  Returns (minus, plus) in MHz."""
    axis = nv_axis_vectors(orientation)[int(orientation.axis_class)]
    a = math.radians(angle)
    b = magnitude * np.array([math.cos(a), math.sin(a), 0.0])
    b_par = float(b @ axis)
    b_perp = float(np.linalg.norm(b - b_par * axis))
    d, e, g = nv.d_splitting, nv.e_strain, nv.gyromagnetic
    x = g * b_perp / math.sqrt(2.0)
    h = np.array(
        [
            [d + g * b_par, x, e],
            [x, 0.0, x],
            [e, x, d - g * b_par],
        ]
    )
    vals, vecs = np.linalg.eigh(h)
    ref = int(np.argmax(np.abs(vecs[1, :])))
    minus, plus = sorted(np.delete(vals, ref) - vals[ref])
    return minus, plus


@pytest.mark.parametrize(
    "orientation",
    [ORI, CrystalOrientation(173.9, AxisClass.K111), CrystalOrientation(33.0, AxisClass.KM11M1)],
)
def test_solver_matches_independent_scalar_reference(orientation):
    angles = np.arange(0.0, 180.0 + 1e-9, 1.5)
    mags = np.arange(0.0, 30.0 + 1e-9, 2.5)
    mm, aa = np.meshgrid(mags, angles, indexing="ij")
    expected = np.array(
        [reference_transitions(NV, orientation, m, a) for m, a in zip(mm.ravel(), aa.ravel())]
    ).reshape(mm.shape + (2,))
    got = _solve(NV, orientation, mm, aa)
    for k in range(2):
        np.testing.assert_allclose(got[..., 1 + k], expected[..., k], rtol=1e-12, atol=0.0)


def test_scalar_and_batched_calls_agree_bitwise():
    angles = np.arange(0.0, 180.0, 7.3)
    batch = transition_batch(NV, ORI, 6.5, angles)
    for a, value in zip(angles, batch):
        assert transition_frequencies(NV, ORI, FieldSetting(6.5, a))[1] == value
        assert transition_minus(NV, ORI, FieldSetting(6.5, a)) == value


def test_operating_field_is_inside_the_validity_range(config):
    # the m_s=0 level stays lowest at the calibrated 7.7 mT at every angle
    angles = np.arange(0.0, 360.0, 0.5)
    for which in ("i", "ii"):
        nv, ori = config.nv(which), config.orientation(which)
        minus = transition_batch(nv, ori, 7.7, angles)
        plus = _solve(nv, ori, 7.7, angles)[:, 2]
        assert np.all(minus > 0) and np.all(plus >= minus)
        slope = transition_minus_derivative(nv, ori, 7.7, angles)
        assert np.all(np.isfinite(slope))


def test_fields_past_the_level_anticrossing_are_rejected(config):
    # At 150 mT and 40 deg the m_s=0-dominated level of ensemble I is no
    # longer the lowest; counting transitions from the lowest level would
    # give +3318.66 MHz where the m_s=0 level gives -3318.66 MHz.
    nv, ori = config.nv("i"), config.orientation("i")
    field = FieldSetting(150.0, 40.0)
    calls = [
        lambda: transition_frequencies(nv, ori, field),
        lambda: transition_minus(nv, ori, field),
        lambda: transition_batch(nv, ori, [7.7, 150.0], 40.0),
        lambda: _solve(nv, ori, 150.0, 40.0),
        lambda: transition_minus_derivative(nv, ori, 150.0, [30.0, 40.0]),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="150 mT at 40 deg"):
            call()


# Largest magnitude whose square is a finite float, and the next float up.
LARGEST_SQUARABLE = 1.3407807929942596e154


@pytest.mark.parametrize(
    "field",
    [
        FieldSetting(float("nan"), 10.0),
        FieldSetting(math.inf, 10.0),
        FieldSetting(math.nextafter(LARGEST_SQUARABLE, math.inf), 10.0),
        FieldSetting(1e160, 0.0),
        FieldSetting(7.7, float("nan")),
        FieldSetting(7.7, -math.inf),
    ],
)
def test_unrepresentable_fields_are_rejected_before_the_eigensolve(config, field):
    # These fields used to overflow in the field decomposition and end
    # in LinAlgError("Eigenvalues did not converge").
    with pytest.raises(ValidationError, match="outside the spin model's range: the angle must"):
        config.ensemble("i").transition(field)
    named = re.escape(f"field {field.magnitude:g} mT at {field.angle:g} deg")
    with pytest.raises(ValidationError, match=named):
        transition_batch(NV, ORI, [7.7, field.magnitude], [40.0, field.angle])


def test_largest_squarable_field_reaches_the_level_order_check(config):
    # A RuntimeWarning fails the suite, so this also checks that the
    # decomposition does not overflow.
    with pytest.raises(ValidationError, match="the m_s=0 level is not the lowest"):
        config.ensemble("i").transition(FieldSetting(LARGEST_SQUARABLE, 0.0))


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
# the closed-form solve against the eigensolver

def eigh_oracle(nv, orientation, magnitudes, angles, wrt):
    """Levels above the lowest one, the lower transition's
    Hellmann-Feynman slope and whether the lowest level is the
    m_s=0-dominated one, from np.linalg.eigh of spin_hamiltonian."""
    axis = nv_axis_vectors(orientation)[int(orientation.axis_class)]
    b_par, b_perp, d_par, d_perp = _decompose(axis, magnitudes, angles, wrt)
    vals, vecs = np.linalg.eigh(spin_hamiltonian(nv, b_par, b_perp))
    placed = np.argmax(np.abs(vecs[:, 1, :]), axis=1) == 0
    if wrt is None:
        return vals - vals[:, :1], None, placed
    # H is linear in the field components, so this is dH
    dh = spin_hamiltonian(nv, d_par, d_perp) - spin_hamiltonian(nv, 0.0, 0.0)
    level_slopes = np.einsum("nik,nij,njk->nk", vecs, dh, vecs)
    return vals - vals[:, :1], level_slopes[:, 1] - level_slopes[:, 0], placed


def test_closed_form_matches_eigh_on_the_operating_survey(config):
    # Both ensembles over the default angle sweep at the operating field
    # and over the default magnitude sweep at both resonance angles:
    # 4,206 points.
    magnitude = 7.69336558
    sweeps = [("angle", np.full(901, magnitude), np.arange(901) * 0.1)]
    sweeps += [("magnitude", np.arange(601) * 0.02, np.full(601, a)) for a in (79.0, 23.0)]
    points = 0
    for which in ("i", "ii"):
        nv, ori = config.nv(which), config.orientation(which)
        for wrt, mags, angles in sweeps:
            levels, slope = _solve(nv, ori, mags, angles, wrt)
            ref_levels, ref_slope, _ = eigh_oracle(nv, ori, mags, angles, wrt)
            np.testing.assert_allclose(levels, ref_levels, rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(slope, ref_slope, rtol=0.0, atol=1e-10)
            points += mags.size
    assert points == 4206


@pytest.mark.parametrize("which, angle", [("i", 23.0), ("i", 40.0), ("ii", 40.0), ("ii", 79.0)])
def test_level_order_check_matches_eigh_past_the_anticrossing(config, which, angle):
    # The solver rejects a field exactly where eigh's m_s=0-dominated
    # eigenvector is not the lowest level's.
    nv, ori = config.nv(which), config.orientation(which)
    mags = np.arange(0.0, 300.0 + 1e-9, 0.5)
    _, _, placed = eigh_oracle(nv, ori, mags, np.full_like(mags, angle), None)
    accepted = []
    for magnitude in mags:
        try:
            _solve(nv, ori, magnitude, angle)
        except ValidationError:
            accepted.append(False)
        else:
            accepted.append(True)
    assert placed.any() and not placed.all()  # the sweep crosses
    np.testing.assert_array_equal(accepted, placed)


def test_derivative_names_its_coordinate():
    with pytest.raises(ValueError, match="wrt must be 'angle' or 'magnitude'"):
        transition_minus_derivative(NV, ORI, 7.0, 40.0, wrt="azimuth")


@pytest.mark.parametrize("wrt", ["angle", "magnitude"])
def test_stacked_ensembles_give_the_bits_of_single_calls(config, wrt):
    nvs = [config.nv(w) for w in ("i", "ii")]
    oris = [config.orientation(w) for w in ("i", "ii")]
    swept = np.linspace(0.5, 89.5, 97) if wrt == "angle" else np.linspace(0.0, 12.0, 97)
    held = np.array([[7.7], [8.7]]) if wrt == "angle" else np.array([[79.0], [23.0]])
    stacked = _solve(nvs, oris, *sweep_fields(wrt, swept, held), wrt)
    for k in range(2):
        single = _solve(nvs[k], oris[k], *sweep_fields(wrt, swept, held[k, 0]), wrt)
        for got, expected in zip(stacked, single):
            assert got[k].tobytes() == expected.tobytes()
    # a leading field axis of length 1 is shared by the ensembles
    shared = _solve(nvs, oris, *sweep_fields(wrt, swept, held[:1]), wrt)
    for got, expected in zip(shared, stacked):
        assert got[0].tobytes() == expected[0].tobytes()


@pytest.mark.parametrize("d", [2870.0, 3077.0])
def test_degenerate_upper_pair_takes_the_mean_slope(d):
    # With E = 0 at zero field H = diag(D, 0, D): the upper pair is
    # exactly degenerate, and its mean slope is -1/2 of the m_s=0
    # level's, which is 0 there.  For D = 3077 MHz the rounded
    # cos(3 phi) falls just below -1.
    nv = NVParameters(d_splitting=d, e_strain=0.0, gyromagnetic=28.03)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for wrt in ("angle", "magnitude"):
            levels, slope = _solve(nv, ORI, [0.0, 0.0], [10.0, 55.0], wrt)
            np.testing.assert_allclose(levels, [[0.0, d, d]] * 2, rtol=0.0, atol=1e-9)
            np.testing.assert_array_equal(levels[:, 1], levels[:, 2])
            np.testing.assert_array_equal(slope, [0.0, 0.0])


# ---------------------------------------------------------------------------
# degeneracy location

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


def test_bracket_failure_reported(config):
    # Between 60 and 79 degrees ensemble I stays above ensemble II.
    from cavitybus.calibrate import locate_degeneracy

    with pytest.raises(BracketError, match="no ensemble-ensemble degeneracy"):
        locate_degeneracy(
            config,
            config.get("ensemble_i.azimuth_deg"),
            config.get("calibration.relative_azimuth_deg"),
            config.get("field.magnitude_mt"),
            (60.0, 79.0),
        )


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


# ---------------------------------------------------------------------------
# sweep coordinates

@pytest.mark.parametrize("values", [np.linspace(10.0, 90.0, 5), [1, 2, 3]])
def test_sweep_fields_holds_the_fixed_coordinate(values):
    swept = np.asarray(values, dtype=float)
    mags, angles = sweep_fields("angle", values, 7.7)
    np.testing.assert_array_equal(mags, np.full_like(swept, 7.7))
    np.testing.assert_array_equal(angles, swept)
    mags, angles = sweep_fields("magnitude", values, 79.5)
    np.testing.assert_array_equal(mags, swept)
    np.testing.assert_array_equal(angles, np.full_like(swept, 79.5))
    assert mags.dtype == angles.dtype == np.float64


@pytest.mark.parametrize("kind", ["none", "frequency"])
def test_sweep_fields_rejects_other_kinds(kind):
    with pytest.raises(ValueError, match=f"unsupported sweep kind '{kind}'"):
        sweep_fields(kind, [1.0, 2.0], 7.7)
