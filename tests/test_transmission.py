import math

import numpy as np
import pytest

from cavitybus.coupled import CavitySpec, collective_modes
from cavitybus.errors import UnsplitError
from cavitybus.fitting import fit_polariton_width
from cavitybus.spin import FieldSetting
from cavitybus.transmission import (
    SpectrumGrid,
    _row_blocks,
    peak_positions,
    peak_splitting,
    s21,
    sweep,
)

CENTER = 2749.1


def probe_grid(half=30.0, step=0.005):
    return np.arange(CENTER - half, CENTER + half + 1e-9, step)


def dense_scan_splitting(cavity, pairs, lo, hi):
    """Independent splitting oracle: direct argmax of |S21| on a very
    fine grid on each side of the cavity, no peak-finding machinery."""
    upper = np.arange(CENTER + lo, CENTER + hi, 1e-4)
    lower = np.arange(CENTER - hi, CENTER - lo, 1e-4)
    up = upper[np.argmax(np.abs(s21(upper, cavity, pairs)))]
    down = lower[np.argmax(np.abs(s21(lower, cavity, pairs)))]
    return up - down


# ---------------------------------------------------------------------------
# s21 basics

def test_bare_cavity_peak_normalized(cavity):
    assert abs(s21(CENTER, cavity, [])) == pytest.approx(1.0, abs=1e-12)


def test_bare_cavity_half_power_at_hwhm(cavity):
    for sign in (-1.0, 1.0):
        value = abs(s21(CENTER + sign * cavity.total_hwhm, cavity, []))
        assert value == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_magnitude_bounded_by_bare_peak(cavity, ens_i, ens_ii):
    rng = np.random.default_rng(21)
    for _ in range(20):
        transitions = CENTER + rng.uniform(-60, 60, size=2)
        pairs = [(ens_i, transitions[0]), (ens_ii, transitions[1])]
        mags = np.abs(s21(probe_grid(step=0.05), cavity, pairs))
        assert np.max(mags) <= 1.0 + 1e-9


def test_peaks_converge_to_eigenfrequencies(config):
    cavity = CavitySpec(CENTER, 0.01, 0.01)
    ens = config.ensemble("i")
    narrow = type(ens)(ens.nv, ens.orientation, ens.coupling, 0.01)
    pairs = [(narrow, CENTER)]
    probe = probe_grid(half=12.0, step=0.002)
    peaks = peak_positions(probe, np.abs(s21(probe, cavity, pairs)))
    expected, _ = collective_modes(CENTER, [ens.coupling], [CENTER])
    matched = [min(abs(p - e) for p in peaks) for e in expected]
    assert max(matched) < 0.02


# ---------------------------------------------------------------------------
# peak splitting

def test_degenerate_splitting(cavity, ens_i, ens_ii):
    pairs = [(ens_i, CENTER), (ens_ii, CENTER)]
    probe = probe_grid()
    split = peak_splitting(probe, np.abs(s21(probe, cavity, pairs)))
    assert split == pytest.approx(18.7, abs=0.2)
    oracle = dense_scan_splitting(cavity, pairs, 4.0, 16.0)
    assert split == pytest.approx(oracle, abs=0.01)


def test_single_ensemble_splitting(cavity, ens_i):
    # The raw peak distance sits below 2g by the linewidth pull; the
    # dense-scan oracle pins the model value and 2g holds to 2%.
    pairs = [(ens_i, CENTER)]
    probe = probe_grid()
    split = peak_splitting(probe, np.abs(s21(probe, cavity, pairs)))
    oracle = dense_scan_splitting(cavity, pairs, 3.0, 12.0)
    assert split == pytest.approx(oracle, abs=0.01)
    assert split == pytest.approx(2 * ens_i.coupling, rel=0.02)


def test_splitting_tie_breaks_toward_lower_frequency():
    # three identical peaks: the two most prominent are tied, so the
    # lower-frequency pair is kept
    xs = np.linspace(0.0, 30.0, 3001)
    row = sum(1.0 / (1.0 + (xs - c) ** 2) for c in (5.0, 15.0, 25.0))
    assert peak_splitting(xs, row) == pytest.approx(10.0, abs=0.05)


def test_bare_cavity_is_unsplit(cavity):
    probe = probe_grid(step=0.02)
    with pytest.raises(UnsplitError):
        peak_splitting(probe, np.abs(s21(probe, cavity, [])))


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_rows_follow_field_path(config, cavity, ens_i, ens_ii, resonant_magnitude):
    angles = [20.0, 23.0, 26.0]
    fields = [FieldSetting(resonant_magnitude, a) for a in angles]
    probe = probe_grid(half=15.0, step=0.05)
    grid = sweep(cavity, [ens_i, ens_ii], fields, probe, "angle")
    np.testing.assert_allclose(grid.sweep_values, angles)
    for k, field in enumerate(fields):
        pairs = [(ens_i, ens_i.transition(field)), (ens_ii, ens_ii.transition(field))]
        np.testing.assert_allclose(grid.amplitudes[k], s21(probe, cavity, pairs))


def test_sweep_rows_split_only_near_crossings(cavity, ens_i, ens_ii, resonant_magnitude):
    probe = probe_grid(half=15.0, step=0.02)
    split_angles = []
    for angle in (10.0, 23.0, 51.0, 79.0, 88.0):
        field = FieldSetting(resonant_magnitude, angle)
        pairs = [(ens_i, ens_i.transition(field)), (ens_ii, ens_ii.transition(field))]
        try:
            peak_splitting(probe, np.abs(s21(probe, cavity, pairs)))
            split_angles.append(angle)
        except UnsplitError:
            pass
    assert split_angles == [23.0, 79.0]


def test_zero_coupling_sweep_is_flat(config, cavity, resonant_magnitude):
    ens = config.ensemble("i")
    weak = type(ens)(ens.nv, ens.orientation, 1e-9, ens.spin_hwhm)
    probe = probe_grid(half=5.0, step=0.05)
    fields = [FieldSetting(resonant_magnitude, a) for a in (10.0, 40.0, 79.0)]
    grid = sweep(cavity, [weak], fields, probe, "angle")
    bare = s21(probe, cavity, [])
    for row in grid.amplitudes:
        np.testing.assert_allclose(row, bare, atol=1e-9)


def test_sweep_continuity_under_step_halving(cavity, ens_i, ens_ii, resonant_magnitude):
    probe = probe_grid(half=15.0, step=0.05)

    def max_row_jump(step):
        angles = np.arange(75.0, 83.0 + 1e-9, step)
        fields = [FieldSetting(resonant_magnitude, a) for a in angles]
        grid = sweep(cavity, [ens_i, ens_ii], fields, probe, "angle")
        return float(np.max(np.abs(np.diff(grid.amplitudes, axis=0))))

    coarse = max_row_jump(0.2)
    fine = max_row_jump(0.1)
    assert fine < 0.6 * coarse


@pytest.mark.parametrize("kind", ["angle", "magnitude"])
def test_broadcast_sweep_is_bit_identical_to_per_row_s21(
    kind, cavity, ens_i, ens_ii, resonant_magnitude
):
    # reference: one s21 call per row, one scalar spin solve per point
    probe = probe_grid(half=15.0, step=0.05)
    if kind == "angle":
        fields = [FieldSetting(resonant_magnitude, a) for a in np.arange(0.0, 90.0, 0.7)]
    else:
        fields = [FieldSetting(m, 79.0) for m in np.arange(0.0, 12.0, 0.13)]
    assert len(list(_row_blocks(len(fields), probe.size))) > 2  # crosses block edges
    grid = sweep(cavity, [ens_i, ens_ii], fields, probe, kind)
    rows = np.vstack(
        [s21(probe, cavity, [(e, e.transition(f)) for e in (ens_i, ens_ii)]) for f in fields]
    )
    assert grid.amplitudes.tobytes() == rows.tobytes()


def test_bare_cavity_sweep_repeats_the_bare_row(cavity):
    probe = probe_grid(half=5.0, step=0.05)
    fields = [FieldSetting(7.0, a) for a in (10.0, 40.0)]
    grid = sweep(cavity, [], fields, probe, "angle")
    assert grid.amplitudes.shape == (2, probe.size)
    for row in grid.amplitudes:
        assert row.tobytes() == s21(probe, cavity, []).tobytes()


def test_grid_shape_validation():
    with pytest.raises(ValueError):
        SpectrumGrid(np.arange(3.0), np.arange(2.0), np.zeros((3, 2)), "angle")
    with pytest.raises(ValueError):
        SpectrumGrid(np.arange(3.0), np.arange(2.0), np.zeros((2, 3)), "bogus")


def test_grid_keeps_float64_input_without_a_copy():
    amplitudes = np.random.default_rng(1).uniform(size=(2, 3))
    grid = SpectrumGrid(np.arange(3.0), np.arange(2.0), amplitudes)
    assert grid.amplitudes.dtype == np.float64
    assert np.shares_memory(grid.amplitudes, amplitudes)


@pytest.mark.parametrize(
    "amplitudes, dtype",
    [
        (np.full((2, 3), 0.5 + 0.5j), np.complex128),
        (np.full((2, 3), 0.5 + 0.5j, dtype=np.complex64), np.complex128),
        (np.ones((2, 3), dtype=int), np.float64),
        (np.ones((2, 3), dtype=np.float32), np.float64),
        ([[1, 2, 3], [4, 5, 6]], np.float64),
        ([[1j, 2, 3], [4, 5, 6]], np.complex128),
    ],
)
def test_grid_value_type_is_complex128_or_float64(amplitudes, dtype):
    grid = SpectrumGrid(np.arange(3.0), np.arange(2.0), amplitudes)
    assert grid.amplitudes.dtype == dtype
    np.testing.assert_array_equal(grid.amplitudes, np.asarray(amplitudes))


def test_grid_rejects_non_numeric_amplitudes():
    with pytest.raises(ValueError):
        SpectrumGrid(np.arange(3.0), np.arange(2.0), np.full((2, 3), "x"))


# ---------------------------------------------------------------------------
# polariton linewidths

def test_polariton_width_matched_resonance(cavity, ens_i):
    probe = probe_grid(half=25.0, step=0.01)
    row = np.abs(s21(probe, cavity, [(ens_i, CENTER)]))
    width = fit_polariton_width(probe, row, which="upper").parameters["hwhm"]
    assert width == pytest.approx(0.5 * (cavity.total_hwhm + ens_i.spin_hwhm), abs=0.05)
    assert width == pytest.approx(2.45, abs=0.05)


def test_polariton_width_second_ensemble(cavity, ens_ii):
    probe = probe_grid(half=25.0, step=0.01)
    row = np.abs(s21(probe, cavity, [(ens_ii, CENTER)]))
    width = fit_polariton_width(probe, row, which="lower").parameters["hwhm"]
    assert width == pytest.approx(0.5 * (cavity.total_hwhm + ens_ii.spin_hwhm), abs=0.1)


def test_collective_row_width_recorded(cavity, ens_i, ens_ii):
    # With plain Lorentzian spin lines the collective polariton keeps a
    # width near the individual ones; the measured device shows extra
    # narrowing that this model intentionally does not include.
    probe = probe_grid(half=25.0, step=0.01)
    row = np.abs(s21(probe, cavity, [(ens_i, CENTER), (ens_ii, CENTER)]))
    width = fit_polariton_width(probe, row, which="upper").parameters["hwhm"]
    assert 2.0 < width < 3.0
