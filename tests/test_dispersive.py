import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from cavitybus.coupled import CavitySpec
from cavitybus.dispersive import (
    build_dispersive_model,
    derived_pump_range,
    dispersive_deviation,
    dispersive_model_from_frequencies,
    dispersive_shift,
    dispersive_spin_modes,
    drive_weights,
    ensemble_ensemble_coupling,
    pump_probe_signal,
)
from cavitybus.errors import DispersiveRangeError, ValidationError
from cavitybus.spin import FieldSetting
from cavitybus.transmission import peak_positions

CENTER = 2749.1


def make_cavity(signs=(1, -1)):
    return CavitySpec(CENTER, 0.320, 0.320, signs)


# ---------------------------------------------------------------------------
# shift and exchange formulas

def test_dispersive_shift_value():
    assert dispersive_shift(7.5, 19.1) == pytest.approx(2.94, abs=0.01)


def test_dispersive_shift_zero_coupling():
    assert dispersive_shift(0.0, 15.0) == 0.0


def test_dispersive_shift_odd_in_detuning():
    assert dispersive_shift(4.0, -16.0) == -dispersive_shift(4.0, 16.0)


def test_exchange_coupling_value():
    assert ensemble_ensemble_coupling(7.5, 5.6, 19.1, 19.1) == pytest.approx(2.20, abs=0.01)


def test_exchange_coupling_equal_detunings_identity():
    assert ensemble_ensemble_coupling(3.0, 4.0, 25.0, 25.0) == pytest.approx(
        3.0 * 4.0 / 25.0, rel=1e-12
    )


def test_exchange_coupling_opposite_detunings_cancel():
    assert ensemble_ensemble_coupling(7.5, 5.6, 30.0, -30.0) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# model assembly

def test_model_fields_exact():
    model = dispersive_model_from_frequencies(
        make_cavity(), (7.5, 5.6), (CENTER - 19.1, CENTER - 25.0)
    )
    assert model.chi_i == 7.5**2 / model.detuning_i
    assert model.chi_ii == 5.6**2 / model.detuning_ii
    assert model.detuning_i == pytest.approx(19.1)
    assert model.detuning_ii == pytest.approx(25.0)
    # Lamb shift pushes spins away from the cavity (they sit below it).
    assert model.spin_block[0, 0] == pytest.approx(CENTER - 19.1 - model.chi_i)
    assert model.spin_block[1, 1] == pytest.approx(CENTER - 25.0 - model.chi_ii)


@pytest.mark.parametrize(
    "detunings, label", [((11.0, 19.1), "ensemble I"), ((19.1, 5.0), "ensemble II")],
    ids=["i", "ii"],
)
def test_model_enforces_floor(detunings, label):
    # The floor is checked once, when the model is built; either
    # detuning below it is rejected, and floor=0.0 lets it through.
    couplings = (7.5, 5.6)
    transitions = tuple(CENTER - d for d in detunings)
    with pytest.raises(DispersiveRangeError, match=f"{label} detuning"):
        dispersive_model_from_frequencies(make_cavity(), couplings, transitions)
    model = dispersive_model_from_frequencies(make_cavity(), couplings, transitions, floor=0.0)
    assert model.chi_i == dispersive_shift(7.5, model.detuning_i)
    assert model.chi_ii == dispersive_shift(5.6, model.detuning_ii)
    assert model.u_coupling == ensemble_ensemble_coupling(
        7.5, 5.6, model.detuning_i, model.detuning_ii
    )
    assert min(abs(model.detuning_i), abs(model.detuning_ii)) < 12.0


def test_block_off_diagonal_sign_follows_antinode_product():
    freqs = (CENTER - 19.1, CENTER - 19.1)
    opposite = dispersive_model_from_frequencies(make_cavity((1, -1)), (7.5, 5.6), freqs)
    same = dispersive_model_from_frequencies(make_cavity((1, 1)), (7.5, 5.6), freqs)
    assert opposite.spin_block[0, 1] == pytest.approx(+opposite.u_coupling)
    assert same.spin_block[0, 1] == pytest.approx(-same.u_coupling)


# ---------------------------------------------------------------------------
# spin modes and drive weights

def test_symmetric_degenerate_modes():
    model = dispersive_model_from_frequencies(
        make_cavity(), (4.0, 4.0), (CENTER - 20.0, CENTER - 20.0)
    )
    (f_b, v_b, _), (f_d, v_d, _) = dispersive_spin_modes(model)
    root2 = 1 / math.sqrt(2)
    assert np.allclose(np.abs(v_b), [root2, root2], atol=1e-12)
    assert np.allclose(np.abs(v_d), [root2, root2], atol=1e-12)
    assert abs(f_b - f_d) == pytest.approx(2 * abs(model.u_coupling), abs=1e-9)


def test_bare_degeneracy_modes_are_coupling_weighted():
    model = dispersive_model_from_frequencies(
        make_cavity(), (7.5, 5.6), (CENTER - 19.1, CENTER - 19.1)
    )
    (f_b, v_b, _), (f_d, v_d, _) = dispersive_spin_modes(model)
    g_col = math.hypot(7.5, 5.6)
    bright_expected = np.array([-7.5, 5.6]) / g_col
    dark_expected = np.array([5.6, 7.5]) / g_col
    assert min(np.max(np.abs(v_b - s * bright_expected)) for s in (1, -1)) < 1e-10
    assert min(np.max(np.abs(v_d - s * dark_expected)) for s in (1, -1)) < 1e-10
    # the cavity-coupled mode carries the full collective repulsion
    assert f_b == pytest.approx(CENTER - 19.1 - g_col**2 / 19.1, abs=1e-9)
    assert f_d == pytest.approx(CENTER - 19.1, abs=1e-9)


def test_zero_exchange_keeps_bare_modes():
    model = dispersive_model_from_frequencies(
        make_cavity(), (7.5, 5.6), (CENTER - 19.1, CENTER - 40.0)
    )
    patched = dataclasses.replace(model, u_coupling=0.0)
    assert patched.spin_block[0, 1] == 0.0
    (_, v_b, _), (_, v_d, _) = dispersive_spin_modes(patched)
    assert np.allclose(np.abs(v_b), [1.0, 0.0], atol=1e-12)
    assert np.allclose(np.abs(v_d), [0.0, 1.0], atol=1e-12)


def test_drive_weights_selection_rule():
    # With the (+, -) drive the antisymmetric coupling-weighted state is
    # bright and the symmetric one dark.
    g_col = math.hypot(7.5, 5.6)
    bright = np.array([7.5, -5.6]) / g_col
    dark = np.array([5.6, 7.5]) / g_col
    assert drive_weights(7.5, 5.6, (1, -1), dark) == pytest.approx(0.0, abs=1e-15)
    assert drive_weights(7.5, 5.6, (1, -1), bright) == pytest.approx(1.0, abs=1e-15)


def test_drive_weights_swap_for_symmetric_drive():
    root2 = 1 / math.sqrt(2)
    sym = np.array([root2, root2])
    assert drive_weights(4.2, 4.2, (1, 1), sym) == pytest.approx(1.0, abs=1e-12)
    assert drive_weights(4.2, 4.2, (1, -1), sym) == pytest.approx(0.0, abs=1e-15)


def test_drive_weights_completeness():
    rng = np.random.default_rng(31)
    for signs in ((1, -1), (1, 1), (-1, 1), (-1, -1)):
        theta = rng.uniform(0, 2 * math.pi)
        mode_a = np.array([math.cos(theta), math.sin(theta)])
        mode_b = np.array([-math.sin(theta), math.cos(theta)])
        total = drive_weights(7.5, 5.6, signs, mode_a) + drive_weights(7.5, 5.6, signs, mode_b)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_drive_weights_global_sign_invariance():
    mode = np.array([0.6, 0.8])
    assert drive_weights(7.5, 5.6, (1, -1), mode) == pytest.approx(
        drive_weights(7.5, 5.6, (-1, 1), mode), abs=1e-15
    )


def test_drive_weights_need_unit_mode():
    with pytest.raises(ValueError):
        drive_weights(7.5, 5.6, (1, -1), [1.0, 1.0])


def test_degenerate_block_splitting_is_exactly_2u():
    model = dispersive_model_from_frequencies(
        make_cavity(), (7.5, 5.6), (CENTER - 19.1, CENTER - 19.1)
    )
    w_ii = model.transition_i - model.chi_i + model.chi_ii
    shifted = dataclasses.replace(model, transition_ii=w_ii)
    assert shifted.spin_block[0, 0] == shifted.spin_block[1, 1]
    (f_hi, *_), (f_lo, *_) = dispersive_spin_modes(shifted)
    assert abs(abs(f_hi - f_lo) - 2 * abs(model.u_coupling)) < 1e-12


# ---------------------------------------------------------------------------
# pump-probe signal

def lamb_shifted_degeneracy(cavity, ens_i, ens_ii, magnitude):
    def mismatch(angle):
        model = build_dispersive_model(cavity, ens_i, ens_ii, FieldSetting(magnitude, angle))
        return model.spin_block[0, 0] - model.spin_block[1, 1]

    return brentq(mismatch, 35.0, 65.0, xtol=1e-10)


def hwhm(ens_i, ens_ii):
    return (ens_i.spin_hwhm, ens_ii.spin_hwhm)


def count_peaks(signal, threshold=0.10):
    return peak_positions(signal.pump_frequencies, -signal.shift, threshold).size


def test_derived_pump_range_spans_both_spin_modes(cavity, ens_i, ens_ii, dispersive_magnitude):
    model = build_dispersive_model(cavity, ens_i, ens_ii, FieldSetting(dispersive_magnitude, 23.0))
    lower, upper = np.sort(np.linalg.eigvalsh(model.spin_block))
    pump = derived_pump_range(dispersive_spin_modes(model))
    assert pump[0] == pytest.approx(lower - 40.0, abs=1e-9)
    assert upper + 40.0 - 0.02 < pump[-1] < upper + 40.0 + 1e-6
    np.testing.assert_allclose(np.diff(pump), 0.02, rtol=1e-6)


def test_derived_pump_range_refuses_more_than_max_range_points():
    # with no validity floor, a spin 1 kHz from the cavity pulls it by
    # ~56 GHz, and the range would have millions of points
    model = dispersive_model_from_frequencies(
        make_cavity(), (7.5, 5.6), (CENTER - 1e-3, CENTER - 30.0), floor=0.0
    )
    with pytest.raises(ValidationError, match="give --pump start:stop:step"):
        derived_pump_range(dispersive_spin_modes(model))


def test_single_resonance_at_lamb_shifted_degeneracy(
    cavity, ens_i, ens_ii, dispersive_magnitude
):
    angle = lamb_shifted_degeneracy(cavity, ens_i, ens_ii, dispersive_magnitude)
    field = FieldSetting(dispersive_magnitude, angle)
    model = build_dispersive_model(cavity, ens_i, ens_ii, field)
    pump = derived_pump_range(dispersive_spin_modes(model))
    signal = pump_probe_signal(model, hwhm(ens_i, ens_ii), pump)
    assert count_peaks(signal) == 1


def test_two_resonances_away_from_degeneracy(cavity, ens_i, ens_ii, dispersive_magnitude):
    field = FieldSetting(dispersive_magnitude, 23.0)
    model = build_dispersive_model(cavity, ens_i, ens_ii, field)
    pump = derived_pump_range(dispersive_spin_modes(model))
    signal = pump_probe_signal(model, hwhm(ens_i, ens_ii), pump)
    assert count_peaks(signal) == 2


def test_peak_positions_at_lamb_shifted_bare_frequencies(
    cavity, ens_i, ens_ii, dispersive_magnitude
):
    field = FieldSetting(dispersive_magnitude, 23.0)
    model = build_dispersive_model(cavity, ens_i, ens_ii, field)
    pump = derived_pump_range(dispersive_spin_modes(model))
    signal = pump_probe_signal(model, hwhm(ens_i, ens_ii), pump)
    positions = peak_positions(signal.pump_frequencies, -signal.shift, 0.1)
    expected = np.sort(np.linalg.eigvalsh(model.spin_block))
    np.testing.assert_allclose(positions, expected, atol=0.25)


def test_zero_couplings_zero_signal(config, cavity, dispersive_magnitude):
    ens = config.ensemble("i")
    silent_i = type(ens)(ens.nv, ens.orientation, 1e-12, ens.spin_hwhm)
    silent_ii = type(ens)(
        config.ensemble("ii").nv,
        config.ensemble("ii").orientation,
        1e-12,
        config.ensemble("ii").spin_hwhm,
    )
    field = FieldSetting(dispersive_magnitude, 30.0)
    model = build_dispersive_model(cavity, silent_i, silent_ii, field)
    pump = np.arange(2680.0, 2740.0, 0.1)
    signal = pump_probe_signal(model, hwhm(silent_i, silent_ii), pump)
    assert np.max(np.abs(signal.shift)) < 1e-12


def test_pump_probe_enforces_floor(cavity, ens_i, ens_ii, resonant_magnitude):
    # ensemble II is on resonance at 23 deg with the resonant magnitude,
    # so the model a pump-probe signal needs cannot be built there
    field = FieldSetting(resonant_magnitude, 23.0)
    with pytest.raises(DispersiveRangeError, match="ensemble II detuning"):
        build_dispersive_model(cavity, ens_i, ens_ii, field)


# ---------------------------------------------------------------------------
# validity vs the exact model

def test_validation_zero_coupling_is_exact(cavity):
    deviation = dispersive_deviation(cavity, (0.0, 0.0), (CENTER - 20.0, CENTER - 35.0))
    assert deviation == pytest.approx(0.0, abs=1e-12)


def test_validation_small_coupling_within_chi_percent(cavity):
    # One spin mode coupled at g/Delta = 0.1; the deviation from the
    # dispersive value is the next order (g/Delta)^2 of chi, minus
    # higher corrections, so it sits just under 1% of chi.
    g, delta = 2.0, 20.0
    deviation = dispersive_deviation(cavity, (g, 1e-9), (CENTER - delta, CENTER - delta))
    chi = g**2 / delta
    assert deviation < 0.01 * chi


def test_validation_deviation_monotone_and_quartic(cavity):
    transitions = (CENTER - 20.0, CENTER - 20.0)
    deviations = [dispersive_deviation(cavity, (g, g), transitions) for g in (4.0, 2.0, 1.0, 0.5)]
    assert all(a > b for a, b in zip(deviations, deviations[1:]))
    ratios = [a / b for a, b in zip(deviations, deviations[1:])]
    assert all(r >= 8.0 for r in ratios)
