import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from cavitybus.calibrate import _find_root
from cavitybus.config import range_values
from cavitybus.errors import DegenerateDataError, ValidationError
from cavitybus.fitting import (
    _FULL_NAMES,
    SpinTuning,
    _branch_modes,
    _gram,
    _lorentzian_init,
    _sigmoid,
    _spin_curves,
    _standard_errors,
    avoided_crossing_model,
    extract_branches,
    fit_avoided_crossing,
    fit_full_transmission,
    fit_lorentzian,
    fit_polariton_width,
    initial_guess_full,
    jacobian_check,
    levenberg_marquardt,
    lorentzian_model,
    transmission_model,
)
from cavitybus import fitting, transmission
from cavitybus.gridio import read_grid, write_grid
from cavitybus.spin import FieldSetting, transition_batch, transition_minus_derivative
from cavitybus.transmission import DEFAULT_PROMINENCE, SpectrumGrid, _row_blocks, sweep

CENTER = 2749.1


@pytest.fixture(scope="module")
def tunings(config):
    magnitude = config.get("field.magnitude_mt")
    return (
        SpinTuning.from_ensemble(config.ensemble("i"), "angle", magnitude),
        SpinTuning.from_ensemble(config.ensemble("ii"), "angle", magnitude),
    )


@pytest.fixture(scope="module")
def crossing_grid(config, cavity, ens_i):
    magnitude = config.get("field.magnitude_mt")
    angles = np.arange(71.0, 87.0 + 1e-9, 0.25)
    probe = np.arange(CENTER - 20.0, CENTER + 20.0 + 1e-9, 0.1)
    fields = [FieldSetting(magnitude, a) for a in angles]
    return sweep(cavity, [ens_i], fields, probe, "angle")


@pytest.fixture(scope="module")
def full_grid(config, cavity, ens_i, ens_ii):
    magnitude = config.get("field.magnitude_mt")
    angles = np.arange(10.0, 90.0 + 1e-9, 1.0)
    probe = np.arange(CENTER - 30.0, CENTER + 30.0 + 1e-9, 0.25)
    fields = [FieldSetting(magnitude, a) for a in angles]
    return sweep(cavity, [ens_i, ens_ii], fields, probe, "angle")


def with_noise(grid, seed, level=0.01):
    rng = np.random.default_rng(seed)
    noisy = grid.magnitudes * (1.0 + level * rng.standard_normal(grid.amplitudes.shape))
    return SpectrumGrid(grid.probe_frequencies, grid.sweep_values, noisy, grid.sweep_kind)


# ---------------------------------------------------------------------------
# Lorentzian fits

def test_noiseless_lorentzian_recovery():
    xs = np.linspace(CENTER - 4.0, CENTER + 4.0, 201)
    ys = lorentzian_model(xs)((1.0, CENTER, 0.32, 0.0))[0]
    result = fit_lorentzian(xs, ys)
    assert result.converged
    assert result.parameters["center"] == pytest.approx(CENTER, rel=1e-6)
    assert result.parameters["hwhm"] == pytest.approx(0.32, rel=1e-6)
    assert result.parameters["amplitude"] == pytest.approx(1.0, rel=1e-6)


def test_noisy_lorentzian_monte_carlo():
    xs = np.linspace(CENTER - 4.0, CENTER + 4.0, 401)
    clean = lorentzian_model(xs)((1.0, CENTER, 0.32, 0.0))[0]
    center_errors, width_errors = [], []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ys = clean + 0.01 * rng.standard_normal(xs.size)
        result = fit_lorentzian(xs, ys)
        center_errors.append(abs(result.parameters["center"] - CENTER))
        width_errors.append(abs(result.parameters["hwhm"] - 0.32) / 0.32)
    assert np.percentile(center_errors, 95) < 0.01
    assert np.percentile(width_errors, 95) < 0.05


def test_flat_data_is_degenerate():
    xs = np.linspace(0.0, 10.0, 50)
    with pytest.raises(DegenerateDataError):
        fit_lorentzian(xs, np.full(50, 0.7))


def test_too_few_points_rejected():
    with pytest.raises(DegenerateDataError):
        fit_lorentzian([1.0, 2.0, 3.0], [0.0, 1.0, 0.0])


def test_nonfinite_data_rejected():
    xs = np.linspace(0.0, 10.0, 20)
    ys = lorentzian_model(xs)((1.0, 5.0, 1.0, 0.0))[0]
    ys[3] = np.nan
    with pytest.raises(DegenerateDataError):
        fit_lorentzian(xs, ys)


def test_negative_start_width_is_rejected():
    xs = np.linspace(CENTER - 4.0, CENTER + 4.0, 41)
    ys = lorentzian_model(xs)((1.0, CENTER, 0.32, 0.0))[0]
    with pytest.raises(ValueError, match="must start positive"):
        fit_lorentzian(xs, ys, init=[1.0, CENTER, -0.32, 0.0])


def test_lorentzian_start_on_a_one_sample_spike_spans_a_tenth_of_the_range():
    # one sample above half height has no width to measure
    xs = np.linspace(0.0, 10.0, 11)
    ys = np.zeros(11)
    ys[4] = 1.0
    assert _lorentzian_init(xs, ys).tolist() == [1.0, 4.0, 1.0, 0.0]


def test_four_point_lorentzian_fit_reports_no_standard_errors():
    # as many parameters as residuals leave no degree of freedom
    xs = CENTER + np.array([-1.5, -0.5, 0.5, 1.5])
    ys = lorentzian_model(xs)((1.0, CENTER, 0.8, 0.0))[0]
    result = fit_lorentzian(xs, ys, init=[1.1, CENTER + 0.1, 0.7, 0.0])
    assert result.converged
    assert result.standard_errors is None


def test_polariton_width_needs_a_peak_and_both_half_power_crossings():
    probe = CENTER + np.arange(10.0)
    with pytest.raises(DegenerateDataError, match="no peak above the prominence threshold"):
        fit_polariton_width(probe, np.ones(10))
    with pytest.raises(DegenerateDataError, match="no right half-power crossing"):
        fit_polariton_width(probe[:4], np.array([0.0, 1.0, 0.8, 0.9]))


def test_standard_errors_shrink_like_root_n():
    sizes = (100, 200, 400, 800, 1600)
    ses = []
    for n in sizes:
        xs = np.linspace(CENTER - 4.0, CENTER + 4.0, n)
        clean = lorentzian_model(xs)((1.0, CENTER, 0.32, 0.0))[0]
        per_seed = []
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            result = fit_lorentzian(xs, clean + 0.01 * rng.standard_normal(n))
            per_seed.append(result.standard_errors["center"])
        ses.append(np.mean(per_seed))
    slope = np.polyfit(np.log(sizes), np.log(ses), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.05)


def test_reparameterization_invariance():
    xs = np.linspace(CENTER - 4.0, CENTER + 4.0, 301)
    rng = np.random.default_rng(7)
    ys = lorentzian_model(xs)((1.0, CENTER, 0.32, 0.02))[0] + 0.005 * rng.standard_normal(xs.size)
    in_mhz = fit_lorentzian(xs, ys)
    in_ghz = fit_lorentzian(
        xs / 1000.0,
        ys,
        init=[
            in_mhz.parameters["amplitude"] * 1.1,
            (CENTER + 0.5) / 1000.0,
            0.4 / 1000.0,
            0.0,
        ],
    )
    assert in_ghz.parameters["center"] * 1000.0 == pytest.approx(
        in_mhz.parameters["center"], rel=1e-6
    )
    assert in_ghz.parameters["hwhm"] * 1000.0 == pytest.approx(
        in_mhz.parameters["hwhm"], rel=1e-6
    )
    assert in_ghz.parameters["amplitude"] == pytest.approx(
        in_mhz.parameters["amplitude"], rel=1e-6
    )


def test_accepted_iterations_never_increase_residual():
    xs = np.linspace(CENTER - 6.0, CENTER + 6.0, 201)
    rng = np.random.default_rng(17)
    ys = lorentzian_model(xs)((0.8, CENTER + 0.7, 0.5, 0.1))[0] + 0.02 * rng.standard_normal(xs.size)
    result = fit_lorentzian(xs, ys, init=[0.3, CENTER - 2.0, 2.0, 0.0])
    assert result.converged
    history = np.asarray(result.history)
    assert np.all(np.diff(history) <= 1e-12)


# ---------------------------------------------------------------------------
# jacobian_check

def test_jacobian_check_lorentzian_generic_point():
    xs = np.linspace(0.0, 20.0, 41)
    dev = jacobian_check(lorentzian_model(xs), [0.9, 10.3, 0.8, 0.05])
    assert dev < 1e-6


def test_jacobian_check_reports_kink():
    xs = np.array([0.0, 1.0, 2.0])

    def kinked(theta):
        values = np.abs(xs - theta[0])
        jac = -np.where(xs > theta[0], 1.0, -1.0)[:, None]
        return values, jac

    assert jacobian_check(kinked, [1.0]) > 0.1


def test_jacobian_check_shipped_grid_models(tunings):
    tun_i, tun_ii = tunings
    sv = np.linspace(71.0, 87.0, 17)
    dev_branch = jacobian_check(
        avoided_crossing_model(sv, np.arange(17) % 2, [tun_i]), [7.5, CENTER, 0.3]
    )
    assert dev_branch < 1e-6
    # N = 2, ending on the ensemble-ensemble degeneracy: its middle mode
    # is the dark state, with no cavity content
    def gap(angle):
        nu_i, nu_ii = _spin_curves(tunings, angle)[0]
        return nu_i - nu_ii

    dark = _find_root(gap, 35.0, 65.0, xtol=1e-12)
    sv_wide = np.append(np.linspace(10.0, 90.0, 17), dark)
    modes = np.append(np.arange(17) % 3, 1)
    two = avoided_crossing_model(sv_wide, modes, tunings)
    theta = [7.5, 5.6, CENTER, 0.0]
    assert abs(two(theta)[1][-1, 2]) < 1e-12  # v_0^2 of the dark mode
    assert jacobian_check(two, theta) < 1e-6
    probe = np.linspace(CENTER - 20.0, CENTER + 20.0, 41)
    dev_full = jacobian_check(
        transmission_model(probe, sv, tun_i, tun_ii),
        [7.5, 5.6, 0.32, 4.58, 4.24, CENTER, 0.2],
    )
    assert dev_full < 1e-6


# ---------------------------------------------------------------------------
# spin tuning curves

@pytest.mark.parametrize("kind, fixed", [("angle", 7.7), ("magnitude", 79.0)])
def test_spin_tuning_solves_at_the_offset_sweep_fields(config, kind, fixed):
    ens = config.ensemble("i")
    tuning = SpinTuning.from_ensemble(ens, kind, fixed)
    values = np.linspace(5.0, 9.0, 9)
    shifted = values + 0.3
    held = np.full_like(shifted, fixed)
    mags, angles = (held, shifted) if kind == "angle" else (shifted, held)
    (nu,), (slope,) = _spin_curves((tuning,), values, 0.3)
    np.testing.assert_array_equal(nu, transition_batch(ens.nv, ens.orientation, mags, angles))
    np.testing.assert_array_equal(
        slope, transition_minus_derivative(ens.nv, ens.orientation, mags, angles, kind)
    )


@pytest.mark.parametrize("kind", ["none", "frequency"])
def test_spin_tuning_rejects_sweeps_without_a_field_coordinate(config, kind):
    tuning = SpinTuning.from_ensemble(config.ensemble("i"), kind, 7.7)
    with pytest.raises(ValueError, match=f"unsupported sweep kind '{kind}'"):
        _spin_curves((tuning,), np.array([70.0, 80.0]))


# ---------------------------------------------------------------------------
# avoided-crossing fit

def test_branch_model_minimum_gap_is_2g(tunings):
    tun_i, _ = tunings
    sv = np.linspace(71.0, 87.0, 401)
    lower = avoided_crossing_model(sv, np.zeros(401, dtype=int), [tun_i])([7.5, CENTER, 0.0])[0]
    upper = avoided_crossing_model(sv, np.ones(401, dtype=int), [tun_i])([7.5, CENTER, 0.0])[0]
    assert np.min(upper - lower) == pytest.approx(2 * 7.5, rel=1e-4)


def test_extract_branches_keeps_two_peaks(crossing_grid):
    rows, positions = extract_branches(crossing_grid, DEFAULT_PROMINENCE, 2)
    assert rows.shape == positions.shape
    assert np.all(np.diff(rows) >= 0)
    counts = np.bincount(rows)
    assert counts.max() <= 2
    split_rows = crossing_grid.sweep_values[np.flatnonzero(counts == 2)]
    assert 75.0 < np.median(split_rows) < 83.0


def test_avoided_crossing_noiseless_roundtrip(crossing_grid, tunings):
    result = fit_avoided_crossing(crossing_grid, tunings[0])
    assert result.converged
    assert result.parameters["g"] == pytest.approx(7.5, rel=0.02)
    assert result.parameters["nu_c"] == pytest.approx(CENTER, abs=0.1)
    assert abs(result.parameters["offset"]) < 0.1


def test_avoided_crossing_leaves_out_an_ensemble_outside_the_probe_window(crossing_grid, tunings):
    # ensemble II stays below this grid's probe window at every angle
    alone = fit_avoided_crossing(crossing_grid, tunings[0])
    assert fit_avoided_crossing(crossing_grid, *tunings).parameters == alone.parameters
    with pytest.raises(DegenerateDataError, match="probe window"):
        fit_avoided_crossing(crossing_grid, tunings[1], tunings[0])


def test_avoided_crossing_magnitude_sweep(config, cavity, ens_i):
    # same crossing probed by tuning the field magnitude at 79 degrees
    magnitudes = np.arange(7.0, 8.4 + 1e-9, 0.02)
    probe = np.arange(CENTER - 20.0, CENTER + 20.0 + 1e-9, 0.1)
    fields = [FieldSetting(m, 79.0) for m in magnitudes]
    grid = sweep(cavity, [ens_i], fields, probe, "magnitude")
    tuning = SpinTuning.from_ensemble(ens_i, "magnitude", 79.0)
    result = fit_avoided_crossing(with_noise(grid, 5), tuning)
    assert result.converged
    assert result.parameters["g"] == pytest.approx(7.5, rel=0.02)
    assert abs(result.parameters["offset"]) < 0.05


def test_avoided_crossing_noisy_monte_carlo(crossing_grid, tunings):
    errors = []
    for seed in range(30):
        result = fit_avoided_crossing(with_noise(crossing_grid, seed), tunings[0])
        errors.append(abs(result.parameters["g"] - 7.5) / 7.5)
    assert np.percentile(errors, 95) < 0.02


def test_avoided_crossing_split_peak_goes_to_its_nearest_mode(crossing_grid, tunings):
    # In this realization noise splits the narrow cavity-like peak at
    # 84.75 deg into two peaks 0.24 MHz apart.  Both belong to the mode
    # near 2745.8 MHz; sending one of them to the upper mode, 20 MHz
    # away, puts g 3.1% low with converged=True.
    grid = with_noise(crossing_grid, [1001, 50, 0])
    rows, positions = extract_branches(grid, DEFAULT_PROMINENCE, 2)
    row = positions[rows == np.flatnonzero(grid.sweep_values == 84.75)[0]]
    assert row.size == 2 and row[1] - row[0] < 0.3
    result = fit_avoided_crossing(grid, tunings[0])
    assert result.converged
    assert result.parameters["g"] == pytest.approx(7.5, rel=0.02)


def test_avoided_crossing_needs_split_rows(config, cavity, tunings):
    ens = config.ensemble("i")
    silent = type(ens)(ens.nv, ens.orientation, 1e-9, ens.spin_hwhm)
    magnitude = config.get("field.magnitude_mt")
    angles = np.arange(71.0, 87.0 + 1e-9, 1.0)
    probe = np.arange(CENTER - 20.0, CENTER + 20.0 + 1e-9, 0.1)
    grid = sweep(cavity, [silent], [FieldSetting(magnitude, a) for a in angles], probe, "angle")
    with pytest.raises(DegenerateDataError):
        fit_avoided_crossing(grid, tunings[0])


def test_avoided_crossing_coverage_counts_rows_not_sweep_values(tunings):
    # Rows 0 and 1 repeat the sweep value 80.0 with one peak each; only
    # row 2 holds a pair.  Merged by sweep value, rows 0 and 1 would
    # pass for a second row with a pair.
    nu = _spin_curves(tunings[:1], [80.0, 81.0])[0][0]
    probe = np.arange(nu.min() - 20.0, nu.max() + 20.0 + 1e-9, 0.1)

    def bumps(*centers):
        return sum(1.0 / (1.0 + ((probe - c) / 0.5) ** 2) for c in centers)

    amps = np.vstack([bumps(nu[0] - 8.0), bumps(nu[0] + 8.0), bumps(nu[1] - 8.0, nu[1] + 8.0)])
    grid = SpectrumGrid(probe, [80.0, 80.0, 81.0], 0.01 + amps, "angle")
    rows, _ = extract_branches(grid, DEFAULT_PROMINENCE, 2)
    assert rows.tolist() == [0, 1, 2, 2]
    with pytest.raises(DegenerateDataError, match="insufficient branch coverage"):
        fit_avoided_crossing(grid, tunings[0])


# ---------------------------------------------------------------------------
# full transmission fit

TRUTH = np.array([7.5, 5.6, 0.32, 4.58, 4.24, CENTER, 0.0])


def test_full_transmission_roundtrip(full_grid, tunings):
    init = TRUTH * np.array([1.2, 0.8, 1.2, 0.8, 1.2, 1.0, 1.0])
    init[6] = 0.3
    errors = {"g_i": [], "g_ii": [], "kappa": []}
    for seed in range(5):
        result = fit_full_transmission(with_noise(full_grid, seed), *tunings, init=init)
        assert result.converged
        for key, truth in (("g_i", 7.5), ("g_ii", 5.6), ("kappa", 0.32)):
            errors[key].append(abs(result.parameters[key] - truth) / truth)
    for key in errors:
        assert max(errors[key]) < 0.03


def test_full_transmission_basin(full_grid, tunings):
    noisy = with_noise(full_grid, 42)
    results = []
    for factor in (0.8, 1.2):
        init = TRUTH * factor
        init[5] = CENTER + (factor - 1.0)
        init[6] = factor - 1.0
        results.append(fit_full_transmission(noisy, *tunings, init=init))
    for result in results:
        assert result.converged
        assert result.parameters["g_i"] == pytest.approx(7.5, rel=0.03)


def test_full_transmission_default_init(full_grid, tunings):
    result = fit_full_transmission(with_noise(full_grid, 3), *tunings)
    assert result.converged
    assert result.parameters["g_i"] == pytest.approx(7.5, rel=0.03)
    assert result.parameters["g_ii"] == pytest.approx(5.6, rel=0.03)


def test_full_fit_seed_runs_under_the_same_iteration_budget(full_grid, tunings, monkeypatch):
    budgets = []
    original = fitting.levenberg_marquardt

    def spy(*args, **kwargs):
        budgets.append(kwargs["max_iter"])
        return original(*args, **kwargs)

    monkeypatch.setattr(fitting, "levenberg_marquardt", spy)
    fit_full_transmission(full_grid, *tunings, max_iter=17)
    assert len(budgets) >= 2 and set(budgets) == {17}


@pytest.mark.parametrize("seed", range(3))
def test_cold_full_fit_where_row_0_is_not_the_bare_cavity(cold_grid, tunings, seed):
    result = fit_full_transmission(with_noise(cold_grid, seed), *tunings)
    assert result.converged
    for key, truth in (("g_i", 7.5), ("g_ii", 5.6), ("kappa", 0.32)):
        assert result.parameters[key] == pytest.approx(truth, rel=0.03)


@pytest.mark.parametrize("cell", [np.nan, np.inf])
@pytest.mark.parametrize("fit", [fit_avoided_crossing, fit_full_transmission])
def test_grid_fits_reject_a_non_finite_cell(full_grid, tunings, fit, cell):
    # A NaN has no maximum, so its row would drop out of the peak search
    # without a word; every grid fit refuses it up front instead.
    for grid in (with_noise(full_grid, 3), full_grid):
        amplitudes = grid.amplitudes.copy()
        amplitudes[40, 17] = cell
        bad = dataclasses.replace(grid, amplitudes=amplitudes)
        with pytest.raises(DegenerateDataError, match="non-finite grid cell in row 40, column 17"):
            fit(bad, *tunings)


@pytest.mark.parametrize("fit", [fit_avoided_crossing, fit_full_transmission])
def test_grid_fits_reject_a_descending_probe_axis(full_grid, tunings, fit):
    # the rule read_grid applies to a file holds for a grid built in memory
    reversed_grid = dataclasses.replace(
        full_grid,
        probe_frequencies=full_grid.probe_frequencies[::-1],
        amplitudes=full_grid.amplitudes[:, ::-1],
    )
    with pytest.raises(ValidationError, match="probe frequencies are not strictly increasing"):
        fit(reversed_grid, *tunings)


@pytest.mark.parametrize("fit", [fit_avoided_crossing, fit_full_transmission])
def test_grid_fits_refuse_tunings_of_another_sweep_kind(cavity, ens_i, ens_ii, fit, monkeypatch):
    # Angle tunings on a magnitude sweep once gave a converged full fit
    # with g_ii = 0 and an offset of -10.6 mT; the fits refuse them
    # before any spin solve.
    magnitudes = np.arange(7.0, 8.5 + 1e-9, 0.05)
    probe = np.arange(2720.0, 2780.0 + 1e-9, 0.25)
    fields = [FieldSetting(m, 79.0) for m in magnitudes]
    grid = sweep(cavity, [ens_i, ens_ii], fields, probe, "magnitude")
    tunings = [SpinTuning.from_ensemble(e, "angle", 8.0) for e in (ens_i, ens_ii)]

    def no_spin_solve(*args):
        raise AssertionError("spin solve before the sweep-kind check")

    monkeypatch.setattr(fitting, "_spin_curves", no_spin_solve)
    message = "'angle' spin tuning cannot fit a grid with sweep_kind='magnitude'"
    with pytest.raises(ValidationError, match=message):
        fit(grid, *tunings)
    mixed = [tunings[0], SpinTuning.from_ensemble(ens_ii, "magnitude", 79.0)]
    with pytest.raises(ValidationError, match="'angle' spin tuning"):
        fit(grid, *mixed)


def test_transmission_model_refuses_tunings_of_two_sweep_kinds(full_grid, tunings):
    magnitude_tuning = dataclasses.replace(tunings[1], sweep_kind="magnitude", fixed=55.0)
    model = transmission_model(
        full_grid.probe_frequencies, full_grid.sweep_values, tunings[0], magnitude_tuning
    )
    with pytest.raises(ValueError, match="share a sweep kind"):
        model(np.array([7.5, 5.6, 0.32, 1.0, 1.0, CENTER, 0.0]))


def test_cold_full_fit_on_the_default_grid(config, cavity, ens_i, ens_ii, tunings):
    magnitude = config.get("field.magnitude_mt")
    angles = range_values(config.get("sweep.angles_deg"))
    probe = range_values(config.get("sweep.probe_mhz"))
    grid = sweep(cavity, [ens_i, ens_ii], [FieldSetting(magnitude, a) for a in angles], probe,
                 "angle")
    result = fit_full_transmission(grid, *tunings)
    assert result.converged
    assert result.iterations <= 20
    for key, truth in (("g_i", 7.5), ("g_ii", 5.6), ("kappa", 0.32)):
        assert result.parameters[key] == pytest.approx(truth, rel=0.03)


def test_avoided_crossing_on_a_two_ensemble_field_sweep(config, cavity, ens_i, ens_ii):
    magnitudes = range_values(config.get("sweep.magnitudes_mt"))
    probe = np.arange(2720.0, 2780.0 + 1e-9, 0.25)
    fields = [FieldSetting(b, 79.0) for b in magnitudes]
    grid = sweep(cavity, [ens_i, ens_ii], fields, probe, "magnitude")
    tuning_i, tuning_ii = (SpinTuning.from_ensemble(e, "magnitude", 79.0) for e in (ens_i, ens_ii))
    result = fit_avoided_crossing(grid, tuning_i, tuning_ii)
    assert result.converged
    assert result.parameters["g"] == pytest.approx(7.5, rel=0.02)


def test_initial_guess_orders_of_magnitude(full_grid, tunings):
    guess = initial_guess_full(full_grid, *tunings)
    assert 1.0 < guess[0] < 15.0
    assert 0.05 < guess[2] < 2.0
    assert abs(guess[5] - CENTER) < 2.0


def test_restricted_grid_pins_collective_coupling(config, cavity, ens_i, ens_ii, tunings):
    # Between the individual crossings only the quadrature sum of the
    # couplings is well determined: the residual stays flat along the
    # fixed-g_col circle and grows quickly along the radius.
    magnitude = config.get("field.magnitude_mt")
    angles = np.arange(40.0, 56.0 + 1e-9, 0.5)
    probe = np.arange(CENTER - 15.0, CENTER + 15.0 + 1e-9, 0.1)
    fields = [FieldSetting(magnitude, a) for a in angles]
    grid = sweep(cavity, [ens_i, ens_ii], fields, probe, "angle")
    noisy = with_noise(grid, 11, level=0.002)

    init = TRUTH.copy()
    init[0] *= 1.1
    init[1] *= 0.9
    result = fit_full_transmission(noisy, *tunings, init=init)
    g_col_true = math.hypot(7.5, 5.6)
    g_col_fit = math.hypot(result.parameters["g_i"], result.parameters["g_ii"])
    assert result.converged
    assert g_col_fit == pytest.approx(g_col_true, rel=0.03)

    model = transmission_model(grid.probe_frequencies, grid.sweep_values, *tunings)
    data = noisy.magnitudes.ravel()

    def cost(g_i, g_ii):
        values, _ = model([g_i, g_ii, 0.32, 4.58, 4.24, CENTER, 0.0])
        return float(np.sum((values - data) ** 2))

    base = cost(7.5, 5.6)
    # rotate along the circle by 5 degrees vs scale the radius by 5%
    phi = math.atan2(5.6, 7.5) + math.radians(5.0)
    along = cost(g_col_true * math.cos(phi), g_col_true * math.sin(phi))
    radial = cost(7.5 * 1.05, 5.6 * 1.05)
    assert (along - base) < 0.2 * (radial - base)


# ---------------------------------------------------------------------------
# transmission Jacobian against the per-column reference


def reference_transmission_model(probe, sweep_values, tuning_i, tuning_ii, theta):
    """|S21| and its Jacobian column by column, d|S| = Re(conj(S) dS)/|S|,
    with every complex partial dS/dtheta written out separately."""
    g_i, g_ii, kappa, gamma_i, gamma_ii, nu_c, offset = theta
    nu = np.asarray(probe, dtype=float)[None, :]
    den = 1j * (nu_c - nu) + kappa
    terms = []
    for g, gamma, tuning in ((g_i, gamma_i, tuning_i), (g_ii, gamma_ii, tuning_ii)):
        nu_s, dnu_s = (x[0, :, None] for x in _spin_curves((tuning,), sweep_values, offset))
        pole = 1j * (nu_s - nu) + gamma
        terms.append((g, pole, dnu_s))
        den = den + g**2 / pole
    s = kappa / den
    absval = np.abs(s)
    inv_den2 = 1.0 / den**2
    partials = [-kappa * inv_den2 * (2.0 * g / pole) for g, pole, _ in terms]
    partials.append((den - kappa) * inv_den2)
    partials += [-kappa * inv_den2 * (-(g**2) / pole**2) for g, pole, _ in terms]
    partials.append(-kappa * inv_den2 * 1j)
    d_off = sum((-(g**2) / pole**2) * (1j * dnu_s) for g, pole, dnu_s in terms)
    partials.append(-kappa * inv_den2 * d_off)
    jac = np.empty((absval.size, 7))
    for col, ds in enumerate(partials):
        ds_full = np.broadcast_to(ds, s.shape)
        jac[:, col] = (np.real(np.conj(s) * ds_full) / np.maximum(absval, 1e-300)).ravel()
    return absval.ravel(), jac


@pytest.fixture(scope="module")
def cold_grid(config, cavity, ens_i, ens_ii):
    # starts at 0 deg, where row 0 is not the bare cavity
    magnitude = config.get("field.magnitude_mt")
    angles = np.arange(0.0, 90.0 + 1e-9, 2.0)
    probe = np.arange(CENTER - 30.0, CENTER + 30.0 + 1e-9, 0.25)
    return sweep(cavity, [ens_i, ens_ii], [FieldSetting(magnitude, a) for a in angles],
                 probe, "angle")


def perturbed_start():
    init = TRUTH * np.array([1.2, 0.8, 1.2, 0.8, 1.2, 1.0, 1.0])
    init[6] = 0.3
    return init


@pytest.mark.parametrize("point", ["truth", "perturbed", "cold-guess", "tiny-g_ii"])
def test_transmission_jacobian_matches_reference(point, full_grid, cold_grid, tunings):
    grid = cold_grid if point == "cold-guess" else full_grid
    theta = {
        "truth": TRUTH,
        "perturbed": perturbed_start(),
        "cold-guess": initial_guess_full(cold_grid, *tunings),
        "tiny-g_ii": np.array([7.5, 1e-9, 0.32, 4.58, 4.24, CENTER, 0.2]),
    }[point]
    args = (grid.probe_frequencies, grid.sweep_values, *tunings)
    values, jac = transmission_model(*args)(theta)
    ref_values, ref_jac = reference_transmission_model(*args, theta)
    assert isinstance(values, np.ndarray) and isinstance(jac, np.ndarray)
    assert jac.shape == ref_jac.shape == (values.size, 7)
    np.testing.assert_allclose(values, ref_values, rtol=1e-13, atol=0.0)
    col_scale = np.max(np.abs(ref_jac), axis=0)
    assert np.all(col_scale > 0)
    assert np.max(np.abs(jac - ref_jac) / col_scale) <= 1e-12


def _block_grid(kind):
    """(probe, sweep values) of a grid whose row blocks have the named shape."""
    probe = np.arange(CENTER - 30.0, CENTER + 30.0 + 1e-9, 0.25)
    if kind == "ragged":
        angles = np.arange(0.0, 90.0 + 1e-9, 0.5)
    elif kind == "long-probe":
        angles = np.array([20.0, 51.0, 79.0])
        probe = np.linspace(CENTER - 30.0, CENTER + 30.0, transmission._BLOCK_POINTS + 101)
    else:
        angles = np.array([51.0])
    return probe, angles


@pytest.mark.parametrize("kind", ["ragged", "long-probe", "one-row"])
def test_blocked_transmission_model_is_bit_identical_to_one_block(
    kind, cold_grid, tunings, monkeypatch
):
    probe, angles = _block_grid(kind)
    blocks = [(b.start, b.stop) for b in _row_blocks(angles.size, probe.size)]
    assert blocks[0][0] == 0 and blocks[-1][1] == angles.size
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    if kind == "ragged":
        sizes = [stop - start for start, stop in blocks]
        assert len(sizes) >= 3 and sizes[-1] < sizes[0]
    elif kind == "long-probe":
        assert probe.size > transmission._BLOCK_POINTS
        assert len(blocks) == angles.size
    thetas = [
        TRUTH,
        perturbed_start(),
        initial_guess_full(cold_grid, *tunings),
        np.array([7.5, 1e-9, 0.32, 4.58, 4.24, CENTER, 0.2]),
    ]
    blocked = [transmission_model(probe, angles, *tunings)(theta) for theta in thetas]
    monkeypatch.setattr(transmission, "_BLOCK_POINTS", 10**12)
    assert len(list(_row_blocks(angles.size, probe.size))) == 1
    whole = transmission_model(probe, angles, *tunings)
    for theta, (values, jac) in zip(thetas, blocked):
        ref_values, ref_jac = whole(theta)
        assert jac.shape == (probe.size * angles.size, 7)
        assert jac.T.flags.c_contiguous
        assert np.array_equal(values, ref_values)
        assert np.array_equal(jac, ref_jac)


@pytest.mark.parametrize("kind", ["ragged", "long-probe", "one-row"])
def test_transmission_model_gram_form_matches_its_jacobian(kind, tunings):
    # model(theta, data) sums [J r]^T [J r] block by block; the values
    # come from the same formula and are bit-identical to model(theta)'s.
    probe, angles = _block_grid(kind)
    blocks = [rows.stop - rows.start for rows in _row_blocks(angles.size, probe.size)]
    if kind == "ragged":
        assert len(blocks) >= 3 and blocks[-1] < blocks[0]
    elif kind == "one-row":
        assert blocks == [1]
    model = transmission_model(probe, angles, *tunings)
    rng = np.random.default_rng(7)
    data = model(TRUTH)[0] * (1.0 + 0.01 * rng.standard_normal(probe.size * angles.size))
    for theta in (TRUTH, perturbed_start()):
        values, jac = model(theta)
        values_g, gram = model(theta, data)
        assert np.array_equal(values_g, values)
        jr = np.column_stack((jac, values - data))
        ref = jr.T @ jr
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        assert gram.shape == (8, 8)
        assert np.all(np.abs(gram - ref) <= 1e-12 * scale)


def _bits(arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("kind", ["ragged", "long-probe", "one-row"])
def test_warm_transmission_model_equals_a_fresh_one(kind, cold_grid, tunings):
    # The closure's block workspace outlives a call: nothing may carry
    # over from an earlier block, call or call form, and no output may
    # alias the workspace or an earlier output.
    probe, angles = _block_grid(kind)
    warm = transmission_model(probe, angles, *tunings)
    rng = np.random.default_rng(3)
    data = warm(TRUTH)[0] * (1.0 + 0.01 * rng.standard_normal(probe.size * angles.size))
    thetas = [
        perturbed_start(),
        initial_guess_full(cold_grid, *tunings),
        np.array([7.5, 1e-9, 0.32, 4.58, 4.24, CENTER, 0.2]),
        TRUTH,
    ]
    outputs = []
    for theta in thetas:
        for args in ((theta,), (theta, data)):
            got = warm(*args)
            fresh = transmission_model(probe, angles, *tunings)(*args)
            assert _bits(got) == _bits(fresh)
            outputs.extend(got)
    for k, a in enumerate(outputs):
        assert not any(np.shares_memory(a, b) for b in outputs[k + 1 :])


def test_warm_transmission_model_allocates_little_beyond_its_values(full_grid, tunings):
    # criterion 9's 81x241 grid: the block temporaries live in the
    # closure's workspace, so a warm Gram-form call allocates its values
    # and small arrays only (about 3 MB of temporaries before).
    model = transmission_model(full_grid.probe_frequencies, full_grid.sweep_values, *tunings)
    data = with_noise(full_grid, 1).amplitudes.ravel()
    theta = perturbed_start()
    model(theta, data)
    tracemalloc.start()
    try:
        values, _ = model(theta, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes + 512 * 1024


def test_small_models_return_the_gram_matrix_of_their_jacobian(tunings):
    xs = np.linspace(0.0, 20.0, 41)
    sv = np.linspace(71.0, 87.0, 17)
    cases = [
        (lorentzian_model(xs), [0.9, 10.3, 0.8, 0.05]),
        (avoided_crossing_model(sv, np.arange(17) % 2, tunings[:1]), [7.5, CENTER, 0.3]),
        (avoided_crossing_model(sv, np.arange(17) % 3, tunings), [7.5, 5.6, CENTER, 0.3]),
    ]
    for model, theta in cases:
        values, jac = model(theta)
        data = values + np.linspace(-0.1, 0.1, values.size)
        values_g, gram = model(theta, data)
        assert np.array_equal(values_g, values)
        assert gram.shape == (len(theta) + 1,) * 2
        assert np.array_equal(gram, _gram(values, jac, data))
        assert gram[-1, -1] == pytest.approx(float(np.sum((values - data) ** 2)), rel=1e-12)


def test_branch_modes_per_distinct_row_match_one_solve_per_peak(crossing_grid, tunings):
    # The branch model solves once per distinct sweep value; every peak
    # of a row sees the same modes.
    svals = crossing_grid.sweep_values[extract_branches(crossing_grid, DEFAULT_PROMINENCE, 2)[0]]
    distinct, row_of = np.unique(svals, return_inverse=True)
    assert distinct.size < svals.size
    for tun, theta in ((tunings[:1], [7.4, CENTER + 0.2, 0.1]),
                       (tunings, [7.4, 5.5, CENTER + 0.2, 0.1])):
        per_peak = _branch_modes(svals, np.array(theta), tun)
        per_row = _branch_modes(distinct, np.array(theta), tun)
        for a, b in zip(per_peak, per_row):
            assert np.array_equal(a, b[row_of])


def fit_branches_once(monkeypatch, grid, tuns, **kwargs):
    """fit_avoided_crossing(grid, *tuns), checked to make one LM call;
    returns the result and the start that call was given."""
    starts = []
    lm = fitting.levenberg_marquardt

    def spy(model, data, theta0, **lm_kwargs):
        starts.append(np.array(theta0, dtype=float))
        return lm(model, data, theta0, **lm_kwargs)

    monkeypatch.setattr(fitting, "levenberg_marquardt", spy)
    result = fit_avoided_crossing(grid, *tuns, **kwargs)
    monkeypatch.setattr(fitting, "levenberg_marquardt", lm)
    assert len(starts) == 1
    return result, starts[0]


def nearest_modes(grid, tuns, theta, prominence=DEFAULT_PROMINENCE):
    """Each branch peak's nearest eigenvalue at theta, from one solve per
    peak: (peak positions, sweep values, mode indices, eigenvalues)."""
    rows, nuhat = extract_branches(grid, prominence, len(tuns) + 1)
    svals = grid.sweep_values[rows]
    lam = _branch_modes(svals, np.asarray(theta, dtype=float), tuns)[0]
    modes = np.argmin(np.abs(lam - nuhat[:, None]), axis=1)
    return nuhat, svals, modes, lam[np.arange(nuhat.size), modes]


def test_branch_fit_solves_the_modes_once_per_model_evaluation(
    crossing_grid, full_grid, tunings, monkeypatch
):
    # The model matches peaks to modes from the solve it makes anyway,
    # so a branch fit solves nothing outside its model evaluations.
    inside, solves, evaluations = [False], [], []
    solve, factory = fitting._branch_modes, fitting.avoided_crossing_model

    def counted_solve(*args):
        solves.append(inside[0])
        return solve(*args)

    def counted_factory(*args):
        model = factory(*args)

        def counted_model(theta, data=None):
            evaluations.append(theta)
            inside[0] = True
            try:
                return model(theta, data)
            finally:
                inside[0] = False

        return counted_model

    monkeypatch.setattr(fitting, "_branch_modes", counted_solve)
    monkeypatch.setattr(fitting, "avoided_crossing_model", counted_factory)
    for grid, tuns in ((crossing_grid, tunings[:1]), (full_grid, tunings)):
        solves.clear()
        evaluations.clear()
        assert fit_avoided_crossing(with_noise(grid, 3), *tuns).converged
        assert len(solves) == len(evaluations) > 0
        assert all(solves)


def test_branch_model_without_modes_is_the_model_of_the_nearest_modes(
    full_grid, tunings, monkeypatch
):
    # Away from the fit's start, two peaks of the clean two-ensemble
    # grid go to other modes; the modes=None Gram form there is, bit
    # for bit, the form given those nearest modes.
    _, seed = fit_branches_once(monkeypatch, full_grid, tunings)
    theta = np.array([7.5, 5.6, CENTER, 5.0])
    nuhat, svals, modes, _ = nearest_modes(full_grid, tunings, theta)
    assert not np.array_equal(modes, nearest_modes(full_grid, tunings, seed)[2])
    free = avoided_crossing_model(svals, None, tunings)(theta, nuhat)
    given = avoided_crossing_model(svals, modes, tunings)(theta, nuhat)
    for a, b in zip(free, given):
        assert a.tobytes() == b.tobytes()
    with pytest.raises(ValueError, match="needs data"):
        avoided_crossing_model(svals, None, tunings)(theta)


def test_branch_fit_ends_with_every_peak_on_its_nearest_mode(config, cavity, tunings, monkeypatch):
    # With 3% noise on this grid, peaks nearest one mode at the start are
    # nearest another at the fitted theta; fitting the start's modes
    # throughout ends on peaks matched to a farther mode.  One LM call
    # converges, and its residual is every peak's against its nearest
    # eigenvalue at the returned theta.
    magnitude = config.get("field.magnitude_mt")
    fields = [FieldSetting(magnitude, a) for a in range_values("0:90:1")]
    clean = sweep(cavity, [config.ensemble("i"), config.ensemble("ii")], fields,
                  range_values("2720:2780:0.25"), "angle")
    grid = with_noise(clean, 0, level=0.03)
    for tuns in (tunings, tunings[::-1]):
        result, seed = fit_branches_once(monkeypatch, grid, tuns, prominence=0.02)
        assert result.converged
        theta = list(result.parameters.values())
        nuhat, _, modes, fitted = nearest_modes(grid, tuns, theta, 0.02)
        assert not np.array_equal(modes, nearest_modes(grid, tuns, seed, 0.02)[2])
        assert result.residual_norm == pytest.approx(float(np.linalg.norm(fitted - nuhat)), rel=1e-12)


# ---------------------------------------------------------------------------
# solver internals


def _full_fit_problem(full_grid, tunings, seed):
    grid = with_noise(full_grid, seed)
    model = transmission_model(grid.probe_frequencies, grid.sweep_values, *tunings)
    data = grid.magnitudes.ravel()
    return model, data


def forcing_a_rejection(model, trial):
    """`model`, except that on call number `trial` (call 0 is the start,
    call 1 the first trial step) the cost entry of G is raised to ten
    times the start's cost, so that levenberg_marquardt must reject that
    step whatever the last bits of the model.  None forces nothing."""
    costs = []

    def forced(theta, data=None):
        values, gram = model(theta, data)
        costs.append(gram[-1, -1])
        if len(costs) - 1 == trial:
            gram[-1, -1] = 10.0 * costs[0]
        return values, gram

    return forced


# Seeds 0 and 5 reject a step of their own, at the minimum, where the
# trial's cost differs from the accepted one in the 15th digit.  Seed 1
# rejects none of its own; its second trial step is rejected by force.
REJECTIONS = {"0": (0, None), "5": (5, None), "forced": (1, 2)}


@pytest.mark.parametrize("case", REJECTIONS)
def test_lm_evaluates_once_per_trial_step_and_not_after_convergence(full_grid, tunings, case):
    seed, trial = REJECTIONS[case]
    model, data = _full_fit_problem(full_grid, tunings, seed)
    model = forcing_a_rejection(model, trial)
    calls = []

    def traced(theta, data=None):
        values, gram = model(theta, data)
        calls.append((np.array(theta), float(gram[-1, -1])))
        return values, gram

    positive = (True, True, True, True, True, False, False)
    result = levenberg_marquardt(traced, data, perturbed_start(), _FULL_NAMES, positive)
    assert result.converged
    # Replay: the first call is the start and every later call one trial
    # step, accepted exactly when it does not raise the cost.  An extra
    # evaluation after convergence would show up as one more "accepted"
    # step than the history records.
    best = calls[0][1]
    accepted = []
    for theta, cost in calls[1:]:
        if cost <= best:
            best = cost
            accepted.append(theta)
    assert len(calls) - 1 > len(accepted)  # the path includes rejected steps
    assert len(accepted) == len(result.history) - 1
    final = np.array([result.parameters[name] for name in _FULL_NAMES])
    assert np.array_equal(accepted[-1], final)
    assert np.array_equal(calls[-1][0], final)


def test_lm_frees_rejected_jacobians_before_the_next_trial(full_grid, tunings):
    # Both paths include rejected steps (see REJECTIONS).  The solver
    # asks the model for the 8x8 Gram matrix [J r]^T [J r], never for a
    # Jacobian, and keeps only the products of the accepted point, so at
    # every model call no earlier grid-sized output is still alive.
    for seed, trial in (REJECTIONS["5"], REJECTIONS["forced"]):
        model, data = _full_fit_problem(full_grid, tunings, seed)
        model = forcing_a_rejection(model, trial)
        outputs = []
        alive = []

        def traced(theta, data=None):
            alive.append(sum(ref() is not None for ref in outputs))
            values, gram = model(theta, data)
            assert gram.shape == (8, 8)
            outputs.append(weakref.ref(values))
            return values, gram

        positive = (True, True, True, True, True, False, False)
        result = levenberg_marquardt(traced, data, perturbed_start(), _FULL_NAMES, positive)
        assert result.converged
        assert len(alive) - 1 > len(result.history) - 1  # rejected steps happened
        assert max(alive) == 0


@pytest.fixture(scope="module")
def fine_grid(config, cavity, ens_i, ens_ii):
    magnitude = config.get("field.magnitude_mt")
    angles = np.arange(0.0, 90.0 + 1e-9, 0.5)
    probe = np.arange(CENTER - 30.0, CENTER + 30.0 + 1e-9, 0.05)
    return sweep(cavity, [ens_i, ens_ii], [FieldSetting(magnitude, a) for a in angles],
                 probe, "angle")


def test_lm_peak_memory_stays_below_two_jacobians(fine_grid, tunings):
    # The model sums the normal equations block by block, so no Jacobian
    # exists during the fit: the peak is the values (a seventh of a
    # Jacobian) plus a few MB of per-block buffers, about 0.46 of a
    # Jacobian on this grid.  One more grid-sized float array (a residual
    # vector, say) adds another seventh and breaks the bound.
    model, data = _full_fit_problem(fine_grid, tunings, 1)
    assert data.size > 200_000
    jac_bytes = 7 * data.nbytes
    calls = []

    def traced(theta, data=None):
        calls.append(theta)
        return model(theta, data)

    positive = (True, True, True, True, True, False, False)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = levenberg_marquardt(traced, data, perturbed_start(), _FULL_NAMES, positive)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.converged
    assert len(calls) > 2
    assert (peak - before) / jac_bytes < 0.55


def test_full_fit_reads_a_parsed_grid_without_copying_it(fine_grid, tunings, tmp_path):
    # The amplitudes of a grid from read_grid are a strided view of the
    # parsed table, and the fit reads them in place.  Its peak is then the
    # model's values (1.0 of the amplitudes' bytes) plus its block
    # workspace (1.6 on this grid); a copy of the data adds 1.0 more.
    path = tmp_path / "grid.csv"
    write_grid(path, with_noise(fine_grid, 1))
    grid, _ = read_grid(path)
    assert not grid.amplitudes.flags.c_contiguous
    tracemalloc.start()
    try:
        result = fit_full_transmission(grid, *tunings, init=perturbed_start(), max_iter=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.iterations == 2
    assert peak / grid.amplitudes.nbytes < 3.1


def test_standard_errors_reuse_the_final_jacobian(full_grid, tunings):
    model, data = _full_fit_problem(full_grid, tunings, 3)
    positive = (True, True, True, True, True, False, False)
    result = levenberg_marquardt(model, data, perturbed_start(), _FULL_NAMES, positive)
    assert result.converged
    final = np.array([result.parameters[name] for name in _FULL_NAMES])
    gram = model(final, data)[1]
    expected = _standard_errors(gram[:7, :7], float(gram[7, 7]), data.size)
    assert [result.standard_errors[name] for name in _FULL_NAMES] == list(expected)


@pytest.mark.filterwarnings("error")
def test_sigmoid_is_stable_for_large_arguments():
    q = np.array([-1000.0, -745.0, -30.0, 0.0, 30.0, 1000.0])
    values = _sigmoid(q)
    assert values[0] == 0.0
    assert 0.0 < values[1] < 1e-320
    assert values[2] == pytest.approx(math.exp(-30.0), rel=1e-15)
    nonneg = q >= 0
    # bit-identical to the plain formula where that cannot overflow
    assert np.array_equal(values[nonneg], 1.0 / (1.0 + np.exp(-q[nonneg])))
    assert values[-1] == 1.0


def test_levenberg_marquardt_unconverged_flag():
    xs = np.linspace(0.0, 1.0, 16)
    target = np.sin(3 * xs)

    def model(theta, data=None):
        values = theta[0] * xs
        return values, _gram(values, xs[:, None], data)

    result = levenberg_marquardt(model, target, [0.0], names=("slope",), max_iter=1)
    assert result.iterations <= 1
    assert result.converged is False
    assert result.standard_errors is None
    # a single accepted Gauss-Newton step solves the linear problem
    assert result.parameters["slope"] == pytest.approx(
        float(np.dot(xs, target) / np.dot(xs, xs)), rel=1e-3
    )


def test_levenberg_marquardt_stops_when_the_damping_stalls():
    # A Jacobian of the wrong sign sends every trial step uphill, so the
    # damping passes its cap within the first iteration.
    xs = np.linspace(0.0, 1.0, 16)

    def model(theta, data=None):
        values = theta[0] * xs
        return values, _gram(values, -xs[:, None], data)

    result = levenberg_marquardt(model, 2.0 * xs, [1.0], names=("slope",))
    assert result.converged is False
    assert result.iterations == 1
    assert len(result.history) == 1
    assert result.parameters == {"slope": 1.0}


def test_positive_parameter_underflowing_to_zero_fails_the_fit():
    # The best positive constant below negative data is 0; the softplus
    # of the internal coordinate underflows to exactly 0.0 on the way.
    def model(theta, data=None):
        values = np.full(16, theta[0])
        return values, _gram(values, np.ones((16, 1)), data)

    result = levenberg_marquardt(model, np.full(16, -1.0), [1.0], ("g",), positive=(True,))
    assert result.parameters["g"] == 0.0
    assert result.converged is False
    assert result.standard_errors is None


def test_positive_constraint_respected():
    xs = np.linspace(CENTER - 4.0, CENTER + 4.0, 101)
    ys = lorentzian_model(xs)((0.5, CENTER, 0.2, 0.0))[0]
    result = fit_lorentzian(xs, ys, init=[0.4, CENTER + 1.0, 3.0, 0.0])
    assert result.parameters["hwhm"] > 0
    assert result.parameters["hwhm"] == pytest.approx(0.2, rel=1e-4)
