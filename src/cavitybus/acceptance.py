"""Acceptance criteria, runnable via the `selftest` subcommand.

Each criterion function returns a CriterionResult with a deterministic
detail string (no timestamps or timings), so two selftest runs produce
byte-identical output.  Criterion 3 encodes a known structural property
of the fixed-resonance calibration: the ensemble-ensemble degeneracy
falls exactly midway between the two fixed resonance angles, which for
the default 79/23 targets is 51.0 degrees rather than the quoted 48.1;
the criterion is evaluated as stated, names the configured angles and
their midpoint in its detail, and reports its failure honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .calibrate import _find_root, calibrate_geometry, locate_degeneracy
from .config import ExperimentConfig
from .coupled import collective_coupling, collective_modes
from .dispersive import (
    build_dispersive_model,
    derived_pump_range,
    dispersive_deviation,
    dispersive_model_from_frequencies,
    dispersive_spin_modes,
    drive_weights,
    ensemble_ensemble_coupling,
    pump_probe_signal,
)
from .fitting import (
    _FULL_NAMES,
    SpinTuning,
    fit_avoided_crossing,
    fit_full_transmission,
    fit_polariton_width,
    jacobian_check,
    lorentzian_model,
    avoided_crossing_model,
    transmission_model,
)
from .spin import FieldSetting, thermal_polarization
from .transmission import SpectrumGrid, peak_positions, peak_splitting, s21, sweep
from .gridio import grid_to_text

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index:2d} {self.name}: {status} ({self.detail})"


def _degenerate_row(config):
    """(probe, |S21|) over the cavity +-30 MHz, both ensembles on it."""
    cavity = config.cavity()
    probe = np.arange(cavity.center - 30.0, cavity.center + 30.0 + 1e-9, 0.005)
    pairs = [
        (config.ensemble("i"), cavity.center),
        (config.ensemble("ii"), cavity.center),
    ]
    return probe, np.abs(s21(probe, cavity, pairs))


def criterion_collective_enhancement(config) -> CriterionResult:
    g_i = config.ensemble("i").coupling
    g_ii = config.ensemble("ii").coupling
    g_col = collective_coupling([g_i, g_ii])
    coupling_ok = abs(g_col - 9.3597) <= 0.01

    split = peak_splitting(*_degenerate_row(config))
    split_dev = abs(split - 2.0 * g_col) / (2.0 * g_col)
    split_ok = split_dev <= 0.01
    return CriterionResult(
        1,
        "collective-enhancement",
        coupling_ok and split_ok,
        f"g_col={g_col:.6f} MHz vs 9.3597+-0.01; "
        f"fitted splitting={split:.4f} MHz vs 2*g_col={2 * g_col:.4f} "
        f"(dev {100 * split_dev:.3f}% <= 1%)",
    )


def criterion_dark_state(config) -> CriterionResult:
    cavity = config.cavity()
    g_i = config.ensemble("i").coupling
    g_ii = config.ensemble("ii").coupling
    signed = np.multiply(cavity.antinode_signs, (g_i, g_ii))
    vectors = collective_modes(cavity.center, signed, (cavity.center, cavity.center))[1]
    weight = float(vectors[0, 1] ** 2)
    weight_ok = weight < 1e-12

    probe, mag = _degenerate_row(config)
    ic = int(np.argmin(np.abs(probe - cavity.center)))
    no_local_max = mag[ic] <= mag[ic - 1] and mag[ic] <= mag[ic + 1]
    amp_ratio = float(mag[ic] / np.max(mag))
    power_ratio = amp_ratio**2
    ratio_ok = power_ratio < 0.20
    return CriterionResult(
        2,
        "dark-state",
        weight_ok and no_local_max and ratio_ok,
        f"middle-mode photon weight={weight:.3e} < 1e-12; "
        f"center is local minimum={no_local_max}; "
        f"center/peak power ratio={power_ratio:.4f} < 0.20 "
        f"(amplitude ratio {amp_ratio:.4f})",
    )


def criterion_geometry(config) -> CriterionResult:
    result = calibrate_geometry(config)
    deviation = abs(result.degeneracy_angle - 48.1)
    passed = deviation <= 0.5
    angle_i = config.get("calibration.resonance_angle_i_deg")
    angle_ii = config.get("calibration.resonance_angle_ii_deg")
    return CriterionResult(
        3,
        "geometry-degeneracy",
        passed,
        f"calibrated azimuth_i={result.azimuth_i:.4f} deg, "
        f"B={result.magnitude:.6f} mT; located degeneracy angle="
        f"{result.degeneracy_angle:.4f} deg vs 48.1+-0.5; pinning both "
        f"resonances at {angle_i:.1f}/{angle_ii:.1f} deg forces the crossing "
        f"to their midpoint {(angle_i + angle_ii) / 2:.1f} deg (see README)",
    )


def _degenerate_spin_modes(cavity):
    """Dispersive model for g = (7.5, 5.6) MHz at 19.1 MHz detuning, and
    the (bright, dark) modes of its block made exactly degenerate by
    shifting ensemble II's bare frequency until both Lamb-shifted
    diagonal entries coincide."""
    w_i = cavity.center - 19.1
    model = dispersive_model_from_frequencies(cavity, (7.5, 5.6), (w_i, w_i))
    w_ii = w_i - model.chi_i + model.chi_ii
    return model, dispersive_spin_modes(replace(model, transition_ii=w_ii))


def criterion_dispersive_coupling(config) -> CriterionResult:
    u = ensemble_ensemble_coupling(7.5, 5.6, 19.1, 19.1)
    u_ok = abs(u - 2.20) <= 0.01

    model, ((f_hi, *_), (f_lo, *_)) = _degenerate_spin_modes(config.cavity())
    split = abs(f_hi - f_lo)
    split_dev = abs(split - 2.0 * abs(model.u_coupling))
    split_ok = split_dev <= 1e-12
    return CriterionResult(
        4,
        "dispersive-coupling",
        u_ok and split_ok,
        f"U={u:.6f} MHz vs 2.20+-0.01; degenerate spin-block splitting "
        f"deviates from 2U by {split_dev:.3e} (<= 1e-12)",
    )


def _lamb_shifted_degeneracy(config, magnitude):
    cavity = config.cavity()
    ens_i = config.ensemble("i")
    ens_ii = config.ensemble("ii")

    def mismatch(angle):
        model = build_dispersive_model(
            cavity, ens_i, ens_ii, FieldSetting(magnitude, angle)
        )
        return model.spin_block[0, 0] - model.spin_block[1, 1]

    return float(_find_root(mismatch, 35.0, 65.0, xtol=1e-10))


def _count_pump_peaks(config, angle, signs, threshold=0.10):
    cavity = replace(config.cavity(), antinode_signs=signs)
    ens_i = config.ensemble("i")
    ens_ii = config.ensemble("ii")
    field = FieldSetting(config.get("field.dispersive_magnitude_mt"), angle)
    model = build_dispersive_model(cavity, ens_i, ens_ii, field)
    pump = derived_pump_range(dispersive_spin_modes(model))
    shift = pump_probe_signal(model, (ens_i.spin_hwhm, ens_ii.spin_hwhm), pump)
    return peak_positions(pump, -shift, threshold).size


def criterion_selection_rule(config) -> CriterionResult:
    magnitude = config.get("field.dispersive_magnitude_mt")
    angle_star = _lamb_shifted_degeneracy(config, magnitude)
    n_degenerate = _count_pump_peaks(config, angle_star, (1, -1))
    n_split = _count_pump_peaks(config, 23.0, (1, -1))
    n_degenerate_flipped = _count_pump_peaks(config, angle_star, (1, 1))

    # Exact swap of the bright/dark assignment on an exactly degenerate
    # block.  Flipping both antinode signs is a gauge change: the
    # visible state's frequency stays put while the symmetric and
    # antisymmetric combinations trade the bright and dark roles.
    _, (bright_a, dark_a) = _degenerate_spin_modes(config.cavity())
    _, (bright_b, dark_b) = _degenerate_spin_modes(replace(config.cavity(), antinode_signs=(1, 1)))
    assignment_swap = min(
        abs(float(np.dot(bright_b[1], dark_a[1]))),
        abs(float(np.dot(dark_b[1], bright_a[1]))),
    )
    weight_a = drive_weights(7.5, 5.6, (1, -1), bright_a[1])
    weight_b = drive_weights(7.5, 5.6, (1, 1), bright_b[1])
    weight_swap = abs(weight_a - weight_b)
    swap_ok = assignment_swap >= 1.0 - 1e-12 and weight_swap <= 1e-12

    passed = (
        n_degenerate == 1 and n_split == 2 and n_degenerate_flipped == 1 and swap_ok
    )
    return CriterionResult(
        5,
        "selection-rule",
        passed,
        f"peaks at Lamb-shifted degeneracy ({angle_star:.4f} deg)="
        f"{n_degenerate} (expect 1), at 23 deg={n_split} (expect 2); "
        f"sign flip keeps one peak ({n_degenerate_flipped}) and swaps "
        f"the bright/dark assignment exactly (overlap "
        f"{assignment_swap:.12f}, weight dev {weight_swap:.3e})",
    )


def criterion_dispersive_validity(config) -> CriterionResult:
    cavity = config.cavity()
    detuning = 20.0
    transitions = (cavity.center - detuning, cavity.center - detuning)
    deviations = [dispersive_deviation(cavity, (g, g), transitions) for g in (4.0, 2.0, 1.0, 0.5)]
    ratios = [deviations[k] / deviations[k + 1] for k in range(3)]
    passed = all(r >= 8.0 for r in ratios)
    return CriterionResult(
        6,
        "dispersive-validity-scaling",
        passed,
        "halving ratios "
        + ", ".join(f"{r:.2f}" for r in ratios)
        + " (each >= 8); deviations "
        + ", ".join(f"{d:.3e}" for d in deviations),
    )


def criterion_linewidth(config) -> CriterionResult:
    cavity = config.cavity()
    ens_i = config.ensemble("i")
    probe = np.arange(cavity.center - 25.0, cavity.center + 25.0 + 1e-9, 0.01)
    row = np.abs(s21(probe, cavity, [(ens_i, cavity.center)]))
    result = fit_polariton_width(probe, row)
    width = result.parameters["hwhm"]
    passed = abs(width - 2.45) <= 0.05
    return CriterionResult(
        7,
        "polariton-linewidth",
        passed,
        f"fitted polariton HWHM={width:.4f} MHz vs 2.45+-0.05 "
        f"(kappa={cavity.total_hwhm:.3f}, gamma_I={ens_i.spin_hwhm:.2f})",
    )


def criterion_thermal_polarization(config) -> CriterionResult:
    p = thermal_polarization(config.nv("i"), 60.0)
    passed = abs(p - 0.832) <= 0.001
    return CriterionResult(
        8,
        "thermal-polarization",
        passed,
        f"p0(60 mK)={p:.6f} vs 0.832+-0.001",
    )


def _noisy(grid, seed, level=0.01):
    rng = np.random.default_rng(seed)
    noisy = grid.amplitudes * (1.0 + level * rng.standard_normal(grid.amplitudes.shape))
    return SpectrumGrid(grid.probe_frequencies, grid.sweep_values, noisy, grid.sweep_kind)


def _fit_system(config):
    """Criterion 9's system: the cavity, both ensembles, their angle
    tunings at the configured field magnitude, and the true full-fit
    parameters keyed by `fitting._FULL_NAMES` (offset 0)."""
    cavity = config.cavity()
    ens_i = config.ensemble("i")
    ens_ii = config.ensemble("ii")
    magnitude = config.get("field.magnitude_mt")
    tunings = tuple(SpinTuning.from_ensemble(e, "angle", magnitude) for e in (ens_i, ens_ii))
    true_values = (
        ens_i.coupling, ens_ii.coupling, cavity.total_hwhm,
        ens_i.spin_hwhm, ens_ii.spin_hwhm, cavity.center, 0.0,
    )
    return cavity, (ens_i, ens_ii), tunings, dict(zip(_FULL_NAMES, true_values))


def fit_roundtrip_errors(config):
    """Monte-Carlo round-trip errors for both grid fits under 1%
    multiplicative noise; returns (avoided g errors, full-fit error
    dict), the errors as arrays over 100 noise seeds."""
    cavity, ensembles, (tun_i, tun_ii), truth = _fit_system(config)

    angles = np.arange(71.0, 87.0 + 1e-9, 0.25)
    probe = np.arange(cavity.center - 20.0, cavity.center + 20.0 + 1e-9, 0.1)
    fields = [FieldSetting(tun_i.fixed, a) for a in angles]
    crossing_grid = sweep(cavity, ensembles[:1], fields, probe, "angle")

    angles_full = np.arange(10.0, 90.0 + 1e-9, 1.0)
    probe_full = np.arange(cavity.center - 30.0, cavity.center + 30.0 + 1e-9, 0.25)
    fields_full = [FieldSetting(tun_i.fixed, a) for a in angles_full]
    full_grid = sweep(cavity, ensembles, fields_full, probe_full, "angle")
    init = np.array(list(truth.values())) * [1.2, 0.8, 1.2, 0.8, 1.2, 1.0, 1.0]
    init[6] = 0.3

    g_errors = []
    full_errors = {"g_i": [], "g_ii": [], "kappa": []}
    for seed in range(100):
        res = fit_avoided_crossing(_noisy(crossing_grid, seed), tun_i)
        g_errors.append(abs(res.parameters["g"] - truth["g_i"]) / truth["g_i"])

        res_full = fit_full_transmission(
            _noisy(full_grid, 10_000 + seed), tun_i, tun_ii, init=init
        )
        for key, errors in full_errors.items():
            errors.append(abs(res_full.parameters[key] - truth[key]) / truth[key])
    return np.asarray(g_errors), {k: np.asarray(v) for k, v in full_errors.items()}


def shipped_model_jacobian_deviations(config):
    """jacobian_check on every model shipped with an analytic Jacobian,
    evaluated at physical operating points with 1e-6 MHz steps."""
    cavity, _, (tun_i, tun_ii), truth = _fit_system(config)
    az_i, az_ii = (t.orientation.azimuth for t in (tun_i, tun_ii))

    xs = np.linspace(cavity.center - 10.0, cavity.center + 10.0, 81)
    sv = np.linspace(71.0, 87.0, 17)
    # the wide sweep ends on the ensemble-ensemble degeneracy, whose
    # middle mode is dark: no cavity content (v_0 = 0)
    dark = locate_degeneracy(config, az_i, az_ii - az_i, tun_i.fixed, (35.0, 65.0))[0]
    sv_wide = np.append(np.linspace(10.0, 90.0, 17), dark)
    probe = np.linspace(cavity.center - 20.0, cavity.center + 20.0, 41)
    return {
        "lorentzian": jacobian_check(
            lorentzian_model(xs),
            [0.9, cavity.center, 0.32, 0.05],
        ),
        "avoided_crossing": jacobian_check(
            avoided_crossing_model(sv, np.arange(17) % 2, [tun_i]),
            [truth["g_i"], truth["nu_c"], 0.3],
        ),
        "avoided_crossing_two": jacobian_check(
            avoided_crossing_model(sv_wide, np.append(np.arange(17) % 3, 1), [tun_i, tun_ii]),
            [truth["g_i"], truth["g_ii"], truth["nu_c"], 0.0],
        ),
        "transmission": jacobian_check(
            transmission_model(probe, sv, tun_i, tun_ii),
            list({**truth, "offset": 0.2}.values()),
        ),
    }


def criterion_fit_roundtrips(config) -> CriterionResult:
    g_errors, full_errors = fit_roundtrip_errors(config)
    g_p95 = float(np.percentile(g_errors, 95))
    full_p95 = {k: float(np.percentile(v, 95)) for k, v in full_errors.items()}
    jac = shipped_model_jacobian_deviations(config)
    # The deviation itself is central-difference rounding noise; only
    # its side of the bound is reported.
    jac_ok = max(jac.values()) < 1e-6
    passed = g_p95 <= 0.02 and all(v <= 0.03 for v in full_p95.values()) and jac_ok
    return CriterionResult(
        9,
        "fit-roundtrips",
        passed,
        f"avoided-crossing g err p95={100 * g_p95:.3f}% (<=2%); full fit "
        f"p95 g_i={100 * full_p95['g_i']:.3f}%, g_ii={100 * full_p95['g_ii']:.3f}%, "
        f"kappa={100 * full_p95['kappa']:.3f}% (<=3%); worst jacobian "
        f"deviation {'<' if jac_ok else 'not <'} 1e-06",
    )


def criterion_determinism(config) -> CriterionResult:
    cavity = config.cavity()
    ens_i = config.ensemble("i")
    ens_ii = config.ensemble("ii")
    magnitude = config.get("field.magnitude_mt")
    angles = np.arange(20.0, 26.0 + 1e-9, 0.5)
    probe = np.arange(cavity.center - 5.0, cavity.center + 5.0 + 1e-9, 0.05)
    fields = [FieldSetting(magnitude, a) for a in angles]
    ensembles = (ens_i, ens_ii)

    grid = sweep(cavity, ensembles, fields, probe, "angle")
    text_a = grid_to_text(grid, config.hash)
    text_b = grid_to_text(sweep(cavity, ensembles, fields, probe, "angle"), config.hash)
    # per-row reference: one s21 call per field, one scalar solve per point
    rows = np.vstack(
        [np.abs(s21(probe, cavity, [(e, e.transition(f)) for e in ensembles])) for f in fields]
    )

    repeat_ok = text_a == text_b
    rowwise_ok = grid.amplitudes.tobytes() == rows.tobytes()
    return CriterionResult(
        10,
        "determinism",
        repeat_ok and rowwise_ok,
        f"repeated sweep byte-identical={repeat_ok}; broadcast sweep vs per-row "
        f"s21 byte-identical={rowwise_ok}",
    )


CRITERIA = (
    criterion_collective_enhancement,
    criterion_dark_state,
    criterion_geometry,
    criterion_dispersive_coupling,
    criterion_selection_rule,
    criterion_dispersive_validity,
    criterion_linewidth,
    criterion_thermal_polarization,
    criterion_fit_roundtrips,
    criterion_determinism,
)


def run_all(config: ExperimentConfig):
    """Evaluate every acceptance criterion; returns CriterionResults in
    order."""
    return [criterion(config) for criterion in CRITERIA]
