"""Dispersive effective model: cavity pull, Lamb shift, and
virtual-photon coupling between the two detuned ensembles.

With detunings Delta_k = nu_c - nu_k well outside the collective
coupling, each ensemble pulls the cavity by chi_k = g_k^2/Delta_k, is
Lamb-shifted by the same magnitude, and the ensembles acquire a
transverse exchange coupling of magnitude
U = (g_I g_II/2)(1/Delta_I + 1/Delta_II).  Eliminating the photon from
the single-excitation model gives the spin sector as a 2x2 block over
{E_I, E_II}:

    [[nu_I - chi_I, -s_1 s_2 U], [-s_1 s_2 U, nu_II - chi_II]]

where (s_1, s_2) are the antinode drive signs.  The minus sign on the
diagonal is level repulsion: spins sitting below the cavity are pushed
further down by the coupling, which is what the exact model does order
by order (deviation O(g^4/Delta^3)).  chi_k and U as reported on the
model keep their textbook signed-formula values.

Which eigenmode is visible depends on the drive: the two cavity
antinodes have opposite field sign, so the drive vector is
(s_1 g_I, s_2 g_II)/g_col and the orthogonal combination stays dark.
Bright/dark labels therefore always come from drive weights, never from
energy ordering or symmetry names alone.

A DispersiveModel is built, and its detunings checked against the
validity floor, in one place: `dispersive_model_from_frequencies`
(which `build_dispersive_model` calls at a field); a floor of 0 switches
the check off.  The spin modes and the pump-probe signal take the built
model; `dispersive_deviation` compares it with the exact
`collective_modes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupled import CavitySpec, EnsembleSpec, collective_modes
from .errors import DispersiveRangeError, ValidationError
from .spin import FieldSetting

__all__ = [
    "DEFAULT_FLOOR",
    "DispersiveModel",
    "PumpProbeSignal",
    "dispersive_shift",
    "ensemble_ensemble_coupling",
    "build_dispersive_model",
    "dispersive_model_from_frequencies",
    "dispersive_spin_modes",
    "derived_pump_range",
    "dispersive_deviation",
    "drive_weights",
    "pump_probe_signal",
]

# Smallest spin-cavity detuning magnitude (MHz) accepted as dispersive.
DEFAULT_FLOOR = 12.0


@dataclass(frozen=True)
class DispersiveModel:
    """Dispersive parameters of the two-ensemble system at bare spin
    transitions (transition_i, transition_ii); all frequencies MHz.
    The detunings and the 2x2 spin block over {E_I, E_II} are derived
    from the stored values, so the model cannot contradict itself."""

    transition_i: float
    transition_ii: float
    chi_i: float
    chi_ii: float
    u_coupling: float
    g_i: float
    g_ii: float
    antinode_signs: tuple = (1, -1)
    center: float = 0.0

    @property
    def detuning_i(self) -> float:
        return self.center - self.transition_i

    @property
    def detuning_ii(self) -> float:
        return self.center - self.transition_ii

    @property
    def spin_block(self) -> np.ndarray:
        """[[w_I - chi_I, -s_1 s_2 U], [-s_1 s_2 U, w_II - chi_II]]."""
        s_i, s_ii = self.antinode_signs
        u_block = -s_i * s_ii * self.u_coupling
        diag_i, diag_ii = self.transition_i - self.chi_i, self.transition_ii - self.chi_ii
        return np.array([[diag_i, u_block], [u_block, diag_ii]])


@dataclass(frozen=True)
class PumpProbeSignal:
    """Cavity-pull signal versus pump frequency (equal-length arrays)."""

    pump_frequencies: np.ndarray
    shift: np.ndarray


def dispersive_shift(g: float, delta: float) -> float:
    """Cavity pull chi = g^2/delta (signed, MHz)."""
    return g**2 / delta


def ensemble_ensemble_coupling(g_i: float, g_ii: float, delta_i: float, delta_ii: float) -> float:
    """Virtual-photon exchange rate U = (g_I g_II/2)(1/Delta_I + 1/Delta_II)."""
    return 0.5 * g_i * g_ii * (1.0 / delta_i + 1.0 / delta_ii)


def dispersive_model_from_frequencies(
    cavity: CavitySpec,
    couplings: tuple,
    transitions: tuple,
    floor: float = DEFAULT_FLOOR,
) -> DispersiveModel:
    """Dispersive parameters for explicit spin transition frequencies.

    The only place the validity floor is checked: a detuning magnitude
    below `floor` raises DispersiveRangeError, ensemble I checked before
    ensemble II."""
    g_i, g_ii = couplings
    w_i, w_ii = transitions
    d_i = cavity.center - w_i
    d_ii = cavity.center - w_ii
    for label, delta in (("ensemble I", d_i), ("ensemble II", d_ii)):
        if abs(delta) < floor:
            raise DispersiveRangeError(
                f"{label} detuning {delta:+.3f} MHz is below the dispersive "
                f"floor of {floor:g} MHz"
            )
    return DispersiveModel(
        transition_i=w_i,
        transition_ii=w_ii,
        chi_i=dispersive_shift(g_i, d_i),
        chi_ii=dispersive_shift(g_ii, d_ii),
        u_coupling=ensemble_ensemble_coupling(g_i, g_ii, d_i, d_ii),
        g_i=g_i,
        g_ii=g_ii,
        antinode_signs=cavity.antinode_signs,
        center=cavity.center,
    )


def build_dispersive_model(
    cavity: CavitySpec,
    ens_i: EnsembleSpec,
    ens_ii: EnsembleSpec,
    field_setting: FieldSetting,
    floor: float = DEFAULT_FLOOR,
) -> DispersiveModel:
    """Evaluate the dispersive parameters at the given field."""
    return dispersive_model_from_frequencies(
        cavity,
        (ens_i.coupling, ens_ii.coupling),
        (ens_i.transition(field_setting), ens_ii.transition(field_setting)),
        floor,
    )


def drive_weights(g_i: float, g_ii: float, antinode_signs, mode_vector) -> float:
    """Squared overlap of a unit-norm spin mode with the drive vector
    (s_1 g_I, s_2 g_II)/g_col; the orthogonal combination is dark."""
    v = np.asarray(mode_vector, dtype=float)
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"mode vector must be unit norm (got {norm:.8f})")
    g_col = math.hypot(g_i, g_ii)
    if g_col == 0.0:
        raise ValueError("at least one coupling must be nonzero")
    s1, s2 = antinode_signs
    bright = np.array([s1 * g_i, s2 * g_ii]) / g_col
    return float(np.dot(bright, v) ** 2)


def dispersive_spin_modes(model: DispersiveModel) -> tuple:
    """Eigenmodes of the dispersive spin block, labeled by drive weight.

    Returns ((bright_frequency, bright_vector, bright_weight),
    (dark_frequency, dark_vector, dark_weight)).  For the block at other
    bare spin frequencies pass ``dataclasses.replace(model,
    transition_ii=...)``, which keeps chi and U fixed.
    """
    vals, vecs = np.linalg.eigh(model.spin_block)
    weights = [
        drive_weights(model.g_i, model.g_ii, model.antinode_signs, vecs[:, k]) for k in range(2)
    ]
    modes = [(float(vals[k]), vecs[:, k], weights[k]) for k in range(2)]
    bright_idx = int(np.argmax(weights))
    return modes[bright_idx], modes[1 - bright_idx]


def pump_probe_signal(
    model: DispersiveModel, spin_hwhm: tuple, pump_frequencies, width: float | None = None
) -> PumpProbeSignal:
    """Cavity-shift signal of a built model versus pump frequency.

    Each dispersive spin mode contributes a unit-peak Lorentzian at its
    frequency, scaled by its drive weight and its chi-weighted mode
    content.  The sign is negative: pumping depolarizes spins and moves
    the cavity back toward its bare frequency.  Line widths default to
    the content-weighted ensemble spin widths `spin_hwhm` = (gamma_I,
    gamma_II).
    """
    pump = np.asarray(pump_frequencies, dtype=float)
    shift = np.zeros_like(pump)
    for freq, vec, weight in dispersive_spin_modes(model):
        pull = model.chi_i * vec[0] ** 2 + model.chi_ii * vec[1] ** 2
        hwhm = width
        if hwhm is None:
            hwhm = spin_hwhm[0] * vec[0] ** 2 + spin_hwhm[1] * vec[1] ** 2
        shift -= weight * pull * (hwhm**2 / ((pump - freq) ** 2 + hwhm**2))
    return PumpProbeSignal(pump, shift)


def derived_pump_range(modes) -> np.ndarray:
    """The (bright, dark) `dispersive_spin_modes` frequencies +- 40 MHz
    at 0.02 MHz; ValidationError rather than over MAX_RANGE_POINTS."""
    from .config import MAX_RANGE_POINTS  # config imports this module

    (f_bright, _, _), (f_dark, _, _) = modes
    lo, hi = min(f_bright, f_dark) - 40.0, max(f_bright, f_dark) + 40.0
    if not (hi - lo) / 0.02 <= MAX_RANGE_POINTS - 1:  # floor 0: chi can be huge
        raise ValidationError(
            f"pump range derived from the spin modes at {f_bright:g} and {f_dark:g} "
            f"MHz has more than {MAX_RANGE_POINTS} points; give --pump start:stop:step"
        )
    return np.arange(lo, hi + 1e-9, 0.02)


def dispersive_deviation(cavity: CavitySpec, couplings: tuple, transitions: tuple) -> float:
    """Largest deviation (MHz) of the dispersive spin-mode frequencies
    from the two spin-like eigenvalues (least photon content) of the
    exact collective modes."""
    signed = np.multiply(cavity.antinode_signs, couplings)
    exact, vecs = collective_modes(cavity.center, signed, transitions)
    spin_like = np.sort(exact[np.argsort(vecs[0] ** 2)[:2]])
    model = dispersive_model_from_frequencies(cavity, couplings, transitions)
    disp = np.sort(np.linalg.eigvalsh(model.spin_block))
    return float(np.max(np.abs(spin_like - disp)))
