"""Single-excitation model of two spin ensembles sharing one cavity mode.

Basis ordering is {photon, ensemble-I excitation, ensemble-II
excitation}.  The cavity mode has two magnetic-field antinodes of
opposite sign at the two crystal positions; the sign pair lives in
CavitySpec.antinode_signs and enters the coupling row of the matrix, so
the default convention produces off-diagonals (+g_I, -g_II).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spin import CrystalOrientation, FieldSetting, NVParameters, transition_minus

__all__ = [
    "EnsembleSpec",
    "CavitySpec",
    "SingleExcitationModel",
    "collective_coupling",
    "single_excitation_model",
    "photon_weight",
]


@dataclass(frozen=True)
class EnsembleSpec:
    """One NV sub-ensemble: spin parameters, crystal orientation,
    collective coupling magnitude g/2pi (MHz) and effective Lorentzian
    spin half-linewidth (MHz)."""

    nv: NVParameters
    orientation: CrystalOrientation
    coupling: float
    spin_hwhm: float

    def __post_init__(self):
        if not self.coupling > 0:
            raise ValueError("coupling must be positive (sign lives in CavitySpec)")
        if not self.spin_hwhm > 0:
            raise ValueError("spin_hwhm must be positive")

    def transition(self, field_setting: FieldSetting) -> float:
        return transition_minus(self.nv, self.orientation, field_setting)


@dataclass(frozen=True)
class CavitySpec:
    """Resonator mode: center frequency, total and per-port external
    half-linewidths (MHz), and the drive-sign pair at the two antinodes."""

    center: float
    total_hwhm: float
    external_hwhm: float
    antinode_signs: tuple = (1, -1)

    def __post_init__(self):
        if not 0 < self.external_hwhm <= self.total_hwhm:
            raise ValueError("need 0 < external_hwhm <= total_hwhm")
        signs = tuple(int(s) for s in self.antinode_signs)
        if len(signs) != 2 or any(s not in (-1, 1) for s in signs):
            raise ValueError("antinode_signs must be a pair of +1/-1")
        object.__setattr__(self, "antinode_signs", signs)


@dataclass(frozen=True)
class SingleExcitationModel:
    """3x3 Hermitian matrix over {photon, E_I, E_II} with its
    eigen-decomposition (eigenfrequencies ascending, eigenvectors as
    rows matching the eigenfrequencies)."""

    matrix: np.ndarray
    eigenfrequencies: np.ndarray = field(init=False)
    eigenvectors: np.ndarray = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3) or not np.allclose(m, m.T, atol=1e-12):
            raise ValueError("matrix must be 3x3 symmetric")
        object.__setattr__(self, "matrix", m)
        vals, vecs = np.linalg.eigh(m)
        object.__setattr__(self, "eigenfrequencies", vals)
        object.__setattr__(self, "eigenvectors", vecs.T)


def collective_coupling(single_couplings) -> float:
    """Quadrature sum sqrt(sum g_j^2) of individual coupling rates; this
    is the root-N enhanced coupling of the joint bright mode."""
    g = np.asarray(list(single_couplings), dtype=float)
    if g.size == 0:
        raise ValueError("need at least one coupling rate")
    return float(np.sqrt(np.sum(g**2)))


def single_excitation_model(
    cavity: CavitySpec, couplings: tuple, transitions: tuple
) -> SingleExcitationModel:
    """Assemble the model from explicit spin transition frequencies.

    `couplings` are the magnitudes (g_I, g_II); the antinode signs of
    the cavity are applied to the photon row.
    """
    g_i, g_ii = couplings
    w_i, w_ii = transitions
    s_i, s_ii = cavity.antinode_signs
    m = np.array(
        [
            [cavity.center, s_i * g_i, s_ii * g_ii],
            [s_i * g_i, w_i, 0.0],
            [s_ii * g_ii, 0.0, w_ii],
        ]
    )
    return SingleExcitationModel(m)


def photon_weight(state) -> float:
    """Squared magnitude of the photon component of a unit-norm state."""
    v = np.asarray(state, dtype=complex)
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"state must be unit norm (got {norm:.8f})")
    return float(abs(v[0]) ** 2)
