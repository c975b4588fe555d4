"""Single-excitation model of spin ensembles sharing one cavity mode.

Basis ordering is {photon, E_1..E_N}, one collective excitation per
ensemble.  The cavity mode has two magnetic-field antinodes of opposite
sign at the two crystal positions; the sign pair lives in
CavitySpec.antinode_signs, and callers apply it to the couplings they
pass to `collective_modes`, so the default convention gives the photon
row (+g_I, -g_II).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin import CrystalOrientation, FieldSetting, NVParameters, transition_minus

__all__ = [
    "EnsembleSpec",
    "CavitySpec",
    "collective_coupling",
    "collective_modes",
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


def collective_coupling(single_couplings) -> float:
    """Quadrature sum sqrt(sum g_j^2) of individual coupling rates; this
    is the root-N enhanced coupling of the joint bright mode."""
    g = np.asarray(list(single_couplings), dtype=float)
    if g.size == 0:
        raise ValueError("need at least one coupling rate")
    return float(np.sqrt(np.sum(g**2)))


def collective_modes(center, couplings, transitions):
    """Eigenmodes of the single-excitation matrix over {photon, E_1..E_N}.

    The matrix has `center` and `transitions[..., k]` on its diagonal and
    the signed `couplings[k]` in its photon row and column; the leading
    axes of `transitions` are a batch.  Returns (frequencies, ascending;
    eigenvectors as columns, photon component first), so the photon
    weight of mode k is vectors[..., 0, k]**2.  eigh solves the matrix
    less `center`, so it rounds on MHz-sized entries.
    """
    w = np.asarray(transitions, dtype=float)
    n = w.shape[-1]
    h = np.zeros(w.shape[:-1] + (n + 1, n + 1))
    k = np.arange(1, n + 1)
    h[..., k, k] = w - center
    h[..., 0, 1:] = h[..., 1:, 0] = couplings
    mu, vecs = np.linalg.eigh(h)
    return center + mu, vecs
