"""Independent reference physics for the benchmark's output checks.

Written from the model equations, not from cavitybus code, so a change
that breaks the package's spin solve or S21 synthesis cannot also break
the reference it is checked against.  Parameters come from the config
values the package exposes (`ExperimentConfig.get`).
"""

from __future__ import annotations

import copy
import math

import numpy as np

# <111> axis directions of an unrotated cubic crystal, one row per axis class.
_AXES = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
) / math.sqrt(3.0)


class Ensemble:
    """One NV ensemble's parameters, read from config values."""

    def __init__(self, config, which):
        p = f"ensemble_{which}"
        self.d = config.get(f"{p}.d_splitting_mhz")
        self.e = config.get(f"{p}.e_strain_mhz")
        self.gamma_e = config.get(f"{p}.gyromagnetic_mhz_per_mt")
        self.azimuth = config.get(f"{p}.azimuth_deg")
        self.axis_class = config.get(f"{p}.axis_class")
        self.g = config.get(f"{p}.coupling_mhz")
        self.hwhm = config.get(f"{p}.spin_hwhm_mhz")

    def with_azimuth(self, azimuth):
        other = copy.copy(self)
        other.azimuth = azimuth
        return other

    def levels(self, magnitude, angle):
        """Eigenvalues of the spin-1 Hamiltonian (basis +1, 0, -1) and
        the index of the m_s=0-dominated level."""
        az = math.radians(self.azimuth)
        rot = np.array(
            [[math.cos(az), -math.sin(az), 0.0], [math.sin(az), math.cos(az), 0.0], [0.0, 0.0, 1.0]]
        )
        axis = rot @ _AXES[self.axis_class]
        a = math.radians(angle)
        b = magnitude * np.array([math.cos(a), math.sin(a), 0.0])
        b_par = float(b @ axis)
        b_perp = float(np.linalg.norm(b - b_par * axis))
        s = 1.0 / math.sqrt(2.0)
        h = np.array(
            [
                [self.d + self.gamma_e * b_par, self.gamma_e * b_perp * s, self.e],
                [self.gamma_e * b_perp * s, 0.0, self.gamma_e * b_perp * s],
                [self.e, self.gamma_e * b_perp * s, self.d - self.gamma_e * b_par],
            ]
        )
        vals, vecs = np.linalg.eigh(h)
        return vals, int(np.argmax(np.abs(vecs[1, :])))

    def transitions(self, magnitude, angle):
        """(minus, plus) transition frequencies from the m_s=0 level (MHz)."""
        vals, ref = self.levels(magnitude, angle)
        others = sorted(np.delete(vals, ref) - vals[ref])
        return float(others[0]), float(others[1])


class Cavity:
    def __init__(self, config):
        self.center = config.get("cavity.center_mhz")
        self.kappa = config.get("cavity.total_hwhm_mhz")
        external = config.get("cavity.external_hwhm_mhz")
        self.kappa_ext = self.kappa if external is None else external


def s21(probe, cavity, lines):
    """Input-output transmission with Lorentzian spin lines attached;
    `lines` holds (coupling, transition, hwhm) triples."""
    nu = np.asarray(probe, dtype=float)
    den = 1j * (cavity.center - nu) + cavity.kappa
    for g, transition, hwhm in lines:
        den = den + g * g / (1j * (transition - nu) + hwhm)
    return cavity.kappa_ext / den


def s21_row(probe, cavity, ensembles, magnitude, angle):
    lines = [(e.g, e.transitions(magnitude, angle)[0], e.hwhm) for e in ensembles]
    return np.abs(s21(probe, cavity, lines))


def max_rel_error(values, reference):
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if values.shape != reference.shape:
        return math.inf
    scale = np.maximum(np.abs(reference), 1e-300)
    return float(np.max(np.abs(values - reference) / scale))
