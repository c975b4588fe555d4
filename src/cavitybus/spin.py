"""Ground-state level structure of NV spin ensembles in a static field.

Conventions used throughout the package: frequencies are ordinary
frequencies in MHz (not angular), magnetic fields in mT, angles in
degrees.  The static field lies in the lab (001) plane; each NV axis is
one of the four <111> directions of its crystal, rotated about the lab
z-axis by the crystal azimuth.

The spin-1 Hamiltonian (in the NV frame, basis {m_s=+1, 0, -1}) is

    H = D*Sz^2 + E*(Sx^2 - Sy^2) + gamma*(b_par*Sz + b_perp*Sx)

with the full transverse field component placed along the NV-frame
x-axis.  The spectrum then depends only on (|b_par|, |b_perp|); the
residual dependence on the transverse azimuth (interference with E) is
below the spin linewidth for the strain values handled here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np
from scipy.optimize import brentq

from .errors import BracketError

# Exact SI values (2019 redefinition), equal to scipy.constants.h and .k;
# importing scipy.constants for two numbers costs about 0.2 s per call.
_PLANCK = 6.62607015e-34  # J s
_BOLTZMANN = 1.380649e-23  # J/K

__all__ = [
    "AxisClass",
    "NVParameters",
    "CrystalOrientation",
    "FieldSetting",
    "SpinLevels",
    "nv_axis_vectors",
    "field_in_nv_frame",
    "spin_hamiltonian",
    "transition_frequencies",
    "transition_minus",
    "transition_batch",
    "transition_minus_derivative",
    "find_resonance_angle",
    "thermal_polarization",
]

# Spin-1 operators in the {+1, 0, -1} basis.  All terms of the
# Hamiltonian are real in this basis, so plain float64 symmetric
# matrices suffice.
_SZ = np.diag([1.0, 0.0, -1.0])
_SZ2 = np.diag([1.0, 0.0, 1.0])
_SX = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / math.sqrt(2.0)
# Sx^2 - Sy^2 couples m_s = +1 and m_s = -1 directly.
_SXX_MINUS_SYY = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])

# The four <111> NV axis directions of an unrotated cubic crystal.
_BASE_AXES = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]
) / math.sqrt(3.0)


class AxisClass(IntEnum):
    """The four <111> orientation families of NV centers in diamond."""

    K111 = 0
    K1M1M1 = 1
    KM11M1 = 2
    KM1M11 = 3


@dataclass(frozen=True)
class NVParameters:
    """Scalar parameters of the NV ground-state spin Hamiltonian.

    d_splitting and e_strain are D/2pi and E/2pi in MHz; gyromagnetic is
    g*mu_B/h in MHz/mT.
    """

    d_splitting: float
    e_strain: float
    gyromagnetic: float

    def __post_init__(self):
        if not self.d_splitting > 0:
            raise ValueError("d_splitting must be positive")
        if self.e_strain < 0:
            raise ValueError("e_strain must be non-negative")
        if not self.gyromagnetic > 0:
            raise ValueError("gyromagnetic must be positive")


@dataclass(frozen=True)
class CrystalOrientation:
    """Azimuth of a crystal's cubic axes about the lab z-axis plus the
    NV axis family used by the ensemble."""

    azimuth: float
    axis_class: AxisClass

    def __post_init__(self):
        object.__setattr__(self, "azimuth", float(self.azimuth) % 360.0)
        object.__setattr__(self, "axis_class", AxisClass(self.axis_class))


@dataclass(frozen=True)
class FieldSetting:
    """Static magnetic field in the (001) plane: magnitude (mT) and
    in-plane angle (degrees, lab frame)."""

    magnitude: float
    angle: float

    def __post_init__(self):
        if self.magnitude < 0:
            raise ValueError("field magnitude must be non-negative")


@dataclass(frozen=True)
class SpinLevels:
    """Eigenfrequencies relative to the m_s=0-dominated level, plus the
    two ground-to-excited transition frequencies (MHz)."""

    eigenfrequencies: tuple
    transition_minus: float
    transition_plus: float


def nv_axis_vectors(orientation: CrystalOrientation) -> np.ndarray:
    """Return the four NV symmetry axes as unit rows of a (4, 3) array,
    rotated about z by the crystal azimuth."""
    a = math.radians(orientation.azimuth)
    c, s = math.cos(a), math.sin(a)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return _BASE_AXES @ rot.T


def _field_vector(field: FieldSetting) -> np.ndarray:
    a = math.radians(field.angle)
    return field.magnitude * np.array([math.cos(a), math.sin(a), 0.0])


def field_in_nv_frame(axis: np.ndarray, field: FieldSetting) -> tuple:
    """Decompose the applied field into components parallel and
    transverse to the given unit axis.  Returns (b_parallel, b_transverse)
    in mT; b_parallel carries the sign of the projection."""
    b = _field_vector(field)
    b_par = float(b @ axis)
    b_perp = float(np.linalg.norm(b - b_par * np.asarray(axis)))
    return b_par, b_perp


def spin_hamiltonian(params: NVParameters, b_parallel: float, b_transverse: float) -> np.ndarray:
    """Spin-1 Hamiltonian (MHz) in the NV frame, basis {+1, 0, -1}."""
    g = params.gyromagnetic
    return (
        params.d_splitting * _SZ2
        + params.e_strain * _SXX_MINUS_SYY
        + g * (b_parallel * _SZ + b_transverse * _SX)
    )


def _selected_axis(orientation: CrystalOrientation) -> np.ndarray:
    return nv_axis_vectors(orientation)[int(orientation.axis_class)]


def transition_frequencies(
    params: NVParameters, orientation: CrystalOrientation, field: FieldSetting
) -> SpinLevels:
    """Eigen-decompose the spin Hamiltonian for the ensemble's axis and
    label the two transitions by energy ordering (lower = m_s=-1-like)."""
    axis = _selected_axis(orientation)
    b_par, b_perp = field_in_nv_frame(axis, field)
    h = spin_hamiltonian(params, b_par, b_perp)
    vals, vecs = np.linalg.eigh(h)
    # m_s=0 is basis index 1; the reference level is the eigenvector
    # with the largest |<0|v>|^2.
    ref = int(np.argmax(np.abs(vecs[1, :])))
    rel = np.sort(vals - vals[ref])
    others = sorted(np.delete(vals, ref) - vals[ref])
    return SpinLevels(
        eigenfrequencies=tuple(float(x) for x in rel),
        transition_minus=float(others[0]),
        transition_plus=float(others[1]),
    )


def transition_minus(
    params: NVParameters, orientation: CrystalOrientation, field: FieldSetting
) -> float:
    """The m_s=0 -> m_s=-1-like transition frequency (MHz)."""
    return transition_frequencies(params, orientation, field).transition_minus


def _batch_fields(
    orientation: CrystalOrientation, magnitudes: np.ndarray, angles: np.ndarray
) -> tuple:
    axis = _selected_axis(orientation)
    ang = np.radians(np.asarray(angles, dtype=float))
    mags = np.asarray(magnitudes, dtype=float)
    inplane = mags * (np.cos(ang) * axis[0] + np.sin(ang) * axis[1])
    b_par = inplane
    b_perp = np.sqrt(np.maximum(mags**2 - b_par**2, 0.0))
    return b_par, b_perp


def transition_batch(
    params: NVParameters,
    orientation: CrystalOrientation,
    magnitudes,
    angles,
    which: str = "minus",
) -> np.ndarray:
    """Vectorized transition frequencies over broadcastable arrays of
    field magnitude (mT) and angle (deg).

    Valid in the operating range gamma*B << D where the m_s=0-dominated
    level is the lowest; this is the fast path used by sweeps and fits.
    """
    mags, angs = np.broadcast_arrays(
        np.asarray(magnitudes, dtype=float), np.asarray(angles, dtype=float)
    )
    b_par, b_perp = _batch_fields(orientation, mags.ravel(), angs.ravel())
    n = b_par.size
    h = np.empty((n, 3, 3))
    h[:] = params.d_splitting * _SZ2 + params.e_strain * _SXX_MINUS_SYY
    h += params.gyromagnetic * (
        b_par[:, None, None] * _SZ + b_perp[:, None, None] * _SX
    )
    vals = np.linalg.eigvalsh(h)
    if which == "minus":
        out = vals[:, 1] - vals[:, 0]
    elif which == "plus":
        out = vals[:, 2] - vals[:, 0]
    else:
        raise ValueError("which must be 'minus' or 'plus'")
    return out.reshape(mags.shape)


def transition_minus_derivative(
    params: NVParameters,
    orientation: CrystalOrientation,
    magnitudes,
    angles,
    wrt: str = "angle",
) -> np.ndarray:
    """Derivative of the lower transition with respect to field angle
    (MHz/deg) or magnitude (MHz/mT), propagated through the eigensolve
    via the Hellmann-Feynman theorem."""
    mags, angs = np.broadcast_arrays(
        np.asarray(magnitudes, dtype=float), np.asarray(angles, dtype=float)
    )
    axis = _selected_axis(orientation)
    ang = np.radians(angs.ravel())
    m = mags.ravel()
    proj = np.cos(ang) * axis[0] + np.sin(ang) * axis[1]
    b_par = m * proj
    b_perp = np.sqrt(np.maximum(m**2 - b_par**2, 0.0))

    if wrt == "angle":
        dpar = m * (-np.sin(ang) * axis[0] + np.cos(ang) * axis[1]) * (math.pi / 180.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            dperp = np.where(b_perp > 1e-12, -b_par * dpar / b_perp, 0.0)
    elif wrt == "magnitude":
        dpar = proj
        with np.errstate(divide="ignore", invalid="ignore"):
            dperp = np.where(b_perp > 1e-12, (m - b_par * dpar) / b_perp, 0.0)
    else:
        raise ValueError("wrt must be 'angle' or 'magnitude'")

    n = b_par.size
    h = np.empty((n, 3, 3))
    h[:] = params.d_splitting * _SZ2 + params.e_strain * _SXX_MINUS_SYY
    h += params.gyromagnetic * (
        b_par[:, None, None] * _SZ + b_perp[:, None, None] * _SX
    )
    vals, vecs = np.linalg.eigh(h)
    dh = params.gyromagnetic * (
        dpar[:, None, None] * _SZ + dperp[:, None, None] * _SX
    )
    # Hellmann-Feynman: d(lambda_i)/dp = <v_i| dH/dp |v_i>
    v0 = vecs[:, :, 0]
    v1 = vecs[:, :, 1]
    d0 = np.einsum("ni,nij,nj->n", v0, dh, v0)
    d1 = np.einsum("ni,nij,nj->n", v1, dh, v1)
    return (d1 - d0).reshape(mags.shape)


def find_resonance_angle(
    params: NVParameters,
    orientation: CrystalOrientation,
    magnitude: float,
    target: float,
    bracket: tuple,
) -> float:
    """Angle (deg) inside `bracket` at which the lower transition equals
    `target` (MHz), located by bracketed root finding to 1e-4 deg."""
    lo, hi = float(bracket[0]), float(bracket[1])

    def f(angle):
        return (
            transition_minus(params, orientation, FieldSetting(magnitude, angle)) - target
        )

    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketError(
            f"no sign change over [{lo:g}, {hi:g}] deg "
            f"(residuals {flo:+.3f} and {fhi:+.3f} MHz)"
        )
    return float(brentq(f, lo, hi, xtol=1e-4))


def thermal_polarization(params: NVParameters, temperature: float) -> float:
    """Ground-state (m_s=0) occupation at the given temperature (mK),
    using the zero-field splitting alone: 1/(1 + 2*exp(-h*D/(kB*T))).

    Zeeman and strain corrections are neglected; at the fields handled
    here they change the Boltzmann factors by a few percent at most.
    """
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    # h*D/(kB*T) with D in MHz and T in mK
    x = _PLANCK * params.d_splitting * 1e6 / (_BOLTZMANN * temperature * 1e-3)
    return 1.0 / (1.0 + 2.0 * math.exp(-x))
