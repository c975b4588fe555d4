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

Transitions are counted from the m_s=0-dominated level, which must be
the lowest level.  Past the ground-state level anticrossing (gamma*B of
order D) it is not, and every transition function raises
ValidationError; for an in-plane field and any NV axis this starts at
147.5 mT at the worst angle with the default parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ValidationError

# Exact SI values (2019 redefinition); the tests check them against an
# independent table of physical constants.
_PLANCK = 6.62607015e-34  # J s
_BOLTZMANN = 1.380649e-23  # J/K

__all__ = [
    "AxisClass",
    "NVParameters",
    "CrystalOrientation",
    "FieldSetting",
    "nv_axis_vectors",
    "spin_hamiltonian",
    "transition_frequencies",
    "transition_minus",
    "transition_batch",
    "transition_minus_derivative",
    "sweep_fields",
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


# Largest field magnitude (mT) whose square is still a finite float.
_MAX_MAGNITUDE = math.sqrt(np.finfo(float).max)


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


def nv_axis_vectors(orientation: CrystalOrientation) -> np.ndarray:
    """Return the four NV symmetry axes as unit rows of a (4, 3) array,
    rotated about z by the crystal azimuth."""
    a = math.radians(orientation.azimuth)
    c, s = math.cos(a), math.sin(a)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return _BASE_AXES @ rot.T


def sweep_fields(kind: str, values, fixed) -> tuple:
    """(magnitudes, angles) arrays of the fields a sweep visits: `values`
    are the swept angles (kind "angle") or magnitudes (kind
    "magnitude"), and `fixed` is the other coordinate."""
    values = np.asarray(values, dtype=float)
    held = np.full_like(values, fixed)
    if kind == "angle":
        return held, values
    if kind == "magnitude":
        return values, held
    raise ValueError(f"unsupported sweep kind {kind!r}")


def _decompose(axis: np.ndarray, magnitudes, angles, wrt: str | None = None) -> tuple:
    """Components of in-plane fields (magnitudes in mT, angles in deg)
    parallel and transverse to the unit `axis`: (b_par, b_perp, d_par,
    d_perp).  With `wrt` ("angle" or "magnitude") d_par and d_perp are
    the components' derivatives per deg or per mT, otherwise None."""
    ang = np.radians(angles)
    proj = np.cos(ang) * axis[0] + np.sin(ang) * axis[1]
    b_par = magnitudes * proj
    b_perp = np.sqrt(np.maximum(magnitudes**2 - b_par**2, 0.0))
    if wrt is None:
        return b_par, b_perp, None, None
    if wrt == "angle":
        d_par = magnitudes * (-np.sin(ang) * axis[0] + np.cos(ang) * axis[1]) * (math.pi / 180.0)
        d_perp_num = -b_par * d_par
    elif wrt == "magnitude":
        d_par = proj
        d_perp_num = magnitudes - b_par * d_par
    else:
        raise ValueError("wrt must be 'angle' or 'magnitude'")
    with np.errstate(divide="ignore", invalid="ignore"):
        d_perp = np.where(b_perp > 1e-12, d_perp_num / b_perp, 0.0)
    return b_par, b_perp, d_par, d_perp


def _zeeman(params: NVParameters, b_parallel, b_transverse) -> np.ndarray:
    """gamma*(b_par*Sz + b_perp*Sx), one matrix per field point.  H is
    linear in the components, so at component derivatives this is dH."""
    b_par = np.asarray(b_parallel, dtype=float)[..., None, None]
    b_perp = np.asarray(b_transverse, dtype=float)[..., None, None]
    return params.gyromagnetic * (b_par * _SZ + b_perp * _SX)


def spin_hamiltonian(params: NVParameters, b_parallel, b_transverse) -> np.ndarray:
    """Spin-1 Hamiltonian (MHz) in the NV frame, basis {+1, 0, -1};
    array components give a stack of matrices."""
    return (
        params.d_splitting * _SZ2
        + params.e_strain * _SXX_MINUS_SYY
        + _zeeman(params, b_parallel, b_transverse)
    )


def _selected_axis(orientation: CrystalOrientation) -> np.ndarray:
    return nv_axis_vectors(orientation)[int(orientation.axis_class)]


def _solve(
    params: NVParameters,
    orientation: CrystalOrientation,
    magnitudes,
    angles,
    wrt: str | None = None,
):
    """The spin solver behind every transition function.

    Over the broadcast grid of field magnitudes (mT) and angles (deg),
    returns the level energies above the m_s=0 level, shape (..., 3)
    with columns (0, minus, plus) in MHz.  With `wrt` ("angle" or
    "magnitude") it returns (levels, slope) instead, where slope is the
    derivative of the lower transition per deg or per mT, taken by
    Hellmann-Feynman from the same eigenvectors.

    Raises ValidationError naming the first field whose angle is not
    finite or whose magnitude is not finite or too large to square, or
    else the first at which the lowest level is not the m_s=0-dominated
    one (largest |<0|v>|^2).
    """
    mags, angs = np.broadcast_arrays(
        np.asarray(magnitudes, dtype=float), np.asarray(angles, dtype=float)
    )
    shape = mags.shape
    mags, angs = mags.ravel(), angs.ravel()
    # NaN compares False with the bound, so a NaN magnitude is caught too
    unrepresentable = ~(np.abs(mags) <= _MAX_MAGNITUDE) | ~np.isfinite(angs)
    if unrepresentable.any():
        k = int(np.argmax(unrepresentable))
        raise ValidationError(
            f"field {mags[k]:g} mT at {angs[k]:g} deg is outside the spin "
            f"model's range: the angle must be finite and the magnitude at "
            f"most {_MAX_MAGNITUDE:g} mT"
        )
    b_par, b_perp, d_par, d_perp = _decompose(_selected_axis(orientation), mags, angs, wrt)
    vals, vecs = np.linalg.eigh(spin_hamiltonian(params, b_par, b_perp))
    # m_s=0 is basis index 1
    misplaced = np.argmax(np.abs(vecs[:, 1, :]), axis=1) != 0
    if np.any(misplaced):
        k = int(np.argmax(misplaced))
        raise ValidationError(
            f"field {mags[k]:g} mT at {angs[k]:g} deg is outside the spin "
            f"model's range: the m_s=0 level is not the lowest there"
        )
    levels = (vals - vals[:, :1]).reshape(shape + (3,))
    if wrt is None:
        return levels
    # Hellmann-Feynman: d(lambda_k)/dp = <v_k| dH/dp |v_k>
    dh = _zeeman(params, d_par, d_perp)
    v0 = vecs[:, :, 0]
    v1 = vecs[:, :, 1]
    d0 = np.einsum("ni,nij,nj->n", v0, dh, v0)
    d1 = np.einsum("ni,nij,nj->n", v1, dh, v1)
    return levels, (d1 - d0).reshape(shape)


def transition_frequencies(
    params: NVParameters, orientation: CrystalOrientation, field: FieldSetting
) -> tuple:
    """Levels at one field counted from the m_s=0 level, (0, minus,
    plus) in MHz: the lower transition is the m_s=-1-like one."""
    return tuple(float(x) for x in _solve(params, orientation, field.magnitude, field.angle))


def transition_minus(
    params: NVParameters, orientation: CrystalOrientation, field: FieldSetting
) -> float:
    """The m_s=0 -> m_s=-1-like transition frequency (MHz)."""
    return transition_frequencies(params, orientation, field)[1]


def transition_batch(
    params: NVParameters,
    orientation: CrystalOrientation,
    magnitudes,
    angles,
) -> np.ndarray:
    """Lower transition frequency over broadcastable arrays of field
    magnitude (mT) and angle (deg)."""
    return _solve(params, orientation, magnitudes, angles)[..., 1]


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
    return _solve(params, orientation, magnitudes, angles, wrt)[1]


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
