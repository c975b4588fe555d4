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

The levels come from a closed form, not an eigensolver: Smith's
trigonometric formula for a symmetric 3x3 matrix, with the m_s=0
weights and the Hellmann-Feynman slopes read from the adjugate of
H - lambda (see `_solve`).  Its error grows as eps*D**2/gap near a
degenerate pair of levels; over the default sweeps it stays below
1e-11 MHz of numpy.linalg.eigh.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
    "transition_frequencies",
    "transition_minus",
    "transition_batch",
    "transition_minus_derivative",
    "sweep_fields",
    "thermal_polarization",
]

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


def sweep_fields(kind: str, values, fixed) -> tuple:
    """(magnitudes, angles) of the fields a sweep visits, as float arrays
    that broadcast together: `values` are the swept angles (kind
    "angle") or magnitudes (kind "magnitude"), and `fixed` is the other
    coordinate, a scalar or an array of its own shape."""
    values = np.asarray(values, dtype=float)
    held = np.asarray(fixed, dtype=float)
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
    cos, sin = np.cos(ang), np.sin(ang)
    proj = cos * axis[0] + sin * axis[1]
    b_par = magnitudes * proj
    b_perp = np.sqrt(np.maximum(magnitudes**2 - b_par**2, 0.0))
    if wrt is None:
        return b_par, b_perp, None, None
    if wrt == "angle":
        d_par = magnitudes * (-sin * axis[0] + cos * axis[1]) * (math.pi / 180.0)
        d_perp_num = -b_par * d_par
    elif wrt == "magnitude":
        d_par = proj
        d_perp_num = magnitudes - b_par * d_par
    else:
        raise ValueError("wrt must be 'angle' or 'magnitude'")
    d_perp = np.divide(d_perp_num, b_perp, out=np.zeros(b_perp.shape), where=b_perp > 1e-12)
    return b_par, b_perp, d_par, d_perp


def _axis_in_plane(orientation: CrystalOrientation) -> tuple:
    """Lab x and y components of the ensemble's NV axis, the only ones
    an in-plane field projects on."""
    a = math.radians(orientation.azimuth)
    c, s = math.cos(a), math.sin(a)
    x, y, _ = _BASE_AXES[int(orientation.axis_class)].tolist()
    return c * x - s * y, s * x + c * y


def _out_of_range(where, magnitudes, angles, reason: str) -> ValidationError:
    """The error naming the first field flagged in `where`."""
    k = int(np.argmax(where))
    mag, ang = (np.broadcast_to(v, where.shape).flat[k] for v in (magnitudes, angles))
    return ValidationError(
        f"field {mag:g} mT at {ang:g} deg is outside the spin model's range: {reason}"
    )


def _solve(
    params,
    orientation,
    magnitudes,
    angles,
    wrt: str | None = None,
):
    """The spin solver behind every transition function.

    Over the broadcast grid of field magnitudes (mT) and angles (deg),
    returns the level energies above the m_s=0 level, shape (..., 3)
    with columns (0, minus, plus) in MHz.  With `wrt` ("angle" or
    "magnitude") it returns (levels, slope) instead, where slope is the
    derivative of the lower transition per deg or per mT.

    `params` and `orientation` may instead be equal-length sequences,
    one entry per ensemble.  The fields' leading axis is then the
    ensemble axis (length 1 broadcasts), and each ensemble's results
    are the bits that a call for it alone gives.

    H = [[D+z, x, E], [x, 0, x], [E, x, D-z]] with z = gamma*b_par and
    x = gamma*b_perp/sqrt(2) is solved in closed form, point by point,
    in units of the power of two above max(D, gamma*|B|), so that the
    scaling is exact and no square overflows.  Smith's trigonometric
    formula (Commun. ACM 4, 168, 1961) gives the levels l_k.  The
    adjugate of H - l_k over P_k = prod_{j != k} (l_j - l_k) is the
    projector on level k: its middle diagonal entry is the m_s=0
    weight, and its trace with dH is the level's Hellmann-Feynman
    slope.  Near a degenerate pair the error of the levels grows as
    eps*D**2/gap (J. Kopp, Int. J. Mod. Phys. C 19, 523, 2008).  The
    upper pair is degenerate only at zero field with E = 0; its mean
    slope is taken there.

    Raises ValidationError naming the first field whose angle is not
    finite or whose magnitude is not finite or too large to square, or
    else the first at which the lowest level is not the m_s=0-dominated
    one (largest m_s=0 weight).
    """
    mags = np.asarray(magnitudes, dtype=float)
    angs = np.asarray(angles, dtype=float)
    # NaN compares False with the bound, so a NaN magnitude is caught too
    unrepresentable = ~((np.abs(mags) <= _MAX_MAGNITUDE) & np.isfinite(angs))
    if unrepresentable.any():
        raise _out_of_range(
            unrepresentable, mags, angs,
            f"the angle must be finite and the magnitude at most {_MAX_MAGNITUDE:g} mT",
        )
    if isinstance(params, NVParameters):
        ensembles, column = [(params, orientation)], ()
    else:
        # one entry per ensemble along the fields' leading axis
        ensembles, column = zip(params, orientation), (-1,) + (1,) * (unrepresentable.ndim - 1)
    d_split, e_strain, gamma, *axis = np.array(
        [(p.d_splitting, p.e_strain, p.gyromagnetic, *_axis_in_plane(o)) for p, o in ensembles]
    ).T.reshape((5,) + column)
    b_par, b_perp, d_par, d_perp = _decompose(axis, mags, angs, wrt)

    # every quantity from here on is in units of 2**k, the power of two
    # above max(D, gamma*|B|): the scaling is exact and no square overflows
    k = np.frexp(np.maximum(d_split, gamma * np.abs(mags)))[1]
    down = -k
    d = np.ldexp(d_split, down)
    e = np.ldexp(e_strain, down)
    z = np.ldexp(gamma * b_par, down)
    # Sx's off-diagonal entry; math.sqrt(0.5) rounds one ulp higher
    x = np.ldexp(gamma * b_perp * (1.0 / math.sqrt(2.0)), down)
    zz_ee = z * z + e * e
    xx = x * x
    # B = H - q I with q = tr(H)/3 = 2d/3 is traceless, p^2 = tr(B^2)/6
    # and cos(3 phi) = det(B)/(2 p^3)
    q = 2.0 * d / 3.0
    dd9 = d * d / 9.0
    p2 = dd9 + (zz_ee + 2.0 * xx) / 3.0
    p = np.sqrt(p2)
    det = -q * (dd9 - zz_ee) - 2.0 * xx * (d / 3.0 - e)
    cos3 = np.minimum(np.maximum(det / (2.0 * p * p2), -1.0), 1.0)
    phi = np.arccos(cos3) / 3.0
    # the levels (low, mid, high), each from its own cosine
    third = np.reshape([2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0, 0.0], (3,) + (1,) * phi.ndim)
    lam = q + 2.0 * p * np.cos(phi + third)
    low, mid, high = lam
    below, above, gap = mid - low, high - low, high - mid
    prod = np.empty_like(lam)
    np.multiply(below, above, out=prod[0, ...])
    np.multiply(low - mid, gap, out=prod[1, ...])
    np.multiply(above, gap, out=prod[2, ...])
    # P_k is 0 only on an exactly degenerate pair; 1/P_k is taken as 0
    # there, which makes both weights of the pair 0
    inv = np.divide(1.0, prod, out=np.zeros_like(prod), where=prod != 0.0)
    weight = ((d - lam) ** 2 - zz_ee) * inv
    misplaced = (weight[1] > weight[0]) | (weight[2] > weight[0])
    if misplaced.any():
        raise _out_of_range(misplaced, mags, angs, "the m_s=0 level is not the lowest there")
    levels = np.zeros(phi.shape + (3,))
    np.ldexp(below, k, out=levels[..., 1])
    np.ldexp(above, k, out=levels[..., 2])
    if wrt is None:
        return levels
    # tr(dH adj(H - l)) = gamma*(2 l z d_par + 2 sqrt(2) x d_perp (l + E - D))
    # with d_par and d_perp the components' derivatives; its units of
    # 4**k cancel against those of P_k
    xd = (2.0 * math.sqrt(2.0)) * x * d_perp
    slopes = gamma * (lam[:2] * (2.0 * z * d_par + xd) + xd * (e - d)) * inv[:2]
    slope = slopes[1] - slopes[0]
    if not inv[1].all():
        # a degenerate upper pair moves by its mean slope, which is -1/2
        # of the m_s=0 level's because dH is traceless
        slope = np.where(inv[1] == 0.0, -1.5 * slopes[0], slope)
    return levels, slope


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
    params: NVParameters | Sequence[NVParameters],
    orientation: CrystalOrientation | Sequence[CrystalOrientation],
    magnitudes,
    angles,
) -> np.ndarray:
    """Lower transition frequency over broadcastable arrays of field
    magnitude (mT) and angle (deg), of one ensemble or several (as `_solve`)."""
    return _solve(params, orientation, magnitudes, angles)[..., 1]


def transition_minus_derivative(
    params: NVParameters,
    orientation: CrystalOrientation,
    magnitudes,
    angles,
    wrt: str = "angle",
) -> np.ndarray:
    """Derivative of the lower transition with respect to field angle
    (MHz/deg) or magnitude (MHz/mT), by the Hellmann-Feynman theorem."""
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
