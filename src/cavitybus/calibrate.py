"""Geometry calibration: recover the crystal azimuths and the field
magnitudes that the measured resonance angles imply.

The procedure pins the two resonance angles: one field magnitude and
the crystal-I azimuth are scanned (crystal II staying at the fixed
relative azimuth) until ensemble I meets the target frequency at its
resonance angle and ensemble II at its own.  Both constraints hold at
one shared magnitude.  Several (azimuth, magnitude) pairs satisfy the
constraints; the shipped pick is the one whose ensemble-ensemble
degeneracy sits closest to the cavity, which is the branch the
dispersive experiments live on.

Note a structural property of this geometry: the two transition curves
versus field angle are shifted copies of one even periodic function, so
once both resonance angles are pinned at a common magnitude, the curves
can only cross midway between them (modulo 90 degrees).  The located
degeneracy angle is therefore exactly the midpoint of the two resonance
angles regardless of the relative azimuth.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .config import ExperimentConfig
from .errors import BracketError, NumericalError, ValidationError
from .spin import CrystalOrientation, FieldSetting, transition_batch, transition_minus

__all__ = [
    "CalibrationResult",
    "calibrate_geometry",
    "locate_degeneracy",
    "dispersive_magnitude",
]

log = logging.getLogger("cavitybus.calibrate")

_MAGNITUDE_RANGE = (0.2, 30.0)
# Halvings of _MAGNITUDE_RANGE in the vectorized scan: 29.8 / 2**40 is
# below the 1e-10 mT xtol of the scalar magnitude solve.
_BISECTIONS = 40
# Accepted scan step (deg).  The scan holds every node in memory at
# once, so the lower end caps it at 180 000 nodes.
_SCAN_STEP_RANGE = (1e-3, 90.0)


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated geometry plus diagnostic context."""

    azimuth_i: float
    azimuth_ii: float
    magnitude: float
    dispersive_magnitude: float
    degeneracy_angle: float
    degeneracy_transition: float
    candidates: tuple

    def config_updates(self) -> dict:
        return {
            "ensemble_i.azimuth_deg": round(self.azimuth_i, 6) % 360.0,
            "ensemble_ii.azimuth_deg": round(self.azimuth_ii, 6) % 360.0,
            "field.magnitude_mt": float(f"{self.magnitude:.9g}"),
            "field.dispersive_magnitude_mt": float(
                f"{self.dispersive_magnitude:.9g}"
            ),
        }


def _transition(config: ExperimentConfig, which: str, azimuth: float, field: FieldSetting):
    orientation = CrystalOrientation(
        azimuth, config.orientation(which).axis_class
    )
    return transition_minus(config.nv(which), orientation, field)


def _solve_magnitude(config, azimuth_i, angle_i, target):
    """Magnitude at which ensemble I hits `target` at its resonance
    angle, or None when no crossing exists in the scan range."""

    def f(mag):
        return (
            _transition(config, "i", azimuth_i, FieldSetting(mag, angle_i)) - target
        )

    lo, hi = _MAGNITUDE_RANGE
    if f(lo) * f(hi) > 0:
        return None
    return brentq(f, lo, hi, xtol=1e-10)


def _transition_nodes(config, which, azimuths, magnitudes, angle):
    """Lower transition of ensemble `which` at each (crystal azimuth,
    magnitude) node for one field angle, in one batched solve: turning
    the crystal by a is the same as turning the field by -a."""
    orientation = CrystalOrientation(0.0, config.orientation(which).axis_class)
    return transition_batch(config.nv(which), orientation, magnitudes, angle - azimuths)


def _scan_residuals(config, azimuths, angle_i, angle_ii, relative, target):
    """Vectorized form of the per-azimuth scan: the ensemble-I magnitude
    at every node by fixed-count bisection, then the ensemble-II
    residual there.  NaN marks the nodes where `_solve_magnitude` finds
    no crossing."""

    def f(mags):
        return _transition_nodes(config, "i", azimuths, mags, angle_i) - target

    lo = np.full(azimuths.shape, _MAGNITUDE_RANGE[0])
    hi = np.full(azimuths.shape, _MAGNITUDE_RANGE[1])
    f_lo = f(lo)
    bracketed = f_lo * f(hi) <= 0
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        same = np.sign(f_mid) == np.sign(f_lo)
        lo = np.where(same, mid, lo)
        f_lo = np.where(same, f_mid, f_lo)
        hi = np.where(same, hi, mid)
    mags = 0.5 * (lo + hi)
    residuals = (
        _transition_nodes(config, "ii", azimuths + relative, mags, angle_ii) - target
    )
    return np.where(bracketed, residuals, np.nan)


def calibrate_geometry(config: ExperimentConfig, scan_step: float = 0.25) -> CalibrationResult:
    """Brute-force scan of the crystal-I azimuth with the magnitude
    solved per azimuth from the ensemble-I resonance; azimuth roots are
    where ensemble II then also meets the target at its own angle."""
    lo, hi = _SCAN_STEP_RANGE
    if not lo <= scan_step <= hi:  # also false for NaN
        raise ValidationError(
            f"scan step must be finite and between {lo:g} and {hi:g} deg "
            f"inclusive, got {scan_step:g}"
        )
    target = config.get("cavity.center_mhz")
    angle_i = config.get("calibration.resonance_angle_i_deg")
    angle_ii = config.get("calibration.resonance_angle_ii_deg")
    relative = config.get("calibration.relative_azimuth_deg")

    def residual(azimuth):
        mag = _solve_magnitude(config, azimuth, angle_i, target)
        if mag is None:
            return None
        return (
            _transition(
                config, "ii", azimuth + relative, FieldSetting(mag, angle_ii)
            )
            - target
        )

    def brackets(residuals):
        # NaN nodes compare False, so they bracket nothing.
        return residuals[:-1] * residuals[1:] <= 0

    azimuths = np.arange(0.0, 180.0, scan_step)
    residuals = _scan_residuals(config, azimuths, angle_i, angle_ii, relative, target)
    # The batched and scalar residuals differ by solver noise, so on a
    # node that sits on a root they can disagree in sign.  Such a node
    # always ends a flagged interval; re-evaluate those ends with the
    # scalar residual that brentq refines, so each bracket holds for it.
    flagged = brackets(residuals)
    ends = np.zeros(azimuths.shape, dtype=bool)
    ends[:-1] |= flagged
    ends[1:] |= flagged
    for k in np.flatnonzero(ends):
        r = residual(azimuths[k])
        residuals[k] = np.nan if r is None else r

    candidates = []
    for k in np.flatnonzero(brackets(residuals)):
        az_root = brentq(
            lambda a: residual(a), azimuths[k], azimuths[k + 1], xtol=1e-8
        )
        mag = _solve_magnitude(config, az_root, angle_i, target)
        deg_angle, deg_freq = locate_degeneracy(
            config, az_root, relative, mag, (angle_i, angle_ii)
        )
        candidates.append(
            {
                "azimuth_i": float(az_root),
                "magnitude": float(mag),
                "degeneracy_angle": float(deg_angle),
                "degeneracy_transition": float(deg_freq),
            }
        )
    if not candidates:
        raise NumericalError(
            "calibration scan found no (azimuth, magnitude) pair satisfying "
            "both resonance constraints"
        )

    # Deterministic pick: degeneracy closest to the cavity frequency.
    best = min(
        candidates, key=lambda c: abs(c["degeneracy_transition"] - target)
    )
    log.info(
        "calibration: %d candidate(s); picked azimuth_i=%.4f deg, B=%.6f mT",
        len(candidates),
        best["azimuth_i"],
        best["magnitude"],
    )
    disp_mag = dispersive_magnitude(config, best["azimuth_i"], relative)
    return CalibrationResult(
        azimuth_i=best["azimuth_i"],
        azimuth_ii=best["azimuth_i"] + relative,
        magnitude=best["magnitude"],
        dispersive_magnitude=disp_mag,
        degeneracy_angle=best["degeneracy_angle"],
        degeneracy_transition=best["degeneracy_transition"],
        candidates=tuple(
            tuple(sorted(c.items())) for c in sorted(candidates, key=lambda c: c["azimuth_i"])
        ),
    )


def locate_degeneracy(
    config: ExperimentConfig,
    azimuth_i: float,
    relative: float,
    magnitude: float,
    bracket: tuple,
) -> tuple:
    """Angle between the two resonance angles where the two ensembles'
    transitions meet, plus the common transition frequency there."""
    lo, hi = sorted(bracket)
    lo, hi = lo + 0.5, hi - 0.5

    def difference(angle):
        field = FieldSetting(magnitude, angle)
        return _transition(config, "i", azimuth_i, field) - _transition(
            config, "ii", azimuth_i + relative, field
        )

    if difference(lo) * difference(hi) > 0:
        raise BracketError(
            f"no ensemble-ensemble degeneracy between {lo:g} and {hi:g} deg"
        )
    angle = brentq(difference, lo, hi, xtol=1e-8)
    freq = _transition(config, "i", azimuth_i, FieldSetting(magnitude, angle))
    return float(angle), float(freq)


def dispersive_magnitude(
    config: ExperimentConfig, azimuth_i: float, relative: float
) -> float:
    """Field magnitude for dispersive runs: ensemble II sits `margin`
    below the cavity at its resonance angle (the closest approach in the
    dispersive angle window), keeping every detuning above the floor."""
    target = config.get("cavity.center_mhz")
    margin = config.get("calibration.dispersive_margin_mhz")
    angle_ii = config.get("calibration.resonance_angle_ii_deg")

    def f(mag):
        return (
            _transition(
                config, "ii", azimuth_i + relative, FieldSetting(mag, angle_ii)
            )
            - (target - margin)
        )

    lo, hi = _MAGNITUDE_RANGE
    if f(lo) * f(hi) > 0:
        raise BracketError("no dispersive magnitude found in the scan range")
    return float(brentq(f, lo, hi, xtol=1e-10))
