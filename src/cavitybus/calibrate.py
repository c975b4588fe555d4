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
once both resonance angles are fixed at a common magnitude, the curves
can only cross midway between them (modulo 90 degrees).  The located
degeneracy angle is therefore exactly the midpoint of the two resonance
angles regardless of the relative azimuth.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, format_float
from .errors import BracketError, NumericalError, ValidationError
from .spin import CrystalOrientation, transition_batch

__all__ = [
    "CalibrationResult",
    "calibrate_geometry",
    "locate_degeneracy",
    "dispersive_magnitude",
]

log = logging.getLogger("cavitybus.calibrate")

_MAGNITUDE_RANGE = (0.2, 30.0)
# Accepted scan step (deg).  The scan holds every node in memory at
# once, so the lower end caps it at 180 000 nodes.
_SCAN_STEP_RANGE = (1e-3, 90.0)
# Step cap of `_find_root`.  Bisection alone takes the widest bracket
# used here (29.8 mT) to its 1e-10 xtol in 38 halvings.
_MAX_STEPS = 200


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
            "field.magnitude_mt": float(format_float(self.magnitude)),
            "field.dispersive_magnitude_mt": float(format_float(self.dispersive_magnitude)),
        }


def _find_root(f, lo, hi, xtol, args=(), _ends=None):
    """Roots of `f` in [lo, hi] by Chandrupatla's method (Adv. Eng.
    Software 28, 145, 1997), elementwise over the broadcast ends.

    `f(x, *args)` maps abscissae to residuals of the same shape; `args`
    are per-element arrays that broadcast with the ends, and `f` gets
    the entries of the live elements only.  Each element stops once its
    bracket is narrower than xtol + 4*eps*|x| or its residual is exactly
    zero, and is frozen from then on: it is not evaluated again, and its
    root is the same whatever else is in the batch.  A 0-d batch is
    evaluated whole, as scalars.  Raises BracketError where f(lo) and
    f(hi) share a sign or either is NaN.  A caller that already holds
    f(lo) and f(hi) passes them as `_ends` to skip their evaluation.
    """
    a, b, *args = np.broadcast_arrays(lo, hi, *args)
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    if _ends is None:
        _ends = f(a, *args), f(b, *args)
    fa, fb = (np.asarray(v, dtype=float) for v in _ends)
    unbracketed = ~(fa * fb <= 0)
    if unbracketed.any():
        k = np.flatnonzero(unbracketed)[0]
        raise BracketError(f"no sign change between {a.flat[k]:g} and {b.flat[k]:g}")
    c, fc = a, fa
    t = np.full(a.shape, 0.5)
    active = np.ones(a.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_STEPS):
            a_best = np.abs(fa) < np.abs(fb)
            x_best = np.where(a_best, a, b)
            t_lim = (2.0 * np.finfo(float).eps * np.abs(x_best) + 0.5 * xtol) / np.abs(b - a)
            active &= (np.where(a_best, fa, fb) != 0) & (t_lim <= 0.5)
            if not active.any():
                return x_best
            x = a + np.clip(t, t_lim, 1.0 - t_lim) * (b - a)
            live = np.nonzero(active) if a.ndim else ()
            fx = fa.copy()  # a frozen element keeps its fa; its x is never read
            fx[live] = f(x[live], *(v[live] for v in args))
            # x replaces a; the old a stays in the bracket as b if the
            # root lies between them, else it becomes the third point c.
            same = np.sign(fx) == np.sign(fa)
            c, fc = np.where(same, a, b), np.where(same, fa, fb)
            flip = active & ~same
            b, fb = np.where(flip, a, b), np.where(flip, fa, fb)
            a, fa = np.where(active, x, a), np.where(active, fx, fa)
            # Inverse quadratic interpolation through (a, b, c) where it
            # stays inside the bracket, bisection elsewhere.
            xi = (a - b) / (c - b)
            phi = (fa - fb) / (fc - fb)
            t = np.where(
                (phi**2 < xi) & ((1.0 - phi) ** 2 < 1.0 - xi),
                fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb),
                0.5,
            )
    raise NumericalError(f"no root converged in {_MAX_STEPS} steps")


def _transition_nodes(config, which, azimuths, magnitudes, angle):
    """Lower transition of ensemble `which` at each (crystal azimuth,
    magnitude) node for one field angle, in one batched solve: turning
    the crystal by a is the same as turning the field by -a."""
    orientation = CrystalOrientation(0.0, config.orientation(which).axis_class)
    return transition_batch(config.nv(which), orientation, magnitudes, angle - azimuths)


def _magnitude_ends(config, which, azimuths, angle, target):
    """Residuals of ensemble `which` against `target` at field `angle`
    at both ends of the magnitude scan range, per crystal azimuth, and
    where they bracket a crossing."""
    lo, hi = _MAGNITUDE_RANGE
    ends = _transition_nodes(config, which, azimuths, np.array([[lo], [hi]]), angle) - target
    return ends, ends[0] * ends[1] <= 0


def _magnitudes(config, which, azimuths, angle, target):
    """Field magnitude at which ensemble `which` meets `target` at field
    `angle`, per crystal azimuth; NaN where no crossing exists in the
    scan range."""
    ends, found = _magnitude_ends(config, which, azimuths, angle, target)
    mags = np.full(azimuths.shape, np.nan)
    mags[found] = _find_root(
        lambda m, azimuth: _transition_nodes(config, which, azimuth, m, angle) - target,
        *_MAGNITUDE_RANGE,
        xtol=1e-10,
        args=(azimuths[found],),
        _ends=ends[:, found],
    )
    return mags


def _scan_residuals(config, azimuths, angle_i, angle_ii, relative, target):
    """Ensemble-II residual at the magnitude that puts ensemble I on
    `target`, per crystal-I azimuth; NaN where no such magnitude
    exists."""
    mags = _magnitudes(config, "i", azimuths, angle_i, target)
    found = ~np.isnan(mags)
    residuals = np.full(azimuths.shape, np.nan)
    residuals[found] = (
        _transition_nodes(config, "ii", azimuths[found] + relative, mags[found], angle_ii) - target
    )
    return residuals


def _edge_brackets(residuals, solvable, azimuths, scan, xtol):
    """Brackets beside the scan's NaN nodes, which bracket nothing.
    Where a finite node borders a NaN node, bisect towards the NaN one
    for the last azimuth (within xtol) that is `solvable`, i.e. has a
    residual; returns (lo, hi, f(lo), f(hi)) arrays with the finite node
    and that azimuth where their residuals differ in sign."""
    nan = np.isnan(scan)
    k = np.flatnonzero(nan[:-1] != nan[1:])
    node = np.where(nan[k], k + 1, k)
    good = azimuths[node]
    bad = azimuths[np.where(nan[k], k, k + 1)]
    while np.any(np.abs(bad - good) > xtol):
        mid = 0.5 * (good + bad)
        found = solvable(mid)
        good, bad = np.where(found, mid, good), np.where(found, bad, mid)
    f_good = residuals(good)
    flip = scan[node] * f_good <= 0
    return azimuths[node][flip], good[flip], scan[node][flip], f_good[flip]


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

    def residuals(azimuths):
        return _scan_residuals(config, azimuths, angle_i, angle_ii, relative, target)

    def solvable(azimuths):
        return _magnitude_ends(config, "i", azimuths, angle_i, target)[1]

    # Half a turn of the crystals reverses b_par only, so the residual
    # has period 180 deg: node 180 closes the circle with node 0's
    # residual, and roots fold back into [0, 180).
    azimuths = np.append(np.arange(0.0, 180.0, scan_step), 180.0)
    scan = residuals(azimuths[:-1])
    scan = np.append(scan, scan[0])
    # NaN nodes compare False, so they bracket nothing; the intervals
    # beside them are bisected instead.  The refinement starts from the
    # residuals already known at the bracket ends, so every flagged
    # interval is a bracket for it.
    k = np.flatnonzero(scan[:-1] * scan[1:] <= 0)
    lo, hi, f_lo, f_hi = _edge_brackets(residuals, solvable, azimuths, scan, xtol=1e-8)
    roots = _find_root(
        residuals,
        np.append(azimuths[k], lo),
        np.append(azimuths[k + 1], hi),
        xtol=1e-8,
        _ends=(np.append(scan[k], f_lo), np.append(scan[k + 1], f_hi)),
    )
    # A root on a node (or on 0 = 180) ends both intervals beside it.
    roots = np.array(sorted(set((roots % 180.0).tolist())))
    if not roots.size:
        raise NumericalError(
            "calibration scan found no (azimuth, magnitude) pair satisfying "
            "both resonance constraints"
        )
    mags = _magnitudes(config, "i", roots, angle_i, target)
    angles, freqs = locate_degeneracy(config, roots, relative, mags, (angle_i, angle_ii))

    # Deterministic pick: degeneracy closest to the cavity frequency.
    best = np.argmin(np.abs(freqs - target))
    azimuth_i = float(roots[best])
    log.info(
        "calibration: %d candidate(s); picked azimuth_i=%.4f deg, B=%.6f mT",
        roots.size,
        azimuth_i,
        mags[best],
    )
    names = ("azimuth_i", "degeneracy_angle", "degeneracy_transition", "magnitude")
    rows = zip(roots.tolist(), angles.tolist(), freqs.tolist(), mags.tolist())
    return CalibrationResult(
        azimuth_i=azimuth_i,
        azimuth_ii=azimuth_i + relative,
        magnitude=float(mags[best]),
        dispersive_magnitude=dispersive_magnitude(config, azimuth_i, relative),
        degeneracy_angle=float(angles[best]),
        degeneracy_transition=float(freqs[best]),
        candidates=tuple(tuple(zip(names, row)) for row in rows),
    )


def locate_degeneracy(
    config: ExperimentConfig,
    azimuth_i,
    relative: float,
    magnitude,
    bracket: tuple,
) -> tuple:
    """Angle between the two resonance angles where the two ensembles'
    transitions meet, plus the common transition frequency there: two
    arrays of the broadcast shape of `azimuth_i` and `magnitude` (0-d
    for scalars), from one root search over every element."""
    lo, hi = sorted(bracket)
    lo, hi = lo + 0.5, hi - 0.5

    def difference(angle, azimuth, mag):
        lower_i = _transition_nodes(config, "i", azimuth, mag, angle)
        return lower_i - _transition_nodes(config, "ii", azimuth + relative, mag, angle)

    try:
        angle = _find_root(difference, lo, hi, xtol=1e-8, args=(azimuth_i, magnitude))
    except BracketError:
        raise BracketError(
            f"no ensemble-ensemble degeneracy between {lo:g} and {hi:g} deg"
        ) from None
    return angle, _transition_nodes(config, "i", azimuth_i, magnitude, angle)


def dispersive_magnitude(
    config: ExperimentConfig, azimuth_i: float, relative: float
) -> float:
    """Field magnitude for dispersive runs: ensemble II sits `margin`
    below the cavity at its resonance angle (the closest approach in the
    dispersive angle window), keeping every detuning above the floor."""
    target = config.get("cavity.center_mhz")
    margin = config.get("calibration.dispersive_margin_mhz")
    angle_ii = config.get("calibration.resonance_angle_ii_deg")
    (mag,) = _magnitudes(
        config, "ii", np.array([azimuth_i + relative]), angle_ii, target - margin
    )
    if np.isnan(mag):
        raise BracketError("no dispersive magnitude found in the scan range")
    return float(mag)
