"""Complex S21 transmission synthesis and field sweeps.

The steady-state linear-response transmission through the cavity with a
set of Lorentzian spin lines attached is

    S21(nu) = kappa_ext / ( i(nu_c - nu) + kappa
              + sum_k g_k^2 / (i(nu_k - nu) + gamma_k) )

with kappa/gamma half-widths in MHz.  With the default normalization
kappa_ext = kappa the bare-cavity peak is exactly 1 and |S21| stays
below 1 everywhere.  Antinode signs drop out (couplings enter squared).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coupled import CavitySpec
from .errors import UnsplitError

__all__ = [
    "SpectrumGrid",
    "s21",
    "sweep",
    "peak_splitting",
    "worker_count",
]

THREADS_ENV = "CAVITYBUS_THREADS"

DEFAULT_PROMINENCE = 0.05


def worker_count() -> int:
    """Worker cap for row-parallel sweeps, from CAVITYBUS_THREADS."""
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


@dataclass(frozen=True)
class SpectrumGrid:
    """Rectangular grid of complex S21 (or a real signal) over probe
    frequency x sweep parameter.  Rows follow sweep_values."""

    probe_frequencies: np.ndarray
    sweep_values: np.ndarray
    amplitudes: np.ndarray
    sweep_kind: str = "none"

    def __post_init__(self):
        probe = np.asarray(self.probe_frequencies, dtype=float)
        sweep_vals = np.asarray(self.sweep_values, dtype=float)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if self.sweep_kind not in ("angle", "magnitude", "none"):
            raise ValueError(f"unknown sweep_kind {self.sweep_kind!r}")
        if amps.shape != (sweep_vals.size, probe.size):
            raise ValueError(
                f"amplitudes shape {amps.shape} does not match "
                f"{sweep_vals.size} sweep values x {probe.size} probes"
            )
        object.__setattr__(self, "probe_frequencies", probe)
        object.__setattr__(self, "sweep_values", sweep_vals)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.amplitudes)


def s21(probe, cavity: CavitySpec, ensembles) -> complex | np.ndarray:
    """Transmission amplitude at the probe frequency (scalar or array).

    `ensembles` is an iterable of (EnsembleSpec, transition_mhz) pairs;
    pass an empty list for the bare cavity.
    """
    nu = np.asarray(probe, dtype=float)
    den = 1j * (cavity.center - nu) + cavity.total_hwhm
    for ens, transition in ensembles:
        den = den + ens.coupling**2 / (1j * (transition - nu) + ens.spin_hwhm)
    out = cavity.external_hwhm / den
    if np.isscalar(probe) or np.ndim(probe) == 0:
        return complex(out)
    return out


def _sweep_row(cavity, ensembles, field_setting, probe):
    pairs = [(ens, ens.transition(field_setting)) for ens in ensembles]
    return s21(probe, cavity, pairs)


def sweep(
    cavity: CavitySpec,
    ensembles,
    field_path,
    probe_frequencies,
    sweep_kind: str = "none",
) -> SpectrumGrid:
    """Evaluate S21 rows along a path of field settings.

    Rows are independent and may be computed by several workers (capped
    by CAVITYBUS_THREADS); output ordering always follows field_path.
    """
    field_path = list(field_path)
    ensembles = list(ensembles)
    probe = np.asarray(probe_frequencies, dtype=float)
    if probe.size == 0 or not field_path:
        raise ValueError("need non-empty probe frequencies and field path")

    if sweep_kind == "angle":
        values = np.array([f.angle for f in field_path])
    elif sweep_kind == "magnitude":
        values = np.array([f.magnitude for f in field_path])
    else:
        values = np.arange(len(field_path), dtype=float)

    workers = worker_count()
    if workers > 1 and len(field_path) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(
                pool.map(lambda f: _sweep_row(cavity, ensembles, f, probe), field_path)
            )
    else:
        rows = [_sweep_row(cavity, ensembles, f, probe) for f in field_path]

    return SpectrumGrid(probe, values, np.vstack(rows), sweep_kind)


def _refine_quadratic(x: np.ndarray, y: np.ndarray, idx: int) -> float:
    """Sub-bin peak position from a parabola through three samples."""
    if idx <= 0 or idx >= x.size - 1:
        return float(x[idx])
    y0, y1, y2 = y[idx - 1], y[idx], y[idx + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(x[idx])
    shift = 0.5 * (y0 - y2) / denom
    shift = min(max(shift, -1.0), 1.0)
    step = 0.5 * (x[idx + 1] - x[idx - 1])
    return float(x[idx] + shift * step)


def peak_positions(
    probe_frequencies,
    magnitudes,
    prominence: float = DEFAULT_PROMINENCE,
    max_peaks: int | None = None,
) -> np.ndarray:
    """Local maxima above the relative prominence threshold, refined by
    quadratic interpolation and sorted by frequency.  With max_peaks
    set, only the most prominent ones are kept (ties resolve toward
    lower frequency)."""
    # imported here: scipy.signal pulls in scipy.stats, which would
    # more than double the import time of every CLI call
    from scipy.signal import find_peaks

    x = np.asarray(probe_frequencies, dtype=float)
    y = np.abs(np.asarray(magnitudes))
    top = float(np.max(y))
    if top <= 0.0:
        return np.array([])
    idx, props = find_peaks(y, prominence=prominence * top)
    if max_peaks is not None and idx.size > max_peaks:
        order = np.lexsort((idx, -props["prominences"]))
        idx = np.sort(idx[order[:max_peaks]])
    return np.array(sorted(_refine_quadratic(x, y, i) for i in idx))


def peak_splitting(
    probe_frequencies, magnitudes, prominence: float = DEFAULT_PROMINENCE
) -> float:
    """Distance between the two most prominent maxima of a spectrum row.

    Raises UnsplitError when fewer than two peaks clear the prominence
    threshold; ties in prominence resolve toward lower frequency.
    """
    from scipy.signal import find_peaks

    x = np.asarray(probe_frequencies, dtype=float)
    y = np.abs(np.asarray(magnitudes))
    top = float(np.max(y))
    idx, props = find_peaks(y, prominence=prominence * top if top > 0 else None)
    if idx.size < 2:
        raise UnsplitError("fewer than two peaks above the prominence threshold")
    # Two most prominent, stable toward lower frequency on ties.
    order = np.lexsort((idx, -props["prominences"]))
    keep = np.sort(idx[order[:2]])
    lo = _refine_quadratic(x, y, int(keep[0]))
    hi = _refine_quadratic(x, y, int(keep[1]))
    return float(hi - lo)
