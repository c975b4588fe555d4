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

from dataclasses import dataclass

import numpy as np

from .coupled import CavitySpec
from .errors import UnsplitError
from .spin import transition_batch

__all__ = [
    "SpectrumGrid",
    "s21",
    "s21_denominator",
    "sweep",
    "peak_splitting",
]

DEFAULT_PROMINENCE = 0.05

# Probe points per block of grid rows in sweep() and the fit model.
# A block's complex temporaries (256 kB each) stay in cache, and the
# peak memory of large grids stays near that of the output arrays.
_BLOCK_POINTS = 16384


def _row_blocks(n_rows: int, n_probe: int):
    """Row slices covering n_rows rows of n_probe points each, about
    _BLOCK_POINTS points per slice and at least one row."""
    step = max(_BLOCK_POINTS // max(n_probe, 1), 1)
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


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


def s21_denominator(probe, center, kappa, lines) -> tuple:
    """The S21 denominator D = i(nu_c - nu) + kappa + sum_k g_k^2 q_k
    with q_k = 1/(i(nu_k - nu) + gamma_k), over the broadcast shape of
    the probe and line frequencies.  `lines` holds (g_k, nu_k, gamma_k)
    triples; returns (D, [q_k])."""
    den = 1j * (center - probe) + kappa
    qs = []
    for g, nu_k, gamma in lines:
        q = 1.0 / (1j * (nu_k - probe) + gamma)
        den = den + g**2 * q
        qs.append(q)
    return den, qs


def s21(probe, cavity: CavitySpec, ensembles) -> complex | np.ndarray:
    """Transmission amplitude at the probe frequency (scalar or array).

    `ensembles` is an iterable of (EnsembleSpec, transition_mhz) pairs;
    pass an empty list for the bare cavity.  Probe and transition
    arrays broadcast against each other.
    """
    nu = np.asarray(probe, dtype=float)
    lines = [(ens.coupling, transition, ens.spin_hwhm) for ens, transition in ensembles]
    den = s21_denominator(nu, cavity.center, cavity.total_hwhm, lines)[0]
    out = cavity.external_hwhm / den
    if np.isscalar(probe) or np.ndim(probe) == 0:
        return complex(out)
    return out


def sweep(
    cavity: CavitySpec,
    ensembles,
    field_path,
    probe_frequencies,
    sweep_kind: str = "none",
) -> SpectrumGrid:
    """Evaluate S21 rows along a path of field settings: one batched
    transition solve per ensemble, then S21 broadcast over the (field,
    probe) grid."""
    field_path = list(field_path)
    probe = np.asarray(probe_frequencies, dtype=float)
    if probe.size == 0 or not field_path:
        raise ValueError("need non-empty probe frequencies and field path")

    magnitudes = np.array([f.magnitude for f in field_path])
    angles = np.array([f.angle for f in field_path])
    if sweep_kind == "angle":
        values = angles
    elif sweep_kind == "magnitude":
        values = magnitudes
    else:
        values = np.arange(len(field_path), dtype=float)

    transitions = [
        (ens, transition_batch(ens.nv, ens.orientation, magnitudes, angles)[:, None])
        for ens in ensembles
    ]
    amplitudes = np.empty((len(field_path), probe.size), dtype=complex)
    for rows in _row_blocks(len(field_path), probe.size):
        amplitudes[rows] = s21(probe, cavity, [(ens, t[rows]) for ens, t in transitions])
    return SpectrumGrid(probe, values, amplitudes, sweep_kind)


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
    peaks = peak_positions(probe_frequencies, magnitudes, prominence, max_peaks=2)
    if peaks.size < 2:
        raise UnsplitError("fewer than two peaks above the prominence threshold")
    return float(peaks[1] - peaks[0])
