"""Complex S21 transmission synthesis and |S21| field sweeps.

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
    "row_peaks",
]

DEFAULT_PROMINENCE = 0.05

# Probe points per block of grid rows in sweep() and the fit model.  A
# block's complex temporaries take 256 kB each, so the peak memory of
# large grids stays near that of the output arrays, and the block
# boundaries fix the summation order of the fit model's Gram matrix.
# The fit model keeps its temporaries in one workspace across blocks
# and calls: allocated afresh, they cost about 470 minor page faults
# per call on criterion 9's 81x241 grid, as the allocator handed them
# back to the kernel and faulted them in again.
_BLOCK_POINTS = 16384


def _row_blocks(n_rows: int, n_probe: int, points: int | None = None):
    """Row slices covering n_rows rows of n_probe points each, about
    `points` (default _BLOCK_POINTS) points per slice and at least one
    row."""
    step = max((_BLOCK_POINTS if points is None else points) // max(n_probe, 1), 1)
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


# Samples per block of rows in the peak finder, whose temporaries take
# a few tens of bytes per sample.
_PEAK_POINTS = 65536


@dataclass(frozen=True)
class SpectrumGrid:
    """Probe frequency x sweep parameter grid of float64 |S21|, rows following
    sweep_values.  Float64 input is held without a copy; writes to it show here."""

    probe_frequencies: np.ndarray
    sweep_values: np.ndarray
    amplitudes: np.ndarray
    sweep_kind: str = "none"

    def __post_init__(self):
        probe = np.asarray(self.probe_frequencies, dtype=float)
        sweep_vals = np.asarray(self.sweep_values, dtype=float)
        if np.iscomplexobj(self.amplitudes):
            raise ValueError("amplitudes must be real |S21|, got complex values (pass np.abs(S21))")
        amps = np.asarray(self.amplitudes, dtype=float)
        if self.sweep_kind not in ("angle", "magnitude", "none"):
            raise ValueError(f"unknown sweep_kind {self.sweep_kind!r}")
        if amps.shape != (sweep_vals.size, probe.size):
            raise ValueError(
                f"amplitudes shape {amps.shape} does not match "
                f"{sweep_vals.size} sweep values x {probe.size} probes"
            )
        if (amps < 0.0).any():
            row, col = np.argwhere(amps < 0.0)[0]
            raise ValueError(f"negative |S21| {amps[row, col]:g} in row {row}, column {col}")
        object.__setattr__(self, "probe_frequencies", probe)
        object.__setattr__(self, "sweep_values", sweep_vals)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def magnitudes(self) -> np.ndarray:
        return self.amplitudes


def s21_denominator(probe, center, kappa, lines, out=None) -> tuple:
    """The S21 denominator D = i(nu_c - nu) + kappa + sum_k g_k^2 q_k
    with q_k = 1/(i(nu_k - nu) + gamma_k), over the broadcast shape of
    the probe and line frequencies.  `lines` holds (g_k, nu_k, gamma_k)
    triples; returns (D, [q_k]).

    `out` is an optional workspace (D, [q_k], detuning, term) of arrays
    of that broadcast shape, all complex but the detuning: D and the
    q_k are written into it and the detuning and g_k^2 q_k terms pass
    through it, so no array of that shape is allocated.  The results
    are bit-identical either way."""
    den_out, q_outs, detuning, term = out or (None, [None] * len(lines), None, None)
    den = 1j * (center - probe) + kappa
    qs = []
    for (g, nu_k, gamma), q_out in zip(lines, q_outs, strict=True):
        q = np.multiply(1j, np.subtract(nu_k, probe, out=detuning), out=q_out)
        q = np.add(q, gamma, out=q_out)
        q = np.divide(1.0, q, out=q_out)
        den = np.add(den, np.multiply(g**2, q, out=term), out=den_out)
        qs.append(q)
    return den, qs


def s21(probe, cavity: CavitySpec, ensembles) -> np.ndarray:
    """Transmission amplitude at the probe frequency (scalar or array).

    `ensembles` is an iterable of (EnsembleSpec, transition_mhz) pairs;
    pass an empty list for the bare cavity.  Probe and transition
    arrays broadcast against each other.
    """
    nu = np.asarray(probe, dtype=float)
    lines = [(ens.coupling, transition, ens.spin_hwhm) for ens, transition in ensembles]
    den = s21_denominator(nu, cavity.center, cavity.total_hwhm, lines)[0]
    return cavity.external_hwhm / den


def sweep(
    cavity: CavitySpec,
    ensembles,
    field_path,
    probe_frequencies,
    sweep_kind: str = "none",
) -> SpectrumGrid:
    """Evaluate |S21| rows along a path of field settings: one batched
    transition solve for all the ensembles, then S21 broadcast over the
    (field, probe) grid and its modulus taken block by block."""
    field_path = list(field_path)
    ensembles = list(ensembles)
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

    nvs, orientations = [e.nv for e in ensembles], [e.orientation for e in ensembles]
    transitions = transition_batch(nvs, orientations, magnitudes[None], angles[None])[..., None]
    amplitudes = np.empty((len(field_path), probe.size))
    for rows in _row_blocks(len(field_path), probe.size):
        np.abs(s21(probe, cavity, zip(ensembles, transitions[:, rows])), out=amplitudes[rows])
    return SpectrumGrid(probe, values, amplitudes, sweep_kind)


def _sparse_table(values: np.ndarray, reduce) -> np.ndarray:
    """table[k, i] = reduce of values[i : i + 2**k], for i <= size - 2**k
    (other entries are unset)."""
    size = values.size
    table = np.empty((size.bit_length(), size))
    table[0] = values
    for k in range(1, table.shape[0]):
        w = 1 << (k - 1)
        m = size - 2 * w + 1
        reduce(table[k - 1, :m], table[k - 1, w : w + m], out=table[k, :m])
    return table


def _peak_block(y: np.ndarray, prominence: float) -> tuple:
    """(row, index, prominence) of the maxima of the rows of the float
    block y whose prominence is at least `prominence` times the row
    maximum, ordered by row and index."""
    n_rows, n = y.shape
    flat = y.ravel()
    # step signs: 1 up, -1 down, 0 level, 2 across a row end
    sign = (flat[1:] > flat[:-1]).view(np.int8) - (flat[1:] < flat[:-1]).view(np.int8)
    sign[n - 1 :: n] = 2
    steps = np.flatnonzero(sign)
    turn = sign[steps]
    turn = turn[:-1] - turn[1:]
    # Turning points: up then (past level steps) down is a maximum, 2;
    # down then up a minimum, -2.  Along a row they alternate.
    tp = np.flatnonzero(np.abs(turn) == 2)
    pos = steps[tp] + 1  # first sample of each turning plateau
    row = pos // n
    is_top = turn[tp] == 2
    top = np.flatnonzero(is_top)
    height = flat[pos[top]]

    # Skip the maxima that cannot pass.  Prominence is at most the
    # height above the row minimum and, on a side whose next maximum is
    # higher, the height above the minimum in between, which is then
    # that side's base minimum.
    threshold = prominence * y.max(axis=1)[row[top]]
    keep = height - y.min(axis=1)[row[top]] >= threshold
    top, height, threshold = top[keep], height[keep], threshold[keep]
    bound = np.full(top.size, np.inf)
    last = tp.size - 1
    for side in (-1, 1):
        # the maximum two turning points away, if in the row; a clipped
        # index lands on top itself or on a minimum, neither higher
        peer = np.clip(top + 2 * side, 0, last)
        higher = (row[peer] == row[top]) & (flat[pos[peer]] > height)
        dip = height - flat[pos[np.clip(top + side, 0, last)]]
        bound = np.where(higher, np.minimum(bound, dip), bound)
    keep = bound >= threshold
    top, height, threshold = top[keep], height[keep], threshold[keep]
    rows = row[top]
    plateau_end = steps[tp[top] + 1]
    at = (pos[top] + plateau_end) // 2  # flat index of each maximum
    if not rows.size:
        return rows, at, height

    # The samples between neighbouring turning points are monotone, so
    # the searches run over the turning points and the row ends: the
    # nearest strictly higher one among the maxima (those below every
    # kept height left out) and the base minimum among the minima.
    def with_row_ends(positions):
        marks = np.zeros(flat.size, bool)
        marks[::n] = marks[n - 1 :: n] = marks[positions] = True
        return np.flatnonzero(marks)

    lowest = np.full(n_rows, np.inf)
    np.minimum.at(lowest, rows, height)
    tops = pos[is_top]
    hi_pos = with_row_ends(tops[flat[tops] > lowest[tops // n]])
    hi = _sparse_table(flat[hi_pos], np.maximum)
    lo_pos = with_row_ends(pos[~is_top])
    lo = _sparse_table(flat[lo_pos], np.minimum)

    # hi entries left..right - 1 hold no higher value than the maximum;
    # widen that run by 2**k, from the largest k down, within the row
    start, stop = rows * n, rows * n + n - 1
    first, final = np.searchsorted(hi_pos, start), np.searchsorted(hi_pos, stop)
    left = np.searchsorted(hi_pos, at)
    right = np.searchsorted(hi_pos, at, "right")
    for k in range(hi.shape[0] - 1, -1, -1):
        w = 1 << k
        fits = left - w >= first
        left -= w * (fits & (hi[k, np.where(fits, left - w, 0)] <= height))
        fits = right + w <= final + 1
        right += w * (fits & (hi[k, np.where(fits, right, 0)] <= height))
    # each base runs to the nearest higher entry or the row end; taking
    # that entry in leaves its minimum as it is
    base_start = hi_pos[np.maximum(left - 1, first)]
    base_stop = hi_pos[np.minimum(right, final)]

    def range_min(a, b):
        i, j = np.searchsorted(lo_pos, a), np.searchsorted(lo_pos, b, "right") - 1
        k = np.frexp(j - i + 1)[1] - 1  # floor(log2(j - i + 1))
        return np.minimum(lo[k, i], lo[k, j + 1 - (1 << k)])

    prom = height - np.maximum(range_min(base_start, at), range_min(at, base_stop))
    keep = prom >= threshold
    return rows[keep], at[keep] - rows[keep] * n, prom[keep]


def row_peaks(values, prominence: float = DEFAULT_PROMINENCE) -> tuple:
    """Local maxima of |values| along each row of a 2-D array whose
    prominence is at least `prominence` times the row maximum.

    A maximum is an interior run of equal samples with lower samples on
    both sides, placed at (first + last) // 2; a run that touches a row
    end is none.  Its prominence is its height minus the larger of the
    two minima, taken on each side up to the nearest strictly higher
    sample or the row end (the usual signal-processing definitions).
    The rows are taken about _PEAK_POINTS samples at a time.  Returns
    (row, index, prominence) arrays, ordered by row and index.
    """
    values = np.asarray(values)
    n_rows, n = values.shape
    found = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    if n < 3:
        return found[0]
    for block in _row_blocks(n_rows, n, _PEAK_POINTS):
        y = np.abs(values[block]).astype(float, copy=False)
        rows, idx, prom = _peak_block(y, prominence)
        found.append((rows + block.start, idx, prom))
    return tuple(np.concatenate(column) for column in zip(*found))


def _refined_peaks(probe_frequencies, values, prominence, max_peaks) -> tuple:
    """(row, position) of the row_peaks of values, at most max_peaks of
    the most prominent per row (ties toward lower frequency), refined by
    a parabola through three samples and ordered by row and position."""
    x = np.asarray(probe_frequencies, dtype=float)
    rows, idx, prom = row_peaks(values, prominence)
    if max_peaks is not None:
        order = np.lexsort((idx, -prom, rows))
        rows, idx = rows[order], idx[order]
        rank = np.arange(rows.size) - np.searchsorted(rows, rows)
        rows, idx = rows[rank < max_peaks], idx[rank < max_peaks]
    y0, y1, y2 = (
        np.abs(values[rows, idx + d]).astype(float, copy=False) for d in (-1, 0, 1)
    )
    # at a maximum y1 >= y0, y2, so the vertex lies within half a step
    denom = y0 - 2.0 * y1 + y2
    flat = denom == 0.0
    shift = 0.5 * (y0 - y2) / np.where(flat, 1.0, denom)
    step = 0.5 * (x[idx + 1] - x[idx - 1])
    position = np.where(flat, x[idx], x[idx] + shift * step)
    order = np.lexsort((position, rows))
    return rows[order], position[order]


def peak_positions(
    probe_frequencies,
    magnitudes,
    prominence: float = DEFAULT_PROMINENCE,
    max_peaks: int | None = None,
) -> np.ndarray:
    """Local maxima of |magnitudes| above the relative prominence
    threshold (see row_peaks), refined by quadratic interpolation and
    sorted by frequency.  With max_peaks set, only the most prominent
    ones are kept (ties resolve toward lower frequency)."""
    row = np.asarray(magnitudes)[None, :]
    return _refined_peaks(probe_frequencies, row, prominence, max_peaks)[1]


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
