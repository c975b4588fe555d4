"""Nonlinear least-squares extraction of physical parameters from
spectrum rows and 2D grids.

The solver is a damped Gauss-Newton (Levenberg-Marquardt) loop with a
multiplicative damping schedule on diag(J^T J).  Every model closure
takes model(theta, data=None).  Without data it returns (values, J), for
jacobian_check and the tests; with data it returns (values, G), where
G = [J r]^T [J r] is the (n+1)x(n+1) Gram matrix of the Jacobian columns
and the residual r = values - data.  The solver asks for the second
form only and reads the cost, J^T r and J^T J from G.  Accepted steps
never increase the residual norm; convergence is declared when the
relative step falls below 1e-10 or the scaled residual-gradient norm
below 1e-8, within 200 iterations.  Strictly positive parameters
(widths, couplings) are handled through a smooth softplus
reparameterization; one that underflows to exactly 0.0 fails the fit.
Reported values and linearized standard errors are in physical space;
the softplus chain rule and the standard errors act on the kept
products of the accepted point.

The |S21| grid model is evaluated in cache-sized blocks of rows by one
formula.  Only where a block goes differs: into the full Jacobian
array, or into an (8, block) buffer whose Gram matrix is added to G
while the block is in cache.  So a fit never holds a grid-sized
Jacobian; its only grid-sized arrays are the values and the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupled import EnsembleSpec, collective_modes
from .errors import DegenerateDataError, ValidationError
from .spin import CrystalOrientation, NVParameters, _solve, sweep_fields
from .transmission import (
    DEFAULT_PROMINENCE,
    SpectrumGrid,
    _refined_peaks,
    _row_blocks,
    peak_positions,
    s21_denominator,
)

__all__ = [
    "FitResult",
    "SpinTuning",
    "levenberg_marquardt",
    "lorentzian_model",
    "fit_lorentzian",
    "fit_polariton_width",
    "fit_avoided_crossing",
    "fit_full_transmission",
    "jacobian_check",
    "extract_branches",
]

MAX_ITERATIONS = 200
STEP_TOL = 1e-10
GRAD_TOL = 1e-8
GAMMA_SEED = 3.0  # MHz, where a full fit without init starts both spin widths


@dataclass(frozen=True)
class FitResult:
    """Converged parameter set with linearized standard errors.

    `history` records the residual norm after every accepted step.
    """

    parameters: dict
    standard_errors: dict | None
    residual_norm: float
    iterations: int
    converged: bool
    history: tuple = ()


# ---------------------------------------------------------------------------
# positivity transform

def _softplus(q):
    return np.where(q > 30.0, q, np.log1p(np.exp(np.minimum(q, 30.0))))


def _softplus_inv(p):
    if np.any(p <= 0):
        raise ValueError("positive-constrained parameters must start positive")
    return np.where(p > 30.0, p, np.log(np.expm1(np.minimum(p, 30.0))))


def _sigmoid(q):
    # exp of -|q| only, so large negative q cannot overflow
    e = np.exp(-np.abs(q))
    return np.where(q >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# ---------------------------------------------------------------------------
# solver

def levenberg_marquardt(
    model, data, theta0, names, positive=None, max_iter: int = MAX_ITERATIONS
) -> FitResult:
    """Minimize ||model(theta)[0] - data||^2 in physical space, given
    model(theta, data) -> (values, G) with G = [J r]^T [J r] and
    r = values - data.  Returns a FitResult; converged=False when the
    iteration budget runs out, damping stalls or a positive parameter
    ends on exactly 0.0 (softplus underflow)."""
    names = list(names)
    n = len(names)
    data = np.asarray(data, dtype=float)
    mask = np.asarray([False] * n if positive is None else positive, dtype=bool)
    q = np.array(theta0, dtype=float)
    q[mask] = _softplus_inv(q[mask])

    def evaluate(q_vec, bound=None):
        # (p, cost, J^T r, J^T J) at q_vec, read from the model's Gram
        # matrix; None when a bound is given and the cost is not finite
        # and <= bound.
        p = np.array(q_vec, dtype=float)
        p[mask] = _softplus(p[mask])
        gram = model(p, data)[1]
        cost = float(gram[n, n])
        if bound is not None and not (cost <= bound and np.isfinite(cost)):
            return None
        return p, cost, gram[:n, n], gram[:n, :n]

    p, cost, jtr, jtj = evaluate(q)
    history = [math.sqrt(cost)]
    lam = 1e-3
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        # The softplus chain scales the columns of J, so it scales the
        # kept products.
        chain = np.ones(n)
        chain[mask] = _sigmoid(q[mask])
        grad = chain * jtr
        if np.max(np.abs(grad)) < GRAD_TOL * (1.0 + math.sqrt(cost)):
            converged = True
            break
        a = chain[:, None] * jtj * chain[None, :]
        diag = np.diag(a)
        diag = np.maximum(diag, 1e-12 * max(float(np.max(diag)), 1.0))

        while lam <= 1e12:
            try:
                delta = np.linalg.solve(a + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            q_new = q + delta
            trial = evaluate(q_new, cost)
            if trial is not None:
                step_rel = float(np.max(np.abs(delta) / np.maximum(np.abs(q), 1.0)))
                converged = step_rel < STEP_TOL
                q = q_new
                p, cost, jtr, jtj = trial
                history.append(math.sqrt(cost))
                lam = max(lam / 3.0, 1e-12)
                break
            lam *= 10.0
        else:
            break  # damping stalled
        if converged:
            break

    if np.any(p[mask] == 0.0):
        converged = False  # on the softplus floor, not at a minimum
    errors = _standard_errors(jtj, cost, data.size) if converged else None
    return FitResult(
        parameters=dict(zip(names, map(float, p))),
        standard_errors=None if errors is None else dict(zip(names, map(float, errors))),
        residual_norm=math.sqrt(cost),
        iterations=iterations,
        converged=converged,
        history=tuple(history),
    )


def _gram(values, jac, data):
    """[J r]^T [J r] with r = values - data: J^T J, J^T r and r.r in one
    (n+1)x(n+1) matrix, the form levenberg_marquardt reads."""
    jr = np.column_stack((jac, values - data))
    return jr.T @ jr


def _standard_errors(jtj, cost, m):
    """Linearized standard errors from J^T J of m residuals."""
    n = jtj.shape[0]
    if m <= n:
        return None
    try:
        cov = cost / (m - n) * np.linalg.pinv(jtj)
    except np.linalg.LinAlgError:
        return None
    return np.sqrt(np.maximum(np.diag(cov), 0.0))


def jacobian_check(model, theta) -> float:
    """Worst relative deviation between the model's own Jacobian and a
    central finite difference with step 1e-6 in every parameter."""
    theta = np.asarray(theta, dtype=float)
    _, jac = model(theta)
    jac = np.asarray(jac, dtype=float)
    fd = np.empty_like(jac)
    h = 1e-6
    for i in range(theta.size):
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        fd[:, i] = (np.asarray(model(up)[0]) - np.asarray(model(down)[0])) / (2.0 * h)
    # Deviations are measured against each column's derivative scale so
    # that round-off on near-zero entries does not mask real errors on
    # the entries that matter.
    col_scale = np.maximum(
        np.max(np.maximum(np.abs(jac), np.abs(fd)), axis=0), 1e-10
    )
    return float(np.max(np.abs(jac - fd) / col_scale[None, :]))


# ---------------------------------------------------------------------------
# Lorentzian peak model

def lorentzian_model(xs):
    """Power-Lorentzian peak A*w^2/((x-x0)^2 + w^2) + b as a model
    closure over sample positions for theta = (amplitude, center = x0,
    hwhm = w, offset = b): model(theta) -> (values, Jacobian),
    model(theta, data) -> (values, Gram matrix)."""
    xs = np.asarray(xs, dtype=float)

    def model(theta, data=None):
        a, x0, w, b = theta
        d = xs - x0
        u = d**2 + w**2
        f = a * w**2 / u + b
        jac = np.empty((xs.size, 4))
        jac[:, 0] = w**2 / u
        jac[:, 1] = 2.0 * a * w**2 * d / u**2
        jac[:, 2] = 2.0 * a * w * d**2 / u**2
        jac[:, 3] = 1.0
        return f, jac if data is None else _gram(f, jac, data)

    return model


def _lorentzian_init(xs, ys):
    b = float(np.min(ys))
    a = float(np.max(ys) - b)
    x0 = float(xs[int(np.argmax(ys))])
    above = ys > b + 0.5 * a
    if np.count_nonzero(above) >= 2:
        span = xs[above]
        w = 0.5 * float(span[-1] - span[0])
    else:
        w = 0.1 * float(xs[-1] - xs[0])
    w = max(w, 1e-6 * max(abs(float(xs[-1] - xs[0])), 1.0))
    return np.array([a, x0, w, b])


def fit_lorentzian(xs, ys, init=None, max_iter: int = MAX_ITERATIONS) -> FitResult:
    """Least-squares Lorentzian peak fit on power data."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 4:
        raise DegenerateDataError("need at least 4 points")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DegenerateDataError("data contains non-finite values")
    spread = float(np.ptp(ys))
    if spread <= 1e-300 or spread < 1e-12 * max(abs(float(np.max(ys))), 1e-300):
        raise DegenerateDataError("flat data carries no peak to fit")

    theta0 = _lorentzian_init(xs, ys) if init is None else np.asarray(init, dtype=float)
    return levenberg_marquardt(
        lorentzian_model(xs),
        ys,
        theta0,
        names=("amplitude", "center", "hwhm", "offset"),
        positive=(False, False, True, False),
        max_iter=max_iter,
    )


def _half_power_crossings(xs, power, peak_index):
    """Interpolated positions left/right of the peak where the power
    drops to half its peak value."""
    half = 0.5 * power[peak_index]

    def crossing(step, side):
        i = peak_index
        while 0 <= i + step < power.size and power[i] > half:
            i += step
        if power[i] > half:
            raise DegenerateDataError(f"peak has no {side} half-power crossing in range")
        return float(np.interp(half, [power[i], power[i - step]], [xs[i], xs[i - step]]))

    right = crossing(1, "right")
    return crossing(-1, "left"), right


def fit_polariton_width(probe, magnitudes) -> FitResult:
    """Lorentzian HWHM of the upper polariton peak of an |S21| row.

    The fit runs on power (|S21|^2) over the peak's half-power region
    padded by one direct half-width on each side, which keeps the
    estimate insensitive to the other polariton's tail.
    """
    xs = np.asarray(probe, dtype=float)
    power = np.abs(magnitudes) ** 2
    peaks = peak_positions(xs, magnitudes)
    if peaks.size == 0:
        raise DegenerateDataError("no peak above the prominence threshold")
    center = float(peaks[-1])
    idx = int(np.argmin(np.abs(xs - center)))
    left, right = _half_power_crossings(xs, power, idx)
    width = 0.5 * (right - left)
    window = (xs >= left - width) & (xs <= right + width)
    return fit_lorentzian(
        xs[window],
        power[window],
        init=[float(power[idx]), center, width, 0.0],
    )


# ---------------------------------------------------------------------------
# spin tuning curves for grid fits

@dataclass(frozen=True)
class SpinTuning:
    """Spin transition frequency versus the sweep parameter, with the
    complementary field coordinate held fixed."""

    nv: NVParameters
    orientation: CrystalOrientation
    sweep_kind: str
    fixed: float

    @classmethod
    def from_ensemble(cls, ensemble: EnsembleSpec, sweep_kind: str, fixed: float):
        return cls(ensemble.nv, ensemble.orientation, sweep_kind, fixed)


def _spin_curves(tunings, sweep_values, offset: float = 0.0) -> tuple:
    """Lower transition frequencies and their slopes per sweep unit at
    the sweep values plus `offset`, each (len(tunings), n), from one
    spin solve of all the tunings.  They share a sweep kind, the
    coordinate the slopes are taken along."""
    kind = tunings[0].sweep_kind
    if any(t.sweep_kind != kind for t in tunings):
        raise ValueError("tuning curves solved together share a sweep kind")
    s = np.asarray(sweep_values, dtype=float) + offset
    fixed = np.reshape([t.fixed for t in tunings], (-1,) + (1,) * s.ndim)
    mags, angles = sweep_fields(kind, s, fixed)
    nvs, orientations = zip(*((t.nv, t.orientation) for t in tunings))
    levels, slope = _solve(nvs, orientations, mags, angles, kind)
    return levels[..., 1], slope


# ---------------------------------------------------------------------------
# avoided-crossing branch fit

def _require_cells(grid: SpectrumGrid, *tunings):
    """Refuse a grid with nothing to fit, or tunings of another sweep."""
    if grid.amplitudes.size == 0:
        raise DegenerateDataError(
            f"empty grid ({grid.sweep_values.size} rows, "
            f"{grid.probe_frequencies.size} columns): nothing to fit"
        )
    if np.any(np.diff(grid.probe_frequencies) <= 0):  # the rule read_grid applies to files
        raise ValidationError("probe frequencies are not strictly increasing")
    finite = np.isfinite(grid.amplitudes)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise DegenerateDataError(f"non-finite grid cell in row {row}, column {col}")
    for tuning in tunings:
        if tuning is not None and tuning.sweep_kind != grid.sweep_kind:
            raise ValidationError(
                f"a {tuning.sweep_kind!r} spin tuning cannot fit a grid with "
                f"sweep_kind={grid.sweep_kind!r}"
            )


def extract_branches(grid: SpectrumGrid, prominence: float, max_peaks):
    """Polariton positions as (row index, position) arrays ordered by
    row and position: the at most `max_peaks` most prominent maxima of
    each grid row; one peak search over the whole grid.  The branch
    model of N ensembles has N + 1 modes."""
    return _refined_peaks(grid.probe_frequencies, grid.amplitudes, prominence, max_peaks)


def _branch_modes(sweep_values, theta, tunings):
    """(eigenvalues, eigenvectors, spin slopes) at each sweep value s of
    the collective_modes matrix with nu_c, the g_k and the
    nu_k(s + offset) of theta."""
    n = len(tunings)
    g, nu_c, offset = theta[:n], theta[n], theta[n + 1]
    nus, slopes = _spin_curves(tunings, sweep_values, offset)
    lam, vecs = collective_modes(nu_c, g, nus.T)
    return lam, vecs, slopes.T


def avoided_crossing_model(sweep_values, modes, tunings):
    """Model closure for branch positions; theta = (g_1..g_N, nu_c, offset).

    Point j is eigenvalue `modes[j]` (an index, ascending) of the
    _branch_modes matrix at s_j.  With modes=None the solver's form,
    model(theta, data), sends each point to the eigenvalue nearest its
    data value at that theta, afresh at every call.  The Jacobian comes
    from the same eigenvectors v (Hellmann-Feynman): 2 v_0 v_k for g_k,
    v_0^2 for nu_c and sum_k v_k^2 dnu_k/ds for the offset.
    """
    rows, row_of = np.unique(np.asarray(sweep_values, dtype=float), return_inverse=True)

    def model(theta, data=None):
        lam, vecs, slopes = _branch_modes(rows, theta, tunings)
        picked = modes
        if picked is None:
            if data is None:
                raise ValueError("a branch model without modes needs data to match")
            picked = np.argmin(np.abs(lam[row_of] - np.reshape(data, (-1, 1))), axis=1)
        v = vecs[row_of, :, picked]
        jac = np.empty((row_of.size, len(tunings) + 2))
        jac[:, :-2] = 2.0 * v[:, :1] * v[:, 1:]
        jac[:, -2] = v[:, 0] ** 2
        jac[:, -1] = np.sum(v[:, 1:] ** 2 * slopes[row_of], axis=1)
        values = lam[row_of, picked]
        return values, jac if data is None else _gram(values, jac, data)

    return model


def _enters_window(grid: SpectrumGrid, tunings) -> np.ndarray:
    """Whether each transition meets the probe window over the sweep,
    from one spin solve of all the tunings."""
    nu = _spin_curves(tunings, grid.sweep_values)[0]
    probe = grid.probe_frequencies
    return (nu.min(axis=1) <= probe.max()) & (nu.max(axis=1) >= probe.min())


def fit_avoided_crossing(
    grid: SpectrumGrid,
    tuning: SpinTuning,
    other: SpinTuning | None = None,
    *,
    prominence: float = DEFAULT_PROMINENCE,
    max_iter: int = MAX_ITERATIONS,
) -> FitResult:
    """Two-stage avoided-crossing fit: extract per-row peak positions,
    then least-squares avoided_crossing_model through them; theta =
    (g, [g_other], nu_c, offset), g being the coupling of `tuning`.

    An ensemble whose transition never enters the probe window is left
    out of the model and theta (DegenerateDataError if it is `tuning`).
    At least two grid rows need two or more peaks; the smallest
    outer-peak gap among them seeds the couplings.  One LM run fits the
    model with modes=None, so each peak goes to its nearest eigenvalue
    at every evaluation, as the parameters move.
    """
    _require_cells(grid, tuning, other)
    given = [t for t in (tuning, other) if t is not None]
    tunings = [t for t, inside in zip(given, _enters_window(grid, given)) if inside]
    if tuning not in tunings:
        raise DegenerateDataError("the fitted ensemble never enters the probe window")
    n = len(tunings)
    names = ["g", "g_other"][:n] + ["nu_c", "offset"]

    rows, nuhat = extract_branches(grid, prominence, n + 1)
    _, first, counts = np.unique(rows, return_index=True, return_counts=True)
    split = counts >= 2
    if np.count_nonzero(split) < 2:
        raise DegenerateDataError(
            "insufficient branch coverage: need at least two rows with a "
            "resolved polariton pair"
        )
    spans = nuhat[first + counts - 1] - nuhat[first]
    g0 = 0.5 * float(np.min(spans[split])) / math.sqrt(n)
    theta = np.array([g0] * n + [float(np.median(nuhat)), 0.0])

    return levenberg_marquardt(
        avoided_crossing_model(grid.sweep_values[rows], None, tunings),
        nuhat,
        theta,
        names=names,
        positive=[True] * n + [False, False],
        max_iter=max_iter,
    )


# ---------------------------------------------------------------------------
# joint transmission-grid fit

_FULL_NAMES = ("g_i", "g_ii", "kappa", "gamma_i", "gamma_ii", "nu_c", "offset")


def transmission_model(
    probe, sweep_values, tuning_i: SpinTuning, tuning_ii: SpinTuning
):
    """Model closure for |S21| over a full grid (flattened row-major);
    theta = (g_i, g_ii, kappa, gamma_i, gamma_ii, nu_c, offset).

    kappa_ext is tied to kappa (bare-peak-normalized convention).

    With D the denominator and u = 1/D, |S21| = kappa*|u|, so every
    Jacobian column is the log-derivative d|S|/dtheta = -|S| Re(u dD/dtheta)
    (plus |S|/kappa for kappa) and nothing divides by |S|.

    The grid is evaluated in blocks of rows, each written straight into
    the preallocated values.  model(theta) writes the Jacobian columns
    into one contiguous array per column; the (m, 7) Jacobian is the
    transpose of that (7, m) array, so it comes back column-major.
    model(theta, data) writes them, with the block's residuals as an
    eighth row, into one (8, block) buffer and adds its Gram matrix to
    the 8x8 G; `data` may be flat or (rows, cols), and strided.  Every
    block's complex and real temporaries live in one workspace that the
    closure allocates once, so a call allocates little beyond its values
    and Jacobian, which are fresh arrays each time.  Every element is
    computed by the same formula whatever the block size and call form.
    """
    probe = np.asarray(probe, dtype=float)
    sweep_values = np.asarray(sweep_values, dtype=float)
    blocks = list(_row_blocks(sweep_values.size, probe.size))
    # sized to the first block, the largest: D, q_i, q_ii, u = 1/D and
    # the products u q and u q^2; a real scratch array; and the Gram
    # form's buffer, whose rows 0-6 take the Jacobian columns and row 7
    # the residual
    shape = (blocks[0].stop if blocks else 0, probe.size)
    work = np.empty((6,) + shape, dtype=complex)
    work_real = np.empty(shape)
    work_gram = np.empty((8,) + shape)

    def model(theta, data=None):
        g_i, g_ii, kappa, gamma_i, gamma_ii, nu_c, offset = theta
        (nu_i, nu_ii), (dnu_i, dnu_ii) = _spin_curves((tuning_i, tuning_ii), sweep_values, offset)
        values = np.empty((sweep_values.size, probe.size))
        if data is None:
            cols = np.empty((7,) + values.shape)
        else:
            data = np.reshape(data, values.shape)
            gram = np.zeros((8, 8))
        for rows in blocks:
            n = rows.stop - rows.start
            den, q_i, q_ii, u, a, b = work[:, :n]
            scratch = work_real[:n]
            s21_denominator(
                probe[None, :],
                nu_c,
                kappa,
                [(g_i, nu_i[rows, None], gamma_i), (g_ii, nu_ii[rows, None], gamma_ii)],
                out=(den, [q_i, q_ii], scratch, a),
            )
            np.divide(1.0, den, out=u)
            absval = values[rows]
            np.abs(u, out=absval)
            np.multiply(kappa, absval, out=absval)
            block = cols[:, rows] if data is None else work_gram[:, :n]
            np.subtract(1.0 / kappa, u.real, out=block[2])
            np.multiply(absval, block[2], out=block[2])
            np.multiply(absval, u.imag, out=block[5])
            d_off = block[6]
            d_off[...] = 0.0
            for k, (g, q, dnu_s) in enumerate(zip((g_i, g_ii), (q_i, q_ii), (dnu_i, dnu_ii))):
                np.multiply(u, q, out=a)
                np.multiply(a, q, out=b)
                np.multiply(-2.0 * g, absval, out=block[k])
                np.multiply(block[k], a.real, out=block[k])
                np.multiply(g**2, absval, out=block[3 + k])
                np.multiply(block[3 + k], b.real, out=block[3 + k])
                np.multiply(g**2 * dnu_s[rows, None], b.imag, out=scratch)
                np.subtract(d_off, scratch, out=d_off)
            np.multiply(absval, d_off, out=d_off)
            if data is not None:
                np.subtract(absval, data[rows], out=block[7])
                flat = block.reshape(8, -1)
                gram += flat @ flat.T
        if data is None:
            return values.ravel(), cols.reshape(7, -1).T
        return values.ravel(), gram

    return model


def initial_guess_full(
    grid, tuning_i, tuning_ii, prominence=DEFAULT_PROMINENCE, max_iter=MAX_ITERATIONS
):
    """Starting point from the grid itself: couplings, nu_c and offset
    from the branch fit of both ensembles (g_ii starts at g_i when the
    fit leaves ensemble II out), kappa from the half-power HWHM of the
    tallest row's peak, and both spin widths at GAMMA_SEED."""
    branch = fit_avoided_crossing(
        grid, tuning_i, tuning_ii, prominence=prominence, max_iter=max_iter
    )
    if not branch.converged:
        raise DegenerateDataError("the branch fit that seeds the full fit did not converge")
    p = branch.parameters
    # the first cell of the largest |S21|
    row, col = np.unravel_index(np.argmax(grid.amplitudes), grid.amplitudes.shape)
    left, right = _half_power_crossings(grid.probe_frequencies, grid.amplitudes[row] ** 2, col)
    kappa0 = 0.5 * (right - left)
    g_ii = p.get("g_other", p["g"])
    return np.array([p["g"], g_ii, kappa0, GAMMA_SEED, GAMMA_SEED, p["nu_c"], p["offset"]])


def fit_full_transmission(
    grid: SpectrumGrid,
    tuning_i: SpinTuning,
    tuning_ii: SpinTuning,
    init=None,
    prominence: float = DEFAULT_PROMINENCE,
    max_iter: int = MAX_ITERATIONS,
) -> FitResult:
    """Joint least squares of |S21| over the whole grid against the
    input-output forward model.  The model reads the grid's amplitudes
    in place, which for a grid from `read_grid` is a view of the parsed
    table, so the fit makes no copy of them."""
    _require_cells(grid, tuning_i, tuning_ii)
    if init is None:
        init = initial_guess_full(grid, tuning_i, tuning_ii, prominence, max_iter)
    return levenberg_marquardt(
        transmission_model(grid.probe_frequencies, grid.sweep_values, tuning_i, tuning_ii),
        grid.amplitudes,
        init,
        names=_FULL_NAMES,
        positive=(True, True, True, True, True, False, False),
        max_iter=max_iter,
    )
