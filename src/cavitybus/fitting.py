"""Nonlinear least-squares extraction of physical parameters from
spectrum rows and 2D grids.

The solver is a damped Gauss-Newton (Levenberg-Marquardt) loop with a
multiplicative damping schedule on diag(J^T J).  Accepted steps never
increase the residual norm; convergence is declared when the relative
step falls below 1e-10 or the scaled residual-gradient norm below 1e-8,
within 200 iterations.  Strictly positive parameters (widths,
couplings) are handled through a smooth softplus reparameterization;
reported values and standard errors are in physical space.  Standard
errors are linearized (Jacobian-based) estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .coupled import EnsembleSpec
from .errors import DegenerateDataError
from .spin import (
    CrystalOrientation,
    NVParameters,
    transition_batch,
    transition_minus_derivative,
)
from .transmission import DEFAULT_PROMINENCE, SpectrumGrid, peak_positions

__all__ = [
    "FitResult",
    "SpinTuning",
    "levenberg_marquardt",
    "lorentzian",
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


@dataclass(frozen=True)
class FitResult:
    """Converged parameter set with linearized standard errors.

    `history` records the residual norm after every accepted step;
    `provenance` carries run metadata such as noise seeds.
    """

    parameters: dict
    standard_errors: dict | None
    residual_norm: float
    iterations: int
    converged: bool
    history: tuple = ()
    provenance: dict = dataclass_field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "parameters": dict(self.parameters),
            "standard_errors": None
            if self.standard_errors is None
            else dict(self.standard_errors),
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "converged": self.converged,
            "provenance": dict(self.provenance),
        }


# ---------------------------------------------------------------------------
# positivity transform

def _softplus(q):
    q = np.asarray(q, dtype=float)
    return np.where(q > 30.0, q, np.log1p(np.exp(np.minimum(q, 30.0))))


def _softplus_inv(p):
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        raise ValueError("positive-constrained parameters must start positive")
    return np.where(p > 30.0, p, np.log(np.expm1(np.minimum(p, 30.0))))


def _sigmoid(q):
    # exp of -|q| only, so large negative q cannot overflow
    q = np.asarray(q, dtype=float)
    e = np.exp(-np.abs(q))
    return np.where(q >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class _Transform:
    """Maps internal coordinates to physical ones, softplus on the
    positive-constrained entries and identity elsewhere."""

    def __init__(self, positive_mask):
        self.mask = np.asarray(positive_mask, dtype=bool)

    def to_internal(self, p):
        q = np.array(p, dtype=float)
        q[self.mask] = _softplus_inv(q[self.mask])
        return q

    def to_physical(self, q):
        p = np.array(q, dtype=float)
        p[self.mask] = _softplus(p[self.mask])
        return p

    def chain(self, q):
        d = np.ones_like(np.asarray(q, dtype=float))
        d[self.mask] = _sigmoid(np.asarray(q, dtype=float)[self.mask])
        return d


# ---------------------------------------------------------------------------
# solver

def levenberg_marquardt(
    residual_jac,
    theta0,
    names,
    positive=None,
    max_iter: int = MAX_ITERATIONS,
    step_tol: float = STEP_TOL,
    grad_tol: float = GRAD_TOL,
) -> FitResult:
    """Minimize ||r(theta)||^2 given residual_jac(theta) -> (r, J) in
    physical space.  Returns a FitResult; converged=False when the
    iteration budget runs out or damping stalls."""
    names = list(names)
    n = len(names)
    if positive is None:
        positive = [False] * n
    transform = _Transform(positive)
    q = transform.to_internal(np.asarray(theta0, dtype=float))

    def evaluate(q_vec):
        p = transform.to_physical(q_vec)
        r, jp = residual_jac(p)
        return p, np.asarray(r, dtype=float), np.asarray(jp, dtype=float)

    # jp is the physical-space Jacobian of the accepted point; it is
    # kept for the standard errors once the loop converges.
    p, r, jp = evaluate(q)
    cost = float(r @ r)
    history = [math.sqrt(cost)]
    lam = 1e-3
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        j = jp * transform.chain(q)[None, :]
        grad = j.T @ r
        if np.max(np.abs(grad)) < grad_tol * (1.0 + math.sqrt(cost)):
            converged = True
            break
        a = j.T @ j
        del j  # free the scaled copy before the trial evaluations
        diag = np.diag(a).copy()
        floor = 1e-12 * max(float(np.max(diag)), 1.0)
        diag = np.maximum(diag, floor)

        accepted = False
        while lam <= 1e12:
            try:
                delta = np.linalg.solve(a + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            q_new = q + delta
            p_new, r_new, jp_new = evaluate(q_new)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost and np.isfinite(cost_new):
                step_rel = float(
                    np.max(np.abs(delta) / np.maximum(np.abs(q), 1.0))
                )
                q, p, r, jp, cost = q_new, p_new, r_new, jp_new, cost_new
                history.append(math.sqrt(cost))
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                if step_rel < step_tol:
                    converged = True
                break
            lam *= 10.0
        if not accepted or converged:
            break

    errors = None
    if converged:
        errors = _standard_errors(jp, cost)
    params = {name: float(val) for name, val in zip(names, p)}
    err_map = None
    if errors is not None:
        err_map = {name: float(val) for name, val in zip(names, errors)}
    return FitResult(
        parameters=params,
        standard_errors=err_map,
        residual_norm=math.sqrt(cost),
        iterations=iterations,
        converged=converged,
        history=tuple(history),
    )


def _standard_errors(jp, cost):
    m, n = jp.shape
    if m <= n:
        return None
    s2 = cost / (m - n)
    try:
        cov = s2 * np.linalg.pinv(jp.T @ jp)
    except np.linalg.LinAlgError:
        return None
    diag = np.diag(cov)
    if np.any(diag < 0):
        diag = np.maximum(diag, 0.0)
    return np.sqrt(diag)


def jacobian_check(model, theta, h_scale: float = 1e-6, scales=None) -> float:
    """Worst relative deviation between the model's own Jacobian and a
    central finite difference with per-parameter step h_scale*scale_i.

    scales defaults to max(|theta_i|, 1); pass explicit characteristic
    scales when a parameter's magnitude (an absolute frequency, say) is
    much larger than the scale over which the model varies.
    """
    theta = np.asarray(theta, dtype=float)
    if scales is None:
        scales = np.maximum(np.abs(theta), 1.0)
    scales = np.asarray(scales, dtype=float)
    _, jac = model(theta)
    jac = np.asarray(jac, dtype=float)
    fd = np.empty_like(jac)
    for i in range(theta.size):
        h = h_scale * scales[i]
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

def lorentzian(x, amplitude, center, hwhm, offset):
    """Power-Lorentzian peak A*w^2/((x-x0)^2 + w^2) + b."""
    x = np.asarray(x, dtype=float)
    return amplitude * hwhm**2 / ((x - center) ** 2 + hwhm**2) + offset


def lorentzian_model(xs):
    """Model closure over sample positions, returning (values, Jacobian)
    for theta = (amplitude, center, hwhm, offset)."""
    xs = np.asarray(xs, dtype=float)

    def model(theta):
        a, x0, w, b = theta
        d = xs - x0
        u = d**2 + w**2
        f = a * w**2 / u + b
        jac = np.empty((xs.size, 4))
        jac[:, 0] = w**2 / u
        jac[:, 1] = 2.0 * a * w**2 * d / u**2
        jac[:, 2] = 2.0 * a * w * d**2 / u**2
        jac[:, 3] = 1.0
        return f, jac

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

    model = lorentzian_model(xs)

    def residual_jac(theta):
        f, jac = model(theta)
        return f - ys, jac

    theta0 = _lorentzian_init(xs, ys) if init is None else np.asarray(init, dtype=float)
    return levenberg_marquardt(
        residual_jac,
        theta0,
        names=("amplitude", "center", "hwhm", "offset"),
        positive=(False, False, True, False),
        max_iter=max_iter,
    )


def _half_power_crossings(xs, power, peak_index):
    """Interpolated positions left/right of the peak where the power
    drops to half its peak value."""
    half = 0.5 * power[peak_index]
    i = peak_index
    while i + 1 < power.size and power[i] > half:
        i += 1
    if power[i] > half:
        raise DegenerateDataError("peak has no right half-power crossing in range")
    right = float(np.interp(half, [power[i], power[i - 1]], [xs[i], xs[i - 1]]))
    i = peak_index
    while i - 1 >= 0 and power[i] > half:
        i -= 1
    if power[i] > half:
        raise DegenerateDataError("peak has no left half-power crossing in range")
    left = float(np.interp(half, [power[i], power[i + 1]], [xs[i], xs[i + 1]]))
    return left, right


def fit_polariton_width(
    probe,
    magnitudes,
    which: str = "upper",
    prominence: float = DEFAULT_PROMINENCE,
) -> FitResult:
    """Lorentzian HWHM of one polariton peak of an |S21| row.

    The fit runs on power (|S21|^2) over the half-power region of the
    selected peak padded by one direct half-width on each side, which
    keeps the estimate insensitive to the other polariton's tail.
    """
    xs = np.asarray(probe, dtype=float)
    amp = np.abs(np.asarray(magnitudes))
    power = amp**2
    peaks = peak_positions(xs, amp, prominence)
    if peaks.size == 0:
        raise DegenerateDataError("no peak above the prominence threshold")
    center = float(peaks[-1] if which == "upper" else peaks[0])
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

    def _coords(self, sweep_values, offset):
        s = np.asarray(sweep_values, dtype=float) + offset
        if self.sweep_kind == "angle":
            return np.full_like(s, self.fixed), s
        if self.sweep_kind == "magnitude":
            return s, np.full_like(s, self.fixed)
        raise ValueError(f"unsupported sweep kind {self.sweep_kind!r}")

    def frequencies(self, sweep_values, offset: float = 0.0) -> np.ndarray:
        mags, angles = self._coords(sweep_values, offset)
        return transition_batch(self.nv, self.orientation, mags, angles)

    def derivative(self, sweep_values, offset: float = 0.0) -> np.ndarray:
        mags, angles = self._coords(sweep_values, offset)
        return transition_minus_derivative(
            self.nv, self.orientation, mags, angles, wrt=self.sweep_kind
        )


# ---------------------------------------------------------------------------
# avoided-crossing branch fit

def extract_branches(grid: SpectrumGrid, prominence: float = DEFAULT_PROMINENCE):
    """Per-row polariton positions: list of (sweep_value, sorted array
    of at most two peaks).  Only the two most prominent maxima per row
    are kept, since the branch model has exactly two branches."""
    out = []
    mags = grid.magnitudes
    for k, s in enumerate(grid.sweep_values):
        peaks = peak_positions(
            grid.probe_frequencies, mags[k], prominence, max_peaks=2
        )
        if peaks.size:
            out.append((float(s), peaks))
    return out


def _branch_frequencies(nu_s, nu_c, g):
    mean = 0.5 * (nu_c + nu_s)
    half = 0.5 * (nu_c - nu_s)
    root = np.sqrt(half**2 + g**2)
    return mean - root, mean + root, half, root


def avoided_crossing_model(sweep_values, branch_signs, tuning: SpinTuning):
    """Model closure for branch positions; theta = (g, nu_c, offset).

    `branch_signs` is -1/+1 per data point selecting the lower or upper
    polariton branch at the matching sweep value.
    """
    sweep_values = np.asarray(sweep_values, dtype=float)
    signs = np.asarray(branch_signs, dtype=float)

    def model(theta):
        g, nu_c, offset = theta
        nu_s = tuning.frequencies(sweep_values, offset)
        dnu_s = tuning.derivative(sweep_values, offset)
        mean = 0.5 * (nu_c + nu_s)
        half = 0.5 * (nu_c - nu_s)
        root = np.sqrt(half**2 + g**2)
        f = mean + signs * root
        jac = np.empty((sweep_values.size, 3))
        jac[:, 0] = signs * g / root
        jac[:, 1] = 0.5 + signs * half / (2.0 * root)
        jac[:, 2] = dnu_s * (0.5 - signs * half / (2.0 * root))
        return f, jac

    return model


def fit_avoided_crossing(
    grid: SpectrumGrid,
    tuning: SpinTuning,
    init=None,
    prominence: float = DEFAULT_PROMINENCE,
    max_iter: int = MAX_ITERATIONS,
) -> FitResult:
    """Two-stage avoided-crossing fit: extract per-row peak positions,
    then least-squares the polariton branch model through them.

    Rows showing two peaks pin both branches; single-peak rows attach to
    the nearer branch (reassigned as the parameters move).  Automatic
    initialization needs at least two resolved polariton pairs; an
    explicit init bypasses that requirement (an unsplit grid then fits
    a coupling near zero with a correspondingly wide standard error).
    """
    rows = extract_branches(grid, prominence)
    if not rows:
        raise DegenerateDataError("no peaks above the prominence threshold")
    split_rows = [rp for rp in rows if rp[1].size >= 2]
    if init is None and len(split_rows) < 2:
        raise DegenerateDataError(
            "insufficient branch coverage: need at least two rows with a "
            "resolved polariton pair (or an explicit init)"
        )

    points = []
    for s, peaks in rows:
        if peaks.size >= 2:
            points.append((s, float(peaks[0]), -1.0, True))
            points.append((s, float(peaks[-1]), +1.0, True))
        else:
            points.append((s, float(peaks[0]), 0.0, False))
    svals = np.array([pt[0] for pt in points])
    nuhat = np.array([pt[1] for pt in points])
    fixed_signs = np.array([pt[2] for pt in points])
    pinned = np.array([pt[3] for pt in points])

    if init is None:
        gaps = [float(p[-1] - p[0]) for _, p in split_rows]
        g0 = 0.5 * min(gaps)
        nu_c0 = float(np.median(nuhat))
        init = np.array([max(g0, 1e-3), nu_c0, 0.0])
    theta = np.asarray(init, dtype=float)

    def assign_signs(theta_now):
        lower, upper, _, _ = _branch_frequencies(
            tuning.frequencies(svals, theta_now[2]), theta_now[1], theta_now[0]
        )
        signs = fixed_signs.copy()
        free = ~pinned
        signs[free] = np.where(
            np.abs(nuhat[free] - lower[free]) <= np.abs(nuhat[free] - upper[free]),
            -1.0,
            1.0,
        )
        return signs

    result = None
    for _ in range(4):
        signs = assign_signs(theta)
        model = avoided_crossing_model(svals, signs, tuning)

        def residual_jac(p):
            f, jac = model(p)
            return f - nuhat, jac

        result = levenberg_marquardt(
            residual_jac,
            theta,
            names=("g", "nu_c", "offset"),
            positive=(True, False, False),
            max_iter=max_iter,
        )
        new_theta = np.array(
            [result.parameters["g"], result.parameters["nu_c"], result.parameters["offset"]]
        )
        if np.array_equal(assign_signs(new_theta), signs):
            theta = new_theta
            break
        theta = new_theta
    return result


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
    """
    probe = np.asarray(probe, dtype=float)
    sweep_values = np.asarray(sweep_values, dtype=float)

    def model(theta):
        g_i, g_ii, kappa, gamma_i, gamma_ii, nu_c, offset = theta
        nu = probe[None, :]
        den = 1j * (nu_c - nu) + kappa
        terms = []
        for g, gamma, tuning in (
            (g_i, gamma_i, tuning_i),
            (g_ii, gamma_ii, tuning_ii),
        ):
            nu_s = tuning.frequencies(sweep_values, offset)[:, None]
            dnu_s = tuning.derivative(sweep_values, offset)[:, None]
            q = 1.0 / (1j * (nu_s - nu) + gamma)
            terms.append((g, q, dnu_s))
            den = den + g**2 * q
        u = 1.0 / den
        absval = kappa * np.abs(u)

        jac = np.empty((absval.size, 7))
        cols = jac.reshape(absval.shape + (7,))
        cols[..., 2] = absval * (1.0 / kappa - u.real)
        cols[..., 5] = absval * u.imag
        d_off = 0.0
        for k, (g, q, dnu_s) in enumerate(terms):
            a = u * q
            b = a * q
            cols[..., k] = (-2.0 * g) * absval * a.real
            cols[..., 3 + k] = g**2 * absval * b.real
            d_off = d_off - (g**2 * dnu_s) * b.imag
        cols[..., 6] = absval * d_off
        return absval.ravel(), jac

    return model


def initial_guess_full(grid: SpectrumGrid, prominence: float = DEFAULT_PROMINENCE):
    """Rough starting point from the grid itself: cavity frequency and
    linewidth from an edge row, couplings from the smallest resolved
    splitting."""
    mags = grid.magnitudes
    probe = grid.probe_frequencies
    edge = mags[0]
    k_peak = int(np.argmax(edge))
    nu_c0 = float(probe[k_peak])
    half = 0.5 * float(edge[k_peak])
    above = probe[edge >= half]
    kappa0 = max(0.5 * float(above[-1] - above[0]), 1e-3) if above.size >= 2 else 0.3

    gaps = []
    for row in mags:
        peaks = peak_positions(probe, row, prominence)
        if peaks.size >= 2:
            gaps.append(float(peaks[-1] - peaks[0]))
    g0 = 0.5 * min(gaps) if gaps else 5.0
    gamma0 = max(3.0 * kappa0, 1.0)
    return np.array([g0, g0, kappa0, gamma0, gamma0, nu_c0, 0.0])


def fit_full_transmission(
    grid: SpectrumGrid,
    tuning_i: SpinTuning,
    tuning_ii: SpinTuning,
    init=None,
    max_iter: int = MAX_ITERATIONS,
) -> FitResult:
    """Joint least squares of |S21| over the whole grid against the
    input-output forward model."""
    data = grid.magnitudes.ravel()
    model = transmission_model(
        grid.probe_frequencies, grid.sweep_values, tuning_i, tuning_ii
    )

    def residual_jac(theta):
        f, jac = model(theta)
        return f - data, jac

    theta0 = initial_guess_full(grid) if init is None else np.asarray(init, dtype=float)
    return levenberg_marquardt(
        residual_jac,
        theta0,
        names=_FULL_NAMES,
        positive=(True, True, True, True, True, False, False),
        max_iter=max_iter,
    )
