import math

import numpy as np
import pytest

from cavitybus.coupled import CavitySpec, collective_modes
from cavitybus.errors import UnsplitError
from cavitybus.fitting import extract_branches, fit_polariton_width
from cavitybus.spin import FieldSetting
from cavitybus.transmission import (
    _PEAK_POINTS,
    SpectrumGrid,
    _row_blocks,
    peak_positions,
    peak_splitting,
    row_peaks,
    s21,
    s21_denominator,
    sweep,
)

CENTER = 2749.1


def probe_grid(half=30.0, step=0.005):
    return np.arange(CENTER - half, CENTER + half + 1e-9, step)


def dense_scan_splitting(cavity, pairs, lo, hi):
    """Independent splitting oracle: direct argmax of |S21| on a very
    fine grid on each side of the cavity, no peak-finding machinery."""
    upper = np.arange(CENTER + lo, CENTER + hi, 1e-4)
    lower = np.arange(CENTER - hi, CENTER - lo, 1e-4)
    up = upper[np.argmax(np.abs(s21(upper, cavity, pairs)))]
    down = lower[np.argmax(np.abs(s21(lower, cavity, pairs)))]
    return up - down


# ---------------------------------------------------------------------------
# s21 basics

def test_bare_cavity_peak_normalized(cavity):
    assert abs(s21(CENTER, cavity, [])) == pytest.approx(1.0, abs=1e-12)


def test_bare_cavity_half_power_at_hwhm(cavity):
    for sign in (-1.0, 1.0):
        value = abs(s21(CENTER + sign * cavity.total_hwhm, cavity, []))
        assert value == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_magnitude_bounded_by_bare_peak(cavity, ens_i, ens_ii):
    rng = np.random.default_rng(21)
    for _ in range(20):
        transitions = CENTER + rng.uniform(-60, 60, size=2)
        pairs = [(ens_i, transitions[0]), (ens_ii, transitions[1])]
        mags = np.abs(s21(probe_grid(step=0.05), cavity, pairs))
        assert np.max(mags) <= 1.0 + 1e-9


def test_peaks_converge_to_eigenfrequencies(config):
    cavity = CavitySpec(CENTER, 0.01, 0.01)
    ens = config.ensemble("i")
    narrow = type(ens)(ens.nv, ens.orientation, ens.coupling, 0.01)
    pairs = [(narrow, CENTER)]
    probe = probe_grid(half=12.0, step=0.002)
    peaks = peak_positions(probe, np.abs(s21(probe, cavity, pairs)))
    expected, _ = collective_modes(CENTER, [ens.coupling], [CENTER])
    matched = [min(abs(p - e) for p in peaks) for e in expected]
    assert max(matched) < 0.02


# ---------------------------------------------------------------------------
# peak splitting

def test_degenerate_splitting(cavity, ens_i, ens_ii):
    pairs = [(ens_i, CENTER), (ens_ii, CENTER)]
    probe = probe_grid()
    split = peak_splitting(probe, np.abs(s21(probe, cavity, pairs)))
    assert split == pytest.approx(18.7, abs=0.2)
    oracle = dense_scan_splitting(cavity, pairs, 4.0, 16.0)
    assert split == pytest.approx(oracle, abs=0.01)


def test_single_ensemble_splitting(cavity, ens_i):
    # The raw peak distance sits below 2g by the linewidth pull; the
    # dense-scan oracle pins the model value and 2g holds to 2%.
    pairs = [(ens_i, CENTER)]
    probe = probe_grid()
    split = peak_splitting(probe, np.abs(s21(probe, cavity, pairs)))
    oracle = dense_scan_splitting(cavity, pairs, 3.0, 12.0)
    assert split == pytest.approx(oracle, abs=0.01)
    assert split == pytest.approx(2 * ens_i.coupling, rel=0.02)


def test_splitting_tie_breaks_toward_lower_frequency():
    # three identical peaks: the two most prominent are tied, so the
    # lower-frequency pair is kept
    xs = np.linspace(0.0, 30.0, 3001)
    row = sum(1.0 / (1.0 + (xs - c) ** 2) for c in (5.0, 15.0, 25.0))
    assert peak_splitting(xs, row) == pytest.approx(10.0, abs=0.05)


def test_bare_cavity_is_unsplit(cavity):
    probe = probe_grid(step=0.02)
    with pytest.raises(UnsplitError):
        peak_splitting(probe, np.abs(s21(probe, cavity, [])))


def test_scalar_s21_equals_its_element_of_a_row(cavity, ens_i, ens_ii):
    pairs = [(ens_i, 2745.0), (ens_ii, 2751.5)]
    probe = probe_grid(step=0.25)
    row = s21(probe, cavity, pairs)
    for k in (0, 37, probe.size - 1):
        assert s21(probe[k], cavity, pairs) == row[k]
        assert s21(float(probe[k]), cavity, pairs) == row[k]


def test_denominator_workspace_holds_the_same_bits():
    # the fit model passes a workspace; s21 and sweep allocate
    probe = probe_grid(step=0.25)[None, :]
    lines = [(7.5, np.array([[2740.0], [2749.1], [2760.5]]), 4.58),
             (5.6, np.array([[2751.0], [2749.1], [2735.2]]), 4.24)]
    den, qs = s21_denominator(probe, CENTER, 0.32, lines)
    work = np.full((4, 3, probe.size), np.nan + 0j)
    detuning = np.full((3, probe.size), np.nan)
    out = (work[0], [work[1], work[2]], detuning, work[3])
    den_w, qs_w = s21_denominator(probe, CENTER, 0.32, lines, out=out)
    for got, want, buf in zip([den_w, *qs_w], [den, *qs], work):
        assert np.shares_memory(got, buf)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the peak finder against a direct scan


def brute_peaks(row, threshold):
    """(index, prominence) pairs of a row by direct scan: every run of
    equal samples with a lower sample on each side is a maximum at its
    middle index; its prominence is its height minus the larger of the
    minima between it and the nearest strictly higher sample (or the
    row end) on either side."""
    row = [float(v) for v in row]
    n = len(row)
    out = []
    first = 0
    while first < n:
        last = first
        while last + 1 < n and row[last + 1] == row[first]:
            last += 1
        h = row[first]
        if 0 < first and last < n - 1 and row[first - 1] < h and row[last + 1] < h:
            p = (first + last) // 2
            lo = p
            while lo - 1 >= 0 and row[lo - 1] <= h:
                lo -= 1
            hi = p
            while hi + 1 < n and row[hi + 1] <= h:
                hi += 1
            prom = h - max(min(row[lo : p + 1]), min(row[p : hi + 1]))
            if prom >= threshold:
                out.append((p, prom))
        first = last + 1
    return out


def assert_matches_brute(values, prominence):
    rows, idx, prom = row_peaks(values, prominence)
    want = [
        (r, p, pr)
        for r, row in enumerate(np.abs(values))
        for p, pr in brute_peaks(row, prominence * float(np.max(row)))
    ]
    got = list(zip(rows.tolist(), idx.tolist(), prom.tolist()))
    assert got == want  # exact: same indices, same prominence bits
    return len(got)


def _rng_rows(kind, seed=3):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(size=(150, 97))
    if kind == "integer ties":
        return rng.integers(0, 4, size=(200, 25)).astype(float)
    if kind == "plateaus":
        runs = rng.integers(0, 5, size=(150, 20))
        return np.repeat(runs, rng.integers(1, 4, size=20), axis=1).astype(float)
    if kind == "sawtooth":
        tooth = np.r_[np.arange(6.0), np.arange(3.0)]
        return np.tile(tooth, (40, 7)) + rng.integers(0, 3, size=(40, 1))
    raise ValueError(kind)


@pytest.mark.parametrize("kind", ["uniform", "integer ties", "plateaus", "sawtooth"])
@pytest.mark.parametrize("prominence", [0.0, 0.05, 0.4])
def test_row_peaks_match_a_direct_scan(kind, prominence):
    values = _rng_rows(kind)
    found = assert_matches_brute(values, prominence)
    if prominence == 0.0:
        assert found > values.shape[0]


def test_row_peaks_of_complex_rows_are_the_peaks_of_their_magnitude():
    rng = np.random.default_rng(8)
    values = rng.standard_normal((30, 40)) + 1j * rng.standard_normal((30, 40))
    assert assert_matches_brute(values, 0.05) > 0
    for got, want in zip(row_peaks(values, 0.05), row_peaks(np.abs(values), 0.05)):
        assert np.array_equal(got, want)


def test_plateaus_peak_at_their_middle_and_never_at_the_row_ends():
    rows = np.array(
        [
            [2, 2, 1, 3, 3, 3, 1, 2, 2],  # edge plateaus are no peaks
            [1, 3, 3, 1, 0, 4, 4, 4, 4],  # even plateau: lower middle
            [0, 1, 1, 2, 2, 2, 2, 1, 0],  # a rise inside is no peak
            [5, 4, 3, 2, 1, 2, 3, 4, 5],  # a valley has no maximum
        ],
        dtype=float,
    )
    rows_, idx, prom = row_peaks(rows, 0.0)
    assert list(zip(rows_.tolist(), idx.tolist(), prom.tolist())) == [
        (0, 4, 2.0),
        (1, 1, 2.0),
        (2, 4, 2.0),
    ]
    assert_matches_brute(rows, 0.0)


def test_equal_peaks_see_past_each_other_to_the_row_end():
    # Only a strictly higher sample ends a base, so each peak of height
    # 2 takes the 0 beyond its equal neighbour as its other minimum.
    _, idx, prom = row_peaks(np.array([[0.0, 2.0, 1.0, 2.0, 0.5]]), 0.0)
    assert idx.tolist() == [1, 3]
    assert prom.tolist() == [1.5, 1.5]


@pytest.mark.parametrize("width", [1, 2, 3, 50])
def test_flat_and_short_rows_have_no_peaks(width):
    values = np.vstack([np.full(width, 0.7), np.zeros(width), np.arange(width, dtype=float)])
    if width < 3:
        values = np.vstack([values, np.random.default_rng(0).uniform(size=(5, width))])
    rows, idx, prom = row_peaks(values, 0.0)
    assert rows.size == idx.size == prom.size == 0
    assert peak_positions(np.arange(float(width)), values[-1]).size == 0


def test_row_peaks_across_block_edges_equal_row_by_row_calls():
    width = _PEAK_POINTS // 64
    rng = np.random.default_rng(11)
    values = np.vstack([rng.uniform(size=(100, width)), np.ones((1, width)), np.zeros((1, width))])
    values = np.vstack([values, rng.integers(0, 4, size=(100, width))])
    assert len(list(_row_blocks(values.shape[0], width, _PEAK_POINTS))) > 2
    whole = row_peaks(values, 0.05)
    by_row = [row_peaks(row[None, :], 0.05) for row in values]
    rows = np.concatenate([np.full(r[0].size, k) for k, r in enumerate(by_row)])
    assert np.array_equal(whole[0], rows)
    for j in (1, 2):
        assert np.concatenate([r[j] for r in by_row]).tobytes() == whole[j].tobytes()


def test_extract_branches_across_block_edges_equals_per_row_peak_positions():
    rng = np.random.default_rng(4)
    xs = np.linspace(0.0, 30.0, 301)
    centers = rng.uniform(3.0, 27.0, size=(2 * _PEAK_POINTS // xs.size + 9, 3))
    amps = sum(1.0 / (1.0 + (xs - c[:, None]) ** 2) for c in centers.T)
    amps *= 1.0 + 0.01 * rng.standard_normal(amps.shape)
    amps[70] = 0.5  # a flat row has no peak and is left out
    grid = SpectrumGrid(xs, np.arange(amps.shape[0], dtype=float), amps, "angle")
    for max_peaks in (None, 1, 2, 3):
        rows, positions = extract_branches(grid, 0.05, max_peaks)
        by_row = [peak_positions(xs, row, 0.05, max_peaks) for row in amps]
        want = np.concatenate([np.full(p.size, k) for k, p in enumerate(by_row)])
        assert np.array_equal(rows, want)
        assert 70 not in rows
        assert positions.tobytes() == np.concatenate(by_row).tobytes()


def test_max_peaks_ties_resolve_toward_lower_frequency_in_every_row():
    # bumps on a zero floor: each bump's prominence is its height
    def bumps(*heights):
        return np.concatenate([[0.0, 0.0, h / 3.0, h, h / 3.0] for h in heights] + [[0.0]])

    rows = np.vstack([bumps(3, 3, 3), bumps(3, 3, 2), bumps(2, 3, 3)])
    xs = np.arange(float(rows.shape[1]))
    tops = [3.0, 8.0, 13.0]  # bump centres
    kept = {
        1: [[tops[0]], [tops[0]], [tops[1]]],
        2: [tops[:2], tops[:2], tops[1:]],
        3: [tops, tops, tops],
    }
    grid = SpectrumGrid(xs, np.arange(3.0), rows)
    for max_peaks, want in kept.items():
        peak_rows, positions = extract_branches(grid, 0.05, max_peaks)
        assert [positions[peak_rows == k].tolist() for k in range(3)] == want
        for row, peaks in zip(rows, want):
            assert peak_positions(xs, row, 0.05, max_peaks).tolist() == peaks


def test_peak_positions_refine_with_a_parabola():
    xs = np.arange(7.0)
    ys = np.array([0.0, 1.0, 3.0, 4.0, 2.0, 1.0, 0.0])
    # y0=3, y1=4, y2=2: shift = 0.5 * (3 - 2) / (3 - 8 + 2) = -1/6
    assert peak_positions(xs, ys).tolist() == [3.0 + 0.5 * (3.0 - 2.0) / (3.0 - 8.0 + 2.0)]
    # a three-sample plateau has a flat parabola and stays on its sample
    assert peak_positions(xs, [0.0, 1.0, 4.0, 4.0, 4.0, 1.0, 0.0]).tolist() == [3.0]
    # so does a parabola whose curvature rounds to zero: (y0 - 2 y1) + y2
    # is 0.0 here although y0 < y2
    y0 = 1.0 - 2.0**-53
    assert (y0 - 2.0) + 1.0 == 0.0
    assert peak_positions(xs - 2.0, [0.0, y0, 1.0, 1.0, 0.0, 0.0, 0.0]).tolist() == [0.0]


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_rows_follow_field_path(config, cavity, ens_i, ens_ii, resonant_magnitude):
    angles = [20.0, 23.0, 26.0]
    fields = [FieldSetting(resonant_magnitude, a) for a in angles]
    probe = probe_grid(half=15.0, step=0.05)
    grid = sweep(cavity, [ens_i, ens_ii], fields, probe, "angle")
    np.testing.assert_allclose(grid.sweep_values, angles)
    for k, field in enumerate(fields):
        pairs = [(ens_i, ens_i.transition(field)), (ens_ii, ens_ii.transition(field))]
        np.testing.assert_allclose(grid.amplitudes[k], np.abs(s21(probe, cavity, pairs)))


def test_sweep_rows_split_only_near_crossings(cavity, ens_i, ens_ii, resonant_magnitude):
    probe = probe_grid(half=15.0, step=0.02)
    split_angles = []
    for angle in (10.0, 23.0, 51.0, 79.0, 88.0):
        field = FieldSetting(resonant_magnitude, angle)
        pairs = [(ens_i, ens_i.transition(field)), (ens_ii, ens_ii.transition(field))]
        try:
            peak_splitting(probe, np.abs(s21(probe, cavity, pairs)))
            split_angles.append(angle)
        except UnsplitError:
            pass
    assert split_angles == [23.0, 79.0]


def test_zero_coupling_sweep_is_flat(config, cavity, resonant_magnitude):
    ens = config.ensemble("i")
    weak = type(ens)(ens.nv, ens.orientation, 1e-9, ens.spin_hwhm)
    probe = probe_grid(half=5.0, step=0.05)
    fields = [FieldSetting(resonant_magnitude, a) for a in (10.0, 40.0, 79.0)]
    grid = sweep(cavity, [weak], fields, probe, "angle")
    bare = np.abs(s21(probe, cavity, []))
    for row in grid.amplitudes:
        np.testing.assert_allclose(row, bare, atol=1e-9)


def test_sweep_continuity_under_step_halving(cavity, ens_i, ens_ii, resonant_magnitude):
    probe = probe_grid(half=15.0, step=0.05)

    def max_row_jump(step):
        angles = np.arange(75.0, 83.0 + 1e-9, step)
        fields = [FieldSetting(resonant_magnitude, a) for a in angles]
        grid = sweep(cavity, [ens_i, ens_ii], fields, probe, "angle")
        return float(np.max(np.abs(np.diff(grid.amplitudes, axis=0))))

    coarse = max_row_jump(0.2)
    fine = max_row_jump(0.1)
    assert fine < 0.6 * coarse


@pytest.mark.parametrize("kind", ["angle", "magnitude"])
def test_broadcast_sweep_is_bit_identical_to_per_row_s21(
    kind, cavity, ens_i, ens_ii, resonant_magnitude
):
    # reference: |S21| of one s21 call per row, one scalar spin solve per point
    probe = probe_grid(half=15.0, step=0.05)
    if kind == "angle":
        fields = [FieldSetting(resonant_magnitude, a) for a in np.arange(0.0, 90.0, 0.7)]
    else:
        fields = [FieldSetting(m, 79.0) for m in np.arange(0.0, 12.0, 0.13)]
    assert len(list(_row_blocks(len(fields), probe.size))) > 2  # crosses block edges
    grid = sweep(cavity, [ens_i, ens_ii], fields, probe, kind)
    ensembles = (ens_i, ens_ii)
    rows = np.vstack(
        [np.abs(s21(probe, cavity, [(e, e.transition(f)) for e in ensembles])) for f in fields]
    )
    assert grid.amplitudes.dtype == np.float64
    assert grid.amplitudes.tobytes() == rows.tobytes()


def test_sweep_solves_all_its_ensembles_in_one_call(
    monkeypatch, cavity, ens_i, ens_ii, resonant_magnitude
):
    from cavitybus import transmission

    calls = []
    original = transmission.transition_batch

    def counted(*args):
        values = original(*args)
        calls.append(values.shape)
        return values

    monkeypatch.setattr(transmission, "transition_batch", counted)
    fields = [FieldSetting(resonant_magnitude, a) for a in np.arange(0.0, 90.0, 0.7)]
    sweep(cavity, [ens_i, ens_ii], fields, probe_grid(half=15.0, step=0.05), "angle")
    assert calls == [(2, len(fields))]


def test_sweep_reads_its_ensembles_once(cavity, ens_i, ens_ii, resonant_magnitude):
    # A generator gives the grid a list gives, across block edges too.
    probe = probe_grid(half=15.0, step=0.05)
    fields = [FieldSetting(resonant_magnitude, a) for a in np.arange(0.0, 90.0, 0.7)]
    assert len(list(_row_blocks(len(fields), probe.size))) > 2
    listed = sweep(cavity, [ens_i, ens_ii], fields, probe, "angle")
    generated = sweep(cavity, (e for e in (ens_i, ens_ii)), fields, probe, "angle")
    assert generated.amplitudes.tobytes() == listed.amplitudes.tobytes()


def test_bare_cavity_sweep_repeats_the_bare_row(cavity):
    probe = probe_grid(half=5.0, step=0.05)
    fields = [FieldSetting(7.0, a) for a in (10.0, 40.0)]
    grid = sweep(cavity, [], fields, probe, "angle")
    assert grid.amplitudes.shape == (2, probe.size)
    for row in grid.amplitudes:
        assert row.tobytes() == np.abs(s21(probe, cavity, [])).tobytes()


def test_sweep_needs_a_field_path(cavity, ens_i):
    with pytest.raises(ValueError, match="need non-empty probe frequencies and field path"):
        sweep(cavity, [ens_i], [], probe_grid(), "angle")


def test_grid_shape_validation():
    with pytest.raises(ValueError):
        SpectrumGrid(np.arange(3.0), np.arange(2.0), np.zeros((3, 2)), "angle")
    with pytest.raises(ValueError):
        SpectrumGrid(np.arange(3.0), np.arange(2.0), np.zeros((2, 3)), "bogus")


def test_grid_keeps_float64_input_without_a_copy():
    amplitudes = np.random.default_rng(1).uniform(size=(2, 3))
    grid = SpectrumGrid(np.arange(3.0), np.arange(2.0), amplitudes)
    assert grid.amplitudes.dtype == np.float64
    assert np.shares_memory(grid.amplitudes, amplitudes)


@pytest.mark.parametrize(
    "amplitudes",
    [np.ones((2, 3), dtype=int), np.ones((2, 3), dtype=np.float32), [[1, 2, 3], [4, 5, 6]]],
    ids=["int", "float32", "list"],
)
def test_grid_value_type_is_float64(amplitudes):
    grid = SpectrumGrid(np.arange(3.0), np.arange(2.0), amplitudes)
    assert grid.amplitudes.dtype == np.float64
    np.testing.assert_array_equal(grid.amplitudes, np.asarray(amplitudes))


@pytest.mark.parametrize(
    "amplitudes",
    [
        np.full((2, 3), 0.5 + 0.5j),
        np.full((2, 3), 0.5 + 0.5j, dtype=np.complex64),
        np.ones((2, 3), dtype=complex),
        [[1j, 2, 3], [4, 5, 6]],
    ],
    ids=["complex128", "complex64", "zero-imaginary", "list"],
)
def test_grid_rejects_complex_amplitudes(amplitudes):
    # numpy would keep only the real part of a complex -> float cast
    with pytest.raises(ValueError, match="complex"):
        SpectrumGrid(np.arange(3.0), np.arange(2.0), amplitudes)


def test_grid_rejects_a_negative_cell_and_names_it():
    amplitudes = np.full((2, 3), 0.5)
    amplitudes[1, 2] = -1e-3
    amplitudes[1, 0] = np.nan
    with pytest.raises(ValueError, match=r"negative \|S21\| -0.001 in row 1, column 2"):
        SpectrumGrid(np.arange(3.0), np.arange(2.0), amplitudes)
    amplitudes[1, 2] = -0.0  # the sign bit of a zero is no negative cell
    SpectrumGrid(np.arange(3.0), np.arange(2.0), amplitudes)


def test_grid_rejects_non_numeric_amplitudes():
    with pytest.raises(ValueError):
        SpectrumGrid(np.arange(3.0), np.arange(2.0), np.full((2, 3), "x"))


# ---------------------------------------------------------------------------
# polariton linewidths

def test_polariton_width_matched_resonance(cavity, ens_i):
    probe = probe_grid(half=25.0, step=0.01)
    row = np.abs(s21(probe, cavity, [(ens_i, CENTER)]))
    width = fit_polariton_width(probe, row).parameters["hwhm"]
    assert width == pytest.approx(0.5 * (cavity.total_hwhm + ens_i.spin_hwhm), abs=0.05)
    assert width == pytest.approx(2.45, abs=0.05)


def test_polariton_width_second_ensemble(cavity, ens_ii):
    probe = probe_grid(half=25.0, step=0.01)
    row = np.abs(s21(probe, cavity, [(ens_ii, CENTER)]))
    width = fit_polariton_width(probe, row).parameters["hwhm"]
    assert width == pytest.approx(0.5 * (cavity.total_hwhm + ens_ii.spin_hwhm), abs=0.1)


def test_collective_row_width_recorded(cavity, ens_i, ens_ii):
    # With plain Lorentzian spin lines the collective polariton keeps a
    # width near the individual ones; the measured device shows extra
    # narrowing that this model intentionally does not include.
    probe = probe_grid(half=25.0, step=0.01)
    row = np.abs(s21(probe, cavity, [(ens_i, CENTER), (ens_ii, CENTER)]))
    width = fit_polariton_width(probe, row).parameters["hwhm"]
    assert 2.0 < width < 3.0
