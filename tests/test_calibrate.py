"""The in-package root finder against scipy's brentq, and the
vectorized calibration scan against a per-azimuth scalar loop."""

import numpy as np
import pytest
from scipy.optimize import brentq

from cavitybus import calibrate
from cavitybus.calibrate import _find_root, _scan_residuals, calibrate_geometry
from cavitybus.errors import BracketError
from cavitybus.spin import CrystalOrientation, FieldSetting, transition_minus

# The tolerances the calibration and acceptance call sites pass.
XTOLS = (1e-8, 1e-10)


def cos_minus_line(p):
    """cos(x) = p*x has one root in [0, 2] for every p in [0.3, 5]."""
    return lambda x: np.cos(x) - p * x


# Smooth, steep, flat (triple root) and kinked residuals with their
# brackets, so both the interpolation and the bisection steps run.
RESIDUALS = [
    (cos_minus_line(1.0), 0.0, 2.0),
    (lambda x: np.tanh(40.0 * (x - 0.3)), -1.0, 3.0),
    (lambda x: (x - 1.7) ** 3, 0.0, 5.0),
    (lambda x: np.abs(x - 2.5) ** 0.5 * np.sign(x - 2.5) - 0.01, 0.0, 10.0),
    (lambda x: 2749.1 - (2870.0 - 28.03 * x), 0.2, 30.0),
]


@pytest.mark.parametrize("xtol", XTOLS)
@pytest.mark.parametrize("case", range(len(RESIDUALS)))
def test_find_root_matches_brentq_on_scalars(case, xtol):
    f, lo, hi = RESIDUALS[case]
    calls = []
    got = _find_root(lambda x: calls.append(x) or f(x), lo, hi, xtol=xtol)
    assert got.shape == ()
    assert lo <= got <= hi
    expected, info = brentq(
        lambda x: float(f(x)), lo, hi, xtol=xtol, maxiter=1000, full_output=True
    )
    assert abs(float(got) - expected) <= xtol
    # Interpolation keeps it within two evaluations of brentq (plain
    # bisection needs 33-40 here).
    assert len(calls) <= info.function_calls + 2


@pytest.mark.parametrize("xtol", XTOLS)
def test_find_root_matches_brentq_on_arrays(xtol):
    p = np.linspace(0.3, 5.0, 37)
    lo, hi = np.zeros(p.size), np.linspace(1.5, 2.0, p.size)
    got = _find_root(lambda x, pk: cos_minus_line(pk)(x), lo, hi, xtol=xtol, args=(p,))
    assert got.shape == p.shape
    expected = [
        brentq(cos_minus_line(pk), lk, hk, xtol=xtol) for pk, lk, hk in zip(p, lo, hi)
    ]
    np.testing.assert_allclose(got, expected, rtol=0, atol=xtol)


def slow_fast(x, slow, p, r):
    """Odd elements of the batch below have a triple root and take about
    five times as many steps as the even ones."""
    return np.where(slow, (x - r) ** 3, np.cos(x) - p * x)


SLOW_FAST_ARGS = (
    np.arange(1000) % 2 == 1,
    np.linspace(0.3, 5.0, 1000),
    np.linspace(1.2, 1.8, 1000),
)


def test_find_root_element_is_bitwise_independent_of_its_batch():
    # The slow elements must not move the fast ones once converged.
    batch = _find_root(slow_fast, np.zeros(1000), 2.0, xtol=1e-10, args=SLOW_FAST_ARGS)
    for k in (0, 1, 498, 499, 998, 999):
        alone = _find_root(slow_fast, 0.0, 2.0, xtol=1e-10, args=[v[k] for v in SLOW_FAST_ARGS])
        single = _find_root(
            slow_fast, np.zeros(1), 2.0, xtol=1e-10, args=[v[k : k + 1] for v in SLOW_FAST_ARGS]
        )
        assert alone.tobytes() == batch[k].tobytes() == single.tobytes()


def test_find_root_evaluates_each_element_as_often_as_alone():
    # f sees the live elements only, so a fast element converged in the
    # batch is not evaluated again while the slow ones go on.
    def counted(into):
        def f(x, k):
            np.add.at(into, k, 1)
            return slow_fast(x, *(v[k] for v in SLOW_FAST_ARGS))

        return f

    in_batch = np.zeros(1000, dtype=int)
    _find_root(counted(in_batch), np.zeros(1000), 2.0, xtol=1e-10, args=(np.arange(1000),))
    alone = np.zeros(1000, dtype=int)
    sample = np.arange(0, 1000, 5)  # both kinds, alternately
    for k in sample:
        _find_root(counted(alone), 0.0, 2.0, xtol=1e-10, args=(k,))
    assert alone[sample[1::2]].min() > 2 * alone[sample[::2]].max()
    np.testing.assert_array_equal(in_batch[sample], alone[sample])


def test_find_root_passes_its_arguments_per_element():
    # The arguments broadcast with the ends; a 0-d batch sees scalars.
    seen = []

    def f(x, p):
        seen.append((np.shape(x), np.shape(p)))
        return np.cos(x) - p * x

    got = _find_root(f, 0.0, 2.0, xtol=1e-10, args=(np.array([[0.5], [2.0]]),))
    assert got.shape == (2, 1)
    assert seen[0] == seen[1] == ((2, 1), (2, 1))
    assert all(x == p for x, p in seen)
    seen.clear()
    assert _find_root(f, 0.0, 2.0, xtol=1e-10, args=(0.5,)).shape == ()
    assert seen[-1] == ((), ())


def test_find_root_returns_roots_on_the_bracket_ends():
    assert _find_root(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-8) == 1.0
    assert _find_root(lambda x: x - 1.0, -1.0, 1.0, xtol=1e-8) == 1.0
    got = _find_root(lambda x: x - 1.0, np.array([1.0, -1.0, 0.0]), np.array([3.0, 1.0, 3.0]), 1e-10)
    assert got[0] == 1.0 and got[1] == 1.0
    assert abs(got[2] - 1.0) <= 1e-10


def test_find_root_rejects_brackets_without_a_sign_change():
    with pytest.raises(BracketError, match="between -1 and 1"):
        _find_root(lambda x: x**2 + 1.0, -1.0, 1.0, xtol=1e-8)
    with pytest.raises(BracketError, match="between 2 and 3"):
        _find_root(lambda x: x - 1.0, np.array([0.0, 2.0]), np.array([3.0, 3.0]), 1e-8)


@pytest.mark.parametrize("nan_end", ["lo", "hi"])
def test_find_root_treats_nan_ends_as_unbracketed(nan_end):
    def f(x):
        return np.where(x == (0.0 if nan_end == "lo" else 2.0), np.nan, x - 1.0)

    with pytest.raises(BracketError):
        _find_root(f, 0.0, 2.0, xtol=1e-8)
    with pytest.raises(BracketError):
        _find_root(f, np.array([0.0, 0.5]), np.array([2.0, 1.5]), xtol=1e-8)


def scalar_scan(cfg, azimuths, angle_i, angle_ii, relative, target):
    """Per-node reference: a scalar brentq magnitude solve on the
    crystal-rotated scalar spin path, then the ensemble-II residual
    there (None where no magnitude exists in 0.2-30 mT)."""

    def lower(which, azimuth, magnitude, angle):
        orientation = CrystalOrientation(azimuth, cfg.orientation(which).axis_class)
        return transition_minus(cfg.nv(which), orientation, FieldSetting(magnitude, angle))

    residuals = []
    for azimuth in azimuths:
        def f(mag):
            return lower("i", azimuth, mag, angle_i) - target

        if f(0.2) * f(30.0) > 0:
            residuals.append(None)
            continue
        mag = brentq(f, 0.2, 30.0, xtol=1e-10)
        residuals.append(lower("ii", azimuth + relative, mag, angle_ii) - target)
    return residuals


@pytest.mark.parametrize("step", [0.25, 1.0])
@pytest.mark.parametrize("angles", [(79.0, 23.0), (75.0, 25.0), (60.0, 30.0), (85.0, 10.0)])
def test_vectorized_scan_matches_scalar_loop(config, angles, step):
    cfg = config.with_updates(
        {
            "calibration.resonance_angle_i_deg": angles[0],
            "calibration.resonance_angle_ii_deg": angles[1],
        }
    )
    target = cfg.get("cavity.center_mhz")
    relative = cfg.get("calibration.relative_azimuth_deg")
    azimuths = np.arange(0.0, 180.0, step)

    expected = scalar_scan(cfg, azimuths, *angles, relative, target)
    got = _scan_residuals(cfg, azimuths, *angles, relative, target)

    missing = np.array([r is None for r in expected])
    np.testing.assert_array_equal(np.isnan(got), missing)
    assert not missing.all()
    reference = np.array([r for r in expected if r is not None])
    np.testing.assert_array_equal(np.sign(got[~missing]), np.sign(reference))
    np.testing.assert_allclose(got[~missing], reference, rtol=0, atol=1e-6)



@pytest.mark.parametrize("step", [0.1, 0.01])
def test_roots_on_scan_nodes_give_the_coarse_scan_result(config, step):
    # At these steps both default roots (83.9 and 173.9 deg) are scan
    # nodes (to the 1e-8 deg root tolerance), where the residual's sign is
    # solver noise.
    coarse = calibrate_geometry(config, scan_step=0.25)
    fine = calibrate_geometry(config, scan_step=step)
    nodes = np.arange(0.0, 180.0, step)
    for candidate in coarse.candidates:
        assert np.abs(nodes - dict(candidate)["azimuth_i"]).min() < 1e-7

    assert [[k for k, _ in c] for c in fine.candidates] == [
        [k for k, _ in c] for c in coarse.candidates
    ]
    np.testing.assert_allclose(
        [[v for _, v in c] for c in fine.candidates],
        [[v for _, v in c] for c in coarse.candidates],
        rtol=0,
        atol=1e-6,
    )
    assert fine.azimuth_i == pytest.approx(coarse.azimuth_i, abs=1e-6)
    assert fine.magnitude == pytest.approx(coarse.magnitude, abs=1e-8)
    assert fine.dispersive_magnitude == pytest.approx(coarse.dispersive_magnitude, abs=1e-8)


def test_calibration_evaluates_no_bracket_end_twice(config, monkeypatch):
    # The magnitude solves and the azimuth refinement start from end
    # residuals the scan already holds.  Evaluating them again took the
    # default scan to 6,484 batched spin points.
    # Every azimuth that the scan and its refinement evaluate has its
    # ensemble-I transition solved once at each end of the magnitude
    # range, so such an end node solved twice is a bracket end of one of
    # the two root searches evaluated again.  No other node recurs
    # either: the root finder evaluates only the elements it has not
    # frozen, so a converged magnitude or azimuth is not solved again.
    # Solving the frozen elements again took the default calibration
    # to 5,489 recorded nodes, 4,925 of them distinct.
    # Two stages are counted apart.  The bisection beside the scan's NaN
    # nodes: for the default scan's two such edges, 25 halvings of 0.25
    # deg down to 1e-8, each one solve of both edges at both
    # magnitude-range ends, then one residual per edge.  And the
    # degeneracy roots of all candidates, found in one batched search:
    # one point per candidate per ensemble per residual, whose step
    # count turns on whether a residual rounds to exactly 0.
    points, edge_points, root_points = [], [], []
    original = calibrate.transition_batch
    counts = [points]
    nodes, scanning = [], []
    solve = calibrate._transition_nodes

    def counting(*args):
        values = original(*args)
        counts[-1].append(values.size)
        return values

    def recording(config, which, azimuths, magnitudes, angle):
        if scanning and counts[-1] is points:
            azimuths, magnitudes = np.broadcast_arrays(azimuths, magnitudes)
            solved = zip(azimuths.ravel().tolist(), magnitudes.ravel().tolist())
            nodes.extend((which, angle, *node) for node in solved)
        return solve(config, which, azimuths, magnitudes, angle)

    def apart(function, into):
        def counted(*args, **kwargs):
            counts.append(into)
            try:
                return function(*args, **kwargs)
            finally:
                counts.pop()

        return counted

    def scan(*args):
        scanning.append(True)
        try:
            return _scan_residuals(*args)
        finally:
            scanning.pop()

    monkeypatch.setattr(calibrate, "transition_batch", counting)
    monkeypatch.setattr(calibrate, "_transition_nodes", recording)
    monkeypatch.setattr(calibrate, "_scan_residuals", scan)
    monkeypatch.setattr(calibrate, "_edge_brackets", apart(calibrate._edge_brackets, edge_points))
    monkeypatch.setattr(
        calibrate, "locate_degeneracy", apart(calibrate.locate_degeneracy, root_points)
    )
    result = calibrate_geometry(config)
    end_nodes = [node for node in nodes if node[3] in calibrate._MAGNITUDE_RANGE]
    assert len(end_nodes) > 2 * 720  # both ends of every scan node, and the refinement's
    assert len(set(end_nodes)) == len(end_nodes)
    assert len(set(nodes)) == len(nodes)
    assert sum(points) <= 4952
    assert edge_points[:25] == [4] * 25
    assert sum(edge_points) <= 122
    assert root_points == [len(result.candidates)] * len(root_points)
    assert len(root_points) <= 9 * len(result.candidates)
    assert sum(root_points) <= 9 * len(result.candidates)


def test_batched_degeneracy_search_matches_one_search_per_candidate(config):
    # _find_root freezes each element once it converges, so a
    # candidate's degeneracy has the same bits alone or in the batch.
    result = calibrate_geometry(_with_targets(config, 60.0, 10.0, 24.2), scan_step=1.0)
    azimuths, magnitudes = (
        np.array([dict(c)[key] for c in result.candidates]) for key in ("azimuth_i", "magnitude")
    )
    assert azimuths.size > 1
    angles, freqs = calibrate.locate_degeneracy(config, azimuths, 24.2, magnitudes, (60.0, 10.0))
    assert angles.shape == freqs.shape == azimuths.shape
    for k, (azimuth, magnitude) in enumerate(zip(azimuths, magnitudes)):
        angle, freq = calibrate.locate_degeneracy(config, azimuth, 24.2, magnitude, (10.0, 60.0))
        assert angle.shape == freq.shape == ()
        assert (angle, freq) == (angles[k], freqs[k])
    assert [dict(c)["degeneracy_angle"] for c in result.candidates] == angles.tolist()


def test_dispersive_magnitude_out_of_scan_range_is_a_bracket_error(config):
    # no field in the scan range puts ensemble II 1 GHz below the cavity
    cfg = config.with_updates({"calibration.dispersive_margin_mhz": 1000.0})
    with pytest.raises(BracketError, match="no dispersive magnitude found in the scan range"):
        calibrate.dispersive_magnitude(cfg, config.get("ensemble_i.azimuth_deg"), 24.2)


def _with_targets(config, angle_i, angle_ii, relative):
    return config.with_updates(
        {
            "calibration.resonance_angle_i_deg": angle_i,
            "calibration.resonance_angle_ii_deg": angle_ii,
            "calibration.relative_azimuth_deg": relative,
        }
    )


@pytest.mark.parametrize(
    "targets, root, side, expected",
    [
        ((55.0, 45.0, 60.0), 65.0, 0.25, [65.0, 155.0]),
        ((45.0, 55.0, -60.0), 125.0, -0.25, [35.0, 125.0]),
    ],
)
def test_scan_finds_a_root_beside_a_node_without_a_magnitude(config, targets, root, side, expected):
    # For these targets the residual crosses zero on a scan node, and at
    # the next 0.25 deg node on one side no field magnitude puts
    # ensemble I on the target, so that node brackets nothing.
    cfg = _with_targets(config, *targets)
    nodes = np.array([root - side, root, root + side])
    away, at, nan = _scan_residuals(cfg, nodes, *targets, 2749.1)
    assert away > 0 and abs(at) < 1e-9 and np.isnan(nan)

    result = calibrate_geometry(cfg)
    azimuths = [dict(c)["azimuth_i"] for c in result.candidates]
    assert azimuths == pytest.approx(expected, abs=1e-6)


def test_scan_finds_the_root_between_the_last_node_and_180_deg(config):
    # Half a turn of the crystals leaves the residual unchanged, and for
    # these targets it changes sign between azimuth 179.75 deg (the last
    # node) and 180 = 0 deg, so a scan that stops at the last node finds
    # no root at all.
    cfg = _with_targets(config, 79.0, 35.0, 24.2)
    residual_0, residual_180 = _scan_residuals(cfg, np.array([0.0, 180.0]), 79.0, 35.0, 24.2, 2749.1)
    assert residual_0 == pytest.approx(residual_180, abs=1e-9)

    result = calibrate_geometry(cfg)
    assert [dict(c)["azimuth_i"] for c in result.candidates] == [result.azimuth_i]
    assert result.azimuth_i == pytest.approx(179.9, abs=1e-6)
    assert result.degeneracy_angle == pytest.approx(57.0, abs=1e-6)


def test_scan_lists_a_root_on_a_scan_node_once(config):
    # At 0.01 deg the residual is exactly zero on the node 157.90 deg, so
    # both intervals beside the node bracket it and refine to the node.
    cfg = _with_targets(config, 60.0, 10.0, 24.2)
    azimuths = [dict(c)["azimuth_i"] for c in calibrate_geometry(cfg, scan_step=0.01).candidates]
    assert azimuths == pytest.approx([67.9, 157.9], abs=1e-6)
    assert azimuths == sorted(set(azimuths))
