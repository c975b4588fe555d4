import math

import numpy as np
import pytest

from cavitybus.coupled import (
    CavitySpec,
    EnsembleSpec,
    collective_coupling,
    photon_weight,
    single_excitation_model,
)

CENTER = 2749.1


def make_cavity(signs=(1, -1)):
    return CavitySpec(CENTER, 0.320, 0.320, signs)


def dressed_states(g_i, g_ii):
    """Closed-form polariton pair and dark state at triple degeneracy
    for the (+, -) antinode convention, in the basis {photon, E_I, E_II}:

        |+/-> = (+/- g_col, -g_I, +g_II) / (sqrt(2) g_col)
        |D>   = (0, g_II, g_I) / g_col

    The dark state carries no photon component and is invisible in
    transmission.
    """
    g_col = math.hypot(g_i, g_ii)
    plus = np.array([g_col, -g_i, g_ii]) / (math.sqrt(2.0) * g_col)
    minus = np.array([-g_col, -g_i, g_ii]) / (math.sqrt(2.0) * g_col)
    dark = np.array([0.0, g_ii, g_i]) / g_col
    return plus, minus, dark


def degenerate_eigs_closed_form(g_i, g_ii, center):
    """Characteristic polynomial of the degenerate 3x3 model factors as
    lambda (lambda^2 - g_col^2) around the center."""
    g_col = math.hypot(g_i, g_ii)
    return np.array([center - g_col, center, center + g_col])


# ---------------------------------------------------------------------------
# collective coupling

def test_collective_coupling_identical_spins():
    n = 400
    assert collective_coupling([0.37] * n) == pytest.approx(0.37 * math.sqrt(n), rel=1e-12)


def test_collective_coupling_two_ensembles():
    assert collective_coupling([7.5, 5.6]) == pytest.approx(9.36, abs=0.01)


def test_collective_coupling_pythagorean():
    assert collective_coupling([3.0, 4.0]) == pytest.approx(5.0, rel=1e-12)


def test_collective_coupling_concatenation():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.1, 5.0, size=7)
    b = rng.uniform(0.1, 5.0, size=4)
    joint = collective_coupling(np.concatenate([a, b]))
    parts = math.hypot(collective_coupling(a), collective_coupling(b))
    assert joint == pytest.approx(parts, rel=1e-12)


def test_collective_coupling_empty():
    with pytest.raises(ValueError):
        collective_coupling([])


# ---------------------------------------------------------------------------
# single-excitation model

def test_sign_convention_in_matrix():
    model = single_excitation_model(make_cavity(), (7.5, 5.6), (2749.1, 2749.1))
    assert model.matrix[0][1] == 7.5
    assert model.matrix[0][2] == -5.6
    assert model.matrix[1][2] == 0.0


def test_detuned_eigenfrequencies_near_diagonal():
    g_i, g_ii, delta = 5.0, 4.0, 200.0
    model = single_excitation_model(
        make_cavity(), (g_i, g_ii), (CENTER - delta, CENTER + delta)
    )
    diag = np.sort(np.diag(model.matrix))
    bound = 1.05 * (g_i**2 + g_ii**2) / delta
    assert np.max(np.abs(np.sort(model.eigenfrequencies) - diag)) < bound


def test_degenerate_spectrum_closed_form():
    model = single_excitation_model(make_cavity(), (7.5, 5.6), (CENTER, CENTER))
    np.testing.assert_allclose(
        model.eigenfrequencies,
        degenerate_eigs_closed_form(7.5, 5.6, CENTER),
        atol=1e-9,
    )


def test_degenerate_splitting_matches_collective_rate():
    model = single_excitation_model(make_cavity(), (7.5, 5.6), (CENTER, CENTER))
    splitting = model.eigenfrequencies[2] - model.eigenfrequencies[0]
    assert splitting == pytest.approx(2 * 9.36, abs=0.01)


def test_middle_mode_unshifted_at_degeneracy():
    model = single_excitation_model(make_cavity(), (7.5, 5.6), (CENTER, CENTER))
    assert model.eigenfrequencies[1] == pytest.approx(CENTER, abs=1e-9)


def test_trace_identity_over_parameter_draws():
    rng = np.random.default_rng(5)
    for _ in range(40):
        couplings = tuple(rng.uniform(0.5, 12.0, size=2))
        transitions = tuple(CENTER + rng.uniform(-80.0, 80.0, size=2))
        model = single_excitation_model(make_cavity(), couplings, transitions)
        assert np.sum(model.eigenfrequencies) == pytest.approx(
            np.trace(model.matrix), abs=1e-9
        )
        gram = model.eigenvectors @ model.eigenvectors.T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)


# ---------------------------------------------------------------------------
# dressed states

def test_dressed_states_match_exact_eigenvectors():
    model = single_excitation_model(make_cavity(), (7.5, 5.6), (CENTER, CENTER))
    for state in dressed_states(7.5, 5.6):
        overlaps = [abs(np.dot(state, v)) for v in model.eigenvectors]
        assert max(overlaps) > 1.0 - 1e-10


def test_dressed_states_orthonormal():
    plus, minus, dark = dressed_states(7.5, 5.6)
    basis = np.vstack([plus, minus, dark])
    np.testing.assert_allclose(basis @ basis.T, np.eye(3), atol=1e-12)


def test_dark_state_symmetric_case():
    _, _, dark = dressed_states(3.3, 3.3)
    np.testing.assert_allclose(dark, [0.0, 1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)


def test_dark_state_component_ratio():
    _, _, dark = dressed_states(7.5, 5.6)
    np.testing.assert_allclose(dark, [0.0, 0.5983, 0.8013], atol=1e-4)


def test_single_ensemble_limit():
    plus, minus, dark = dressed_states(7.5, 0.0)
    np.testing.assert_allclose(np.abs(plus), [1 / math.sqrt(2), 1 / math.sqrt(2), 0.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(minus), [1 / math.sqrt(2), 1 / math.sqrt(2), 0.0], atol=1e-12)
    np.testing.assert_allclose(dark, [0.0, 0.0, 1.0], atol=1e-12)


def test_sign_flip_swaps_dark_combination():
    model = single_excitation_model(make_cavity((1, 1)), (7.5, 5.6), (CENTER, CENTER))
    weights = [photon_weight(v) for v in model.eigenvectors]
    dark_vec = model.eigenvectors[int(np.argmin(weights))]
    expected = np.array([0.0, 5.6, -7.5]) / math.hypot(7.5, 5.6)
    assert min(np.max(np.abs(dark_vec - expected)), np.max(np.abs(dark_vec + expected))) < 1e-10


# ---------------------------------------------------------------------------
# photon weight

def test_photon_weight_of_dark_state():
    rng = np.random.default_rng(9)
    for _ in range(20):
        g_i, g_ii = rng.uniform(0.2, 10.0, size=2)
        _, _, dark = dressed_states(g_i, g_ii)
        assert photon_weight(dark) == 0.0


def test_photon_weight_of_polaritons():
    plus, minus, _ = dressed_states(7.5, 5.6)
    assert photon_weight(plus) == pytest.approx(0.5, abs=1e-12)
    assert photon_weight(minus) == pytest.approx(0.5, abs=1e-12)


def test_photon_weight_of_bare_photon():
    assert photon_weight([1.0, 0.0, 0.0]) == 1.0


def test_photon_weight_rejects_unnormalized():
    with pytest.raises(ValueError):
        photon_weight([1.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# spec validation

def test_cavity_spec_invariants():
    with pytest.raises(ValueError):
        CavitySpec(CENTER, 0.1, 0.2)
    with pytest.raises(ValueError):
        CavitySpec(CENTER, 0.3, 0.3, (1, 2))


def test_ensemble_spec_invariants(config):
    nv = config.nv("i")
    ori = config.orientation("i")
    with pytest.raises(ValueError):
        EnsembleSpec(nv, ori, 0.0, 4.58)
    with pytest.raises(ValueError):
        EnsembleSpec(nv, ori, 7.5, 0.0)
