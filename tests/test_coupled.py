import math

import numpy as np
import pytest

from cavitybus.coupled import CavitySpec, EnsembleSpec, collective_coupling, collective_modes

CENTER = 2749.1


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
    """Characteristic polynomial of the degenerate 3x3 matrix factors as
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
# collective modes

def signed(couplings, signs=(1, -1)):
    """Couplings with the cavity's antinode signs applied, as callers
    pass them to collective_modes."""
    return np.multiply(signs, couplings)


def test_sign_convention_in_matrix():
    # The signed couplings sit in the photon row as given; the spins
    # do not couple to each other.
    freqs, vectors = collective_modes(CENTER, signed((7.5, 5.6)), (CENTER, CENTER))
    matrix = vectors @ np.diag(freqs - CENTER) @ vectors.T
    np.testing.assert_allclose(matrix[0, 1:], [7.5, -5.6], atol=1e-12)
    assert abs(matrix[1, 2]) < 1e-12


def test_detuned_eigenfrequencies_near_diagonal():
    g_i, g_ii, delta = 5.0, 4.0, 200.0
    transitions = (CENTER - delta, CENTER + delta)
    freqs, _ = collective_modes(CENTER, signed((g_i, g_ii)), transitions)
    diag = np.sort([CENTER, *transitions])
    bound = 1.05 * (g_i**2 + g_ii**2) / delta
    assert np.max(np.abs(freqs - diag)) < bound


def test_degenerate_spectrum_closed_form():
    freqs, _ = collective_modes(CENTER, signed((7.5, 5.6)), (CENTER, CENTER))
    np.testing.assert_allclose(freqs, degenerate_eigs_closed_form(7.5, 5.6, CENTER), atol=1e-9)


def test_degenerate_splitting_matches_collective_rate():
    freqs, _ = collective_modes(CENTER, signed((7.5, 5.6)), (CENTER, CENTER))
    assert freqs[2] - freqs[0] == pytest.approx(2 * 9.36, abs=0.01)


def test_middle_mode_unshifted_at_degeneracy():
    freqs, _ = collective_modes(CENTER, signed((7.5, 5.6)), (CENTER, CENTER))
    assert freqs[1] == pytest.approx(CENTER, abs=1e-9)


def test_single_ensemble_on_resonance_splits_by_2g():
    freqs, vectors = collective_modes(CENTER, [7.5], [CENTER])
    np.testing.assert_allclose(freqs, [CENTER - 7.5, CENTER + 7.5], atol=1e-12)
    np.testing.assert_allclose(vectors[0] ** 2, [0.5, 0.5], atol=1e-15)


def test_trace_identity_over_parameter_draws():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        for _ in range(20):
            couplings = rng.uniform(-12.0, 12.0, size=n)
            transitions = CENTER + rng.uniform(-80.0, 80.0, size=n)
            freqs, vectors = collective_modes(CENTER, couplings, transitions)
            assert np.sum(freqs) == pytest.approx(CENTER + np.sum(transitions), abs=1e-9)
            np.testing.assert_allclose(vectors.T @ vectors, np.eye(n + 1), atol=1e-10)


@pytest.mark.parametrize("n", [1, 2])
def test_stack_of_transitions_matches_one_call_per_point(n):
    rng = np.random.default_rng(11)
    couplings = signed(rng.uniform(0.5, 12.0, size=n), (1, -1)[:n])
    transitions = CENTER + rng.uniform(-60.0, 60.0, size=(4, 5, n))
    freqs, vectors = collective_modes(CENTER, couplings, transitions)
    assert freqs.shape == (4, 5, n + 1) and vectors.shape == (4, 5, n + 1, n + 1)
    for index in np.ndindex(4, 5):
        one_freqs, one_vectors = collective_modes(CENTER, couplings, transitions[index])
        assert np.array_equal(freqs[index], one_freqs)
        assert np.array_equal(vectors[index], one_vectors)


# ---------------------------------------------------------------------------
# dressed states

def test_dressed_states_match_exact_eigenvectors():
    _, vectors = collective_modes(CENTER, signed((7.5, 5.6)), (CENTER, CENTER))
    for state in dressed_states(7.5, 5.6):
        assert np.max(np.abs(state @ vectors)) > 1.0 - 1e-10


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
    # Same-sign antinodes make (0, g_II, -g_I) dark; the default (+, -)
    # pair makes (0, g_II, g_I) dark (dressed_states).
    for signs, dark_spins in (((1, 1), (5.6, -7.5)), ((1, -1), (5.6, 7.5))):
        _, vectors = collective_modes(CENTER, signed((7.5, 5.6), signs), (CENTER, CENTER))
        dark_vec = vectors[:, int(np.argmin(vectors[0] ** 2))]
        expected = np.array([0.0, *dark_spins]) / math.hypot(7.5, 5.6)
        assert min(np.max(np.abs(dark_vec - expected)), np.max(np.abs(dark_vec + expected))) < 1e-10


# ---------------------------------------------------------------------------
# photon weight: vectors[0, k]**2

def test_dark_mode_has_no_photon_content():
    rng = np.random.default_rng(9)
    for _ in range(20):
        g_i, g_ii = rng.uniform(0.2, 10.0, size=2)
        _, vectors = collective_modes(CENTER, signed((g_i, g_ii)), (CENTER, CENTER))
        assert vectors[0, 1] ** 2 < 1e-24


def test_polaritons_are_half_photon():
    _, vectors = collective_modes(CENTER, signed((7.5, 5.6)), (CENTER, CENTER))
    np.testing.assert_allclose(vectors[0, [0, 2]] ** 2, [0.5, 0.5], atol=1e-12)


def test_uncoupled_photon_mode_is_all_photon():
    _, vectors = collective_modes(CENTER, (0.0, 0.0), (CENTER - 100.0, CENTER + 100.0))
    np.testing.assert_array_equal(vectors[0] ** 2, [0.0, 1.0, 0.0])


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
