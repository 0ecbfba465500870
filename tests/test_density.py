"""Physics of the exterior pair on the brute-force reference (reductions,
partial transpose, entropies), and the oracle's one entropy rule."""

import math

import numpy as np
import pytest
from brute_force import (
    IN_PAIR,
    OUT_PAIR,
    entropy_bits,
    kruskal_states,
    measures,
    pair_state,
    partial_transpose,
    reduce,
)

from hawkpair.density import _block_eigenvalues, _entropy_bits, _stacked_blocks, pair_measures
from hawkpair.kinematics import make_squeeze


def product_pair_state(r, cutoff):
    """vac(A) x vac(B) reference state: no |11> component, so unentangled."""
    vac, _ = kruskal_states(r, cutoff)
    return np.einsum("ab,cd->abcd", vac, vac)


def bell_density():
    return reduce(pair_state(0.0, 0.0, 1), OUT_PAIR)


# ---------------------------------------------------------------- partial trace


def test_bell_reduced_density():
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    expected[0, 3] = expected[3, 0] = 0.5
    np.testing.assert_allclose(bell_density(), expected, atol=1e-15)


def test_product_state_factor_is_pure():
    rho = reduce(product_pair_state(0.8, cutoff=5), (0, 1))
    assert entropy_bits(np.linalg.eigvalsh(rho)) == pytest.approx(0.0, abs=1e-10)


def test_partial_trace_preserves_trace():
    psi = pair_state(1.0, 1.0, 6)
    rho = reduce(psi, OUT_PAIR)
    assert np.trace(rho) == pytest.approx(float(np.sum(psi**2)), abs=1e-12)
    assert np.trace(reduce(psi, (1,))) == pytest.approx(np.trace(rho), abs=1e-12)


def test_partial_trace_matches_direct_reduction():
    psi = pair_state(0.9, 0.4, 4)
    via_trace = np.trace(reduce(psi, OUT_PAIR).reshape(5, 5, 5, 5), axis1=1, axis2=3)
    np.testing.assert_allclose(via_trace, reduce(psi, (1,)), atol=1e-13)


# ------------------------------------------------------------ partial transpose


def test_partial_transpose_diagonal_unchanged():
    rho = np.diag([0.4, 0.3, 0.2, 0.1])
    np.testing.assert_array_equal(partial_transpose(rho), rho)


def test_bell_partial_transpose_spectrum():
    spec = np.linalg.eigvalsh(partial_transpose(bell_density()))
    np.testing.assert_allclose(spec, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_involution_and_trace():
    rho = reduce(pair_state(1.1, 1.1, 4), OUT_PAIR)
    pt = partial_transpose(rho)
    assert np.trace(pt) == pytest.approx(np.trace(rho), abs=1e-12)
    np.testing.assert_allclose(partial_transpose(pt), rho, atol=1e-15)


def test_product_density_is_ppt():
    rho = reduce(product_pair_state(1.0, cutoff=6), OUT_PAIR)
    assert np.linalg.eigvalsh(partial_transpose(rho)).min() >= -1e-10


def test_spectrum_trace_check():
    sq_a, sq_b = make_squeeze(0.7), make_squeeze(1.2)
    *_, diag, off = _stacked_blocks([(sq_a, sq_b)], 6)
    trace = 1.0 - pair_measures(sq_a, sq_b, 6)["trace_deficit"]
    assert trace == pytest.approx(_block_eigenvalues(diag, off, False).sum(), abs=1e-14)
    assert trace == pytest.approx(np.trace(reduce(pair_state(0.7, 1.2, 6), OUT_PAIR)), abs=1e-14)


@pytest.mark.parametrize("r_a,r_b,n_max", [(0.0, 0.0, 1), (0.0, 0.9, 3), (0.4, 0.4, 14), (1.65, 1.65, 60), (2.5, 0.3, 30)])
def test_trace_deficit_matches_the_stacked_diagonal(r_a, r_b, n_max):
    # the deficit is taken from the families' tails, not from D; 1 - tr D cross-checks it
    sq_a, sq_b = make_squeeze(r_a), make_squeeze(r_b)
    *_, diag, _ = _stacked_blocks([(sq_a, sq_b)], n_max)
    assert pair_measures(sq_a, sq_b, n_max)["trace_deficit"] == pytest.approx(1.0 - float(diag.sum()), abs=1e-14)


# --------------------------------------------------------- spectrum functionals


def test_vn_entropy_examples():
    assert _entropy_bits(np.array([1.0])) == 0.0
    assert _entropy_bits(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-14)
    assert _entropy_bits(np.array([0.25] * 4)) == pytest.approx(2.0, abs=1e-14)
    # renormalised to trace 1: a truncated spectrum keeps its shape's entropy
    assert _entropy_bits(np.array([0.2, 0.2])) == pytest.approx(1.0, abs=1e-14)


def test_vn_entropy_clamps_rounding_noise():
    assert _entropy_bits(np.array([-5e-11, 1.0])) == 0.0
    with pytest.raises(ValueError):
        _entropy_bits(np.array([-1e-6, 1.0]))


def test_negativity_sum_examples():
    sq0 = make_squeeze(0.0)
    bell = pair_measures(sq0, sq0, 1)
    assert bell["neg_sum_num"] == pytest.approx(0.5, abs=1e-15)
    assert bell["e_n_num"] == pytest.approx(1.0, abs=1e-15)
    ppt, _, _ = measures(product_pair_state(1.0, cutoff=6))
    assert ppt["neg_sum_num"] == 0.0
    assert ppt["e_n_num"] == 0.0
    # r = 3, N = 1: no eigenvalue of the partial transpose is negative; the
    # empty sum must be +0.0, since -0.0 == 0.0 yet prints with a sign
    sq3 = make_squeeze(3.0)
    unentangled = pair_measures(sq3, sq3, 1)
    assert math.copysign(1.0, unentangled["neg_sum_num"]) == 1.0
    assert math.copysign(1.0, unentangled["e_n_num"]) == 1.0


# ----------------------------------------------------------- mutual information


def test_mutual_information_bell_point():
    mi, _, _ = measures(pair_state(0.0, 0.0, 1))
    assert mi["s_ab_num"] == pytest.approx(0.0, abs=1e-10)
    assert mi["s_a_num"] == pytest.approx(1.0, abs=1e-10)
    assert mi["s_b_num"] == pytest.approx(1.0, abs=1e-10)
    assert mi["i_num"] == pytest.approx(2.0, abs=1e-9)


def test_mutual_information_product_state_vanishes():
    mi, _, _ = measures(product_pair_state(1.0, cutoff=6))
    assert mi["i_num"] == pytest.approx(0.0, abs=1e-9)


def test_mutual_information_exchange_symmetry():
    mi, _, _ = measures(pair_state(1.0, 1.0, 6))
    assert mi["s_a_num"] == pytest.approx(mi["s_b_num"], abs=1e-9)


def test_pure_state_complementary_bipartitions():
    # S of the out pair equals S of the in pair for the global pure state
    psi = pair_state(1.0, 1.0, 6)
    s_out, s_in = (entropy_bits(np.linalg.eigvalsh(reduce(psi, keep))) for keep in (OUT_PAIR, IN_PAIR))
    assert s_out == pytest.approx(s_in, abs=1e-8)
