"""Tests for the brute-force density-matrix path: partial trace/transpose,
the eigensolver, and the spectrum functionals."""

import numpy as np
import pytest

from hawkpair.density import (
    DensityMatrix,
    Spectrum,
    eig_symmetric,
    mutual_information_numeric,
    negativity_sum,
    partial_trace,
    partial_transpose,
    reduced_density,
    vn_entropy,
)
from hawkpair.fock import PureState, entangled_pair_state, kruskal_vacuum, squared_norm
from hawkpair.kinematics import make_squeeze


def product_pair_state(r, cutoff):
    """vac(A) x vac(B) reference state: no |11> component, so unentangled."""
    v = kruskal_vacuum(make_squeeze(r), cutoff).amplitudes
    return PureState(
        mode_count=4,
        cutoff=cutoff,
        mode_order=("A_in", "A_out", "B_in", "B_out"),
        amplitudes=np.einsum("ab,cd->abcd", v, v),
    )


def bell_density():
    st = entangled_pair_state(make_squeeze(0.0), make_squeeze(0.0), cutoff=1)
    return reduced_density(st, keep=("A_out", "B_out"))


# ---------------------------------------------------------------- partial trace


def test_bell_reduced_density():
    rho = bell_density()
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    expected[0, 3] = expected[3, 0] = 0.5
    np.testing.assert_allclose(rho.entries, expected, atol=1e-15)
    assert rho.labels == ("A_out", "B_out")


def test_product_state_factor_is_pure():
    st = product_pair_state(0.8, cutoff=5)
    rho = reduced_density(st, keep=("A_in", "A_out"))
    spec = eig_symmetric(rho.entries)
    lam = spec.eigenvalues / spec.eigenvalues.sum()
    assert vn_entropy(Spectrum(lam, 1.0)) == pytest.approx(0.0, abs=1e-10)


def test_partial_trace_preserves_trace():
    st = entangled_pair_state(make_squeeze(1.0), make_squeeze(1.0), cutoff=6)
    rho = reduced_density(st, keep=("A_out", "B_out"))
    assert rho.trace() == pytest.approx(squared_norm(st), abs=1e-12)
    rho_a = partial_trace(rho, keep=("A_out",))
    assert rho_a.trace() == pytest.approx(rho.trace(), abs=1e-12)


def test_partial_trace_matches_direct_reduction():
    st = entangled_pair_state(make_squeeze(0.9), make_squeeze(0.4), cutoff=4)
    rho_ab = reduced_density(st, keep=("A_out", "B_out"))
    via_trace = partial_trace(rho_ab, keep=("A_out",))
    direct = reduced_density(st, keep=("A_out",))
    np.testing.assert_allclose(via_trace.entries, direct.entries, atol=1e-13)


def test_reduced_density_rejects_bad_labels():
    st = entangled_pair_state(make_squeeze(0.5), make_squeeze(0.5), cutoff=2)
    with pytest.raises(KeyError):
        reduced_density(st, keep=("nope",))
    with pytest.raises(ValueError):
        reduced_density(st, keep=())


# ------------------------------------------------------------ partial transpose


def test_partial_transpose_diagonal_unchanged():
    rho = DensityMatrix(entries=np.diag([0.4, 0.3, 0.2, 0.1]), subsystem_shape=(2, 2), labels=("A", "B"))
    np.testing.assert_array_equal(partial_transpose(rho, "B").entries, rho.entries)


def test_bell_partial_transpose_spectrum():
    pt = partial_transpose(bell_density(), "B_out")
    spec = eig_symmetric(pt.entries)
    np.testing.assert_allclose(spec.eigenvalues, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_involution_and_trace():
    st = entangled_pair_state(make_squeeze(1.1), make_squeeze(1.1), cutoff=4)
    rho = reduced_density(st, keep=("A_out", "B_out"))
    pt = partial_transpose(rho, "B_out")
    assert pt.trace() == pytest.approx(rho.trace(), abs=1e-12)
    np.testing.assert_allclose(partial_transpose(pt, "B_out").entries, rho.entries, atol=1e-15)


def test_partial_transpose_unknown_subsystem():
    with pytest.raises(KeyError):
        partial_transpose(bell_density(), "C")


def test_product_density_is_ppt():
    st = product_pair_state(1.0, cutoff=6)
    rho = reduced_density(st, keep=("A_out", "B_out"))
    spec = eig_symmetric(partial_transpose(rho, "B_out").entries)
    assert spec.eigenvalues.min() >= -1e-10


# ------------------------------------------------------------------ eigensolver


def test_eig_symmetric_examples():
    np.testing.assert_allclose(eig_symmetric(np.diag([3.0, 1.0, 2.0])).eigenvalues, [1, 2, 3], atol=1e-14)
    np.testing.assert_allclose(eig_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]])).eigenvalues, [1, 3], atol=1e-14)
    np.testing.assert_allclose(
        eig_symmetric(np.array([[0.0, 0.25], [0.25, 0.0]])).eigenvalues, [-0.25, 0.25], atol=1e-14
    )


def test_eig_symmetric_rejects_non_symmetric():
    with pytest.raises(ValueError):
        eig_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[2.0, 1.0], [1.0, 2.0]]),
        np.array([[1.0, -0.3], [-0.3, 0.5]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[2.0, 1.0, 0.5], [1.0, 3.0, -0.2], [0.5, -0.2, 1.5]]),
        np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),
        np.array([[4.0, 0.1, 0.0], [0.1, -2.0, 0.3], [0.0, 0.3, 0.7]]),
    ],
)
def test_eig_symmetric_against_characteristic_polynomial(matrix):
    n = matrix.shape[0]
    if n == 2:
        coeffs = [1.0, -np.trace(matrix), np.linalg.det(matrix)]
    else:
        tr = np.trace(matrix)
        m2 = 0.5 * (tr**2 - np.trace(matrix @ matrix))
        coeffs = [1.0, -tr, m2, -np.linalg.det(matrix)]
    roots = np.sort(np.roots(coeffs).real)
    np.testing.assert_allclose(eig_symmetric(matrix).eigenvalues, roots, atol=1e-12)


def test_eig_symmetric_against_lapack():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((40, 40))
    m = m + m.T
    np.testing.assert_allclose(eig_symmetric(m).eigenvalues, np.linalg.eigvalsh(m), atol=1e-10)


def test_eig_symmetric_deterministic():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((15, 15))
    m = m + m.T
    first = eig_symmetric(m).eigenvalues
    second = eig_symmetric(m).eigenvalues
    np.testing.assert_array_equal(first, second)


def test_spectrum_trace_check():
    m = np.diag([0.2, 0.3, 0.5])
    spec = eig_symmetric(m)
    assert spec.trace_check == pytest.approx(spec.eigenvalues.sum(), abs=1e-12)


# --------------------------------------------------------- spectrum functionals


def test_vn_entropy_examples():
    assert vn_entropy(Spectrum(np.array([1.0]), 1.0)) == 0.0
    assert vn_entropy(Spectrum(np.array([0.5, 0.5]), 1.0)) == pytest.approx(1.0, abs=1e-14)
    assert vn_entropy(Spectrum(np.array([0.25] * 4), 1.0)) == pytest.approx(2.0, abs=1e-14)


def test_vn_entropy_clamps_rounding_noise():
    assert vn_entropy(Spectrum(np.array([-5e-11, 1.0]), 1.0)) == 0.0
    with pytest.raises(ValueError):
        vn_entropy(Spectrum(np.array([-1e-6, 1.0]), 1.0))


def test_negativity_sum_examples():
    bell = negativity_sum(Spectrum(np.array([-0.5, 0.5, 0.5, 0.5]), 1.0))
    assert bell.negative_sum == pytest.approx(0.5, abs=1e-15)
    assert bell.most_negative == pytest.approx(-0.5, abs=1e-15)
    assert bell.paper_measure == pytest.approx(1.0, abs=1e-15)
    ppt = negativity_sum(Spectrum(np.array([0.1, 0.9]), 1.0))
    assert ppt.negative_sum == 0.0
    assert ppt.paper_measure == 0.0


# ----------------------------------------------------------- mutual information


def test_mutual_information_bell_point():
    st = entangled_pair_state(make_squeeze(0.0), make_squeeze(0.0), cutoff=1)
    mi = mutual_information_numeric(st)
    assert mi["s_ab"] == pytest.approx(0.0, abs=1e-10)
    assert mi["s_a"] == pytest.approx(1.0, abs=1e-10)
    assert mi["s_b"] == pytest.approx(1.0, abs=1e-10)
    assert mi["mutual_information"] == pytest.approx(2.0, abs=1e-9)


def test_mutual_information_product_state_vanishes():
    mi = mutual_information_numeric(product_pair_state(1.0, cutoff=6))
    assert mi["mutual_information"] == pytest.approx(0.0, abs=1e-9)


def test_mutual_information_exchange_symmetry():
    sq = make_squeeze(1.0)
    mi = mutual_information_numeric(entangled_pair_state(sq, sq, cutoff=6))
    assert mi["s_a"] == pytest.approx(mi["s_b"], abs=1e-9)


def test_mutual_information_requires_pair_state():
    with pytest.raises(ValueError):
        mutual_information_numeric(kruskal_vacuum(make_squeeze(1.0), 3))


def test_pure_state_complementary_bipartitions():
    # S of the out pair equals S of the in pair for the global pure state
    sq = make_squeeze(1.0)
    st = entangled_pair_state(sq, sq, cutoff=6)
    entropies = []
    for keep in (("A_out", "B_out"), ("A_in", "B_in")):
        spec = eig_symmetric(reduced_density(st, keep=keep).entries)
        lam = spec.eigenvalues[spec.eigenvalues > 0]
        lam = lam / lam.sum()
        entropies.append(float(-np.sum(lam * np.log2(lam))))
    assert entropies[0] == pytest.approx(entropies[1], abs=1e-8)
