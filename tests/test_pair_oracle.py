"""Tests for the block-structured oracle (`pair_measures`, its three column
families and the block spectra they read): fixed points, the derivation of its
blocks, and properties over random squeezing and cutoff checked against the
brute-force reference (`brute_force.py`), a one-block-at-a-time eigensolve and
the physical invariants."""

import math

import numpy as np
import pytest
from brute_force import OUT_PAIR, measures, pair_state, reduce

from hawkpair.density import (
    PAD_MULTIPLE,
    _block_eigenvalues,
    _entropy_bits,
    _pair_blocks,
    joint_entropy,
    marginal_entropies,
    negativity,
    pair_measures,
)
from hawkpair.fock import mode_amplitudes
from hawkpair.kinematics import make_squeeze

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

COLUMNS = ("neg_sum_num", "e_n_num", "s_a_num", "s_b_num", "s_ab_num", "i_num", "trace_deficit")

squeezing = st.floats(min_value=0.0, max_value=2.5, allow_nan=False)
cutoffs = st.integers(min_value=1, max_value=12)
block_cutoffs = st.integers(min_value=1, max_value=64)
# cutoffs whose longest block (N + 1) is one below, at and one above a padded length
PAD_EDGES = (7, 8, 9, 15, 16, 17, 31, 32, 33)
properties = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def per_block(diag, off):
    """Block spectra one eigvalsh call per block, k = -N..N, each ascending."""
    n = diag.shape[0] - 1
    spectra = []
    for k in range(-n, n + 1):
        d, e = np.diagonal(diag, k), np.diagonal(off, k)
        spectra.append(np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1)))
    return np.concatenate(spectra)


def block_spectra(r_a, r_b, n_max):
    """The block spectra of rho_AB (mirrored at a symmetric point, as the joint
    family solves them) and of its partial transpose on B."""
    sq_a, sq_b = make_squeeze(r_a), make_squeeze(r_b)
    diag, off = _pair_blocks(sq_a, sq_b, n_max)
    return _block_eigenvalues(diag, off, mirrored=sq_a == sq_b), _block_eigenvalues(diag[:, ::-1], off[:, ::-1])


def assert_matches_per_block(r_a, r_b, n_max):
    diag, off = _pair_blocks(make_squeeze(r_a), make_squeeze(r_b), n_max)
    got_ab, got_pt = block_spectra(r_a, r_b, n_max)
    for got, want in (
        (got_ab, per_block(diag, off)),
        (got_pt, per_block(diag[:, ::-1], off[:, ::-1])),
    ):
        assert got.shape == want.shape == ((n_max + 1) ** 2,)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def counted_eigvalsh(monkeypatch):
    """Patch np.linalg.eigvalsh to record the shape of every argument."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return shapes


def test_bell_point():
    sq0 = make_squeeze(0.0)
    got = pair_measures(sq0, sq0, 1)
    assert got["e_n_num"] == pytest.approx(1.0, abs=1e-15)
    assert got["neg_sum_num"] == pytest.approx(0.5, abs=1e-15)
    assert got["s_a_num"] == pytest.approx(1.0, abs=1e-15)
    assert got["s_ab_num"] == pytest.approx(0.0, abs=1e-15)
    assert got["i_num"] == pytest.approx(2.0, abs=1e-15)
    assert got["trace_deficit"] == 0.0


def test_block_sizes_cover_the_truncated_space():
    diag, _ = _pair_blocks(make_squeeze(1.0), make_squeeze(0.6), 9)
    ab, pt = block_spectra(1.0, 0.6, 9)
    assert ab.shape == pt.shape == (100,)
    assert diag.sum(axis=1).shape == diag.sum(axis=0).shape == (10,)
    assert diag.sum(axis=1).sum() == pytest.approx(diag.sum(), abs=1e-15)
    assert pt.sum() == pytest.approx(ab.sum(), abs=1e-14)


def test_families_partition_the_columns():
    diag, off = _pair_blocks(make_squeeze(0.9), make_squeeze(0.4), 7)
    families = (marginal_entropies(diag), negativity(diag, off), joint_entropy(diag, off, symmetric=False))
    names = [name for family in families for name in family]
    assert sorted(names + ["i_num"]) == sorted(COLUMNS)
    got = pair_measures(make_squeeze(0.9), make_squeeze(0.4), 7)
    assert all(got[name] == value for family in families for name, value in family.items())


def test_rejects_cutoff_below_one():
    sq = make_squeeze(0.5)
    with pytest.raises(ValueError):
        pair_measures(sq, sq, 0)


@properties
@given(r_a=squeezing, r_b=squeezing, n_max=cutoffs)
def test_structured_oracle_matches_brute_force(r_a, r_b, n_max):
    expected, ab, pt = measures(pair_state(r_a, r_b, n_max))
    got_ab, got_pt = block_spectra(r_a, r_b, n_max)
    np.testing.assert_allclose(np.sort(got_ab), ab, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.sort(got_pt), pt, rtol=0, atol=1e-12)
    got = pair_measures(make_squeeze(r_a), make_squeeze(r_b), n_max)
    for name in COLUMNS:
        assert abs(got[name] - expected[name]) <= 1e-12, (name, got[name], expected[name])


@properties
@given(r_a=squeezing, r_b=squeezing, n_max=cutoffs)
def test_structured_oracle_invariants(r_a, r_b, n_max):
    ab, _ = block_spectra(r_a, r_b, n_max)
    got = pair_measures(make_squeeze(r_a), make_squeeze(r_b), n_max)
    assert got["trace_deficit"] >= 0.0
    assert ab.min() >= -1e-12
    assert got["i_num"] >= -1e-12


def negativity_at(r_a, r_b, n_max):
    return negativity(*_pair_blocks(make_squeeze(r_a), make_squeeze(r_b), n_max))


@properties
@given(r_a=squeezing, r_a2=squeezing, r_b=squeezing, n_max=cutoffs)
def test_negativity_does_not_increase_with_r_a(r_a, r_a2, r_b, n_max):
    near, far = (negativity_at(r, r_b, n_max) for r in sorted((r_a, r_a2)))
    for name in ("e_n_num", "neg_sum_num"):
        assert far[name] <= near[name], (name, far[name], near[name])


@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
def test_negativity_falls_along_rays(ratio):
    # r_b = ratio * r_a, r_a on 60 points of [0, 2.5], at a fixed cutoff
    for n_max in (4, 12):
        ray = [negativity_at(r, ratio * r, n_max) for r in np.linspace(0.0, 2.5, 60)]
        for name in ("e_n_num", "neg_sum_num"):
            values = [point[name] for point in ray]
            assert all(b <= a for a, b in zip(values, values[1:])), (name, n_max, values)


@properties
@given(r=squeezing, n_max=cutoffs)
def test_symmetric_pair_has_equal_marginals(r, n_max):
    sq = make_squeeze(r)
    got = pair_measures(sq, sq, n_max)
    assert abs(got["s_a_num"] - got["s_b_num"]) <= 1e-14


@properties
@given(r_a=squeezing, r_b=squeezing, symmetric=st.booleans(), n_max=block_cutoffs)
def test_stacked_blocks_match_per_block_solve(r_a, r_b, symmetric, n_max):
    assert_matches_per_block(r_a, r_a if symmetric else r_b, n_max)


@pytest.mark.parametrize("n_max", PAD_EDGES)
@pytest.mark.parametrize("r_a,r_b", [(0.8, 0.8), (1.3, 0.4), (0.2, 2.5)])
def test_stacked_blocks_match_per_block_solve_at_pad_edges(r_a, r_b, n_max):
    assert_matches_per_block(r_a, r_b, n_max)


@pytest.mark.parametrize("n_max", (1,) + PAD_EDGES + (64,))
def test_symmetric_point_solves_mirrored_blocks_once(monkeypatch, n_max):
    sq = make_squeeze(1.1)
    diag, off = _pair_blocks(sq, sq, n_max)
    unshared = _block_eigenvalues(diag, off)
    assert np.array_equal(_block_eigenvalues(diag, off, mirrored=True), unshared)
    shapes = counted_eigvalsh(monkeypatch)
    assert pair_measures(sq, sq, n_max)["s_ab_num"] == _entropy_bits(unshared)
    # rho_AB solves blocks k = 0..N, its partial transpose all 2N + 1
    assert sum(shape[0] for shape in shapes) == (n_max + 1) + (2 * n_max + 1)


def test_eigensolves_are_stacked(monkeypatch):
    shapes = counted_eigvalsh(monkeypatch)
    pair_measures(make_squeeze(0.9), make_squeeze(0.6), 14)
    assert len(shapes) <= 4
    assert all(shape[1] % PAD_MULTIPLE == 0 for shape in shapes)


def test_padding_that_does_not_sort_last_is_refused():
    # a block eigenvalue of 3 sorts after the padding's
    with pytest.raises(ArithmeticError, match="padding"):
        _block_eigenvalues(np.full((3, 3), 3.0), np.zeros((2, 2)))


@pytest.mark.parametrize("r", [0.0, 0.3, 1.65, 6.0])
@pytest.mark.parametrize("n_max", [1, 9, 200])
def test_mode_amplitudes_equal_fock_diagonals(r, n_max):
    # the (k, k) and (k, k+1) amplitudes of the Kruskal vacuum and one-particle
    # state, term by term, out to deep cutoffs and tanh r near 1
    t, c = math.tanh(r), math.cosh(r)
    v, o = mode_amplitudes(make_squeeze(r), n_max)
    np.testing.assert_allclose(v, [t**k / c for k in range(n_max + 1)], rtol=1e-14, atol=0)
    one = [math.sqrt(k + 1) * t**k / c**2 for k in range(n_max)] + [0.0]
    np.testing.assert_allclose(o, one, rtol=1e-14, atol=0)


@pytest.mark.parametrize("r_a,r_b,n_max", [(1.0, 0.6, 9), (0.3, 1.7, 6), (2.0, 2.0, 12)])
def test_blocks_follow_from_thermal_states(r_a, r_b, n_max):
    # rho_AB = K (rho_A^th (x) rho_B^th) K^T / 2, K = 1 + a^dag b^dag / (cosh r_a cosh r_b)
    # with a^dag truncated at N, is the reduced pair state, and its entries are D and C
    sq_a, sq_b = make_squeeze(r_a), make_squeeze(r_b)
    d = n_max + 1
    up = np.diag(np.sqrt(np.arange(1.0, d)), -1)
    thermal_a, thermal_b = (np.diag(sq.tanh_r ** (2 * np.arange(d)) / sq.cosh_r**2) for sq in (sq_a, sq_b))
    k = np.eye(d * d) + np.kron(up, up) / (sq_a.cosh_r * sq_b.cosh_r)
    rho = k @ np.kron(thermal_a, thermal_b) @ k.T / 2
    np.testing.assert_allclose(rho, reduce(pair_state(r_a, r_b, n_max), OUT_PAIR), rtol=0, atol=1e-15)
    diag, off = _pair_blocks(sq_a, sq_b, n_max)
    blocks = np.diag(diag.ravel())
    n, q = np.divmod(np.arange(n_max * n_max), n_max)
    blocks[n * d + q, (n + 1) * d + q + 1] = blocks[(n + 1) * d + q + 1, n * d + q] = off.ravel()
    np.testing.assert_allclose(rho, blocks, rtol=0, atol=1e-15)
