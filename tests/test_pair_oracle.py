"""Tests for the block-structured oracle (`pair_spectra`, `pair_measures`):
fixed points, and properties over random squeezing and cutoff checked
against the brute-force (N+1)^4 path, a one-block-at-a-time eigensolve and
the physical invariants."""

import numpy as np
import pytest

from hawkpair.density import (
    PAD_MULTIPLE,
    _block_eigenvalues,
    _mode_amplitudes,
    _pair_blocks,
    eig_symmetric,
    mutual_information_numeric,
    negativity_sum,
    pair_measures,
    pair_spectra,
    partial_transpose,
    reduced_density,
)
from hawkpair.fock import entangled_pair_state, kruskal_one, kruskal_vacuum, squared_norm
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


def brute_force(r_a, r_b, n_max):
    """The seven columns and the two spectra from the full pure state."""
    state = entangled_pair_state(make_squeeze(r_a), make_squeeze(r_b), n_max)
    rho_ab = reduced_density(state, keep=("A_out", "B_out"))
    pt = eig_symmetric(partial_transpose(rho_ab, "B_out"))
    neg = negativity_sum(pt)
    mi = mutual_information_numeric(state)
    columns = {
        "neg_sum_num": neg.negative_sum,
        "e_n_num": neg.paper_measure,
        "s_a_num": mi["s_a"],
        "s_b_num": mi["s_b"],
        "s_ab_num": mi["s_ab"],
        "i_num": mi["mutual_information"],
        "trace_deficit": max(1.0 - squared_norm(state), 0.0),
    }
    return columns, eig_symmetric(rho_ab).eigenvalues, pt.eigenvalues


def per_block(diag, off):
    """Block spectra one eigvalsh call per block, k = -N..N, each ascending."""
    n = diag.shape[0] - 1
    spectra = []
    for k in range(-n, n + 1):
        d, e = np.diagonal(diag, k), np.diagonal(off, k)
        spectra.append(np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1)))
    return np.concatenate(spectra)


def assert_matches_per_block(r_a, r_b, n_max):
    diag, off = _pair_blocks(make_squeeze(r_a), make_squeeze(r_b), n_max)
    got_ab, got_pt, _, _ = pair_spectra(make_squeeze(r_a), make_squeeze(r_b), n_max)
    for got, want in (
        (got_ab.eigenvalues, per_block(diag, off)),
        (got_pt.eigenvalues, per_block(diag[:, ::-1], off[:, ::-1])),
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
    sq_a, sq_b = make_squeeze(1.0), make_squeeze(0.6)
    ab, pt, rho_a, rho_b = pair_spectra(sq_a, sq_b, 9)
    assert ab.eigenvalues.shape == pt.eigenvalues.shape == (100,)
    assert rho_a.eigenvalues.shape == rho_b.eigenvalues.shape == (10,)
    assert rho_a.eigenvalues.sum() == pytest.approx(ab.trace_check, abs=1e-15)
    assert pt.eigenvalues.sum() == pytest.approx(ab.eigenvalues.sum(), abs=1e-14)


def test_rejects_cutoff_below_one():
    sq = make_squeeze(0.5)
    with pytest.raises(ValueError):
        pair_measures(sq, sq, 0)


@properties
@given(r_a=squeezing, r_b=squeezing, n_max=cutoffs)
def test_structured_oracle_matches_brute_force(r_a, r_b, n_max):
    expected, ab, pt = brute_force(r_a, r_b, n_max)
    got_ab, got_pt, _, _ = pair_spectra(make_squeeze(r_a), make_squeeze(r_b), n_max)
    np.testing.assert_allclose(np.sort(got_ab.eigenvalues), ab, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.sort(got_pt.eigenvalues), pt, rtol=0, atol=1e-12)
    got = pair_measures(make_squeeze(r_a), make_squeeze(r_b), n_max)
    for name in COLUMNS:
        assert abs(got[name] - expected[name]) <= 1e-12, (name, got[name], expected[name])


@properties
@given(r_a=squeezing, r_b=squeezing, n_max=cutoffs)
def test_structured_oracle_invariants(r_a, r_b, n_max):
    sq_a, sq_b = make_squeeze(r_a), make_squeeze(r_b)
    ab, _, _, _ = pair_spectra(sq_a, sq_b, n_max)
    got = pair_measures(sq_a, sq_b, n_max)
    assert got["trace_deficit"] >= 0.0
    assert ab.eigenvalues.min() >= -1e-12
    assert got["i_num"] >= -1e-12


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
    shapes = counted_eigvalsh(monkeypatch)
    ab, _, _, _ = pair_spectra(sq, sq, n_max)
    assert np.array_equal(ab.eigenvalues, unshared)
    # rho_AB solves blocks k = 0..N, its partial transpose all 2N + 1
    assert sum(shape[0] for shape in shapes) == (n_max + 1) + (2 * n_max + 1)


def test_eigensolves_are_stacked(monkeypatch):
    shapes = counted_eigvalsh(monkeypatch)
    pair_spectra(make_squeeze(0.9), make_squeeze(0.6), 14)
    assert len(shapes) <= 4
    assert all(shape[1] % PAD_MULTIPLE == 0 for shape in shapes)


def test_padding_that_does_not_sort_last_is_refused():
    # a block eigenvalue of 3 sorts after the padding's
    with pytest.raises(ArithmeticError, match="padding"):
        _block_eigenvalues(np.full((3, 3), 3.0), np.zeros((2, 2)))


@pytest.mark.parametrize("r", [0.0, 0.3, 1.65, 6.0])
@pytest.mark.parametrize("n_max", [1, 9, 200])
def test_mode_amplitudes_equal_fock_diagonals(r, n_max):
    sq = make_squeeze(r)
    v, o = _mode_amplitudes(sq, n_max)
    assert np.array_equal(v, np.diagonal(kruskal_vacuum(sq, n_max).amplitudes))
    assert np.array_equal(o, np.append(np.diagonal(kruskal_one(sq, n_max).amplitudes, 1), 0.0))
