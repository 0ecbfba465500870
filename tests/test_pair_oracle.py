"""Tests for the block-structured oracle (`oracle` on a batch of points,
`pair_measures` on one, its three column families and the block spectra they
read): fixed points, the derivation of its blocks, batches against points
alone, and properties over random squeezing and cutoff checked against the
brute-force reference (`brute_force.py`), a one-block-at-a-time eigensolve and
the physical invariants."""

import math

import numpy as np
import pytest
from brute_force import OUT_PAIR, measures, mode_amplitudes, pair_state, reduce

import hawkpair
from hawkpair import density, sweep
from hawkpair.closed_form import SeriesConfig
from hawkpair.density import (
    NUMERIC_CAP,
    PAD_MULTIPLE,
    STACK_BUDGET,
    NumericCapError,
    PaddingError,
    _block_eigenvalues,
    _block_plan,
    _entropy_bits,
    _stacked_blocks,
    joint_entropy,
    marginal_entropies,
    negativity,
    oracle,
    pair_measures,
)
from hawkpair.kinematics import make_squeeze
from hawkpair.sweep import SweepConfig, run_sweep

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


def pair_blocks(sq_a, sq_b, n_max):
    """D and C of one point: `_stacked_blocks` of that pair alone."""
    diag, off = _stacked_blocks([(sq_a, sq_b)], n_max)
    return diag[0], off[0]


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
    diag, off = pair_blocks(sq_a, sq_b, n_max)
    return (
        _block_eigenvalues(diag, off, _block_plan(n_max, sq_a == sq_b)),
        _block_eigenvalues(diag[:, ::-1], off[:, ::-1], _block_plan(n_max, False)),
    )


def assert_matches_per_block(r_a, r_b, n_max):
    diag, off = pair_blocks(make_squeeze(r_a), make_squeeze(r_b), n_max)
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
    diag, _ = pair_blocks(make_squeeze(1.0), make_squeeze(0.6), 9)
    ab, pt = block_spectra(1.0, 0.6, 9)
    assert ab.shape == pt.shape == (100,)
    assert diag.sum(axis=1).shape == diag.sum(axis=0).shape == (10,)
    assert diag.sum(axis=1).sum() == pytest.approx(diag.sum(), abs=1e-15)
    assert pt.sum() == pytest.approx(ab.sum(), abs=1e-14)


def test_families_partition_the_columns():
    # each family takes a stack of points' D and C, here of one point
    diag, off = (m[None] for m in pair_blocks(make_squeeze(0.9), make_squeeze(0.4), 7))
    plan = _block_plan(7, False)
    families = (marginal_entropies(diag)[0], negativity(diag, off, plan)[0], joint_entropy(diag, off, plan)[0])
    names = [name for family in families for name in family]
    assert sorted(names + ["i_num"]) == sorted(COLUMNS)
    got = pair_measures(make_squeeze(0.9), make_squeeze(0.4), 7)
    assert all(got[name] == value for family in families for name, value in family.items())


def test_rejects_cutoff_below_one():
    sq = make_squeeze(0.5)
    with pytest.raises(ValueError):
        pair_measures(sq, sq, 0)


def test_oracle_refuses_a_cutoff_past_its_cap_before_building(monkeypatch):
    def no_blocks(*args):
        raise AssertionError("blocks built before the cutoffs were checked")

    monkeypatch.setattr(density, "_stacked_blocks", no_blocks)
    sq = make_squeeze(0.5)
    with pytest.raises(NumericCapError, match=f"needs cutoff {NUMERIC_CAP + 1}, above the oracle cap of {NUMERIC_CAP}"):
        pair_measures(sq, sq, NUMERIC_CAP + 1)
    # a batch is checked whole: a good point ahead of it builds nothing either
    with pytest.raises(NumericCapError):
        oracle([(sq, sq, 5), (sq, make_squeeze(0.2), NUMERIC_CAP + 1)])
    assert hawkpair.NumericCapError is sweep.NumericCapError is NumericCapError


@pytest.mark.parametrize("n_max", [10.5, True, "7", 9.0])
def test_oracle_refuses_a_non_integer_cutoff(n_max):
    sq = make_squeeze(0.5)
    with pytest.raises(ValueError, match="n_max must be an integer"):
        pair_measures(sq, sq, n_max)


def test_oracle_takes_a_numpy_integer_cutoff():
    sq_a, sq_b = make_squeeze(0.5), make_squeeze(0.3)
    assert pair_measures(sq_a, sq_b, np.int64(9)) == pair_measures(sq_a, sq_b, 9)


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
    diag, off = pair_blocks(make_squeeze(r_a), make_squeeze(r_b), n_max)
    return negativity(diag[None], off[None], _block_plan(n_max, False))[0]


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
    diag, off = pair_blocks(sq, sq, n_max)
    unshared = _block_eigenvalues(diag, off, _block_plan(n_max, False))
    assert np.array_equal(_block_eigenvalues(diag, off, _block_plan(n_max, True)), unshared)
    shapes = counted_eigvalsh(monkeypatch)
    assert pair_measures(sq, sq, n_max)["s_ab_num"] == _entropy_bits(unshared)
    # rho_AB solves blocks k = 0..N, its partial transpose all 2N + 1
    assert sum(shape[0] for shape in shapes) == (n_max + 1) + (2 * n_max + 1)


def test_eigensolves_are_stacked(monkeypatch):
    shapes = counted_eigvalsh(monkeypatch)
    pair_measures(make_squeeze(0.9), make_squeeze(0.6), 14)
    assert len(shapes) <= 4
    assert all(shape[1] % PAD_MULTIPLE == 0 for shape in shapes)


def test_batch_values_equal_each_point_alone():
    # one oracle call over cutoffs either side of a padded length and at
    # fig2's largest, symmetric and asymmetric points and r = 0; points that
    # share a cutoff and symmetry are solved in one stack
    pairs = [(0.7, 0.3), (1.5, 0.2), (1.2, 1.2), (0.4, 0.4), (0.0, 0.0), (0.0, 0.9)]
    points = [(make_squeeze(r_a), make_squeeze(r_b), n) for n in (1, 7, 8, 9, 15, 16, 17) for r_a, r_b in pairs]
    points += [(make_squeeze(1.6), make_squeeze(1.6), 191), (make_squeeze(1.6), make_squeeze(0.8), 191)]
    for point, got in zip(points, oracle(points), strict=True):
        assert got == pair_measures(*point), (point[0].r, point[1].r, point[2])


def blocks_of_padded_length(n_max, p):
    """How many of one point's partial-transpose blocks are padded to length p."""
    return sum(-(-(n_max + 1 - abs(k)) // PAD_MULTIPLE) * PAD_MULTIPLE == p for k in range(-n_max, n_max + 1))


def test_sweep_solves_each_padded_length_once(monkeypatch):
    # 6 asymmetric points at N = 14 are one chunk: blocks padded to 8 and to
    # 16, for rho_AB and for its partial transpose, not 4 calls a point
    shapes = counted_eigvalsh(monkeypatch)
    rows = run_sweep(SweepConfig(r_min=0.4, r_max=1.4, steps=6, omega_ratio=2.0, cutoff=SeriesConfig(n_max=14)))
    assert all(row.e_n_num is not None for row in rows)
    assert sorted(shape[1] for shape in shapes) == [8, 8, 16, 16]
    assert sum(shape[0] for shape in shapes) == 6 * 2 * (2 * 14 + 1)


def test_stacks_stay_within_the_budget(monkeypatch):
    # 40 points at N = 14 take three chunks; a stack over STACK_BUDGET holds
    # the blocks of one point alone, as at N = 191, where one point's 15
    # partial-transpose blocks padded to 192 take 4.4 MB
    shapes = counted_eigvalsh(monkeypatch)
    points = [(make_squeeze(0.02 * i), make_squeeze(0.55), 14) for i in range(40)]
    points += [(make_squeeze(1.6), make_squeeze(r), 191) for r in (0.8, 0.9)]
    oracle(points)
    assert sum(shape[0] for shape in shapes) == 2 * (40 * 29 + 2 * 383)
    for count, p, _ in shapes:
        assert 8 * count * p * p <= STACK_BUDGET or count <= blocks_of_padded_length(191, p), (count, p)
    assert any(8 * count * p * p > STACK_BUDGET for count, p, _ in shapes)


def blocks_point_by_point(sq_a, sq_b, n_max):
    """D and C of one point from its amplitudes term by term and np.outer."""
    k = np.arange(n_max + 1)
    (va, oa), (vb, ob) = (
        (sq.tanh_r**k / sq.cosh_r, np.append(np.sqrt(k[:-1] + 1.0) * sq.tanh_r ** k[:-1] / sq.cosh_r**2, 0.0))
        for sq in (sq_a, sq_b)
    )
    oa_prev, ob_prev = np.append(0.0, oa[:-1]), np.append(0.0, ob[:-1])
    diag = 0.5 * (np.outer(va**2, vb**2) + np.outer(oa_prev**2, ob_prev**2))
    return diag, 0.5 * np.outer((va * oa)[:-1], (vb * ob)[:-1])


def entropy_bits_masked(eigenvalues):
    """_entropy_bits with an unconditional mask and no in-place steps."""
    lam = np.asarray(eigenvalues, dtype=float)
    if np.any(lam < -1e-10):
        raise ValueError("non-physical")
    lam = lam[lam > 0.0]
    tr = lam.sum()
    if tr <= 0.0:
        return 0.0
    lam = lam / tr
    s = float(-np.sum(lam * np.log2(lam)))
    return s if s > 0.0 else 0.0


def marginals_point_by_point(diag):
    return [{"s_a_num": _entropy_bits(d.sum(axis=1)), "s_b_num": _entropy_bits(d.sum(axis=0))} for d in diag]


# symmetric and asymmetric pairs, r = 0 on either side; at r = 1.5225,
# cosh(r) ** 2 and cosh(r) * cosh(r) differ in the last bit
CHUNK_PAIRS = [(0.0, 0.0), (0.0, 0.9), (1.3, 0.0), (0.7, 0.3), (1.2, 1.2), (0.4, 1.65), (2.5, 2.5), (1.5225, 0.6)]


@pytest.mark.parametrize("n_max", (1, 2) + PAD_EDGES + (191,))
def test_chunk_blocks_equal_the_point_by_point_ones(n_max):
    pairs = [(make_squeeze(r_a), make_squeeze(r_b)) for r_a, r_b in CHUNK_PAIRS]
    diag, off = _stacked_blocks(pairs, n_max)
    assert diag.shape == (len(pairs), n_max + 1, n_max + 1) and off.shape == (len(pairs), n_max, n_max)
    for pair, d, c in zip(pairs, diag, off):
        want_d, want_c = blocks_point_by_point(*pair, n_max)
        assert np.array_equal(d, want_d) and np.array_equal(c, want_c), (pair[0].r, pair[1].r)
        one_d, one_c = pair_blocks(*pair, n_max)
        assert np.array_equal(one_d, want_d) and np.array_equal(one_c, want_c)


def test_chunk_spectra_are_contiguous_rows():
    # each point's spectrum is reduced on its own, from a C-contiguous row
    pairs = [(make_squeeze(r_a), make_squeeze(r_b)) for r_a, r_b in CHUNK_PAIRS]
    diag, off = _stacked_blocks(pairs, 9)
    plan = _block_plan(9, False)
    for spectra in (_block_eigenvalues(diag, off, plan), _block_eigenvalues(diag[..., ::-1], off[..., ::-1], plan)):
        assert spectra.shape == (len(pairs), 100) and spectra.flags.c_contiguous


def test_entropy_and_marginals_equal_the_plain_reductions():
    rng = np.random.default_rng(5)
    spectra = [rng.uniform(-1e-11, 1.0, size) for size in (1, 2, 7, 64, 500)]
    spectra += [rng.uniform(0.0, 1.0, 40), np.array([0.5, 0.5, 0.0]), np.zeros(3), np.array([1.0]), np.array([])]
    for lam in spectra:
        assert repr(_entropy_bits(lam)) == repr(entropy_bits_masked(lam))
    pairs = [(make_squeeze(r_a), make_squeeze(r_b)) for r_a, r_b in CHUNK_PAIRS]
    for n_max in (1, 9, 40):
        diag, _ = _stacked_blocks(pairs, n_max)
        assert marginal_entropies(diag) == marginals_point_by_point(diag)


def test_oracle_equals_its_point_by_point_set_up(monkeypatch):
    # every value, at full precision, equals the oracle fed point-by-point D
    # and C, plain entropies and per-point row and column sums
    points = [(make_squeeze(r_a), make_squeeze(r_b), n) for n in (1, 8, 9, 14, 33) for r_a, r_b in CHUNK_PAIRS]
    points += [(make_squeeze(1.6), make_squeeze(r_b), 191) for r_b in (1.6, 0.8)]
    got = oracle(points)
    monkeypatch.setattr(
        density,
        "_stacked_blocks",
        lambda pairs, n_max: tuple(np.stack(m) for m in zip(*(blocks_point_by_point(*p, n_max) for p in pairs))),
    )
    monkeypatch.setattr(density, "_entropy_bits", entropy_bits_masked)
    monkeypatch.setattr(density, "marginal_entropies", marginals_point_by_point)
    assert repr(oracle(points)) == repr(got)


def test_block_plans_are_worked_out_once_per_group(monkeypatch):
    # 40 asymmetric points at N = 14 take three chunks and one plan, which the
    # partial transpose and rho_AB share; a symmetric group adds its mirrored
    # plan; a second call keeps nothing of the first
    plans = []

    def counted(n, mirrored):
        plans.append((n, mirrored))
        return _block_plan(n, mirrored)

    monkeypatch.setattr(density, "_block_plan", counted)
    points = [(make_squeeze(0.02 * i), make_squeeze(0.55), 14) for i in range(40)]
    points.append((make_squeeze(0.9), make_squeeze(0.9), 14))
    want = oracle(points)
    assert plans == [(14, False), (14, False), (14, True)]
    assert oracle(points) == want and len(plans) == 6


def test_padding_that_does_not_sort_last_is_refused():
    # a block eigenvalue of 3 sorts after the padding's
    with pytest.raises(PaddingError, match="padding"):
        _block_eigenvalues(np.full((3, 3), 3.0), np.zeros((2, 2)), _block_plan(2, False))


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
    diag, off = pair_blocks(sq_a, sq_b, n_max)
    blocks = np.diag(diag.ravel())
    n, q = np.divmod(np.arange(n_max * n_max), n_max)
    blocks[n * d + q, (n + 1) * d + q + 1] = blocks[(n + 1) * d + q + 1, n * d + q] = off.ravel()
    np.testing.assert_allclose(rho, blocks, rtol=0, atol=1e-15)
