"""Tests for the block-structured oracle (`oracle` on a batch of points,
`pair_measures` on one, its three column families and the block spectra they
read): fixed points, the derivation of its blocks, batches against points
alone, and properties over random squeezing and cutoff checked against the
brute-force reference (`brute_force.py`), a one-block-at-a-time eigensolve and
the physical invariants."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from brute_force import (
    OUT_PAIR,
    decimal_tanh2,
    measures,
    mode_amplitudes,
    pair_blocks,
    pair_state,
    reduce,
    rows_term_by_term,
    within_last_digit,
)

import hawkpair
from hawkpair import density, sweep
from hawkpair.closed_form import SeriesConfig, resolve_cutoff
from hawkpair.density import (
    NUMERIC_CAP,
    NumericCapError,
    _block_eigenvalues,
    _entropy_bits,
    joint_entropy,
    marginal_entropies,
    negativity,
    oracle,
    pair_measures,
)
from hawkpair.fock import side_rows
from hawkpair.kinematics import _CHUNK_CELLS, make_squeeze
from hawkpair.sweep import SweepConfig, compare_closed_vs_numeric, run_point, run_sweep

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

COLUMNS = ("neg_sum_num", "e_n_num", "s_a_num", "s_b_num", "s_ab_num", "i_num", "trace_deficit")

squeezing = st.floats(min_value=0.0, max_value=2.5, allow_nan=False)
cutoffs = st.integers(min_value=1, max_value=12)
block_cutoffs = st.integers(min_value=1, max_value=64)
# cutoffs one below, at and one above a multiple of 8, so the longest block
# (N + 1) is at, one past and two past it
NEAR_MULTIPLES_OF_8 = (7, 8, 9, 15, 16, 17, 31, 32, 33)
properties = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def point_rows(sq_a, sq_b, n_max):
    """The library's rows of one point, Alice's and Bob's; at a symmetric point
    Bob's are Alice's own, as `oracle` passes them."""
    a = side_rows([sq_a], n_max)
    return a, a if sq_a == sq_b else side_rows([sq_b], n_max)


def chunk_rows(pairs, n_max):
    """The library's rows of a chunk of (sq_a, sq_b) pairs, Alice's and Bob's."""
    return tuple(side_rows(side, n_max) for side in zip(*pairs))


def reversed_sites(b):
    """Bob's rows with his sites reversed, as `negativity` reads them."""
    return tuple(x[:, ::-1] for x in b)


def block_diagonals(diag, off):
    """Each block's diagonal and off-diagonal, k = -N..N."""
    n = diag.shape[0] - 1
    return [(np.diagonal(diag, k), np.diagonal(off, k)) for k in range(-n, n + 1)]


def per_block(diag, off):
    """Block spectra one eigvalsh call per block, k = -N..N, each ascending."""
    return np.concatenate(
        [np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1)) for d, e in block_diagonals(diag, off)]
    )


def block_spectra(r_a, r_b, n_max):
    """The block spectra of rho_AB (mirrored at a symmetric point, as the joint
    family solves them) and of its partial transpose on B."""
    a, b = point_rows(make_squeeze(r_a), make_squeeze(r_b), n_max)
    return _block_eigenvalues(a, b)[0], _block_eigenvalues(a, reversed_sites(b))[0]


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
    # each family takes a stack of points' rows, Alice's and Bob's, here of one point
    a, b = point_rows(make_squeeze(0.9), make_squeeze(0.4), 7)
    families = (marginal_entropies(a, b)[0], negativity(a, b)[0], joint_entropy(a, b)[0])
    names = [name for family in families for name in family]
    assert sorted(names + ["i_num", "trace_deficit"]) == sorted(COLUMNS)
    got = pair_measures(make_squeeze(0.9), make_squeeze(0.4), 7)
    assert all(got[name] == value for family in families for name, value in family.items())


def decimal_oracle_deficit(r_a, r_b, n_max):
    """1 - tr D from each mode's family weights summed one by one in 60 digits:
    the vacuum's x^n (1 - x), n = 0..N, and the one particle's
    (k+1) x^k (1 - x)^2, k = 0..N-1 (O(N) = 0), x = tanh^2 r."""
    with localcontext() as ctx:
        ctx.prec = 60
        sums = []
        for r in (r_a, r_b):
            x = decimal_tanh2(r)
            weight, vacuum, one = 1 - x, 0, 0
            for k in range(n_max + 1):
                vacuum += weight
                one += (k + 1) * weight * (1 - x) if k < n_max else 0
                weight *= x
            sums.append((vacuum, one))
        (vac_a, one_a), (vac_b, one_b) = sums
        return 1 - (vac_a * vac_b + one_a * one_b) / 2


# fig2's r = 0.05, 1 and 1.65 at their resolved cutoffs, and an asymmetric
# point; 1 - tr D summed in floats misses each, by 1.4e-4 relative at 1.65
@pytest.mark.parametrize("r_a,r_b,n_max", [(0.05, 0.05, 4), (1.0, 1.0, 49), (1.65, 1.65, 191), (1.3, 0.55, 40)])
def test_trace_deficit_is_right_to_its_printed_digits(r_a, r_b, n_max):
    a, b = make_squeeze(r_a), make_squeeze(r_b)
    assert r_a != r_b or n_max == resolve_cutoff(a, b, SeriesConfig(tail_tol=1e-10))
    assert within_last_digit(pair_measures(a, b, n_max)["trace_deficit"], decimal_oracle_deficit(r_a, r_b, n_max))


def sturm_count(diag, off2, x):
    """How many eigenvalues of the symmetric tridiagonal block with diagonal
    `diag` and squared off-diagonal `off2` lie below x: the negative LDL^T
    pivots q_j = d_j - x - e_(j-1)^2 / q_(j-1)."""
    count, q = 0, None
    for j, d in enumerate(diag):
        q = d - x - (off2[j - 1] / q if j else 0)
        count += q < 0
        q = q or Decimal("1e-60")  # a zero pivot counts as positive
    return count


def bisected_eigenvalues(diag, off2, below=None):
    """The block's eigenvalues (those below `below`, if given), ascending, each
    by 80 bisection steps on the Sturm count in the block's Gershgorin interval."""
    off = [e2.sqrt() for e2 in off2] + [Decimal(0)]  # off[-1] and off[len(diag) - 1] are 0
    lo = min(d - off[j - 1] - off[j] for j, d in enumerate(diag))
    if below is None:
        hi, count = max(d + off[j - 1] + off[j] for j, d in enumerate(diag)), len(diag)
    else:
        hi, count = below, sturm_count(diag, off2, below)
    found = []
    for i in range(count):
        a, b = lo, hi
        for _ in range(80):
            mid = (a + b) / 2
            a, b = (a, mid) if sturm_count(diag, off2, mid) > i else (mid, b)
        found.append((a + b) / 2)
    return found


def decimal_entropy_bits(lam, ln2):
    """_entropy_bits in decimal: the positive part renormalised to trace 1."""
    lam = [x for x in lam if x > 0]
    tr = sum(lam)
    return -sum(x / tr * (x / tr).ln() for x in lam) / ln2


def decimal_oracle_columns(r_a, r_b, n_max, joint):
    """The oracle's columns but trace_deficit, from its truncated state rebuilt
    in 30 digits out of the same float tanh r and cosh r: V(k)^2 = t^2k / c^2
    and O(k)^2 = (k+1) t^2k / c^4 (O(N) = 0) give D and C^2 of the density
    module's docstring. s_a_num and s_b_num come from D's row and column sums,
    neg_sum_num and e_n_num from the negative eigenvalues of the
    partial-transpose blocks (constant a + b) and, when `joint`, s_ab_num and
    i_num from every eigenvalue of the rho_AB blocks (constant a - b)."""
    with localcontext() as ctx:
        ctx.prec = 30
        ln2 = Decimal(2).ln()
        span = range(n_max + 1)
        rows = []
        for r in (r_a, r_b):
            sq = make_squeeze(r)
            t2, cosh2 = Decimal(sq.tanh_r) ** 2, Decimal(sq.cosh_r) ** 2
            rows.append(([t2**k / cosh2 for k in span], [(k + 1) * t2**k / cosh2**2 for k in range(n_max)] + [0]))
        (va, oa), (vb, ob) = rows
        # D[a][b], and c2[n][q] = C[n, q]^2 for the coupling of (n, q) and (n + 1, q + 1)
        d = [[(va[a] * vb[b] + (oa[a - 1] * ob[b - 1] if a and b else 0)) / 2 for b in span] for a in span]
        c2 = [[va[n] * oa[n] * vb[q] * ob[q] / 4 for q in range(n_max)] for n in range(n_max)]
        columns = {
            "s_a_num": decimal_entropy_bits([sum(row) for row in d], ln2),
            "s_b_num": decimal_entropy_bits([sum(row[b] for row in d) for b in span], ln2),
        }
        negative = []
        for m in range(2 * n_max + 1):
            sites = [a for a in span if 0 <= m - a <= n_max]
            pt_diag = [d[a][m - a] for a in sites]
            negative += bisected_eigenvalues(pt_diag, [c2[a][m - a - 1] for a in sites[:-1]], Decimal(0))
        columns["neg_sum_num"] = -sum(negative)
        columns["e_n_num"] = -2 * min(negative, default=Decimal(0))
        if joint:
            spectrum = []
            for k in range(-n_max, n_max + 1):
                sites = [a for a in span if 0 <= a + k <= n_max]
                ab_diag = [d[a][a + k] for a in sites]
                spectrum += bisected_eigenvalues(ab_diag, [c2[a][a + k] for a in sites[:-1]])
            columns["s_ab_num"] = decimal_entropy_bits(spectrum, ln2)
            columns["i_num"] = columns["s_a_num"] + columns["s_b_num"] - columns["s_ab_num"]
        return columns


# symmetric r = 0.5 and 1 at their resolved cutoffs, and (1, 0.5) at N = 30; at
# r = 1 the joint pair is left out, since bisecting all 2500 rho_AB eigenvalues is slow
@pytest.mark.parametrize("r_a,r_b,n_max,joint", [(0.5, 0.5, 16, True), (1.0, 0.5, 30, True), (1.0, 1.0, 49, False)])
def test_oracle_columns_are_right_to_their_printed_digits(r_a, r_b, n_max, joint):
    a, b = make_squeeze(r_a), make_squeeze(r_b)
    assert r_a != r_b or n_max == resolve_cutoff(a, b, SeriesConfig(tail_tol=1e-10))
    got = pair_measures(a, b, n_max)
    exact = decimal_oracle_columns(r_a, r_b, n_max, joint)
    assert len(exact) == (6 if joint else 4)
    for name, want in exact.items():
        assert within_last_digit(got[name], want), (name, got[name], want)


def test_rejects_cutoff_below_one(monkeypatch):
    def no_blocks(*args):
        raise AssertionError("rows built before the cutoffs were checked")

    monkeypatch.setattr(density, "side_rows", no_blocks)
    sq = make_squeeze(0.5)
    for n_max in (0, -3):
        with pytest.raises(ValueError, match=f"n_max must be >= 1, got {n_max}"):
            pair_measures(sq, sq, n_max)
    # a batch is checked whole: a good point ahead of the bad one builds nothing either
    with pytest.raises(ValueError, match="n_max must be >= 1, got 0"):
        oracle([(sq, sq, 5), (sq, make_squeeze(0.2), 0)])


def test_oracle_refuses_a_cutoff_past_its_cap_before_building(monkeypatch):
    def no_blocks(*args):
        raise AssertionError("rows built before the cutoffs were checked")

    monkeypatch.setattr(density, "side_rows", no_blocks)
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


# r = 1.65 (fig2's last oracle row), symmetric and not, at the cap: no rho_AB
# eigenvalue is negative enough for _entropy_bits to refuse, so a sweep's batch
# does not fail at a point its loop let through
@properties
@example(r_a=1.65, r_b=1.65, n_max=NUMERIC_CAP)
@example(r_a=1.65, r_b=0.8, n_max=NUMERIC_CAP)
@given(r_a=squeezing, r_b=squeezing, n_max=cutoffs)
def test_structured_oracle_invariants(r_a, r_b, n_max):
    ab, _ = block_spectra(r_a, r_b, n_max)
    got = pair_measures(make_squeeze(r_a), make_squeeze(r_b), n_max)
    assert got["trace_deficit"] >= 0.0
    assert ab.min() >= -1e-12
    assert got["i_num"] >= -1e-12


def negativity_at(r_a, r_b, n_max):
    return negativity(*point_rows(make_squeeze(r_a), make_squeeze(r_b), n_max))[0]


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
    assert got["s_a_num"] == got["s_b_num"]


# fig2's last oracle row at its cutoff, with Bob less squeezed
@properties
@example(r_a=1.65, r_b=0.8, n_max=191)
@given(r_a=squeezing, r_b=squeezing, n_max=block_cutoffs)
def test_swapping_alice_and_bob_swaps_the_marginals(r_a, r_b, n_max):
    a, b = make_squeeze(r_a), make_squeeze(r_b)
    got, swapped = pair_measures(a, b, n_max), pair_measures(b, a, n_max)
    assert (got["s_a_num"].hex(), got["s_b_num"].hex()) == (swapped["s_b_num"].hex(), swapped["s_a_num"].hex())


# with rho_B taken as D's column sums, r = 0.3 at N = 14 gave diff_s_b =
# 0.21321592975807513 beside diff_s_a = 0.21321592975807535
@properties
@example(r=0.3, n_max=14)
@given(r=squeezing, n_max=cutoffs)
def test_symmetric_compare_has_equal_marginal_gaps(r, n_max):
    report = compare_closed_vs_numeric(run_point(r, cutoff=SeriesConfig(n_max=n_max)))
    assert report.diff_s_b == report.diff_s_a


def gershgorin_clears(d, e):
    """Whether the row test d_j - |e_(j-1)| - |e_j| >= 0 holds on every row of
    the tridiagonal block with diagonal d and off-diagonal e, so that every
    Gershgorin disc, and hence every eigenvalue, lies in [0, inf)."""
    e = np.abs(np.concatenate(([0.0], e, [0.0])))
    return bool(np.all(d - e[:-1] - e[1:] >= 0.0))


def gershgorin_cleared_minima(r_a, r_b, n_max):
    """The smallest eigenvalue, in the oracle's own partial-transpose spectra,
    of each block the row test clears."""
    diag, off = pair_blocks(make_squeeze(r_a), make_squeeze(r_b), n_max)
    _, pt = block_spectra(r_a, r_b, n_max)
    blocks = block_diagonals(diag[:, ::-1], off[:, ::-1])
    spectra = np.split(pt, np.cumsum([len(d) for d, _ in blocks])[:-1])
    return [lam.min() for (d, e), lam in zip(blocks, spectra, strict=True) if gershgorin_clears(d, e)]


# a block the row test clears may be left out of the negativity sums: no
# cleared block has a negative eigenvalue, so leaving it out changes no value
@properties
@given(r_a=squeezing, r_b=squeezing, n_max=st.integers(min_value=1, max_value=60))
def test_gershgorin_cleared_blocks_have_no_negative_eigenvalue(r_a, r_b, n_max):
    assert min(gershgorin_cleared_minima(r_a, r_b, n_max), default=0.0) >= 0.0


# r = 1.6 at fig2's largest oracle cutoff, symmetric and with Bob less
# squeezed; about half of the 383 blocks are cleared
@pytest.mark.parametrize("r_b,cleared", [(1.6, 198), (0.8, 193)])
def test_gershgorin_cleared_blocks_at_fig2_cutoff(r_b, cleared):
    minima = gershgorin_cleared_minima(1.6, r_b, 191)
    assert len(minima) == cleared
    assert min(minima) >= 0.0


@properties
@given(r_a=squeezing, r_b=squeezing, symmetric=st.booleans(), n_max=block_cutoffs)
def test_stacked_blocks_match_per_block_solve(r_a, r_b, symmetric, n_max):
    assert_matches_per_block(r_a, r_a if symmetric else r_b, n_max)


@pytest.mark.parametrize("n_max", NEAR_MULTIPLES_OF_8)
@pytest.mark.parametrize("r_a,r_b", [(0.8, 0.8), (1.3, 0.4), (0.2, 2.5)])
def test_stacked_blocks_match_per_block_solve_near_multiples_of_8(r_a, r_b, n_max):
    assert_matches_per_block(r_a, r_b, n_max)


# a symmetric chunk with r = 0 and fig2's last oracle row in it
SYMMETRIC_CHUNK = (1.1, 0.0, 0.4, 1.65)


@pytest.mark.parametrize("n_max", (1,) + NEAR_MULTIPLES_OF_8 + (64, 191))
def test_symmetric_point_solves_mirrored_blocks_once(monkeypatch, n_max):
    # Bob's rows passed as Alice's own solve blocks k = 0..N of every point; an
    # equal copy is solved in full, and gives the same spectra bit for bit
    squeezings = [make_squeeze(r) for r in SYMMETRIC_CHUNK]
    a = side_rows(squeezings, n_max)
    unshared = _block_eigenvalues(a, tuple(x.copy() for x in a))
    shapes = counted_eigvalsh(monkeypatch)
    assert _block_eigenvalues(a, a).tobytes() == unshared.tobytes()
    assert {count for count, *_ in shapes} == {len(squeezings)}
    assert sum(blocks for _, blocks, _, _ in shapes) == n_max + 1
    shapes.clear()
    got = oracle([(sq, sq, n_max) for sq in squeezings])
    assert [point["s_ab_num"] for point in got] == [_entropy_bits(ab) for ab in unshared]
    # at each point rho_AB solves blocks k = 0..N, its partial transpose all 2N + 1
    points = len(squeezings)
    assert sum(count * blocks for count, blocks, _, _ in shapes) == points * ((n_max + 1) + (2 * n_max + 1))


def assert_one_call_per_length(shapes, points, n_max, symmetric=False):
    """One eigvalsh call per block length and family, each stacking the
    blocks -k and k (k alone at k = 0 or where mirrored) of every point."""
    want = [(points, 2 if k else 1, n_max + 1 - k, n_max + 1 - k) for k in range(n_max, -1, -1)]
    mirrored = [(points, 1) + shape[2:] for shape in want]
    assert shapes == want + (mirrored if symmetric else want)


def test_eigensolves_are_stacked(monkeypatch):
    shapes = counted_eigvalsh(monkeypatch)
    pair_measures(make_squeeze(0.9), make_squeeze(0.6), 14)
    assert_one_call_per_length(shapes, 1, 14)
    shapes.clear()
    pair_measures(make_squeeze(0.9), make_squeeze(0.9), 14)
    assert_one_call_per_length(shapes, 1, 14, symmetric=True)


def test_batch_values_equal_each_point_alone():
    # one oracle call over cutoffs either side of a multiple of 8 and at
    # fig2's largest, symmetric and asymmetric points and r = 0; points that
    # share a cutoff and symmetry are solved in one stack, and the 40
    # symmetric and 40 asymmetric points at N = 14 in chunks of 18, 18 and 4
    pairs = [(0.7, 0.3), (1.5, 0.2), (1.2, 1.2), (0.4, 0.4), (0.0, 0.0), (0.0, 0.9)]
    points = [(make_squeeze(r_a), make_squeeze(r_b), n) for n in (1, 7, 8, 9, 15, 16, 17) for r_a, r_b in pairs]
    points += [(make_squeeze(1.6), make_squeeze(1.6), 191), (make_squeeze(1.6), make_squeeze(0.8), 191)]
    points += [(make_squeeze(0.04 * i), make_squeeze(r_b or 0.04 * i), 14) for i in range(40) for r_b in (None, 0.55)]
    for point, got in zip(points, oracle(points), strict=True):
        want = pair_measures(*point)
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}, (
            point[0].r, point[1].r, point[2]
        )


def test_sweep_solves_each_length_once(monkeypatch):
    # 6 asymmetric points at N = 14 are one chunk: one call per block length
    # 1..15, for the partial transpose and for rho_AB, not 30 calls a point
    shapes = counted_eigvalsh(monkeypatch)
    rows = run_sweep(SweepConfig(r_min=0.4, r_max=1.4, steps=6, omega_ratio=2.0, cutoff=SeriesConfig(n_max=14)))
    assert all(row.e_n_num is not None for row in rows)
    assert len(shapes) == 30
    assert_one_call_per_length(shapes, 6, 14)


def test_stacks_stay_within_the_budget(monkeypatch):
    # a chunk takes as many points of one cutoff and symmetry as fit
    # kinematics._CHUNK_CELLS, the budget of the series too, at the
    # (2N + 1)(N + 1) block diagonals a point's _block_eigenvalues gathers:
    # 40 points at N = 14 take chunks of 18, 18 and 4, N = 44 takes 2 points
    # a chunk, and from N = 45 on a point is solved alone
    assert 18 * 29 * 15 <= _CHUNK_CELLS < 19 * 29 * 15
    assert 2 * 89 * 45 <= _CHUNK_CELLS < 2 * 91 * 46
    shapes = counted_eigvalsh(monkeypatch)
    oracle([(make_squeeze(0.02 * i), make_squeeze(0.55), 14) for i in range(40)])
    assert [count for count, *_ in shapes] == [18] * 30 + [18] * 30 + [4] * 30  # 90 calls
    assert sum(count * blocks for count, blocks, _, _ in shapes) == 2 * 40 * 29
    shapes.clear()
    oracle([(make_squeeze(0.3 + 0.1 * i), make_squeeze(0.55), n) for n in (44, 45) for i in range(3)])
    assert [count for count, *_ in shapes] == [2] * 90 + [1] * 90 + [1] * 3 * 92


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


def marginals_point_by_point(a, b):
    """Each point's marginals one side at a time: rho_A(a) = (V_a(a)^2
    sum V_b^2 + O_a(a-1)^2 sum O_b(b-1)^2) / 2, and rho_B the same with the
    sides swapped."""
    out = []
    for va, oa, vb, ob in zip(a[0], a[1], b[0], b[1], strict=True):
        rho_a, rho_b = (0.5 * (v * np.sum(w) + o * np.sum(p)) for v, o, w, p in ((va, oa, vb, ob), (vb, ob, va, oa)))
        out.append({"s_a_num": _entropy_bits(rho_a), "s_b_num": _entropy_bits(rho_b)})
    return out


# symmetric and asymmetric pairs, r = 0 on either side; at r = 1.5225,
# cosh(r) ** 2 and cosh(r) * cosh(r) differ in the last bit
CHUNK_PAIRS = [(0.0, 0.0), (0.0, 0.9), (1.3, 0.0), (0.7, 0.3), (1.2, 1.2), (0.4, 1.65), (2.5, 2.5), (1.5225, 0.6)]


def handed_blocks(a, b):
    """The blocks `_block_eigenvalues(a, b)` hands to eigvalsh, k = -N..N, each
    a (diagonal, off-diagonal) pair stacked over the points; nothing is solved."""
    calls = []

    def record(stack):
        calls.append((np.diagonal(stack, 0, -2, -1).copy(), np.diagonal(stack, -1, -2, -1).copy()))
        return np.zeros(stack.shape[:-1])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", record)
        _block_eigenvalues(a, b)
    # blocks -N..0 are the first of each length's call, blocks 1..N the last
    return [(d[:, 0], e[:, 0]) for d, e in calls] + [(d[:, -1], e[:, -1]) for d, e in calls[-2::-1]]


@pytest.mark.parametrize("n_max", (1, 2) + NEAR_MULTIPLES_OF_8 + (191,))
def test_chunk_blocks_equal_the_point_by_point_ones(n_max):
    # a chunk's rows equal each side's term by term, and the blocks it solves,
    # of rho_AB and of its partial transpose, run along the diagonals of each
    # point's D and C built term by term and of their column flips
    pairs = [(make_squeeze(r_a), make_squeeze(r_b)) for r_a, r_b in CHUNK_PAIRS]
    a, b = chunk_rows(pairs, n_max)
    for rows, side in zip((a, b), zip(*pairs)):
        assert [x.shape for x in rows] == [(len(pairs), n_max + 1)] * 2 + [(len(pairs), n_max)]
        for sq, *got in zip(side, *rows):
            assert all(np.array_equal(g, w) for g, w in zip(got, rows_term_by_term(sq, n_max), strict=True)), sq.r
    ab, pt = handed_blocks(a, b), handed_blocks(a, reversed_sites(b))
    for i, pair in enumerate(pairs):
        diag, off = pair_blocks(*pair, n_max)
        for got, want in ((ab, block_diagonals(diag, off)), (pt, block_diagonals(diag[:, ::-1], off[:, ::-1]))):
            assert len(got) == len(want) == 2 * n_max + 1
            for (d, e), (want_d, want_e) in zip(got, want):
                assert np.array_equal(d[i], want_d) and np.array_equal(e[i], want_e), (pair[0].r, pair[1].r)


def test_chunk_spectra_are_contiguous_rows():
    # each point's spectrum is reduced on its own, from a C-contiguous row
    pairs = [(make_squeeze(r_a), make_squeeze(r_b)) for r_a, r_b in CHUNK_PAIRS]
    a, b = chunk_rows(pairs, 9)
    for spectra in (_block_eigenvalues(a, b), _block_eigenvalues(a, reversed_sites(b))):
        assert spectra.shape == (len(pairs), 100) and spectra.flags.c_contiguous


def test_entropy_and_marginals_equal_the_plain_reductions():
    rng = np.random.default_rng(5)
    spectra = [rng.uniform(-1e-11, 1.0, size) for size in (1, 2, 7, 64, 500)]
    spectra += [rng.uniform(0.0, 1.0, 40), np.array([0.5, 0.5, 0.0]), np.zeros(3), np.array([1.0]), np.array([])]
    for lam in spectra:
        assert repr(_entropy_bits(lam)) == repr(entropy_bits_masked(lam))
    pairs = [(make_squeeze(r_a), make_squeeze(r_b)) for r_a, r_b in CHUNK_PAIRS]
    for n_max in (1, 9, 40):
        a, b = chunk_rows(pairs, n_max)
        assert marginal_entropies(a, b) == marginals_point_by_point(a, b)


@pytest.mark.parametrize("n_max", (1, 2) + NEAR_MULTIPLES_OF_8 + (191,))
def test_marginals_are_the_entropies_of_the_row_and_column_sums_of_d(n_max):
    # the per-side rule is rho_A and rho_B summed in another order, so the
    # entropies agree to rounding
    pairs = [(make_squeeze(r_a), make_squeeze(r_b)) for r_a, r_b in CHUNK_PAIRS]
    for got, pair in zip(marginal_entropies(*chunk_rows(pairs, n_max)), pairs, strict=True):
        d, _ = pair_blocks(*pair, n_max)
        assert got["s_a_num"] == pytest.approx(_entropy_bits(d.sum(axis=1)), rel=1e-14, abs=1e-15)
        assert got["s_b_num"] == pytest.approx(_entropy_bits(d.sum(axis=0)), rel=1e-14, abs=1e-15)


def test_oracle_equals_its_point_by_point_set_up(monkeypatch):
    # every value, at full precision, equals the oracle fed each side's rows
    # term by term, plain entropies and per-point, per-side marginals
    points = [(make_squeeze(r_a), make_squeeze(r_b), n) for n in (1, 8, 9, 14, 33) for r_a, r_b in CHUNK_PAIRS]
    points += [(make_squeeze(1.6), make_squeeze(r_b), 191) for r_b in (1.6, 0.8)]
    got = oracle(points)
    monkeypatch.setattr(
        density,
        "side_rows",
        lambda squeezings, n_max: tuple(np.stack(m) for m in zip(*(rows_term_by_term(sq, n_max) for sq in squeezings))),
    )
    monkeypatch.setattr(density, "_entropy_bits", entropy_bits_masked)
    monkeypatch.setattr(density, "marginal_entropies", marginals_point_by_point)
    assert repr(oracle(points)) == repr(got)


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
