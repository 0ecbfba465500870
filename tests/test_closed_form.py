"""Tests for the analytic block and series expressions.

Independent oracles: plain-Python running-product summation for the series,
the paper's 4x4 blocks checked against the brute-force reference's rho_AB
and a dense eigensolve, and doubled-cutoff re-evaluation for truncation
control.
"""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from brute_force import OUT_PAIR, pair_state, partial_transpose, reduce

from hawkpair import closed_form
from hawkpair.closed_form import (
    HARD_SERIES_CAP,
    HEAD_SCALE,
    SMOOTH_SCALE,
    ConvergenceError,
    SeriesConfig,
    _axis_rule,
    _corners,
    _grid,
    _h_derivatives,
    _JOINT_HEAD,
    _LOG_HEAD,
    _moments,
    _panel_points,
    _s_ab_head,
    _s_ab_remainder,
    _strip,
    e_n_paper,
    mutual_info_closed,
    resolve_cutoff,
    s_a_closed,
    s_ab_closed,
    s_b_closed,
)
from hawkpair.fock import mode_amplitudes
from hawkpair.kinematics import make_squeeze

SECH2_1 = 0.4199743416140261
SECH2_6 = 2.4576547405332701e-05
TRACE_00_R1 = 0.5881892238070673  # (1 + sech^4 1)/2


def series_s_a_oracle(r, n_max):
    """Independent slow summation of the marginal-entropy series."""
    t, c = math.tanh(r), math.cosh(r)
    x = t * t
    s1 = s2 = 0.0
    term = 1.0 / c**2
    for n in range(n_max + 1):
        if term > 0.0:
            s1 += term * math.log2(term)
        weighted = (n + 1) * term / c**2
        if weighted > 0.0:
            s2 += weighted * math.log2(weighted)
        term *= x
    return 1.0 - 0.5 * s1 - 0.5 * s2


def series_s_a_sum(r, n_max):
    """The marginal series summed with numpy over n = 0..N, zero terms left out."""
    x, c2 = math.tanh(r) ** 2, math.cosh(r) ** 2
    n = np.arange(n_max + 1, dtype=float)
    total = 1.0
    for p in (x**n / c2, (n + 1.0) * x**n / c2**2):
        p = p[p > 0.0]
        total -= 0.5 * float(np.sum(p * np.log2(p)))
    return total


def series_s_ab_oracle(r_a, r_b, n_max):
    """Independent slow summation of the joint-entropy double series."""
    ca2, cb2 = math.cosh(r_a) ** 2, math.cosh(r_b) ** 2
    x, y = math.tanh(r_a) ** 2, math.tanh(r_b) ** 2
    big_c = ca2 * cb2
    total = 0.0
    xn = 1.0
    for n in range(n_max + 1):
        yq = 1.0
        for q in range(n_max + 1):
            p = xn * yq / (2.0 * big_c) * (1.0 + (n + 1) * (q + 1) / big_c)
            if p > 0.0:
                total -= p * math.log2(p)
            yq *= y
        xn *= x
    return total


def series_s_ab_grid(r_a, r_b, n_max):
    """The same double series summed with numpy on the full (n, q) grid.

    Rows and columns whose weight x^n underflows to 0 are left out: their
    terms are exactly 0, as in series_s_ab_oracle.
    """
    ca2, cb2 = math.cosh(r_a) ** 2, math.cosh(r_b) ** 2
    big_c = ca2 * cb2
    idx = np.arange(n_max + 1, dtype=float)
    wx, wy = math.tanh(r_a) ** (2 * idx), math.tanh(r_b) ** (2 * idx)
    n, wx = idx[wx > 0.0], wx[wx > 0.0]
    q, wy = idx[wy > 0.0], wy[wy > 0.0]
    total = 0.0
    rows = max(1, (1 << 20) // q.size)
    for lo in range(0, n.size, rows):
        sl = slice(lo, lo + rows)
        p = np.outer(wx[sl], wy) / (2.0 * big_c) * (1.0 + np.outer(n[sl] + 1.0, q + 1.0) / big_c)
        p = p[p > 0.0]
        total -= float(np.sum(p * np.log2(p)))
    return total


# ------------------------------------------------------------------- blocks


def paper_block(n, q, sq_a, sq_b):
    """The paper's rank-1 block (n, q) on [nq, n(q+1), (n+1)q, (n+1)(q+1)]
    (see e_n_paper), and its coupling a."""
    a = math.sqrt((n + 1.0) * (q + 1.0)) / (sq_a.cosh_r * sq_b.cosh_r)
    m = np.zeros((4, 4))
    m[0, 0], m[0, 3], m[3, 0], m[3, 3] = 0.5, a / 2.0, a / 2.0, a * a / 2.0
    return m, a


def pair_rho(r_a, r_b, n_max):
    """The reference rho_AB, indexed [a, b, a', b']."""
    d = n_max + 1
    return reduce(pair_state(r_a, r_b, n_max), OUT_PAIR).reshape(d, d, d, d)


def test_block_matrix_bell_block():
    sq0 = make_squeeze(0.0)
    m, _ = paper_block(0, 0, sq0, sq0)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    np.testing.assert_allclose(m, expected, atol=1e-15)
    # at r = 0 the block is the whole of rho_AB
    np.testing.assert_allclose(pair_rho(0.0, 0.0, 1).reshape(4, 4), expected, atol=1e-15)


def test_block_matrix_rank_one():
    sq = make_squeeze(0.7)
    singular = np.linalg.svd(paper_block(1, 2, sq, sq)[0], compute_uv=False)
    assert singular[1] < 1e-14


def test_block_matrix_trace():
    sq = make_squeeze(1.0)
    assert np.trace(paper_block(0, 0, sq, sq)[0]) == pytest.approx(TRACE_00_R1, rel=1e-12)


def test_block_pt_eigenvalues_bell():
    sq0 = make_squeeze(0.0)
    lam = np.linalg.eigvalsh(partial_transpose(paper_block(0, 0, sq0, sq0)[0]))
    np.testing.assert_allclose(lam, [-0.5, 0.5, 0.5, 0.5], atol=1e-15)
    assert 2.0 * abs(lam[0]) == pytest.approx(e_n_paper(sq0, sq0), abs=1e-15)


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("n,q", [(n, q) for n in range(4) for q in range(4)])
def test_block_pt_matches_numeric_spectrum(r, n, q):
    for sq_a, sq_b in ((make_squeeze(r), make_squeeze(r)), (make_squeeze(r), make_squeeze(2 * r))):
        block, a = paper_block(n, q, sq_a, sq_b)
        numeric = np.linalg.eigvalsh(partial_transpose(block))
        np.testing.assert_allclose(numeric, np.sort([0.5, -a / 2, a / 2, a * a / 2]), atol=1e-12)
        # weighted by V_a(n)^2 V_b(q)^2, the block's coupling is the exact rho_AB's
        weight = mode_amplitudes(sq_a, 4)[0][n] ** 2 * mode_amplitudes(sq_b, 4)[0][q] ** 2
        exact = pair_rho(sq_a.r, sq_b.r, 4)[n, q, n + 1, q + 1]
        assert weight * block[0, 3] == pytest.approx(exact, rel=1e-12)


def test_block_negative_eigenvalue_vanishes_with_evaporation():
    sq6 = make_squeeze(6.0)
    lam = np.linalg.eigvalsh(partial_transpose(paper_block(0, 0, sq6, sq6)[0]))
    assert lam.min() == pytest.approx(-SECH2_6 / 2.0, rel=1e-10)


def test_block_weight_normalization():
    # block (n, q) carries weight V_a(n)^2 V_b(q)^2 = tanh^2n r_a tanh^2q r_b / (cosh^2 r_a cosh^2 r_b)
    sq_a, sq_b = make_squeeze(1.3), make_squeeze(0.9)
    n_max = 40
    total = np.outer(mode_amplitudes(sq_a, n_max)[0] ** 2, mode_amplitudes(sq_b, n_max)[0] ** 2).sum()
    x, y = sq_a.tanh_r**2, sq_b.tanh_r**2
    assert total == pytest.approx((1 - x ** (n_max + 1)) * (1 - y ** (n_max + 1)), abs=1e-13)


def test_block_a_range():
    # the (0, 0) coupling a, read off rho_AB over half the block weight, is e_n_paper
    for r_a, r_b in ((0.0, 0.0), (1.0, 2.0)):
        sq_a, sq_b = make_squeeze(r_a), make_squeeze(r_b)
        half_weight = 0.5 / (sq_a.cosh_r * sq_b.cosh_r) ** 2
        assert pair_rho(r_a, r_b, 2)[0, 0, 1, 1] / half_weight == pytest.approx(e_n_paper(sq_a, sq_b), rel=1e-14)
    assert e_n_paper(make_squeeze(0.0), make_squeeze(0.0)) == 1.0
    assert 0.0 < e_n_paper(make_squeeze(1.0), make_squeeze(2.0)) < 1.0


# --------------------------------------------------------------- entanglement


def test_e_n_paper_values():
    sq0 = make_squeeze(0.0)
    assert e_n_paper(sq0, sq0) == 1.0
    sq1 = make_squeeze(1.0)
    assert e_n_paper(sq1, sq1) == pytest.approx(SECH2_1, rel=1e-12)
    sq6 = make_squeeze(6.0)
    assert e_n_paper(sq6, sq6) == pytest.approx(SECH2_6, rel=1e-10)
    assert e_n_paper(sq6, sq6) < 1e-4


def test_e_n_paper_strictly_decreasing():
    vals = [e_n_paper(make_squeeze(r), make_squeeze(r)) for r in np.linspace(0, 6, 61)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# --------------------------------------------------------------------- series


def test_s_a_closed_zero_squeezing():
    assert s_a_closed(make_squeeze(0.0), SeriesConfig(tail_tol=1e-12)) == 1.0


def test_s_a_closed_matches_independent_oracle():
    cfg = SeriesConfig(tail_tol=1e-12)
    sq = make_squeeze(1.0)
    n_max = resolve_cutoff(sq, sq, cfg)
    oracle = series_s_a_oracle(1.0, 2 * n_max)
    assert s_a_closed(sq, cfg) == pytest.approx(oracle, abs=1e-9)


def test_numpy_marginal_sum_matches_loop_oracle():
    for r, n_max in ((0.3, 10), (1.0, 80), (2.9, 400)):
        assert series_s_a_sum(r, n_max) == pytest.approx(series_s_a_oracle(r, n_max), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("r", [0.05, 2.4, 2.45, 2.7, 2.77, 2.85, 4.0, 5.25, 6.0])
def test_s_a_closed_matches_plain_sum_at_resolved_cutoff(r):
    # decay lengths 1/(-ln tanh^2 r) of 30.4 (r = 2.4: term by term) and of
    # 33.6 and up (Euler-Maclaurin after a head of _LOG_HEAD terms)
    sq = make_squeeze(r)
    cfg = SeriesConfig(tail_tol=1e-10)
    assert s_a_closed(sq, cfg) == pytest.approx(series_s_a_sum(r, resolve_cutoff(sq, sq, cfg)), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("n_max", [1, 40, 63, 64, 65, 100, 5000])
def test_s_a_closed_matches_plain_sum_around_the_head(n_max):
    # r = 3.5 (decay length 275) is on the Euler-Maclaurin path; a cutoff
    # under the head of 64 terms is all head, 64 leaves a zero-width
    # Euler-Maclaurin range
    sq = make_squeeze(3.5)
    assert -math.log(sq.tanh_r**2) * SMOOTH_SCALE < 1.0
    assert _LOG_HEAD == 64
    value = s_a_closed(sq, SeriesConfig(n_max=n_max))
    assert value == pytest.approx(series_s_a_sum(3.5, n_max), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("r,n_max", [(5.0, 1000), (6.0, 20_000), (15.0, 200_000)])
def test_s_a_closed_matches_plain_sum_where_moments_add_terms(r, n_max):
    # (N+1)(-ln x) < 8: _moments adds the terms instead of using closed forms
    sq = make_squeeze(r)
    assert (n_max + 1) * -math.log(sq.tanh_r**2) < 8.0
    value = s_a_closed(sq, SeriesConfig(n_max=n_max))
    assert value == pytest.approx(series_s_a_sum(r, n_max), rel=0.0, abs=1e-12)


def test_s_a_closed_underflowing_tanh():
    # tanh^2 r underflows to 0: every p_n past n = 0 vanishes, and p_0 = p'_0 = 1
    sq = make_squeeze(1e-200)
    assert sq.tanh_r**2 == 0.0
    assert s_a_closed(sq, SeriesConfig(tail_tol=1e-10)) == 1.0
    assert s_a_closed(sq, SeriesConfig(n_max=500)) == 1.0


def test_s_a_closed_allocates_no_cutoff_length_array():
    # r = 6 resolves N = 1515955: one float array of that length is 12 MB
    sq = make_squeeze(6.0)
    cfg = SeriesConfig(tail_tol=1e-10)
    assert resolve_cutoff(sq, sq, cfg) > 1_000_000
    tracemalloc.start()
    try:
        s_a_closed(sq, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_series_allocate_no_cutoff_length_array_at_explicit_cap():
    # tanh^2 15 = 1 - 3.7e-13: at any explicit cutoff _moments adds the terms
    sq = make_squeeze(15.0)
    cfg = SeriesConfig(n_max=HARD_SERIES_CAP)
    tracemalloc.start()
    try:
        s_a_closed(sq, cfg)
        s_ab_closed(sq, sq, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_s_b_closed_is_same_series():
    cfg = SeriesConfig(tail_tol=1e-10)
    sq = make_squeeze(1.7)
    assert s_b_closed(sq, cfg) == s_a_closed(sq, cfg)


def test_s_ab_closed_zero_squeezing():
    assert s_ab_closed(make_squeeze(0.0), make_squeeze(0.0), SeriesConfig(tail_tol=1e-12)) == 0.0


def test_s_ab_closed_matches_independent_oracle():
    cfg = SeriesConfig(n_max=60)
    sq = make_squeeze(1.0)
    assert s_ab_closed(sq, sq, cfg) == pytest.approx(series_s_ab_oracle(1.0, 1.0, 60), abs=1e-11)


def test_s_ab_probability_normalization():
    # the P_nq of the joint series sum to 1 up to the declared tails
    tail_tol = 1e-10
    sq = make_squeeze(1.5)
    n_max = resolve_cutoff(sq, sq, SeriesConfig(tail_tol=tail_tol))
    c2 = sq.cosh_r**2
    x = sq.tanh_r**2
    n = np.arange(n_max + 1, dtype=float)
    xn = x**n / c2
    total = float(np.sum(0.5 * np.outer(xn, xn) * (1.0 + np.outer(n + 1, n + 1) / c2**2)))
    assert total == pytest.approx(1.0, abs=2 * tail_tol)


def test_s_ab_doubled_cutoff_stable():
    sq = make_squeeze(2.0)
    base_n = resolve_cutoff(sq, sq, SeriesConfig(tail_tol=1e-10))
    base = s_ab_closed(sq, sq, SeriesConfig(n_max=base_n))
    doubled = s_ab_closed(sq, sq, SeriesConfig(n_max=2 * base_n))
    assert doubled == pytest.approx(base, abs=1e-8)


def test_smooth_path_matches_direct_on_overlap(monkeypatch):
    # same cutoff evaluated by Euler-Maclaurin (decay lengths 1/(-ln tanh^2 r)
    # of 33.6 to 150 lattice steps) and, with HEAD_SCALE raised, term by term;
    # the pairs from (2.5, 2.5) on have a smaller decay length in [32, 64)
    pairs = [(2.85, 2.85), (3.2, 3.2), (3.2, 2.9), (3.1, 1.0), (2.5, 2.5), (2.65, 2.65), (2.7, 2.5), (3.2, 2.45)]
    smooth = {}
    for r_a, r_b in pairs:
        sq_a, sq_b = make_squeeze(r_a), make_squeeze(r_b)
        assert -math.log(sq_a.tanh_r**2) * SMOOTH_SCALE < 1.0
        smooth[r_a, r_b] = s_ab_closed(sq_a, sq_b, SeriesConfig(tail_tol=1e-10))
    monkeypatch.setattr(closed_form, "HEAD_SCALE", math.inf)
    for r_a, r_b in pairs:
        direct = s_ab_closed(make_squeeze(r_a), make_squeeze(r_b), SeriesConfig(tail_tol=1e-10))
        assert smooth[r_a, r_b] == pytest.approx(direct, rel=1e-12, abs=0.0)


def test_grid_oracle_matches_loop_oracle():
    for r_a, r_b, n_max in ((1.0, 1.0, 40), (1.3, 0.4, 60), (0.7, 0.0, 30)):
        assert series_s_ab_grid(r_a, r_b, n_max) == pytest.approx(
            series_s_ab_oracle(r_a, r_b, n_max), rel=1e-13, abs=0.0
        )


@pytest.mark.parametrize(
    "r_a,r_b,cfg",
    [
        # omega'/omega = 150: tanh r_b = tanh^150 r_a, one long and one short axis
        (3.4, math.atanh(math.tanh(3.4) ** 150), SeriesConfig(tail_tol=1e-10)),
        (3.5, math.atanh(math.tanh(3.5) ** 150), SeriesConfig(tail_tol=1e-10)),
        # explicit cutoffs far beyond the decay length of both axes
        (0.5, 0.5, SeriesConfig(n_max=6001)),
        (1.0, 1.0, SeriesConfig(n_max=7000)),
        (2.0, 2.0, SeriesConfig(n_max=7000)),
    ],
    ids=["r3.4-ratio150", "r3.5-ratio150", "r0.5-n6001", "r1-n7000", "r2-n7000"],
)
def test_s_ab_short_decay_axis_matches_grid_sum(r_a, r_b, cfg):
    # the summation path follows each axis' decay length, not the cutoff
    sq_a, sq_b = make_squeeze(r_a), make_squeeze(r_b)
    n_max = resolve_cutoff(sq_a, sq_b, cfg)
    assert n_max > 6000
    assert s_ab_closed(sq_a, sq_b, cfg) == pytest.approx(series_s_ab_grid(r_a, r_b, n_max), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("r", [2.2, 2.4])
def test_s_ab_below_smooth_scale_matches_grid_sum(r):
    # decay lengths of 20 and 30.4 lattice steps, between HEAD_SCALE and
    # SMOOTH_SCALE: the first _JOINT_HEAD terms one by one, Euler-Maclaurin
    # after them
    sq = make_squeeze(r)
    assert _s_ab_head(math.log(sq.tanh_r**2)) == _JOINT_HEAD
    n_max = resolve_cutoff(sq, sq, SeriesConfig(tail_tol=1e-10))
    value = s_ab_closed(sq, sq, SeriesConfig(n_max=n_max))
    assert value == pytest.approx(series_s_ab_grid(r, r, n_max), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("r,head", [(1.72, None), (1.74, _JOINT_HEAD)])
def test_s_ab_around_head_scale_matches_grid_sum(r, head):
    # decay lengths of 7.8 and 8.1 lattice steps: term by term just below
    # HEAD_SCALE, the head path just above it
    sq = make_squeeze(r)
    assert _s_ab_head(math.log(sq.tanh_r**2)) == head
    n_max = resolve_cutoff(sq, sq, SeriesConfig(tail_tol=1e-10))
    value = s_ab_closed(sq, sq, SeriesConfig(n_max=n_max))
    assert value == pytest.approx(series_s_ab_grid(r, r, n_max), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("r", [2.45, 2.65])
def test_s_ab_above_smooth_scale_matches_grid_sum(r):
    # decay lengths of 33.6 and 50 lattice steps, just above SMOOTH_SCALE:
    # Euler-Maclaurin on both axes
    sq = make_squeeze(r)
    assert -math.log(sq.tanh_r**2) * SMOOTH_SCALE < 1.0
    n_max = resolve_cutoff(sq, sq, SeriesConfig(tail_tol=1e-10))
    value = s_ab_closed(sq, sq, SeriesConfig(n_max=n_max))
    assert value == pytest.approx(series_s_ab_grid(r, r, n_max), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("r_b", [3.5, 2.9])
@pytest.mark.parametrize("n_max", [1, 2, 5, 31, 32, 33, 64, 200])
def test_s_ab_explicit_cutoffs_on_euler_maclaurin_axes(r_b, n_max):
    # decay lengths 275 and 83: cutoffs far below, around and above SMOOTH_SCALE
    sq_a, sq_b = make_squeeze(3.5), make_squeeze(r_b)
    assert -math.log(sq_b.tanh_r**2) * SMOOTH_SCALE < 1.0
    value = s_ab_closed(sq_a, sq_b, SeriesConfig(n_max=n_max))
    assert value == pytest.approx(series_s_ab_grid(3.5, r_b, n_max), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("r_a,r_b", [(2.2, 2.2), (2.2, 1.9), (3.5, 2.2)])
@pytest.mark.parametrize("n_max", [1, 2, 5, 31, 32, 33, 64, 200])
def test_s_ab_explicit_cutoffs_on_head_path_axes(r_a, r_b, n_max):
    # decay lengths 20 and 11 are on the head path (r = 3.5 Euler-Maclaurin
    # from its first term): cutoffs inside the head, at its end, and past it
    assert _s_ab_head(math.log(math.tanh(r_b) ** 2)) == _JOINT_HEAD
    value = s_ab_closed(make_squeeze(r_a), make_squeeze(r_b), SeriesConfig(n_max=n_max))
    assert value == pytest.approx(series_s_ab_grid(r_a, r_b, n_max), rel=1e-12, abs=0.0)


def test_s_ab_euler_maclaurin_error_against_term_by_term(monkeypatch):
    # decay lengths L_a from SMOOTH_SCALE to 128, L_b / L_a from 1 to 0.05:
    # the worst error, 1.45e-14, is at L_a = L_b = 32
    def r_of(decay):
        return math.atanh(math.exp(-0.5 / decay))

    pairs = [(r_of(la), r_of(la * ratio)) for la in (32.01, 40, 48, 64, 96, 128) for ratio in (1.0, 0.7, 0.4, 0.2, 0.05)]
    assert all(-math.log(math.tanh(r_a) ** 2) * SMOOTH_SCALE < 1.0 for r_a, _ in pairs)
    cfg = SeriesConfig(tail_tol=1e-10)
    smooth = [s_ab_closed(make_squeeze(r_a), make_squeeze(r_b), cfg) for r_a, r_b in pairs]
    monkeypatch.setattr(closed_form, "HEAD_SCALE", math.inf)
    direct = [s_ab_closed(make_squeeze(r_a), make_squeeze(r_b), cfg) for r_a, r_b in pairs]
    assert max(abs(s - d) / d for s, d in zip(smooth, direct)) <= 2e-14


def test_s_ab_head_path_error_against_term_by_term(monkeypatch):
    # decay lengths L_a from HEAD_SCALE to SMOOTH_SCALE, L_b / L_a from 1 to
    # 0.05 (L_b under HEAD_SCALE is term by term): the worst error, 5.4e-16,
    # is at L_a = 8
    def r_of(decay):
        return math.atanh(math.exp(-0.5 / decay))

    pairs = [(r_of(la), r_of(la * ratio)) for la in (8.0, 10, 12, 16, 24, 31.99) for ratio in (1.0, 0.7, 0.4, 0.2, 0.05)]
    assert all(_s_ab_head(math.log(math.tanh(r_a) ** 2)) == _JOINT_HEAD for r_a, _ in pairs)
    assert HEAD_SCALE == 8.0
    cfg = SeriesConfig(tail_tol=1e-10)
    head = [s_ab_closed(make_squeeze(r_a), make_squeeze(r_b), cfg) for r_a, r_b in pairs]
    monkeypatch.setattr(closed_form, "HEAD_SCALE", math.inf)
    direct = [s_ab_closed(make_squeeze(r_a), make_squeeze(r_b), cfg) for r_a, r_b in pairs]
    assert max(abs(h - d) / d for h, d in zip(head, direct)) <= 1e-15


@pytest.mark.parametrize("r,n_max,block_cells", [(2.4, None, None), (3.5, 2000, 4096)])
def test_symmetric_grid_triangle(r, n_max, block_cells, monkeypatch):
    # lx == ly sums the upper triangle of the grid and one strip twice; one ulp
    # off, the full grid and both strips. r = 2.4 is on the head path, r = 3.5
    # Euler-Maclaurin from its first term, with row blocks of 31 rows there;
    # a symmetric grid's row blocks are at most 32 rows, so each grid has
    # row-block boundaries inside the triangle
    if block_cells is not None:
        monkeypatch.setattr(closed_form, "_BLOCK_CELLS", block_cells)
    sq = make_squeeze(r)
    n_max = n_max or resolve_cutoff(sq, sq, SeriesConfig(tail_tol=1e-10))
    lx = math.log(sq.tanh_r**2)
    c_inv = sq.cosh_r**-4
    nodes = _axis_rule(lx, n_max, _s_ab_head(lx))[0]
    assert nodes.size > 32
    ly = float(np.nextafter(lx, -math.inf))
    assert _s_ab_remainder(lx, lx, c_inv, n_max) == pytest.approx(_s_ab_remainder(lx, ly, c_inv, n_max), rel=1e-14)
    value = s_ab_closed(sq, sq, SeriesConfig(n_max=n_max))
    assert value == pytest.approx(series_s_ab_grid(r, r, n_max), rel=1e-12, abs=0.0)


def test_symmetric_grid_evaluates_about_half_its_cells(monkeypatch):
    # r = 4: 194 nodes a side; the triangle, with its diagonal blocks in
    # full, is 58% of the 194^2 cells, counted at np.log's input
    sq = make_squeeze(4.0)
    n_max = resolve_cutoff(sq, sq, SeriesConfig(tail_tol=1e-10))
    u, w = _axis_rule(math.log(sq.tanh_r**2), n_max)[:2]
    assert u.size == 194
    c_inv = sq.cosh_r**-4
    full = _grid(u + 1.0, w, u + 1.0, w, c_inv, False)
    cells = []
    log = np.log
    monkeypatch.setattr(np, "log", lambda z: cells.append(z.size) or log(z))
    triangle = _grid(u + 1.0, w, u + 1.0, w, c_inv, True)
    monkeypatch.undo()
    assert sum(cells) <= 0.6 * u.size**2
    assert triangle == pytest.approx(full, rel=1e-14)


@pytest.mark.parametrize(
    "x,n_max",
    [(0.0, 5), (0.3, 1), (0.3, 40), (0.9, 3), (0.9, 400), (0.9999, 5), (0.9999, 70_000), (0.9999, 200_000), (1.0, 7)],
)
def test_geometric_moments_match_term_sums(x, n_max):
    n = np.arange(n_max + 1, dtype=float)
    xn = x**n
    expected = (xn.sum(), n @ xn, (n + 1.0) @ xn, (n * (n + 1.0)) @ xn)
    np.testing.assert_allclose(_moments(x, n_max), expected, rtol=1e-13, atol=0.0)


def _h_of_product(s, t, c_inv):
    z = 1.0 + (s + 1.0) * (t + 1.0) * c_inv
    return z * math.log(z)


@pytest.mark.parametrize("s,t", [(0.0, 0.0), (3.5, 12.0), (40.0, 7.0)])
def test_mixed_partials_match_finite_differences(s, t):
    # D^{i,j} of h((s+1)(t+1)), h(w) = z ln z, z = 1 + w/C, for orders up to
    # 5 on each axis: one-axis orders from _strip, mixed ones from _corners,
    # each against a central difference of the order below it, already checked
    c_inv = 1.0 / 37.0
    step = 1e-3

    def unit(order):
        k = np.zeros((1, 6))
        k[0, order] = 1.0
        return k

    def d(i, j, ds=0.0, dt=0.0):
        u, v = np.array([s + ds]), np.array([t + dt])
        if i == 0:
            return float(_strip(u + 1.0, v, unit(j), c_inv)[0])
        if j == 0:
            return float(_strip(v + 1.0, u, unit(i), c_inv)[0])
        return _corners(u, unit(i), v, unit(j), c_inv)

    assert d(0, 0) == pytest.approx(_h_of_product(s, t, c_inv), rel=1e-14)
    assert _corners(np.array([s]), unit(0), np.array([t]), unit(0), c_inv) == pytest.approx(d(0, 0), rel=1e-14)
    for i in range(6):
        for j in range(6):
            if i:
                estimate = (d(i - 1, j, step) - d(i - 1, j, -step)) / (2.0 * step)
            elif j:
                estimate = (d(0, j - 1, 0.0, step) - d(0, j - 1, 0.0, -step)) / (2.0 * step)
            else:
                continue
            assert d(i, j) == pytest.approx(estimate, rel=1e-6), (i, j)


def test_h_derivatives_match_closed_form():
    # h^(m) of h(w) = z ln z, z = 1 + w/C: z ln z, (ln z + 1)/C, then
    # (-1)^m (m-2)! / (C^m z^(m-1)), each order on its own
    z = np.array([[1.5, 40.0], [1e3, 2.5e6]])
    c_inv = 1.0 / 37.0
    d = _h_derivatives(z, c_inv, 10)
    assert d.shape == (11, 2, 2)
    for zi in (1.5, 40.0, 1e3, 2.5e6):
        i = tuple(np.argwhere(z == zi)[0])
        expected = [zi * math.log(zi), (math.log(zi) + 1.0) * c_inv]
        expected += [(-1) ** m * math.factorial(m - 2) * c_inv**m / zi ** (m - 1) for m in range(2, 11)]
        np.testing.assert_allclose(d[(slice(None),) + i], expected, rtol=1e-14, atol=0.0)


def test_axis_rule_end_weights_are_leibniz_sums():
    # for g(n) = e^(a n), f = e^(n lx) g has f^(b) = (lx + a)^b f, so
    # sum_j k[e, j] a^j = -+e^(end lx) sum_b c_b (lx + a)^b
    lx, a = -0.02, 0.3
    _, _, ends, k = _axis_rule(lx, 500)
    lam = lx + a
    em = lam / 12.0 - lam**3 / 720.0 + lam**5 / 30240.0
    np.testing.assert_allclose(k @ a ** np.arange(6), np.array([-1.0, 1.0]) * np.exp(ends * lx) * em, rtol=1e-14)


@pytest.mark.parametrize("decay,n_max", [(32.01, 800), (100.0, 5000), (100.0, 3)])
def test_axis_rule_sums_geometric_series(decay, n_max):
    # g = 1: the rule's nodes and zeroth-order end weights sum e^(n lx)
    lx = -1.0 / decay
    nodes, weights, ends, k = _axis_rule(lx, n_max)
    assert ends is not None
    exact = -math.expm1((n_max + 1) * lx) / -math.expm1(lx)
    assert float(weights.sum() + k[:, 0].sum()) == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("hi,scale", [(1.0, 275.0), (7000.0, 275.0), (1_515_955.0, 33.6), (5000.0 - 64.0, 64.0)])
def test_panel_points_match_per_panel_loop(hi, scale):
    # the broadcast over panels gives the per-panel loop's nodes and weights bit for bit
    nodes, weights = _panel_points(hi, scale)
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(32)
    edges = [0.0]
    width, pos = max(scale, 1.0), 0.0
    while pos + width < hi:
        pos += width
        edges.append(pos)
        width *= 2.0
    edges.append(hi)
    pts, wts = [], []
    for lo, up in zip(edges[:-1], edges[1:]):
        half = 0.5 * (up - lo)
        pts.append(half * (gl_nodes + 1.0) + lo)
        wts.append(half * gl_weights)
    assert np.array_equal(nodes, np.concatenate(pts))
    assert np.array_equal(weights, np.concatenate(wts))


def test_s_ab_closed_needs_no_sympy():
    # a cutoff beyond 1e5 takes the Euler-Maclaurin path with sympy blocked
    code = (
        "import sys; sys.modules['sympy'] = None\n"
        "from hawkpair import SeriesConfig, make_squeeze, resolve_cutoff, s_ab_closed\n"
        "sq = make_squeeze(5.0); cfg = SeriesConfig(tail_tol=1e-10)\n"
        "assert resolve_cutoff(sq, sq, cfg) > 100_000\n"
        "print(repr(s_ab_closed(sq, sq, cfg)))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    sq = make_squeeze(5.0)
    assert float(res.stdout) == s_ab_closed(sq, sq, SeriesConfig(tail_tol=1e-10))


def test_s_ab_asymmetric_parameters():
    cfg = SeriesConfig(n_max=50)
    v = s_ab_closed(make_squeeze(1.0), make_squeeze(0.5), cfg)
    assert v == pytest.approx(series_s_ab_oracle(1.0, 0.5, 50), abs=1e-11)
    # symmetric under exchange
    assert v == pytest.approx(s_ab_closed(make_squeeze(0.5), make_squeeze(1.0), cfg), abs=1e-12)


def test_mutual_info_closed_identity_and_value():
    cfg = SeriesConfig(tail_tol=1e-12)
    sq = make_squeeze(1.0)
    lhs = mutual_info_closed(sq, sq, cfg)
    assert lhs == s_a_closed(sq, cfg) + s_b_closed(sq, cfg) - s_ab_closed(sq, sq, cfg)
    # independent transcription of the five-term expanded form
    n_max = resolve_cutoff(sq, sq, cfg)
    expanded = 2.0 * series_s_a_oracle(1.0, 2 * n_max) - series_s_ab_oracle(1.0, 1.0, n_max)
    assert lhs == pytest.approx(expanded, abs=1e-9)


def test_mutual_info_closed_zero_squeezing():
    assert mutual_info_closed(make_squeeze(0.0), make_squeeze(0.0), SeriesConfig(tail_tol=1e-10)) == 2.0


# --------------------------------------------------------------------- cutoff


def test_resolve_cutoff_zero_squeezing():
    assert resolve_cutoff(make_squeeze(0.0), make_squeeze(0.0), SeriesConfig(tail_tol=1e-12)) == 1


def test_resolve_cutoff_explicit():
    assert resolve_cutoff(make_squeeze(1.0), make_squeeze(1.0), SeriesConfig(n_max=17)) == 17


def test_series_config_takes_any_integer_cutoff_as_int():
    cfg = SeriesConfig(n_max=np.int64(5))
    assert cfg.n_max == 5 and type(cfg.n_max) is int
    assert type(SeriesConfig(n_max=np.uint16(7)).n_max) is int


@pytest.mark.parametrize("n_max", [5.5, 5.0, np.float64(5.0), "5", True, np.bool_(True)])
def test_series_config_refuses_non_integer_cutoff(n_max):
    # 5.5 matches no real cutoff; a float, a string or a bool is refused whatever its value
    with pytest.raises(ValueError, match="n_max must be an integer"):
        SeriesConfig(n_max=n_max)


def test_resolve_cutoff_minimal_satisfying():
    tol = 1e-12
    sq = make_squeeze(1.0)
    n = resolve_cutoff(sq, sq, SeriesConfig(tail_tol=tol))
    x = sq.tanh_r**2

    def ok(m):
        return x ** (m + 1) < tol and (m + 2) * x ** (m + 1) < tol

    assert ok(n)
    assert not ok(n - 1)
    assert 50 <= n <= 65


def test_resolve_cutoff_remainder_actually_small():
    tol = 1e-10
    sq = make_squeeze(3.0)
    n = resolve_cutoff(sq, sq, SeriesConfig(tail_tol=tol))
    x = sq.tanh_r**2
    m = np.arange(n + 1, 3 * n + 1, dtype=float)
    assert float(np.sum(x**m)) * (1.0 - x) < tol  # normalized geometric remainder
    assert float(np.sum((m + 1) * x**m)) * (1.0 - x) ** 2 < tol


def test_resolve_cutoff_cap_exceeded():
    with pytest.raises(ConvergenceError):
        resolve_cutoff(make_squeeze(7.0), make_squeeze(7.0), SeriesConfig(tail_tol=1e-10))


def test_resolve_cutoff_saturated_tanh():
    # tanh r == 1.0 in floating point for r >~ 19.07: log(tanh^2 r) is 0
    sq = make_squeeze(20.0)
    assert sq.tanh_r == 1.0
    with pytest.raises(ConvergenceError, match="rounds to 1"):
        resolve_cutoff(sq, make_squeeze(0.5), SeriesConfig(tail_tol=1e-10))


def test_series_config_validation():
    with pytest.raises(ValueError):
        SeriesConfig()
    with pytest.raises(ValueError):
        SeriesConfig(n_max=10, tail_tol=1e-10)
    with pytest.raises(ValueError):
        SeriesConfig(n_max=0)
    # an explicit cutoff obeys the same cap as a resolved one, before any allocation
    assert SeriesConfig(n_max=HARD_SERIES_CAP).n_max == HARD_SERIES_CAP
    with pytest.raises(ValueError, match="n_max"):
        SeriesConfig(n_max=HARD_SERIES_CAP + 1)
    with pytest.raises(ValueError):
        SeriesConfig(tail_tol=0.0)
