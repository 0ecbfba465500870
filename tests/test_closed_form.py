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
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from brute_force import (
    OUT_PAIR,
    decimal_tanh2,
    mode_amplitudes,
    pair_state,
    partial_transpose,
    reduce,
    within_last_digit,
)

from hawkpair import closed_form, kinematics
from hawkpair.closed_form import (
    HARD_SERIES_CAP,
    HEAD_SCALE,
    SMOOTH_SCALE,
    ConvergenceError,
    SeriesConfig,
    _axis_plan,
    _axis_rule,
    _END_WEIGHTS,
    _GL_NODES,
    _GL_WEIGHTS,
    _grid,
    _JOINT_HEAD,
    _layout,
    _moments,
    _panel_edges,
    _panel_points,
    _s_ab_head,
    _s_ab_remainder,
    _STENCIL,
    closed_columns,
    e_n_paper,
    mutual_info_closed,
    resolve_cutoff,
    s_a_closed,
    s_ab_closed,
    s_b_closed,
)
from hawkpair.kinematics import make_squeeze

# joint-series axes of decay lengths 4 (term by term), 20 (head path) and 100
# (Euler-Maclaurin from the first term), at cutoffs 300, 600 and 3000: a
# remainder call over them batches all three paths
MIXED_LX = (-0.25, -0.05, -0.01)
MIXED_N = (300, 600, 3000)

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


def joint_rule(lx, n_max):
    """_axis_rule of a batch of joint-series axes, with the head each takes;
    the axes share one layout, as in a batch of _s_ab_remainder's."""
    plans = [_axis_plan(v, int(n), _s_ab_head(v)) for v, n in zip(lx, n_max)]
    assert len(set(map(_layout, plans))) == 1
    return _axis_rule(plans)


def same_layout_axes(lx, n_max):
    """The axis (lx, n_max) and those of decay lengths 0.1% and 1% longer at
    cutoffs n_max and n_max - 1 that share its layout (at least two)."""
    axes = [(lx, n_max)] + [(lx / f, n) for f in (1.001, 1.01) for n in (n_max, n_max - 1) if n >= 1]
    layout = _layout(_axis_plan(lx, n_max, _s_ab_head(lx)))
    axes = [(v, n) for v, n in axes if _layout(_axis_plan(v, n, _s_ab_head(v))) == layout]
    assert len(axes) >= 3
    return np.array([v for v, _ in axes]), np.array([n for _, n in axes])


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


@pytest.mark.parametrize("r", [0.05, 1.72, 1.74, 2.4, 2.45, 2.7, 2.77, 2.78, 2.85, 4.0, 5.25, 6.0])
def test_s_a_closed_matches_plain_sum_at_resolved_cutoff(r):
    # decay lengths 1/(-ln tanh^2 r) up to 7.8 (r = 1.72: term by term) and
    # of 8.1 and up (Euler-Maclaurin after a head of _JOINT_HEAD terms)
    sq = make_squeeze(r)
    cfg = SeriesConfig(tail_tol=1e-10)
    assert s_a_closed(sq, cfg) == pytest.approx(series_s_a_sum(r, resolve_cutoff(sq, sq, cfg)), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("n_max", [1, 40, 61, 62, 63, 64, 65, 92, 93, 100, 5000])
def test_s_a_closed_matches_plain_sum_around_the_head(n_max):
    # r = 3.5 (decay length 275) is on the Euler-Maclaurin path; a cutoff
    # with fewer than 2 _STENCIL terms past the head of 32 (N < 61) is summed
    # term by term, 61 leaves the two end stencils and no lattice node between
    sq = make_squeeze(3.5)
    assert -math.log(sq.tanh_r**2) * SMOOTH_SCALE < 1.0
    assert _JOINT_HEAD + 2 * _STENCIL == 62
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
    # of 65.0 to 150 lattice steps) and, with HEAD_SCALE raised, term by term;
    # the pairs from (2.78, 2.78) on have a smaller decay length in [64, 75),
    # and (3.2, 2.77) pairs one with a head-path axis (63.7)
    pairs = [(2.85, 2.85), (3.2, 3.2), (3.2, 2.9), (3.1, 1.0), (2.78, 2.78), (2.8, 2.8), (2.85, 2.78), (3.2, 2.77)]
    smooth = {}
    for r_a, r_b in pairs:
        sq_a, sq_b = make_squeeze(r_a), make_squeeze(r_b)
        assert -math.log(sq_a.tanh_r**2) * SMOOTH_SCALE < 1.0
        smooth[r_a, r_b] = s_ab_closed(sq_a, sq_b, SeriesConfig(tail_tol=1e-10))
    monkeypatch.setattr(closed_form, "HEAD_SCALE", math.inf)
    for r_a, r_b in pairs:
        direct = s_ab_closed(make_squeeze(r_a), make_squeeze(r_b), SeriesConfig(tail_tol=1e-10))
        assert smooth[r_a, r_b] == pytest.approx(direct, rel=1e-15, abs=0.0)


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


@pytest.mark.parametrize("r", [2.2, 2.4, 2.77])
def test_s_ab_below_smooth_scale_matches_grid_sum(r):
    # decay lengths of 20, 30.4 and 63.7 lattice steps, between HEAD_SCALE and
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
    # HEAD_SCALE (an infinite head), the head path just above it
    sq = make_squeeze(r)
    assert _s_ab_head(math.log(sq.tanh_r**2)) == (math.inf if head is None else head)
    n_max = resolve_cutoff(sq, sq, SeriesConfig(tail_tol=1e-10))
    value = s_ab_closed(sq, sq, SeriesConfig(n_max=n_max))
    assert value == pytest.approx(series_s_ab_grid(r, r, n_max), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("r", [2.78, 2.85])
def test_s_ab_above_smooth_scale_matches_grid_sum(r):
    # decay lengths of 65.0 and 74.7 lattice steps, just above SMOOTH_SCALE:
    # Euler-Maclaurin on both axes
    sq = make_squeeze(r)
    assert -math.log(sq.tanh_r**2) * SMOOTH_SCALE < 1.0
    n_max = resolve_cutoff(sq, sq, SeriesConfig(tail_tol=1e-10))
    value = s_ab_closed(sq, sq, SeriesConfig(n_max=n_max))
    assert value == pytest.approx(series_s_ab_grid(r, r, n_max), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("r_b", [3.5, 2.9])
@pytest.mark.parametrize("n_max", [1, 2, 5, 28, 29, 31, 32, 33, 64, 200])
def test_s_ab_explicit_cutoffs_on_euler_maclaurin_axes(r_b, n_max):
    # decay lengths 275 and 83: cutoffs far below, around and above SMOOTH_SCALE;
    # under 2 _STENCIL terms (N <= 28) the axes are summed term by term
    sq_a, sq_b = make_squeeze(3.5), make_squeeze(r_b)
    assert -math.log(sq_b.tanh_r**2) * SMOOTH_SCALE < 1.0
    value = s_ab_closed(sq_a, sq_b, SeriesConfig(n_max=n_max))
    assert value == pytest.approx(series_s_ab_grid(3.5, r_b, n_max), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("r_a,r_b", [(2.2, 2.2), (2.2, 1.9), (3.5, 2.2)])
@pytest.mark.parametrize("n_max", [1, 2, 5, 31, 32, 33, 60, 61, 64, 200])
def test_s_ab_explicit_cutoffs_on_head_path_axes(r_a, r_b, n_max):
    # decay lengths 20 and 11 are on the head path (r = 3.5 Euler-Maclaurin
    # from its first term): cutoffs inside the head, at its end, and past it;
    # with under 2 _STENCIL terms past the head (N <= 60) the axis is summed
    # term by term
    assert _s_ab_head(math.log(math.tanh(r_b) ** 2)) == _JOINT_HEAD
    value = s_ab_closed(make_squeeze(r_a), make_squeeze(r_b), SeriesConfig(n_max=n_max))
    assert value == pytest.approx(series_s_ab_grid(r_a, r_b, n_max), rel=1e-12, abs=0.0)


def test_s_ab_euler_maclaurin_error_against_term_by_term(monkeypatch):
    # decay lengths L_a from SMOOTH_SCALE to 256, L_b / L_a from 1 to 0.05:
    # the worst error, 3.3e-16, is at L_a = L_b = 64
    def r_of(decay):
        return math.atanh(math.exp(-0.5 / decay))

    pairs = [(r_of(la), r_of(la * ratio)) for la in (64.01, 80, 96, 128, 192, 256) for ratio in (1.0, 0.7, 0.4, 0.2, 0.05)]
    assert all(-math.log(math.tanh(r_a) ** 2) * SMOOTH_SCALE < 1.0 for r_a, _ in pairs)
    cfg = SeriesConfig(tail_tol=1e-10)
    smooth = [s_ab_closed(make_squeeze(r_a), make_squeeze(r_b), cfg) for r_a, r_b in pairs]
    monkeypatch.setattr(closed_form, "HEAD_SCALE", math.inf)
    direct = [s_ab_closed(make_squeeze(r_a), make_squeeze(r_b), cfg) for r_a, r_b in pairs]
    assert max(abs(s - d) / d for s, d in zip(smooth, direct)) <= 1e-15


def test_s_ab_head_path_error_against_term_by_term(monkeypatch):
    # decay lengths L_a from HEAD_SCALE to SMOOTH_SCALE, L_b / L_a from 1 to
    # 0.05 (L_b under HEAD_SCALE is term by term): the worst error is 1.7e-16
    def r_of(decay):
        return math.atanh(math.exp(-0.5 / decay))

    pairs = [(r_of(la), r_of(la * ratio)) for la in (8.0, 12, 16, 24, 32, 48, 63.99) for ratio in (1.0, 0.7, 0.4, 0.2, 0.05)]
    assert all(_s_ab_head(math.log(math.tanh(r_a) ** 2)) == _JOINT_HEAD for r_a, _ in pairs)
    assert HEAD_SCALE == 8.0
    cfg = SeriesConfig(tail_tol=1e-10)
    head = [s_ab_closed(make_squeeze(r_a), make_squeeze(r_b), cfg) for r_a, r_b in pairs]
    monkeypatch.setattr(closed_form, "HEAD_SCALE", math.inf)
    direct = [s_ab_closed(make_squeeze(r_a), make_squeeze(r_b), cfg) for r_a, r_b in pairs]
    assert max(abs(h - d) / d for h, d in zip(head, direct)) <= 1e-15


def test_panel_rule_matches_32_nodes_at_large_decay_lengths(monkeypatch):
    # r = 3..6 (decay lengths 100..4e4, cutoffs up to 1.5e6, where the
    # term-by-term sums are out of reach), r_b / r_a from 1 to 0.6: the
    # 16-node panel rule agrees with a 32-node one within 2.9e-16 (s_ab) and
    # 3.5e-16 (s_a); 12 nodes are off by 5.5e-14
    pairs = [(r_a, r_a * ratio) for r_a in (3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0) for ratio in (1.0, 0.9, 0.8, 0.7, 0.6)]
    cfg = SeriesConfig(tail_tol=1e-10)

    def sums():
        return [
            (s_ab_closed(make_squeeze(r_a), make_squeeze(r_b), cfg), s_a_closed(make_squeeze(r_a), cfg))
            for r_a, r_b in pairs
        ]

    rule = sums()
    nodes, weights = np.polynomial.legendre.leggauss(32)
    for name, value in (("_GL_NODES", nodes), ("_GL_WEIGHTS", weights), ("_GL_SPANS", nodes + 1.0), ("_PAD", 32)):
        monkeypatch.setattr(closed_form, name, value)
    np.testing.assert_allclose(rule, sums(), rtol=1e-15, atol=0.0)


def test_gauss_legendre_table_is_the_16_point_rule():
    # the written-out nodes and weights are leggauss(16) to 2 ulp; the weights
    # sum to 2, and the rule integrates x^d over [-1, 1] exactly up to d = 31
    # (to rounding: x^32 is off by 7.2e-10)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    for got, want in ((_GL_NODES, nodes), (_GL_WEIGHTS, weights)):
        assert got.shape == (16,)
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
    assert math.fsum(_GL_WEIGHTS) == pytest.approx(2.0, rel=0, abs=4e-16)
    for d in range(32):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert math.fsum(_GL_WEIGHTS * _GL_NODES**d) == pytest.approx(exact, rel=0, abs=1e-15), d


def test_import_leaves_numpy_polynomial_unloaded():
    code = "import sys, hawkpair.cli; print('numpy.polynomial' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


@pytest.mark.parametrize("r,n_max,block_cells", [(2.4, None, None), (3.5, 2000, 4096)])
def test_symmetric_grid_triangle(r, n_max, block_cells, monkeypatch):
    # lx == ly sums the upper triangle of the grid; one ulp off, the full
    # grid, for the point and the mixed axes in one batch. r = 2.4 is on the
    # head path, r = 3.5 (94 nodes at N = 2000) Euler-Maclaurin from its
    # first term, where chunks of half the budget (kinematics._CHUNK_CELLS =
    # 4096) take one point per call and the full grid 43-row blocks; a
    # symmetric grid's row blocks are 16 rows, so each grid has row-block
    # boundaries inside the triangle
    if block_cells is not None:
        monkeypatch.setattr(kinematics, "_CHUNK_CELLS", block_cells)
    sq = make_squeeze(r)
    n_max = n_max or resolve_cutoff(sq, sq, SeriesConfig(tail_tol=1e-10))
    lx = [math.log(sq.tanh_r**2), *MIXED_LX]
    n = [n_max, *MIXED_N]
    c_inv = [sq.cosh_r**-4, 0.5, 0.01, 1e-4]
    assert joint_rule(lx[:1], n[:1])[0].shape[1] > 32
    ly = np.nextafter(lx, -math.inf).tolist()
    np.testing.assert_allclose(_s_ab_remainder(lx, lx, c_inv, n), _s_ab_remainder(lx, ly, c_inv, n), rtol=1e-14)
    value = s_ab_closed(sq, sq, SeriesConfig(n_max=n_max))
    assert value == pytest.approx(series_s_ab_grid(r, r, n_max), rel=1e-12, abs=0.0)


def test_symmetric_grid_evaluates_about_half_its_cells(monkeypatch):
    # r = 4: 126 nodes a side; the triangle, with its diagonal blocks in
    # full, is 53% of the 126^2 cells, counted at np.log's input. Axes of
    # slightly longer decay lengths and the same layout share the batch
    sq = make_squeeze(4.0)
    n_max = resolve_cutoff(sq, sq, SeriesConfig(tail_tol=1e-10))
    lx, n = same_layout_axes(math.log(sq.tanh_r**2), n_max)
    u, w = joint_rule(lx, n)
    assert u.shape[1] == 126
    c_inv = sq.cosh_r**-4 * np.geomspace(1.0, 1e4, len(lx))
    full = _grid(u + 1.0, w, u + 1.0, w, c_inv, False)
    cells = []
    log = np.log
    monkeypatch.setattr(np, "log", lambda z: cells.append(z.size) or log(z))
    triangle = _grid(u + 1.0, w, u + 1.0, w, c_inv, True)
    monkeypatch.undo()
    assert sum(cells) <= 0.6 * u.size * u.shape[1]
    np.testing.assert_allclose(triangle, full, rtol=1e-14)


@pytest.mark.parametrize(
    "x,n_max",
    [(0.0, 5), (0.3, 1), (0.3, 40), (0.9, 3), (0.9, 400), (0.9999, 5), (0.9999, 70_000), (0.9999, 200_000), (1.0, 7)],
)
def test_geometric_moments_match_term_sums(x, n_max):
    n = np.arange(n_max + 1, dtype=float)
    xn = x**n
    expected = (xn.sum(), n @ xn, (n + 1.0) @ xn, (n * (n + 1.0)) @ xn)
    np.testing.assert_allclose(_moments(x, n_max), expected, rtol=1e-13, atol=0.0)


def _bernoulli(count):
    """B_0..B_(count-1) as fractions, from sum_{j<m+1} C(m+1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, count):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def test_end_weights_are_exact_gregory_weights():
    # the weights w_i on the nodes h..h+14 for which sum_i w_i p(h+i) is the
    # Euler-Maclaurin end functional p(h)/2 - sum_k B_2k/(2k)! p^(2k-1)(h) for
    # every p of degree <= 14: at h = 0 and p = n^m that is 1/2 (m = 0),
    # -B_(m+1)/(m+1) (m odd) or 0; the Vandermonde system solved in fractions
    b = _bernoulli(_STENCIL + 1)
    rhs = [Fraction(1, 2)] + [-b[m + 1] / (m + 1) if m % 2 else Fraction(0) for m in range(1, _STENCIL)]
    rows = [[Fraction(i**m) for i in range(_STENCIL)] + [rhs[m]] for m in range(_STENCIL)]
    for col in range(_STENCIL):
        pivot = next(r for r in range(col, _STENCIL) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(_STENCIL):
            if r != col and rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    exact = [rows[i][-1] / rows[i][i] for i in range(_STENCIL)]
    assert _STENCIL == 15 and _END_WEIGHTS.shape == (_STENCIL,)
    np.testing.assert_allclose(_END_WEIGHTS, [float(w) for w in exact], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("head", [0, _JOINT_HEAD])
@pytest.mark.parametrize("n_max", [29, 61, 100, 5000])
def test_axis_rule_sums_polynomials_exactly(head, n_max):
    # with x = 1 the summand is the polynomial itself: the panels integrate
    # it exactly and Gregory's end weights are exact up to degree 14 (a
    # Chebyshev series on [0, N], whose high derivatives are large enough
    # that weights exact only to degree 13 miss by up to 7e-6); with
    # x = e^-0.01 (decay length 100) the product with a cubic is summed to
    # rounding, here 1e-14 of the sum of the terms' sizes (the series cancel).
    # Cutoffs with under 2 _STENCIL terms past the head are summed term by term
    rng = np.random.default_rng(n_max + head)
    for lx, degree in ((0.0, 14), (-0.01, 3)):
        plan = _axis_plan(lx, n_max, head)
        assert bool(plan[4]) == (n_max + 1 - head >= 2 * _STENCIL)
        nodes, weights = _axis_rule([plan])
        coef = rng.uniform(0.5, 1.5, degree + 1)

        def p(n):
            return np.polynomial.chebyshev.chebval(2.0 * n / n_max - 1.0, coef)

        n = np.arange(n_max + 1, dtype=float)
        terms = np.exp(n * lx) * p(n)
        size = math.fsum(np.abs(terms))
        assert float(weights[0] @ p(nodes[0])) == pytest.approx(math.fsum(terms), rel=0.0, abs=1e-14 * size)


@pytest.mark.parametrize("decay,n_max", [(32.01, 800), (64.01, 800), (100.0, 5000), (100.0, 29), (100.0, 3)])
def test_axis_rule_sums_geometric_series(decay, n_max):
    # g = 1: each axis' weights sum e^(n lx), the point's (on the head path,
    # or Euler-Maclaurin from its first term unless its cutoff is under
    # 2 _STENCIL terms) and those of its layout in one batch
    lx, n = same_layout_axes(-1.0 / decay, n_max)
    assert _axis_plan(lx[0], n_max, _s_ab_head(lx[0]))[4] or n_max < 2 * _STENCIL
    nodes, weights = joint_rule(lx, n)
    exact = -np.expm1((n + 1.0) * lx) / -np.expm1(lx)
    np.testing.assert_allclose(weights.sum(axis=1), exact, rtol=1e-14)


@pytest.mark.parametrize("hi,scale", [(1.0, 275.0), (7000.0, 275.0), (1_515_955.0, 33.6), (5000.0 - 64.0, 64.0)])
def test_panel_points_match_per_panel_loop(hi, scale):
    # the broadcast over panels gives the per-panel loop's nodes and weights
    # bit for bit, each axis of a batch on its own panels (_panel_edges); the
    # batch shares one panel count, as _axis_rule's do: the case, the case
    # stretched by 0.1%, and its range alone stretched by 0.1%
    cases = [(hi, scale), (1.001 * hi, 1.001 * scale), (1.001 * hi, scale)]

    def loop(hi, scale):
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
            pts.append(half * (_GL_NODES + 1.0) + lo)
            wts.append(half * _GL_WEIGHTS)
        return np.concatenate(pts), np.concatenate(wts)

    edges = [_panel_edges(h, w) for h, w in cases]
    assert len({len(e) for e in edges}) == 1
    nodes, weights = _panel_points(np.array(edges))
    for row, case in enumerate(cases):
        want_nodes, want_weights = loop(*case)
        assert np.array_equal(nodes[row], want_nodes), case
        assert np.array_equal(weights[row], want_weights), case


def test_closed_form_values_do_not_depend_on_the_batch():
    # one call over points on every per-axis path, symmetric and not, at
    # resolved and explicit cutoffs, gives each point exactly what it gets
    # alone: each batch shares one node layout and no sum spans two points
    rs = [0.0, 1e-160] + [0.05 + 5.5 * k / 96 for k in range(97)]
    cfg = SeriesConfig(tail_tol=1e-10)
    marginals = [(make_squeeze(r), resolve_cutoff(make_squeeze(r), make_squeeze(r), cfg)) for r in rs]
    marginals += [(sq, n) for sq, _ in marginals[::7] for n in (1, 31, 33, 200, 5000)]
    joints = [(sq, sq, n) for sq, n in marginals]
    joints += [(a, b, max(n, m)) for (a, n), (b, m) in zip(marginals[::3], marginals[5::3])]
    s, s_ab = closed_form.closed_form(marginals, joints)
    assert s == [closed_form.closed_form([point], [])[0][0] for point in marginals]
    assert s_ab == [closed_form.closed_form([], [point])[1][0] for point in joints]
    # the closed columns too, asymmetric points taking their side cutoffs
    assert closed_columns(joints, cfg) == [closed_columns([point], cfg)[0] for point in joints]


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


# symmetric and asymmetric, r = 0, and r >= 3 (Euler-Maclaurin axes)
COLUMN_PAIRS = [
    (0.0, 0.0), (0.0, 0.7), (1.0, 1.0), (1.0, 0.5), (0.5, 1.0), (1.65, 0.8),
    (3.0, 3.0), (3.5, 2.2), (2.2, 6.0), (6.0, 6.0), (4.0, 0.0),
]


@pytest.mark.parametrize(
    "cfg", [SeriesConfig(tail_tol=1e-10), SeriesConfig(n_max=40), SeriesConfig(n_max=5000)], ids=str
)
def test_closed_columns_match_single_point_functions(cfg):
    sqs = [(make_squeeze(a), make_squeeze(b)) for a, b in COLUMN_PAIRS]
    columns = closed_columns([(a, b, resolve_cutoff(a, b, cfg)) for a, b in sqs], cfg)
    for (a, b), col in zip(sqs, columns):
        s_a, s_b, s_ab = s_a_closed(a, cfg), s_b_closed(b, cfg), s_ab_closed(a, b, cfg)
        assert col["e_n_block00"] == e_n_paper(a, b)
        assert (col["s_a_closed"], col["s_b_closed"], col["s_ab_closed"]) == (s_a, s_b, s_ab)
        assert col["i_closed"] == mutual_info_closed(a, b, cfg) == s_a + s_b - s_ab


def decimal_trace_deficit(r_a, r_b, n_max):
    """1 - sum_{n,q<=N} P_nq = (X + Y - XY)/2 + (A + B - AB)/2 with X = x^(N+1),
    A = x^(N+1) (1 + (N+1)(1 - x)), x = tanh^2 r_a, and Y, B likewise, in 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        tails = []
        for r in (r_a, r_b):
            x = decimal_tanh2(r)
            xk = ((n_max + 1) * x.ln()).exp() if r else Decimal(0)
            tails.append((xk, xk * (1 + (n_max + 1) * (1 - x))))
        (x, a), (y, b) = tails
        return (x + y - x * y) / 2 + (a + b - a * b) / 2


def decimal_joint_deficit(r_a, r_b, n_max):
    """1 - sum_{n,q=0..N} P_nq term by term in 60 digits,
    P_nq = x^n y^q / (2C) (1 + (n+1)(q+1)/C), 1/C = (1 - x)(1 - y)."""
    with localcontext() as ctx:
        ctx.prec = 60
        x, y = decimal_tanh2(r_a), decimal_tanh2(r_b)
        c_inv = (1 - x) * (1 - y)
        total = sum(
            x**n * y**q * c_inv / 2 * (1 + (n + 1) * (q + 1) * c_inv) for n in range(n_max + 1) for q in range(n_max + 1)
        )
        return 1 - total


# fig3's grid points r = 0.05, 1, 1.65, 3 and 6, and two asymmetric points
@pytest.mark.parametrize("r_a,r_b", [(k * 6.0 / 120, None) for k in (1, 20, 33, 60, 120)] + [(1.0, 0.5), (0.8, 3.0)])
def test_closed_trace_deficit_is_right_to_its_printed_digits(r_a, r_b):
    cfg = SeriesConfig(tail_tol=1e-10)
    a = make_squeeze(r_a)
    b = a if r_b is None else make_squeeze(r_b)
    n_max = resolve_cutoff(a, b, cfg)
    value = closed_columns([(a, b, n_max)], cfg)[0]["trace_deficit"]
    assert within_last_digit(value, decimal_trace_deficit(a.r, b.r, n_max))


@pytest.mark.parametrize("r_a,r_b", [(1.0, 1.0), (1.3, 0.55)])
def test_closed_trace_deficit_is_what_the_joint_series_leaves_out(r_a, r_b):
    # the direct sum of P_nq over n, q <= 12; at r = 1 that leaves out
    # 6.2587e-3, where the vacuum family alone, 1 - (1 - X)(1 - Y), leaves 1.68e-3
    a, b = make_squeeze(r_a), make_squeeze(r_b)
    direct = decimal_joint_deficit(r_a, r_b, 12)
    assert abs(decimal_trace_deficit(r_a, r_b, 12) - direct) < Decimal(10) ** -50
    assert within_last_digit(closed_columns([(a, b, 12)], SeriesConfig(n_max=12))[0]["trace_deficit"], direct)
    if r_a == r_b:
        assert f"{direct:.4e}" == "6.2587e-3"


@pytest.mark.parametrize("r", [0.0, 1e-17, 1e-300])
def test_closed_trace_deficit_at_tiny_r(r):
    # 2 / expm1(2r) is inf or huge here; log1p(-1) would raise
    cfg = SeriesConfig(tail_tol=1e-10)
    sq = make_squeeze(r)
    deficits = [col["trace_deficit"] for col in closed_columns([(sq, sq, 1), (make_squeeze(0.0), sq, 1)], cfg)]
    want = [float(decimal_trace_deficit(r, r, 1)), float(decimal_trace_deficit(0.0, r, 1))]
    assert deficits == pytest.approx(want, rel=1e-14, abs=0.0)


def decimal_closed_columns(r_a, r_b, n_max):
    """e_n_block00, s_a, s_b, s_ab and i of the paper's series summed term by term
    over n, q = 0..N in 40 digits: p_n = x^n / c^2 and p'_n = (n+1) x^n / c^4 with
    1/c^2 = 1 - x, x = tanh^2 r, and P_nq = x^n y^q / (2C) (1 + (n+1)(q+1)/C)."""
    with localcontext() as ctx:
        ctx.prec = 40
        ln2 = Decimal(2).ln()

        def plogp(p):
            return p * p.ln() / ln2 if p else Decimal(0)

        def cosh(r):
            e = Decimal(r).exp()
            return (e + 1 / e) / 2

        def marginal(x):
            return 1 - sum(plogp(x**n * (1 - x)) + plogp((n + 1) * x**n * (1 - x) ** 2) for n in range(n_max + 1)) / 2

        x, y = decimal_tanh2(r_a), decimal_tanh2(r_b)
        c_inv = (1 - x) * (1 - y)
        s_a, s_b = marginal(x), marginal(y)
        s_ab = -sum(
            plogp(x**n * y**q * c_inv / 2 * (1 + (n + 1) * (q + 1) * c_inv))
            for n in range(n_max + 1)
            for q in range(n_max + 1)
        )
        return dict(
            e_n_block00=1 / (cosh(r_a) * cosh(r_b)), s_a_closed=s_a, s_b_closed=s_b, s_ab_closed=s_ab,
            i_closed=s_a + s_b - s_ab,
        )


# symmetric fig3 points r = 0.05 and 1 at their resolved cutoffs; r = 1.65, 3
# and 6 at explicit cutoffs (the joint series' Euler-Maclaurin path runs at 3
# and 6); and r_a = 1 with tanh r_b = tanh^2 1
@pytest.mark.parametrize(
    "r_a,r_b,n_max,explicit",
    [
        (0.05, 0.05, 4, False),
        (1.0, 1.0, 49, False),
        (1.65, 1.65, 40, True),
        (3.0, 3.0, 40, True),
        (6.0, 6.0, 30, True),
        (1.0, math.atanh(math.tanh(1.0) ** 2), 30, True),
    ],
)
def test_closed_columns_are_right_to_their_printed_digits(r_a, r_b, n_max, explicit):
    cfg = SeriesConfig(n_max=n_max) if explicit else SeriesConfig(tail_tol=1e-10)
    a, b = make_squeeze(r_a), make_squeeze(r_b)
    assert resolve_cutoff(a, b, cfg) == resolve_cutoff(b, b, cfg) == n_max
    columns = closed_columns([(a, b, n_max)], cfg)[0]
    exact = decimal_closed_columns(a.r, b.r, n_max)
    for name, want in exact.items():
        assert within_last_digit(columns[name], want), (name, columns[name], want)


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
