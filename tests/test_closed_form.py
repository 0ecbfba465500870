"""Tests for the analytic block and series expressions.

Independent oracles: plain-Python running-product summation for the series,
the density engine's eigensolver for block spectra, and doubled-cutoff
re-evaluation for truncation control.
"""

import math

import numpy as np
import pytest

from hawkpair.closed_form import (
    DIRECT_GRID_CAP,
    HARD_SERIES_CAP,
    SeriesConfig,
    _s_ab_direct,
    _s_ab_smooth,
    block_a,
    block_matrix,
    block_pt_eigenvalues,
    block_weight,
    e_n_paper,
    mutual_info_closed,
    resolve_cutoff,
    s_a_closed,
    s_ab_closed,
    s_b_closed,
)
from hawkpair.density import ConvergenceError, DensityMatrix, eig_symmetric, partial_transpose
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


# ------------------------------------------------------------------- blocks


def test_block_matrix_bell_block():
    sq0 = make_squeeze(0.0)
    m = block_matrix(0, 0, sq0, sq0)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    np.testing.assert_allclose(m, expected, atol=1e-15)


def test_block_matrix_rank_one():
    sq = make_squeeze(0.7)
    singular = np.linalg.svd(block_matrix(1, 2, sq, sq), compute_uv=False)
    assert singular[1] < 1e-14


def test_block_matrix_trace():
    sq = make_squeeze(1.0)
    assert np.trace(block_matrix(0, 0, sq, sq)) == pytest.approx(TRACE_00_R1, rel=1e-12)


def test_block_pt_eigenvalues_bell():
    sq0 = make_squeeze(0.0)
    np.testing.assert_allclose(sorted(block_pt_eigenvalues(0, 0, sq0, sq0)), [-0.5, 0.5, 0.5, 0.5], atol=1e-15)


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("n,q", [(n, q) for n in range(4) for q in range(4)])
def test_block_pt_matches_numeric_spectrum(r, n, q):
    for sq_a, sq_b in ((make_squeeze(r), make_squeeze(r)), (make_squeeze(r), make_squeeze(2 * r))):
        rho = DensityMatrix(entries=block_matrix(n, q, sq_a, sq_b), subsystem_shape=(2, 2), labels=("A", "B"))
        numeric = eig_symmetric(partial_transpose(rho, "B").entries).eigenvalues
        closed = np.sort(block_pt_eigenvalues(n, q, sq_a, sq_b))
        np.testing.assert_allclose(numeric, closed, atol=1e-12)


def test_block_negative_eigenvalue_vanishes_with_evaporation():
    sq6 = make_squeeze(6.0)
    lam = block_pt_eigenvalues(0, 0, sq6, sq6)
    assert lam.min() == pytest.approx(-SECH2_6 / 2.0, rel=1e-10)


def test_block_weight_normalization():
    sq_a, sq_b = make_squeeze(1.3), make_squeeze(0.9)
    n_max = 40
    total = sum(block_weight(n, q, sq_a, sq_b) for n in range(n_max + 1) for q in range(n_max + 1))
    x, y = sq_a.tanh_r**2, sq_b.tanh_r**2
    assert total == pytest.approx((1 - x ** (n_max + 1)) * (1 - y ** (n_max + 1)), abs=1e-13)


def test_block_a_range():
    sq0 = make_squeeze(0.0)
    assert block_a(0, 0, sq0, sq0) == 1.0
    assert 0.0 < block_a(0, 0, make_squeeze(1.0), make_squeeze(2.0)) < 1.0


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


def test_smooth_path_matches_direct_on_overlap():
    # same cutoff evaluated by the lattice sum and by Euler-Maclaurin
    r = 3.2
    sq = make_squeeze(r)
    n_max = DIRECT_GRID_CAP + 500
    x = sq.tanh_r**2
    l2x = math.log2(x)
    l2c = 4.0 * math.log2(sq.cosh_r)
    direct = _s_ab_direct(l2x, l2x, l2c, n_max)
    smooth = _s_ab_smooth(math.log(x), math.log(x), l2c * math.log(2.0), n_max)
    assert smooth == pytest.approx(direct, abs=1e-9)


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


def test_uses_paper_style_block_indices_validation():
    sq = make_squeeze(0.3)
    with pytest.raises(ValueError):
        block_matrix(-1, 0, sq, sq)
    with pytest.raises(ValueError):
        block_pt_eigenvalues(0, -2, sq, sq)
