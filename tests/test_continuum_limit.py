"""fig3's tail against the continuum limit of the paper's own series.

With u = n / cosh^2 r the marginal families tend to Exp(1) and Gamma(2, 1)
and P_nq to e^(-u-v) (1 + uv) / (2C), so at a symmetric point

    s_a -> 1 + log2 cosh^2 r + (2 + gamma) / (2 ln 2)
    i   -> I_inf = 1 + (gamma - 1 + K) / ln 2
    K   = (1/2) int int e^(-u-v) (1 + uv) ln(1 + uv) du dv,

each approached as 1 / cosh^2 r. Nothing here shares code with the
Euler-Maclaurin rules that sum fig3's large-r points.

The exact marginal (the oracle's per-side rule, which needs no eigensolve) is
the mixture (1 + u) e^-u / 2 of the two families, not the two taken as
orthogonal, so the closed s_a overstates it by a gap that tends to
(gamma + G) / (2 ln 2), G = e E_1(1) the Gompertz constant.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from hawkpair.closed_form import SeriesConfig, resolve_cutoff, s_a_closed
from hawkpair.density import _side_rows, marginal_entropies
from hawkpair.kinematics import make_squeeze
from hawkpair.sweep import run_point

EULER_GAMMA = 0.5772156649015329
LN2 = math.log(2.0)


def continuum_k(step):
    """K by the trapezoid rule in u = e^a, v = e^b over a, b in [-25, 4.5].

    The integrand is analytic at uv = 1; what slows a Gauss-Laguerre rule in
    v is the branch point of ln(1 + uv) at v = -1/u, near the origin when u
    is large. In a and b it lies at Im(a + b) = pi, off the real axis, and the
    integrand decays doubly exponentially as a or b grows and as e^(2a) as a
    falls, so the trapezoid rule converges geometrically in 1/step.
    """
    u = np.exp(np.arange(-25.0, 4.5 + step / 2, step))
    uv = np.outer(u, u)
    integrand = np.outer(u * np.exp(-u), u * np.exp(-u)) * (1.0 + uv) * np.log1p(uv)
    return 0.5 * step * step * float(integrand.sum())


K = continuum_k(0.1)
I_INF = 1.0 + (EULER_GAMMA - 1.0 + K) / LN2


def test_continuum_constant_k():
    assert abs(K - 0.922133525660) < 1e-12
    assert abs(continuum_k(0.2) - K) < 1e-13  # the rule has converged
    assert abs(I_INF - 1.72040860090) < 5e-12


# fig3's grid points r = 3, 4, 5 and 6, at their resolved cutoffs (N = 3134 to 1515955)
@pytest.mark.parametrize("r", [k * 6.0 / 120 for k in (60, 80, 100, 120)])
def test_fig3_tail_approaches_the_continuum_limit(r):
    row = run_point(r_a=r, methods=("closed",))
    cosh2 = math.cosh(r) ** 2
    # measured 0.3644, 0.3686, 0.3694 and 0.3696
    assert 0.36 <= (row.i_closed - I_INF) * cosh2 <= 0.372
    # measured -0.7276 up to -0.7214
    s_a_limit = 1.0 + math.log2(cosh2) + (2.0 + EULER_GAMMA) / (2.0 * LN2)
    assert abs((row.s_a_closed - s_a_limit) * cosh2 + 1.0 / (2.0 * LN2)) <= 0.007


def marginal_gap_limit():
    """(gamma + G) / (2 ln 2) in 40 digits, G = e E_1(1) with
    E_1(1) = -gamma - sum_(k >= 1) (-1)^k / (k k!)."""
    with localcontext() as ctx:
        ctx.prec = 40
        gamma = Decimal("0.5772156649015328606065120900824024310422")
        term, tail = Decimal(1), Decimal(0)
        for k in range(1, 40):
            term /= -k  # (-1)^k / k!
            tail += term / k
        return (gamma + Decimal(1).exp() * (-gamma - tail)) / (2 * Decimal(2).ln())


MARGINAL_GAP_LIMIT = marginal_gap_limit()


def test_marginal_gap_limit():
    assert abs(MARGINAL_GAP_LIMIT - Decimal("0.84654677977")) < Decimal("5e-12")


# symmetric points at their resolved cutoffs, each gap to the digits printed in
# the roadmap's table; r = 6 is fig3's last point, one row of 1.5e6 floats a side
@pytest.mark.parametrize(
    "r,n_max,gap",
    [(1.0, 49, "0.6912"), (2.5, 1114, "0.84051"), (3.0, 3134, "0.84438"), (3.5, 8802, "0.84576")]
    + [(6.0, 1515955, "0.846541")],
)
def test_closed_marginal_overstates_the_exact_one(r, n_max, gap):
    sq, cfg = make_squeeze(r), SeriesConfig(tail_tol=1e-10)
    assert resolve_cutoff(sq, sq, cfg) == n_max
    rows = _side_rows([sq], n_max)
    got = s_a_closed(sq, cfg) - marginal_entropies(rows, rows)[0]["s_a_num"]
    assert f"{got:.{len(gap) - 2}f}" == gap
    if r >= 2.5:
        # approached as 1 / cosh^2 r: measured 0.2269, 0.2200, 0.2171 and 0.2151
        assert 0.21 <= (float(MARGINAL_GAP_LIMIT) - got) * math.cosh(r) ** 2 <= 0.23
