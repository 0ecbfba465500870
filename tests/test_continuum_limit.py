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

The exact mutual information (the oracle's i_num) tends instead to

    I_inf = 2H - ln 2 - 3 + J1 + J2 nats
    H  = ln 2 + 3/2 - (1/2) int_0^inf (1+u) ln(1+u) e^-u du
    J1 = (1/2) int int e^(-u-v) (1+uv) ln max(1, uv) du dv
    J2 = int int e^(-u-v) min(1, uv) du dv,

about 0.304 bits: the entanglement vanishes as r grows, but a correlation
remains.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from hawkpair.closed_form import SeriesConfig, resolve_cutoff, s_a_closed
from hawkpair.density import marginal_entropies
from hawkpair.fock import side_rows
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
    rows = side_rows([sq], n_max)
    got = s_a_closed(sq, cfg) - marginal_entropies(rows, rows)[0]["s_a_num"]
    assert f"{got:.{len(gap) - 2}f}" == gap
    if r >= 2.5:
        # approached as 1 / cosh^2 r: measured 0.2269, 0.2200, 0.2171 and 0.2151
        assert 0.21 <= (float(MARGINAL_GAP_LIMIT) - got) * math.cosh(r) ** 2 <= 0.23


def trapezoid_on_the_line(f, step):
    """int f(s) ds over the real line by the trapezoid rule on s in [-40, 40];
    every integrand below decays at least as e^(-|s|) at both ends."""
    s = np.arange(-40.0, 40.0 + step / 2, step)
    return step * float(np.sum(f(s)))


def k0_kernel(w, step=0.25):
    """2 K_0(2 sqrt w), the density of w = uv for independent u, v ~ Exp(1),
    by the trapezoid rule in t of K_0(x) = int_0^inf e^(-x cosh t) dt, over
    t in [0, 40]: the integrand is even and analytic in |Im t| < pi/2, so the
    rule converges geometrically in 1/step."""
    t = np.arange(0.0, 40.0 + step / 2, step)
    weights = np.full(t.size, step)
    weights[0] = step / 2
    return 2.0 * np.exp(-np.outer(2.0 * np.sqrt(w), np.cosh(t))) @ weights


def exact_joint_limit(step):
    """I_inf in bits, with H by u = e^s, and J1 and J2 as one integral over
    w = uv against `k0_kernel`, split at the kink w = 1 and mapped by
    w = 1 / (1 + e^s) below it and w = 1 + e^s above it, so that each side's
    end at w = 1 recedes to s = -inf and the trapezoid rule converges
    geometrically. Returns H too."""

    def marginal(s):
        u = np.exp(s)
        return u * (1.0 + u) * np.log1p(u) * np.exp(-u)

    def below(s):
        w = 1.0 / (1.0 + np.exp(s))
        return k0_kernel(w) * w * w * (1.0 - w)  # min(1, w) = w, ln max(1, w) = 0

    def above(s):
        w = 1.0 + np.exp(s)
        return k0_kernel(w) * np.exp(s) * (1.0 + 0.5 * (1.0 + w) * np.log(w))  # J2's min(1, w) = 1, and J1

    h = LN2 + 1.5 - 0.5 * trapezoid_on_the_line(marginal, step)
    nats = 2.0 * h - LN2 - 3.0 + trapezoid_on_the_line(below, step) + trapezoid_on_the_line(above, step)
    return nats / LN2, h


I_INF_EXACT, H_INF = exact_joint_limit(0.1)


def test_exact_joint_limit():
    assert abs(k0_kernel(np.array([0.25]))[0] - 2.0 * 0.42102443824070834) < 1e-15  # 2 K_0(1)
    assert abs(exact_joint_limit(0.2)[0] - I_INF_EXACT) < 1e-12  # the rule has converged
    # H = ln 2 + 1 - G/2, since int_0^inf (1+u) ln(1+u) e^-u du = 1 + G
    gompertz = float(2 * Decimal(2).ln() * MARGINAL_GAP_LIMIT) - EULER_GAMMA
    assert abs(H_INF - (LN2 + 1.0 - gompertz / 2.0)) < 1e-13
    # scipy's dblquad gave 0.3039667431 bits
    assert abs(I_INF_EXACT - 0.3039667431) < 1e-9


def test_entanglement_vanishes_but_a_correlation_remains():
    # symmetric points at their resolved cutoffs N = 16, 49, 92 and 191: the
    # exact measures fall towards 0, the exact mutual information falls but
    # stays above its limit I_inf (about 0.304 bits), and the paper's series
    # stays above its own limit of 1.7204 bits
    rows = [run_point(r_a=r) for r in (0.5, 1.0, 1.3, 1.65)]
    assert [row.n_max for row in rows] == [16, 49, 92, 191]
    for name, first, last in (("e_n_num", 0.354, 3.30e-4), ("neg_sum_num", 0.212, 1.67e-3)):
        values = [getattr(row, name) for row in rows]
        assert all(a > b for a, b in zip(values, values[1:])), name
        assert f"{values[0]:.3g}" == f"{first:.3g}" and f"{values[-1]:.3g}" == f"{last:.3g}", (name, values)
    assert [f"{row.i_num:.5f}" for row in rows] == ["1.19090", "0.61015", "0.46024", "0.37611"]
    assert min(row.i_num for row in rows) > I_INF_EXACT
    assert min(row.i_closed for row in rows) > I_INF  # 1.72040860090 bits
