"""fig3's tail against the continuum limit of the paper's own series.

With u = n / cosh^2 r the marginal families tend to Exp(1) and Gamma(2, 1)
and P_nq to e^(-u-v) (1 + uv) / (2C), so at a symmetric point

    s_a -> 1 + log2 cosh^2 r + (2 + gamma) / (2 ln 2)
    i   -> I_inf = 1 + (gamma - 1 + K) / ln 2
    K   = (1/2) int int e^(-u-v) (1 + uv) ln(1 + uv) du dv,

each approached as 1 / cosh^2 r. Nothing here shares code with the
Euler-Maclaurin rules that sum fig3's large-r points.
"""

import math

import numpy as np
import pytest

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
