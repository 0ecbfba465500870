"""Analytic block matrices, their partial-transpose eigenvalues, and the
entropy / mutual-information series, with explicit series tail control.

The joint-entropy double series treats block contributions as orthogonal
eigenvalues; that is a per-block approximation to the exact spectrum (blocks
(n, q) and (n+1, q+1) share the basis element |(n+1)(q+1)>). These routines
evaluate the series verbatim; the exact computation lives in the
density-engine oracle, and the sweep layer reports the gap between the two.

Entropies are in bits (log base 2). Series are summed directly on the
truncated index grid while it stays desk-scale; for the large-r regime,
where the resolved cutoff reaches 1e5..1e6, the lattice sum is evaluated by
iterated Euler-Maclaurin summation with Gauss-Legendre panel quadrature
(the summand is smooth on the geometric decay scale 1/(1 - tanh^2 r), so
boundary-derivative corrections through third order leave a relative error
far below the tail tolerance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .density import ConvergenceError
from .kinematics import SqueezeParam

# hard ceiling for automatic cutoff resolution; sized so the default
# 1e-10 tail tolerance still resolves at r = 6 (N ~ 1.52e6 there)
HARD_SERIES_CAP = 4_000_000
# largest resolved cutoff summed term-by-term; beyond this the
# Euler-Maclaurin path takes over (decay scale is then > 250 lattice steps)
DIRECT_GRID_CAP = 6000

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SeriesConfig:
    """Either an explicit cutoff or a tail tolerance that selects one."""

    n_max: int | None = None
    tail_tol: float | None = None

    def __post_init__(self):
        if (self.n_max is None) == (self.tail_tol is None):
            raise ValueError("set exactly one of n_max and tail_tol")
        if self.n_max is not None and not 1 <= self.n_max <= HARD_SERIES_CAP:
            raise ValueError(f"n_max must be in 1..{HARD_SERIES_CAP}, got {self.n_max}")
        if self.tail_tol is not None and not (0.0 < self.tail_tol < 1.0):
            raise ValueError(f"tail_tol must be in (0, 1), got {self.tail_tol}")


def resolve_cutoff(sq_a: SqueezeParam, sq_b: SqueezeParam, cfg: SeriesConfig) -> int:
    """Smallest N with x^(N+1) < tail_tol and (N+2) x^(N+1) < tail_tol,
    where x is the larger of tanh^2 r_a, tanh^2 r_b."""
    if cfg.n_max is not None:
        return cfg.n_max
    x = max(sq_a.tanh_r**2, sq_b.tanh_r**2)
    if x == 0.0:
        return 1
    if x == 1.0:  # tanh r rounds to 1 for r >~ 19.07: no finite cutoff meets the tolerance
        raise ConvergenceError(f"tanh^2 r rounds to 1 at r = {max(sq_a.r, sq_b.r)}: the series tail never falls")
    tol = cfg.tail_tol
    lx = math.log(x)

    def ok(n):
        lt = (n + 1) * lx
        return lt < math.log(tol) and lt + math.log(n + 2) < math.log(tol)

    # analytic start for the weighted condition, then settle to the minimum
    n = max(1, math.ceil((math.log(tol)) / lx) - 1)
    for _ in range(200):
        need = (math.log(tol) - math.log(n + 2)) / lx - 1
        n_new = max(1, math.ceil(need))
        if n_new <= n:
            break
        n = n_new
    while not ok(n):
        n += 1
        if n > HARD_SERIES_CAP:
            raise ConvergenceError(
                f"cutoff resolution exceeded the cap of {HARD_SERIES_CAP} terms "
                f"(tanh^2 r = {x} too close to 1 for tail_tol = {tol})"
            )
    while n > 1 and ok(n - 1):
        n -= 1
    if n > HARD_SERIES_CAP:
        raise ConvergenceError(
            f"resolved cutoff {n} exceeds the cap of {HARD_SERIES_CAP} terms"
        )
    return n


def block_a(n: int, q: int, sq_a: SqueezeParam, sq_b: SqueezeParam) -> float:
    """Off-diagonal coefficient sqrt((n+1)(q+1)) / (cosh r_a cosh r_b)."""
    return math.sqrt((n + 1.0) * (q + 1.0)) / (sq_a.cosh_r * sq_b.cosh_r)


def block_weight(n: int, q: int, sq_a: SqueezeParam, sq_b: SqueezeParam) -> float:
    """Block weight tanh^(2n) r_a tanh^(2q) r_b / (cosh^2 r_a cosh^2 r_b)."""
    return (sq_a.tanh_r ** (2 * n)) * (sq_b.tanh_r ** (2 * q)) / (
        sq_a.cosh_r**2 * sq_b.cosh_r**2
    )


def block_matrix(n: int, q: int, sq_a: SqueezeParam, sq_b: SqueezeParam) -> np.ndarray:
    """Rank-1 block on basis [nq, n(q+1), (n+1)q, (n+1)(q+1)]."""
    if n < 0 or q < 0:
        raise ValueError("block indices must be non-negative")
    a = block_a(n, q, sq_a, sq_b)
    m = np.zeros((4, 4))
    m[0, 0] = 0.5
    m[0, 3] = m[3, 0] = a / 2.0
    m[3, 3] = a * a / 2.0
    return m


def block_pt_eigenvalues(n: int, q: int, sq_a: SqueezeParam, sq_b: SqueezeParam) -> np.ndarray:
    """Eigenvalues {1/2, -a/2, a/2, a^2/2} of the partially transposed block."""
    if n < 0 or q < 0:
        raise ValueError("block indices must be non-negative")
    a = block_a(n, q, sq_a, sq_b)
    return np.array([0.5, -a / 2.0, a / 2.0, a * a / 2.0])


def e_n_paper(sq_a: SqueezeParam, sq_b: SqueezeParam) -> float:
    """Entanglement measure 2|lambda_-| of the (0, 0) block: 1/(cosh r_a cosh r_b)."""
    return 1.0 / (sq_a.cosh_r * sq_b.cosh_r)


def s_a_closed(sq: SqueezeParam, cfg: SeriesConfig) -> float:
    """Marginal entropy series: two eigenvalue families treated as orthogonal.

    1 - (1/2) sum_n p_n log2 p_n - (1/2) sum_n p'_n log2 p'_n with
    p_n = tanh^(2n) r / cosh^2 r and p'_n = (n+1) tanh^(2n) r / cosh^4 r.
    """
    if sq.r == 0.0:
        return 1.0
    n_max = resolve_cutoff(sq, sq, cfg)
    x = sq.tanh_r**2
    l2x = math.log2(x)
    l2c2 = 2.0 * math.log2(sq.cosh_r)
    n = np.arange(n_max + 1, dtype=float)
    lp = n * l2x - l2c2
    lpp = np.log2(n + 1.0) + n * l2x - 2.0 * l2c2
    term1 = float(np.sum(np.exp2(lp) * lp))
    term2 = float(np.sum(np.exp2(lpp) * lpp))
    return 1.0 - 0.5 * term1 - 0.5 * term2


def s_b_closed(sq: SqueezeParam, cfg: SeriesConfig) -> float:
    """Bob's marginal entropy: same series with his squeezing parameter."""
    return s_a_closed(sq, cfg)


def _s_ab_direct(l2x: float, l2y: float, l2c: float, n_max: int) -> float:
    """Term-by-term -sum P log2 P over the truncated (n, q) grid.

    l2x, l2y are log2 of tanh^2 r_a, tanh^2 r_b (-inf allowed); l2c is
    log2(cosh^2 r_a cosh^2 r_b).
    """
    n_hi = 0 if l2x == -math.inf else n_max
    q_hi = 0 if l2y == -math.inf else n_max
    inv_c = 2.0 ** (-l2c)
    q = np.arange(q_hi + 1, dtype=float)
    lyq = q * l2y if l2y != -math.inf else np.zeros(1)
    total = 0.0
    chunk = max(1, 2**22 // (q_hi + 1))
    for lo in range(0, n_hi + 1, chunk):
        n = np.arange(lo, min(lo + chunk, n_hi + 1), dtype=float)[:, None]
        lxn = n * l2x if l2x != -math.inf else np.zeros((1, 1))
        u = (n + 1.0) * (q[None, :] + 1.0) * inv_c
        l2p = lxn + lyq[None, :] - 1.0 - l2c + np.log2(1.0 + u)
        total -= float(np.sum(np.exp2(l2p) * l2p))
    return total


@lru_cache(maxsize=1)
def _summand_derivatives():
    """Lambdified mixed partials of the entropy summand, orders {0,1,3}x{0,1,3}.

    The summand is phi(s, t) = -P log2 P with
    P = exp(s lx + t ly - lC) (1 + u) / 2 and u = (s+1)(t+1) exp(-lC).
    """
    import sympy as sp

    s, t, lx, ly, lc = sp.symbols("s t lx ly lc", real=True)
    u = (s + 1) * (t + 1) * sp.exp(-lc)
    ln_p = s * lx + t * ly - sp.log(2) - lc + sp.log(1 + u)
    phi = -sp.exp(ln_p) * ln_p / sp.log(2)
    funcs = {}
    for da in (0, 1, 3):
        for db in (0, 1, 3):
            expr = sp.diff(phi, s, da, t, db)
            funcs[(da, db)] = sp.lambdify((s, t, lx, ly, lc), expr, modules="numpy", cse=True)
    return funcs


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _panel_points(hi: float, scale: float):
    """Gauss-Legendre nodes/weights on geometric panels covering [0, hi]."""
    edges = [0.0]
    width = max(scale, 1.0)
    pos = 0.0
    while pos + width < hi:
        pos += width
        edges.append(pos)
        width *= 2.0
    edges.append(hi)
    pts = []
    wts = []
    for lo, up in zip(edges[:-1], edges[1:]):
        half = 0.5 * (up - lo)
        pts.append(half * (_GL_NODES + 1.0) + lo)
        wts.append(half * _GL_WEIGHTS)
    return np.concatenate(pts), np.concatenate(wts)


def _s_ab_smooth(lx: float, ly: float, lc: float, n_max: int) -> float:
    """Iterated Euler-Maclaurin evaluation of the entropy lattice sum.

    sum_{n=0..N} f(n) = int_0^N f + (f(0)+f(N))/2 + (f'(N)-f'(0))/12
                        - (f'''(N)-f'''(0))/720 + O(f^(5)),
    applied in t then in s; all integrals by panel Gauss-Legendre.
    """
    d = _summand_derivatives()
    big_n = float(n_max)
    s_pts, s_wts = _panel_points(big_n, 1.0 / -lx)
    t_pts, t_wts = _panel_points(big_n, 1.0 / -ly)

    def em_row(a: int, s0: float) -> float:
        """E_t applied to the a-th s-derivative of the summand at fixed s."""
        ss = np.full_like(t_pts, s0)
        integral = float(np.sum(d[(a, 0)](ss, t_pts, lx, ly, lc) * t_wts))
        f0 = float(d[(a, 0)](s0, 0.0, lx, ly, lc))
        fn = float(d[(a, 0)](s0, big_n, lx, ly, lc))
        d10 = float(d[(a, 1)](s0, 0.0, lx, ly, lc))
        d1n = float(d[(a, 1)](s0, big_n, lx, ly, lc))
        d30 = float(d[(a, 3)](s0, 0.0, lx, ly, lc))
        d3n = float(d[(a, 3)](s0, big_n, lx, ly, lc))
        return integral + 0.5 * (f0 + fn) + (d1n - d10) / 12.0 - (d3n - d30) / 720.0

    def line_s(b: int, t0: float) -> float:
        """Integral over s of the b-th t-derivative along a fixed-t line."""
        tt = np.full_like(s_pts, t0)
        return float(np.sum(d[(0, b)](s_pts, tt, lx, ly, lc) * s_wts))

    smesh, tmesh = np.meshgrid(s_pts, t_pts, indexing="ij")
    integral_2d = float(
        np.einsum("i,ij,j->", s_wts, d[(0, 0)](smesh, tmesh, lx, ly, lc), t_wts)
    )
    integral_g = (
        integral_2d
        + 0.5 * (line_s(0, 0.0) + line_s(0, big_n))
        + (line_s(1, big_n) - line_s(1, 0.0)) / 12.0
        - (line_s(3, big_n) - line_s(3, 0.0)) / 720.0
    )
    g0, gn = em_row(0, 0.0), em_row(0, big_n)
    g1_0, g1_n = em_row(1, 0.0), em_row(1, big_n)
    g3_0, g3_n = em_row(3, 0.0), em_row(3, big_n)
    return integral_g + 0.5 * (g0 + gn) + (g1_n - g1_0) / 12.0 - (g3_n - g3_0) / 720.0


def s_ab_closed(sq_a: SqueezeParam, sq_b: SqueezeParam, cfg: SeriesConfig) -> float:
    """Joint entropy series -sum_{n,q} P_nq log2 P_nq with
    P_nq = (w_nq / 2)(1 + a_nq^2)."""
    if sq_a.r == 0.0 and sq_b.r == 0.0:
        return 0.0
    n_max = resolve_cutoff(sq_a, sq_b, cfg)
    x = sq_a.tanh_r**2
    y = sq_b.tanh_r**2
    l2c = 2.0 * (math.log2(sq_a.cosh_r) + math.log2(sq_b.cosh_r))
    l2x = math.log2(x) if x > 0.0 else -math.inf
    l2y = math.log2(y) if y > 0.0 else -math.inf
    if n_max <= DIRECT_GRID_CAP or x == 0.0 or y == 0.0:
        return _s_ab_direct(l2x, l2y, l2c, n_max)
    return _s_ab_smooth(math.log(x), math.log(y), l2c * _LN2, n_max)


def mutual_info_closed(sq_a: SqueezeParam, sq_b: SqueezeParam, cfg: SeriesConfig) -> float:
    """Mutual information assembled as S_A + S_B - S_AB."""
    return s_a_closed(sq_a, cfg) + s_b_closed(sq_b, cfg) - s_ab_closed(sq_a, sq_b, cfg)
