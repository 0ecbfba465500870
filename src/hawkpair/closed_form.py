"""The paper's closed forms: the dominant-block entanglement measure and the
entropy / mutual-information series, with explicit series tail control.

The joint-entropy double series treats block contributions as orthogonal
eigenvalues; that is a per-block approximation to the exact spectrum (blocks
(n, q) and (n+1, q+1) share the basis element |(n+1)(q+1)>). These routines
evaluate the series verbatim; the exact computation lives in the
density-engine oracle, and the sweep layer reports the gap between the two.

Entropies are in bits (log base 2). The joint series is split as
log2 P = n l2x + q l2y - 1 - l2c + log2 z with z = 1 + (n+1)(q+1)/C: the
linear part weights P by n, q and 1, whose sums are closed-form geometric
moments, so only sum x^n y^q z ln z is summed numerically. Each axis of that
sum is chosen by its decay length 1/(-ln x), in lattice steps: below
HEAD_SCALE = 8 it is summed term by term, up to where x^n falls below 2^-60;
from SMOOTH_SCALE = 32 on the summand is smooth on the lattice and the axis
is summed by Euler-Maclaurin with Gauss-Legendre panel quadrature and end
corrections through fifth order (the B2/2!, B4/4! and B6/6! terms); in
between, the first _JOINT_HEAD = 32 terms are added one by one and the rest
is summed by Euler-Maclaurin, its panels starting 32 wide. Each axis' rule
folds the derivatives of its factor x^n into per-end weights, so the double
sum is a grid of quadrature nodes, one strip of end corrections per axis and
four corners, with the derivatives of z ln z written out by hand (no
generated kernels). The resolved cutoff reaches 1e5..1e6 in the large-r
regime; only Euler-Maclaurin axes see it, so the cost per point stays
bounded. When both axes have the same x the grid is symmetric and only its
upper triangle is evaluated, in row blocks of at most 32 rows.

The marginal series takes the same split, log2 p_n = n l2x - l2c2 and
log2 p'_n = log2(n+1) + n l2x - 2 l2c2, so only the log moment
sum (n+1) x^n ln(n+1) is summed numerically, by the same per-axis rule with
one change: ln(n+1) is smooth on the lattice only from n ~ 64 on, so on the
Euler-Maclaurin side its first _LOG_HEAD = 64 terms are added one by one and
the panels start 64 wide. Neither series builds an array whose length grows
with the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import SqueezeParam

# hard ceiling for automatic cutoff resolution; sized so the default
# 1e-10 tail tolerance still resolves at r = 6 (N ~ 1.52e6 there)
HARD_SERIES_CAP = 4_000_000
# decay length 1/(-ln tanh^2 r), in lattice steps, from which an axis of the
# joint series is summed by Euler-Maclaurin (end corrections through fifth
# order) from its first term on, and the marginal log moment by
# Euler-Maclaurin after its head instead of term by term. Over decay lengths
# 32..128, the other axis' from 1 to 0.05 times as long, the joint series
# stays within 1.45e-14 relative of its term-by-term sum (worst at 32); with
# no head it would be off by 2.1e-14 at 30 and by 3.2e-13 at 20
SMOOTH_SCALE = 32.0
# decay length from which a joint-series axis under SMOOTH_SCALE adds its
# first _JOINT_HEAD terms one by one and sums the rest by Euler-Maclaurin
# instead of term by term. Over decay lengths 8..32, the other axis' from 1
# to 0.05 times as long, the joint series stays within 5.4e-16 relative of
# its term-by-term sum (worst at 8). Near 8 both rules cost about the same
# per point; below it term by term is the cheaper one
HEAD_SCALE = 8.0
# terms of the joint remainder added one by one on a head-path axis: past
# them the singular point of z ln z, at n = -1 - C/(q+1), is at least 33
# steps away, so the rest is smooth on the lattice
_JOINT_HEAD = 32
# terms of the marginal log moment added one by one before Euler-Maclaurin:
# ln(n+1) becomes smooth on the lattice only from about here on
_LOG_HEAD = 64
# a term-by-term axis stops where its weight falls below 2^-60 of the first
_CLIP_BITS = 60
# cells of the joint-series grid (or terms of a moment) evaluated at a time
_BLOCK_CELLS = 1 << 16

_LN2 = math.log(2.0)


class ConvergenceError(RuntimeError):
    """Raised when a series cutoff cannot be resolved within its cap."""


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


def e_n_paper(sq_a: SqueezeParam, sq_b: SqueezeParam) -> float:
    """Entanglement measure 2|lambda_-| of the (0, 0) block: 1/(cosh r_a cosh r_b).

    The paper's block (n, q) is the rank-1 matrix on [nq, n(q+1), (n+1)q,
    (n+1)(q+1)] with entries 1/2, a/2, a/2, a^2/2 at (0, 0), (0, 3), (3, 0),
    (3, 3), a = sqrt((n+1)(q+1)) / (cosh r_a cosh r_b). Its partial transpose
    has eigenvalues {1/2, -a/2, a/2, a^2/2}; at (0, 0), 2|-a/2| = a.
    """
    return 1.0 / (sq_a.cosh_r * sq_b.cosh_r)


def s_a_closed(sq: SqueezeParam, cfg: SeriesConfig) -> float:
    """Marginal entropy series: two eigenvalue families treated as orthogonal.

    1 - (1/2) sum_n p_n log2 p_n - (1/2) sum_n p'_n log2 p'_n with
    p_n = x^n / c^2 and p'_n = (n+1) x^n / c^4, x = tanh^2 r, c = cosh r.
    With log2 p_n = n l2x - l2c2 and log2 p'_n = log2(n+1) + n l2x - 2 l2c2,
    every sum but one is a geometric moment (_moments); only
    sum (n+1) x^n ln(n+1) is summed (_log_moment). No array of length N + 1
    is built.
    """
    if sq.r == 0.0:
        return 1.0
    n_max = cfg.n_max or resolve_cutoff(sq, sq, cfg)
    x = sq.tanh_r**2
    c2 = sq.cosh_r**2
    l2c2 = 2.0 * math.log2(sq.cosh_r)
    # tanh^2 r underflows to 0 below r ~ 1e-154; l2x then multiplies only
    # moments that vanish
    l2x = math.log2(x) if x > 0.0 else 0.0
    a0, a1, b1, b2 = _moments(x, n_max)
    term1 = (l2x * a1 - l2c2 * a0) / c2
    log_moment = _log_moment(math.log(x) if x > 0.0 else -math.inf, n_max)
    term2 = (l2x * b2 - 2.0 * l2c2 * b1 + log_moment / _LN2) / c2**2
    return 1.0 - 0.5 * term1 - 0.5 * term2


def s_b_closed(sq: SqueezeParam, cfg: SeriesConfig) -> float:
    """Bob's marginal entropy: same series with his squeezing parameter."""
    return s_a_closed(sq, cfg)


def _moments(x: float, n_max: int) -> tuple:
    """Sums over n = 0..N of x^n, n x^n, (n+1) x^n and n(n+1) x^n.

    Each is its infinite-series value minus the x^(N+1) tail (1 - x is exact
    in floating point for x >= 1/2). Where the tail is most of the infinite
    value the closed forms would cancel, so the terms are added instead, in
    blocks of _BLOCK_CELLS.
    """
    if x == 0.0:
        return 1.0, 0.0, 1.0, 0.0
    k = n_max + 1
    if k * -math.log(x) < 8.0:
        sums = np.zeros(4)
        for lo in range(0, k, _BLOCK_CELLS):
            n = np.arange(lo, min(k, lo + _BLOCK_CELLS), dtype=float)
            xn = x**n
            sums += (xn.sum(), n @ xn, (n + 1.0) @ xn, (n * (n + 1.0)) @ xn)
        return tuple(float(v) for v in sums)
    d = 1.0 - x
    xk = x**k
    a0 = (1.0 - xk) / d
    a1 = x / d**2 - xk * (k / d + x / d**2)
    b1 = 1.0 / d**2 - xk * ((k + 1) / d + x / d**2)
    b2 = 2.0 * x / d**3 - xk * (k * (k + 1) / d + (2 * k + 1) * x / d**2 + x * (1.0 + x) / d**3)
    return a0, a1, b1, b2


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)

# Euler-Maclaurin end corrections B_2k/(2k)! (f^(b)(N) - f^(b)(h)), b = 2k - 1
_EM_TERMS = ((1, 1.0 / 12.0), (3, -1.0 / 720.0), (5, 1.0 / 30240.0))
_EM_ORDER = 5
_ORDERS = np.arange(_EM_ORDER + 1)


def _em_poly() -> np.ndarray:
    """P[j, p] with sum_b c_b C(b, j) lx^(b-j) = sum_p P[j, p] lx^p over the _EM_TERMS."""
    poly = np.zeros((_EM_ORDER + 1, _EM_ORDER + 1))
    for b, c in _EM_TERMS:
        for j in range(b + 1):
            poly[j, b - j] = c * math.comb(b, j)
    return poly


_EM_POLY = _em_poly()
# _h_derivatives' running-product factors for orders m = 2..2*_EM_ORDER: 1, then -(m-2)
_H_STEPS = np.concatenate(([1.0], -np.arange(1.0, 2 * _EM_ORDER - 1)))


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
    edges = np.array(edges)
    lo = edges[:-1, None]
    half = 0.5 * (edges[1:, None] - lo)
    return (half * (_GL_NODES + 1.0) + lo).ravel(), (half * _GL_WEIGHTS).ravel()


def _axis_rule(lx: float, n_max: int, head: int | None = 0):
    """Linear functional that sums f(n) = e^(n lx) g(n) over n = 0..N along one axis.

    Returned as (nodes, weights, ends, k), standing for
    weights @ g(nodes) + sum_{e,j} k[e, j] g^(j)(ends[e]): the weights carry
    the factor e^(n lx). With head None the axis is summed term by term, up
    to where e^(n lx) falls below 2^-60, and has no ends (ends and k are
    None). Otherwise it adds its first `head` terms one by one, then sums
    n = h..N by Euler-Maclaurin,
    sum f = int_h^N f + (f(h)+f(N))/2 + sum_b c_b (f^(b)(N) - f^(b)(h)) over
    the _EM_TERMS, with the integral on Gauss-Legendre panels whose widths
    start at the head's length, or at the decay length 1/(-lx) when there is
    no head, and double. With f^(b) = e^(n lx) sum_j C(b, j) lx^(b-j) g^(j),
    k[e, j] = -+e^(end_e lx) sum_p _EM_POLY[j, p] lx^p. The callers pick the
    head by the decay length: _s_ab_head and _log_moment.
    """
    if lx == -math.inf:
        return np.zeros(1), np.ones(1), None, None
    if head is None:
        n = np.arange(min(n_max, math.ceil(_CLIP_BITS * _LN2 / -lx)) + 1, dtype=float)
        return n, np.exp(n * lx), None, None
    n = np.arange(min(head, n_max + 1), dtype=float)
    if head > n_max:
        return n, np.exp(n * lx), None, None
    pts, wts = _panel_points(float(n_max - head), head or (-1.0 / lx if lx < 0.0 else math.inf))
    nodes = np.concatenate([n, pts + head, [float(head), float(n_max)]])
    weights = np.exp(nodes * lx)
    k = weights[-2:, None] * (_EM_POLY @ lx**_ORDERS)
    k[0] *= -1.0
    weights[head:-2] *= wts
    weights[-2:] *= 0.5
    return nodes, weights, nodes[-2:], k


def _h_derivatives(z: np.ndarray, c_inv: float | np.ndarray, top: int) -> np.ndarray:
    """h^(m), m = 0..top (top >= 2), of h(w) = z ln z with z = 1 + w/C, given
    z, stacked along a new first axis: h' = (ln z + 1)/C and, for m >= 2,
    h^(m) = (-1)^m (m-2)! / (C^m z^(m-1)), the running product of
    h'' = 1/(C^2 z) and the factors -(m-2)/(C z). With c_inv * u in place of
    c_inv (u may be an array) they come out as u^m h^(m)."""
    ln_z = np.log(z)
    factors = _H_STEPS[: top - 1].reshape((-1,) + (1,) * z.ndim) * (c_inv / z)
    factors[0] *= c_inv
    return np.concatenate(((z * ln_z)[None], ((ln_z + 1.0) * c_inv)[None], factors.cumprod(axis=0)))


def _log_moment(lx: float, n_max: int) -> float:
    """sum_{n=0..N} (n+1) x^n ln(n+1), with lx = ln x (-inf allowed).

    ln(n+1) varies on the scale n itself, so a smooth axis adds its first
    _LOG_HEAD terms one by one before Euler-Maclaurin takes over. The end
    corrections need g^(j) of g(n) = (n+1) ln(n+1), which is _h_derivatives'
    h^(j) at z = n+1 with C = 1.
    """
    nodes, weights, ends, k = _axis_rule(lx, n_max, None if lx * SMOOTH_SCALE < -1.0 else _LOG_HEAD)
    z = nodes + 1.0
    total = float(weights @ (z * np.log(z)))
    if k is not None:
        total += float((k * _h_derivatives(ends + 1.0, 1.0, _EM_ORDER).T).sum())
    return total


def _corner_table() -> np.ndarray:
    """T[i, j, m] with u^i v^j d^i/du^i d^j/dv^j h(uv) = sum_m T[i, j, m] (uv)^m h^(m)(uv):
    each k = 0..min(i, j) adds C(i, k) j!/(j-k)! at m = i + j - k."""
    table = np.zeros((_EM_ORDER + 1, _EM_ORDER + 1, 2 * _EM_ORDER + 1))
    for i in range(_EM_ORDER + 1):
        for j in range(_EM_ORDER + 1):
            for k in range(min(i, j) + 1):
                table[i, j, i + j - k] += math.comb(i, k) * math.perm(j, k)
    return table


_CORNER_TABLE = _corner_table()


def _grid(u: np.ndarray, wu: np.ndarray, v: np.ndarray, wv: np.ndarray, c_inv: float, symmetric: bool) -> float:
    """sum_ik wu_i wv_k h(u_i v_k), h(w) = z ln z, z = 1 + w/C, in row blocks
    of at most _BLOCK_CELLS cells. A symmetric grid (u = v, wu = wv) is summed
    over its upper triangle: each row block's diagonal block once, the
    columns right of it twice. Its row blocks are at most one Gauss-Legendre
    panel (32 rows) tall, so the triangle is honoured at every size: at 194
    nodes a side 58% of the cells are evaluated."""
    cv = v * c_inv
    rows = max(1, _BLOCK_CELLS // v.size)
    if symmetric:
        rows, twice = min(rows, _GL_NODES.size), 2.0 * wv
    total = 0.0
    for lo in range(0, u.size, rows):
        hi = lo + rows
        if symmetric:
            cols, w = slice(lo, None), np.concatenate((wv[lo:hi], twice[hi:]))
        else:
            cols, w = slice(None), wv
        z = u[lo:hi, None] * cv[cols]
        z += 1.0
        h = np.log(z)
        h *= z
        total += float(wu[lo:hi] @ (h @ w))
    return total


def _strip(u: np.ndarray, ends: np.ndarray, k: np.ndarray, c_inv: float) -> np.ndarray:
    """One axis' end corrections applied to h(uv) at each node u of the other:
    sum_{e,j} k[e, j] u^j h^(j)(u v_e) with v_e = ends + 1, since
    d^j/dv^j h(uv) = u^j h^(j)(uv)."""
    cu = c_inv * u[:, None]
    d = _h_derivatives(1.0 + cu * (ends + 1.0), cu, _EM_ORDER)
    return np.einsum("jne,ej->n", d, k)


def _corners(s_ends: np.ndarray, kx: np.ndarray, t_ends: np.ndarray, ky: np.ndarray, c_inv: float) -> float:
    """Both axes' end corrections together: sum kx[a, i] ky[b, j] D^{i,j} h(uv)
    at the corners (u_a, v_b) = (s_ends + 1, t_ends + 1), from _CORNER_TABLE."""
    u, v = s_ends + 1.0, t_ends + 1.0
    cw = c_inv * (u[:, None] * v)
    h = _h_derivatives(1.0 + cw, cw, 2 * _EM_ORDER)
    return float(np.einsum("ai,bj,ijm,mab->", kx / u[:, None] ** _ORDERS, ky / v[:, None] ** _ORDERS, _CORNER_TABLE, h))


def _s_ab_head(lx: float) -> int | None:
    """_axis_rule's head for a joint-series axis by its decay length 1/(-lx):
    term by term (None) under HEAD_SCALE, _JOINT_HEAD terms under
    SMOOTH_SCALE, none from there on."""
    if lx * HEAD_SCALE < -1.0:
        return None
    return _JOINT_HEAD if lx * SMOOTH_SCALE < -1.0 else 0


def _s_ab_remainder(lx: float, ly: float, c_inv: float, n_max: int) -> float:
    """sum_{n,q=0..N} x^n y^q z ln z with z = 1 + (n+1)(q+1)/C.

    lx, ly are ln x, ln y (-inf allowed). With each axis' _axis_rule
    (nodes, weights and end corrections), the double sum is the grid of
    nodes, one strip per axis with end corrections (that axis' corrections
    at the other's nodes) and the corners where both apply. When lx == ly
    the grid is symmetric and the two strips are equal.
    """
    s, ws, s_ends, kx = _axis_rule(lx, n_max, _s_ab_head(lx))
    symmetric = lx == ly
    t, wt, t_ends, ky = (s, ws, s_ends, kx) if symmetric else _axis_rule(ly, n_max, _s_ab_head(ly))
    total = _grid(s + 1.0, ws, t + 1.0, wt, c_inv, symmetric)
    if ky is not None:
        total += float(ws @ _strip(s + 1.0, t_ends, ky, c_inv)) * (2.0 if symmetric else 1.0)
    if kx is not None and not symmetric:
        total += float(wt @ _strip(t + 1.0, s_ends, kx, c_inv))
    if kx is not None and ky is not None:
        total += _corners(s_ends, kx, t_ends, ky, c_inv)
    return total


def s_ab_closed(sq_a: SqueezeParam, sq_b: SqueezeParam, cfg: SeriesConfig) -> float:
    """Joint entropy series -sum_{n,q} P_nq log2 P_nq with
    P_nq = (w_nq / 2)(1 + a_nq^2) = x^n y^q z_nq / (2C),
    z_nq = 1 + (n+1)(q+1)/C, C = cosh^2 r_a cosh^2 r_b."""
    if sq_a.r == 0.0 and sq_b.r == 0.0:
        return 0.0
    n_max = cfg.n_max or resolve_cutoff(sq_a, sq_b, cfg)
    x = sq_a.tanh_r**2
    y = sq_b.tanh_r**2
    l2c = 2.0 * (math.log2(sq_a.cosh_r) + math.log2(sq_b.cosh_r))
    c_inv = 2.0**-l2c
    # log2 P = n l2x + q l2y - 1 - l2c + log2 z: the linear part weights P by
    # n, q and 1, whose sums are geometric moments (l2x multiplies only
    # moments that vanish when x = 0)
    l2x = math.log2(x) if x > 0.0 else 0.0
    l2y = math.log2(y) if y > 0.0 else 0.0
    a0x, a1x, b1x, b2x = _moments(x, n_max)
    a0y, a1y, b1y, b2y = _moments(y, n_max)
    linear = 0.5 * c_inv * (
        (1.0 + l2c) * (a0x * a0y + c_inv * b1x * b1y)
        - l2x * (a1x * a0y + c_inv * b2x * b1y)
        - l2y * (a0x * a1y + c_inv * b1x * b2y)
    )
    lx = math.log(x) if x > 0.0 else -math.inf
    ly = math.log(y) if y > 0.0 else -math.inf
    return linear - 0.5 * c_inv / _LN2 * _s_ab_remainder(lx, ly, c_inv, n_max)


def mutual_info_closed(sq_a: SqueezeParam, sq_b: SqueezeParam, cfg: SeriesConfig) -> float:
    """Mutual information assembled as S_A + S_B - S_AB."""
    return s_a_closed(sq_a, cfg) + s_b_closed(sq_b, cfg) - s_ab_closed(sq_a, sq_b, cfg)
