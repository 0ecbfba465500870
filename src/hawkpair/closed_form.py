"""The paper's closed forms: the dominant-block entanglement measure and the
entropy / mutual-information series, with explicit series tail control.

The joint-entropy double series treats block contributions as orthogonal
eigenvalues; that is a per-block approximation to the exact spectrum (blocks
(n, q) and (n+1, q+1) share the basis element |(n+1)(q+1)>). These routines
evaluate the series verbatim; the exact computation lives in the
density-engine oracle, and the sweep layer reports the gap between the two.

Entropies are in bits (log base 2). closed_form sums the series of a whole
batch of points, each at its own cutoff; s_a_closed, s_b_closed and
s_ab_closed are that call with one point, and closed_columns builds a report's
closed columns from one such call. Each point's scalar arithmetic (the
geometric moments and the linear parts) is its own, in Python floats; the
sums over nodes run in stacked numpy calls over the batch.

The joint series is split as log2 P = n l2x + q l2y - 1 - l2c + log2 z with
z = 1 + (n+1)(q+1)/C: the linear part weights P by n, q and 1, whose sums are
closed-form geometric moments, so only sum x^n y^q z ln z is summed
numerically. Each axis of that sum is chosen by its decay length
1/(-ln x), in lattice steps: below HEAD_SCALE = 8 it is summed term by term,
up to where x^n falls below 2^-60; from SMOOTH_SCALE = 64 on the summand is
smooth on the lattice and the axis is summed by Euler-Maclaurin from its
first term; in between, the first _JOINT_HEAD = 32 terms are added one by one
and the rest is summed by Euler-Maclaurin, its panels starting 32 wide.
Euler-Maclaurin over n = h..N is 16-node Gauss-Legendre panel quadrature
plus Gregory's end correction, which stands for the Bernoulli-number terms
by fixed weights on the lattice nodes h..h+14 and N-14..N; an axis with
fewer than 30 terms past its head is summed term by term. So every axis is
plain nodes and weights, with the factor x^n folded into the weights, and
the double sum is one weighted grid of the two axes' nodes. The resolved
cutoff reaches 1e5..1e6 in the large-r regime; only Euler-Maclaurin axes see
it, so the cost per point stays bounded. When both axes have the same x the
grid is symmetric and only its upper triangle is evaluated, in row blocks of
16 rows.

The marginal series takes the same split, log2 p_n = n l2x - l2c2 and
log2 p'_n = log2(n+1) + n l2x - 2 l2c2, so only the log moment
sum (n+1) x^n ln(n+1) is summed numerically, with the joint series' head
rule and no head-free path: term by term under HEAD_SCALE, the first
_JOINT_HEAD terms one by one from there on. Past that head the singular
point of (n+1) ln(n+1), at n = -1, is 33 steps away, as that of z ln z is
on a joint axis, so the rest is smooth on the lattice.

An axis of either series is laid out by one rule: its terms added one by
one take their count of slots rounded up to a multiple of 16, the unused
ones weighing 0, and with Euler-Maclaurin come its 30 end nodes and 16 nodes
on each of its own panels. Only points of the same layout share a numpy
call, and no sum spans two points, so every sum a point takes has the same
length and order whatever else is in its batch: a point's values do not
depend on the other points. Points are taken in chunks whose temporaries
take at most 64 KiB (kinematics._batches, the budget both method modules
share), so no array grows with the cutoff or with the number of points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kinematics
from .kinematics import SqueezeParam, _batches, _integer, _real, _trace_deficit

# hard ceiling for automatic cutoff resolution; sized so the default
# 1e-10 tail tolerance still resolves at r = 6 (N ~ 1.52e6 there)
HARD_SERIES_CAP = 4_000_000
# decay length 1/(-ln tanh^2 r), in lattice steps, from which an axis of the
# joint series is summed by Euler-Maclaurin from its first term on. Over
# decay lengths 64..320, the other axis' from 1 to 0.05 times as long, the
# joint series stays within 4.1e-16 relative of its term-by-term sum (worst
# at 160); with no head it would be off by 1.1e-15 at 56, by 1.3e-13 at 32
# and by 1.5e-9 at 8
SMOOTH_SCALE = 64.0
# decay length from which a joint-series axis under SMOOTH_SCALE, and the
# marginal log moment at any decay length, add their first _JOINT_HEAD terms
# one by one and sum the rest by Euler-Maclaurin instead of term by term.
# Over decay lengths 8..64, the other axis' from 1 to 0.05 times as long, the
# joint series stays within 1.7e-16 relative of its term-by-term sum. Near 8
# both rules cost about the same per point; below it term by term is the
# cheaper one
HEAD_SCALE = 8.0
# terms added one by one on a head-path axis: past them the singular point
# of z ln z, at n = -1 - C/(q+1), and that of (n+1) ln(n+1), at n = -1, are
# at least 33 steps away, so the rest is smooth on the lattice
_JOINT_HEAD = 32
# a term-by-term axis stops where its weight falls below 2^-60 of the first
_CLIP_BITS = 60
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
        if self.n_max is not None:
            object.__setattr__(self, "n_max", _integer(self.n_max, "n_max"))
            if not 1 <= self.n_max <= HARD_SERIES_CAP:
                raise ValueError(f"n_max must be in 1..{HARD_SERIES_CAP}, got {self.n_max}")
        else:
            object.__setattr__(self, "tail_tol", _real(self.tail_tol, "tail_tol"))
            if not 0.0 < self.tail_tol < 1.0:
                raise ValueError(f"tail_tol must be in (0, 1), got {self.tail_tol}")


def resolve_cutoff(sq_a: SqueezeParam, sq_b: SqueezeParam, cfg: SeriesConfig) -> int:
    """Smallest N >= 1 with (N+2) x^(N+1) < tail_tol, which implies
    x^(N+1) < tail_tol, where x is the larger of tanh^2 r_a, tanh^2 r_b.

    The test is (N+1) ln x + ln(N+2) < ln tail_tol, which holds from
    N = floor((ln tail_tol - ln(N+2)) / ln x) on. The search starts at N = 1
    and steps to that value while it rises. Its rounding can miss the
    boundary by one either way, so the result is the first of N - 1 and N
    that passes the test itself, else N + 1.
    """
    if cfg.n_max is not None:
        return cfg.n_max
    x = max(sq_a.tanh_r**2, sq_b.tanh_r**2)
    if x == 0.0:
        return 1
    if x == 1.0:  # tanh r rounds to 1 for r >~ 19.07: no finite cutoff meets the tolerance
        raise ConvergenceError(f"tanh^2 r rounds to 1 at r = {max(sq_a.r, sq_b.r)}: the series tail never falls")
    lx, log_tol = math.log(x), math.log(cfg.tail_tol)
    n = 1
    while (step := math.floor((log_tol - math.log(n + 2)) / lx)) > n:
        n = step
    n = next((m for m in (n - 1, n) if m >= 1 and (m + 1) * lx + math.log(m + 2) < log_tol), n + 1)
    if n > HARD_SERIES_CAP:
        raise ConvergenceError(f"resolved cutoff {n} exceeds the cap of {HARD_SERIES_CAP} terms")
    return n


def e_n_paper(sq_a: SqueezeParam, sq_b: SqueezeParam) -> float:
    """Entanglement measure 2|lambda_-| of the (0, 0) block: 1/(cosh r_a cosh r_b).

    The paper's block (n, q) is the rank-1 matrix on [nq, n(q+1), (n+1)q,
    (n+1)(q+1)] with entries 1/2, a/2, a/2, a^2/2 at (0, 0), (0, 3), (3, 0),
    (3, 3), a = sqrt((n+1)(q+1)) / (cosh r_a cosh r_b). Its partial transpose
    has eigenvalues {1/2, -a/2, a/2, a^2/2}; at (0, 0), 2|-a/2| = a.
    """
    return 1.0 / (sq_a.cosh_r * sq_b.cosh_r)


def closed_form(marginals, joints) -> tuple:
    """The marginal entropy series of each (sq, n_max) in marginals and the
    joint entropy series of each (sq_a, sq_b, n_max) in joints, each at its
    given cutoff, as two lists of floats in bits. A point's values do not
    depend on the other points of the call. The geometric moments of each
    (x, N) are worked out once per call, for both series."""
    moments = functools.lru_cache(maxsize=None)(_moments)
    return _marginal_series(marginals, moments), _joint_series(joints, moments)


def s_a_closed(sq: SqueezeParam, cfg: SeriesConfig) -> float:
    """Marginal entropy series: two eigenvalue families treated as orthogonal.

    1 - (1/2) sum_n p_n log2 p_n - (1/2) sum_n p'_n log2 p'_n with
    p_n = x^n / c^2 and p'_n = (n+1) x^n / c^4, x = tanh^2 r, c = cosh r."""
    return closed_form([(sq, resolve_cutoff(sq, sq, cfg))], [])[0][0]


def s_b_closed(sq: SqueezeParam, cfg: SeriesConfig) -> float:
    """Bob's marginal entropy: same series with his squeezing parameter."""
    return s_a_closed(sq, cfg)


def s_ab_closed(sq_a: SqueezeParam, sq_b: SqueezeParam, cfg: SeriesConfig) -> float:
    """Joint entropy series -sum_{n,q} P_nq log2 P_nq with
    P_nq = (w_nq / 2)(1 + a_nq^2) = x^n y^q z_nq / (2C),
    z_nq = 1 + (n+1)(q+1)/C, C = cosh^2 r_a cosh^2 r_b."""
    return closed_form([], [(sq_a, sq_b, resolve_cutoff(sq_a, sq_b, cfg))])[1][0]


def mutual_info_closed(sq_a: SqueezeParam, sq_b: SqueezeParam, cfg: SeriesConfig) -> float:
    """Mutual information assembled as S_A + S_B - S_AB (closed_columns)."""
    return closed_columns([(sq_a, sq_b, resolve_cutoff(sq_a, sq_b, cfg))], cfg)[0]["i_closed"]


def closed_columns(points, cfg: SeriesConfig) -> list:
    """Per (sq_a, sq_b, n_max) point of a list, n_max its pair cutoff, a dict of
    the closed columns, every series summed in one closed_form call; trace_deficit
    is 1 - sum P_nq over n, q <= N, both families of each mode kept to N + 1
    terms (_trace_deficit). A symmetric point sums one marginal. Elsewhere the
    side with the larger tanh^2 r sets the pair cutoff and takes it; the other takes
    resolve_cutoff(sq, sq, cfg), no larger, which cannot fail once the pair's has."""
    sides = [
        ((sq_a, n_max),) if sq_b == sq_a else tuple(
            (sq, n_max if sq.tanh_r**2 >= other.tanh_r**2 else resolve_cutoff(sq, sq, cfg))
            for sq, other in ((sq_a, sq_b), (sq_b, sq_a))
        )
        for sq_a, sq_b, n_max in points
    ]
    marginals, joints = closed_form([side for pair in sides for side in pair], points)
    marginals = iter(marginals)
    columns = []
    for (sq_a, sq_b, n_max), s_ab in zip(points, joints):
        s_a = next(marginals)
        s_b = s_a if sq_b == sq_a else next(marginals)
        columns.append(dict(
            e_n_block00=e_n_paper(sq_a, sq_b), s_a_closed=s_a, s_b_closed=s_b, s_ab_closed=s_ab,
            i_closed=s_a + s_b - s_ab, trace_deficit=_trace_deficit(sq_a, sq_b, n_max + 1, n_max + 1),
        ))
    return columns


def _logs(x: float) -> tuple:
    """log2 x and ln x; 0 and -inf at x = 0 (tanh^2 r underflows below
    r ~ 1e-154), where log2 x multiplies only moments that vanish."""
    return (math.log2(x), math.log(x)) if x > 0.0 else (0.0, -math.inf)


def _marginal_series(points, moments) -> list:
    """1 - (1/2)(l2x A1 - l2c2 A0)/c^2 - (1/2)(l2x B2 - 2 l2c2 B1 + L/ln 2)/c^4
    per point, from log2 p_n = n l2x - l2c2 and
    log2 p'_n = log2(n+1) + n l2x - 2 l2c2: A0, A1, B1, B2 are geometric
    moments (`moments`, _moments' table), and the log moments
    L = sum (n+1) x^n ln(n+1) of all points are summed together (_log_moment)."""
    parts, lx, n_max = [], [], []
    for sq, n in points:
        x, c2, l2c2 = sq.tanh_r**2, sq.cosh_r**2, 2.0 * math.log2(sq.cosh_r)
        l2x, ln_x = _logs(x)
        a0, a1, b1, b2 = moments(x, n)
        parts.append((1.0 - 0.5 * ((l2x * a1 - l2c2 * a0) / c2), l2x * b2 - 2.0 * l2c2 * b1, c2**2))
        lx.append(ln_x)
        n_max.append(n)
    return [
        head - 0.5 * ((part + log_moment / _LN2) / c4)
        for (head, part, c4), log_moment in zip(parts, _log_moment(lx, n_max).tolist())
    ]


def _joint_series(points, moments) -> list:
    """Per point, the linear part of the joint series from the geometric
    moments of both axes (`moments`, _moments' table; log2 P = n l2x + q l2y
    - 1 - l2c + log2 z weights P by n, q and 1), less 0.5 C^-1 / ln 2 times
    the remainder of all points (_s_ab_remainder)."""
    linear, lx, ly, c_inv, n_max = [], [], [], [], []
    for sq_a, sq_b, n in points:
        x, y = sq_a.tanh_r**2, sq_b.tanh_r**2
        l2c = 2.0 * (math.log2(sq_a.cosh_r) + math.log2(sq_b.cosh_r))
        c = 2.0**-l2c
        (l2x, ln_x), (l2y, ln_y) = _logs(x), _logs(y)
        a0x, a1x, b1x, b2x = moments(x, n)
        a0y, a1y, b1y, b2y = moments(y, n)
        linear.append(0.5 * c * (
            (1.0 + l2c) * (a0x * a0y + c * b1x * b1y)
            - l2x * (a1x * a0y + c * b2x * b1y)
            - l2y * (a0x * a1y + c * b1x * b2y)
        ))
        lx.append(ln_x)
        ly.append(ln_y)
        c_inv.append(c)
        n_max.append(n)
    remainder = _s_ab_remainder(lx, ly, c_inv, n_max).tolist()
    return [lin - 0.5 * c / _LN2 * rem for lin, c, rem in zip(linear, c_inv, remainder)]


def _moments(x: float, n_max: int) -> tuple:
    """Sums over n = 0..N of x^n, n x^n, (n+1) x^n and n(n+1) x^n.

    Each is its infinite-series value minus the x^(N+1) tail (1 - x is exact
    in floating point for x >= 1/2). Where the tail is most of the infinite
    value the closed forms would cancel, so the terms are added instead, in
    blocks of kinematics._CHUNK_CELLS.
    """
    if x == 0.0:
        return 1.0, 0.0, 1.0, 0.0
    k = n_max + 1
    if k * -math.log(x) < 8.0:
        sums = np.zeros(4)
        for lo in range(0, k, kinematics._CHUNK_CELLS):
            n = np.arange(lo, min(k, lo + kinematics._CHUNK_CELLS), dtype=float)
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


# the 16-point Gauss-Legendre rule on [-1, 1] as numpy.polynomial.legendre.leggauss(16)
# gives it, written out so that numpy.polynomial is not imported
_GL_NODES = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_GL_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])
_GL_SPANS = _GL_NODES + 1.0
# nodes per panel, the term-slot granule of _layout (12 miss by 5.5e-14 at r = 3..6)
_PAD = _GL_NODES.size
# lattice nodes at each end of an Euler-Maclaurin range that carry its end
# correction: Gregory's, exact for polynomials of degree _STENCIL - 1
_STENCIL = 15


def _end_weights() -> np.ndarray:
    """Gregory's end weights w_i, i = 0.._STENCIL-1, with which
    sum_{n=h..N} f(n) = int_h^N f + sum_i w_i (f(h+i) + f(N-i)):
    w_i = [i=0]/2 + sum_{k=max(i,1)}^{_STENCIL-1} G_{k+1} (-1)^(k-i) C(k, i),
    where G_k are the coefficients of x / ln(1+x), the reciprocal of
    sum_j (-1)^j x^j / (j+1). They stand for the Euler-Maclaurin end
    functional f(h)/2 - sum_k B_2k/(2k)! f^(2k-1)(h) by values at lattice
    points, exactly for polynomials of degree _STENCIL - 1."""
    g = [1.0]
    for n in range(1, _STENCIL + 1):
        g.append(-sum((-1) ** j / (j + 1) * g[n - j] for j in range(1, n + 1)))
    return np.array([
        0.5 * (i == 0) + sum(g[k + 1] * (-1) ** (k - i) * math.comb(k, i) for k in range(max(i, 1), _STENCIL))
        for i in range(_STENCIL)
    ])


_END_WEIGHTS = _end_weights()


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row dot products of two (points, n) arrays, one BLAS call per row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _axis_plan(lx: float, n_max: int, head: float) -> tuple:
    """How _axis_rule sums one axis: (lx, N, h, terms, edges). It adds its
    first `terms` terms one by one, then, when edges is not empty, sums
    n = h..N by Euler-Maclaurin on the panels between the edges, shifted by h.
    With no Euler-Maclaurin h is 0; lx = -inf (x = 0) is given as 0, since
    that axis has the one node n = 0, of weight x^0 = 1 for any finite lx.

    A head of inf sums the axis term by term, up to where e^(n lx) falls
    below 2^-60; fewer than 2 _STENCIL terms past the head add all N + 1
    terms. The panels start at the head's length, or at the decay length
    1/(-lx) when there is no head.
    """
    finite = lx if lx > -math.inf else 0.0
    if head == math.inf:
        return finite, n_max, 0.0, min(n_max, math.ceil(_CLIP_BITS * _LN2 / -lx)) + 1, ()
    if n_max + 1 - head < 2 * _STENCIL:
        return finite, n_max, 0.0, n_max + 1, ()
    return lx, n_max, head, head, _panel_edges(n_max - head, head or (-1.0 / lx if lx < 0.0 else math.inf))


def _panel_edges(hi: float, scale: float) -> tuple:
    """Edges of geometric panels covering [0, hi], the first max(scale, 1)
    wide, each next one twice as wide, the last cut at hi."""
    edges = [0.0]
    width = max(scale, 1.0)
    pos = 0.0
    while pos + width < hi:
        pos += width
        edges.append(pos)
        width *= 2.0
    edges.append(hi)
    return tuple(edges)


def _layout(plan: tuple) -> tuple:
    """An axis' node layout: its term slots, the terms added one by one
    rounded up to a multiple of 16 (one panel), and its panel count. Points of
    one layout share a numpy call."""
    return -(-plan[3] // _PAD) * _PAD, max(len(plan[4]) - 1, 0)


def _panel_points(edges: np.ndarray) -> tuple:
    """Gauss-Legendre nodes and weights on the panels between each row of edges."""
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    return (
        (half[..., None] * _GL_SPANS + edges[:, :-1, None]).reshape(len(edges), -1),
        (half[..., None] * _GL_WEIGHTS).reshape(len(edges), -1),
    )


def _axis_rule(plans):
    """Linear functionals that sum f(n) = e^(n lx) g(n) over n = 0..N along
    each axis of a batch (its _axis_plan's), as stacked (nodes, weights),
    standing for weights @ g(nodes); the weights carry the factor e^(n lx).
    The axes share one _layout: its term slots, then, with panels, the
    2 _STENCIL end nodes and the panel slots. Term slots past an axis' own
    terms weigh 0.

    Euler-Maclaurin over n = h..N is the integral on the Gauss-Legendre
    panels plus Gregory's end correction (_END_WEIGHTS) on the lattice nodes
    h..h+14 and N-14..N. The callers pick the head by the decay length
    (_s_ab_head).
    """
    table = np.array([plan[:4] for plan in plans], dtype=float)
    lx, last, start, terms = table.T
    slots, count = _layout(plans[0])
    nodes = np.repeat(np.arange(slots, dtype=float)[None], len(plans), axis=0)
    if count:
        points, scales = _panel_points(np.array([plan[4] for plan in plans]))
        steps = np.arange(_STENCIL, dtype=float)
        ends = np.concatenate((start[:, None] + steps, last[:, None] - steps), axis=1)
        nodes = np.concatenate((nodes, ends, points + start[:, None]), axis=1)
    weights = np.exp(nodes * lx[:, None])
    weights[:, :slots] *= nodes[:, :slots] < terms[:, None]
    if count:
        weights[:, slots:] *= np.concatenate((np.tile(_END_WEIGHTS, (len(plans), 2)), scales), axis=1)
    return nodes, weights


def _width(layout: tuple) -> int:
    """Nodes of an axis on layout: its term slots, and with panels, the end
    nodes and the panel slots."""
    slots, panels = layout
    return slots + (2 * _STENCIL + _PAD * panels if panels else 0)


def _log_moment(lx, n_max) -> np.ndarray:
    """Per point, sum_{n=0..N} (n+1) x^n ln(n+1), with lx = ln x (-inf allowed).

    The joint series' head rule (_s_ab_head), with a _JOINT_HEAD head where
    that takes none, since ln(n+1) varies on the scale n itself. Points are
    batched by their layouts.
    """
    plans = [_axis_plan(v, n, _s_ab_head(v) or _JOINT_HEAD) for v, n in zip(lx, n_max)]
    total = np.empty(len(plans))
    for idx in _batches(map(_layout, plans), _width):
        nodes, weights = _axis_rule([plans[i] for i in idx])
        z = nodes + 1.0
        total[idx] = _dot(weights, z * np.log(z))
    return total


def _grid(u: np.ndarray, wu: np.ndarray, v: np.ndarray, wv: np.ndarray, c_inv: np.ndarray, symmetric: bool) -> np.ndarray:
    """Per point p, sum_ik wu_pi wv_pk h(u_pi v_pk), h(w) = z ln z,
    z = 1 + w/C_p, in row blocks, each over as many points as keep its cells
    within kinematics._CHUNK_CELLS. A symmetric grid (u = v, wu = wv) is
    summed over its upper triangle: each row block's diagonal block once, the
    columns right of it twice. Its row blocks are one Gauss-Legendre panel
    (16 rows) tall, so at 126 nodes a side 53% of the cells are evaluated."""
    points, width = v.shape
    cv = v * c_inv[:, None]
    rows = _PAD if symmetric else max(1, kinematics._CHUNK_CELLS // width)
    if symmetric:
        twice = 2.0 * wv
    row_sums = np.empty(u.shape + (1,))
    for lo in range(0, u.shape[1], rows):
        hi = min(lo + rows, u.shape[1])
        cols = lo if symmetric else 0
        w = (np.concatenate((wv[:, lo:hi], twice[:, hi:]), axis=1) if symmetric else wv)[:, :, None]
        step = max(1, kinematics._CHUNK_CELLS // ((hi - lo) * (width - cols)))
        for p in range(0, points, step):
            q = slice(p, p + step)
            z = u[q, lo:hi, None] * cv[q, None, cols:]
            z += 1.0
            h = np.log(z)
            h *= z
            row_sums[q, lo:hi] = h @ w[q]
    return _dot(wu, row_sums[..., 0])


def _s_ab_head(lx: float) -> float:
    """_axis_plan's head for a joint-series axis by its decay length 1/(-lx):
    term by term (inf) under HEAD_SCALE, _JOINT_HEAD terms under
    SMOOTH_SCALE, none from there on."""
    if lx * HEAD_SCALE < -1.0:
        return math.inf
    return _JOINT_HEAD if lx * SMOOTH_SCALE < -1.0 else 0


def _s_ab_remainder(lx, ly, c_inv, n_max) -> np.ndarray:
    """Per point, sum_{n,q=0..N} x^n y^q z ln z with z = 1 + (n+1)(q+1)/C.

    lx, ly are ln x, ln y (-inf allowed), per point. With each axis'
    _axis_rule, the double sum is the weighted grid of their nodes, which is
    symmetric when lx == ly. Points are batched by their axes' layouts and
    symmetry.
    """
    x_plans = [_axis_plan(a, n, _s_ab_head(a)) for a, n in zip(lx, n_max)]
    y_plans = [plan if a == b else _axis_plan(b, n, _s_ab_head(b)) for plan, a, b, n in zip(x_plans, lx, ly, n_max)]
    keys = [(_layout(px), _layout(py), a == b) for px, py, a, b in zip(x_plans, y_plans, lx, ly)]
    c_inv = np.asarray(c_inv, dtype=float)
    total = np.empty(len(keys))
    for idx in _batches(keys, lambda key: max(_width(key[0]), _width(key[1]))):
        sym = keys[idx[0]][2]
        s, ws = _axis_rule([x_plans[i] for i in idx])
        t, wt = (s, ws) if sym else _axis_rule([y_plans[i] for i in idx])
        u = s + 1.0
        total[idx] = _grid(u, ws, u if sym else t + 1.0, wt, c_inv[idx], sym)
    return total
