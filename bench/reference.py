"""Reference values for the benchmark's correctness checks.

Written from the physics, not from hawkpair's code: nothing here imports
hawkpair. The oracle side rebuilds rho_AB and its partial transpose element by
element from the mode amplitudes

    V(k) = t^k / c,    O(k) = sqrt(k+1) t^k / c^2,    O(N) = 0,

(t = tanh r, c = cosh r) and diagonalises them with numpy.linalg.eigvalsh.
The series side sums the closed-form marginal and joint series term by term.
"""

from __future__ import annotations

import math

import numpy as np


def r_from_mode(mass: float, omega: float) -> float:
    """r = artanh(exp(-4 pi M omega))."""
    return math.atanh(math.exp(-4.0 * math.pi * mass * omega))


def e_n_block00(r_a: float, r_b: float) -> float:
    """1 / (cosh r_a cosh r_b)."""
    return 1.0 / (math.cosh(r_a) * math.cosh(r_b))


def cutoff(x: float, tail_tol: float) -> int:
    """Smallest N >= 1 with (N+2) x^(N+1) < tail_tol, found by bisection.

    (N+2) x^(N+1) < tol also gives x^(N+1) < tol. Past its single maximum the
    weighted tail only falls, so the N that satisfy it form one interval.
    """
    if x == 0.0:
        return 1
    lx = math.log(x)
    ltol = math.log(tail_tol)

    def ok(n):
        return (n + 1) * lx + math.log(n + 2) < ltol

    if ok(1):
        return 1
    lo, hi = 1, 2
    while not ok(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def amplitudes(r: float, n_max: int):
    """V(k), O(k) for k = 0..n_max, with O(n_max) = 0 (|N, N+1> is truncated)."""
    t = math.tanh(r)
    c = math.cosh(r)
    k = np.arange(n_max + 1, dtype=float)
    tk = t**k
    v = tk / c
    o = np.sqrt(k + 1.0) * tk / c**2
    o[n_max] = 0.0
    return v, o


def truncated_norms(r: float, n_max: int):
    """sum_k V(k)^2 and sum_k O(k)^2 in closed form (x = tanh^2 r)."""
    x = math.tanh(r) ** 2
    vv = 1.0 - x ** (n_max + 1)
    oo = 1.0 - (n_max + 1) * x**n_max + n_max * x ** (n_max + 1)
    return vv, oo


def rho_ab(r_a: float, r_b: float, n_max: int, transpose_b: bool = False) -> np.ndarray:
    """rho_AB on |a, b> (index a (N+1) + b), or its partial transpose on B.

    Diagonal at (a, b): (V_a(a)^2 V_b(b)^2 + O_a(a-1)^2 O_b(b-1)^2) / 2.
    Coupling V_a(n) O_a(n) V_b(q) O_b(q) / 2 between (n, q) and (n+1, q+1);
    after the partial transpose it sits between (n, q+1) and (n+1, q).
    """
    va, oa = amplitudes(r_a, n_max)
    vb, ob = amplitudes(r_b, n_max)
    d = n_max + 1
    oa_prev = np.concatenate(([0.0], oa[:-1]))
    ob_prev = np.concatenate(([0.0], ob[:-1]))
    rho = np.zeros((d, d, d, d))
    a, b = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    rho[a, b, a, b] = 0.5 * (np.outer(va**2, vb**2) + np.outer(oa_prev**2, ob_prev**2))
    n, q = np.meshgrid(np.arange(n_max), np.arange(n_max), indexing="ij")
    coupling = 0.5 * np.outer(va[:-1] * oa[:-1], vb[:-1] * ob[:-1])
    if transpose_b:
        rho[n, q + 1, n + 1, q] = coupling
        rho[n + 1, q, n, q + 1] = coupling
    else:
        rho[n, q, n + 1, q + 1] = coupling
        rho[n + 1, q + 1, n, q] = coupling
    return rho.reshape(d * d, d * d)


def rho_a_diagonal(r_a: float, r_b: float, n_max: int) -> np.ndarray:
    """Diagonal of rho_A: (|psi0_B|^2 V_a(m)^2 + |psi1_B|^2 O_a(m-1)^2) / 2."""
    va, oa = amplitudes(r_a, n_max)
    vv_b, oo_b = truncated_norms(r_b, n_max)
    oa_prev = np.concatenate(([0.0], oa[:-1]))
    return 0.5 * (vv_b * va**2 + oo_b * oa_prev**2)


def _entropy_bits(lam: np.ndarray) -> float:
    """Entropy of the positive part of a spectrum, renormalised to trace 1."""
    lam = lam[lam > 0.0]
    lam = lam / lam.sum()
    return max(float(-np.sum(lam * np.log2(lam))), 0.0)


def numeric_columns(r_a: float, r_b: float, n_max: int) -> dict:
    """The oracle's columns at cutoff n_max, from the rebuilt matrices."""
    pt = np.linalg.eigvalsh(rho_ab(r_a, r_b, n_max, transpose_b=True))
    neg = pt[pt < 0.0]
    s_ab = _entropy_bits(np.linalg.eigvalsh(rho_ab(r_a, r_b, n_max)))
    s_a = _entropy_bits(rho_a_diagonal(r_a, r_b, n_max))
    s_b = _entropy_bits(rho_a_diagonal(r_b, r_a, n_max))
    vv_a, oo_a = truncated_norms(r_a, n_max)
    vv_b, oo_b = truncated_norms(r_b, n_max)
    return {
        "neg_sum_num": float(-neg.sum()),
        "e_n_num": 2.0 * abs(float(pt.min())) if pt.min() < 0.0 else 0.0,
        "s_a_num": s_a,
        "s_b_num": s_b,
        "s_ab_num": s_ab,
        "i_num": s_a + s_b - s_ab,
        "trace_deficit": max(1.0 - 0.5 * (vv_a * vv_b + oo_a * oo_b), 0.0),
    }


def s_a_series(r: float, n_max: int) -> float:
    """1 - (1/2) sum p_n log2 p_n - (1/2) sum p'_n log2 p'_n over n = 0..N,
    p_n = tanh^(2n) r / cosh^2 r and p'_n = (n+1) tanh^(2n) r / cosh^4 r."""
    x = math.tanh(r) ** 2
    c2 = math.cosh(r) ** 2
    n = np.arange(n_max + 1, dtype=float)
    total = 1.0
    for p in (x**n / c2, (n + 1.0) * x**n / c2**2):
        p = p[p > 0.0]
        total -= 0.5 * float(np.sum(p * np.log2(p)))
    return total


def s_ab_series(r_a: float, r_b: float, n_max: int) -> float:
    """-sum_{n,q=0..N} P log2 P with P = (w/2)(1 + a^2),
    w = x^n y^q / C and a^2 = (n+1)(q+1) / C, C = cosh^2 r_a cosh^2 r_b."""
    x = math.tanh(r_a) ** 2
    y = math.tanh(r_b) ** 2
    big_c = (math.cosh(r_a) * math.cosh(r_b)) ** 2
    q = np.arange(n_max + 1, dtype=float)
    yq = y**q
    total = 0.0
    rows = max(1, 2_000_000 // (n_max + 1))
    for lo in range(0, n_max + 1, rows):
        n = np.arange(lo, min(lo + rows, n_max + 1), dtype=float)[:, None]
        p = 0.5 * (x**n * yq) / big_c * (1.0 + (n + 1.0) * (q + 1.0) / big_c)
        p = p[p > 0.0]
        total -= float(np.sum(p * np.log2(p)))
    return total
