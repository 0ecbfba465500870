"""Density-matrix numeric oracle for the exterior pair.

`oracle` gives the oracle's columns exactly for a batch of points, each at
its own cutoff N, from the block structure of rho_AB; nothing of size
(N+1)^4 is built. `pair_measures` is its call on one point.

The blocks. With V(k), O(k) the amplitudes of `fock.side_rows`,
O(k) = sqrt(k+1) V(k) / cosh r, so a mode's one-particle state is its
vacuum with a^dag applied to the out mode, over cosh r; a^dag is truncated
at N (a^dag |N> = 0, hence O(N) = 0). The pair state is then
K |vac_A vac_B> / sqrt(2) with K = 1 + a^dag b^dag / (cosh r_a cosh r_b) on
the out modes A and B, and tracing out the in modes leaves

    rho_AB = K (rho_A^th (x) rho_B^th) K^T / 2,   rho^th = diag(V(k)^2).

Expanding K term by term:
- 1 rho^th 1 puts V_a(a)^2 V_b(b)^2 at (a, b);
- a^dag b^dag rho^th b a / (cosh r_a cosh r_b)^2 carries the weight at
  (a-1, b-1) to (a, b) with factor a b / (cosh r_a cosh r_b)^2, which is
  O_a(a-1)^2 O_b(b-1)^2 (O(-1) = 0);
- a^dag b^dag rho^th / (cosh r_a cosh r_b) and its transpose join (n, q)
  and (n+1, q+1) with sqrt((n+1)(q+1)) V_a(n)^2 V_b(q)^2 / (cosh r_a
  cosh r_b) = V_a(n) O_a(n) V_b(q) O_b(q).
So rho_AB has the diagonal D[a, b] = (V_a(a)^2 V_b(b)^2 +
O_a(a-1)^2 O_b(b-1)^2) / 2, the coupling C[n, q] = V_a(n) O_a(n) V_b(q)
O_b(q) / 2 between (n, q) and (n+1, q+1), and nothing else: it is a direct
sum of symmetric tridiagonal blocks of constant a - b, running along the
diagonals of D and C, the outer products of each side's rows V(k)^2,
O(k-1)^2 and V(k) O(k). The partial transpose on B moves each coupling to
(n, q+1)-(n+1, q): its blocks, of constant a + b, are rho_AB's with Bob's
sites q reversed to N - q. rho_A is diagonal, D's rows summed:
p_A(a) = (V_a(a)^2 sum_b V_b(b)^2 + O_a(a-1)^2 sum_b O_b(b-1)^2) / 2, and
rho_B is the same rule with the sides swapped.

Points of one cutoff and symmetry are batched under the budget the series
share (kinematics._batches), a point counted at its largest array, the
(2N+1)(N+1) block diagonals `_block_eigenvalues` gathers. A chunk's
`fock.side_rows` are Alice's `a` and Bob's `b` (`b = a` at a symmetric chunk),
and each column family reads both: `marginal_entropies` (s_a_num, s_b_num)
rho_A's rule on (a, b) and on (b, a), `negativity` (neg_sum_num, e_n_num)
the blocks with Bob's rows reversed and `joint_entropy` (s_ab_num) the
rho_AB blocks. Only `_block_eigenvalues` forms D and C; it solves a chunk's
blocks by their exact length N + 1 - |k|, one `eigvalsh` call per length,
and each point's spectrum is reduced on its own, so its values do not
depend on the batch. trace_deficit = 1 - tr D is taken from the families'
tails (kinematics._trace_deficit), not summed from D: the vacuum's past
n = N, the one particle's past k = N - 1, since O(N) = 0. Entropies are in
bits. `oracle` refuses a cutoff past NUMERIC_CAP, its cost limit, with
NumericCapError before it builds anything.
"""

from __future__ import annotations

import numpy as np

from .fock import side_rows
from .kinematics import SqueezeParam, _batches, _integer, _trace_deficit

# largest cutoff the oracle runs at: a point has 4N+2 tridiagonal blocks of
# size up to N+1 (3N+2 at a symmetric point), and from N = 45 on it is solved
# alone, so its time grows as N^4 (about 0.33 s at 200 on one Xeon core, 0.34 s
# at a symmetric point; fig2's numeric columns reach r = 1.65); memory stays
# O(N^2)
NUMERIC_CAP = 200
EIGENVALUE_CLAMP = 1e-10


class NumericCapError(RuntimeError):
    """Requested numeric cutoff exceeds the oracle's cap."""


def _entropy_bits(eigenvalues) -> float:
    """Entropy in bits of a spectrum's positive part, renormalised to trace 1
    so the truncation deficit does not corrupt it. Eigenvalues in
    [-EIGENVALUE_CLAMP, 0) are rounding noise; anything more negative is
    refused as non-physical."""
    lam = np.asarray(eigenvalues, dtype=float)
    low = lam.min(initial=np.inf)
    if low < -EIGENVALUE_CLAMP:
        raise ValueError(f"non-physical reduced density: min eigenvalue {low}")
    if not low > 0.0:  # also drops NaN
        lam = lam[lam > 0.0]
    tr = lam.sum()
    if tr <= 0.0:
        return 0.0
    lam = lam / tr
    lam *= np.log2(lam)
    s = float(-lam.sum())
    return s if s > 0.0 else 0.0  # also maps -0.0 to 0.0


def _block_eigenvalues(a: tuple, b: tuple) -> np.ndarray:
    """Eigenvalues of every block of the pairs with Alice's rows `a` and Bob's
    rows `b` (`fock.side_rows` of the same points), each point's a C-contiguous
    row of the result, block after block, each block's ascending. D and C are
    formed here, as outer products of the sides, and block k = -N..N runs
    along their diagonal k: its entry j is read at (j + max(-k, 0), j + max(k, 0)).

    Blocks are solved by their exact length N + 1 - |k|, one `eigvalsh` call
    per length for blocks -k and k of all points. When `b is a`, D and C are
    symmetric, so blocks k and -k are equal and only k >= 0 is solved."""
    (v2_a, o2_a, vo_a), (v2_b, o2_b, vo_b) = a, b
    diag = 0.5 * (v2_a[:, :, None] * v2_b[:, None, :] + o2_a[:, :, None] * o2_b[:, None, :])
    off = 0.5 * (vo_a[:, :, None] * vo_b[:, None, :])
    n = diag.shape[-1] - 1
    # row k + n of d and c holds block k, its indices clipped past its end
    ks = np.arange(-n, n + 1)[:, None]
    rows, cols = np.arange(n + 1) + np.maximum(-ks, 0), np.arange(n + 1) + np.maximum(ks, 0)
    d = diag[..., np.minimum(rows, n), np.minimum(cols, n)]
    c = off[..., np.minimum(rows[:, :-1], n - 1), np.minimum(cols[:, :-1], n - 1)]
    solved = []
    for size in range(1, n + 2):
        k = n + 1 - size
        at = slice(n + k, n + k + 1) if b is a or not k else slice(n - k, n + k + 1, 2 * k)
        blocks = d[..., at, :size]
        stack = np.zeros(blocks.shape + (size,))
        # eigvalsh reads the lower triangle only
        flat = stack.reshape(blocks.shape[:-1] + (-1,))
        flat[..., :: size + 1] = blocks
        flat[..., size :: size + 1] = c[..., at, : size - 1]
        solved.append(np.linalg.eigvalsh(stack))
    # blocks -N..0 are the first of each length, ascending; blocks 1..N the last, descending
    return np.concatenate([lam[..., 0, :] for lam in solved] + [lam[..., -1, :] for lam in solved[-2::-1]], axis=-1)


def marginal_entropies(a: tuple, b: tuple) -> list:
    """Each point's s_a_num and s_b_num by rho_A's rule (O(N)) on (a, b) and on
    (b, a): swapping Alice and Bob swaps the two values bit for bit."""
    rho_a, rho_b = (
        0.5 * (v2 * w2.sum(axis=-1)[:, None] + o2 * p2.sum(axis=-1)[:, None])
        for (v2, o2, _), (w2, p2, _) in ((a, b), (b, a))
    )
    return [{"s_a_num": _entropy_bits(x), "s_b_num": _entropy_bits(y)} for x, y in zip(rho_a, rho_b)]


def negativity(a: tuple, b: tuple) -> list:
    """Each point's neg_sum_num = -(sum of the partial transpose's negative
    eigenvalues) and e_n_num = 2|lambda_min|: the blocks with Bob's sites reversed."""
    return [
        {"neg_sum_num": max(0.0, float(-pt[pt < 0.0].sum())), "e_n_num": max(0.0, -2.0 * float(pt.min()))}
        for pt in _block_eigenvalues(a, tuple(x[:, ::-1] for x in b))
    ]


def joint_entropy(a: tuple, b: tuple) -> list:
    """Each point's s_ab_num; with `b is a`, each mirrored block pair is solved once."""
    return [{"s_ab_num": _entropy_bits(ab)} for ab in _block_eigenvalues(a, b)]


def oracle(points) -> list:
    """The oracle's columns at each of a list of (sq_a, sq_b, n_max) points:
    the three families, i_num = s_a + s_b - s_ab and trace_deficit. Before
    anything is built, each cutoff must be an integer of at least 1 (else
    ValueError) and at most NUMERIC_CAP (else NumericCapError). Points of one
    cutoff and symmetry are solved together, in kinematics._batches chunks of
    (2N + 1)(N + 1) floats a point (18 points at N = 14, one from N = 45 on);
    a point's values do not depend on the others."""
    keys = []
    for sq_a, sq_b, n_max in points:
        n_max = _integer(n_max, "n_max")
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        if n_max > NUMERIC_CAP:
            raise NumericCapError(
                f"numeric method needs cutoff {n_max}, above the oracle cap of "
                f"{NUMERIC_CAP} (its time grows as N_max^4)"
            )
        keys.append((n_max, sq_a == sq_b))
    out: list = [None] * len(points)
    for chunk in _batches(keys, lambda key: (2 * key[0] + 1) * (key[0] + 1)):
        n_max, symmetric = keys[chunk[0]]
        a = side_rows([points[i][0] for i in chunk], n_max)
        b = a if symmetric else side_rows([points[i][1] for i in chunk], n_max)
        families = zip(negativity(a, b), marginal_entropies(a, b), joint_entropy(a, b))
        for i, (neg, marg, joint) in zip(chunk, families):
            out[i] = {**neg, **marg, **joint, "i_num": marg["s_a_num"] + marg["s_b_num"] - joint["s_ab_num"]}
            out[i]["trace_deficit"] = _trace_deficit(*points[i][:2], n_max + 1, n_max)
    return out


def pair_measures(sq_a: SqueezeParam, sq_b: SqueezeParam, n_max: int) -> dict:
    """The oracle's columns at one point: `oracle` of that point alone."""
    return oracle([(sq_a, sq_b, n_max)])[0]
