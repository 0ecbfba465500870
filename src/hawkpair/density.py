"""Density-matrix numeric oracle for the exterior pair.

`oracle` gives the oracle's columns exactly for a batch of points, each at
its own cutoff N, from the block structure of rho_AB; nothing of size
(N+1)^4 is built. `pair_measures` is its call on one point.

The blocks. With V(k), O(k) the amplitudes of `fock.amplitude_rows`,
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
diagonals of D and C. The partial transpose on B moves each coupling to
(n, q+1)-(n+1, q), so its blocks have constant a + b and run along the
diagonals of the column-flipped D and C. rho_A and rho_B are diagonal: the
row and column sums of D.

Points of one cutoff and symmetry are grouped, in chunks that keep every
eigensolver stack within STACK_BUDGET, and each chunk is set up once:
`_stacked_blocks` builds the D and C of all its points in one broadcast,
and one function per column family reads the stack: `marginal_entropies`
(s_a_num, s_b_num) the row and column sums, `negativity` (neg_sum_num,
e_n_num) the partial-transpose blocks and `joint_entropy` (s_ab_num,
trace_deficit = 1 - tr D) the rho_AB blocks. The blocks of all points of a chunk are solved together, one
`eigvalsh` call per padded length (`_block_eigenvalues`), through a plan of
where each block is read and written that depends only on (N, mirrored)
(`_block_plan`): `oracle` works out each plan once per group and drops it
when the call returns. Each point's spectrum is then reduced on its own,
so its values do not depend on the batch. Entropies are in bits. `sweep`
keeps the cutoff within NUMERIC_CAP, the oracle's cost limit.
"""

from __future__ import annotations

import numpy as np

from .fock import amplitude_rows
from .kinematics import SqueezeParam

# largest cutoff the oracle runs at: a point has 4N+2 tridiagonal blocks of
# size up to N+1 (3N+2 at a symmetric point), and from N = 32 on it is solved
# alone, so its time grows as N^4 (about 0.45 s at 200 on one Xeon core, 0.40 s
# at a symmetric point; fig2's numeric columns reach r = 1.65); memory stays
# O(N^2)
NUMERIC_CAP = 200
EIGENVALUE_CLAMP = 1e-10
# blocks are stacked by length rounded up to this multiple, one eigvalsh call
# per stack; the diagonal of a padding row is PAD_EIGENVALUE
PAD_MULTIPLE = 8
PAD_EIGENVALUE = 2.0
# bytes the stacks of one eigvalsh call may take: a chunk of points of one
# cutoff is cut to fit (17 points at N = 14; from N = 32 on, one point)
STACK_BUDGET = 1 << 20


class PaddingError(ArithmeticError):
    """A padded block's eigenvalues did not sort after the block's own."""


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


def _block_plan(n: int, mirrored: bool) -> tuple:
    """Where `_block_eigenvalues` reads and writes the blocks of an
    (n+1) x (n+1) `diag`, which depends only on (n, mirrored): the row length
    `size` of the margin-padded matrices; per padded length p, the flat
    indices into them of each block's diagonal, a row per block padded to p;
    the length of the flat spectrum these stacks fill; and the indices in it
    of the blocks' own eigenvalues (k = -n..n, each block's ascending) and of
    the padding's."""
    # a padding entry lies under PAD_MULTIPLE steps past the last row or
    # column: a margin that wide holds it, the same for both matrices
    size = n + 1 + PAD_MULTIPLE
    k = np.arange(0 if mirrored else -n, n + 1)
    lengths = n + 1 - np.abs(k)
    padded = -(-lengths // PAD_MULTIPLE) * PAD_MULTIPLE
    start = np.maximum(-k, 0) * size + np.maximum(k, 0)
    stacks, slot, total = [], np.empty(k.size, dtype=np.intp), 0
    for p in range(PAD_MULTIPLE, padded.max() + 1, PAD_MULTIPLE):
        rows = np.flatnonzero(padded == p)
        stacks.append((p, start[rows, None] + np.arange(p) * (size + 1)))
        slot[rows] = total + np.arange(rows.size) * p
        total += rows.size * p
    entry = np.arange(padded.max())
    pad = (slot[:, None] + entry)[(entry >= lengths[:, None]) & (entry < padded[:, None])]
    # output block k is solved as row |k| when mirrored
    k_out = np.arange(-n, n + 1)
    row = np.abs(k_out) if mirrored else k_out + n
    own = (slot[row, None] + entry)[entry < (n + 1 - np.abs(k_out))[:, None]]
    return size, tuple(stacks), total, own, pad


def _block_eigenvalues(diag: np.ndarray, off: np.ndarray, mirrored: bool = False, plan=None) -> np.ndarray:
    """Eigenvalues of every symmetric tridiagonal block whose diagonal runs
    along a diagonal k = -N..N of `diag` and whose off-diagonal runs along the
    same diagonal of `off` (one row and column smaller), block after block,
    each block's ascending: entry j of block k is read at
    (j + max(-k, 0), j + max(k, 0)). `diag` and `off` may carry leading point
    axes; each point's spectrum is a C-contiguous row of the result.

    Blocks of all points are solved in stacks, one `eigvalsh` call per padded
    length (a multiple of PAD_MULTIPLE). A padding row is decoupled with
    diagonal PAD_EIGENVALUE, above every eigenvalue a block of rho_AB (in
    [0, 1]) or of its partial transpose (in [-1/2, 1]) can have, so a block's
    own eigenvalues come first in its row. With `mirrored` (`diag` and `off`
    symmetric, so blocks k and -k are equal) only k >= 0 is solved. Where
    each block is read and its eigenvalues go is `plan`, `_block_plan` of
    (N, mirrored), worked out here unless the caller passes it.
    """
    lead, n = diag.shape[:-2], diag.shape[-1] - 1
    size, stacks, total, own, pad = plan or _block_plan(n, mirrored)
    d = np.full(lead + (size, size), PAD_EIGENVALUE)
    d[..., : n + 1, : n + 1] = diag
    c = np.zeros(lead + (size, size))
    c[..., :n, :n] = off
    d, c = d.reshape(lead + (-1,)), c.reshape(lead + (-1,))
    spectra = np.empty(lead + (total,))
    lo = 0
    for p, at in stacks:
        stack = np.zeros(lead + (at.shape[0], p * p))
        stack[..., :: p + 1] = d[..., at]
        stack[..., 1 :: p + 1] = stack[..., p :: p + 1] = c[..., at[:, :-1]]
        spectra[..., lo : lo + at.size] = np.linalg.eigvalsh(stack.reshape(-1, p, p)).reshape(lead + (-1,))
        lo += at.size
    if np.any(spectra[..., pad] != PAD_EIGENVALUE):
        raise PaddingError(
            "a padded block has an eigenvalue out of place: the padding no longer "
            "sorts after the block's own spectrum"
        )
    # a row of a[..., index] is strided, np.take's is not
    return np.take(spectra, own, axis=-1)


def _stacked_blocks(pairs, n_max: int):
    """The matrices D (diagonal of rho_AB) and C (its coupling) of the module
    docstring for each of a list of (sq_a, sq_b) pairs, stacked on a leading
    point axis and built in one broadcast."""
    v, o = (x.reshape(-1, 2, n_max + 1) for x in amplitude_rows([sq for pair in pairs for sq in pair], n_max))
    v2 = v**2
    o_prev2 = np.zeros(o.shape)
    o_prev2[..., 1:] = o[..., :-1] ** 2
    vo = (v * o)[..., :-1]
    diag = 0.5 * (v2[:, 0, :, None] * v2[:, 1, None, :] + o_prev2[:, 0, :, None] * o_prev2[:, 1, None, :])
    off = 0.5 * (vo[:, 0, :, None] * vo[:, 1, None, :])
    return diag, off


def marginal_entropies(diag: np.ndarray) -> list:
    """Each point's s_a_num and s_b_num: the row and column sums of its D are rho_A and rho_B."""
    return [
        {"s_a_num": _entropy_bits(a), "s_b_num": _entropy_bits(b)}
        for a, b in zip(diag.sum(axis=-1), diag.sum(axis=-2))
    ]


def negativity(diag: np.ndarray, off: np.ndarray, plan=None) -> list:
    """Each point's neg_sum_num = -(sum of the partial transpose's negative eigenvalues) and e_n_num = 2|lambda_min|;
    `plan` is `_block_plan` of (N, False)."""
    return [
        {"neg_sum_num": max(0.0, float(-pt[pt < 0.0].sum())), "e_n_num": max(0.0, -2.0 * float(pt.min()))}
        for pt in _block_eigenvalues(diag[..., ::-1], off[..., ::-1], plan=plan)
    ]


def joint_entropy(diag: np.ndarray, off: np.ndarray, symmetric: bool, plan=None) -> list:
    """Each point's s_ab_num and trace_deficit = 1 - tr D; symmetric points solve each mirrored block pair once.
    `plan` is `_block_plan` of (N, symmetric)."""
    return [
        {"s_ab_num": _entropy_bits(ab), "trace_deficit": max(1.0 - float(d.sum()), 0.0)}
        for d, ab in zip(diag, _block_eigenvalues(diag, off, mirrored=symmetric, plan=plan))
    ]


def oracle(points) -> list:
    """The oracle's columns at each of a list of (sq_a, sq_b, n_max) points:
    the three families and i_num = s_a + s_b - s_ab. Points of one cutoff and
    symmetry are solved together, in chunks whose partial-transpose stacks
    (2N + 1 blocks a point, each at most the padded width) fit STACK_BUDGET,
    or one point alone; a point's values do not depend on the others. A
    group's block plans are worked out once and serve all its chunks; the
    partial transpose and an asymmetric rho_AB share one."""
    groups: dict = {}
    for i, (sq_a, sq_b, n_max) in enumerate(points):
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        groups.setdefault((n_max, sq_a == sq_b), []).append(i)
    out: list = [None] * len(points)
    for (n_max, symmetric), members in groups.items():
        width = -(-(n_max + 1) // PAD_MULTIPLE) * PAD_MULTIPLE
        step = max(1, STACK_BUDGET // (8 * (2 * n_max + 1) * width * width))
        pt_plan = _block_plan(n_max, False)
        ab_plan = _block_plan(n_max, True) if symmetric else pt_plan
        for lo in range(0, len(members), step):
            chunk = members[lo : lo + step]
            diag, off = _stacked_blocks([points[i][:2] for i in chunk], n_max)
            families = zip(
                negativity(diag, off, pt_plan), marginal_entropies(diag), joint_entropy(diag, off, symmetric, ab_plan)
            )
            for i, (neg, marg, joint) in zip(chunk, families):
                out[i] = {**neg, **marg, **joint, "i_num": marg["s_a_num"] + marg["s_b_num"] - joint["s_ab_num"]}
    return out


def pair_measures(sq_a: SqueezeParam, sq_b: SqueezeParam, n_max: int) -> dict:
    """The oracle's columns at one point: `oracle` of that point alone."""
    return oracle([(sq_a, sq_b, n_max)])[0]
