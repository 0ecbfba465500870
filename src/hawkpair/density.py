"""Density-matrix numeric oracle for the exterior pair.

`pair_measures` gives the oracle's columns exactly at a cutoff N, from the
block structure of rho_AB; nothing of size (N+1)^4 is built.

The blocks. With V(k), O(k) the amplitudes of `fock.mode_amplitudes`,
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

`_pair_blocks` builds D and C once, and one function per column family reads
them: `marginal_entropies` (s_a_num, s_b_num) the row and column sums,
`negativity` (neg_sum_num, e_n_num) the partial-transpose blocks and
`joint_entropy` (s_ab_num, trace_deficit = 1 - tr D) the rho_AB blocks, solved
in stacks of one padded length (`_block_eigenvalues`). Entropies are in bits.
`sweep` keeps the cutoff within NUMERIC_CAP, the oracle's cost limit.
"""

from __future__ import annotations

import numpy as np

from .fock import mode_amplitudes
from .kinematics import SqueezeParam

# largest cutoff the oracle runs at: it diagonalises 4N+2 tridiagonal blocks of
# size up to N+1 (3N+2 at a symmetric point), so its time grows as N^4 (about
# 0.47 s at 200 on one Xeon core, 0.42 s at a symmetric point; fig2's numeric
# columns reach r = 1.65); memory stays O(N^2)
NUMERIC_CAP = 200
EIGENVALUE_CLAMP = 1e-10
# blocks are stacked by length rounded up to this multiple, one eigvalsh call
# per stack; the diagonal of a padding row is PAD_EIGENVALUE
PAD_MULTIPLE = 8
PAD_EIGENVALUE = 2.0


def _entropy_bits(eigenvalues) -> float:
    """Entropy in bits of a spectrum's positive part, renormalised to trace 1
    so the truncation deficit does not corrupt it. Eigenvalues in
    [-EIGENVALUE_CLAMP, 0) are rounding noise; anything more negative is
    refused as non-physical."""
    lam = np.asarray(eigenvalues, dtype=float)
    if np.any(lam < -EIGENVALUE_CLAMP):
        raise ValueError(f"non-physical reduced density: min eigenvalue {lam.min()}")
    lam = lam[lam > 0.0]
    tr = lam.sum()
    if tr <= 0.0:
        return 0.0
    lam = lam / tr
    s = float(-np.sum(lam * np.log2(lam)))
    return s if s > 0.0 else 0.0  # also maps -0.0 to 0.0


def _diagonals(a: np.ndarray, count: int, width: int, fill: float) -> np.ndarray:
    """Row k (k = 0..count-1) holds the diagonal a[j, j + k], left-aligned and
    filled out with `fill` to `width` entries (width >= a's size)."""
    cols = count + width
    skew = np.full((width + 1, cols), fill)
    skew[: a.shape[0], : a.shape[1]] = a
    # reading skew's rows with a stride one longer shifts row j left by j
    return skew.ravel()[: width * (cols + 1)].reshape(width, cols + 1)[:, :count].T


def _block_eigenvalues(diag: np.ndarray, off: np.ndarray, mirrored: bool = False) -> np.ndarray:
    """Eigenvalues of every symmetric tridiagonal block whose diagonal runs
    along a diagonal k = -N..N of `diag` and whose off-diagonal runs along the
    same diagonal of `off` (one row and column smaller), block after block,
    each block's ascending.

    Blocks are solved in stacks, one `eigvalsh` call per padded length (a
    multiple of PAD_MULTIPLE). A padding row is decoupled with diagonal
    PAD_EIGENVALUE, above every eigenvalue a block of rho_AB (in [0, 1]) or
    of its partial transpose (in [-1/2, 1]) can have, so a block's own
    eigenvalues come first in its row. With `mirrored` (`diag` and `off`
    symmetric, so blocks k and -k are equal) only k >= 0 is solved.
    """
    n = diag.shape[0] - 1
    width = -(-(n + 1) // PAD_MULTIPLE) * PAD_MULTIPLE
    d = _diagonals(diag, n + 1, width, PAD_EIGENVALUE)
    c = _diagonals(off, n + 1, width, 0.0)
    if not mirrored:  # block -k is block k of the transposes
        d = np.concatenate((_diagonals(diag.T, n + 1, width, PAD_EIGENVALUE)[:0:-1], d))
        c = np.concatenate((_diagonals(off.T, n + 1, width, 0.0)[:0:-1], c))
    lengths = n + 1 - np.abs(np.arange(0 if mirrored else -n, n + 1))
    padded = -(-lengths // PAD_MULTIPLE) * PAD_MULTIPLE
    spectra = np.full(d.shape, PAD_EIGENVALUE)
    for p in range(PAD_MULTIPLE, width + 1, PAD_MULTIPLE):
        rows = padded == p
        stack = np.zeros((np.count_nonzero(rows), p * p))
        stack[:, :: p + 1] = d[rows, :p]
        stack[:, 1 :: p + 1] = stack[:, p :: p + 1] = c[rows, : p - 1]
        spectra[rows, :p] = np.linalg.eigvalsh(stack.reshape(-1, p, p))
    inside = np.arange(width) < lengths[:, None]
    if np.any(spectra[~inside] != PAD_EIGENVALUE):
        raise ArithmeticError(
            "a padded block has an eigenvalue out of place: the padding no longer "
            "sorts after the block's own spectrum"
        )
    if mirrored:
        spectra, inside = (np.concatenate((x[:0:-1], x)) for x in (spectra, inside))
    return spectra[inside]


def _pair_blocks(sq_a: SqueezeParam, sq_b: SqueezeParam, n_max: int):
    """The matrices D (diagonal of rho_AB) and C (its coupling) of the module
    docstring."""
    va, oa = mode_amplitudes(sq_a, n_max)
    vb, ob = mode_amplitudes(sq_b, n_max)
    oa_prev, ob_prev = np.append(0.0, oa[:-1]), np.append(0.0, ob[:-1])
    diag = 0.5 * (np.outer(va**2, vb**2) + np.outer(oa_prev**2, ob_prev**2))
    off = 0.5 * np.outer((va * oa)[:-1], (vb * ob)[:-1])
    return diag, off


def marginal_entropies(diag: np.ndarray) -> dict:
    """s_a_num and s_b_num: rho_A and rho_B are the row and column sums of D."""
    return {"s_a_num": _entropy_bits(diag.sum(axis=1)), "s_b_num": _entropy_bits(diag.sum(axis=0))}


def negativity(diag: np.ndarray, off: np.ndarray) -> dict:
    """neg_sum_num = -(sum of the partial transpose's negative eigenvalues) and e_n_num = 2|lambda_min|."""
    pt = _block_eigenvalues(diag[:, ::-1], off[:, ::-1])
    return {"neg_sum_num": float(-pt[pt < 0.0].sum()), "e_n_num": max(0.0, -2.0 * float(pt.min()))}


def joint_entropy(diag: np.ndarray, off: np.ndarray, symmetric: bool) -> dict:
    """s_ab_num and trace_deficit = 1 - tr D; a symmetric point solves each mirrored block pair once."""
    ab = _block_eigenvalues(diag, off, mirrored=symmetric)
    return {"s_ab_num": _entropy_bits(ab), "trace_deficit": max(1.0 - float(diag.sum()), 0.0)}


def pair_measures(sq_a: SqueezeParam, sq_b: SqueezeParam, n_max: int) -> dict:
    """The oracle's columns at cutoff n_max: the three families and i_num = s_a + s_b - s_ab."""
    diag, off = _pair_blocks(sq_a, sq_b, n_max)
    columns = {**negativity(diag, off), **marginal_entropies(diag), **joint_entropy(diag, off, sq_a == sq_b)}
    columns["i_num"] = columns["s_a_num"] + columns["s_b_num"] - columns["s_ab_num"]
    return columns
