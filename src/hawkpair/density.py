"""Density-matrix numeric oracle for the exterior pair.

`pair_measures` is the production oracle. Every amplitude of the pair state
sits at (n, n, q, q) or (n, n+1, q, q+1), so rho_AB is a direct sum of
symmetric tridiagonal blocks of constant a - b, its partial transpose on B a
direct sum of tridiagonal blocks of constant a + b, and rho_A, rho_B are
diagonal. The blocks are read off two small matrices built from the mode
amplitudes; nothing of size (N+1)^4 is built. Blocks of about the same
length are padded to a common one with decoupled rows and diagonalised
together, one stacked `eigvalsh` call per padded length, and at a symmetric
point each mirrored pair of rho_AB blocks is solved once.

The brute-force path (`reduced_density`, `partial_trace`,
`partial_transpose`, `mutual_information_numeric` on a `fock` pure state)
builds the full matrices and is kept as the cross-check for the block
oracle. Both share the eigensolver (`eig_symmetric`) and the spectrum
functionals (von Neumann entropy in bits, negativity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import PureState
from .kinematics import SqueezeParam

SYMMETRY_RTOL = 1e-13
EIGENVALUE_CLAMP = 1e-10
# blocks are stacked by length rounded up to this multiple, one eigvalsh call
# per stack; the diagonal of a padding row is PAD_EIGENVALUE
PAD_MULTIPLE = 8
PAD_EIGENVALUE = 2.0


class ConvergenceError(RuntimeError):
    """Raised when a series cutoff cannot be resolved within its cap."""


@dataclass(frozen=True)
class DensityMatrix:
    entries: np.ndarray = field(repr=False)
    subsystem_shape: tuple
    labels: tuple

    def __post_init__(self):
        dim = int(np.prod(self.subsystem_shape))
        if self.entries.shape != (dim, dim):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match subsystem shape "
                f"{self.subsystem_shape}"
            )
        if len(self.labels) != len(self.subsystem_shape):
            raise ValueError("labels and subsystem_shape must have the same length")
        scale = np.max(np.abs(self.entries)) or 1.0
        if np.max(np.abs(self.entries - self.entries.T)) > SYMMETRY_RTOL * scale:
            raise ValueError("density matrix entries are not symmetric")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries))


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: np.ndarray = field(repr=False)
    trace_check: float


@dataclass(frozen=True)
class NegativityResult:
    negative_sum: float
    most_negative: float
    paper_measure: float  # 2 * |most negative eigenvalue|


def reduced_density(state: PureState, keep) -> DensityMatrix:
    """Trace out every mode not in `keep`, directly from the amplitudes.

    rho[i, j] = sum_t psi(i, t) psi(j, t) over traced-out multi-indices t,
    so the full pure-state density matrix is never materialized.
    """
    keep = list(keep)
    if not keep:
        raise ValueError("keep must name at least one mode")
    keep_axes = [state.axis_of(label) for label in keep]
    if len(set(keep_axes)) != len(keep_axes):
        raise ValueError("duplicate labels in keep")
    # canonical order: follow the state's declared mode order
    keep_axes.sort()
    traced_axes = [ax for ax in range(state.mode_count) if ax not in keep_axes]
    d = state.cutoff + 1
    psi = np.transpose(state.amplitudes, keep_axes + traced_axes)
    psi = psi.reshape(d ** len(keep_axes), d ** len(traced_axes))
    rho = psi @ psi.T
    return DensityMatrix(
        entries=rho,
        subsystem_shape=(d,) * len(keep_axes),
        labels=tuple(state.mode_order[ax] for ax in keep_axes),
    )


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace a density matrix down to the named subsystems."""
    keep = list(keep)
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    idx = []
    for label in keep:
        if label not in rho.labels:
            raise KeyError(f"unknown subsystem {label!r}; have {rho.labels}")
        idx.append(rho.labels.index(label))
    idx.sort()
    nsub = len(rho.labels)
    shape = rho.subsystem_shape
    t = rho.entries.reshape(shape + shape)
    traced = [ax for ax in range(nsub) if ax not in idx]
    remaining = list(range(nsub))
    for ax in sorted(traced, reverse=True):
        pos = remaining.index(ax)
        t = np.trace(t, axis1=pos, axis2=pos + len(remaining))
        remaining.remove(ax)
    return DensityMatrix(
        entries=t.reshape(int(np.prod([shape[i] for i in idx])), -1),
        subsystem_shape=tuple(shape[i] for i in idx),
        labels=tuple(rho.labels[i] for i in idx),
    )


def partial_transpose(rho: DensityMatrix, subsystem: str) -> DensityMatrix:
    """Transpose the indices of one subsystem only. Output may be non-positive."""
    if subsystem not in rho.labels:
        raise KeyError(f"unknown subsystem {subsystem!r}; have {rho.labels}")
    k = rho.labels.index(subsystem)
    nsub = len(rho.labels)
    shape = rho.subsystem_shape
    t = rho.entries.reshape(shape + shape)
    t = np.swapaxes(t, k, k + nsub)
    return DensityMatrix(
        entries=t.reshape(rho.dim, rho.dim).copy(),
        subsystem_shape=shape,
        labels=rho.labels,
    )


def eig_symmetric(matrix) -> Spectrum:
    """Ascending eigenvalues of a real symmetric matrix (LAPACK, via numpy)."""
    if isinstance(matrix, DensityMatrix):
        matrix = matrix.entries
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = np.max(np.abs(a)) or 1.0
    if np.max(np.abs(a - a.T)) > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    a = 0.5 * (a + a.T)
    return Spectrum(eigenvalues=np.linalg.eigvalsh(a), trace_check=float(np.trace(a)))


def vn_entropy(spec: Spectrum) -> float:
    """von Neumann entropy in bits from an eigenvalue spectrum.

    Eigenvalues in [-1e-10, 0) are treated as rounding noise and clamped to
    zero; anything more negative signals a non-physical input.
    """
    lam = np.asarray(spec.eigenvalues, dtype=float)
    if np.any(lam < -EIGENVALUE_CLAMP):
        raise ValueError(
            f"eigenvalue {lam.min()} below -{EIGENVALUE_CLAMP}: input is not a physical state"
        )
    lam = lam[lam > 0.0]
    if lam.size == 0:
        return 0.0
    s = float(-np.sum(lam * np.log2(lam)))
    return max(s, 0.0)


def negativity_sum(spec: Spectrum) -> NegativityResult:
    """Negativity data of a partial-transpose spectrum."""
    lam = np.asarray(spec.eigenvalues, dtype=float)
    neg = lam[lam < 0.0]
    most = float(lam.min()) if lam.size else 0.0
    return NegativityResult(
        negative_sum=float(-neg.sum()),
        most_negative=most,
        paper_measure=2.0 * abs(most) if most < 0.0 else 0.0,
    )


def _entropy_bits(eigenvalues) -> float:
    """Entropy in bits of a spectrum's positive part, renormalised to trace 1
    so the truncation deficit does not corrupt it."""
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


def mutual_information_numeric(state: PureState) -> dict:
    """Entropies and mutual information of the exterior pair, numerically.

    Returns {"s_a", "s_b", "s_ab", "mutual_information"} with entropies of
    the trace-renormalized spectra.
    """
    if state.mode_count != 4:
        raise ValueError("mutual information is defined for the 4-mode pair state")
    rho_ab = reduced_density(state, keep=("A_out", "B_out"))
    rho_a = partial_trace(rho_ab, keep=("A_out",))
    rho_b = partial_trace(rho_ab, keep=("B_out",))
    s_ab, s_a, s_b = (_entropy_bits(eig_symmetric(rho).eigenvalues) for rho in (rho_ab, rho_a, rho_b))
    return {
        "s_a": s_a,
        "s_b": s_b,
        "s_ab": s_ab,
        "mutual_information": s_a + s_b - s_ab,
    }


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


def _mode_amplitudes(sq: SqueezeParam, n_max: int):
    """V(k) = t^k / c and O(k) = sqrt(k+1) t^k / c^2 for k = 0..n_max, with
    t = tanh r, c = cosh r and O(n_max) = 0: the vacuum amplitude at (k, k)
    and the one-particle amplitude at (k, k+1) of `fock.kruskal_vacuum` and
    `fock.kruskal_one`, by the same expressions."""
    k = np.arange(n_max + 1)
    v = sq.tanh_r**k / sq.cosh_r
    o = np.append(np.sqrt(k[:-1] + 1.0) * sq.tanh_r ** k[:-1] / sq.cosh_r**2, 0.0)
    return v, o


def _pair_blocks(sq_a: SqueezeParam, sq_b: SqueezeParam, n_max: int):
    """The matrices D (diagonal of rho_AB) and C (its coupling) of `pair_spectra`."""
    va, oa = _mode_amplitudes(sq_a, n_max)
    vb, ob = _mode_amplitudes(sq_b, n_max)
    oa_prev, ob_prev = np.append(0.0, oa[:-1]), np.append(0.0, ob[:-1])
    diag = 0.5 * (np.outer(va**2, vb**2) + np.outer(oa_prev**2, ob_prev**2))
    off = 0.5 * np.outer((va * oa)[:-1], (vb * ob)[:-1])
    return diag, off


def pair_spectra(sq_a: SqueezeParam, sq_b: SqueezeParam, n_max: int) -> tuple:
    """Spectra (rho_AB, rho_AB^{T_B}, rho_A, rho_B) of the exterior pair at
    cutoff n_max, from the block structure of rho_AB.

    With V(k) and O(k) the vacuum and one-particle amplitudes at (k, k) and
    (k, k+1) (O(N) = 0: |N, N+1> is truncated), rho_AB has diagonal
    D[a, b] = (V_a(a)^2 V_b(b)^2 + O_a(a-1)^2 O_b(b-1)^2) / 2 and couples
    (n, q) to (n+1, q+1) by C[n, q] = V_a(n) O_a(n) V_b(q) O_b(q) / 2. The
    partial transpose moves that coupling to (n, q+1)-(n+1, q), so its blocks
    run along the diagonals of the column-flipped D and C. At a symmetric
    point D and C are symmetric (outer(v, v) is, entry for entry), so the
    rho_AB blocks k and -k are equal and are solved once.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    diag, off = _pair_blocks(sq_a, sq_b, n_max)
    trace = float(diag.sum())
    return (
        Spectrum(_block_eigenvalues(diag, off, mirrored=sq_a == sq_b), trace),
        Spectrum(_block_eigenvalues(diag[:, ::-1], off[:, ::-1]), trace),
        Spectrum(diag.sum(axis=1), trace),
        Spectrum(diag.sum(axis=0), trace),
    )


def pair_measures(sq_a: SqueezeParam, sq_b: SqueezeParam, n_max: int) -> dict:
    """The oracle's columns at cutoff n_max: negativity sum, paper measure
    2|lambda_min| of the partial transpose, trace-renormalised entropies,
    mutual information and the truncation trace deficit."""
    ab, pt, a, b = pair_spectra(sq_a, sq_b, n_max)
    neg = negativity_sum(pt)
    s_ab, s_a, s_b = (_entropy_bits(spec.eigenvalues) for spec in (ab, a, b))
    return {
        "neg_sum_num": neg.negative_sum,
        "e_n_num": neg.paper_measure,
        "s_a_num": s_a,
        "s_b_num": s_b,
        "s_ab_num": s_ab,
        "i_num": s_a + s_b - s_ab,
        "trace_deficit": max(1.0 - ab.trace_check, 0.0),
    }
