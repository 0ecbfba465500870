"""Brute-force reference for the pair oracle: the full (N+1)^4 pair state,
reduced and partially transposed as dense matrices, solved by
`np.linalg.eigvalsh`.

The dense pair state shares nothing with the library: its amplitudes V and O
are taken from their formula (`mode_amplitudes`), not from `hawkpair.fock`,
and it has no D or C, no diagonal reads, no padding. A pair state's axes are
[A_in, A_out, B_in, B_out]. For the block tests, `pair_blocks` gives one
point's D and C of `hawkpair.density`'s docstring by np.outer of each side's
rows taken term by term (`rows_term_by_term`), not by `fock.side_rows`.
"""

from decimal import Decimal

import numpy as np

from hawkpair.kinematics import make_squeeze

IN_PAIR, OUT_PAIR = (0, 2), (1, 3)


def mode_amplitudes(sq, n_max):
    """V(k) = t^k / c and O(k) = sqrt(k+1) t^k / c^2 for k = 0..N, t = tanh r
    and c = cosh r, term by term; O(N) = 0, as |N + 1>_out is truncated."""
    k = np.arange(n_max + 1)
    v = sq.tanh_r**k / sq.cosh_r
    return v, np.append(np.sqrt(k[:-1] + 1.0) * sq.tanh_r ** k[:-1] / sq.cosh_r**2, 0.0)


def kruskal_states(r, n_max):
    """The (in, out) amplitude matrices of a mode's vacuum and one-particle state."""
    v, o = mode_amplitudes(make_squeeze(r), n_max)
    return np.diag(v), np.diag(o[:-1], 1)


def pair_state(r_a, r_b, n_max):
    """(vac_A vac_B + one_A one_B) / sqrt(2)."""
    (vac_a, one_a), (vac_b, one_b) = kruskal_states(r_a, n_max), kruskal_states(r_b, n_max)
    return (np.einsum("ab,cd->abcd", vac_a, vac_b) + np.einsum("ab,cd->abcd", one_a, one_b)) / np.sqrt(2.0)


def rows_term_by_term(sq, n_max):
    """One side's rows V(k)^2, O(k-1)^2 (O(-1) = 0) and V(k) O(k) (k < N), from
    `mode_amplitudes`."""
    v, o = mode_amplitudes(sq, n_max)
    return v**2, np.append(0.0, o[:-1]) ** 2, (v * o)[:-1]


def pair_blocks(sq_a, sq_b, n_max):
    """D (the diagonal of rho_AB) and C (its coupling) of one point, by np.outer
    of the two sides' `rows_term_by_term`."""
    (va2, oa2, voa), (vb2, ob2, vob) = rows_term_by_term(sq_a, n_max), rows_term_by_term(sq_b, n_max)
    return 0.5 * (np.outer(va2, vb2) + np.outer(oa2, ob2)), 0.5 * np.outer(voa, vob)


def reduce(psi, keep):
    """Density matrix of the modes on the axes `keep` (ascending)."""
    rest = [ax for ax in range(psi.ndim) if ax not in keep]
    m = np.transpose(psi, [*keep, *rest]).reshape(psi.shape[0] ** len(keep), -1)
    return m @ m.T


def partial_transpose(rho):
    """A matrix over two equal subsystems, transposed on the second."""
    d = round(np.sqrt(rho.shape[0]))
    return rho.reshape(d, d, d, d).swapaxes(1, 3).reshape(rho.shape)


def entropy_bits(lam):
    """Entropy in bits of a spectrum's positive part, renormalised to trace 1."""
    lam = lam[lam > 0.0] / lam[lam > 0.0].sum()
    return float(-np.sum(lam * np.log2(lam)))


def measures(psi):
    """The oracle's seven columns of a four-mode state, with the spectra of
    its rho_AB and of rho_AB's partial transpose on B, both ascending."""
    rho_ab = reduce(psi, OUT_PAIR)
    ab, pt = np.linalg.eigvalsh(rho_ab), np.linalg.eigvalsh(partial_transpose(rho_ab))
    s_a, s_b = (entropy_bits(np.linalg.eigvalsh(reduce(psi, (ax,)))) for ax in OUT_PAIR)
    s_ab = entropy_bits(ab)
    columns = {
        "neg_sum_num": float(-pt[pt < 0.0].sum()),
        "e_n_num": max(-2.0 * float(pt[0]), 0.0),
        "s_a_num": s_a,
        "s_b_num": s_b,
        "s_ab_num": s_ab,
        "i_num": s_a + s_b - s_ab,
        "trace_deficit": max(1.0 - float(np.trace(rho_ab)), 0.0),
    }
    return columns, ab, pt


def decimal_tanh2(r):
    """tanh^2 r of the float r, in the current decimal context."""
    e = (2 * Decimal(r)).exp()
    return ((e - 1) / (e + 1)) ** 2


def within_last_digit(value, exact) -> bool:
    """Whether value printed as %.11e is within one unit of its last digit of exact."""
    printed = f"{value:.11e}"
    return abs(Decimal(printed) - exact) <= Decimal(10) ** (int(printed.split("e")[1]) - 11)
