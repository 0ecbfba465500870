"""Brute-force reference for the pair oracle: the full (N+1)^4 pair state,
reduced and partially transposed as dense matrices, solved by
`np.linalg.eigvalsh`.

It shares nothing with the block structure of `hawkpair.density`: no D or C,
no diagonal reads, no padding. A pair state's axes are
[A_in, A_out, B_in, B_out].
"""

import numpy as np

from hawkpair.fock import mode_amplitudes
from hawkpair.kinematics import make_squeeze

IN_PAIR, OUT_PAIR = (0, 2), (1, 3)


def kruskal_states(r, n_max):
    """The (in, out) amplitude matrices of a mode's vacuum and one-particle state."""
    v, o = mode_amplitudes(make_squeeze(r), n_max)
    return np.diag(v), np.diag(o[:-1], 1)


def pair_state(r_a, r_b, n_max):
    """(vac_A vac_B + one_A one_B) / sqrt(2)."""
    (vac_a, one_a), (vac_b, one_b) = kruskal_states(r_a, n_max), kruskal_states(r_b, n_max)
    return (np.einsum("ab,cd->abcd", vac_a, vac_b) + np.einsum("ab,cd->abcd", one_a, one_b)) / np.sqrt(2.0)


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
