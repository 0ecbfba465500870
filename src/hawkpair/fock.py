"""Fock-space amplitudes of the Kruskal modes.

Each horizon mode pairs an inside (in) and an outside (out) occupation.
Truncated at N_max (occupations 0..N_max per mode), its vacuum is the
two-mode squeezed state sum_k V(k) |k>_in |k>_out and its one-particle
state sum_k O(k) |k>_in |k+1>_out; the pair state is
(vac_A vac_B + one_A one_B) / sqrt(2). All amplitudes are real.
"""

from __future__ import annotations

import numpy as np


def side_rows(squeezings, n_max: int) -> tuple:
    """One side's rows, one per squeezing: V(k)^2, O(k-1)^2 and V(k) O(k) for
    k < N, with V(k) = t^k / c and O(k) = sqrt(k+1) t^k / c^2, t = tanh r and
    c = cosh r. O(-1) = 0, and O(N) = 0: |N + 1>_out is truncated (the oracle
    checks N >= 1, so the one-particle state exists)."""
    k = np.arange(n_max + 1)
    # c^2 by Python's float power, which numpy's c * c can miss by an ulp
    t, c, c2 = np.array([(sq.tanh_r, sq.cosh_r, sq.cosh_r**2) for sq in squeezings]).T[..., None]
    tk = t**k
    v, o = tk / c, np.sqrt(k[:-1] + 1.0) * tk[:, :-1] / c2
    o_prev2 = np.zeros(tk.shape)
    o_prev2[:, 1:] = o**2
    return v**2, o_prev2, v[:, :-1] * o
