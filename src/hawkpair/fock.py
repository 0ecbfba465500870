"""Fock-space amplitudes of the Kruskal modes.

Each horizon mode pairs an inside (in) and an outside (out) occupation.
Truncated at N_max (occupations 0..N_max per mode), its vacuum is the
two-mode squeezed state sum_k V(k) |k>_in |k>_out and its one-particle
state sum_k O(k) |k>_in |k+1>_out; the pair state is
(vac_A vac_B + one_A one_B) / sqrt(2). All amplitudes are real.
"""

from __future__ import annotations

import numpy as np


def amplitude_rows(squeezings, n_max: int):
    """V(k) = t^k / c and O(k) = sqrt(k+1) t^k / c^2 for k = 0..n_max, with
    t = tanh r and c = cosh r, one row per squeezing. O(n_max) = 0:
    |n_max + 1>_out is truncated (the oracle checks n_max >= 1, so the
    one-particle state exists)."""
    k = np.arange(n_max + 1)
    # c^2 by Python's float power, which numpy's c * c can miss by an ulp
    t, c, c2 = np.array([(sq.tanh_r, sq.cosh_r, sq.cosh_r**2) for sq in squeezings]).T[..., None]
    tk = t**k
    o = np.zeros(tk.shape)
    o[:, :-1] = np.sqrt(k[:-1] + 1.0) * tk[:, :-1] / c2
    return tk / c, o
