"""Fock-space amplitudes of the Kruskal modes.

Each horizon mode pairs an inside (in) and an outside (out) occupation.
Truncated at N_max (occupations 0..N_max per mode), its vacuum is the
two-mode squeezed state sum_k V(k) |k>_in |k>_out and its one-particle
state sum_k O(k) |k>_in |k+1>_out; the pair state is
(vac_A vac_B + one_A one_B) / sqrt(2). All amplitudes are real.
"""

from __future__ import annotations

import numpy as np

from .kinematics import SqueezeParam


def mode_amplitudes(sq: SqueezeParam, n_max: int):
    """V(k) = t^k / c and O(k) = sqrt(k+1) t^k / c^2 for k = 0..n_max, with
    t = tanh r and c = cosh r. O(n_max) = 0: |n_max + 1>_out is truncated,
    so n_max must be at least 1 for the one-particle state to exist."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    k = np.arange(n_max + 1)
    v = sq.tanh_r**k / sq.cosh_r
    o = np.append(np.sqrt(k[:-1] + 1.0) * sq.tanh_r ** k[:-1] / sq.cosh_r**2, 0.0)
    return v, o
