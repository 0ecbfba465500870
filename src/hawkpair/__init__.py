"""Entanglement degradation of a bosonic pair outside a Schwarzschild horizon.

Closed-form entanglement and entropy measures driven by the squeezing
parameter r = artanh(exp(-4 pi M omega)), cross-validated against an
exact density-matrix oracle at a truncated Fock-space cutoff.
"""

from .closed_form import (
    ConvergenceError,
    SeriesConfig,
    e_n_paper,
    mutual_info_closed,
    resolve_cutoff,
    s_a_closed,
    s_ab_closed,
    s_b_closed,
)
from .density import pair_measures
from .kinematics import ModeSpec, SqueezeParam, make_squeeze, mass_from_squeezing, squeezing_from_mode
from .sweep import (
    ComparisonReport,
    EntanglementReport,
    NumericCapError,
    SweepConfig,
    compare_closed_vs_numeric,
    emit_rows,
    run_point,
    run_sweep,
)

__version__ = "0.1.0"
