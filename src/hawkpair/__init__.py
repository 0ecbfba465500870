"""Entanglement degradation of a bosonic pair outside a Schwarzschild horizon.

Closed-form entanglement and entropy measures driven by the squeezing
parameter r = artanh(exp(-4 pi M omega)), cross-validated against an
exact density-matrix oracle at a truncated Fock-space cutoff.
"""

from .closed_form import (
    SeriesConfig,
    block_matrix,
    block_pt_eigenvalues,
    e_n_paper,
    mutual_info_closed,
    resolve_cutoff,
    s_a_closed,
    s_ab_closed,
    s_b_closed,
)
from .density import (
    ConvergenceError,
    DensityMatrix,
    NegativityResult,
    Spectrum,
    eig_symmetric,
    mutual_information_numeric,
    negativity_sum,
    pair_measures,
    pair_spectra,
    partial_trace,
    partial_transpose,
    reduced_density,
    vn_entropy,
)
from .fock import (
    PureState,
    entangled_pair_state,
    flatten,
    kruskal_one,
    kruskal_vacuum,
    squared_norm,
    unflatten,
)
from .kinematics import ModeSpec, SqueezeParam, make_squeeze, mass_from_squeezing, squeezing_from_mode
from .sweep import (
    ComparisonReport,
    EntanglementReport,
    NumericCapError,
    SweepConfig,
    compare_closed_vs_numeric,
    emit_csv,
    emit_json,
    emit_rows,
    run_point,
    run_sweep,
)

__version__ = "0.1.0"
