"""Deposition-evaporation surface growth encoded into 2D lattice states."""

from .params import ModelParams
from .surface import (
    event_table,
    horizon_profile,
    local_shape,
)
from .codec import (
    LatticeConfig,
    key_to_config,
)
from .exact import (
    SparseState,
    build_state,
    enumerate_bridge,
    export_state_text,
    load_state,
    save_state,
    success_probability,
)
from .entropy import (
    EntropyReport,
    SurfaceDistribution,
    entropy_dp,
    entropy_exact,
    entropy_formula,
    fit_power_law,
    mid_cut_row,
    midcut_distribution,
    schmidt_spectrum,
)
from .hamiltonian import (
    DeformationState,
    LocalTerm,
    apply_operator,
    assemble_hamiltonian,
    build_boundary_terms,
    build_color_term,
    build_deformation_state,
    build_gauss_term,
    sector_spectrum,
    term_residuals,
)
from .seqgen import (
    fidelity,
    local_channel,
    run_generation,
)
from .scaling import (
    ObservableSeries,
    ensemble,
    exponent_report,
    saturation_time,
)

__version__ = "0.1.0"
