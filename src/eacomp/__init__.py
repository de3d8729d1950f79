"""Optimal compression of pure-state quantum sources with encoder side
information: irreducible decompositions, rate formulas and regions, a
finite-blocklength simulator, and a certified estimator of extractable
label information."""

__version__ = "0.1.0"

from ._accel import NUMBA_AVAILABLE, active_backend
from .decomposition import (
    DEFAULT_OVERLAP_TOL,
    Component,
    Decomposition,
    extend_with_y,
    irreducible_components,
    is_irreducible,
    overlap_graph,
)
from .ensemble import (
    Ensemble,
    EnsembleItem,
    SourceState,
    apply_product_unitary,
    cnot_unitary,
    ensemble_from_json,
    ensemble_to_json,
    load_ensemble,
    make_blind,
    make_visible,
    reduced,
    require_valid,
    save_ensemble,
    source_state,
    tensor_power,
    validate,
)
from .errors import (
    ConsistencyError,
    DimensionLimitError,
    EacompError,
    EnsembleFormatError,
    InfeasibleConversionError,
    IsometryError,
    LabelError,
    LayoutMismatchError,
    NotAStateError,
)
from .iepsilon import (
    IEpsilonEstimate,
    IsometrySearchConfig,
    LemmaReport,
    check_lemma_properties,
    estimate_grid,
    estimate_i_epsilon,
    i_zero_bounds,
    identity_isometry,
    objective,
)
from .rates import (
    Analysis,
    EntropyProfile,
    RatePoint,
    analyze,
    blind_rates,
    classical_entanglement_corner,
    entropy_profile,
    gram_matrix,
    optimal_rates,
    resource_convert,
    visible_rates,
)
from .region import (
    RegionSpec,
    boundary_polyline,
    ce_contains,
    ce_region,
    eq_contains,
    eq_region,
    polyline_csv,
)
from .schumacher import (
    CodeSpace,
    FidelityCurve,
    build_code_space,
    code_rank,
    fidelity_curve,
    simulate_fidelity,
)
from .states import (
    DensityMatrix,
    PureStateVector,
    SubsystemLayout,
    apply_isometry,
    basis_state,
    eig_hermitian,
    entropy_from_probs,
    fidelity,
    partial_trace,
    pure_fidelity,
    single,
    tensor,
    von_neumann_entropy,
)
