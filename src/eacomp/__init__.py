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
    irreducible_components,
)
from .ensemble import (
    Ensemble,
    apply_product_unitary,
    cnot_unitary,
    ensemble_from_json,
    ensemble_to_json,
    load_ensemble,
    make_blind,
    make_visible,
    reduced,
    save_ensemble,
    tensor_power,
)
from .errors import (
    ConsistencyError,
    DimensionLimitError,
    EacompError,
    EnsembleFormatError,
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
    optimal_rates,
    visible_rates,
)
from .region import (
    RegionSpec,
    boundary_polyline,
    ce_region,
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
from .states import DensityMatrix, eig_hermitian, entropy_from_probs, von_neumann_entropy
