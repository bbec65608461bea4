"""reeb_lab: desk-scale calculus for Reeb dynamics on spheres.

Symplectic index arithmetic, unipotent normal-form invariants, radial
Hamiltonian action functions, integer recurrence search for iterate indices,
reduced Floer graphs with persistence barcodes, closed-form ellipsoid models
and the planar fixed-point bookkeeping, wired together by a batch CLI.
"""

__version__ = "0.1.0"

from . import errors
from .symplectic import (
    SymplecticMatrix,
    WilliamsonInvariants,
    direct_sum,
    hyperbolic2,
    quadratic_flow,
    random_symplectic,
    rotation2,
    spectral_classification,
    standard_form,
    validate_symplectic,
    williamson_invariants,
)
from .indices import (
    IndexTriple,
    IterationProfile,
    check_dynamical_convexity,
    cz_index_sampled,
    index_triple,
    rotation_path,
    stretch_path,
    support_interval,
)
from .hamiltonian import (
    CylinderTrace,
    RadialProfile,
    action_from_period,
    action_inverse,
    action_tables,
    build_profile,
    check_action_ratio_monotone,
    check_cylinder_trace,
    compare_action_functions,
    crossing_energy_floor,
    homotopy_action_derivative,
    min_level_bound,
    profile_from_json,
    transfer_map,
)
from .ellipsoid import (
    EllipsoidSpec,
    action_spectrum,
    ellipsoid_periods,
    ellipsoid_profile,
    pseudo_rotation_instance,
    slope_valid,
)
from .recurrence import (
    RecurrenceQuery,
    RecurrenceSolution,
    convexity_gap_check,
    recurrence_search,
    verify_recurrence,
)
from .floergraph import (
    Bar,
    FilteredComplex,
    GraphArrow,
    GraphVertex,
    ReducedFloerGraph,
    barcode,
    check_bar_lengths,
    validate_graph,
)
from .audit import (
    AuditReport,
    OrbitSystem,
    SystemOrbit,
    audit,
    case_classify,
    exclusion_certificate,
    resonance_classify,
)
from .fixedpoint import (
    PlanarMapSample,
    brouwer_index,
    brouwer_index_of_map,
    lefschetz_residuals,
    trace_nonneg_scan,
)

__all__ = [name for name in dir() if not name.startswith("_")]
