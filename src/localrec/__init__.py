"""Exact local topological recursion for semisimple canonical data.

Computes the n-point forms of the residue recursion over the rationals,
extracts ancestor correlators, cross-checks them against an independent
intersection-number oracle, and verifies the quadratic-constraint identities
the recursion is equivalent to.
"""

from .correlators import (
    CorrelatorKey,
    CorrelatorTable,
    extract_all,
    extract_correlators,
    insertion_reconstruct_check,
    virasoro_check,
)
from .dvv import dvv_intersection
from .frobenius import (
    CanonicalData,
    DatumError,
    RMatrix,
    airy_datum,
    check_symplectic,
    compute_vkl,
    decoupled_datum,
    random_symplectic_r,
    validate_canonical,
)
from .localforms import (
    FormContext,
    a1_period,
    hrp_check,
    one_point_form,
    ope_normalization_check,
    period_vector,
    propagator_p0,
    recursion_kernel,
    two_point_form,
)
from .recursion import (
    ConsistencyError,
    OmegaTable,
    TruncationOrderError,
    pole_bound,
    stable_entries,
    symmetry_check,
)
from .series import (
    INF,
    MonodromyError,
    MultiForm,
    SeriesError,
    Var,
    WindowError,
    geometric_expand,
    invert,
    monomial,
)

__all__ = [
    "CanonicalData",
    "ConsistencyError",
    "CorrelatorKey",
    "CorrelatorTable",
    "DatumError",
    "FormContext",
    "INF",
    "MonodromyError",
    "MultiForm",
    "OmegaTable",
    "RMatrix",
    "SeriesError",
    "TruncationOrderError",
    "Var",
    "WindowError",
    "a1_period",
    "airy_datum",
    "check_symplectic",
    "compute_vkl",
    "decoupled_datum",
    "dvv_intersection",
    "extract_all",
    "extract_correlators",
    "geometric_expand",
    "hrp_check",
    "insertion_reconstruct_check",
    "invert",
    "monomial",
    "one_point_form",
    "ope_normalization_check",
    "period_vector",
    "pole_bound",
    "propagator_p0",
    "random_symplectic_r",
    "recursion_kernel",
    "stable_entries",
    "symmetry_check",
    "two_point_form",
    "validate_canonical",
    "virasoro_check",
]

__version__ = "0.1.0"
