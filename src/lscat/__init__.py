"""Cohomological lower bounds for Lusternik-Schnirelmann category.

Computes cup-length over GF(2) (closed formula and definitional ideal
search), Morse/Betti lower bounds, interval ledgers chaining
cl <= e* <= cat <= dim and cat <= ballcat <= crit - 1, and mechanical
checks of the criteria under which a degree +-1 map f: M -> N certifies
cat M >= cat N.
"""

from .bounds import (
    BoundLedger,
    CupLength,
    Interval,
    LedgerError,
    MorseData,
    betti_sum,
    cat_bounds,
    cup_length,
    cup_length_check,
    cup_length_formula,
    cup_length_search,
    morse_lower_bound,
    so_n_presentation,
)
from .catalogue import SpaceRecord, UnknownSpaceError, get, names, surface_table
from .gf2 import rank
from .homs import (
    CriterionVerdict,
    DimensionMismatch,
    HomValidationError,
    Report,
    RingHomSpec,
    ValidatedHom,
    check_cl_monotone,
    check_injectivity,
    check_top_class,
    cor_cat_transfer,
    full_report,
    low_dim_check,
    morse_transfer_check,
    thm_main_check,
    thm_torus_check,
    torus_stabilization_k,
    validate_hom,
)
from .rings import (
    Element,
    GeneratorSpec,
    MultiplicationTable,
    TruncatedPresentation,
    check_poincare_duality,
    expand_to_table,
    tensor_product,
)

__version__ = "0.1.0"

__all__ = [
    "BoundLedger",
    "CriterionVerdict",
    "CupLength",
    "DimensionMismatch",
    "Element",
    "GeneratorSpec",
    "HomValidationError",
    "Interval",
    "LedgerError",
    "MorseData",
    "MultiplicationTable",
    "Report",
    "RingHomSpec",
    "SpaceRecord",
    "TruncatedPresentation",
    "UnknownSpaceError",
    "ValidatedHom",
    "betti_sum",
    "cat_bounds",
    "check_cl_monotone",
    "check_injectivity",
    "check_poincare_duality",
    "check_top_class",
    "cor_cat_transfer",
    "cup_length",
    "cup_length_check",
    "cup_length_formula",
    "cup_length_search",
    "expand_to_table",
    "full_report",
    "get",
    "low_dim_check",
    "morse_lower_bound",
    "morse_transfer_check",
    "names",
    "rank",
    "so_n_presentation",
    "surface_table",
    "tensor_product",
    "thm_main_check",
    "thm_torus_check",
    "torus_stabilization_k",
    "validate_hom",
]
