"""Cohomological lower bounds for Lusternik-Schnirelmann category.

Computes cup-length over GF(2) (closed formula and definitional ideal
search), Morse/Betti lower bounds, interval ledgers chaining
cl <= e* <= cat <= dim and cat <= ballcat <= crit - 1, and mechanical
checks of the criteria under which a degree +-1 map f: M -> N certifies
cat M >= cat N.
"""

__version__ = "0.1.0"

# Each exported name and the module that defines it.  A name is imported
# when it is first read (PEP 562), so ``import lscat`` loads no layer.
_EXPORTS = {
    name: module
    for module, names in {
        "bounds": "BoundLedger CupLength Interval LedgerError MorseData betti_sum cat_bounds"
        " cup_length cup_length_check cup_length_formula cup_length_search"
        " morse_lower_bound so_n_presentation",
        "catalogue": "SpaceRecord UnknownSpaceError get names surface_table",
        "gf2": "rank",
        "homs": "CriterionVerdict DimensionMismatch HomValidationError Report RingHomSpec"
        " ValidatedHom check_cl_monotone check_injectivity check_top_class cor_cat_transfer"
        " full_report low_dim_check morse_transfer_check thm_main_check thm_torus_check"
        " torus_stabilization_k validate_hom",
        "rings": "Element GeneratorSpec MultiplicationTable TruncatedPresentation"
        " check_poincare_duality expand_to_table tensor_product",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{_EXPORTS[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
