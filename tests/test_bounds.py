"""Cup-length algorithms, Morse bounds, and the bound ledger."""

from __future__ import annotations

import math
import random
import warnings
from functools import reduce
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lscat import bounds
from lscat.bounds import (
    CROSS_CHECK_LIMIT,
    BoundLedger,
    Interval,
    LedgerError,
    cat_bounds,
    cup_length,
    cup_length_check,
    cup_length_formula,
    cup_length_search,
    morse_lower_bound,
    poincare_duality,
    so_n_presentation,
)
from lscat.catalogue import get, surface_table
from lscat.rings import (
    GeneratorSpec,
    MultiplicationTable,
    TruncatedPresentation,
    check_poincare_duality,
    expand_to_table,
    tensor_product,
)

from oracles import brute_cup_length


# -- closed formula -----------------------------------------------------------


def test_cup_length_formula_so5():
    assert cup_length_formula(so_n_presentation(5)) == 8


def test_cup_length_formula_so9():
    p = so_n_presentation(9)
    assert p.truncations == (16, 4, 2, 2)
    assert cup_length_formula(p) == 20


def test_cup_length_formula_point():
    assert cup_length_formula(TruncatedPresentation((), (), 0)) == 0


# -- SO(n) presentations --------------------------------------------------------


def test_so7_presentation():
    p = so_n_presentation(7)
    assert [(g.name, g.degree) for g in p.generators] == [
        ("b1", 1),
        ("b3", 3),
        ("b5", 5),
    ]
    assert p.truncations == (8, 4, 2)
    assert p.top_degree == 21


def test_so3_presentation():
    p = so_n_presentation(3)
    assert p.truncations == (4,)
    assert p.top_degree == 3


def test_so_n_top_monomial_realizes_dimension():
    for n in range(3, 10):
        p = so_n_presentation(n)
        assert p.max_monomial_degree == n * (n - 1) // 2


def test_so_n_requires_n_at_least_2():
    with pytest.raises(ValueError):
        so_n_presentation(1)


# -- ideal-power search ---------------------------------------------------------


def test_search_so3():
    assert cup_length_search(expand_to_table(so_n_presentation(3))) == 3


def test_search_so4():
    assert cup_length_search(expand_to_table(so_n_presentation(4))) == 4


def test_search_point():
    assert cup_length_search(expand_to_table(TruncatedPresentation((), (), 0))) == 0


def test_search_genus2_surface():
    assert cup_length_search(surface_table(2)) == 2


def test_search_matches_bruteforce_on_small_tables():
    for table in (
        expand_to_table(so_n_presentation(3)),
        expand_to_table(so_n_presentation(4)),
        surface_table(0),
        surface_table(1),
        surface_table(2),
    ):
        assert cup_length_search(table) == brute_cup_length(table)


def _explicit_copy(t: MultiplicationTable) -> MultiplicationTable:
    """The same ring as a table of explicit products, whose search
    multiplies by every positive basis element."""
    labels = [l for l, _ in t.basis]
    products = {
        (x, y): t.product(x, y) for i, x in enumerate(labels) for y in labels[i:] if t.product(x, y)
    }
    return MultiplicationTable(t.basis, t.top_degree, products)


def test_search_without_generator_hint_agrees():
    # an expansion searches with the presentation's generators, its explicit
    # copy with every positive basis element
    table = expand_to_table(so_n_presentation(4))
    bare = _explicit_copy(table)
    assert len(bare.compiled.generator_rows) > len(table.compiled.generator_rows)
    assert cup_length_search(bare) == cup_length_search(table) == 4


def test_search_hint_and_fallback_agree_with_bruteforce_on_tensors():
    # tensor tables search with their factors' generators; their explicit
    # copies with every positive basis element; both must match the oracle
    for a, b in ((0, 1), (1, 1), (0, 2)):
        prod = tensor_product(surface_table(a), surface_table(b))
        bare = _explicit_copy(prod)
        expected = brute_cup_length(prod)
        assert cup_length_search(prod) == expected
        assert cup_length_search(bare) == expected


def _random_presentation(rng: random.Random, max_size: int = 512) -> TruncatedPresentation:
    while True:
        k = rng.randint(1, 4)
        gens = tuple(GeneratorSpec(f"g{i}", rng.randint(1, 5)) for i in range(k))
        truncs = tuple(rng.choice((1, 2, 2, 3, 4, 5, 8)) for _ in range(k))
        size = 1
        for p in truncs:
            size *= p
        if size <= max_size:
            top = sum((p - 1) * g.degree for g, p in zip(gens, truncs))
            return TruncatedPresentation(gens, truncs, top)


def test_oracle_equivalence_randomized():
    rng = random.Random(2024)
    for _ in range(40):
        p = _random_presentation(rng)
        assert cup_length_formula(p) == cup_length_search(expand_to_table(p))


def test_search_never_exceeds_top_degree():
    rng = random.Random(99)
    for _ in range(20):
        p = _random_presentation(rng, max_size=128)
        table = expand_to_table(p)
        assert cup_length_search(table) <= table.top_degree


def test_kunneth_additivity_spot():
    a = so_n_presentation(3)
    b = so_n_presentation(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prod = tensor_product(a, b)
    assert [g.name for g in prod.generators] == ["b1", "b1_2", "b3"]
    assert cup_length_search(expand_to_table(prod)) == 3 + 4


def test_cross_check_dispatcher():
    assert cup_length(so_n_presentation(6)) == 9
    assert cup_length(surface_table(1)) == 2


def test_cross_check_policy():
    small = cup_length_check(so_n_presentation(6))
    assert (small.value, small.formula, small.search, small.agree) == (9, 9, 9, True)
    large = TruncatedPresentation(
        tuple(GeneratorSpec(f"t{i}", 1) for i in range(13)), (2,) * 13, 13
    )
    assert large.total_dimension > CROSS_CHECK_LIMIT
    skipped = cup_length_check(large)
    assert (skipped.value, skipped.formula, skipped.search, skipped.agree) == (13, 13, None, None)
    table = cup_length_check(surface_table(2))
    assert (table.value, table.formula, table.search, table.agree) == (2, None, 2, None)
    product = cup_length_check(tensor_product(surface_table(2), expand_to_table(large)))
    assert (product.value, product.formula, product.search, product.agree) == (15, 15, None, None)


# -- Kunneth: a product's invariants from its factors ----------------------------


# explicit tables without duality: a a = w leaves b unpaired, and U (a 3-manifold
# ring with one degree-1 class a, a^2 = 0) has no class in degree 3
NOT_DUAL = MultiplicationTable([("1", 0), ("a", 1), ("b", 1), ("w", 2)], 2, {("a", "a"): {"w"}})
U_LIKE = MultiplicationTable([("1", 0), ("a", 1)], 3, {})


@st.composite
def small_presentations(draw) -> TruncatedPresentation:
    """At most 9 monomials; the top degree is the highest monomial's or,
    for a ring without duality, above it."""
    gens = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=3).filter(
        lambda gens: math.prod(h for _, h in gens) <= 9))
    specs = tuple(GeneratorSpec(f"g{i}", d) for i, (d, _) in enumerate(gens))
    top = sum((h - 1) * d for d, h in gens) + draw(st.sampled_from((0, 0, 0, 1)))
    return TruncatedPresentation(specs, tuple(h for _, h in gens), top)


def kunneth_members():
    presentations = small_presentations()
    return st.one_of(
        presentations,
        presentations.map(expand_to_table),
        st.integers(0, 2).map(surface_table),
        st.sampled_from((NOT_DUAL, U_LIKE)),
    )


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(kunneth_members(), min_size=2, max_size=3))
def test_factor_values_equal_the_computations_on_the_product(members):
    """Within the cross-check limit, the cup-length, duality and Poincare
    polynomial read off a product's factors equal the ideal-power search,
    the pairing rank and the compiled dims of the product itself."""
    ring = reduce(tensor_product, members)
    c = ring.compiled
    assert len(c.degrees) <= CROSS_CHECK_LIMIT
    assert cup_length_formula(ring) == bounds._ideal_power_search(c.dims, c.generator_rows)
    # the factors' verdict alone, on a fresh copy: every factored ring taken as above the limit
    with mock.patch.object(bounds, "_cross_checked", lambda r: r.factors is None):
        assert poincare_duality(reduce(tensor_product, members)) == check_poincare_duality(ring)
    assert ring.poincare_polynomial() == [c.dims.get(d, 0) for d in range(ring.top_degree + 1)]
    # and the policy itself: formula and cross-check agree
    check = cup_length_check(ring)
    assert (check.formula, check.agree) == (check.search, True)
    assert poincare_duality(ring) == check_poincare_duality(ring)


@st.composite
def repeated_factor_rings(draw):
    """A tensor product of up to three distinct factors, each taken up to
    four times: a generator k[x]/(x^q) (q = 1 among them) or one explicit
    table object, so that equal factors meet again; presentations are
    expanded to a factored table beside a table, or when drawn so."""
    members, tables = [], [surface_table(1), surface_table(2), NOT_DUAL, U_LIKE]
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(1, 4))
        kind = draw(st.one_of(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                              st.sampled_from(tables)))
        if isinstance(kind, tuple):
            (d, q), n = kind, len(members)
            gens = tuple(GeneratorSpec(f"x{n}_{i}", d) for i in range(m))
            members.append(TruncatedPresentation(gens, (q,) * m, m * (q - 1) * d))
        else:
            members += [kind] * m
    if draw(st.booleans()):
        members = [expand_to_table(r) if isinstance(r, TruncatedPresentation) else r
                   for r in members]
    ring = reduce(tensor_product, members)
    assume(ring.basis_count <= CROSS_CHECK_LIMIT)
    return ring


@settings(derandomize=True, max_examples=100, deadline=None)
@given(repeated_factor_rings())
def test_series_equals_the_compiled_counts_with_repeated_factors(ring):
    """The Poincare polynomial, each distinct factor's series raised to its
    multiplicity, equals the per-degree counts of the compiled basis."""
    c = ring.compiled
    assert ring.basis_count == len(c.degrees)
    assert ring.poincare_polynomial() == [c.dims.get(d, 0) for d in range(ring.top_degree + 1)]


def test_duality_above_the_limit_is_the_factors_verdict():
    t16 = TruncatedPresentation(tuple(GeneratorSpec(f"t{i}", 1) for i in range(16)), (2,) * 16, 16)
    assert poincare_duality(t16) is True
    assert "compiled" not in t16.__dict__
    above = tensor_product(t16, TruncatedPresentation((GeneratorSpec("a", 1),), (2,), 2))
    assert poincare_duality(above) is False  # its top degree is above its factors'
    # the same factors with another top degree, and another verdict
    t17 = TruncatedPresentation(tuple(GeneratorSpec(f"t{i}", 1) for i in range(17)), (2,) * 17, 17)
    assert t17.factors == above.factors and poincare_duality(t17) is True
    # an explicit factor above the limit is ranked, and its product takes its verdict
    big = surface_table(2100)
    assert poincare_duality(big) is True
    assert poincare_duality(tensor_product(big, surface_table(1))) is True
    assert poincare_duality(tensor_product(big, NOT_DUAL)) is False


@settings(derandomize=True, max_examples=100, deadline=None)
@given(small_presentations(), small_presentations(), st.integers(1, 2))
def test_every_ring_gets_a_duality_verdict(p, q, genus):
    """Presentations within their dimension (top degree at or above the
    highest monomial's) and their products with each other, whose generator
    names collide, and with surfaces: with or without the cross-check (a
    limit of 0 turns it off), the verdict is a bool, the pairing's own, and
    the compiled form pairs into the declared top degree."""
    for limit in (0, CROSS_CHECK_LIMIT):  # each on fresh rings, so that both paths run
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fresh = TruncatedPresentation(p.generators, p.truncations, p.top_degree)
            surface = surface_table(genus)
            rings = [fresh, tensor_product(fresh, q), surface, tensor_product(fresh, surface),
                     tensor_product(surface, expand_to_table(q))]
        with mock.patch.object(bounds, "CROSS_CHECK_LIMIT", limit):
            for ring in rings:
                verdict = poincare_duality(ring)
                assert type(verdict) is bool and verdict == check_poincare_duality(ring)
                assert ring.compiled.top == ring.top_degree


def test_a_duality_mismatch_is_an_internal_failure():
    s2 = expand_to_table(TruncatedPresentation((GeneratorSpec("x", 2),), (2,), 2))
    with mock.patch.object(bounds, "check_poincare_duality", lambda ring: False):
        with pytest.raises(RuntimeError, match="duality cross-check failed"):
            poincare_duality(s2)


# -- Morse / Betti --------------------------------------------------------------


@pytest.mark.parametrize("name, bound, exact", [
    ("point", 1, False), ("S3", 2, False), ("T3", 8, False), ("S6", 2, True),
    ("S3xS3", 4, True), ("T6", 64, False),  # T6 is not simply connected
    ("S_2xT2", 24, False),  # (1, 4, 1) convolved with (1, 2, 1)
])
def test_morse_lower_bound(name, bound, exact):
    assert morse_lower_bound(get(name)) == (bound, exact)


def test_morse_lower_bound_surface():
    for g in range(4):
        bound, exact = morse_lower_bound(get(f"S_{g}"))
        assert bound == 2 * g + 2
        assert exact is False  # dimension 2 < 6


# -- ledger ---------------------------------------------------------------------


def test_cat_bounds_so6_known_cat():
    ledger = cat_bounds(so_n_presentation(6), 15, known_cat=9, known_cat_citation="x")
    assert ledger.cup_length == 9
    assert (ledger.cat.lower, ledger.cat.upper) == (9, 9)
    assert (ledger.toomer_e.lower, ledger.toomer_e.upper) == (9, 9)
    assert ledger.ballcat.lower == 9
    assert ledger.crit.lower == 10
    assert ledger.crit.upper is None


def test_cat_bounds_point():
    ledger = cat_bounds(TruncatedPresentation((), (), 0), 0, known_cat=0)
    assert (ledger.cat.lower, ledger.cat.upper) == (0, 0)
    assert ledger.cup_length == 0
    assert ledger.crit.lower == 1


def test_cat_bounds_sphere_known():
    sphere = TruncatedPresentation((GeneratorSpec("x", 2),), (2,), 2)
    ledger = cat_bounds(sphere, 2, known_cat=1)
    assert (ledger.cat.lower, ledger.cat.upper) == (1, 1)


def test_cat_bounds_rejects_inconsistent_known_cat():
    with pytest.raises(LedgerError):
        cat_bounds(so_n_presentation(5), 10, known_cat=3)  # below cup-length 8
    with pytest.raises(LedgerError):
        cat_bounds(so_n_presentation(5), 10, known_cat=11)  # above dimension


def test_cat_bounds_uses_betti_sum():
    ring = surface_table(2)
    ledger = cat_bounds(ring, 2, known_cat=2, betti=(1, 4, 1))
    assert ledger.betti_total == 6
    assert ledger.crit_star.lower == 6
    assert ledger.crit.lower == 3


def test_ledger_chain_violations_rejected():
    iv = Interval(0, 5)
    with pytest.raises(LedgerError):
        BoundLedger(
            dimension=5,
            cup_length=3,
            cat=Interval(2, 5),  # cat.lower below cup_length
            toomer_e=Interval(3, 5),
            ballcat=Interval(2, 5),
            crit=Interval(3, None),
            crit_star=Interval(3, None),
        )
    with pytest.raises(LedgerError):
        BoundLedger(
            dimension=5,
            cup_length=0,
            cat=Interval(0, 5),
            toomer_e=Interval(0, 5),
            ballcat=Interval(0, 5),
            crit=Interval(0, None),  # must be >= ballcat.lower + 1
            crit_star=Interval(1, None),
        )
    assert iv.lower == 0  # interval itself is fine


def test_interval_str():
    assert str(Interval(3, 3)) == "= 3"
    assert str(Interval(2, None)) == "in [2, inf]"
    assert str(Interval(1, 4)) == "in [1, 4]"
