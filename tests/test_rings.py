"""Graded algebra arithmetic: normal forms, products, tensor, duality."""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lscat.bounds import cup_length_search, so_n_presentation
from lscat.catalogue import get, surface_table
from lscat.rings import (
    Element,
    GeneratorSpec,
    MultiplicationTable,
    TruncatedPresentation,
    check_poincare_duality,
    expand_to_table,
    tensor_product,
    _Monogenic,
)

from lscat.spacefile import element_from_monomials, parse_space

from label_algebra import basis_in_degree, vector
from oracles import (
    brute_basis_in_degree,
    brute_cup_length,
    brute_poincare,
    brute_rank,
)


def torus_presentation(k: int) -> TruncatedPresentation:
    gens = tuple(GeneratorSpec(f"t{i}", 1) for i in range(1, k + 1))
    return TruncatedPresentation(gens, (2,) * k, k)


def point_presentation() -> TruncatedPresentation:
    return TruncatedPresentation((), (), 0)


# -- normal forms: a presentation monomial evaluates to itself or to 0 ----------------


def test_normal_form_truncation_kills():
    s4 = so_n_presentation(4)  # Z/2[b1,b3]/(b1^4, b3^2)
    assert element_from_monomials(s4, [{"b1": 4}]) == vector(s4, Element())


def test_normal_form_in_bounds():
    s4 = so_n_presentation(4)
    assert element_from_monomials(s4, [{"b1": 3, "b3": 1}]) == vector(s4, Element.of((3, 1)))


def test_normal_form_unit():
    s4 = so_n_presentation(4)
    assert element_from_monomials(s4, [{}]) == vector(s4, Element.of((0, 0)))
    assert s4.compiled.vector(Element.of((0, 0))) == {0: 1}


def test_normal_form_length_mismatch():
    s4 = so_n_presentation(4)
    with pytest.raises(ValueError, match="does not belong to this ring"):
        s4.compiled.vector(Element.of((1, 0, 0)))


def test_truncation_one_makes_generator_zero():
    p = TruncatedPresentation((GeneratorSpec("a", 1),), (1,), 0)
    assert element_from_monomials(p, [{"a": 1}]) == vector(p, Element())
    assert p.total_dimension == 1


# -- products -----------------------------------------------------------------


def test_square_of_sum_drops_cross_terms():
    s4 = so_n_presentation(4)
    e = Element.of((1, 0), (0, 1))  # b1 + b3
    # (b1 + b3)^2 = b1^2 + b3^2 = b1^2 since b3^2 = 0 and 2*b1*b3 = 0 mod 2
    assert s4.multiply(e, e) == Element.of((2, 0))


def test_unit_law():
    s4 = so_n_presentation(4)
    e = Element.of((2, 1), (1, 0))
    assert s4.multiply(Element.of((0, 0)), e) == e


def test_torus_surface_table_square_zero_and_top():
    t = surface_table(1)
    a, b = Element.of("a1"), Element.of("b1")
    assert t.multiply(a, b) == Element.of("w")
    assert t.multiply(a, a) == Element()


def test_multiply_unknown_term_raises():
    s4 = so_n_presentation(4)
    with pytest.raises(ValueError, match="does not belong to this ring"):
        s4.multiply(Element.of((9, 9)), Element.of((0, 0)))
    t = surface_table(1)
    with pytest.raises(ValueError, match="does not belong to this ring"):
        t.multiply(Element.of("nope"), Element.of("1"))
    with pytest.raises(ValueError, match="does not belong to this ring"):
        t.product("a1", "nope")


def test_element_self_inverse():
    e = Element.of((1, 0), (0, 1))
    assert e + e == Element()


def test_presentation_products_associative_commutative():
    rng = random.Random(7)
    s7 = so_n_presentation(7)

    def random_element():
        terms = set()
        for _ in range(rng.randint(0, 4)):
            exps = tuple(rng.randrange(p) for p in s7.truncations)
            terms ^= {exps}
        return Element(frozenset(terms))

    for _ in range(40):
        a, b, c = random_element(), random_element(), random_element()
        assert s7.multiply(a, b) == s7.multiply(b, a)
        assert s7.multiply(s7.multiply(a, b), c) == s7.multiply(a, s7.multiply(b, c))


def test_table_products_associative_commutative_random():
    rng = random.Random(13)
    t = surface_table(3)
    labels = [l for l, _ in t.basis]

    def random_element():
        picks = frozenset(l for l in labels if rng.random() < 0.3)
        return Element(picks)

    for _ in range(40):
        a, b, c = random_element(), random_element(), random_element()
        assert t.multiply(a, b) == t.multiply(b, a)
        assert t.multiply(t.multiply(a, b), c) == t.multiply(a, t.multiply(b, c))


# -- degree-wise bases --------------------------------------------------------


def compiled_basis(ring, d: int) -> list:
    """The terms at the compiled positions of degree d, in order."""
    c = ring.compiled
    return c.lookups()[0][c.first[d] : c.first[d] + c.dims[d]] if d in c.first else []


def test_basis_in_degree_s4():
    s4 = so_n_presentation(4)
    assert compiled_basis(s4, 4) == [(1, 1)]
    assert compiled_basis(s4, 4) == brute_basis_in_degree(s4, 4)
    # single top class in degree 6 = dim SO(4)
    assert compiled_basis(s4, 6) == [(3, 1)]
    assert compiled_basis(s4, 0) == [(0,) * 2]


def test_basis_in_degree_matches_bruteforce_random():
    rng = random.Random(19)
    for _ in range(25):
        k = rng.randint(1, 3)
        gens = tuple(GeneratorSpec(f"g{i}", rng.randint(1, 4)) for i in range(k))
        truncs = tuple(rng.randint(1, 4) for _ in range(k))
        top = sum((p - 1) * g.degree for g, p in zip(gens, truncs))
        p = TruncatedPresentation(gens, truncs, top)
        for d in range(top + 1):
            assert compiled_basis(p, d) == brute_basis_in_degree(p, d)


def test_poincare_polynomial_s3():
    assert so_n_presentation(3).poincare_polynomial() == [1, 1, 1, 1]


def test_poincare_polynomial_torus():
    assert torus_presentation(2).poincare_polynomial() == [1, 2, 1]


def test_poincare_polynomial_point():
    assert point_presentation().poincare_polynomial() == [1]


def test_poincare_polynomial_matches_bruteforce():
    rng = random.Random(23)
    cases = [so_n_presentation(n) for n in range(3, 8)]
    for _ in range(40):
        gens = [(rng.randint(1, 6), rng.randint(1, 5)) for _ in range(rng.randint(0, 4))]
        specs = tuple(GeneratorSpec(f"g{i}", d) for i, (d, _) in enumerate(gens))
        heights = tuple(h for _, h in gens)
        cases.append(TruncatedPresentation(specs, heights, sum((h - 1) * d for d, h in gens)))
    for p in cases:
        assert p.poincare_polynomial() == brute_poincare(p)


def test_poincare_polynomial_of_so200_counts_every_monomial():
    # 100 generators of degrees up to 199: a dense convolution takes minutes
    p = so_n_presentation(200)
    start = time.perf_counter()
    assert sum(p.poincare_polynomial()) == p.total_dimension
    assert time.perf_counter() - start < 10


def test_poincare_palindromic_for_so_n():
    for n in range(3, 10):
        poly = so_n_presentation(n).poincare_polynomial()
        assert poly == poly[::-1]


# -- tensor products ----------------------------------------------------------


def test_tensor_circle_circle_is_torus():
    t1 = TruncatedPresentation((GeneratorSpec("t1", 1),), (2,), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prod = tensor_product(t1, t1)
    assert [g.name for g in prod.generators] == ["t1", "t1_2"]
    t2 = torus_presentation(2)
    assert [g.degree for g in prod.generators] == [g.degree for g in t2.generators]
    assert prod.truncations == t2.truncations
    assert prod.top_degree == t2.top_degree


def test_tensor_with_point_is_identity():
    s3 = so_n_presentation(3)
    prod = tensor_product(s3, point_presentation())
    assert prod == s3


def test_tensor_poincare_multiplicativity():
    s3 = so_n_presentation(3)
    t2 = torus_presentation(2)
    prod = tensor_product(s3, t2)
    # frozen from independent enumeration oracle
    assert prod.poincare_polynomial() == [1, 3, 4, 4, 3, 1]
    assert prod.poincare_polynomial() == brute_poincare(prod)


def test_tensor_name_collision_renames_silently():
    t1 = TruncatedPresentation((GeneratorSpec("t1", 1),), (2,), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prod = tensor_product(tensor_product(t1, t1), t1)
        table = tensor_product(expand_to_table(t1), expand_to_table(t1))
    assert [g.name for g in prod.generators] == ["t1", "t1_2", "t1_3"]
    assert [l for l, _ in table.basis] == ["1", "t1", "t1__2", "t1_t1"]


def test_tensor_tables_componentwise():
    a = surface_table(0)  # 1, w
    b = surface_table(1)  # 1, a1, b1, w
    prod = tensor_product(a, b)
    assert prod.size == 8
    assert prod.top_degree == 4
    assert prod.poincare_polynomial() == [1, 2, 2, 2, 1]


def test_tensor_mixed_kinds_expand_the_presentation():
    so3, s1 = so_n_presentation(3), surface_table(1)
    for mixed, expanded in (
        (tensor_product(so3, s1), tensor_product(expand_to_table(so3), s1)),
        (tensor_product(s1, so3), tensor_product(s1, expand_to_table(so3))),
    ):
        assert mixed.basis == expanded.basis and mixed._codes == expanded._codes
        assert mixed == expanded


# -- expansion ----------------------------------------------------------------


def test_expand_s3_products():
    table = expand_to_table(so_n_presentation(3))
    assert [l for l, _ in table.basis] == ["1", "b1", "b1^2", "b1^3"]
    assert table.product("b1", "b1^2") == frozenset({"b1^3"})
    assert table.product("b1^2", "b1^2") == frozenset()


def test_expand_point():
    table = expand_to_table(point_presentation())
    assert table.basis == (("1", 0),)


def test_expand_torus_top_class():
    table = expand_to_table(torus_presentation(2))
    assert table.size == 4
    assert table.product("t1", "t2") == frozenset({"t1*t2"})


def test_expand_agrees_with_presentation_multiply():
    p = so_n_presentation(4)
    table = expand_to_table(p)
    monos = [m for d in range(p.top_degree + 1) for m in basis_in_degree(p, d)]
    for a in monos:
        for b in monos:
            viap = p.multiply(Element.of(a), Element.of(b))
            viat = table.multiply(
                Element.of(p.monomial_label(a)), Element.of(p.monomial_label(b))
            )
            assert {p.monomial_label(m) for m in viap.terms} == viat.terms


# -- duality ------------------------------------------------------------------


def test_duality_so4():
    assert check_poincare_duality(expand_to_table(so_n_presentation(4)))


def test_duality_surfaces():
    for g in range(5):
        assert check_poincare_duality(surface_table(g))


def test_duality_fails_without_top_class():
    # Z/2[b1]/(b1^3) declared as a 3-manifold ring: degree-3 component empty
    table = MultiplicationTable(
        [("1", 0), ("b1", 1), ("b1^2", 2)],
        3,
        {("b1", "b1"): frozenset({"b1^2"})},
    )
    assert not check_poincare_duality(table)


def test_duality_needs_a_class_in_the_declared_dimension():
    # a single degree-1 generator with a^2 = 0 declared as a 3-manifold: H^3 = 0
    u = TruncatedPresentation((GeneratorSpec("a", 1),), (2,), 3)
    assert not check_poincare_duality(u)
    assert check_poincare_duality(TruncatedPresentation((GeneratorSpec("a", 1),), (2,), 1))


def test_duality_fails_on_corrupted_table():
    # genus-1 table with the top class removed
    basis = [("1", 0), ("a1", 1), ("b1", 1)]
    corrupted = MultiplicationTable(basis, 2, {})
    assert not check_poincare_duality(corrupted)


# -- validation ---------------------------------------------------------------


def test_table_requires_single_unit():
    with pytest.raises(ValueError):
        MultiplicationTable([("1", 0), ("e", 0)], 1, {})


def test_table_rejects_unknown_label_in_products():
    with pytest.raises(ValueError):
        MultiplicationTable([("1", 0), ("a", 1)], 2, {("a", "a"): frozenset({"zz"})})


def test_table_rejects_degree_violation():
    with pytest.raises(ValueError):
        MultiplicationTable(
            [("1", 0), ("a", 1), ("w", 2)], 2, {("a", "a"): frozenset({"a"})}
        )


def test_table_rejects_nonassociative():
    # (a*b)*b = u*b = w but a*(b*b) = a*0 = 0
    basis = [("1", 0), ("a", 1), ("b", 1), ("u", 2), ("w", 3)]
    products = {
        ("a", "b"): frozenset({"u"}),
        ("b", "u"): frozenset({"w"}),
    }
    with pytest.raises(ValueError, match="associativity"):
        MultiplicationTable(basis, 3, products)


def _materialize(t: MultiplicationTable) -> dict:
    """A table's nonzero products of positive basis pairs, as explicit data."""
    labels = [l for l, d in t.basis if d > 0]
    return {
        (x, y): t.product(x, y)
        for i, x in enumerate(labels)
        for y in labels[i:]
        if t.product(x, y)
    }


def _all_triples_valid(basis, top, products) -> bool:
    """The exhaustive check: unit law, degree additivity and associativity
    on every pair and triple of basis elements, the unit included."""
    labels = [l for l, _ in basis]
    degree = dict(basis)
    unit = next(l for l, d in basis if d == 0)

    def prod(x, y):
        key = (x, y) if labels.index(x) <= labels.index(y) else (y, x)
        if key not in products and unit in key:
            return frozenset({y if x == unit else x})
        return products.get(key, frozenset())

    def times(terms, z):
        acc = frozenset()
        for t in terms:
            acc ^= prod(t, z)
        return acc

    for x in labels:
        if prod(unit, x) != {x}:
            return False
        for y in labels:
            if any(degree[t] != degree[x] + degree[y] for t in prod(x, y)):
                return False
    return all(
        times(prod(x, y), z) == times(prod(y, z), x)
        for x in labels
        for y in labels
        for z in labels
    )


def test_table_validation_matches_exhaustive_check():
    """The constructor's pruned associativity check accepts exactly the
    tables the all-triples check accepts."""
    rng = random.Random(59)
    sources = [surface_table(g) for g in range(4)]
    for _ in range(30):
        gens = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        specs = tuple(GeneratorSpec(f"g{i}", d) for i, (d, _) in enumerate(gens))
        heights = tuple(h for _, h in gens)
        top = sum((h - 1) * d for d, h in gens)
        sources.append(expand_to_table(TruncatedPresentation(specs, heights, top)))
    sources.append(tensor_product(surface_table(1), expand_to_table(torus_presentation(1))))
    outcomes = []
    for t in sources:
        basis, top, products = t.basis, t.top_degree, _materialize(t)
        assert _all_triples_valid(basis, top, products)
        MultiplicationTable(basis, top, products)
        labels = [l for l, _ in basis]
        degree = dict(basis)
        for _ in range(8):
            i = rng.randrange(len(labels))
            x, y = labels[i], labels[rng.randrange(i, len(labels))]
            same = [l for l in labels if degree[l] == degree[x] + degree[y]]
            pool = same if same and rng.random() < 0.8 else labels
            value = frozenset(rng.sample(pool, rng.randint(0, min(2, len(pool)))))
            corrupted = dict(products)
            corrupted[(x, y)] = value
            expected = _all_triples_valid(basis, top, corrupted)
            try:
                MultiplicationTable(basis, top, corrupted)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == expected, (basis, (x, y), value)
            outcomes.append(accepted)
    assert outcomes.count(True) > 20 and outcomes.count(False) > 20


def test_presentation_refuses_monomials_above_top():
    with pytest.raises(ValueError, match="degree 4 above top_degree 3; not a closed-manifold ring"):
        TruncatedPresentation((GeneratorSpec("a", 2),), (3,), 3)


def test_duplicate_generator_names_rejected():
    with pytest.raises(ValueError):
        TruncatedPresentation(
            (GeneratorSpec("a", 1), GeneratorSpec("a", 2)), (2, 2), 3
        )


# -- factored tables against a label-level reference -------------------------------


class Reference:
    """A table written from the definitions at the level of labels: its
    basis, top degree, ideal generators (in the order the compiled form
    lists them) and a product rule, with no integer forms."""

    def __init__(self, basis, top, generators, product):
        self.basis, self.top, self.generators, self.product = basis, top, generators, product
        self.unit = next(l for l, d in basis if d == 0)


def reference_explicit(basis, top, products) -> Reference:
    """Given products of label pairs; missing pairs are zero, the unit is a unit."""
    unit = next(l for l, d in basis if d == 0)

    def product(x, y):
        if unit in (x, y):
            return frozenset({y if x == unit else x})
        return frozenset(products.get((x, y), products.get((y, x), ())))

    return Reference(list(basis), top, [l for l, d in basis if d > 0], product)


def reference_surface(g: int) -> Reference:
    basis = [("1", 0)] + [(f"{c}{i}", 1) for c in "ab" for i in range(1, g + 1)] + [("w", 2)]
    return reference_explicit(basis, 2, {(f"a{i}", f"b{i}"): {"w"} for i in range(1, g + 1)})


def reference_expansion(p: TruncatedPresentation) -> Reference:
    """Monomials by degree, then lexicographically; products by adding exponents."""
    reach = sum((h - 1) * g.degree for g, h in zip(p.generators, p.truncations))
    monomials = [m for d in range(reach + 1) for m in brute_basis_in_degree(p, d)]
    label = p.monomial_label
    exponents = {label(m): m for m in monomials}

    def product(x, y):
        s = tuple(a + b for a, b in zip(exponents[x], exponents[y]))
        return frozenset({label(s)}) if all(e < h for e, h in zip(s, p.truncations)) else frozenset()

    generators = [
        label(tuple(int(j == i) for j in range(len(p.generators))))
        for i, h in enumerate(p.truncations)
        if h >= 2
    ]
    basis = [(label(m), sum(e * g.degree for e, g in zip(m, p.generators))) for m in monomials]
    return Reference(basis, max(p.top_degree, reach), generators, product)


def reference_tensor(a: Reference, b: Reference) -> Reference:
    """(a1 (x) b1)(a2 (x) b2) = a1 a2 (x) b1 b2, on pair labels named as
    catalogue products name them: 1, x, y or x_y, with __k on a collision."""
    pair, used, basis = {}, set(), []
    for la, da in a.basis:
        for lb, db in b.basis:
            if la == a.unit:
                name = "1" if lb == b.unit else lb
            else:
                name = la if lb == b.unit else f"{la}_{lb}"
            if name in used:
                k = 2
                while f"{name}__{k}" in used:
                    k += 1
                name = f"{name}__{k}"
            used.add(name)
            pair[la, lb] = name
            basis.append((name, da + db))
    factors = {name: ab for ab, name in pair.items()}

    def product(x, y):
        (a1, b1), (a2, b2) = factors[x], factors[y]
        return frozenset(pair[u, v] for u in a.product(a1, a2) for v in b.product(b1, b2))

    generators = [pair[g, b.unit] for g in a.generators] + [pair[a.unit, h] for h in b.generators]
    return Reference(basis, a.top + b.top, generators, product)


def assert_matches_reference(t: MultiplicationTable, ref: Reference) -> None:
    """Every pair's product, every compiled row and the pairing."""
    assert list(t.basis) == ref.basis and t.top_degree == ref.top
    labels = [l for l, _ in ref.basis]
    for x, y in itertools.product(labels, repeat=2):
        assert t.product(x, y) == ref.product(x, y), (x, y)
    by_degree = {d: [l for l, e in ref.basis if e == d] for _, d in ref.basis}
    degree = dict(ref.basis)

    def mask(terms, d):
        return sum(1 << by_degree[d].index(u) for u in terms)

    c = t.compiled
    assert c.dims == {d: len(xs) for d, xs in by_degree.items()}
    assert [dg for dg, _ in c.generator_rows] == [degree[g] for g in ref.generators]
    for g, (dg, rows) in zip(ref.generators, c.generator_rows):
        for d, xs in by_degree.items():
            expected = tuple(mask(ref.product(x, g), d + dg) for x in xs)
            assert rows.get(d, (0,) * len(xs)) == expected, (g, d)
    top = by_degree.get(ref.top, [])
    if len(top) == 1:
        for d, xs in by_degree.items():
            right = by_degree.get(ref.top - d, [])
            expected = tuple(mask([y for y in right if top[0] in ref.product(x, y)], ref.top - d) for x in xs)
            assert c.pairing(d) == expected, d


# a torus file table listed out of degree order
UNSORTED_FILE = "space U\ndim 2\nbasis w 2\nbasis b 1\nbasis 1 0\nbasis a 1\nproduct a b = w\n"
UNSORTED_BASIS = [("w", 2), ("b", 1), ("1", 0), ("a", 1)]


def test_factored_tables_match_the_label_reference():
    so4, t2, s2 = so_n_presentation(4), get("T2").ring, get("S2").ring
    unsorted = parse_space(UNSORTED_FILE).ring
    ref_unsorted = reference_explicit(UNSORTED_BASIS, 2, {("a", "b"): {"w"}})
    gaps = TruncatedPresentation(
        (GeneratorSpec("u", 2), GeneratorSpec("v", 1), GeneratorSpec("z", 3)), (3, 2, 1), 5
    )
    cases = [
        (tensor_product(surface_table(1), surface_table(2)),
         reference_tensor(reference_surface(1), reference_surface(2))),
        (expand_to_table(so4), reference_expansion(so4)),
        (expand_to_table(gaps), reference_expansion(gaps)),
        (get("T2xS_1xS2").ring, reference_tensor(
            reference_tensor(reference_expansion(t2), reference_surface(1)), reference_expansion(s2))),
        (get("S_1xS_2xS_1").ring, reference_tensor(
            reference_tensor(reference_surface(1), reference_surface(2)), reference_surface(1))),
        (tensor_product(expand_to_table(t2), unsorted),
         reference_tensor(reference_expansion(t2), ref_unsorted)),
        (tensor_product(unsorted, surface_table(1)),
         reference_tensor(ref_unsorted, reference_surface(1))),
    ]
    for t, ref in cases:
        assert_matches_reference(t, ref)


def explicit_copy(t: MultiplicationTable) -> MultiplicationTable:
    labels = [l for l, _ in t.basis]
    products = {
        (x, y): t.product(x, y) for i, x in enumerate(labels) for y in labels[i:] if t.product(x, y)
    }
    return MultiplicationTable(t.basis, t.top_degree, products)


def test_factored_table_equals_its_explicit_copy_until_a_product_changes():
    torus = parse_space(UNSORTED_FILE).ring
    for t in (
        get("S_1xT2").ring,
        tensor_product(torus, surface_table(2)),
        expand_to_table(so_n_presentation(4)),
    ):
        copy = explicit_copy(t)
        assert t == copy and copy == t
    # t1 t2 = 0 instead of t1*t2: the one positive product of the 2-torus
    t2 = expand_to_table(get("T2").ring)
    changed = MultiplicationTable(t2.basis, 2, {})
    assert t2 != changed and changed != t2
    # the file torus with a a = w added, under a tensor product
    added = MultiplicationTable(UNSORTED_BASIS, 2, {("a", "b"): {"w"}, ("a", "a"): {"w"}})
    assert explicit_copy(torus) != added
    product = tensor_product(torus, surface_table(1))
    assert product != tensor_product(added, surface_table(1))
    assert product != explicit_copy(tensor_product(added, surface_table(1)))


def test_factored_tables_compare_by_their_factors(monkeypatch):
    built = tensor_product(surface_table(2), expand_to_table(get("T10").ring))

    def no_products(self):
        raise AssertionError("products enumerated")

    monkeypatch.setattr(MultiplicationTable, "_products", no_products)
    assert get("S_2xT10").ring == built and built == get("S_2xT10").ring


# a a = w is the only positive product: associative, but b pairs with
# nothing, so no Poincare duality
NOT_DUAL = MultiplicationTable(
    [("1", 0), ("a", 1), ("b", 1), ("w", 2)], 2, {("a", "a"): {"w"}}
)


def small_rings():
    presentations = st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=3
    ).filter(lambda gens: math.prod(h for _, h in gens) <= 9)
    return st.one_of(
        presentations.map(lambda gens: expand_to_table(_presentation(gens))),
        st.integers(0, 2).map(surface_table),
        st.just(NOT_DUAL),
    )


def _presentation(gens) -> TruncatedPresentation:
    specs = tuple(GeneratorSpec(f"g{i}", d) for i, (d, _) in enumerate(gens))
    heights = tuple(h for _, h in gens)
    return TruncatedPresentation(specs, heights, sum((h - 1) * d for d, h in gens))


def brute_duality(t: MultiplicationTable) -> bool:
    """Every pairing matrix into the top degree is square of full rank,
    with ranks from the brute-force oracle."""
    n = t.top_degree
    top = basis_in_degree(t, n)
    if len(top) != 1:
        return False
    for d in range(n + 1):
        xs, ys = basis_in_degree(t, d), basis_in_degree(t, n - d)
        if len(xs) != len(ys):
            return False
        dense = [[int(top[0] in t.product(x, y)) for y in ys] for x in xs]
        if xs and brute_rank(dense) != len(xs):
            return False
    return True


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_rings(), small_rings())
def test_composed_search_and_duality_equal_brute_force(a, b):
    t = tensor_product(a, b)
    # the rank oracle enumerates 2^n combinations of n rows
    assume(max(t.poincare_polynomial()) <= 12)
    copy = explicit_copy(t)
    assert cup_length_search(t) == brute_cup_length(copy)
    assert check_poincare_duality(t) == brute_duality(copy)


# -- a class of half the top degree with a nonzero square ---------------------------


SQUARE_TABLES = [
    surface_table(1),
    NOT_DUAL,  # a^2 = w
    MultiplicationTable([("1", 0), ("a", 1), ("b", 1), ("w", 2)], 2,
                        {("a", "b"): {"w"}, ("b", "b"): {"w"}}),  # only the second squares
    MultiplicationTable([("1", 0), ("x", 2), ("xx", 4)], 4, {("x", "x"): {"xx"}}),
    MultiplicationTable([("1", 0), ("a", 1)], 3, {}),
]


@st.composite
def square_rings(draw):
    """A presentation of up to four generators, with top degree at or above
    its highest monomial's, or a tensor product of such, their expansions
    and explicit tables; at most 4,096 basis elements."""
    members = []
    for _ in range(draw(st.integers(1, 3))):
        gens = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 5)), max_size=4))
        specs = tuple(GeneratorSpec(f"g{len(members)}_{i}", d) for i, (d, _) in enumerate(gens))
        top = sum((q - 1) * d for d, q in gens) + draw(st.sampled_from((0, 0, 0, 1, 2)))
        members.append(TruncatedPresentation(specs, tuple(q for _, q in gens), top)
                       if draw(st.integers(0, 2)) else draw(st.sampled_from(SQUARE_TABLES)))
    if draw(st.booleans()) and not all(isinstance(m, TruncatedPresentation) for m in members):
        members = [expand_to_table(m) if isinstance(m, TruncatedPresentation) else m
                   for m in members]
    ring = functools.reduce(tensor_product, members)
    assume(ring.basis_count <= 4096)
    return ring


def brute_middle_square(ring) -> bool:
    """Whether some class of degree top/2 squares to nonzero, by squaring
    classes: every one when there are at most 2^10, else each basis element
    (squaring is additive mod 2)."""
    half, odd = divmod(ring.top_degree, 2)
    basis = [] if odd else basis_in_degree(ring, half)
    classes = ([frozenset(c) for r in range(1, len(basis) + 1) for c in itertools.combinations(basis, r)]
               if len(basis) <= 10 else [frozenset({b}) for b in basis])
    return any(ring.multiply(Element(c), Element(c)) for c in classes)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(square_rings())
def test_middle_square_read_off_the_factors_equals_squaring(ring):
    assert ring.has_middle_square() == brute_middle_square(ring)


def test_a_monogenic_factor_stores_its_degree_and_truncation():
    """k[a]/(a^q), q = 10^12: top and the number of positions are closed
    forms, and the per-position tables are built only when read."""
    factor = _Monogenic(1, 10**12)
    assert factor.top == 10**12 - 1 and len(factor.degrees) == 10**12
    assert "first" not in factor.__dict__ and "dims" not in factor.__dict__
    small = _Monogenic(3, 4)
    assert small.first == {0: 0, 3: 1, 6: 2, 9: 3} and small.dims == dict.fromkeys((0, 3, 6, 9), 1)
    # x^e times x is x^(e+1): per degree, one nonzero row, index 0, one bit
    assert small.generator_rows == ((3, {0: {0: 1}, 3: {0: 1}, 6: {0: 1}}),)
    assert small == _Monogenic(3, 4) and hash(small) == hash(_Monogenic(3, 4))
