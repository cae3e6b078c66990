"""Induced homomorphisms and the degree-one certification criteria."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lscat.catalogue import get, names
from lscat.homs import (
    CERTIFIED,
    CRITERIA,
    INCONCLUSIVE,
    NOT_APPLICABLE,
    VIOLATED,
    DimensionMismatch,
    HomValidationError,
    RingHomSpec,
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
from lscat.rings import (
    CompiledRing,
    Element,
    GeneratorSpec,
    MultiplicationTable,
    TruncatedPresentation,
)

from label_algebra import expansion, generator, multiply, surface, tensor, unit
from oracles import brute_rank


def identity_hom(presentation: TruncatedPresentation) -> RingHomSpec:
    images = {
        g.name: generator(presentation, g.name) for g in presentation.generators
    }
    return RingHomSpec(presentation, presentation, images, 1)


def collapse_hom() -> RingHomSpec:
    """Induced hom of the genus-2 -> torus collapse map: H*(T2) -> H*(S_2)."""
    t2 = get("T2").ring
    s2 = get("S_2").ring
    return RingHomSpec(t2, s2, {"t1": Element.of("a1"), "t2": Element.of("b1")}, 1)


# -- validation -----------------------------------------------------------------


def test_identity_hom_valid():
    s3 = get("SO3").ring
    vh = validate_hom(identity_hom(s3))
    per_degree, overall = check_injectivity(vh)
    assert overall and all(per_degree.values())
    assert check_top_class(vh)


def test_relation_not_preserved():
    src = TruncatedPresentation((GeneratorSpec("b1", 1),), (4,), 3)
    tgt = TruncatedPresentation((GeneratorSpec("a1", 1),), (8,), 7)
    spec = RingHomSpec(src, tgt, {"b1": generator(tgt, "a1")}, 1)
    with pytest.raises(HomValidationError, match="relation"):
        validate_hom(spec)


def test_degree_mismatch_rejected():
    src = get("SO3").ring  # generator b1 in degree 1
    tgt = get("SO4").ring
    b3 = generator(tgt, "b3")
    with pytest.raises(HomValidationError, match="degree mismatch"):
        validate_hom(RingHomSpec(src, tgt, {"b1": b3}, 1))


def test_unknown_generator_rejected():
    s3 = get("SO3").ring
    spec = RingHomSpec(
        s3, s3, {"b1": generator(s3, "b1"), "zz": unit(s3)}, 1
    )
    with pytest.raises(HomValidationError, match="unknown generator"):
        validate_hom(spec)


def test_missing_image_rejected():
    s4 = get("SO4").ring
    with pytest.raises(HomValidationError, match="no image"):
        validate_hom(RingHomSpec(s4, s4, {"b1": generator(s4, "b1")}, 1))


def test_table_source_multiplicativity_checked():
    s1 = get("S_1").ring  # torus surface table: a1*b1 = w
    images = {
        "a1": Element.of("a1"),
        "b1": Element.of("a1"),  # then a1*b1 -> a1*a1 = 0 but w -> w
        "w": Element.of("w"),
    }
    with pytest.raises(HomValidationError, match="multiplicativity"):
        validate_hom(RingHomSpec(s1, s1, images, 1))


def test_table_source_identity_valid():
    s2 = get("S_2").ring
    images = {l: Element.of(l) for l, d in s2.basis if d > 0}
    vh = validate_hom(RingHomSpec(s2, s2, images, 1))
    assert check_injectivity(vh)[1]
    assert check_top_class(vh)


def test_asserted_degree_must_be_unit():
    s3 = get("SO3").ring
    with pytest.raises(ValueError):
        RingHomSpec(s3, s3, {}, 2)


def test_zero_image_is_valid_but_not_injective():
    t2 = get("T2").ring
    images = {"t1": Element(), "t2": generator(t2, "t2")}
    vh = validate_hom(RingHomSpec(t2, t2, images, 1))
    per_degree, overall = check_injectivity(vh)
    assert not overall
    assert per_degree[0] and not per_degree[1]
    assert check_top_class(vh) is False  # t1*t2 -> 0


# -- collapse hom: the worked example ---------------------------------------------


def test_collapse_hom_injective_everywhere():
    vh = validate_hom(collapse_hom())
    per_degree, overall = check_injectivity(vh)
    assert per_degree == {0: True, 1: True, 2: True}
    assert overall
    # degree 1: the images of t2, t1 over the 4 classes a1, a2, b1, b2
    assert vh.matrices[1] == (0b0100, 0b0001)


def test_collapse_hom_top_class():
    assert check_top_class(validate_hom(collapse_hom()))


def test_ring_matching_checks_identity_first(monkeypatch):
    def no_eq(self, other):
        raise AssertionError("table equality compared")

    monkeypatch.setattr(MultiplicationTable, "__eq__", no_eq)
    s2 = get("S_2").ring
    identity = RingHomSpec(
        s2, s2, {l: Element.of(l) for l, _ in s2.basis if l != s2.unit_label}, 1
    )
    assert full_report(get("S_2"), get("S_2"), hom=validate_hom(identity)).overall == CERTIFIED


# -- criteria ---------------------------------------------------------------------


def test_cl_monotone_certified_equal():
    verdict = check_cl_monotone(get("S_2").ring, get("T2").ring)
    assert verdict.status == CERTIFIED


def test_cl_monotone_violated():
    verdict = check_cl_monotone(get("S2").ring, get("T2").ring)
    assert verdict.status == VIOLATED
    assert "1" in verdict.reason and "2" in verdict.reason


def test_cl_monotone_identity():
    verdict = check_cl_monotone(get("SO5").ring, get("SO5").ring)
    assert verdict.status == CERTIFIED


def test_cor_cat_transfer_so5():
    verdict = cor_cat_transfer(get("SO5").ledger(), get("SO5").ledger())
    assert verdict.status == CERTIFIED
    assert verdict.reason == "cl(range) = cat(range) = 8, so cat(domain) >= 8"


def test_cor_cat_transfer_torus():
    # T^k has cl = cat = k without any known value: interval collapses
    from lscat.bounds import cat_bounds

    n_ledger = cat_bounds(get("T3").ring, 3)
    assert n_ledger.cat.is_exact()
    verdict = cor_cat_transfer(None, n_ledger)
    assert verdict.status == CERTIFIED


def test_cor_cat_transfer_bounds_a_ringless_domain_by_its_cited_cat():
    # G2 has no ledger; its cited cat 4 is below cat(T14) = cl(T14) = 14
    n_ledger = get("T14").ledger()
    verdict = cor_cat_transfer(None, n_ledger, 4)
    assert verdict.status == VIOLATED
    assert "cat(domain) <= 4 < 14" in verdict.reason
    assert cor_cat_transfer(None, n_ledger, 14).status == CERTIFIED
    assert cor_cat_transfer(None, n_ledger).status == CERTIFIED


def test_cor_cat_transfer_inconclusive_when_cl_lt_cat():
    from lscat.bounds import cat_bounds

    n_ledger = cat_bounds(get("S_0").ring, 2, known_cat=2)  # cl 1 < cat 2 (synthetic)
    verdict = cor_cat_transfer(None, n_ledger)
    assert verdict.status == INCONCLUSIVE


def test_thm_main_g2():
    x14 = _declared(dim=14, stably_parallelizable=True)
    verdict = thm_main_check(x14, get("G2"))
    assert verdict.status == CERTIFIED
    assert "14" in verdict.reason and "20" in verdict.reason


def test_thm_main_sphere_fails_dimension_condition():
    m = _declared(dim=2, stably_parallelizable=True)
    verdict = thm_main_check(m, get("S2"))
    assert verdict.status == INCONCLUSIVE
    # cat(S2) is cited, so the failure is stated without qualification
    assert verdict.reason == (
        "dimension condition fails: dim range = 2 > 2*q*cat - 4 = 0 (q = 2, cat = 1)"
    )


def test_thm_main_failure_on_a_lower_bound_says_so():
    # cat(SO10) is only known to be >= 21; a larger true value may satisfy
    # dim 45 <= 2*q*cat - 4, so the reason must not claim the condition fails
    n = get("SO10")
    ledger = n.ledger()
    assert n.known_cat is None and not ledger.cat.is_exact()
    verdict = thm_main_check(_declared(dim=45, stably_parallelizable=True), n, ledger)
    assert verdict.status == INCONCLUSIVE
    assert verdict.reason == (
        "dimension condition fails for the lower bound only: dim range = 45 > "
        "2*q*cat - 4 = 38 (q = 1, cat >= 21)"
    )



def test_thm_main_certifies_from_the_cup_length_bound():
    # S3xS3 has no cited cat; its ledger only bounds cat below by cl = 2, and
    # dim 6 <= 2*q*cat - 4 only gets easier as cat grows past the bound
    n = get("S3xS3")
    ledger = n.ledger()
    assert n.known_cat is None and not ledger.cat.is_exact()
    verdict = thm_main_check(_declared(dim=6, stably_parallelizable=True), n, ledger)
    assert verdict.status == CERTIFIED
    assert "conditional" not in verdict.reason
    assert "q = 3, cat = 2" in verdict.reason


def test_thm_main_needs_flags():
    m = _declared(dim=14, stably_parallelizable=False)
    verdict = thm_main_check(m, get("G2"))
    assert verdict.status == INCONCLUSIVE
    assert verdict.reason == "domain is not flagged stably parallelizable"
    verdict = thm_main_check(get("G2"), m)
    assert (verdict.status, verdict.reason) == (
        INCONCLUSIVE, "range is not flagged stably parallelizable")


def _declared(dim: int, stably_parallelizable: bool, name: str = "X"):
    from lscat.catalogue import SpaceRecord

    return SpaceRecord(
        name=name,
        dimension=dim,
        connectivity=0,
        orientable=True,
        stably_parallelizable=stably_parallelizable,
        ring=None,
    )


def test_torus_stabilization_values():
    st = torus_stabilization_k(14)
    assert (st.k, st.lhs, st.rhs) == (18, 32, 32)
    assert torus_stabilization_k(0).k == 4
    assert torus_stabilization_k(10).k == 14


def test_torus_stabilization_equality_exactly_at_n_plus_4():
    for n in range(0, 30):
        st = torus_stabilization_k(n)
        assert st.k == n + 4
        assert st.lhs == st.rhs  # 2(n+4) - 4 == (n+4) + n


def test_thm_torus_check():
    verdict = thm_torus_check(get("SO5"), get("SO5"))
    assert verdict.status == CERTIFIED
    assert "14" in verdict.reason  # k = dim + 4 = 14
    not_par = _declared(dim=10, stably_parallelizable=False)
    assert thm_torus_check(not_par, get("SO5")).status == INCONCLUSIVE


def test_low_dim_genus_monotone():
    verdict = low_dim_check(2, m_genus=2, n_genus=1)
    assert verdict.status == CERTIFIED
    assert "genus" in verdict.reason


def test_low_dim_genus_obstruction():
    verdict = low_dim_check(2, m_genus=0, n_genus=1)
    assert verdict.status == VIOLATED


def test_low_dim_three():
    verdict = low_dim_check(3)
    assert verdict.status == CERTIFIED


def test_low_dim_not_applicable_above_four():
    assert low_dim_check(5).status == NOT_APPLICABLE


def test_morse_transfer_certified():
    verdict = morse_transfer_check(get("S3xS3"), get("S6"))
    assert verdict.status == CERTIFIED
    assert "4" in verdict.reason and "2" in verdict.reason


def test_morse_transfer_violated():
    verdict = morse_transfer_check(get("S6"), get("S3xS3"))
    assert verdict.status == VIOLATED
    assert "3" in verdict.reason  # failing degree


def test_morse_transfer_identity():
    verdict = morse_transfer_check(get("S3xS3"), get("S3xS3"))
    assert verdict.status == CERTIFIED


def test_morse_transfer_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        morse_transfer_check(get("S2"), get("S3"))


def test_morse_transfer_inconclusive_low_dim():
    verdict = morse_transfer_check(get("S_2"), get("S_1"))
    assert verdict.status == INCONCLUSIVE


# -- full report --------------------------------------------------------------------


def test_full_report_violated_sphere_to_torus():
    report = full_report(get("S2"), get("T2"))
    assert report.overall == VIOLATED
    by_id = {v.criterion_id: v for v in report.verdicts}
    assert by_id["prop_cl_monotone"].status == VIOLATED


def test_full_report_collapse_certified():
    report = full_report(get("S_2"), get("T2"), hom=validate_hom(collapse_hom()))
    assert report.overall == CERTIFIED
    by_id = {v.criterion_id: v for v in report.verdicts}
    assert by_id["low_dim"].status == CERTIFIED
    assert by_id["lemma_injectivity"].status == CERTIFIED
    assert by_id["prop_cl_monotone"].status == CERTIFIED


def test_full_report_g2_certified_via_thm_main():
    x14 = _declared(dim=14, stably_parallelizable=True, name="X14")
    report = full_report(x14, get("G2"))
    assert report.overall == CERTIFIED
    by_id = {v.criterion_id: v for v in report.verdicts}
    assert by_id["thm_main"].status == CERTIFIED
    assert by_id["prop_cl_monotone"].status == NOT_APPLICABLE


def test_full_report_identity_so5():
    report = full_report(get("SO5"), get("SO5"), hom=validate_hom(identity_hom(get("SO5").ring)))
    assert report.overall == CERTIFIED
    by_id = {v.criterion_id: v for v in report.verdicts}
    assert by_id["cor_cat_transfer"].status == CERTIFIED
    assert by_id["lemma_injectivity"].status == CERTIFIED


def test_full_report_injectivity_failure_forces_violated():
    t2 = get("T2")
    images = {"t1": Element(), "t2": generator(t2.ring, "t2")}
    hom = RingHomSpec(t2.ring, t2.ring, images, 1)
    report = full_report(t2, t2, hom=validate_hom(hom))
    assert report.overall == VIOLATED
    by_id = {v.criterion_id: v for v in report.verdicts}
    assert by_id["lemma_injectivity"].status == VIOLATED


def test_full_report_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        full_report(get("S2"), get("T3"))


def test_full_report_deterministic_order():
    r1 = full_report(get("S_2"), get("T2"))
    r2 = full_report(get("S_2"), get("T2"))
    assert r1 == r2
    ids = [v.criterion_id for v in r1.verdicts]
    assert ids == [
        "low_dim",
        "prop_cl_monotone",
        "cor_cat_transfer",
        "thm_main",
        "morse_transfer",
        "thm_torus",
    ]


def test_full_report_runs_the_criteria_table_in_order():
    # every row runs on T2 -> T2 with a map, and each check answers under its row's id
    t2 = get("T2")
    report = full_report(t2, t2, hom=validate_hom(identity_hom(t2.ring)))
    assert [v.criterion_id for v in report.verdicts] == [row[0] for row in CRITERIA]


@pytest.mark.parametrize("domain, range_, reasons", [
    ("G2", "G2", {"low_dim": "dimension 14 exceeds 4",
                  "prop_cl_monotone": "no ring data for G2",
                  "cor_cat_transfer": "no ring data for the range",
                  "morse_transfer": "no Morse data for G2"}),
    ("G2", "T14", {"low_dim": "dimension 14 exceeds 4",
                   "prop_cl_monotone": "no ring data for G2",
                   "morse_transfer": "no Morse data for G2"}),
    ("T14", "G2", {"low_dim": "dimension 14 exceeds 4",
                   "prop_cl_monotone": "no ring data for G2",
                   "cor_cat_transfer": "no ring data for the range",
                   "morse_transfer": "no Morse data for G2"}),
])
def test_full_report_names_what_a_ringless_space_lacks(domain, range_, reasons):
    report = full_report(get(domain), get(range_))
    assert {v.criterion_id: v.reason for v in report.verdicts
            if v.status == NOT_APPLICABLE} == reasons
    assert all(not v.citations for v in report.verdicts if v.status == NOT_APPLICABLE)


# small products beside the catalogue's names, so that cup-lengths below a
# range's sharp cl = cat occur (S2xS2 -> T4, S3xS3 -> T6, ...)
SMALL_PRODUCTS = [
    "S1xS1", "S2xS2", "S3xS3", "S1xS2", "S2xS4", "S3xS5", "T2xS2", "T3xS3",
    "SO3xS3", "SO3xT3", "SO4xS2", "SO5xT2", "S_1xS_2", "S_2xT2", "S_3xS2",
    "S_4xT3", "SO4xSO3", "T4xS_2", "SO5xS1", "S4xS4",
]


def test_full_report_ledgers_are_the_spaces_own():
    # the report proves cat(domain) >= cat(range) for a map that may not
    # exist, so it writes that into no ledger: each is the space's own
    records = [get(name) for name in names() + SMALL_PRODUCTS]
    pairs = [(m, n) for m in records for n in records if m.dimension == n.dimension]
    assert len(pairs) == 268
    for m, n in pairs:
        report = full_report(m, n)
        assert report.domain_ledger == m.ledger(), (m.name, n.name)
        assert report.range_ledger == n.ledger(), (m.name, n.name)


def test_full_report_mentions_open_question():
    report = full_report(get("S_2"), get("T2"))
    assert any("open question" in note for note in report.notes)


def test_report_to_dict_roundtrips_status():
    report = full_report(get("S_2"), get("T2"))
    d = report.to_dict()
    assert d["overall"] == report.overall
    assert [v["criterion_id"] for v in d["verdicts"]] == [
        v.criterion_id for v in report.verdicts
    ]


def test_matrices_expose_expected_shapes():
    vh = validate_hom(collapse_hom())
    # one tuple of image bitmasks per degree; the unit goes to the unit
    assert len(vh.matrices) == 3
    assert vh.matrices[0] == (1,)
    assert vh.matrices[2] == (1,)


def test_identity_validation_makes_no_label_products(monkeypatch):
    s = get("S_2xT4").ring
    specs = [
        identity_hom(get("T12").ring),
        RingHomSpec(s, s, {l: Element.of(l) for l, d in s.basis if d > 0}, 1),
    ]

    def refuse(*args):
        raise AssertionError("label-level product")

    for cls in (TruncatedPresentation, MultiplicationTable):
        monkeypatch.setattr(cls, "multiply", refuse)
    monkeypatch.setattr(MultiplicationTable, "product", refuse)
    for spec in specs:
        vh = validate_hom(spec)
        assert check_injectivity(vh)[1] and check_top_class(vh)


@pytest.mark.parametrize("name", ["S_2xT6", "x^400"])
def test_validation_costs_one_product_per_basis_element(name, monkeypatch):
    # the pairs inside each factor, then one product per basis tensor: not
    # the n(n+1)/2 basis pairs of S_2xT6 (384 basis elements), nor every
    # pair of powers of x in k[x]/(x^400)
    if name == "x^400":
        spec = identity_hom(TruncatedPresentation((GeneratorSpec("x", 1),), (400,), 399))
    else:
        s = get(name).ring
        spec = RingHomSpec(s, s, {l: Element.of(l) for l, d in s.basis if d > 0}, 1)
    calls = []
    times = CompiledRing.times

    def counted(self, *args):
        calls.append(args)
        return times(self, *args)

    monkeypatch.setattr(CompiledRing, "times", counted)
    validate_hom(spec)
    size = len(spec.source.compiled.degrees)
    assert size in (384, 400) and len(calls) <= 2 * size


# -- a label-level reference: images through the label algebra of the tests ---------


def reference_image(spec: RingHomSpec, term) -> Element:
    """The image of one source basis term: a table label's given image, or a
    monomial's generator images multiplied in one factor at a time."""
    source, target = spec.source, spec.target
    if isinstance(source, MultiplicationTable):
        return unit(target) if term == source.unit_label else spec.images[term]
    out = unit(target)
    for g, e in zip(source.generators, term):
        for _ in range(e):
            out = multiply(target, out, spec.images[g.name])
    return out


def reference_matrices(spec: RingHomSpec) -> tuple:
    out = []
    for d in range(spec.source.top_degree + 1):
        index = {t: i for i, t in enumerate(spec.target.basis_in_degree(d))}
        out.append(
            tuple(
                sum(1 << index[t] for t in reference_image(spec, s).terms)
                for s in spec.source.basis_in_degree(d)
            )
        )
    return tuple(out)


def reference_problems(spec: RingHomSpec) -> list[str]:
    """Every relation g^p = 0 (presentation) or basis pair (table) that the
    images break, with validate_hom's wording."""
    source, target = spec.source, spec.target
    problems = []
    if isinstance(source, TruncatedPresentation):
        for g, p in zip(source.generators, source.truncations):
            power = unit(target)
            for _ in range(p):
                power = multiply(target, power, spec.images[g.name])
            if power:
                problems.append(
                    f"relation {g.name}^{p} = 0 is not preserved: image power is nonzero"
                )
        return problems
    for i, (la, _) in enumerate(source.basis):
        for lb, _ in source.basis[i:]:
            product = multiply(source, Element.of(la), Element.of(lb))
            lhs = sum((reference_image(spec, t) for t in product.terms), Element())
            if lhs != multiply(target, reference_image(spec, la), reference_image(spec, lb)):
                problems.append(
                    f"multiplicativity fails on ({la}, {lb}): "
                    "image of product differs from product of images"
                )
    return problems


# presentations, surfaces and factored tables (products and expansions, one
# of two explicit factors, one of an explicit and a monogenic factor with
# q = 4), the tables built through the label reference, which multiplies them
# as they were built; squares vanish in the tori and surfaces but not in RP^2,
# SO3 and SO4, so presentation relations both hold and fail
SMALL_RINGS = [
    get("T2").ring,
    get("T3").ring,
    TruncatedPresentation((GeneratorSpec("x", 1),), (3,), 2),
    get("SO3").ring,
    get("SO4").ring,
    TruncatedPresentation((GeneratorSpec("c", 2),), (3,), 4),
    surface(1),
    surface(2),
    tensor(surface(1), get("T1").ring),
    expansion(get("T2").ring),
    expansion(get("SO3").ring),
    tensor(surface(1), surface(1)),
    tensor(surface(1), get("SO3").ring),
]


def _generators(ring) -> list[tuple[str, int]]:
    if isinstance(ring, TruncatedPresentation):
        return [(g.name, g.degree) for g in ring.generators]
    return [(l, d) for l, d in ring.basis if d > 0]


@st.composite
def random_homs(draw) -> RingHomSpec:
    """Images are random sums in the generator's degree; a hom of a ring to
    itself may instead be the identity with one image replaced."""
    source = draw(st.sampled_from(SMALL_RINGS))
    target = source if draw(st.booleans()) else draw(st.sampled_from(SMALL_RINGS))
    gens = _generators(source)
    replaced = draw(st.sampled_from(gens)) if target is source and draw(st.booleans()) else None
    images = {}
    for name, degree in gens:
        if replaced is not None and name != replaced[0]:
            images[name] = (
                generator(target, name)
                if isinstance(target, TruncatedPresentation)
                else Element.of(name)
            )
            continue
        basis = target.basis_in_degree(degree)
        mask = draw(st.integers(0, 2 ** len(basis) - 1))
        images[name] = Element(frozenset(t for i, t in enumerate(basis) if mask >> i & 1))
    return RingHomSpec(source, target, images, 1)


def test_validate_hom_agrees_with_the_label_level_reference():
    accepted = []

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(random_homs())
    def agrees(spec):
        expected = reference_problems(spec)
        try:
            vh = validate_hom(spec)
        except HomValidationError as exc:
            if isinstance(spec.source, TruncatedPresentation) or spec.source.factors is None:
                assert exc.problems == expected
            else:
                # a factored source is checked factor by factor, so it reports
                # the failing pairs of that check: some of the reference's, in
                # its order
                assert exc.problems and len(set(exc.problems)) == len(exc.problems)
                at = {problem: i for i, problem in enumerate(expected)}
                assert all(p in at for p in exc.problems)
                assert [at[p] for p in exc.problems] == sorted(at[p] for p in exc.problems)
            accepted.append(False)
        else:
            assert expected == []
            assert vh.matrices == reference_matrices(spec)
            accepted.append(True)

    agrees()
    assert len(accepted) / 5 <= accepted.count(False) <= len(accepted) * 4 / 5


# -- oracle: per-degree injectivity against brute-force rank ------------------------

# brute_rank enumerates all 2^n combinations of n rows, so degrees with more
# source classes than this are compared on their bitmasks only
ORACLE_MAX_ROWS = 12


def _torus_maps():
    rng = random.Random(5)
    for k in range(1, 7):
        t = get(f"T{k}").ring
        for kind in ("perm", "zero", "merge")[: 3 if k > 1 else 2]:
            for _ in range(3):
                images = [f"t{i}" for i in range(1, k + 1)]
                rng.shuffle(images)
                if kind == "zero":
                    images[rng.randrange(k)] = None
                elif kind == "merge":
                    i, j = rng.sample(range(k), 2)
                    images[j] = images[i]
                sends = {
                    f"t{i}": generator(t, img) if img else Element()
                    for i, img in enumerate(images, start=1)
                }
                yield f"T{k}-{kind}-{images}", RingHomSpec(t, t, sends, 1)


def _surface_maps():
    for g in range(1, 6):
        s = get(f"S_{g}").ring
        swap = {f"a{i}": Element.of(f"b{i}") for i in range(1, g + 1)}
        swap.update({f"b{i}": Element.of(f"a{i}") for i in range(1, g + 1)})
        yield f"S_{g}-swap", RingHomSpec(s, s, {**swap, "w": Element.of("w")}, 1)
        for h in range(1, g + 1):
            r = get(f"S_{h}").ring
            images = {l: Element.of(l) for l, d in r.basis if d > 0}
            yield f"S_{g}-collapse-S_{h}", RingHomSpec(r, s, images, 1)


def test_injectivity_matches_brute_force_rank():
    seen, brute_checked = set(), 0
    for name, spec in [*_torus_maps(), *_surface_maps()]:
        vh = validate_hom(spec)
        per_degree, overall = check_injectivity(vh)
        for d, masks in enumerate(vh.matrices):
            tgt_basis = spec.target.basis_in_degree(d)
            dense = [
                [int(t in reference_image(spec, s).terms) for t in tgt_basis]
                for s in spec.source.basis_in_degree(d)
            ]
            assert masks == tuple(sum(b << i for i, b in enumerate(row)) for row in dense), name
            if len(dense) <= ORACLE_MAX_ROWS:
                assert per_degree[d] == (brute_rank(dense) == len(dense)), (name, d)
                brute_checked += 1
        assert overall == all(per_degree.values())
        seen.add(overall)
    assert seen == {True, False}
    assert brute_checked > 200
