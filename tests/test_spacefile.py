"""Space/map file parsing, serialization, and round-trips."""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lscat
from lscat.bounds import cup_length, cup_length_formula
from lscat.catalogue import SpaceRecord, get, names, surface_table
from lscat.homs import check_injectivity, check_top_class, validate_hom
from lscat.rings import (
    CompiledRing,
    Element,
    GeneratorSpec,
    MultiplicationTable,
    TruncatedPresentation,
    tensor_product,
)
from lscat.spacefile import (
    SpaceFileError,
    element_from_monomials,
    parse_expression,
    parse_map,
    parse_space,
    resolve_map,
    serialize_space,
)

from file_errors import FILE_ERRORS
from label_algebra import evaluate, surface, table, tensor

SO5_FILE = """\
# special orthogonal group SO(5)
space SO5
dim 10
connectivity 0
stably-parallelizable true
generator b1 1
generator b3 3
truncate b1 8
truncate b3 2
"""

TORUS_TABLE_FILE = """\
space T2tab
dim 2
basis 1 0
basis a 1
basis b 1
basis w 2
product a b = w
"""

COLLAPSE_MAP = """\
map collapse
domain S_2
range T2
degree +1
send t1 -> a1
send t2 -> b1
"""


def test_parse_so5_file():
    record = parse_space(SO5_FILE)
    assert record.name == "SO5"
    assert record.dimension == 10
    assert isinstance(record.ring, TruncatedPresentation)
    assert record.ring.truncations == (8, 2)
    assert cup_length(record.ring) == 8
    assert record.stably_parallelizable


def test_parse_table_file():
    record = parse_space(TORUS_TABLE_FILE)
    assert isinstance(record.ring, MultiplicationTable)
    assert record.ring.product("a", "b") == frozenset({"w"})
    assert record.ring.product("a", "a") == frozenset()
    assert cup_length(record.ring) == 2


def test_parse_point_file():
    record = parse_space("space pt\ndim 0\n")
    assert record.dimension == 0
    assert isinstance(record.ring, TruncatedPresentation)
    assert record.ring.generators == ()


def test_parse_flags_only_record():
    record = parse_space("space X14\ndim 14\nstably-parallelizable true\n")
    assert record.ring is None
    assert record.stably_parallelizable
    assert record.dimension == 14


def test_parse_defaults():
    record = parse_space("space X\ndim 1\ngenerator t 1\ntruncate t 2\n")
    assert record.connectivity == 0
    assert not record.stably_parallelizable
    assert record.orientable


def test_known_cat_parsed():
    record = parse_space(
        'space X\ndim 2\nknown-cat 2 "some literature value"\n'
        "generator a 1\ngenerator b 1\ntruncate a 2\ntruncate b 2\n"
    )
    assert record.known_cat == (2, "some literature value")


# -- malformed inputs (error classes) ------------------------------------------


MALFORMED = [
    ("space X\ndim 2\ngenerator b1 1\ntruncate b1 0\n", "bad-exponent"),
    ("space X\ngenerator b1 1\ntruncate b1 2\n", "missing-dim"),
    ("space X\ndim 2\ngenerator b1 1\ngenerator b1 1\n", "duplicate-generator"),
    ("space X\ndim 2\ntruncate b1 2\n", "unknown-generator"),
    ("space X\ndim 2\ngenerator b1 1\nbasis w 2\n", "mixed-ring-kinds"),
    ("space X\ndim 2\nfrobnicate yes\n", "syntax"),
    ("space X\ndim two\n", "syntax"),
    ("space X\ndim 2\nbasis 1 0\nbasis a 1\nproduct a a = zz\n", "unknown-label"),
    ("space X\ndim 2\ngenerator b1 1\n", "missing-truncation"),
    ("space X\ndim 2\nbasis 1 0\nbasis a 1\nbasis a 1\n", "duplicate-basis"),
    ("space X\ndim 2\nknown-cat 2 nocitation\n", "syntax"),
    ("space X\ndim 2\nbasis 1 0\nbasis a 1\nproduct a a = ^2\n", "bad-expression"),
    ("space X\ndim 2\nbasis 1 0\nbasis a 1\nbasis w 2\nproduct a a = w^2\n", "bad-expression"),
    ("dim 2\nspace X\n", "syntax"),
    ("space X\ndim 2\ngenerator a 1\ntruncate a 9\n", "non-manifold"),
    (
        "space X\ndim 2\nknown-cat 1 \"too low\"\n"
        "generator a 1\ngenerator b 1\ntruncate a 2\ntruncate b 2\n",
        "inconsistent-known-cat",
    ),
    # a 3-connected space has no class in degrees 1..3
    (
        "space X\ndim 4\nconnectivity 3\nstably-parallelizable true\n"
        + "".join(f"generator t{i} 1\ntruncate t{i} 2\n" for i in range(4)),
        "inconsistent-connectivity",
    ),
    (
        "space X\ndim 8\nconnectivity 7\nstably-parallelizable true\n"
        "generator a 1\ngenerator b 7\ntruncate a 2\ntruncate b 2\n",
        "inconsistent-connectivity",
    ),
    (
        "space X\ndim 2\nconnectivity 1\nbasis 1 0\nbasis a 1\nbasis b 1\nbasis w 2\n"
        "product a b = w\n",
        "inconsistent-connectivity",
    ),
    # flags only: a closed 2-manifold has a class in degree 2, so it is not 5-connected
    ('space C\ndim 2\nconnectivity 5\nstably-parallelizable true\nknown-cat 1 "x"\n',
     "inconsistent-connectivity"),
]


@pytest.mark.parametrize("text,kind", MALFORMED)
def test_malformed_space_files(text, kind):
    with pytest.raises(SpaceFileError) as exc_info:
        parse_space(text)
    assert exc_info.value.kind == kind


def test_error_carries_line_number():
    with pytest.raises(SpaceFileError) as exc_info:
        parse_space("space X\ndim 2\ngenerator b1 1\ntruncate b1 0\n")
    assert exc_info.value.line == 4
    assert "line 4" in str(exc_info.value)


@pytest.mark.parametrize("fmt, text, expected", FILE_ERRORS,
                         ids=[f"{fmt}-{text}" for fmt, text, _ in FILE_ERRORS])
def test_file_errors_keep_their_message_kind_and_line(fmt, text, expected):
    with pytest.raises(SpaceFileError) as exc_info:
        (parse_space if fmt == "space" else parse_map)(text)
    error = exc_info.value
    assert (str(error), error.kind, error.line) == expected


def test_every_error_kind_is_documented():
    """Each ``kind="..."`` the package raises is in ``SpaceFileError``'s list."""
    listed = SpaceFileError.__doc__.split("class:", 1)[1]
    documented = {item.split()[0] for item in listed.split(",")}
    raised = {kind for path in Path(lscat.__file__).parent.glob("*.py")
              for kind in re.findall(r'kind="([^"]*)"', path.read_text(encoding="utf-8"))}
    assert "unknown-space" in raised and len(raised) > 15
    assert raised <= documented, raised - documented


# -- round-trips ----------------------------------------------------------------


def test_round_trip_fixpoint_on_catalogue_exports():
    for name in names():
        record = get(name)
        first = serialize_space(record)
        reparsed = parse_space(first)
        second = serialize_space(reparsed)
        assert first == second, name
        assert parse_space(second) == reparsed


IDENTIFIERS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)
# a citation runs to its closing quote, and '#' starts a comment
CITATIONS = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters='"#'))


@st.composite
def presentation_records(draw) -> SpaceRecord:
    names_ = draw(st.lists(IDENTIFIERS, max_size=4, unique=True))
    gens = tuple(GeneratorSpec(n, draw(st.integers(1, 4))) for n in names_)
    heights = tuple(draw(st.integers(1, 5)) for _ in gens)
    top = sum((h - 1) * g.degree for g, h in zip(gens, heights))
    # without ring lines a positive dimension reads as a flags-only record
    dim = top + draw(st.integers(0, 2)) if gens else 0
    ring = TruncatedPresentation(gens, heights, dim)
    known = None
    if draw(st.booleans()):
        known = (draw(st.integers(cup_length_formula(ring), dim)), draw(CITATIONS))
    # a c-connected space has no class in degrees 1..c, and c < dim unless dim = 0
    low = min((g.degree for g, h in zip(gens, heights) if h > 1), default=4)
    return SpaceRecord(
        name=draw(IDENTIFIERS),
        dimension=dim,
        connectivity=draw(st.integers(0, min(3, low - 1, dim - 1 if dim else 3))),
        orientable=draw(st.booleans()),
        stably_parallelizable=draw(st.booleans()),
        ring=ring,
        known_cat=known,
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(presentation_records())
def test_serialize_parse_is_a_fixpoint_on_presentations(record):
    text = serialize_space(record)
    reparsed = parse_space(text)
    assert reparsed == record
    assert serialize_space(reparsed) == text


def test_round_trip_preserves_fields():
    record = parse_space(SO5_FILE)
    again = parse_space(serialize_space(record))
    assert again.name == record.name
    assert again.ring == record.ring
    assert again.stably_parallelizable == record.stably_parallelizable


def test_round_trip_table_products():
    record = parse_space(TORUS_TABLE_FILE)
    again = parse_space(serialize_space(record))
    assert again.ring.basis == record.ring.basis
    assert again.ring.product("a", "b") == frozenset({"w"})


def test_round_trip_flags_only():
    record = parse_space("space X14\ndim 14\nstably-parallelizable true\n")
    again = parse_space(serialize_space(record))
    assert again.ring is None
    assert again.stably_parallelizable


@pytest.mark.parametrize("citation, bad", [("Smith #4", "#"), ('the "book"', '"'), ("a\nb", "\n")])
def test_serialize_rejects_citations_the_format_cannot_hold(citation, bad):
    record = SpaceRecord(
        name="T2", dimension=2, connectivity=0, orientable=True,
        stably_parallelizable=True, ring=get("T2").ring, known_cat=(2, citation),
    )
    with pytest.raises(ValueError, match=re.escape(f"cannot contain {bad!r}")):
        serialize_space(record)


# -- expressions ------------------------------------------------------------------


def test_parse_expression_basic():
    assert parse_expression("0") == []
    assert parse_expression("1") == [{}]
    assert parse_expression("b1^2*b3") == [{"b1": 2, "b3": 1}]
    assert parse_expression("a + b") == [{"a": 1}, {"b": 1}]


def test_parse_expression_reads_product_labels_with_powers():
    # a product table's label keeps its factor's power: SO5's b1^2 beside a1
    assert parse_expression("b1^2_a1") == [{"b1^2_a1": 1}]
    assert parse_expression("b1^2_a1^2 + b1^2_a1^3_w") == [{"b1^2_a1": 2}, {"b1^2_a1^3_w": 1}]
    with pytest.raises(SpaceFileError) as exc:
        parse_expression("x^2^3")
    assert exc.value.kind == "bad-expression"


def test_parse_expression_whitespace_insensitive():
    assert parse_expression("b1 ^ 2 * b3") == parse_expression("b1^2*b3")


def test_parse_expression_rejects_garbage():
    with pytest.raises(SpaceFileError):
        parse_expression("a + + b")
    with pytest.raises(SpaceFileError):
        parse_expression("")
    with pytest.raises(SpaceFileError):
        parse_expression("2a")


def test_element_from_monomials_presentation_reduces():
    s4 = get("SO4").ring
    elem = element_from_monomials(s4, parse_expression("b1^4"))
    assert elem == Element()
    elem = element_from_monomials(s4, parse_expression("b1^3*b3 + b1 + b1"))
    assert elem == Element.of((3, 1))


def test_element_from_monomials_table_evaluates_products():
    s1 = get("S_1").ring
    elem = element_from_monomials(s1, parse_expression("a1*b1"))
    assert elem == Element.of("w")
    assert element_from_monomials(s1, parse_expression("1")) == Element.of("1")
    assert element_from_monomials(s1, parse_expression("1 + a1*b1 + b1")) == Element.of(
        "1", "w", "b1"
    )
    assert element_from_monomials(s1, parse_expression("b1*a1 + a1*b1 + 0")) == Element()
    assert element_from_monomials(s1, parse_expression("a1^1")) == Element.of("a1")
    assert element_from_monomials(s1, parse_expression("a1^1000000000000")) == Element()
    assert element_from_monomials(s1, parse_expression("w^0 + a1^0")) == Element()


def test_element_from_monomials_unknown_names():
    s4 = get("SO4").ring
    with pytest.raises(SpaceFileError):
        element_from_monomials(s4, parse_expression("zz"))
    s1 = get("S_1").ring
    with pytest.raises(SpaceFileError):
        element_from_monomials(s1, parse_expression("zz"))


def test_table_powers_take_logarithmically_many_products(monkeypatch):
    s2 = get("S_2").ring
    named_unit = parse_space(TORUS_TABLE_FILE.replace("basis 1 0", "basis e 0")).ring
    calls = []
    times = CompiledRing.times

    def counted(self, *args):
        calls.append(1)
        if len(calls) > 300:
            raise AssertionError("a power costs one product per unit of the exponent")
        return times(self, *args)

    monkeypatch.setattr(CompiledRing, "times", counted)
    n = 10**12
    assert element_from_monomials(s2, parse_expression(f"a1^{n}")) == Element()
    assert element_from_monomials(named_unit, parse_expression(f"e^{n}")) == Element.of("e")
    assert element_from_monomials(named_unit, parse_expression(f"a*e^{n}")) == Element.of("a")
    assert element_from_monomials(named_unit, parse_expression("a*b^1")) == Element.of("w")
    assert calls


# -- the evaluator against the label-level reference -------------------------------

# Z/2[x]/(x^4) from a file that lists its basis out of degree order
TRUNCATED_FILE = (
    "space P3\ndim 3\nbasis x3 3\nbasis 1 0\nbasis x 1\nbasis x2 2\n"
    "product x x = x2\nproduct x x2 = x3\n"
)
TRUNCATED = table([("x3", 3), ("1", 0), ("x", 1), ("x2", 2)], 3,
                  {("x", "x"): {"x2"}, ("x", "x2"): {"x3"}})
# the tables built through the reference, which multiplies them as they were
# built; each is the ring of a file, the catalogue or a tensor product
EXPRESSION_RINGS = [
    get("SO4").ring,
    get("T3").ring,
    TruncatedPresentation((GeneratorSpec("c", 2), GeneratorSpec("z", 1)), (3, 1), 4),
    surface(2),
    table([("1", 0), ("a", 1), ("b", 1), ("w", 2)], 2, {("a", "b"): {"w"}}),
    TRUNCATED,
    tensor(surface(1), get("T2").ring),
    tensor(get("SO3").ring, surface(1)),
    tensor(TRUNCATED, surface(1)),
]


def test_the_reference_tables_are_the_rings_they_stand_for():
    assert EXPRESSION_RINGS[3:8] == [
        get("S_2").ring,
        parse_space(TORUS_TABLE_FILE).ring,
        parse_space(TRUNCATED_FILE).ring,
        get("S_1xT2").ring,
        get("SO3xS_1").ring,
    ]
    assert EXPRESSION_RINGS[8] == tensor_product(parse_space(TRUNCATED_FILE).ring, surface_table(1))


def _names(ring) -> list[str]:
    if isinstance(ring, TruncatedPresentation):
        return [g.name for g in ring.generators]
    return [l for l, _ in ring.basis if re.fullmatch(r"[A-Za-z_]\w*", l)]


@st.composite
def expressions(draw):
    """A ring and an expression over its names: sums of 0, 1 and products of
    powers, the exponents small, past a truncation or up to 10^12."""
    ring = draw(st.sampled_from(EXPRESSION_RINGS))
    exponent = st.one_of(st.integers(0, 5), st.sampled_from([10**12, 10**12 + 1]))
    factor = st.tuples(st.sampled_from(_names(ring)), exponent).map(
        lambda f: f[0] if f[1] == 1 else f"{f[0]}^{f[1]}"
    )
    summand = st.one_of(st.sampled_from(["0", "1"]), st.lists(factor, min_size=1, max_size=3).map("*".join))
    return ring, " + ".join(draw(st.lists(summand, min_size=1, max_size=5)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(expressions())
def test_element_from_monomials_agrees_with_the_label_reference(case):
    ring, text = case
    monomials = parse_expression(text)
    assert element_from_monomials(ring, monomials) == evaluate(ring, monomials), text


def _every_product(ring) -> str:
    names = _names(ring)
    return " + ".join(f"{x}*{y}" for i, x in enumerate(names) for y in names[i:])


# and per ring, each product of two of its names once, so that a wrong product
# of two basis elements of an explicit table changes the sum
for _ring in EXPRESSION_RINGS:
    test_element_from_monomials_agrees_with_the_label_reference = example(
        (_ring, _every_product(_ring))
    )(test_element_from_monomials_agrees_with_the_label_reference)


# -- map files ---------------------------------------------------------------------


def test_parse_map_file():
    spec = parse_map(COLLAPSE_MAP)
    assert spec.name == "collapse"
    assert spec.domain == "S_2"
    assert spec.range == "T2"
    assert spec.degree == 1
    assert spec.sends == (("t1", "a1"), ("t2", "b1"))


def test_parse_map_negative_degree():
    spec = parse_map("map m\ndomain S_2\nrange T2\ndegree -1\nsend t1 -> a1\n")
    assert spec.degree == -1


def test_parse_map_missing_field():
    with pytest.raises(SpaceFileError) as exc_info:
        parse_map("map m\ndomain S_2\nrange T2\nsend t1 -> a1\n")
    assert exc_info.value.kind == "missing-field"


def test_parse_map_bad_degree():
    with pytest.raises(SpaceFileError) as exc_info:
        parse_map("map m\ndomain A\nrange B\ndegree 2\n")
    assert exc_info.value.kind == "bad-degree"


def test_parse_map_duplicate_send():
    with pytest.raises(SpaceFileError):
        parse_map("map m\ndomain A\nrange B\ndegree 1\nsend t -> a\nsend t -> b\n")


def test_resolve_collapse_map_end_to_end():
    spec = parse_map(COLLAPSE_MAP)
    hom = resolve_map(spec, get("S_2"), get("T2"))
    vh = validate_hom(hom)
    per_degree, overall = check_injectivity(vh)
    assert overall and per_degree == {0: True, 1: True, 2: True}
    assert check_top_class(vh)


def test_resolve_map_needs_ring_data():
    spec = parse_map("map m\ndomain G2\nrange G2\ndegree 1\n")
    with pytest.raises(SpaceFileError) as exc_info:
        resolve_map(spec, get("G2"), get("G2"))
    assert exc_info.value.kind == "no-ring-data"
