"""The compiled form of presentations, each ring's own invariants, and
one compiled form per ring.

The compiled form is checked against the label-based expansion it
replaces and against the brute-force oracles, and the search kernel
against its earlier design and by the rows it reads; each ring's
invariants are checked by counting runs of the search kernel and by
freeing the ring, and the sharing of ``ring.compiled`` by counting the
compiled forms built.
"""

from __future__ import annotations

import gc
import itertools
import random
import tracemalloc
import weakref
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lscat import bounds, catalogue
from lscat.bounds import (
    cup_length,
    cup_length_check,
    cup_length_formula,
    cup_length_search,
    poincare_duality,
)
from lscat.catalogue import get, surface_table
from lscat.cli import EXIT_OK, main
from lscat.rings import (
    CompiledRing,
    GeneratorSpec,
    MultiplicationTable,
    Ring,
    TruncatedPresentation,
    _Rows,
    check_poincare_duality,
    expand_to_table,
)
from lscat.spacefile import parse_space

from label_algebra import basis_in_degree
from oracles import (
    brute_basis_in_degree,
    brute_cup_length,
    reference_adapted_basis,
    reference_ideal_power_search,
    reference_presentation_compile,
)


def presentation(gens: list[tuple[int, int]]) -> TruncatedPresentation:
    """Generators given as (degree, truncation height)."""
    specs = tuple(GeneratorSpec(f"g{i}", d) for i, (d, _) in enumerate(gens))
    heights = tuple(h for _, h in gens)
    top = sum((h - 1) * d for d, h in gens)
    return TruncatedPresentation(specs, heights, top)


def compiled_search(ring: Ring) -> int:
    c = ring.compiled
    return bounds._ideal_power_search(c.dims, c.generator_rows)


# every presentation on generators of degree 1..3 and height 1..4 with at
# most 64 monomials: all orders of up to two generators, all multisets of three
PAIRS = [(d, h) for d in (1, 2, 3) for h in (1, 2, 3, 4)]
GRID = [[]] + [
    list(g) for k in (1, 2) for g in itertools.product(PAIRS, repeat=k)
] + [list(g) for g in itertools.combinations_with_replacement(PAIRS, 3)]


def test_grid_covers_every_small_presentation_class():
    sizes = [presentation(g).total_dimension for g in GRID]
    assert max(sizes) == 64 and min(sizes) == 1
    assert len(GRID) == 1 + 12 + 144 + 364


def test_compiled_search_matches_brute_force():
    for gens in GRID:
        p = presentation(gens)
        assert compiled_search(p) == brute_cup_length(expand_to_table(p)), gens


def test_compiled_duality_matches_table_duality():
    # the grid declares each top degree at the highest monomial degree; the
    # last ring declares dim 3 above its highest monomial (degree 1), so it
    # has no class in its top degree and neither form may pair into degree 1
    below_dim = TruncatedPresentation((GeneratorSpec("a", 1),), (2,), 3)
    for p in [presentation(gens) for gens in GRID] + [below_dim]:
        assert check_poincare_duality(p) == check_poincare_duality(expand_to_table(p)), p
    assert check_poincare_duality(expand_to_table(below_dim)) is False


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 8)), max_size=5).filter(
        lambda gens: presentation(gens).total_dimension <= 256
    )
)
def test_presentations_compile_over_their_factors_as_by_monomial_number(gens):
    p = presentation(gens)
    c = p.compiled
    rows, pairing, product = reference_presentation_compile(p)
    assert c.generator_rows == rows
    for d in c.dims:
        assert c.pairing(d) == pairing(d), d
    positions = range(len(c.degrees))
    assert [c.product(a, b) for a in positions for b in positions] == [
        product(a, b) for a in positions for b in positions
    ]


def test_compiled_rows_match_expanded_products():
    """Every row bitmask of the compiled form equals the product the
    label-based expansion gives for the same pair of monomials."""
    for gens in GRID[::7]:
        p = presentation(gens)
        c = p.compiled
        table = expand_to_table(p)
        labels = {d: basis_in_degree(table, d) for d in range(c.top + 1)}

        def mask(terms, d):
            return sum(1 << labels[d].index(t) for t in terms)

        for d in range(c.top + 1):
            assert c.dims.get(d, 0) == len(brute_basis_in_degree(p, d))
        generators = [
            p.monomial_label(tuple(int(h == g) for h in p.generators))
            for g, h in zip(p.generators, p.truncations)
            if h >= 2
        ]
        assert len(generators) == len(c.generator_rows)
        for g, (dg, rows_by_degree) in zip(generators, c.generator_rows):
            assert dg == dict(table.basis)[g]
            for d, rows in rows_by_degree.items():
                assert rows == tuple(mask(table.product(x, g), d + dg) for x in labels[d])
        (top_label,) = basis_in_degree(table, c.top)
        for d in c.dims:
            assert c.pairing(d) == tuple(
                mask([y for y in labels[c.top - d] if top_label in table.product(x, y)], c.top - d)
                for x in labels[d]
            )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 8)), max_size=5).filter(
        lambda gens: presentation(gens).total_dimension <= 1024
    )
)
def test_formula_equals_compiled_search(gens):
    p = presentation(gens)
    assert cup_length_formula(p) == compiled_search(p)


# -- the one-pass search kernel ---------------------------------------------------


def reference_search(ring: Ring) -> int:
    c = ring.compiled
    return reference_ideal_power_search(c.dims, c.generator_rows)


def rebased(t: MultiplicationTable, rng: random.Random) -> MultiplicationTable:
    """``t`` in a random graded unitriangular change of basis, as an
    explicit table: new element i of a degree is old element i plus a
    random sum of the later ones, so products are sums of basis elements."""
    old = {d: basis_in_degree(t, d) for d in dict.fromkeys(d for _, d in t.basis)}
    masks = {  # new label -> (degree, bitmask over the old basis of its degree)
        l if d == 0 else f"e{d}_{i}": (d, 1 << i | sum(1 << j for j in range(i + 1, len(ls))
                                                       if rng.random() < 0.5))
        for d, ls in old.items() for i, l in enumerate(ls)
    }
    new = {d: [l for l, (e, _) in masks.items() if e == d] for d in old}

    def in_new_basis(d: int, v: int) -> frozenset:
        terms = []
        for i, l in enumerate(new[d]):  # unitriangular: bit i decides term i
            if v >> i & 1:
                v ^= masks[l][1]
                terms.append(l)
        return frozenset(terms)

    labels = list(masks)
    products = {}
    for i, x in enumerate(labels):
        for y in labels[i:]:
            (dx, mx), (dy, my) = masks[x], masks[y]
            v = 0
            for a, b in itertools.product(range(len(old[dx])), range(len(old[dy]))):
                if mx >> a & my >> b & 1:
                    v ^= sum(1 << old[dx + dy].index(z) for z in t.product(old[dx][a], old[dy][b]))
            if v:
                products[(x, y)] = in_new_basis(dx + dy, v)
    return MultiplicationTable([(l, d) for l, (d, _) in masks.items()], t.top_degree, products)


def generator_lists(max_size: int, max_degree: int = 5, min_size: int = 1):
    """Generators as (degree, height) of a presentation of at most max_size monomials."""
    pairs = st.tuples(st.integers(1, max_degree), st.sampled_from((1, 2, 2, 3, 4, 5, 8)))
    return st.lists(pairs, min_size=min_size, max_size=4).filter(
        lambda gens: presentation(gens).total_dimension <= max_size
    )


# catalogue factors of at most 16 basis elements; a product with a surface is a table
SURFACES = ["S_0", "S_1", "S_2", "S_3"]
FACTORS = SURFACES + ["T1", "T2", "T3", "SO3", "SO4", "SO5", "S1", "S2", "S4"]


@st.composite
def searched_rings(draw):
    """A ring the search runs on, with its cup-length formula when it has one:
    a presentation of at most 512 monomials or its expansion, a catalogue
    product with a surface factor, or a rebased expansion or surface table."""
    kind = draw(st.sampled_from(("presentation", "expansion", "product", "rebased")))
    if kind == "product":
        names = draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=2))
        names = draw(st.permutations([draw(st.sampled_from(SURFACES))] + names))
        return get("x".join(names)).ring, None
    if kind == "rebased":
        rng = draw(st.randoms(use_true_random=False))
        if draw(st.integers(0, 3)) == 0:
            return rebased(surface_table(draw(st.integers(0, 4))), rng), None
        # low degrees, so that some degree has several basis elements to mix
        p = presentation(draw(generator_lists(48, max_degree=2, min_size=2)))
        return rebased(expand_to_table(p), rng), cup_length_formula(p)
    p = presentation(draw(generator_lists(512)))
    return (p if kind == "presentation" else expand_to_table(p)), cup_length_formula(p)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(searched_rings())
def test_search_equals_the_reference_kernel_and_the_formula(ring_and_formula):
    ring, formula = ring_and_formula
    found = compiled_search(ring)
    assert found == reference_search(ring)
    assert formula is None or found == formula


@settings(derandomize=True, max_examples=150, deadline=None)
@given(searched_rings())
def test_each_adapted_basis_equals_the_xor_basis_reference(ring_and_formula):
    # the written-out elimination keeps the pivots, the order and the levels
    ring, _ = ring_and_formula
    steps, step = [], bounds._adapted_basis

    def recorded(n, sources):
        levels = step(n, sources)
        steps.append((n, sources, levels))
        return levels

    with mock.patch.object(bounds, "_adapted_basis", recorded):
        compiled_search(ring)
    assert steps or not any(d > 0 and n for d, n in ring.compiled.dims.items())
    for n, sources, levels in steps:
        assert levels == reference_adapted_basis(n, sources)


def test_rebased_tables_multiply_into_sums():
    # the rebased tables are the only ones whose rows have several bits
    table = rebased(expand_to_table(presentation([(1, 4), (1, 2), (2, 2)])), random.Random(3))
    rows = [r for _, by_degree in table.compiled.generator_rows for rs in by_degree.values()
            for r in rs.values()]
    assert any(r & (r - 1) for r in rows)
    assert compiled_search(table) == reference_search(table) == brute_cup_length(table) == 5


class CountedRows:
    """Rows that count their reads, over a factored ring's tuple or an
    explicit table's dict of nonzero rows alike."""

    reads = 0

    def __init__(self, rows):
        self.rows = rows

    def __getitem__(self, i):
        CountedRows.reads += 1
        return self.rows[i]


def row_reads(ring: Ring) -> tuple[int, int]:
    """(row reads of one search of ``ring``, its cup-length)."""
    c = ring.compiled
    rows = [(dg, {d: CountedRows(rs) for d, rs in by_degree.items()})
            for dg, by_degree in c.generator_rows]
    CountedRows.reads = 0
    found = bounds._ideal_power_search(c.dims, rows)
    return CountedRows.reads, found


@pytest.mark.parametrize("name", ["SO12", "T11", "SO7xT5", "4096 monomials"])
def test_search_multiplies_each_basis_vector_by_each_generator_once(name):
    ring = (presentation([(1, 8), (2, 8), (1, 4), (2, 4), (3, 2), (1, 2)])
            if name == "4096 monomials" else get(name).ring)
    c = ring.compiled
    reads, found = row_reads(ring)
    assert found == cup_length_formula(ring)
    assert reads <= len(c.generator_rows) * sum(n for d, n in c.dims.items() if d > 0)


def test_search_stops_a_degree_once_it_is_full():
    # one nonzero product fills the top degree of a surface
    table = surface_table(200)
    reads, found = row_reads(table)
    assert found == 2
    assert reads <= len(table.basis)


def test_a_product_composes_its_rows_from_its_factors_nonzero_rows(monkeypatch):
    """S_300xS1 composes each generator's rows from the nonzero rows of its
    factor, so it reads no missing row of S_300 (one read per position of
    S_300 and generator, 359,400 in all, when every position was read).
    The record searches S_300 itself first, which may read missing rows."""
    fresh_catalogue()
    ring = get("S_300xS1").ring
    missing = []
    monkeypatch.setattr(_Rows, "__missing__", lambda self, i: missing.append(i) or 0)
    assert ring.compiled._search is None  # its own rows are not composed yet
    assert len(ring.compiled.generator_rows) == 602  # S_300's 601, S1's one
    assert missing == []
    assert cup_length_search(ring) == 3


@pytest.mark.parametrize("g", [500, 2000])
def test_a_surface_compiles_and_searches_in_space_linear_in_its_genus(g):
    # its 2g generators keep O(g) nonzero rows; dense rows, (2g)^2 entries,
    # took 33 kB a genus at g = 500 and 129 kB at g = 2000
    table = surface_table(g)
    tracemalloc.start()
    try:
        assert cup_length_search(table) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4000 * g


# -- one computation per ring ------------------------------------------------------


def fresh_catalogue() -> None:
    """Clear the catalogue's caches, so that its records and rings are built
    anew, with nothing compiled and no invariant read yet."""
    for cached in vars(catalogue).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()


@pytest.fixture
def kernel_runs(monkeypatch):
    """A fresh catalogue; returns the list of kernel runs made, each as its
    arguments (the searched ring's dims and generator rows)."""
    fresh_catalogue()
    runs = []
    kernel = bounds._ideal_power_search

    def counted(*args):
        runs.append(args)
        return kernel(*args)

    monkeypatch.setattr(bounds, "_ideal_power_search", counted)
    return runs


def test_degree1_report_searches_once(kernel_runs, capsys):
    assert main(["degree1-report", "-m", "T10", "-n", "T10"]) == EXIT_OK
    capsys.readouterr()
    assert len(kernel_runs) == 1


def test_duality_is_ranked_once_per_ring(monkeypatch, capsys):
    """Both sides of a report on one ring share its duality verdict, and a
    cup-length ranks no pairing."""
    fresh_catalogue()
    ranked = []
    rank = bounds.check_poincare_duality
    monkeypatch.setattr(bounds, "check_poincare_duality", lambda ring: ranked.append(ring) or rank(ring))
    assert main(["degree1-report", "-m", "T10", "-n", "T10"]) == EXIT_OK
    assert ranked == [get("T10").ring]
    ranked.clear()
    fresh_catalogue()
    assert main(["cup-length", "T10"]) == EXIT_OK
    capsys.readouterr()
    assert ranked == []


def test_a_parsed_ring_searches_once_and_keeps_its_cup_length(kernel_runs):
    text = (
        'space X\ndim 6\nknown-cat 4 "declared"\n'
        "generator a 1\ngenerator b 2\ntruncate a 3\ntruncate b 3\n"
    )
    ring = parse_space(text).ring
    assert kernel_runs == []  # the cited cat is checked against the formula
    assert cup_length_check(ring) is cup_length_check(ring)
    assert ring.invariants == {"cup_length": cup_length_check(ring)}
    assert cup_length_check(ring).value == 4 and len(kernel_runs) == 1


def test_a_ring_and_its_invariants_are_freed_with_it():
    """Each ring keeps its own invariants: nothing else holds a presentation
    or an explicit table whose cup-length and duality were read."""
    refs = []
    for ring, cl in ((presentation([(1, 3), (2, 3)]), 4), (surface_table(3), 2)):
        assert (cup_length(ring), poincare_duality(ring)) == (cl, True)
        assert set(ring.invariants) == {"cup_length", "duality"}
        refs.append(weakref.ref(ring))
    del ring
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_tables_are_memoized_by_identity(kernel_runs, monkeypatch):
    def no_eq(self, other):
        raise AssertionError("table equality compared")

    monkeypatch.setattr(MultiplicationTable, "__eq__", no_eq)
    a, b = surface_table(3), surface_table(3)
    assert cup_length_check(a) is cup_length_check(a)
    assert cup_length_check(b).value == cup_length_check(a).value == 2
    assert len(kernel_runs) == 2


def test_invariants_skips_expansion_above_the_limit(kernel_runs, monkeypatch, capsys):
    """T16's 65,536 monomials are above the limit: its cup-length and its
    duality come from its factors, and nothing of it is compiled."""
    def not_built(*args, **kwargs):
        raise AssertionError("a multiplication table or compiled form was built")

    monkeypatch.setattr(MultiplicationTable, "__init__", not_built)
    monkeypatch.setattr(CompiledRing, "__init__", not_built)
    assert main(["invariants", "T16"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cup-length: 16 (formula)" in out
    assert "poincare duality: True" in out
    assert "compiled" not in get("T16").ring.__dict__
    assert kernel_runs == []


def test_products_above_the_limit_search_only_their_explicit_factors(kernel_runs, capsys):
    """S_2xT10 has 6 x 1,024 = 6,144 basis elements, above the limit: its
    cup-length is the sum over its factors, and the one search is of the
    explicit factor S_2."""
    assert main(["cup-length", "S_2xT10"]) == EXIT_OK
    assert capsys.readouterr().out == "cup-length of S_2xT10: 12\n"
    assert [dims for dims, _ in kernel_runs] == [surface_table(2).compiled.dims]
    assert cup_length_check(get("S_2xT10").ring).search is None


def test_resolving_records_searches_tables_only(kernel_runs, capsys):
    """A cited cat is checked against a presentation's formula, so resolving
    T12 runs no search and listing the catalogue searches only the five
    surface tables S_0..S_4; printing a cup-length still cross-checks it."""
    assert main(["show", "T12"]) == EXIT_OK
    assert kernel_runs == []
    assert main(["catalogue"]) == EXIT_OK
    assert len(kernel_runs) == 5
    assert main(["invariants", "T12"]) == EXIT_OK
    assert "cup-length: 12 (formula) = 12 (search) [agree]" in capsys.readouterr().out
    assert len(kernel_runs) == 6


# -- one integer form per ring -------------------------------------------------------


IDENTITY_T4 = "map identity\ndomain T4\nrange T4\ndegree 1\n" + "".join(
    f"send t{i} -> t{i}\n" for i in range(1, 5)
)


def test_an_identity_map_lists_no_terms(tmp_path, capsys):
    """A map's images stay vectors of the compiled form from the file to
    the matrices: checking the identity of T8 numbers its 256 monomials but
    builds no table of their exponent tuples (the lookups)."""
    fresh_catalogue()
    identity = tmp_path / "t8.map"
    identity.write_text("map identity\ndomain T8\nrange T8\ndegree 1\n" + "".join(
        f"send t{i} -> t{i}\n" for i in range(1, 9)))
    assert main(["check-map", str(identity)]) == EXIT_OK
    assert "consistent with a degree +-1 map" in capsys.readouterr().out
    ring = get("T8").ring
    assert "compiled" in vars(ring) and ring.compiled._lookups is None


def test_each_ring_is_numbered_once(monkeypatch, tmp_path, capsys):
    """Search, duality, factors and hom validation share ``ring.compiled``:
    no ring is numbered twice, whichever of them reads it first."""
    fresh_catalogue()
    numbered = []
    init = CompiledRing.__init__

    def counted(self, ring):
        numbered.append(ring)  # kept alive, so that ids stay distinct
        init(self, ring)

    monkeypatch.setattr(CompiledRing, "__init__", counted)
    ring = get("S_2xT2").ring
    identity = tmp_path / "s2xt2.map"
    identity.write_text(
        "map identity\ndomain S_2xT2\nrange S_2xT2\ndegree 1\n"
        + "".join(f"send {l} -> {l}\n" for l, _ in ring.basis if l != ring.unit_label)
    )
    t4 = tmp_path / "t4.map"
    t4.write_text(IDENTITY_T4)
    assert main(["check-map", str(identity)]) == EXIT_OK
    assert main(["check-map", str(t4)]) == EXIT_OK
    assert main(["degree1-report", "-m", "T4", "-n", "T4", "--map", str(t4)]) == EXIT_OK
    # a file named by -m, -n and the map's domain and range is parsed once
    space = tmp_path / "f.space"
    space.write_text("space F\ndim 3\ngenerator a 1\ngenerator b 2\ntruncate a 2\ntruncate b 2\n")
    f_map = tmp_path / "f.map"
    f_map.write_text(f"map identity\ndomain {space}\nrange {space}\ndegree 1\n"
                     "send a -> a\nsend b -> b\n")
    assert main(["degree1-report", "-m", str(space), "-n", str(space), "--map", str(f_map)]) == EXIT_OK
    capsys.readouterr()
    counts = Counter(map(id, numbered))
    # the product, its two factors (the surface table and T2), T4 and F
    assert {id(ring), id(get("T4").ring)} <= set(counts)
    assert len(counts) == 5
    assert set(counts.values()) == {1}
