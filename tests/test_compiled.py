"""The compiled form of presentations, the per-ring cup-length memo, and
one compiled form per ring.

The compiled form is checked against the label-based expansion it
replaces and against the brute-force oracles; the memo is checked by
counting runs of the search kernel, and the sharing of ``ring.compiled``
by counting the compiled forms built.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lscat import bounds, catalogue
from lscat.bounds import cup_length_check, cup_length_formula
from lscat.catalogue import get, surface_table
from lscat.cli import EXIT_OK, main
from lscat.rings import (
    CompiledRing,
    GeneratorSpec,
    MultiplicationTable,
    TruncatedPresentation,
    check_poincare_duality,
    expand_to_table,
)
from lscat.spacefile import parse_space

from oracles import brute_basis_in_degree, brute_cup_length


def presentation(gens: list[tuple[int, int]]) -> TruncatedPresentation:
    """Generators given as (degree, truncation height)."""
    specs = tuple(GeneratorSpec(f"g{i}", d) for i, (d, _) in enumerate(gens))
    heights = tuple(h for _, h in gens)
    top = sum((h - 1) * d for d, h in gens)
    return TruncatedPresentation(specs, heights, top)


def compiled_search(p: TruncatedPresentation) -> int:
    c = p.compiled
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


def test_compiled_rows_match_expanded_products():
    """Every row bitmask of the compiled form equals the product the
    label-based expansion gives for the same pair of monomials."""
    for gens in GRID[::7]:
        p = presentation(gens)
        c = p.compiled
        table = expand_to_table(p)
        labels = {d: table.basis_in_degree(d) for d in range(c.top + 1)}

        def mask(terms, d):
            return sum(1 << labels[d].index(t) for t in terms)

        for d in range(c.top + 1):
            assert c.dims.get(d, 0) == len(brute_basis_in_degree(p, d))
        generators = [
            p.monomial_label(next(iter(p.generator_element(g.name).terms)))
            for g, h in zip(p.generators, p.truncations)
            if h >= 2
        ]
        assert len(generators) == len(c.generator_rows)
        for g, (dg, rows_by_degree) in zip(generators, c.generator_rows):
            assert dg == table.degree_of_label(g)
            for d, rows in rows_by_degree.items():
                assert rows == tuple(mask(table.product(x, g), d + dg) for x in labels[d])
        (top_label,) = table.basis_in_degree(c.top)
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


# -- one computation per ring ------------------------------------------------------


@pytest.fixture
def kernel_runs(monkeypatch):
    """Empty cup-length memo; returns the list of kernel runs made."""
    monkeypatch.setattr(bounds, "_PRESENTATION_CUP_LENGTHS", {})
    monkeypatch.setattr(bounds, "_TABLE_CUP_LENGTHS", {})
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


def test_two_parses_share_one_cup_length(kernel_runs):
    text = (
        'space X\ndim 6\nknown-cat 4 "declared"\n'
        "generator a 1\ngenerator b 2\ntruncate a 3\ntruncate b 3\n"
    )
    first, second = parse_space(text), parse_space(text)
    assert first.ring is not second.ring
    assert cup_length_check(first.ring) is cup_length_check(second.ring)
    assert len(kernel_runs) == 1


def test_tables_are_memoized_by_identity(kernel_runs, monkeypatch):
    def no_eq(self, other):
        raise AssertionError("table equality compared")

    monkeypatch.setattr(MultiplicationTable, "__eq__", no_eq)
    a, b = surface_table(3), surface_table(3)
    assert cup_length_check(a) is cup_length_check(a)
    assert cup_length_check(b).value == cup_length_check(a).value == 2
    assert len(kernel_runs) == 2


def test_invariants_skips_expansion_above_the_limit(kernel_runs, monkeypatch, capsys):
    def no_table(*args, **kwargs):
        raise AssertionError("a multiplication table was built")

    monkeypatch.setattr(MultiplicationTable, "__init__", no_table)
    assert main(["invariants", "T16"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cup-length: 16 (formula)" in out
    assert "poincare duality: None" in out
    assert "compiled" not in get("T16").ring.__dict__
    assert kernel_runs == []


# -- one integer form per ring -------------------------------------------------------


IDENTITY_T4 = "map identity\ndomain T4\nrange T4\ndegree 1\n" + "".join(
    f"send t{i} -> t{i}\n" for i in range(1, 5)
)


def test_each_ring_is_numbered_once(monkeypatch, tmp_path, capsys):
    """Search, duality, factors and hom validation share ``ring.compiled``:
    no ring is numbered twice, whichever of them reads it first."""
    for cached in vars(catalogue).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()  # fresh rings, nothing compiled yet
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
    capsys.readouterr()
    counts = Counter(map(id, numbered))
    # the product, its two factors (the surface table and T2) and T4
    assert {id(ring), id(get("T4").ring)} <= set(counts)
    assert len(counts) == 4
    assert set(counts.values()) == {1}
