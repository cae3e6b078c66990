"""Catalogue records: rings, flags, citations, ledgers."""

from __future__ import annotations

import math
import re
import time
import warnings
from unittest import mock

import pytest

from lscat import catalogue
from lscat.bounds import cup_length, cup_length_formula, morse_lower_bound
from lscat.catalogue import (
    SO_KNOWN_CAT,
    SpaceFileError,
    SpaceRecord,
    UnknownSpaceError,
    get,
    names,
    surface_table,
)
from lscat.rings import (
    GeneratorSpec,
    MultiplicationTable,
    TruncatedPresentation,
    check_poincare_duality,
    expand_to_table,
)
from lscat.spacefile import parse_space


def test_get_so7():
    rec = get("SO7")
    assert rec.dimension == 21
    assert cup_length(rec.ring) == 11
    assert rec.known_cat == (11, rec.known_cat[1])
    assert rec.stably_parallelizable


def test_get_t3():
    rec = get("T3")
    assert cup_length(rec.ring) == 3
    assert rec.known_cat[0] == 3
    assert rec.morse == (1, 3, 3, 1)


def test_get_genus0_is_sphere_table():
    rec = get("S_0")
    assert isinstance(rec.ring, MultiplicationTable)
    assert rec.ring.size == 2
    assert rec.known_cat[0] == 1
    assert rec.simply_connected


def test_get_sphere_vs_surface_names():
    sphere = get("S2")
    surface = get("S_2")
    assert sphere.dimension == 2 and surface.dimension == 2
    assert sphere.genus is None
    assert surface.genus == 2


def test_get_point():
    rec = get("point")
    assert rec.dimension == 0
    assert rec.known_cat[0] == 0
    assert cup_length(rec.ring) == 0


def test_get_g2_flags_only():
    rec = get("G2")
    assert rec.ring is None
    assert rec.dimension == 14
    assert rec.connectivity == 2
    assert rec.known_cat[0] == 4
    assert rec.stably_parallelizable
    assert rec.ledger() is None


def test_unknown_name():
    with pytest.raises(UnknownSpaceError):
        get("K3")
    with pytest.raises(UnknownSpaceError):
        get("T0")
    with pytest.raises(UnknownSpaceError):
        get("SO1")
    # a digit that int() does not read is not a family parameter
    with pytest.raises(UnknownSpaceError):
        get("S\u00b2")


def test_records_are_cached():
    assert get("SO5") is get("SO5")
    assert get("T4") is get("T4")


def test_surface_table_g0():
    t = surface_table(0)
    assert t.size == 2
    assert t.top_degree == 2


def test_surface_table_g1_cup_length():
    assert cup_length(surface_table(1)) == 2


def test_surface_table_g2_poincare():
    assert surface_table(2).poincare_polynomial() == [1, 4, 1]


def test_surface_tables_pass_duality():
    for g in range(5):
        assert check_poincare_duality(surface_table(g))


def test_so_n_cup_length_equals_known_cat():
    for n, cat in SO_KNOWN_CAT.items():
        rec = get(f"SO{n}")
        assert cup_length_formula(rec.ring) == cat == rec.known_cat[0]


def test_known_cat_between_cup_length_and_dimension():
    for name in names():
        rec = get(name)
        if rec.known_cat is None or rec.ring is None:
            continue
        assert cup_length(rec.ring) <= rec.known_cat[0] <= rec.dimension


def test_catalogue_rings_pass_duality():
    for name in ["SO3", "SO4", "S_0", "S_1", "S_2", "T1", "T2", "T3", "S2", "S5"]:
        rec = get(name)
        table = (
            rec.ring
            if isinstance(rec.ring, MultiplicationTable)
            else expand_to_table(rec.ring)
        )
        assert check_poincare_duality(table), name


def test_product_record_s3xs3():
    rec = get("S3xS3")
    assert rec.dimension == 6
    assert rec.morse == (1, 0, 0, 2, 0, 0, 1)
    assert rec.simply_connected
    assert rec.stably_parallelizable
    assert cup_length(rec.ring) == 2


def test_product_record_mixed_kinds():
    rec = get("S_1xS2")
    assert rec.dimension == 4
    assert isinstance(rec.ring, MultiplicationTable)
    assert cup_length(rec.ring) == 3
    # presentations ahead of a table join it one by one, by their expansions' labels
    labels = [l for l, _ in get("S2xS3xS_1").ring.basis]
    assert labels[4:8] == ["x3", "x3_a1", "x3_b1", "x3_w"] and "x2_x3" in labels


def test_product_with_g2_rejected():
    with pytest.raises(UnknownSpaceError):
        get("G2xS2")


def test_surface_crit_star_discrepancy_note():
    for g in (1, 2, 3):
        rec = get(f"S_{g}")
        assert any("crit*" in note for note in rec.notes)
        ledger = rec.ledger()
        # the ledger records the Morse-derived bound 2g+2, not the 2g value
        assert ledger.crit_star.lower == 2 * g + 2 == sum(rec.morse)


def test_surface_genus1_cat_annotated_via_torus():
    rec = get("S_1")
    assert rec.known_cat[0] == 2
    assert "torus" in rec.known_cat[1]


def test_record_validates_ring_dimension():
    with pytest.raises(ValueError):
        SpaceRecord(
            name="bad",
            dimension=3,
            connectivity=0,
            orientable=True,
            stably_parallelizable=False,
            ring=surface_table(1),
        )


def test_record_validates_known_cat():
    with pytest.raises(ValueError):
        SpaceRecord(
            name="bad",
            dimension=2,
            connectivity=0,
            orientable=True,
            stably_parallelizable=False,
            ring=surface_table(1),
            known_cat=(1, "below the cup-length"),
        )


def test_record_validates_connectivity_against_the_ring():
    # a 7-connected space has no class in degrees 1..7
    ring = TruncatedPresentation((GeneratorSpec("a", 1), GeneratorSpec("b", 7)), (2, 2), 8)
    with pytest.raises(ValueError, match="class in degree 1"):
        SpaceRecord("X", 8, 7, True, True, ring)
    SpaceRecord("X", 8, 0, True, True, ring)
    # truncation 1 makes a generator zero, so it is no class
    sphere = TruncatedPresentation((GeneratorSpec("a", 1), GeneratorSpec("b", 8)), (1, 2), 8)
    SpaceRecord("X", 8, 7, True, True, sphere)
    with pytest.raises(ValueError, match="class in degree 1"):
        SpaceRecord("X", 2, 1, True, True, surface_table(1))


def test_names_listing():
    ns = names()
    for expected in ("point", "G2", "SO9", "T8", "S10", "S_4"):
        assert expected in ns


# each family's refusal below its least parameter, as the catalogue has always worded it
REFUSALS = {"SO": "SO n needs n >= 2", "T": "tori T k need k >= 1",
            "S": "spheres S n need n >= 1", "S_": "surfaces S_g need g >= 0"}


def test_the_family_table_is_what_get_names_and_the_listing_read(capsys):
    from lscat.cli import main

    for name in names():
        assert get(name).name == name
    assert list(catalogue.FAMILIES) == list(REFUSALS)
    for prefix, (letter, least, *_) in catalogue.FAMILIES.items():
        assert get(f"{prefix}{least}").name == f"{prefix}{least}"
        assert REFUSALS[prefix].endswith(f" {letter} >= {least}")
        below = f"{prefix}{least - 1}"
        message = REFUSALS[prefix] if least > 0 else f"unknown space name {below!r}"
        with pytest.raises(UnknownSpaceError, match=f"^{re.escape(message)}$"):
            get(below)
    assert main(["catalogue"]) == 0
    listed = capsys.readouterr().out.splitlines()[-1]
    assert listed == ("families: SOn (n >= 2), Tk (k >= 1), Sn (n >= 1), S_g (g >= 0); "
                      "products on demand, e.g. S3xS3")
    families = re.findall(r"(\w+?)([a-z]) \(\2 >= (\d+)\)", listed)
    assert families == [(prefix, letter, str(least))
                        for prefix, (letter, least, *_) in catalogue.FAMILIES.items()]


def test_ledger_for_so6():
    ledger = get("SO6").ledger()
    assert ledger.cup_length == 9
    assert (ledger.cat.lower, ledger.cat.upper) == (9, 9)
    assert (ledger.toomer_e.lower, ledger.toomer_e.upper) == (9, 9)


def _closed_form_ranks(name: str) -> tuple[int, ...]:
    """Betti numbers of a point, sphere, torus or surface, from closed
    forms; of a product of them, the convolution of its factors'."""
    parts = name.split("x")
    if len(parts) > 1:
        ranks = [1]
        for other in map(_closed_form_ranks, parts):
            out = [0] * (len(ranks) + len(other) - 1)
            for i, x in enumerate(ranks):
                for j, y in enumerate(other):
                    out[i + j] += x * y
            ranks = out
        return tuple(ranks)
    if name == "point":
        return (1,)
    if name.startswith("S_"):
        return (1, 2 * int(name[2:]), 1)
    k = int(name[1:])
    if name.startswith("T"):
        return tuple(math.comb(k, d) for d in range(k + 1))
    return (1,) + (0,) * (k - 1) + (1,)


@pytest.mark.parametrize("name", ["point", *(f"T{k}" for k in range(1, 65)),
                                  *(f"S{n}" for n in range(1, 12)), *(f"S_{g}" for g in range(6)),
                                  "S1xS1", "S2xS4", "T3xS3", "S_1xS_2", "S_2xT2", "S_4xT3",
                                  "T4xS_2", "pointxS_1xS3", "S_2xS_2xT2"])
def test_morse_ranks_are_the_closed_forms(name):
    """The ranks read off each ring equal C(k, d) for T^k, 1 in degrees 0
    and n for S^n, (1, 2g, 1) for S_g and (1,) for the point, and their
    convolution for products."""
    assert get(name).morse == _closed_form_ranks(name)


def test_morse_data_only_for_torsion_free_families():
    assert get("SO3").morse is None and get("SO3xT2").morse is None and get("G2").morse is None
    # exact from dimension 6 when simply connected: S^n, n >= 2, and S_0; a product
    # of them only when every factor's record is (a point's connectivity is 0)
    exact = {name: morse_lower_bound(get(name))[1]
             for name in ("S6", "T6", "S_0xS4", "S_1xS4", "S3xS3", "S2xT4", "pointxS6")}
    assert exact == {"S6": True, "T6": False, "S_0xS4": True, "S_1xS4": False, "S3xS3": True,
                     "S2xT4": False, "pointxS6": False}


def test_torus_series_takes_linearly_many_steps():
    """T^k's series is one factor's raised to the k-th power: T4000 in
    well under 2 s, where one convolution per factor was cubic in k."""
    k = 4000
    ring = TruncatedPresentation(tuple(GeneratorSpec(f"t{i}", 1) for i in range(k)), (2,) * k, k)
    start = time.perf_counter()
    poly = ring.poincare_polynomial()
    assert time.perf_counter() - start < 2.0
    assert poly == [math.comb(k, d) for d in range(k + 1)]


def test_catalogue_poincare_polynomials_palindromic():
    # dimension counts of a closed-manifold ring mirror around the middle
    for name in names():
        rec = get(name)
        if rec.ring is None:
            continue
        poly = rec.ring.poincare_polynomial()
        assert poly == poly[::-1], name


def test_so3_dimension_census():
    ring = get("SO3").ring
    assert ring.total_dimension == 4
    assert sum(ring.poincare_polynomial()) == 4


def test_tensor_poincare_multiplicative_on_catalogue_pairs():
    from lscat.rings import tensor_product

    def convolve(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    pairs = [("SO3", "T2"), ("SO4", "S3"), ("T3", "T2"), ("SO5", "S1")]
    for name_a, name_b in pairs:
        a, b = get(name_a).ring, get(name_b).ring
        prod = tensor_product(a, b)
        expected = convolve(a.poincare_polynomial(), b.poincare_polynomial())
        assert prod.poincare_polynomial() == expected, (name_a, name_b)


# products whose factors share generator names (SO4, SO3: b1; T2, T3: t1, t2)
# or table labels (S_1, S_1: a1, b1, w)
COLLIDING_PRODUCTS = ["SO4xSO3", "T2xT3", "S_1xS_1"]


def _fresh_rings() -> list:
    """The rings of every catalogue name and colliding product, built anew."""
    for cached in vars(catalogue).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    records = [get(name) for name in names() + COLLIDING_PRODUCTS]
    return [record.ring for record in records if record.ring is not None]


def test_no_ring_warns():
    """A name met again in a product is renamed silently, for presentations
    and tables alike: building every catalogue ring warns nothing."""
    def refuse(message, *args, **kwargs):
        raise AssertionError(f"warned: {message}")

    with warnings.catch_warnings(), mock.patch("warnings.warn", refuse):
        warnings.simplefilter("error")
        rings = _fresh_rings()
    assert len(rings) == len(names()) - 1 + len(COLLIDING_PRODUCTS)  # G2 has no ring
    assert [g.name for g in get("SO4xSO3").ring.generators] == ["b1", "b3", "b1_2"]
    assert [g.name for g in get("T2xT3").ring.generators] == ["t1", "t2", "t1_2", "t2_2", "t3"]
    labels = [l for l, _ in get("S_1xS_1").ring.basis]
    assert labels[4:6] == ["a1__2", "a1_a1"] and labels[8] == "b1__2" and labels[12] == "w__2"


def test_compiled_top_is_the_declared_top():
    """A presentation stays within its dimension, so its compiled form pairs
    into its declared top degree, as a table's does; U (a 3-manifold ring
    with a^2 = 0) has no class there."""
    u = TruncatedPresentation((GeneratorSpec("a", 1),), (2,), 3)
    for ring in _fresh_rings() + [u]:
        assert ring.compiled.top == ring.top_degree
    assert not check_poincare_duality(u)


def test_every_catalogue_record_passes_the_stably_parallelizable_check():
    """Every record is flagged stably parallelizable, and none of positive
    dimension has a class of half its dimension with a nonzero square."""
    products = ["S2xS2", "S3xS3", "S2xS4", "S_1xS_1", "S_2xT2", "SO3xS3", "SO4xT2", "T3xS_1"]
    for name in names() + products:
        record = get(name)
        assert record.stably_parallelizable, name
        assert record.ring is None or record.dimension == 0 or not record.ring.has_middle_square()


@pytest.mark.parametrize("text, refused", [
    ("space CP2\ndim 4\nconnectivity 1\ngenerator x 2\ntruncate x 3\n", True),
    ("space HP2\ndim 8\nconnectivity 3\ngenerator y 4\ntruncate y 3\n", True),
    ("space CP2xS2\ndim 6\ngenerator x 2\ngenerator y 2\ntruncate x 3\ntruncate y 2\n", False),
    ("space Q\ndim 2\nbasis 1 0\nbasis a 1\nbasis b 1\nbasis w 2\nproduct a b = w\n"
     "product b b = w\n", True),
    ("space T\ndim 2\nbasis 1 0\nbasis a 1\nbasis b 1\nbasis w 2\nproduct a b = w\n", False),
])
def test_a_stably_parallelizable_flag_needs_zero_middle_squares(text, refused):
    """Wu's formula: on a closed 2k-manifold x^2 = v_k x for x of degree k,
    and v_k = 0 on a stably parallelizable one.  The same rings unflagged
    are accepted."""
    assert parse_space(text).stably_parallelizable is False
    flagged = text + "stably-parallelizable true\n"
    if refused:
        with pytest.raises(SpaceFileError) as error:
            parse_space(flagged)
        assert error.value.kind == "inconsistent-stably-parallelizable"
    else:
        assert parse_space(flagged).stably_parallelizable is True
