"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line each (run with -s to see the lines)."""

from __future__ import annotations

import random
import time

import pytest

from lscat.bounds import (
    cup_length_formula,
    cup_length_search,
    morse_lower_bound,
    so_n_presentation,
)
from lscat.catalogue import get, names, surface_table
from lscat.cli import EXIT_OK, EXIT_PARSE, main
from lscat.homs import (
    CERTIFIED,
    VIOLATED,
    RingHomSpec,
    check_injectivity,
    full_report,
    low_dim_check,
    morse_transfer_check,
    thm_main_check,
    torus_stabilization_k,
    validate_hom,
)
from lscat.rings import (
    Element,
    GeneratorSpec,
    MultiplicationTable,
    TruncatedPresentation,
    check_poincare_duality,
    expand_to_table,
    tensor_product,
)
from lscat.spacefile import SpaceFileError, parse_space, serialize_space

from label_algebra import vector

SIZE_BOUND = 4096


def _report(criterion: int, description: str) -> None:
    print(f"PASS acceptance criterion {criterion}: {description}")


def test_criterion_1_paper_table_reproduction(capsys):
    start = time.monotonic()
    code = main(["--json", "verify-paper"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == EXIT_OK
    import json

    payload = json.loads(out)
    so_rows = [r for r in payload["rows"] if r["row"].startswith("SO")]
    assert [r["dimension"] for r in so_rows] == [3, 6, 10, 15, 21, 28, 36]
    assert [r["cup_length_formula"] for r in so_rows] == [3, 4, 8, 9, 11, 12, 20]
    assert [r["cup_length_search"] for r in so_rows] == [3, 4, 8, 9, 11, 12, 20]
    assert all(r["ok"] for r in payload["rows"])
    assert elapsed < 10.0
    _report(1, f"verify-paper reproduces the SO(n) table in {elapsed:.2f}s")


def _random_presentation(rng: random.Random) -> TruncatedPresentation:
    while True:
        k = rng.randint(1, 4)
        gens = tuple(GeneratorSpec(f"g{i}", rng.randint(1, 6)) for i in range(k))
        truncs = tuple(rng.choice((1, 2, 2, 3, 4, 5, 8, 16)) for _ in range(k))
        size = 1
        for q in truncs:
            size *= q
        if size <= SIZE_BOUND:
            top = sum((q - 1) * g.degree for g, q in zip(gens, truncs))
            return TruncatedPresentation(gens, truncs, top)


def test_criterion_2_oracle_equivalence():
    cases = []
    for n in range(3, 10):
        cases.append(so_n_presentation(n))
    for k in range(1, 9):
        cases.append(get(f"T{k}").ring)
    for n in range(1, 11):
        cases.append(get(f"S{n}").ring)
    rng = random.Random(424242)
    randomized = [_random_presentation(rng) for _ in range(100)]
    cases.extend(randomized)
    for p in cases:
        assert p.total_dimension <= SIZE_BOUND
        assert cup_length_formula(p) == cup_length_search(expand_to_table(p)), p
    _report(
        2,
        f"formula = search on {len(cases)} presentations "
        f"({len(randomized)} randomized, table size <= {SIZE_BOUND})",
    )


def test_criterion_3_kunneth_additivity():
    presentation_pairs = [
        (f"SO{a}", f"SO{b}") for a in range(3, 8) for b in range(a, 8)
    ]  # 15 pairs, largest SO7 x SO7 = 4096
    presentation_pairs += [("T2", "T3"), ("T4", "T4"), ("S2", "S5"), ("T1", "SO5")]
    table_pairs = [("S_1", "S_2"), ("S_0", "S_3"), ("S_2", "S_2")]
    checked = 0
    for name_a, name_b in presentation_pairs:
        a, b = get(name_a).ring, get(name_b).ring
        prod = tensor_product(a, b)
        if prod.total_dimension > SIZE_BOUND:
            continue
        assert cup_length_search(expand_to_table(prod)) == cup_length_formula(
            a
        ) + cup_length_formula(b), (name_a, name_b)
        checked += 1
    for name_a, name_b in table_pairs:
        a, b = get(name_a).ring, get(name_b).ring
        prod = tensor_product(a, b)
        assert prod.size <= SIZE_BOUND
        assert cup_length_search(prod) == cup_length_search(a) + cup_length_search(b)
        checked += 1
    assert checked >= 20
    _report(3, f"cup-length additive on {checked} catalogue tensor pairs")


def test_criterion_4_poincare_duality():
    passing = []
    for name in ["SO3", "SO4"]:
        passing.append((name, expand_to_table(get(name).ring)))
    for g in range(5):
        passing.append((f"S_{g}", surface_table(g)))
    for k in range(1, 7):
        passing.append((f"T{k}", expand_to_table(get(f"T{k}").ring)))
    for n in range(1, 11):
        passing.append((f"S{n}", expand_to_table(get(f"S{n}").ring)))
    for name, table in passing:
        assert check_poincare_duality(table), name
    # deliberately corrupted: genus-1 table with the top class removed
    corrupted = MultiplicationTable(
        [("1", 0), ("a1", 1), ("b1", 1)], 2, {}
    )
    assert not check_poincare_duality(corrupted)
    _report(4, f"duality holds on {len(passing)} catalogue tables, fails when corrupted")


def test_criterion_5_g2_criterion():
    from lscat.catalogue import SpaceRecord

    g2 = get("G2")
    assert (g2.dimension, g2.connectivity, g2.known_cat[0]) == (14, 2, 4)
    x14 = SpaceRecord(
        name="M14",
        dimension=14,
        connectivity=0,
        orientable=True,
        stably_parallelizable=True,
        ring=None,
    )
    verdict = thm_main_check(x14, g2)
    assert verdict.status == CERTIFIED
    assert "14" in verdict.reason and "20" in verdict.reason  # 14 <= 2*3*4-4 = 20
    st = torus_stabilization_k(14)
    assert st.k == 18
    assert st.lhs == 2 * 18 - 4 == 32
    assert st.rhs == 18 + 14 == 32
    assert st.lhs >= st.rhs
    _report(5, "thm_main certifies 14 <= 20 for G2; stabilization k(14) = 18")


def test_criterion_6_obstruction_detection():
    report = full_report(get("S2"), get("T2"))
    assert report.overall == VIOLATED
    by_id = {v.criterion_id: v for v in report.verdicts}
    assert by_id["prop_cl_monotone"].status == VIOLATED
    assert "1" in by_id["prop_cl_monotone"].reason  # cl 1 < 2

    t2 = get("T2").ring
    s_2 = get("S_2").ring
    collapse = RingHomSpec(
        t2, s_2, {"t1": vector(s_2, Element.of("a1")), "t2": vector(s_2, Element.of("b1"))}, 1
    )
    per_degree, overall = check_injectivity(validate_hom(collapse))
    assert overall and all(per_degree.values())
    low = low_dim_check(2, m_genus=2, n_genus=1)
    assert low.status == CERTIFIED
    _report(6, "S2 -> T2 violated via cup-length; collapse hom injective, low_dim certifies")


def test_criterion_7_morse_suite():
    s3s3 = get("S3xS3")
    assert morse_lower_bound(s3s3) == (4, True)
    verdict = morse_transfer_check(get("S6"), s3s3)
    assert verdict.status == VIOLATED
    for g in range(0, 5):
        rec = get(f"S_{g}")
        sb = morse_lower_bound(rec)[0]
        assert sb == 2 * g + 2
        ledger = rec.ledger()
        assert sb >= ledger.crit_star.lower
        assert ledger.crit_star.lower == max(sb, ledger.crit.lower)
        if g >= 1:
            # the 2g literature value is recorded as a discrepancy, not asserted
            assert any("crit*" in note and "2g" in note for note in rec.notes)
            assert ledger.crit_star.lower != 2 * g
    _report(7, "Morse bounds exact on S3xS3; rank violation detected; crit* erratum flagged")


def test_criterion_8_ledger_consistency():
    spaces = list(names()) + ["S3xS3", "T2xT2", "S_1xS2", "SO3xSO3"]
    checked = 0
    for name in spaces:
        record = get(name)
        ledger = record.ledger()
        if ledger is None:
            continue
        ledger.validate()
        assert ledger.cup_length <= ledger.toomer_e.lower
        assert ledger.toomer_e.lower <= ledger.cat.lower
        assert ledger.cat.lower <= ledger.cat.upper <= ledger.dimension
        assert ledger.cat.lower <= ledger.ballcat.lower <= ledger.crit.lower - 1
        if ledger.betti_total is not None:
            assert ledger.betti_total <= ledger.crit_star.lower
        checked += 1
    assert checked >= 30
    _report(8, f"bound chain holds on all {checked} catalogue ledgers")


MALFORMED_FILES = [
    ("space X\ndim 2\ngenerator b1 1\ntruncate b1 0\n", "bad-exponent"),
    ("space X\ngenerator b1 1\ntruncate b1 2\n", "missing-dim"),
    ("space X\ndim 2\ngenerator b1 1\ngenerator b1 1\n", "duplicate-generator"),
    ("space X\ndim 2\ntruncate b1 2\n", "unknown-generator"),
    ("space X\ndim 2\ngenerator b1 1\nbasis w 2\n", "mixed-ring-kinds"),
    ("space X\ndim 2\nfrobnicate yes\n", "syntax"),
    ("space X\ndim 2\nbasis 1 0\nbasis a 1\nproduct a a = zz\n", "unknown-label"),
    ("space X\ndim 2\ngenerator b1 1\n", "missing-truncation"),
    ("space X\ndim 2\nbasis 1 0\nbasis a 1\nbasis a 1\n", "duplicate-basis"),
    ("space X\ndim 2\nbasis 1 0\nbasis a 1\nproduct a a = ^2\n", "bad-expression"),
]


def test_criterion_9_parser(tmp_path, capsys):
    exported = 0
    for name in names():
        record = get(name)
        first = serialize_space(record)
        second = serialize_space(parse_space(first))
        assert first == second, name
        assert parse_space(second) == parse_space(first)
        exported += 1

    assert len(MALFORMED_FILES) >= 10
    for i, (text, kind) in enumerate(MALFORMED_FILES):
        with pytest.raises(SpaceFileError) as exc_info:
            parse_space(text)
        assert exc_info.value.kind == kind, text
        path = tmp_path / f"bad{i}.space"
        path.write_text(text)
        code = main(["invariants", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE
        assert kind in err
    _report(
        9,
        f"round-trip fixpoint on {exported} exports; "
        f"{len(MALFORMED_FILES)} malformed files -> exit 65 with stable error class",
    )
