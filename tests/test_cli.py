"""Command-line behaviour: outputs, exit codes, JSON/text parity."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lscat
from lscat.bounds import ENUMERATION_LIMIT
from lscat.catalogue import get
from lscat.cli import (
    COMMANDS,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    EXIT_VIOLATED,
    _HelpRequested,
    _is_negative_number,
    _printable,
    _UsageError,
    main,
    parse_args,
)
from lscat.spacefile import SpaceFileError, parse_space
from oracles import ReferenceUsageError, reference_cli_parser

COLLAPSE_MAP = """\
map collapse
domain S_2
range T2
degree +1
send t1 -> a1
send t2 -> b1
"""

X14_FILE = """\
space X14
dim 14
stably-parallelizable true
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == EXIT_USAGE
    assert "error" in err


def test_unknown_space_is_usage_error(capsys):
    code, _, err = run(capsys, "invariants", "K3")
    assert code == EXIT_USAGE
    assert "K3" in err


def test_show_round_trips_through_parser(capsys):
    code, out, _ = run(capsys, "show", "SO5")
    assert code == EXIT_OK
    record = parse_space(out)
    assert record.name == "SO5"
    assert record.ring.truncations == (8, 2)


def test_show_json(capsys):
    code, out, _ = run(capsys, "--json", "show", "T2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["dimension"] == 2
    assert payload["ring"]["kind"] == "presentation"


def test_invariants_so6_text(capsys):
    code, out, _ = run(capsys, "invariants", "SO6")
    assert code == EXIT_OK
    assert "9 (formula) = 9 (search)" in out
    assert "cat = 9" in out
    assert "known cat: 9" in out


def test_invariants_t2_json(capsys):
    code, out, _ = run(capsys, "--json", "invariants", "T2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["cup_length"]["formula"] == 2
    assert payload["cup_length"]["search"] == 2
    assert payload["poincare_duality"] is True


def test_invariants_point_all_zero(capsys):
    code, out, _ = run(capsys, "invariants", "point")
    assert code == EXIT_OK
    assert "cup-length: 0" in out
    assert "cat = 0" in out


def test_invariants_g2_flags_only(capsys):
    code, out, _ = run(capsys, "invariants", "G2")
    assert code == EXIT_OK
    assert "not applicable" in out


def test_json_and_text_agree(capsys):
    code, out_json, _ = run(capsys, "--json", "invariants", "SO6")
    payload = json.loads(out_json)
    code2, out_text, _ = run(capsys, "invariants", "SO6")
    assert code == code2 == EXIT_OK
    assert str(payload["cup_length"]["formula"]) in out_text
    assert str(payload["ledger"]["cat"]["lower"]) in out_text
    assert str(payload["dimension"]) in out_text


def test_cup_length_command(capsys):
    code, out, _ = run(capsys, "cup-length", "SO9")
    assert code == EXIT_OK
    assert "20" in out


def test_check_map_collapse(tmp_path, capsys):
    path = tmp_path / "collapse.map"
    path.write_text(COLLAPSE_MAP)
    code, out, _ = run(capsys, "check-map", str(path))
    assert code == EXIT_OK
    assert "injective" in out
    assert "consistent with a degree +-1 map" in out


def test_map_files_name_product_labels_with_powers(tmp_path, capsys):
    """The identity of SO5xS_1, whose labels such as b1^2_a1 (SO5's b1^2
    beside S_1's a1) are sent to themselves.  A label with a * is sent to
    the product of its factors, and so is a bare power such as b1^2, which
    an expression reads as the square of S_1's b1; SO5's b1 is b1__2."""
    ring = get("SO5xS_1").ring
    labels = [l for l, _ in ring.basis if l != ring.unit_label]
    own = [l for l in labels if "*" not in l and ("^" not in l or "_" in l)]
    sends = [f"send {l} -> {l if l in own else l.replace('b1', 'b1__2', 1)}\n" for l in labels]
    assert "send b1^2_a1 -> b1^2_a1\n" in sends
    path = tmp_path / "identity.map"
    path.write_text("map identity\ndomain SO5xS_1\nrange SO5xS_1\ndegree +1\n" + "".join(sends))
    code, out, err = run(capsys, "check-map", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert "NOT injective" not in out
    assert "top class preserved: True" in out


def test_check_map_top_class_violation(tmp_path, capsys):
    path = tmp_path / "zero.map"
    path.write_text(
        "map squash\ndomain T2\nrange T2\ndegree 1\nsend t1 -> 0\nsend t2 -> t2\n"
    )
    code, out, _ = run(capsys, "check-map", str(path))
    assert code == EXIT_VIOLATED
    assert "NOT injective" in out


def test_check_map_invalid_hom_is_parse_error(tmp_path, capsys):
    # b1 -> t1 does not kill the relation b1^4 in the range SO3... it does
    # (t1^2 = 0); use degree mismatch instead
    path = tmp_path / "bad.map"
    path.write_text("map bad\ndomain SO4\nrange SO3\ndegree 1\nsend b1 -> b3\n")
    code, _, err = run(capsys, "check-map", str(path))
    assert code == EXIT_PARSE
    assert "degree mismatch" in err


def test_check_map_between_dimensions_is_a_usage_error(tmp_path, capsys):
    """A degree exists only between manifolds of one dimension: check-map
    refuses T3 -> T2 as degree1-report given the same map does."""
    path = tmp_path / "t3t2.map"
    path.write_text("map f\ndomain T3\nrange T2\ndegree +1\nsend t1 -> t1\nsend t2 -> t2\n")
    error = ("lscat: error: dim(domain) = 3 != 2 = dim(range); the degree-one comparison "
             "requires equal dimensions\n")
    for argv in (["check-map", path], ["--json", "check-map", path],
                 ["degree1-report", "-m", "T3", "-n", "T2", "--map", path]):
        assert run(capsys, *map(str, argv)) == (EXIT_USAGE, "", error)


def test_check_map_with_space_files(tmp_path, capsys):
    space = tmp_path / "circle.space"
    space.write_text("space C1\ndim 1\ngenerator t 1\ntruncate t 2\n")
    mapfile = tmp_path / "id.map"
    mapfile.write_text("map ident\ndomain C1\nrange C1\ndegree 1\nsend t -> t\n")
    code, out, _ = run(capsys, "check-map", str(mapfile), "--space", str(space))
    assert code == EXIT_OK


def test_check_map_unresolvable_space(tmp_path, capsys):
    mapfile = tmp_path / "m.map"
    mapfile.write_text("map m\ndomain Nowhere\nrange T2\ndegree 1\n")
    code, _, err = run(capsys, "check-map", str(mapfile))
    assert code == EXIT_PARSE


def test_degree1_report_violated(capsys):
    code, out, _ = run(capsys, "degree1-report", "-m", "S2", "-n", "T2")
    assert code == EXIT_VIOLATED
    assert "cup-length obstruction" in out
    assert "overall: violated" in out


def test_degree1_report_certified_with_map(tmp_path, capsys):
    path = tmp_path / "collapse.map"
    path.write_text(COLLAPSE_MAP)
    code, out, _ = run(
        capsys, "degree1-report", "-m", "S_2", "-n", "T2", "--map", str(path)
    )
    assert code == EXIT_OK
    assert "overall: certified" in out
    assert "lemma_injectivity: certified" in out


def test_degree1_report_g2(tmp_path, capsys):
    path = tmp_path / "x14.space"
    path.write_text(X14_FILE)
    code, out, _ = run(
        capsys, "degree1-report", "-m", "X14", "-n", "G2", "--space", str(path)
    )
    assert code == EXIT_OK
    assert "thm_main: certified" in out
    assert "20" in out


def test_degree1_report_bounds_a_ringless_domain_by_its_cited_cat(capsys):
    # cl(T14) = cat(T14) = 14 forces cat(G2) >= 14, but G2's cited cat is 4;
    # G2 has no ring and so no ledger: the cited cat is its upper bound
    for json_flag in ((), ("--json",)):
        code, out, err = run(capsys, *json_flag, "degree1-report", "-m", "G2", "-n", "T14")
        assert (code, err) == (EXIT_VIOLATED, "")
    by_id = {v["criterion_id"]: v for v in json.loads(out)["verdicts"]}
    assert by_id["cor_cat_transfer"]["status"] == "violated"
    assert by_id["cor_cat_transfer"]["reason"].startswith(
        "category obstruction: cat(domain) <= 4 < 14 = cat(range)")
    assert json.loads(out)["overall"] == "violated"


def test_degree1_report_identity(capsys):
    code, out, _ = run(capsys, "degree1-report", "-m", "SO5", "-n", "SO5")
    assert code == EXIT_OK


def test_degree1_report_genus_obstruction(capsys):
    # no degree-1 map from the torus onto a genus-2 surface
    code, out, _ = run(capsys, "degree1-report", "-m", "S_1", "-n", "S_2")
    assert code == EXIT_VIOLATED
    assert "genus obstruction" in out


def test_degree1_report_inconclusive(tmp_path, capsys):
    # two bare 5-manifolds: nothing applies, nothing obstructs
    a = tmp_path / "a.space"
    a.write_text("space A5\ndim 5\n")
    b = tmp_path / "b.space"
    b.write_text("space B5\ndim 5\n")
    code, out, _ = run(
        capsys,
        "degree1-report", "-m", "A5", "-n", "B5",
        "--space", str(a), "--space", str(b),
    )
    assert code == EXIT_INCONCLUSIVE
    assert "overall: inconclusive" in out


def test_degree1_report_dimension_mismatch(capsys):
    code, _, err = run(capsys, "degree1-report", "-m", "S2", "-n", "T3")
    assert code == EXIT_USAGE
    assert "equal dimensions" in err


def test_degree1_report_map_must_match_spaces(tmp_path, capsys):
    path = tmp_path / "collapse.map"
    path.write_text(COLLAPSE_MAP)
    code, _, err = run(
        capsys, "degree1-report", "-m", "SO5", "-n", "SO5", "--map", str(path)
    )
    assert code == EXIT_USAGE


def test_degree1_report_map_must_have_the_given_rings(tmp_path):
    """A map whose spaces have the names given by -m/-n but other rings is a
    usage error naming the space, not a traceback."""
    (tmp_path / "a.space").write_text(
        "space A\ndim 2\ngenerator a 1\ngenerator b 1\ntruncate a 2\ntruncate b 2\n")
    (tmp_path / "a2.space").write_text("space A\ndim 2\ngenerator a 2\ntruncate a 2\n")
    (tmp_path / "m.map").write_text(
        "map m\ndomain a2.space\nrange a.space\ndegree +1\nsend a -> 0\nsend b -> 0\n")
    src = str(Path(lscat.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "lscat.cli", "degree1-report", "-m", "a.space", "-n", "a.space",
         "--map", "m.map"], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert proc.stderr == "lscat: error: map file's domain A has a different ring from the given domain\n"


@pytest.mark.parametrize("argv", [["check-map"], ["degree1-report", "-m", "S2", "-n", "S2", "--map"]])
def test_a_map_naming_an_unknown_space_is_a_file_error(tmp_path, capsys, argv):
    path = tmp_path / "m.map"
    path.write_text("map m\ndomain Nowhere\nrange S2\ndegree 1\nsend x2 -> 0\n")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (EXIT_PARSE, "")
    assert err == "lscat: unknown space name 'Nowhere' [unknown-space]\n"


def test_verify_paper(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == EXIT_OK
    for n in range(3, 10):
        assert f"SO{n}" in out
    assert out.count("[OK]") == 10  # 7 SO rows + G2 + torus + spot-check
    assert "all checks passed" in out


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "--json", "verify-paper")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ok"] is True
    so_rows = [r for r in payload["rows"] if r["row"].startswith("SO")]
    assert [r["dimension"] for r in so_rows] == [3, 6, 10, 15, 21, 28, 36]
    assert [r["cup_length_formula"] for r in so_rows] == [3, 4, 8, 9, 11, 12, 20]


def test_verify_paper_seed_flag(capsys):
    code, out, _ = run(capsys, "--seed", "7", "verify-paper")
    assert code == EXIT_OK
    assert "seed 7" in out


def test_verify_paper_deterministic(capsys):
    _, out1, _ = run(capsys, "verify-paper")
    _, out2, _ = run(capsys, "verify-paper")
    assert out1 == out2


def test_catalogue_listing(capsys):
    code, out, _ = run(capsys, "catalogue")
    assert code == EXIT_OK
    assert "SO9" in out and "S_4" in out and "point" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.space"
    bad.write_text("space X\ndim 2\ngenerator b1 1\ntruncate b1 0\n")
    code, _, err = run(capsys, "invariants", str(bad))
    assert code == EXIT_PARSE
    assert "exponent" in err


def test_non_manifold_presentation_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "nm.space"
    bad.write_text("space NM\ndim 2\ngenerator a 1\ntruncate a 9\n")
    code, out, err = run(capsys, "invariants", str(bad))
    assert code == EXIT_PARSE
    assert out == ""
    assert "[non-manifold]" in err and "Traceback" not in err


def test_connectivity_the_ring_refutes_is_parse_error(tmp_path, capsys):
    # thm_main would take q = connectivity + 1 from the file and certify
    gens = "".join(f"generator t{i} 1\ntruncate t{i} 2\n" for i in range(4))
    space = tmp_path / "c.space"
    space.write_text(f"space C\ndim 4\nconnectivity 3\nstably-parallelizable true\n{gens}")
    code, out, err = run(capsys, "degree1-report", "-m", "S4", "-n", str(space))
    assert code == EXIT_PARSE
    assert out == ""
    assert "[inconsistent-connectivity]" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["invariants", "c.space"],
                                  ["degree1-report", "-m", "T2", "-n", "c.space"]])
def test_connectivity_that_reaches_the_dimension_is_parse_error(tmp_path, monkeypatch, capsys, argv):
    # without a ring nothing else refutes it, and thm_main would certify with q = 6
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.space").write_text(
        'space C\ndim 2\nconnectivity 5\nstably-parallelizable true\nknown-cat 1 "x"\n')
    error = ("lscat: C: connectivity 5 reaches the dimension 2, but a closed 2-manifold has a "
             "class in degree 2 [inconsistent-connectivity]\n")
    assert run(capsys, *argv) == (EXIT_PARSE, "", error)


def test_huge_exponent_in_a_map_is_parse_error(tmp_path, capsys):
    # past the interpreter's 4,300-digit limit for int()
    bad = tmp_path / "huge.map"
    bad.write_text(COLLAPSE_MAP.replace("a1", "a1^" + "9" * 5000))
    code, out, err = run(capsys, "check-map", str(bad))
    assert code == EXIT_PARSE
    assert out == ""
    assert "[bad-expression]" in err and "Traceback" not in err


def test_duality_fails_without_a_class_in_the_declared_dimension(tmp_path, capsys):
    # monomials stop in degree 1, so H^3 = 0 and no closed 3-manifold has this ring
    space = tmp_path / "u.space"
    space.write_text("space U\ndim 3\ngenerator a 1\ntruncate a 2\n")
    code, out, _ = run(capsys, "invariants", str(space))
    assert code == EXIT_OK
    assert "poincare duality: False" in out.splitlines()
    code, out, _ = run(capsys, "--json", "invariants", str(space))
    assert json.loads(out)["poincare_duality"] is False


U_REFUSED = ("lscat: U: no mod-2 Poincare duality in dimension 3; not the cohomology ring "
             "of a closed manifold [non-manifold]\n")


@pytest.mark.parametrize("argv", [
    ["degree1-report", "-m", "T3", "-n", "u.space"],
    ["degree1-report", "-m", "u.space", "-n", "T3"],
    ["check-map", "u.map"],
    ["degree1-report", "-m", "T3", "-n", "T3", "--map", "u.map"],
])
def test_a_space_without_duality_reaches_no_criterion(tmp_path, capsys, monkeypatch, argv):
    # U has no class in degree 3, so it is no closed manifold and no report
    # or map check may read it; a report once printed "overall: certified"
    (tmp_path / "u.space").write_text("space U\ndim 3\ngenerator a 1\ntruncate a 2\n")
    (tmp_path / "u.map").write_text("map f\ndomain T3\nrange u.space\ndegree +1\nsend a -> t1\n")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (EXIT_PARSE, "", U_REFUSED)


def test_the_duality_check_reads_only_the_degrees_a_ring_has(tmp_path, capsys):
    n = 10**20
    space = tmp_path / "x.space"
    space.write_text(f"space X\ndim {n}\ngenerator x {n}\ntruncate x 2\n")
    code, out, err = run(capsys, "degree1-report", "-m", str(space), "-n", str(space))
    assert (code, err) == (EXIT_INCONCLUSIVE, "")
    assert "prop_cl_monotone: certified" in out


def test_a_report_prints_the_spaces_own_ledgers(capsys):
    # cl(S2xS2) = 2 < 4 = cl(T4) = cat(T4), so no degree-one map exists; the
    # ledgers are those invariants prints: cat(S2xS2) in [2, 4], not = 4
    code, out, _ = run(capsys, "--json", "degree1-report", "-m", "S2xS2", "-n", "T4")
    report = json.loads(out)
    assert (code, report["overall"]) == (EXIT_VIOLATED, "violated")
    by_id = {v["criterion_id"]: v["status"] for v in report["verdicts"]}
    assert (by_id["prop_cl_monotone"], by_id["cor_cat_transfer"]) == ("violated", "certified")
    for key, name in (("domain_ledger", "S2xS2"), ("range_ledger", "T4")):
        assert report[key] == json.loads(run(capsys, "--json", "invariants", name)[1])["ledger"]
    assert report["domain_ledger"]["cat"]["lower"] == 2


def test_missing_map_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "check-map", str(tmp_path / "nope.map"))
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "{space}"],
        ["check-map", "{map}"],
        ["degree1-report", "-m", "T2", "-n", "T2", "--map", "{map}"],
        ["degree1-report", "-m", "T2", "-n", "T2", "--space", "{space}"],
    ],
)
def test_a_file_that_is_not_utf8_is_parse_error(tmp_path, capsys, argv):
    space, mapfile = tmp_path / "bad.space", tmp_path / "bad.map"
    space.write_bytes(b"space X\ndim 1\ngenerator t 1\ntruncate t 2\n\xff\n")
    mapfile.write_bytes(b"map f\ndomain T2\nrange T2\ndegree 1\nsend t1 -> t1 # \xff\n")
    named = {"{space}": str(space), "{map}": str(mapfile)}
    code, out, err = run(capsys, *(named.get(a, a) for a in argv))
    assert code == EXIT_PARSE
    assert out == ""
    assert "not UTF-8 text (invalid start byte at offset" in err
    assert err.rstrip().endswith("[syntax]")


def test_a_trailing_slash_after_a_space_file_reads_the_file(tmp_path, capsys):
    # paths are read as pathlib reads them: empty and "." parts are dropped
    space = tmp_path / "x.space"
    space.write_text("space C1\ndim 1\ngenerator t 1\ntruncate t 2\n")
    for token in (f"{space}/", f"{tmp_path}/./x.space/."):
        code, out, _ = run(capsys, "cup-length", token)
        assert code == EXIT_OK
        assert out.startswith("cup-length of C1: 1\n")


def test_a_directory_as_map_file_is_usage_error(tmp_path, capsys):
    folder = tmp_path / "d.map"
    folder.mkdir()
    for token in (str(folder), f"{folder}/"):
        code, out, err = run(capsys, "check-map", token)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"lscat: error: [Errno 21] Is a directory: '{folder}'\n"


# -- a cited cat below the cup-length, and connectivity beside a huge dim ------------


def test_known_cat_below_the_cup_length_is_parse_error(tmp_path, capsys):
    # T2 as a presentation and as an explicit table: cup-length 2
    presentation = "generator a 1\ngenerator b 1\ntruncate a 2\ntruncate b 2\n"
    table = "basis 1 0\nbasis a 1\nbasis b 1\nbasis w 2\nproduct a b = w\n"
    for name, ring in (("p", presentation), ("t", table)):
        space = tmp_path / f"{name}.space"
        space.write_text(f'space X\ndim 2\nknown-cat 1 "too low"\n{ring}')
        for command in ("show", "invariants", "cup-length"):
            code, out, err = run(capsys, command, str(space))
            assert code == EXIT_PARSE, (name, command)
            assert out == ""
            assert err == (
                "lscat: X: known cat 1 below the cup-length bound [inconsistent-known-cat]\n"
            )


def test_connectivity_beside_a_huge_dim(tmp_path, capsys):
    n = 10**20
    space = tmp_path / "x.space"
    space.write_text(f"space X\ndim {n}\nconnectivity 1\ngenerator x {n}\ntruncate x 2\n")
    code, out, err = run(capsys, "show", str(space))
    assert code == EXIT_OK and err == ""
    assert f"generator x {n}\n" in out
    code, out, err = run(capsys, "cup-length", str(space))
    assert (code, out, err) == (EXIT_OK, "cup-length of X: 1\nformula 1 / search 1: agree\n", "")
    # a class in degree 1 still refutes connectivity 1
    space.write_text(f"space X\ndim {n + 1}\nconnectivity 1\ngenerator x {n}\ngenerator y 1\n"
                     "truncate x 2\ntruncate y 1\n")
    assert run(capsys, "show", str(space))[0] == EXIT_OK
    space.write_text(space.read_text().replace("truncate y 1", "truncate y 2"))
    code, out, err = run(capsys, "show", str(space))
    assert code == EXIT_PARSE and "[inconsistent-connectivity]" in err


@pytest.mark.parametrize("name", [f"{family}{10**20}" for family in ("S", "T", "SO", "S_")]
                         + [f"S2xT{10**20}"])
def test_huge_catalogue_parameters_stop_at_the_enumeration_limit(name):
    # a process with a timeout, so that a family that builds first fails
    # instead of hanging the suite
    src = str(Path(lscat.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "lscat.cli", "invariants", name],
                          env=dict(os.environ, PYTHONPATH=src), stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=30)
    part = name.split("x")[-1]
    assert (proc.returncode, proc.stdout) == (EXIT_PARSE, "")
    assert proc.stderr == (f"lscat: {part}: family parameter {10**20} is above the limit of "
                           f"{ENUMERATION_LIMIT} [too-large]\n")


def test_invariants_stop_at_the_enumeration_limit(tmp_path, capsys):
    # the file of test_connectivity_beside_a_huge_dim: the Poincare polynomial
    # would list every degree up to dim
    n = 10**20
    space = tmp_path / "x.space"
    space.write_text(f"space X\ndim {n}\nconnectivity 1\ngenerator x {n}\ntruncate x 2\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "invariants", str(space))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (EXIT_PARSE, "")
    assert err == (f"lscat: X: the Poincare polynomial would have {n + 1} terms, above the "
                   f"limit of {ENUMERATION_LIMIT} [too-large]\n")
    # the largest dim within the limit still lists every degree
    n = ENUMERATION_LIMIT - 1
    space.write_text(f"space Y\ndim {n}\ngenerator y {n}\ntruncate y 2\n")
    code, out, _ = run(capsys, "--json", "invariants", str(space))
    poly = json.loads(out)["poincare_polynomial"]
    assert code == EXIT_OK and len(poly) == ENUMERATION_LIMIT and poly[0] == poly[-1] == 1


@pytest.mark.parametrize("argv", [["invariants", "T15000"], ["--json", "invariants", "T15000"],
                                  ["degree1-report", "-m", "T15000", "-n", "T15000"],
                                  ["--json", "degree1-report", "-m", "T15000", "-n", "T15000"]])
def test_numbers_python_cannot_print_are_refused(capsys, argv):
    """2^15000, T15000's basis count and Betti sum, has 4,516 digits, more
    than Python turns into a string (4,300 by default): refused up front."""
    limit = sys.get_int_max_str_digits()
    error = (f"lscat: T15000: its basis count has 4516 digits, above the limit of {limit} "
             "digits for printing an integer [too-large]\n")
    assert run(capsys, *argv) == (EXIT_PARSE, "", error)


def test_the_digit_count_next_to_a_power_of_ten(tmp_path, capsys):
    """The digit count is exact where a float logarithm is not: log10 of
    10^4301 - 1 rounds to 4301.0."""
    assert sys.get_int_max_str_digits() == 4300  # the interpreter's default
    # 4,300 generators truncated at 10: the count is 10^4300
    space = tmp_path / "ten.space"
    space.write_text("space Ten\ndim 38700\n" + "".join(
        f"generator x{i} 1\ntruncate x{i} 10\n" for i in range(4300)))
    code, out, err = run(capsys, "invariants", str(space))
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("lscat: Ten: its basis count has 4301 digits, above the limit of 4300 ")
    # counts no ring of a sane size reaches, on a stand-in record
    for count, digits in ((10**4301 - 1, 4301), (10**4301, 4302)):
        with pytest.raises(SpaceFileError, match=f"its basis count has {digits} digits"):
            _printable(SimpleNamespace(name="X", ring=SimpleNamespace(basis_count=count)))
    record = SimpleNamespace(name="X", ring=SimpleNamespace(basis_count=10**4300 - 1))
    assert _printable(record) is record


@pytest.mark.parametrize("n", [10**7, 10**19])
def test_maps_stop_at_the_enumeration_limit(tmp_path, capsys, n):
    """A map has a matrix per degree up to dim: the identity of a two-class
    dual ring of a huge dim is refused before it is validated, by check-map
    and by a report given the map."""
    space, identity = tmp_path / "d.space", tmp_path / "id.map"
    space.write_text(f"space D\ndim {n}\ngenerator x {n}\ntruncate x 2\n")
    identity.write_text(f"map id\ndomain {space}\nrange {space}\ndegree 1\nsend x -> x\n")
    error = (f"lscat: D: the Poincare polynomial would have {n + 1} terms, above the "
             f"limit of {ENUMERATION_LIMIT} [too-large]\n")
    for argv in (["check-map", identity], ["degree1-report", "-m", space, "-n", space, "--map", identity]):
        start = time.perf_counter()
        assert run(capsys, *map(str, argv)) == (EXIT_PARSE, "", error)
        assert time.perf_counter() - start < 1.0


BIG = "space Big\ndim 99999999999\ngenerator a 1\ntruncate a 100000000000\n"
BIG_IDENTITY = "map id\ndomain big.space\nrange big.space\ndegree 1\nsend a -> a\n"
ADDRESS_SPACE_CAP = 1500 << 20


def capped(argv: list[str], cwd, timeout: float = 30) -> subprocess.CompletedProcess:
    """``python ARGV`` with this checkout's lscat under an address-space cap,
    so that a request which builds a ring-sized table fails with a
    MemoryError instead of taking the machine's memory."""
    import resource

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

    src = str(Path(lscat.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=dict(os.environ, PYTHONPATH=src),
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=timeout, preexec_fn=cap)


@pytest.mark.parametrize("argv, code, out", [
    (["cup-length", "big.space"], EXIT_OK, "cup-length of Big: 99999999999\n"),
    (["degree1-report", "-m", "big.space", "-n", "big.space"], EXIT_OK, "overall: certified\n"),
    (["check-map", "big.map"], EXIT_PARSE, ""),
    (["invariants", "big.space"], EXIT_PARSE, ""),
])
def test_a_huge_truncation_builds_no_table(tmp_path, argv, code, out):
    """k[a]/(a^q), q = 10^11: a factor stores its degree and truncation, and
    builds its tables only when a command enumerates it, so the formulas
    answer at once and enumerating commands refuse it as too large."""
    (tmp_path / "big.space").write_text(BIG)
    (tmp_path / "big.map").write_text(BIG_IDENTITY)
    start = time.perf_counter()
    proc = capped(["-m", "lscat.cli", *argv], tmp_path)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == code and out in proc.stdout
    assert proc.stderr == ("" if code == EXIT_OK else
                           "lscat: Big: the Poincare polynomial would have 100000000000 terms, "
                           f"above the limit of {ENUMERATION_LIMIT} [too-large]\n")


@pytest.mark.parametrize("argv", [["check-map", "t20.map"],
                                  ["degree1-report", "-m", "T20", "-n", "T20", "--map", "t20.map"]])
def test_a_map_on_more_basis_elements_than_the_limit_is_refused(tmp_path, argv):
    """T20 has 2^20 basis elements: validating its identity would build an
    image per source basis element, each a vector over every target term,
    so both map commands refuse it as too large before reading the images."""
    sends = "".join(f"send t{i} -> t{i}\n" for i in range(1, 21))
    (tmp_path / "t20.map").write_text(f"map id\ndomain T20\nrange T20\ndegree 1\n{sends}")
    start = time.perf_counter()
    proc = capped(["-m", "lscat.cli", *argv], tmp_path)
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (EXIT_PARSE, "")
    assert proc.stderr == (f"lscat: T20: a map would enumerate its {2 ** 20} basis elements, "
                           f"above the limit of {ENUMERATION_LIMIT} [too-large]\n")


def test_a_large_torus_record_holds_no_morse_data(tmp_path):
    """T100000's record is its ring and flags: its Morse ranks, 100,001
    binomials, are computed when a command first reads them."""
    probe = ("import time, tracemalloc\n"
             "from lscat import catalogue\n"
             "start = time.perf_counter()\n"
             "record = catalogue.get('T100000')\n"
             "print(time.perf_counter() - start, 'morse' in record.__dict__)\n"
             "catalogue.get.cache_clear()\n"
             "tracemalloc.start()\n"
             "catalogue.get('T100000')\n"
             "print(tracemalloc.get_traced_memory()[1])\n")
    proc = capped(["-c", probe], tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    timing, peak = proc.stdout.splitlines()
    seconds, built = timing.split()
    assert float(seconds) < 1.5 and built == "False"
    assert int(peak) < 100 << 20


def test_a_broken_map_is_reported_before_the_dimensions(tmp_path, capsys):
    """Both map commands validate the map first, in one place: a degree
    mismatch of SO4 -> SO3 is the file's error (exit 65) for check-map and
    for degree1-report --map, not the pair's different dimensions."""
    path = tmp_path / "bad.map"
    path.write_text("map bad\ndomain SO4\nrange SO3\ndegree +1\nsend b1 -> b3\n")
    error = ("lscat: invalid homomorphism:\n"
             "  - degree mismatch: 'b1' has degree 1, its image has degree 3\n")
    for argv in (["check-map", path], ["degree1-report", "-m", "SO4", "-n", "SO3", "--map", path]):
        assert run(capsys, *map(str, argv)) == (EXIT_PARSE, "", error)


HP2 = "space HP2\ndim 8\nconnectivity 3\nstably-parallelizable true\ngenerator y 4\ntruncate y 3\n"


@pytest.mark.parametrize("argv", [["invariants", "hp2.space"],
                                  ["degree1-report", "-m", "T8", "-n", "hp2.space"]])
def test_a_stably_parallelizable_flag_that_squaring_refutes_is_a_file_error(
        tmp_path, monkeypatch, capsys, argv):
    """y^2 is nonzero in H^8 of the quaternionic plane, and on a stably
    parallelizable 8-manifold Wu's formula makes every square of a degree-4
    class zero: the flag is refused, so no report certifies from it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "hp2.space").write_text(HP2)
    error = ("lscat: HP2: flagged stably parallelizable, but a class of degree 4 has a nonzero "
             "square, which Wu's formula rules out (x^2 = v_4 x = 0) on a stably "
             "parallelizable 8-manifold [inconsistent-stably-parallelizable]\n")
    assert run(capsys, *argv) == (EXIT_PARSE, "", error)


# -- map-file edge messages, byte for byte -------------------------------------------


def test_map_edge_messages(tmp_path, capsys):
    cases = [
        ("domain T3\nrange T3\nsend t1 -> t1 + t1*t2\nsend t2 -> t2\nsend t3 -> t3\n",
         "image of 't1': element is not homogeneous: degrees [1, 2]"),
        ("domain S_2\nrange T2\nsend t1 -> a1 + 1\nsend t2 -> b1\n",
         "image of 't1': element is not homogeneous: degrees [0, 1]"),
        ("domain T2\nrange S_1\nsend 1 -> 1 + t1\nsend a1 -> t1\nsend b1 -> t2\nsend w -> t1*t2\n",
         "unit must map to unit"),
    ]
    for body, problem in cases:
        path = tmp_path / "edge.map"
        path.write_text(f"map edge\ndegree 1\n{body}")
        assert run(capsys, "check-map", str(path)) == (
            EXIT_PARSE, "", f"lscat: invalid homomorphism:\n  - {problem}\n"
        )


# -- the command-line grammar against the argparse parser it replaced ----------------

ARGV_TOKENS = [
    "--json", "--js", "--seed", "--seed=3", "7", "-5", "x", "--", "-h", "--help", "--bogus",
    *COMMANDS, "SO5", "T3", "f.map",
    "-m", "-n", "-mS2", "--domain", "--dom", "--range", "--map", "--map=f.map", "--space",
]
_TOKEN = st.sampled_from(ARGV_TOKENS)
# the second form puts a command word in place, so that more lists parse
ARGVS = st.lists(_TOKEN, max_size=7) | st.tuples(
    st.lists(_TOKEN, max_size=2), st.sampled_from(list(COMMANDS)), st.lists(_TOKEN, max_size=4)
).map(lambda parts: [*parts[0], parts[1], *parts[2]])


def _reference_outcome(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return "accept", vars(reference_cli_parser().parse_args(argv))
    except SystemExit as exc:
        assert exc.code == 0
        return "help", None
    except ReferenceUsageError:
        return "reject", None


def _outcome(argv):
    try:
        return "accept", vars(parse_args(argv))
    except _HelpRequested:
        return "help", None
    except _UsageError:
        return "reject", None


@settings(derandomize=True, max_examples=500, deadline=None)
@given(ARGVS)
def test_parser_agrees_with_the_argparse_reference(argv):
    assert _outcome(argv) == _reference_outcome(argv)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.text(alphabet="0123456789.-\n٣²x", max_size=6))
def test_negative_numbers_are_told_as_argparse_tells_them(rest):
    # argparse's pattern; U+0663 is a decimal digit to \d, U+00B2 is not
    token = "-" + rest
    assert _is_negative_number(token) == bool(re.match(r"-\d+$|-\d*\.\d+$", token))


@pytest.mark.parametrize(
    "argv, fields",
    [
        (["--seed=5", "cup-length", "T3"], {"seed": 5, "space": "T3"}),
        (["--js", "cup-length", "T3"], {"json": True, "space": "T3"}),
        (["cup-length", "--", "T3"], {"space": "T3"}),
        (["cup-length", "T3", "--"], {"space": "T3"}),
        (["cup-length", "-5"], {"space": "-5"}),
        (["cup-length", "-x y"], {"space": "-x y"}),
        (["--seed", "-5", "--seed", "2", "catalogue"], {"seed": 2}),
        (["degree1-report", "-m=S2", "-n", "T2"], {"domain": "S2", "range": "T2"}),
        (["degree1-report", "--dom", "S2", "--ran=T2", "-mS_2", "--ma", "f.map"],
         {"domain": "S_2", "range": "T2", "mapfile": "f.map", "space": []}),
        (["check-map", "f.map", "--space", "a", "--space=b"], {"mapfile": "f.map", "space": ["a", "b"]}),
        # argparse stripped "--" out of an attached value and stored [], which crashed main
        (["degree1-report", "-m--", "-n", "S2"], {"domain": "--", "range": "S2"}),
    ],
)
def test_accepted_forms(argv, fields):
    args = vars(parse_args(argv))
    assert {key: args[key] for key in fields} == fields


@pytest.mark.parametrize(
    "argv, named",
    [
        ([], "command"),  # required
        (["cup-length"], "space"),
        (["degree1-report", "-m", "S2"], "-n/--range"),
        (["K3"], "'K3'"),  # invalid choice
        (["cup-length", "T3", "--json"], "--json"),  # options of the top level go first
        (["--bogus", "catalogue"], "--bogus"),
        (["check-map", "--space"], "--space"),  # expected one argument
        (["--seed", "x", "verify-paper"], "'x'"),  # invalid int
        (["--json=x", "catalogue"], "--json"),  # ignored explicit argument
        (["catalogue", "-hx"], "-h/--help"),
        (["--=x", "catalogue"], "--=x"),  # ambiguous option
    ],
)
def test_usage_errors_name_the_offender(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("lscat: error: ") and named in err and err.count("\n") == 1


def test_help_returns_zero_from_main(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("usage: lscat [-h] [--json] [--seed SEED] COMMAND ...")
    assert all(name in out for name in COMMANDS)
    code, out, err = run(capsys, "--seed", "3", "cup-length", "--help")
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("usage: lscat cup-length [-h] space\n")
