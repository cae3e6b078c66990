"""Tests of the benchmark itself: its expected answers and its smoke run.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests

The expected answers are derived without lscat; here they are compared
with the brute-force oracles of ``tests/oracles.py`` on the smallest
instances, so that a slip in the derivation cannot pass for a defect of
lscat (or hide one).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "tests"), str(ROOT / "src")]

import decks  # noqa: E402
import expected  # noqa: E402
from oracles import brute_cup_length, brute_poincare  # noqa: E402

from lscat.catalogue import surface_table  # noqa: E402
from lscat.rings import GeneratorSpec, TruncatedPresentation, expand_to_table, tensor_product  # noqa: E402

SMALL_PRESENTATIONS = ["point", "S1", "S2", "S3", "T1", "T2", "T3", "T4", "SO3", "SO4", "SO5", "SO6",
                       "S1xS2", "S2xS2", "SO3xS3", "SO3xT2"]


def _presentation(space: expected.Space) -> TruncatedPresentation:
    gens = tuple(GeneratorSpec(f"g{i}", d) for i, (d, _) in enumerate(space.heights))
    return TruncatedPresentation(gens, tuple(p for _, p in space.heights), space.dim)


@pytest.mark.parametrize("name", SMALL_PRESENTATIONS)
def test_presentation_answers_match_brute_force(name):
    space = expected.catalogue_space(name)
    p = _presentation(space)
    assert tuple(brute_poincare(p)) == space.poly
    assert brute_cup_length(expand_to_table(p)) == space.cl
    assert space.size == p.total_dimension


@pytest.mark.parametrize("gens", [[(1, 4), (2, 2)], [(1, 2), (1, 2), (3, 4)], [(2, 8)], [(1, 4), (1, 4)]])
def test_space_file_answers_match_brute_force(gens):
    space = expected.presentation_space("R", gens)
    p = _presentation(space)
    assert tuple(brute_poincare(p)) == space.poly
    assert brute_cup_length(expand_to_table(p)) == space.cl


@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_surface_answers_match_brute_force(g):
    space = expected.atomic(f"S_{g}")
    table = surface_table(g)
    assert tuple(table.poincare_polynomial()) == space.poly
    assert brute_cup_length(table) == space.cl


@pytest.mark.parametrize("g,k", [(1, 1), (2, 1), (1, 2)])
def test_table_product_answers_match_brute_force(g, k):
    space = expected.catalogue_space(f"S_{g}xT{k}")
    table = tensor_product(surface_table(g), expand_to_table(_presentation(expected.atomic(f"T{k}"))))
    poly = [0] * (space.dim + 1)
    for _, d in table.basis:
        poly[d] += 1
    assert tuple(poly) == space.poly
    assert brute_cup_length(table) == space.cl


def test_so_heights_reproduce_the_paper_table():
    for n, (dim, cl) in expected.SO_TABLE.items():
        hs = expected.so_heights(n)
        assert sum(p - 1 for _, p in hs) == cl
        assert sum((p - 1) * i for i, p in hs) == dim
    for n in range(3, 15):
        # additively H*(SO(n)) is an exterior algebra on degrees 1..n-1
        space = expected.atomic(f"SO{n}")
        assert expected.truncated_poly(*zip(*expected.so_heights(n))) == space.poly


def test_expected_verdicts_on_the_documented_pairs():
    cat = expected.catalogue_space
    assert expected.expected_overall(cat("S2"), cat("T2")) == "violated"
    assert expected.expected_overall(cat("S_1"), cat("S_2")) == "violated"
    assert expected.expected_overall(cat("S_3"), cat("S_2")) == "certified"
    assert expected.expected_overall(cat("T14"), cat("G2")) == "certified"
    assert expected.expected_overall(cat("SO10"), cat("SO10")) == "inconclusive"
    assert expected.expected_overall(cat("S_2"), cat("T2"), hom_ok=False) == "violated"


def test_check_reports_a_wrong_answer():
    space = expected.catalogue_space("T2")
    req = expected.Request("invariants-T2", ("--json", "invariants", "T2"), ("invariants", space))
    good = {"dimension": 2, "poincare_polynomial": [1, 2, 1], "poincare_duality": True,
            "cup_length": {"formula": 2, "search": 2, "agree": True}}
    assert expected.check(req, 0, json.dumps(good), "") is None
    assert "polynomial" in expected.check(req, 0, json.dumps(dict(good, poincare_polynomial=[1, 1, 1])), "")
    assert "search" in expected.check(req, 0, json.dumps(dict(good, cup_length={"formula": 2})), "")
    assert "exit" in expected.check(req, 3, json.dumps(good), "")
    assert "traceback" in expected.check(req, 1, "", "Traceback (most recent call last):\nKeyError: 1")


def test_decks_are_seeded():
    for workload in decks.WORKLOADS:
        assert decks.deck(workload, 7) == decks.deck(workload, 7)
        assert decks.deck(workload, 7) != decks.deck(workload, 8)
        assert {r.rid for r in decks.deck(workload, 7, smoke=True)} <= {r.rid for r in decks.deck(workload, 7)}


def test_smoke_run_prints_every_metric_and_checks_answers():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in decks.WORKLOADS:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            got = result["metrics"][f"{workload}/{metric['name']}"]
            assert got["unit"] == metric["unit"]
    # every failed request is named with its count
    listed = [int(line.split()[1]) for line in proc.stdout.splitlines() if line.startswith("failed ")]
    assert sum(listed) == result["failed"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "catalogue-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
