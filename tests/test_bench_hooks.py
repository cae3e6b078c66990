"""Every lscat name the benchmark under ``perfbench/`` binds still exists.

``perfbench/tracer.py`` rebinds these functions and methods to count
and time them, and ``perfbench/run.py`` reads its per-layer metrics
under their names; ``perfbench/tests`` imports some of them directly.
A deletion here would otherwise surface only as a broken ``--trace 1``
run or a metric that silently reads 0.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import lscat
from lscat.catalogue import surface_table

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

HOOKS = [
    # rebound or read by the tracer
    "bounds.cup_length_search",
    "bounds.cup_length",
    "bounds.CROSS_CHECK_LIMIT",
    "gf2.XorBasis.insert",
    "rings.MultiplicationTable.product",
    "rings.MultiplicationTable.multiply",
    "rings.TruncatedPresentation.multiply",
    "rings.TruncatedPresentation.total_dimension",
    # spans the per-layer metrics are read from (gf2.rank_ms times the spans
    # of gf2's functions, and rank is the only one)
    "gf2.rank",
    "rings.check_poincare_duality",
    "rings.expand_to_table",
    "rings.tensor_product",
    "bounds.cat_bounds",
    "catalogue.get",
    "homs.full_report",
    "homs.validate_hom",
    "homs.check_injectivity",
    "spacefile.parse_space",
    "spacefile.parse_map",
    "spacefile.resolve_map",
    "spacefile.serialize_space",
    # imported by perfbench/tests
    "rings.GeneratorSpec",
    "rings.TruncatedPresentation",
    "catalogue.surface_table",
    "rings.MultiplicationTable.poincare_polynomial",
]


def _resolves(path: str) -> bool:
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"lscat.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_benchmark_hooks_exist():
    assert [path for path in HOOKS if not _resolves(path)] == []


def test_tables_carry_what_the_tracer_hashes():
    t = surface_table(1)
    # the tracer counts distinct searched rings by this key
    assert isinstance(hash((t.basis, t.top_degree)), int)


def test_the_cli_import_loads_every_module_the_tracer_wraps():
    # the tracer reads each of its modules from sys.modules after importing
    # lscat.cli, so a layer the CLI imported lazily would break a traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    probe = "import sys, lscat.cli\nprint(' '.join(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=str(Path(lscat.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert {f"lscat.{short}" for short in tracer.MODULES} <= set(proc.stdout.split())
