"""The value records every layer builds on, and what importing them costs.

Each record is a plain class on one small base: equal fields mean equal
records with equal hashes, fields are read-only, and the constructor
runs the record's checks.  Building them this way keeps ``import
lscat.cli`` free of ``dataclasses`` and the modules it pulls in.
"""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lscat
from lscat.bounds import BoundLedger, CupLength, Interval, LedgerError
from lscat.catalogue import SpaceRecord
from lscat.homs import (
    CriterionVerdict,
    Report,
    RingHomSpec,
    StabilizationCheck,
    ValidatedHom,
)
from lscat.rings import Element, GeneratorSpec, TruncatedPresentation, _Monogenic
from lscat.spacefile import MapFileSpec

# -- start-up -----------------------------------------------------------------------

# dataclasses imports inspect, which imports ast, dis and tokenize
STARTUP_FORBIDDEN = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cli_import_loads_no_code_generation_modules():
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import lscat.cli\n"
        f"print(' '.join(sorted(set(sys.modules) - before & set({STARTUP_FORBIDDEN!r}))))\n"
    )
    src = str(Path(lscat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == []


def test_cli_import_leaves_json_to_json_output():
    # json is imported by the two functions that write --json output
    probe = "import sys\nimport lscat.cli\nprint('json' in sys.modules)\n"
    src = str(Path(lscat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_cli_requests_load_no_argparse_gettext_or_locale(tmp_path):
    # the command line is read from cli.py's own table; argparse brings in
    # gettext and locale, a few ms of every request's start-up
    mapfile = tmp_path / "collapse.map"
    mapfile.write_text("map c\ndomain S_2\nrange T2\ndegree 1\nsend t1 -> a1\nsend t2 -> b1\n")
    requests = [
        ["show", "T2"], ["invariants", "T2"], ["cup-length", "T2"], ["check-map", str(mapfile)],
        ["degree1-report", "-m", "S2", "-n", "T2"], ["verify-paper"], ["catalogue"],
    ]
    probe = (
        "import contextlib, io, sys\n"
        "import lscat.cli\n"
        f"for argv in {requests!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        print(lscat.cli.main(argv), end=' ', file=sys.stderr)\n"
        "print(' '.join(sorted(set(sys.modules) & {'argparse', 'gettext', 'locale'})))\n"
    )
    src = str(Path(lscat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stderr.split() == ["0", "0", "0", "0", "2", "0", "0"]
    assert proc.stdout.split() == []


# Without site hooks (python -S), nothing has loaded these before lscat does.
# typing served annotations only; pathlib (with urllib.parse, ipaddress and
# fnmatch) four file reads; random one command and re the file parsers.
CLEAN_FORBIDDEN = {"typing", "pathlib", "urllib.parse", "ipaddress", "fnmatch", "random", "re"}
SPACE_FILE = "space C1\ndim 1\ngenerator t 1\ntruncate t 2\n"
MAP_FILE = "map c\ndomain S_2\nrange T2\ndegree 1\nsend t1 -> a1\nsend t2 -> b1\n"


@pytest.mark.parametrize(
    "argv, allowed",
    [
        (None, set()),
        (["catalogue"], set()),
        (["show", "T3"], set()),
        (["invariants", "SO5"], set()),
        (["cup-length", "T3"], set()),
        (["degree1-report", "-m", "T2", "-n", "T2"], set()),
        (["verify-paper"], {"random"}),
        (["invariants", "c1.space"], {"re"}),
        (["check-map", "c.map"], {"re"}),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_clean_start_up_loads_only_what_the_request_uses(tmp_path, argv, allowed):
    (tmp_path / "c1.space").write_text(SPACE_FILE)
    (tmp_path / "c.map").write_text(MAP_FILE)
    probe = (
        "import io, sys\n"
        "import lscat.cli\n"
        f"if {argv!r} is not None:\n"
        "    sys.stdout = io.StringIO()\n"
        f"    print(lscat.cli.main({argv!r}), file=sys.stderr)\n"
        f"print(' '.join(sorted(set(sys.modules) & {CLEAN_FORBIDDEN!r})), file=sys.__stdout__)\n"
    )
    src = str(Path(lscat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], cwd=tmp_path, env=env, capture_output=True,
        text=True, check=True,
    )
    assert proc.stderr.split() == ([] if argv is None else ["0"])
    assert set(proc.stdout.split()) <= allowed


# lscat.__all__ as the package's own imports listed it before they became lazy, less
# the Morse record and betti_sum, which went when Morse data became the Betti numbers
EXPORTED = [
    "BoundLedger", "CriterionVerdict", "CupLength", "DimensionMismatch", "Element",
    "GeneratorSpec", "HomValidationError", "Interval", "LedgerError",
    "MultiplicationTable", "Report", "RingHomSpec", "SpaceRecord", "TruncatedPresentation",
    "UnknownSpaceError", "ValidatedHom", "cat_bounds", "check_cl_monotone",
    "check_injectivity", "check_poincare_duality", "check_top_class", "cor_cat_transfer",
    "cup_length", "cup_length_check", "cup_length_formula", "cup_length_search",
    "expand_to_table", "full_report", "get", "low_dim_check", "morse_lower_bound",
    "morse_transfer_check", "names", "rank", "so_n_presentation", "surface_table",
    "tensor_product", "thm_main_check", "thm_torus_check", "torus_stabilization_k",
    "validate_hom",
]


def test_the_package_exports_lazily_what_it_exported_eagerly():
    probe = (
        "import sys\n"
        "import lscat\n"
        "print(' '.join(name for name in sys.modules if name.startswith('lscat.')))\n"
        "lscat.rank\n"
        "print(' '.join(sorted(name for name in sys.modules if name.startswith('lscat.'))))\n"
    )
    src = str(Path(lscat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split("\n") == ["", "lscat.gf2", ""]
    assert lscat.__all__ == EXPORTED
    for name in EXPORTED:
        module = importlib.import_module(f"lscat.{lscat._EXPORTS[name]}")
        assert getattr(lscat, name) is getattr(module, name)
        assert getattr(module, name).__module__ == module.__name__
    assert set(EXPORTED) <= set(dir(lscat))
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        lscat.nonesuch


# -- the record contract -------------------------------------------------------------


def _t2() -> TruncatedPresentation:
    return TruncatedPresentation((GeneratorSpec("a", 1), GeneratorSpec("b", 1)), (2, 2), 2)


def _ledger() -> BoundLedger:
    return BoundLedger(
        2,
        2,
        Interval(2, 2, "cl", "dim"),
        Interval(2, 2),
        Interval(2, 2),
        Interval(3, None, "ballcat + 1"),
        Interval(4, None, "Betti sum"),
        4,
    )


def _spec() -> RingHomSpec:
    return RingHomSpec(_t2(), _t2(), {"a": Element.of((1, 0)), "b": Element.of((0, 1))})


def _verdict() -> CriterionVerdict:
    return CriterionVerdict("low_dim", "certified", "dim <= 3", ("cite",))


def _with(ledger: BoundLedger, **changes: object) -> list:
    fields = dict(zip(BoundLedger._fields, _args(ledger)))
    fields.update(changes)
    return list(fields.values())


def _args(record) -> list:
    return [getattr(record, name) for name in type(record)._fields]


MODULES = ("gf2", "rings", "bounds", "catalogue", "homs", "spacefile", "cli")

# (class, valid constructor arguments, [(bad arguments, error, message)], the
# trailing fields' defaults); the arguments are built afresh on every call, so
# equal records are not identical
RECORDS = [
    (
        GeneratorSpec,
        lambda: ["a", 2],
        [(["a", 0], ValueError, "generator 'a' must have degree >= 1")],
        {},
    ),
    (Element, lambda: [frozenset({(1, 0)})], [], {"terms": frozenset()}),
    (_Monogenic, lambda: [2, 3], [], {}),
    (
        TruncatedPresentation,
        lambda: [(GeneratorSpec("a", 1), GeneratorSpec("b", 1)), (2, 2), 2],
        [
            ([(GeneratorSpec("a", 1),), (2, 2), 1], ValueError, "one truncation exponent"),
            (
                [(GeneratorSpec("a", 1), GeneratorSpec("a", 2)), (2, 2), 3],
                ValueError,
                "duplicate generator names",
            ),
            ([(GeneratorSpec("a", 1),), (0,), 1], ValueError, "for 'a' must be >= 1"),
            ([(), (), -1], ValueError, "top_degree must be nonnegative"),
            ([(GeneratorSpec("a", 1),), (3,), 1], ValueError, "above top_degree 1"),
        ],
        {},
    ),
    (CupLength, lambda: [2, 2, 2, True], [], {}),
    (Interval, lambda: [1, 2, "cl", "dim"], [], {"lower_provenance": "", "upper_provenance": ""}),
    (
        BoundLedger,
        lambda: _args(_ledger()),
        [
            (_with(_ledger(), cat=Interval(-1, 2)), LedgerError, "cat: lower bound -1 negative"),
            (_with(_ledger(), crit=Interval(3, 2)), LedgerError, "crit: lower 3 exceeds upper 2"),
            (_with(_ledger(), toomer_e=Interval(1, 2)), LedgerError, "chain cl <= e"),
            (_with(_ledger(), cat=Interval(2, None)), LedgerError, "cat upper bound must be"),
            (_with(_ledger(), ballcat=Interval(1, 2)), LedgerError, "ballcat.lower must be"),
            (_with(_ledger(), crit=Interval(2, None)), LedgerError, "crit.lower must be"),
            (_with(_ledger(), crit_star=Interval(3, None)), LedgerError, "cover the Betti sum"),
            (
                _with(_ledger(), crit_star=Interval(2, None), betti_total=None),
                LedgerError,
                "crit_star.lower must be >= crit.lower",
            ),
        ],
        {"betti_total": None},
    ),
    (
        SpaceRecord,
        lambda: ["T2", 2, 0, True, True, _t2(), False, (2, "standard"), None, ("note",)],
        [
            (["T2", 3, 0, True, True, _t2()], ValueError, "ring top degree 2 != dimension 3"),
            (["T2", 2, 0, True, True, _t2(), None, (3, "")], ValueError, "outside \\[0, dim\\]"),
            (["T2", 2, 0, True, True, _t2(), None, (1, "")], ValueError, "below the cup-length"),
            (["C", 2, 2, True, True, None], ValueError, "connectivity 2 reaches the dimension 2"),
        ],
        {"torsion_free": False, "known_cat": None, "genus": None, "notes": ()},
    ),
    (
        CriterionVerdict,
        lambda: ["low_dim", "certified", "dim <= 3", ("cite",)],
        [],
        {"citations": ()},
    ),
    (
        RingHomSpec,
        lambda: [_t2(), _t2(), {"a": Element.of((1, 0)), "b": Element.of((0, 1))}, -1],
        [([_t2(), _t2(), {}, 2], ValueError, "asserted degree must be \\+1 or -1")],
        {"asserted_degree": 1},
    ),
    (ValidatedHom, lambda: [_spec(), ((1,),)], [], {}),
    (StabilizationCheck, lambda: [5, 6, 6], [], {}),
    (
        Report,
        lambda: ["T2", "T2", (_verdict(),), "certified", ("note",), _ledger(), _ledger()],
        [],
        {"domain_ledger": None, "range_ledger": None},
    ),
    (MapFileSpec, lambda: ["f", "T2", "T2", 1, (("a", "a + b"),)], [], {}),
]


def test_every_record_is_covered():
    from lscat._record import Record

    covered = {cls for cls, *_ in RECORDS}
    assert len(covered) == len(RECORDS) == 14
    defined = {
        obj
        for module in MODULES
        for obj in vars(importlib.import_module(f"lscat.{module}")).values()
        if inspect.isclass(obj) and obj is not Record and issubclass(obj, Record)
    }
    assert defined == covered


@pytest.mark.parametrize(
    "cls, make, checks, defaults", RECORDS, ids=[c.__name__ for c, *_ in RECORDS]
)
def test_record_contract(cls, make, checks, defaults):
    a, b = cls(*make()), cls(*make())
    names = list(cls._fields)
    assert a == b and not (a != b)
    assert cls(**dict(zip(names, make()))) == a
    assert a != tuple(make())
    try:
        hash(tuple(make()))
    except TypeError:  # a mapping field makes the record unhashable, as it is
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert repr(a).startswith(f"{cls.__name__}({names[0]}=")
    for name in names:
        value = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is value
    for args, error, message in checks:
        if error is None:
            cls(*args)
        else:
            with pytest.raises(error, match=message):
                cls(*args)
    # the constructor binds arguments as a function signature would
    required = len(names) - len(defaults)
    assert names[required:] == list(defaults)
    for args, kwargs, message in [
        (make() + [None], {}, "arguments but"),
        (make(), {"nonesuch": None}, "unexpected keyword argument 'nonesuch'"),
        (make(), {names[0]: make()[0]}, f"multiple values for argument '{names[0]}'"),
    ] + ([(make()[: required - 1], {}, "missing")] if required else []):
        with pytest.raises(TypeError, match=message):
            cls(*args, **kwargs)
    short = cls(*make()[:required])
    assert {name: getattr(short, name) for name in defaults} == defaults
