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
from lscat.bounds import BoundLedger, CupLength, Interval, LedgerError, MorseData
from lscat.catalogue import SpaceRecord
from lscat.homs import (
    CriterionVerdict,
    Report,
    RingHomSpec,
    StabilizationCheck,
    ValidatedHom,
)
from lscat.rings import Element, GeneratorSpec, TruncatedPresentation
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
    fields = dict(zip(inspect.signature(BoundLedger).parameters, _args(ledger)))
    fields.update(changes)
    return list(fields.values())


def _args(record) -> list:
    return [getattr(record, name) for name in inspect.signature(type(record)).parameters]


MODULES = ("gf2", "rings", "bounds", "catalogue", "homs", "spacefile", "cli")

# (class, valid constructor arguments, [(bad arguments, error, message)]); the
# arguments are built afresh on every call, so equal records are not identical
RECORDS = [
    (
        GeneratorSpec,
        lambda: ["a", 2],
        [(["a", 0], ValueError, "generator 'a' must have degree >= 1")],
    ),
    (Element, lambda: [frozenset({(1, 0)})], []),
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
            ([(GeneratorSpec("a", 1),), (3,), 1], UserWarning, "above top_degree 1"),
        ],
    ),
    (
        MorseData,
        lambda: [(1, 2, 1), (0, 0, 0), False, 2],
        [
            ([(), (), False, -1], ValueError, "dimension must be nonnegative"),
            ([(1, 1), (0, 0, 0), False, 2], ValueError, "length dimension\\+1 = 3"),
            ([(1, -2, 1), (0, 0, 0), False, 2], ValueError, "ranks must be nonnegative"),
        ],
    ),
    (CupLength, lambda: [2, 2, 2, True], []),
    (Interval, lambda: [1, 2, "cl", "dim"], []),
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
    ),
    (
        SpaceRecord,
        lambda: ["T2", 2, 0, True, True, _t2(), None, (2, "standard"), None, ("note",)],
        [
            (["T2", 3, 0, True, True, _t2()], ValueError, "ring top degree 2 != dimension 3"),
            (["T2", 2, 0, True, True, _t2(), None, (3, "")], ValueError, "outside \\[0, dim\\]"),
            (["T2", 2, 0, True, True, _t2(), None, (1, "")], ValueError, "below the cup-length"),
        ],
    ),
    (CriterionVerdict, lambda: ["low_dim", "certified", "dim <= 3", ("cite",)], []),
    (
        RingHomSpec,
        lambda: [_t2(), _t2(), {"a": Element.of((1, 0)), "b": Element.of((0, 1))}, -1],
        [([_t2(), _t2(), {}, 2], ValueError, "asserted degree must be \\+1 or -1")],
    ),
    (ValidatedHom, lambda: [_spec(), ((1,),)], []),
    (StabilizationCheck, lambda: [5, 6, 6], []),
    (
        Report,
        lambda: ["T2", "T2", (_verdict(),), "certified", ("note",), _ledger(), _ledger()],
        [],
    ),
    (MapFileSpec, lambda: ["f", "T2", "T2", 1, (("a", "a + b"),)], []),
]


def test_every_record_is_covered():
    from lscat._record import Record

    covered = {cls for cls, _, _ in RECORDS}
    assert len(covered) == len(RECORDS) == 14
    defined = {
        obj
        for module in MODULES
        for obj in vars(importlib.import_module(f"lscat.{module}")).values()
        if inspect.isclass(obj) and obj is not Record and issubclass(obj, Record)
    }
    assert defined == covered


@pytest.mark.parametrize("cls, make, checks", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
def test_record_contract(cls, make, checks):
    a, b = cls(*make()), cls(*make())
    names = list(inspect.signature(cls).parameters)
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
        elif issubclass(error, Warning):
            with pytest.warns(error, match=message):
                cls(*args)
        else:
            with pytest.raises(error, match=message):
                cls(*args)
