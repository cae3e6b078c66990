"""Golden outputs: fixed CLI requests, in text and ``--json``, compared
byte for byte (stdout, stderr and the exit code) with checked-in text.

The requests run in-process through ``main()`` and cover every ring
kind the integer form serves: presentations, explicit tables (surfaces)
and factored tables (products), as sources and targets of maps.  Map
files are written to a temporary directory and named relative to it,
so no path enters the output.

To rewrite the expected text after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root
and review the diff of ``tests/golden/``.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from lscat.catalogue import get
from lscat.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden")


def _map(name: str, domain: str, range_: str, sends: dict[str, str]) -> str:
    lines = [f"map {name}", f"domain {domain}", f"range {range_}", "degree +1"]
    return "\n".join(lines + [f"send {k} -> {v}" for k, v in sends.items()]) + "\n"


def _identity(space: str, name: str = "identity", **changed: str) -> str:
    """The identity map of a table space, but for the ``changed`` images."""
    ring = get(space).ring
    labels = [l for l, _ in ring.basis if l != ring.unit_label]
    return _map(name, space, space, {l: changed.get(l, l) for l in labels})


SURFACE = ["a1", "a2", "b1", "b2", "w"]

MAPS = {
    "t3-identity.map": _map("identity", "T3", "T3", {"t1": "t1", "t2": "t2", "t3": "t3"}),
    # t2 -> t1 loses rank in degree 1
    "t3-merge.map": _map("merge", "T3", "T3", {"t1": "t1", "t2": "t1", "t3": "t3"}),
    # an image of the wrong degree
    "t3-invalid.map": _map("invalid", "T3", "T3", {"t1": "t1*t2", "t2": "t2", "t3": "t3"}),
    "s2-identity.map": _map("identity", "S_2", "S_2", {l: l for l in SURFACE}),
    "s2-zero.map": _map("zero", "S_2", "S_2", {l: "0" for l in SURFACE}),
    # w -> 0 breaks a1*b1 = w and a2*b2 = w
    "s2-invalid.map": _map(
        "invalid", "S_2", "S_2", {**{l: l for l in SURFACE}, "w": "0"}
    ),
    "s2-collapse.map": _map("collapse", "S_2", "T2", {"t1": "a1", "t2": "b1"}),
}

REQUESTS = {
    "invariants-SO5": ["invariants", "SO5"],
    "invariants-S_3": ["invariants", "S_3"],
    "invariants-S_2xT2": ["invariants", "S_2xT2"],
    "invariants-T2xS_1xS2": ["invariants", "T2xS_1xS2"],
    "invariants-T16": ["invariants", "T16"],
    "cup-length-SO9": ["cup-length", "SO9"],
    "cup-length-S_2xT2": ["cup-length", "S_2xT2"],
    "show-S_2xT2": ["show", "S_2xT2"],
    "check-map-T3-identity": ["check-map", "t3-identity.map"],
    "check-map-T3-merge": ["check-map", "t3-merge.map"],
    "check-map-T3-invalid": ["check-map", "t3-invalid.map"],
    "check-map-S_2-identity": ["check-map", "s2-identity.map"],
    "check-map-S_2-zero": ["check-map", "s2-zero.map"],
    "check-map-S_2-invalid": ["check-map", "s2-invalid.map"],
    "check-map-S_2xT2-identity": ["check-map", "s2xt2-identity.map"],
    # a factored source lists the failing pairs of its factor-wise check
    "check-map-S_1xT2-multiplicativity": ["check-map", "s1xt2-multiplicativity.map"],
    "degree1-report-S_2-T2-collapse": [
        "degree1-report", "-m", "S_2", "-n", "T2", "--map", "s2-collapse.map"
    ],
    "degree1-report-T3-T3-identity": [
        "degree1-report", "-m", "T3", "-n", "T3", "--map", "t3-identity.map"
    ],
    "degree1-report-S_2-S_2-zero": [
        "degree1-report", "-m", "S_2", "-n", "S_2", "--map", "s2-zero.map"
    ],
    "degree1-report-T4-T4": ["degree1-report", "-m", "T4", "-n", "T4"],
    # the Morse row certified (exact counts, 4 >= 2) and violated (degree 3)
    "degree1-report-S3xS3-S6": ["degree1-report", "-m", "S3xS3", "-n", "S6"],
    "degree1-report-S6-S3xS3": ["degree1-report", "-m", "S6", "-n", "S3xS3"],
    "verify-paper": ["verify-paper"],
}

CASES = [
    (f"{name}{suffix}", flags + argv)
    for name, argv in REQUESTS.items()
    for suffix, flags in (("", []), ("--json", ["--json"]))
]


def _write_maps(directory: Path) -> None:
    generated = {
        "s2xt2-identity.map": _identity("S_2xT2"),
        "s1xt2-multiplicativity.map": _identity("S_1xT2", "multiplicativity", b1="a1"),
    }
    for name, text in {**MAPS, **generated}.items():
        (directory / name).write_text(text)


def _run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = f"exit {code}\n{out.getvalue()}"
    return text + f"--- stderr\n{err.getvalue()}" if err.getvalue() else text


@pytest.fixture(scope="module")
def map_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("maps")
    _write_maps(directory)
    return directory


@pytest.mark.parametrize("case, argv", CASES, ids=[case for case, _ in CASES])
def test_golden_output(case, argv, map_dir, monkeypatch):
    monkeypatch.chdir(map_dir)
    assert _run(argv) == (GOLDEN / f"{case}.out").read_text()


def test_golden_set_is_complete():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(case for case, _ in CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        _write_maps(Path(scratch))
        here = os.getcwd()
        os.chdir(scratch)
        try:
            for case, argv in CASES:
                (GOLDEN / f"{case}.out").write_text(_run(argv))
        finally:
            os.chdir(here)
