"""Check that two source trees give byte-identical CLI outputs.

Usage::

    python tools/same_outputs.py PARENT_TREE CHANGE_TREE --seeds A-B [--smoke] [--workloads W,...]

Each tree is a checkout with ``src/lscat``.  The requests are those of the
benchmark decks (``perfbench/decks.py``, imported unchanged) for every
workload (or those named) and every seed from A to B, and a fixed set of requests the
decks do not reach: the edge messages of map parsing, identity maps on
large presentations and product tables, invalid maps with problem lists
for each kind of source ring, identity maps on ``T12``, ``T16`` and
``T20`` (whose basis is above the limit a map may enumerate) and on
``SO9`` and ``SO5xS_1``, whose truncations above 2 make products carry, the map ``T3 -> T2``
between spaces of different dimensions and a map ``SO4 -> SO3`` whose
image has the wrong degree (each map through ``check-map`` and
``degree1-report --map``), ``show`` of
``SO5xS_1``, ``show`` of ``S0``, ``T0`` and ``SO1`` (the refusals the
catalogue's family table words), a map that sends a generator to an
unknown name from ``T2`` and from ``S_1`` (through ``check-map`` and
``degree1-report --map``) and a ``basis`` line above ``dim`` (through
``invariants`` and ``show``), whose errors name their lines, ``cup-length`` and ``--json invariants`` of every catalogue
name and sweep product of the decks and of ``S_2xT10``, ``S_4xS_4xS_4``
and ``S_200``, so that the cup-length search runs on explicit, factored
and presentation rings, both forms of ``invariants S_2100``, an explicit
table above the cross-check limit, of ``invariants S_10000`` and its
``show``, whose 20,000 generators each keep only their nonzero rows
(rows of every basis element would hold 4 * 10^8 entries), and of
``invariants T3000``, whose Poincare series is a high power of one
factor's, of ``--json invariants S_300xS1``, a product with a large explicit
factor inside the cross-check limit, whose search composes its rows from
the factor's nonzero rows, both forms of
``degree1-report -m T15000 -n T15000``, whose basis count has more
digits than Python prints, and of a report on
``S1000000xS1000000xS1000000``, whose Morse row would list 3,000,001
terms, ``show S_30000`` and ``--json invariants S_2000``, explicit
tables that store no product with the unit, a report of the file
``ten.space`` (4,300 generators truncated at 10) against itself, which
prints no basis count, and ``degree1-report -m T15000 -n S2``, whose
dimensions differ, ``show`` of ``S`` followed by an Arabic-Indic three,
of ``S03`` and of ``S`` followed by 5,000 ones and ``invariants T007``
(family parameters that are not ASCII digits without a leading zero, or
have more digits than ``int`` reads), ``degree1-report`` with a map whose
spaces have the given names but other rings and with one naming an
unknown space, both forms of ``degree1-report -m S2xS2 -n T4`` (whose
range has cl = cat above the domain's cup-length) and of ``-m S3xS3 -n
S6`` and ``-m S6 -n S3xS3`` (the Morse row certified with exact counts
and violated in degree 3), both forms of
``degree1-report`` from ``G2``, which has no ring, to itself, to
``T14`` and from ``T14`` to it (every ``not_applicable`` row the report
derives from a missing ring or Morse datum), a space without mod-2
Poincare duality (``u.space``) as the range of a report and of a
``check-map``, a report with a map whose spaces are the report's own
file, named in all four places, the identity ``check-map`` of a
two-class space of dim 10,000,000, more degrees than a command may
enumerate, a space of one generator truncated at 10^11 through
``cup-length``, ``invariants``, ``degree1-report`` and the identity
``check-map``, ``cup-length T100000``, the quaternionic and complex
projective planes flagged stably parallelizable (which a nonzero middle
square refutes) through ``invariants`` and ``degree1-report -m T8``, a
space without a ring whose connectivity 5 reaches its dimension 2
through ``invariants`` and ``degree1-report -m T2``, every malformed
file of ``tests/file_errors.py`` (through ``invariants`` or
``check-map``), so that each file error's message is
compared, and the command line's help, usage errors and accepted option
forms.  ``--smoke``
keeps the smoke decks and drops the fixed set.

Every distinct request runs once per tree as ``python -m lscat.cli ARGV``
in a fresh directory holding its files, with at most ``MEMORY_CAP`` bytes
of address space, so that a tree which enumerates too much fails with a
``MemoryError`` instead of taking the machine's memory.  The tool lists each request
whose exit code, stdout or stderr differ (with the trees' source paths
masked), and exits 1 if there is any, 0 otherwise.
"""

from __future__ import annotations

import argparse
import itertools
import os
import resource
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))

import decks  # noqa: E402
import file_errors  # noqa: E402

WORKERS = 2
TIMEOUT_S = 120
MEMORY_CAP = 1 << 30


def _map(domain: str, range_: str, sends: list[tuple[str, str]]) -> str:
    lines = ["map f", f"domain {domain}", f"range {range_}", "degree +1"]
    return "\n".join(lines + [f"send {g} -> {e}" for g, e in sends]) + "\n"


def _monomial_labels(gens: list[tuple[str, int]]) -> list[str]:
    """Basis labels of a presentation's expansion, generators given as
    (name, truncation), in mixed-radix order."""
    monomials = itertools.product(*(range(q) for _, q in gens))
    return ["*".join(name if e == 1 else f"{name}^{e}" for (name, _), e in zip(gens, m) if e) or "1"
            for m in monomials]


def _torus_labels(k: int) -> list[str]:
    return _monomial_labels([(f"t{i}", 2) for i in range(1, k + 1)])


def _surface_labels(g: int) -> list[str]:
    return ["1"] + [f"{c}{i}" for c in "ab" for i in range(1, g + 1)] + ["w"]


def _product_labels(a: list[str], b: list[str]) -> list[str]:
    """Basis labels of a catalogue product of two rings with unit label 1;
    a label met again takes the suffix __2, __3, ..."""
    out: list[str] = []
    for base in (y if x == "1" else x if y == "1" else f"{x}_{y}" for x in a for y in b):
        name, k = base, 2
        while name in out:
            name, k = f"{base}__{k}", k + 1
        out.append(name)
    return out


def fixed_requests() -> list[tuple[tuple[str, ...], tuple[tuple[str, str], ...]]]:
    """(argv, files) of the map and search requests the decks do not reach."""
    s1xt2 = _product_labels(_surface_labels(1), _torus_labels(2))[1:]
    maps = {  # name: (domain, range, sends)
        # edge messages of the parser and the first validation stage
        "t3-inhomogeneous": ("T3", "T3", [("t1", "t1 + t1*t2"), ("t2", "t2"), ("t3", "t3")]),
        "s2-unit-summand": ("S_2", "T2", [("t1", "a1 + 1"), ("t2", "b1")]),
        "s1-unit-image": ("T2", "S_1", [("1", "1 + t1"), ("a1", "t1"), ("b1", "t2"), ("w", "t1*t2")]),
        # problem lists: presentation, explicit-table and factored-table sources
        "t4-invalid": ("T4", "T4", [("t1", "t1*t2"), ("t3", "t3 + t1*t2"), ("zz", "t1"),
                                    ("t2", "t2^2 + 0")]),
        "so3-relation": ("SO3", "T3", [("t1", "b1"), ("t2", "b1"), ("t3", "b1^3 + b1^4")]),
        "s3-invalid": ("S_3", "S_3", [("1", "a1 + 1"), ("a1", "a1"), ("a2", "w"), ("zz", "a1"),
                                      ("b1", "b1 + b2"), ("w", "a1*b1 + a2*b2")]),
        "s3-multiplicativity": ("S_3", "S_3", [("a1", "a1"), ("a2", "a2"), ("a3", "a3"), ("b1", "a1"),
                                               ("b2", "a1"), ("b3", "a1"), ("w", "w")]),
        "s1xt2-invalid": ("S_1xT2", "S_1xT2", [("a1", "a1_t1"), ("t1*t2", "t1 + t2"),
                                               ("a1_t1*t2", "1"), ("qq", "w")]),
        "s1xt2-multiplicativity": ("S_1xT2", "S_1xT2", [(l, "a1" if l == "b1" else l) for l in s1xt2]),
    }
    for k in (12, 16, 20):
        maps[f"t{k}-identity"] = (f"T{k}", f"T{k}", [(f"t{i}", f"t{i}") for i in range(1, k + 1)])
    for k in (4, 6):
        labels = _product_labels(_surface_labels(2), _torus_labels(k))[1:]
        maps[f"s_2xt{k}-identity"] = (f"S_2xT{k}", f"S_2xT{k}", [(l, l) for l in labels])
    # truncations above 2, whose products carry: a presentation, and its expansion
    # beside a table.  There SO5's b1 is b1__2, after S_1's, and a label with a
    # power (b1^2_a1) is sent to the product of its factors
    maps["so9-identity"] = ("SO9", "SO9", [(f"b{i}", f"b{i}") for i in (1, 3, 5, 7)])
    so5, s1 = _monomial_labels([("b1", 8), ("b3", 2)]), _surface_labels(1)
    images = ["*".join(f for f in (m.replace("b1", "b1__2"), y) if f != "1") for m in so5 for y in s1]
    maps["so5xs_1-identity"] = ("SO5xS_1", "SO5xS_1", list(zip(_product_labels(so5, s1), images))[1:])
    # spaces of different dimensions, between which no map has a degree, and
    # such a map with an image of the wrong degree: the map's error comes first
    maps["t3-t2"] = ("T3", "T2", [("t1", "t1"), ("t2", "t2")])
    maps["so4-so3-degree"] = ("SO4", "SO3", [("b1", "b3")])
    out = []
    for name, (domain, range_, sends) in maps.items():
        files = ((f"{name}.map", _map(domain, range_, sends)),)
        for json in ((), ("--json",)):
            out.append((json + ("check-map", f"{name}.map"), files))
            out.append((json + ("degree1-report", "-m", domain, "-n", range_, "--map", f"{name}.map"), files))
    for name in [*decks.CATALOGUE_NAMES, *decks.SWEEP_PRODUCTS, "S_2xT10", "S_4xS_4xS_4", "S_200"]:
        out += [(("cup-length", name), ()), (("--json", "invariants", name), ())]
    out += [(("show", "SO5xS_1"), ()), (("--json", "show", "SO5xS_1"), ()), (("show", "S_10000"), ())]
    # the refusals below a family's least parameter, read from the catalogue's family table
    out += [(("show", name), ()) for name in ("S0", "T0", "SO1")]
    # a product with a large explicit factor inside the cross-check limit, whose
    # search composes its rows from the factor's nonzero rows
    out += [(("--json", "invariants", "S_300xS1"), ())]
    for json in ((), ("--json",)):
        out += [(json + ("invariants", "S_2100"), ()), (json + ("invariants", "T3000"), ()),
                # 20,000 generators, whose rows of every basis element would hold 4 * 10^8 entries
                (json + ("invariants", "S_10000"), ()),
                # a basis count of more digits than Python prints
                (json + ("degree1-report", "-m", "T15000", "-n", "T15000"), ()),
                # a Morse row of 3,000,001 terms
                (json + ("degree1-report", "-m", "S1000000xS1000000xS1000000",
                         "-n", "S1000000xS1000000xS1000000"), ())]
    # tables that store no unit row
    out += [(("show", "S_30000"), ()), (("--json", "invariants", "S_2000"), ())]
    # a report that prints no basis count of a ring that is not torsion-free, though
    # its count, 10^4300, has more digits than Python prints; and a dimension error
    # before the digit error
    files = (("ten.space", "space Ten\ndim 38700\n" + "".join(
        f"generator x{i} 1\ntruncate x{i} 10\n" for i in range(4300))),)
    out += [(("degree1-report", "-m", "ten.space", "-n", "ten.space"), files),
            (("degree1-report", "-m", "T15000", "-n", "S2"), ())]
    # family parameters that are not ASCII digits without a leading zero, and
    # one of more digits than int() reads
    out += [(("show", "S\u0663"), ()), (("show", "S03"), ()), (("invariants", "T007"), ()),
            (("show", "S" + "1" * 5000), ())]
    # a map between spaces named as -m/-n but with other rings, and one naming no space
    files = (("a.space", "space A\ndim 2\ngenerator a 1\ngenerator b 1\ntruncate a 2\n"
                         "truncate b 2\n"),
             ("a2.space", "space A\ndim 2\ngenerator a 2\ntruncate a 2\n"),
             ("m.map", _map("a2.space", "a.space", [("a", "0"), ("b", "0")])))
    out.append((("degree1-report", "-m", "a.space", "-n", "a.space", "--map", "m.map"), files))
    files = (("u.map", _map("Nowhere", "S2", [("x2", "0")])),)
    out.append((("degree1-report", "-m", "S2", "-n", "S2", "--map", "u.map"), files))
    # a report whose ledgers are the spaces' own though cl(S2xS2) < cl(T4) = cat(T4),
    # and the Morse row certified (exact counts) and violated (a Betti number)
    out += [(json + ("degree1-report", "-m", m, "-n", n), ()) for json in ((), ("--json",))
            for m, n in (("S2xS2", "T4"), ("S3xS3", "S6"), ("S6", "S3xS3"))]
    # G2, which has no ring, as domain, range or both: every derived not_applicable row
    out += [(json + ("degree1-report", "-m", m, "-n", n), ()) for json in ((), ("--json",))
            for m, n in (("G2", "G2"), ("G2", "T14"), ("T14", "G2"))]
    # U, which has no class in its dimension 3, as a report's range and a map's
    files = (("u.space", "space U\ndim 3\ngenerator a 1\ntruncate a 2\n"),
             ("t3u.map", _map("T3", "u.space", [("a", "t1")])))
    out.append((("degree1-report", "-m", "T3", "-n", "u.space"), files))
    out.append((("check-map", "t3u.map"), files))
    # one file as the report's domain and range and as its map's: parsed once
    files = (("f.space", "space F\ndim 3\ngenerator a 1\ngenerator b 2\ntruncate a 2\n"
                         "truncate b 2\n"),
             ("f.map", _map("f.space", "f.space", [("a", "a"), ("b", "b")])))
    out.append((("degree1-report", "-m", "f.space", "-n", "f.space", "--map", "f.map"), files))
    # an unknown name in a send, in a presentation domain and in a table domain,
    # and a basis degree above dim: each error names its line
    for domain, send in (("T2", "t1"), ("S_1", "a1")):
        files = (("zz.map", _map(domain, "T2", [("t1", send), ("t2", "zz")])),)
        out += [(("check-map", "zz.map"), files),
                (("degree1-report", "-m", domain, "-n", "T2", "--map", "zz.map"), files)]
    files = (("z.space", "space Z\ndim 2\nbasis 1 0\nbasis a 1\nbasis z 5\n"),)
    out += [(("invariants", "z.space"), files), (("show", "z.space"), files)]
    # a dim of more degrees than a command may enumerate, in a map
    files = (("d.space", "space D\ndim 10000000\ngenerator x 10000000\ntruncate x 2\n"),
             ("d.map", _map("d.space", "d.space", [("x", "x")])))
    out.append((("check-map", "d.map"), files))
    # one truncation of 10^11: formulas answer, enumerating commands refuse it
    files = (("big.space", "space Big\ndim 99999999999\ngenerator a 1\ntruncate a 100000000000\n"),
             ("big.map", _map("big.space", "big.space", [("a", "a")])))
    out += [(("cup-length", "big.space"), files), (("invariants", "big.space"), files),
            (("degree1-report", "-m", "big.space", "-n", "big.space"), files),
            (("check-map", "big.map"), files), (("cup-length", "T100000"), ())]
    # stably parallelizable flags that a nonzero middle square refutes
    files = (("hp2.space", "space HP2\ndim 8\nconnectivity 3\nstably-parallelizable true\n"
                           "generator y 4\ntruncate y 3\n"),
             ("cp2.space", "space CP2\ndim 4\nconnectivity 1\nstably-parallelizable true\n"
                           "generator x 2\ntruncate x 3\n"))
    out += [(("invariants", "hp2.space"), files), (("invariants", "cp2.space"), files),
            (("degree1-report", "-m", "T8", "-n", "hp2.space"), files)]
    # a connectivity that reaches the dimension, in a space without a ring
    files = (("c.space", 'space C\ndim 2\nconnectivity 5\nstably-parallelizable true\n'
                         'known-cat 1 "x"\n'),)
    out += [(("invariants", "c.space"), files), (("degree1-report", "-m", "T2", "-n", "c.space"), files)]
    # every file error: its message, kind and line
    for i, (fmt, text, _) in enumerate(file_errors.FILE_ERRORS):
        command = "invariants" if fmt == "space" else "check-map"
        out.append(((command, f"bad{i}.{fmt}"), ((f"bad{i}.{fmt}", text),)))
    # the front door: help, usage errors and the accepted option forms
    out += [(argv, ()) for argv in [
        (), ("--help",), ("cup-length", "--help"), ("no-such-command",),
        ("degree1-report", "-m", "S2"), ("--seed", "x", "verify-paper"), ("cup-length", "T3", "--json"),
        ("--js", "cup-length", "T3"), ("--seed=5", "cup-length", "T3"), ("cup-length", "--", "T3"),
        ("degree1-report", "--dom", "S2", "--ran", "S2"),
    ]]
    return out


def requests(
    workloads: list[str], seeds: range, smoke: bool
) -> list[tuple[tuple[str, ...], tuple[tuple[str, str], ...]]]:
    """Every distinct (argv, files) pair, in first-seen order."""
    seen: dict = {}
    for workload in workloads:
        for seed in seeds:
            for req in decks.deck(workload, seed, smoke):
                seen.setdefault((req.argv, req.files), None)
    if not smoke:
        for key in fixed_requests():
            seen.setdefault(key, None)
    return list(seen)


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run(tree: Path, argv: tuple[str, ...], files: tuple[tuple[str, str], ...]) -> tuple[int, str, str]:
    src = str(tree.resolve() / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as work:
        for name, text in files:
            Path(work, name).write_text(text, encoding="utf-8")
        try:
            proc = subprocess.run([sys.executable, "-m", "lscat.cli", *argv], cwd=work, env=env,
                                  stdin=subprocess.DEVNULL, capture_output=True, text=True,
                                  timeout=TIMEOUT_S, preexec_fn=_cap_memory)
        except subprocess.TimeoutExpired:
            return -1, "", f"timed out after {TIMEOUT_S} s"
    return proc.returncode, proc.stdout.replace(src, "<src>"), proc.stderr.replace(src, "<src>")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", required=True, help="inclusive seed range, e.g. 1-20")
    parser.add_argument("--smoke", action="store_true", help="smoke decks only, no fixed requests")
    parser.add_argument("--workloads", default=",".join(decks.WORKLOADS),
                        help="comma-separated deck names (default: all)")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    reqs = requests(args.workloads.split(","), seeds, args.smoke)

    def compare(req):
        return req, run(args.parent, *req), run(args.change, *req)

    differ = 0
    with ThreadPoolExecutor(WORKERS) as pool:
        for (req_argv, _), old, new in pool.map(compare, reqs):
            if old != new:
                differ += 1
                print(f"DIFFERS: lscat {' '.join(req_argv)}")
                for what, a, b in zip(("exit code", "stdout", "stderr"), old, new):
                    if a != b:
                        print(f"  {what}: parent {a!r:.300}\n  {what}: change {b!r:.300}")
    print(f"{len(reqs)} requests, {differ} with different outputs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
