"""Seeded workload decks: the CLI requests one pass of a run replays.

A deck is built from ``random.Random(seed)`` only, so the same seed
gives the same argv and the same space/map files.  Its composition is
fixed per workload (how many requests of each kind, which size classes
and which heavy fixed requests); the seed picks catalogue names and
pairs, generator names and order, genera within narrow bands, map
permutations, text or ``--json`` output, and the request order.  That
keeps the cost of a pass nearly the same across seeds, which the spread
gates need.
"""

from __future__ import annotations

import math
import random

from expected import (
    EXIT_PARSE,
    EXIT_USAGE,
    Request,
    atomic,
    catalogue_space,
    presentation_space,
    surface_file_space,
)

WORKLOADS = ("catalogue-sweep", "large-presentations", "tables-and-maps")

# the tail percentile reported per workload: the highest of p75/p90 with at
# least 10 samples beyond it in a 30-second run (fixed, so that one pass
# more or less does not move it)
TAIL_PERCENTILE = {"catalogue-sweep": 90, "large-presentations": 75, "tables-and-maps": 75}

# what ``lscat catalogue`` lists, in its order
CATALOGUE_NAMES = (
    ["point", "G2"]
    + [f"SO{n}" for n in range(3, 10)]
    + [f"T{k}" for k in range(1, 9)]
    + [f"S{n}" for n in range(1, 11)]
    + [f"S_{g}" for g in range(0, 5)]
)

# small catalogue products; every ring in the sweep has <= 256 basis elements
SWEEP_PRODUCTS = [
    "S1xS1", "S2xS2", "S3xS3", "S1xS2", "S2xS4", "S3xS5", "T2xS2", "T3xS3",
    "SO3xS3", "SO3xT3", "SO4xS2", "SO5xT2", "S_1xS_2", "S_2xT2", "S_3xS2",
    "S_4xT3", "SO4xSO3", "T4xS_2", "SO5xS1", "S4xS4",
]

# the non-manifold ring of ROADMAP item 4: monomials up to degree 8 in
# dimension 2.  lscat should reject it with exit 65; at the time this
# benchmark was written it dies with an uncaught LedgerError instead.
NONMANIFOLD = "space NM\ndim 2\ngenerator a 1\ntruncate a 9\n"

# requests expected to fail until the named defect is fixed; they stay in
# the decks and count as failed, and are listed as known in the output
KNOWN_DEFECTS = {
    "nonmanifold-invariants": "ROADMAP item 4: non-manifold presentation ends in an "
    "uncaught LedgerError (exit 1) instead of exit 65",
}

MALFORMED_SPACES = {
    "missing-dim": "space X\ngenerator a 1\ntruncate a 2\n",
    "duplicate-generator": "space X\ndim 2\ngenerator a 1\ngenerator a 1\n",
    "bad-exponent": "space X\ndim 2\ngenerator a 1\ntruncate a 0\n",
    "unknown-generator": "space X\ndim 1\ngenerator a 1\ntruncate b 2\n",
    "missing-truncation": "space X\ndim 1\ngenerator a 1\n",
    "mixed-ring-kinds": "space X\ndim 1\ngenerator a 1\nbasis 1 0\n",
    "duplicate-basis": "space X\ndim 0\nbasis 1 0\nbasis 1 0\n",
    "unknown-label": "space X\ndim 2\nbasis 1 0\nbasis a 1\nproduct a c = a\n",
    "bad-expression": "space X\ndim 2\nbasis 1 0\nbasis a 1\nbasis w 2\nproduct a a = w^2\n",
    "bad-degree": "space X\ndim 1\ngenerator a 0\ntruncate a 2\n",
    "inconsistent-known-cat": 'space X\ndim 2\nknown-cat 1 "too low"\ngenerator a 1\n'
    "generator b 1\ntruncate a 2\ntruncate b 2\n",
}
MALFORMED_MAPS = {
    "missing-field": "map f\ndomain T2\nrange T2\nsend t1 -> t1\n",
    "bad-degree": "map f\ndomain T2\nrange T2\ndegree 2\n",
    "unknown-space": "map f\ndomain K3\nrange T2\ndegree +1\n",
}


def _out(rng: random.Random) -> tuple[str, ...]:
    return ("--json",) if rng.random() < 0.5 else ()


def _space_file(s_name: str, gens, stably_par: bool, known: int | None) -> str:
    lines = [f"space {s_name}", f"dim {sum((p - 1) * d for _, d, p in gens)}"]
    if stably_par:
        lines.append("stably-parallelizable true")
    if known is not None:
        lines.append(f'known-cat {known} "declared in the file"')
    lines += [f"generator {name} {d}" for name, d, _ in gens]
    lines += [f"truncate {name} {p}" for name, _, p in gens]
    return "\n".join(lines) + "\n"


def _surface_file(s_name: str, g: int) -> str:
    lines = [f"space {s_name}", "dim 2", "basis 1 0"]
    lines += [f"basis a{i} 1" for i in range(1, g + 1)]
    lines += [f"basis b{i} 1" for i in range(1, g + 1)]
    lines += ["basis w 2"] + [f"product a{i} b{i} = w" for i in range(1, g + 1)]
    return "\n".join(lines) + "\n"


def _map_file(name: str, domain: str, range_: str, sends: list[tuple[str, str]]) -> str:
    lines = [f"map {name}", f"domain {domain}", f"range {range_}", "degree +1"]
    lines += [f"send {g} -> {e}" for g, e in sends]
    return "\n".join(lines) + "\n"


def _seeded_presentation(rng: random.Random, tag: str, gens: list[tuple[int, int]],
                         stably_par: bool, known: bool):
    """A space file with the given (degree, height) generators in seeded
    order under seeded names: the cost is fixed by the class, the input
    text is not."""
    gens = gens[:]
    rng.shuffle(gens)
    letters = rng.sample("abcdeuvwxyz", len(gens))
    named = [(f"{letters[i]}{i}", d, p) for i, (d, p) in enumerate(gens)]
    name = f"R{tag}"
    cl = sum(p - 1 for _, p in gens)
    space = presentation_space(name, gens, stably_par, cl if known else None)
    return space, (f"{name.lower()}.space", _space_file(name, named, stably_par, cl if known else None))


def _product(rng: random.Random, a: str, b: str) -> str:
    return "x".join(rng.sample([a, b], 2))


def _request(rng: random.Random, command: str, name: str, space, files=(), other=None) -> Request:
    """invariants / cup-length / show of one space, or a degree-one report
    of ``name`` against ``other`` (default: itself)."""
    if command == "report":
        other = other or (name, space)
        argv = ("degree1-report", "-m", name, "-n", other[0])
        return Request(f"report-{space.name}-{other[1].name}", _out(rng) + argv,
                       ("report", space, other[1], None), files)
    return Request(f"{command}-{space.name}", _out(rng) + (command, name), (command, space), files)


# -- catalogue-sweep -----------------------------------------------------------------


def catalogue_sweep(rng: random.Random) -> list[Request]:
    atoms = [n for n in CATALOGUE_NAMES if n != "G2"]
    by_dim: dict[int, list[str]] = {}
    for name in atoms + SWEEP_PRODUCTS + ["G2"]:
        by_dim.setdefault(catalogue_space(name).dim, []).append(name)
    shared = sorted(d for d, names in by_dim.items() if len(names) > 1)
    reqs = [Request("cup-length-G2", ("cup-length", "G2"), ("error", EXIT_USAGE, None))]
    # the costliest requests, twice each, so that p90 falls inside their group
    for out in ((), ("--json",)):
        reqs.append(Request("catalogue", out + ("catalogue",), ("catalogue", CATALOGUE_NAMES)))
        reqs.append(Request("verify-paper", out + ("verify-paper",), ("verify-paper",)))
        reqs.append(_request(rng, "report", "SO9", catalogue_space("SO9")))
        reqs.append(_request(rng, "invariants", "SO9", catalogue_space("SO9")))
    # half atomic names, half products, so that every seed costs about the same
    for command, count in (("show", 8), ("invariants", 12), ("cup-length", 8)):
        for pool in (atoms + ["G2"] if command != "cup-length" else atoms, SWEEP_PRODUCTS):
            for name in rng.sample(pool, count // 2):
                reqs.append(_request(rng, command, name, catalogue_space(name)))
    for _ in range(12):
        names = by_dim[rng.choice(shared)]
        m, n = rng.choice(names), rng.choice(names)
        reqs.append(_request(rng, "report", m, catalogue_space(m), other=(n, catalogue_space(n))))
    return reqs


# -- large-presentations ---------------------------------------------------------------


def large_presentations(rng: random.Random) -> list[Request]:
    reqs = []
    # T10 against itself runs the cup-length search 5 times per report;
    # T13 and T14 take the formula-only path above the cross-check limit
    for command, names in (("report", ("T10", "T13", "T14")),
                           ("invariants", ("SO11", "SO14", "T13", "T14", "T16")),
                           ("cup-length", ("T9", "T10", "T11", "SO12"))):
        for name in names:
            reqs.append(_request(rng, command, name, catalogue_space(name)))
    # seeded space files around and above the limit: (command, generators
    # as (degree, height), stably parallelizable, known cat).  Costs are
    # placed so that the median and p75 fall among requests of similar
    # cost (the 2048-monomial searches sit at the median), which keeps
    # those order statistics steady under noise
    classes = [
        ("report", [(1, 4), (1, 4), (2, 4), (2, 4), (3, 4)], True, True),
        ("cup-length", [(1, 8), (2, 8), (1, 4), (2, 4), (3, 2)], False, False),
        ("cup-length", [(1, 8), (2, 8), (1, 4), (2, 4), (3, 2)], True, False),
        ("cup-length", [(1, 8), (1, 4), (2, 4), (2, 4), (1, 2), (3, 4)], False, False),
        ("cup-length", [(1, 8), (2, 8), (1, 4), (3, 4), (1, 4), (2, 2)], True, False),
        ("invariants", [(1, 16), (2, 8), (1, 4), (3, 4), (1, 4), (2, 4)], False, True),
        ("report", [(1, 16), (2, 8), (1, 8), (3, 4), (1, 4), (2, 4)], True, True),
    ]
    tags: set[str] = set()
    for command, gens, stably_par, known in classes:
        tag = str(math.prod(p for _, p in gens))
        tag += "b" if tag in tags else ""
        tags.add(tag)
        space, (path, text) = _seeded_presentation(rng, tag, gens, stably_par, known)
        reqs.append(_request(rng, command, path, space, ((path, text),)))
    # catalogue products of presentations, factors in seeded order
    for command, a, b in (("invariants", "SO4", "T7"), ("cup-length", "SO6", "T5"), ("cup-length", "SO7", "T5"),
                          ("invariants", "SO8", "T7"), ("report", "SO4", "T10")):
        name = _product(rng, a, b)
        reqs.append(_request(rng, command, name, catalogue_space(name)))
    return reqs


# -- tables-and-maps -------------------------------------------------------------------


def _torus_map(rng: random.Random, kind: str):
    k = rng.randint(3, 8)
    gens = [f"t{i}" for i in range(1, k + 1)]
    images = gens[:]
    rng.shuffle(images)
    if kind == "zero":
        images[rng.randrange(k)] = "0"
    elif kind == "merge":
        i, j = rng.sample(range(k), 2)
        images[j] = images[i]
    elif kind == "degree":
        i, j = rng.sample(range(k), 2)
        images[i] = f"t{i + 1}*t{j + 1}"
    return f"T{k}", f"T{k}", list(zip(gens, images))


def _surface_map(rng: random.Random, kind: str):
    g = rng.randint(3, 6)
    h = rng.randint(1, g) if kind == "collapse" else g
    labels = [f"a{i}" for i in range(1, h + 1)] + [f"b{i}" for i in range(1, h + 1)]
    if kind == "swap":
        images = [f"b{i}" for i in range(1, h + 1)] + [f"a{i}" for i in range(1, h + 1)]
    elif kind == "zero":
        images = ["0"] * (2 * h)
    else:
        images = labels[:]
    sends = list(zip(labels, images)) + [("w", "0" if kind == "zero" else "w")]
    if kind == "invalid":
        i = rng.randrange(2 * h)
        sends[i] = (sends[i][0], "0")
    return f"S_{g}", f"S_{h}", sends


def tables_and_maps(rng: random.Random) -> list[Request]:
    reqs = []
    # surfaces from space files: building the table checks all n^3 triples
    for tag, genera, command in (("a", (25, 26), "invariants"), ("b", (19, 20), "invariants"),
                                 ("c", (13, 14), "invariants"), ("d", (4, 8), "show")):
        g = rng.choice(genera)
        name, path = f"Surf{tag}{g}", f"surf{tag}{g}.space"
        reqs.append(_request(rng, command, path, surface_file_space(name, g),
                             ((path, _surface_file(name, g)),)))
    # catalogue surfaces and table tensor products
    for command, genera in (("invariants", (18, 19)), ("invariants", (8, 9)), ("show", (12, 13)),
                            ("cup-length", (10, 11))):
        name = f"S_{rng.choice(genera)}"
        reqs.append(_request(rng, command, name, atomic(name)))
    for a, b in (("S_3", "T4"), ("S_5", "T3"), ("S_2", "T5"), ("S_4", "T4")):
        name = _product(rng, a, b)
        reqs.append(_request(rng, "invariants", name, catalogue_space(name)))
    m, n = f"S_{rng.randint(1, 6)}xT2", f"S_{rng.randint(1, 6)}xT2"
    reqs.append(_request(rng, "report", m, catalogue_space(m), other=(n, catalogue_space(n))))
    # induced homomorphisms: check-map and degree1-report --map
    outcomes = {"perm": "consistent", "zero": "violated", "merge": "violated", "degree": None,
                "swap": "consistent", "collapse": "consistent", "invalid": None}
    for family, kind in [("torus", k) for k in ("perm", "zero", "merge", "degree")] + [
        ("surface", k) for k in ("swap", "collapse", "invalid", "zero")
    ]:
        domain, range_name, sends = (_torus_map if family == "torus" else _surface_map)(rng, kind)
        path = f"{family}-{kind}.map"
        files = ((path, _map_file(f"{family}_{kind}", domain, range_name, sends)),)
        expect = ("check-map", outcomes[kind]) if outcomes[kind] else ("error", EXIT_PARSE, None)
        reqs.append(Request(f"check-map-{domain}-{range_name}-{kind}", _out(rng) + ("check-map", path),
                            expect, files))
    for kind in ("collapse", "zero"):
        domain, range_name, sends = _surface_map(rng, kind)
        path = f"report-{kind}.map"
        files = ((path, _map_file(f"report_{kind}", domain, range_name, sends)),)
        argv = ("degree1-report", "-m", domain, "-n", range_name, "--map", path)
        expect = ("report", atomic(domain), atomic(range_name), kind != "zero")
        reqs.append(Request(f"report-map-{domain}-{range_name}-{kind}", _out(rng) + argv, expect, files))
    # malformed files exit 65 with their stable error kind
    for kinds, texts, command, suffix in ((rng.sample(sorted(MALFORMED_SPACES), 2), MALFORMED_SPACES,
                                           "invariants", "space"),
                                          (rng.sample(sorted(MALFORMED_MAPS), 1), MALFORMED_MAPS,
                                           "check-map", "map")):
        for kind in kinds:
            path = f"bad-{kind}.{suffix}"
            reqs.append(Request(f"malformed-{suffix}-{kind}", (command, path),
                                ("error", EXIT_PARSE, kind), ((path, texts[kind]),)))
    reqs.append(Request("nonmanifold-invariants", ("invariants", "nonmanifold.space"),
                        ("error", EXIT_PARSE, None), (("nonmanifold.space", NONMANIFOLD),)))
    return reqs


# cheap requests that still reach every check kind of the workload
SMOKE = {
    "catalogue-sweep": ("catalogue", "cup-length-G2", "show-", "report-"),
    "large-presentations": ("report-T13", "invariants-T14", "report-R1024"),
    "tables-and-maps": ("check-map-T", "malformed-space", "nonmanifold", "show-Surfd"),
}

BUILDERS = {
    "catalogue-sweep": catalogue_sweep,
    "large-presentations": large_presentations,
    "tables-and-maps": tables_and_maps,
}


def deck(workload: str, seed: int, smoke: bool = False) -> list[Request]:
    """One pass of ``workload`` for ``seed``, in seeded order.

    The smoke deck keeps the cheap requests named in ``SMOKE``, so it
    exercises the same builders and checks at a tiny size.
    """
    rng = random.Random(f"{workload}:{seed}")
    reqs = BUILDERS[workload](rng)
    if smoke:
        prefixes = SMOKE[workload]
        reqs = [r for r in reqs if r.rid.startswith(prefixes)]
    rng.shuffle(reqs)
    return reqs
