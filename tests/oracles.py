"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's own algorithms: rank by
enumerating all row combinations, degree bases by exhaustive exponent
enumeration, cup-length by breadth-first products of basis elements.
Only usable on small inputs.  The one exception is the reference
ideal-power search, the search kernel's earlier design, kept as the
oracle of the one-pass kernel on rings too large for brute force, and
that kernel's per-degree step as it was on ``XorBasis``.  The
reference command-line grammar is the argparse parser the CLI used to
build, kept as the oracle of its table-driven parser.  The reference
presentation compile is the compiled form presentations had before they
compiled over their monogenic factors, kept as the oracle of that path.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import operator
from typing import Mapping, Sequence

from lscat.cli import DEFAULT_SEED
from lscat.gf2 import XorBasis
from lscat.rings import Element, MultiplicationTable, TruncatedPresentation


def brute_rank(rows: list[list[int]]) -> int:
    """log2 of the number of distinct GF(2) row combinations."""
    vectors = set()
    n = len(rows)
    width = len(rows[0]) if rows else 0
    for picks in itertools.product((0, 1), repeat=n):
        acc = [0] * width
        for pick, row in zip(picks, rows):
            if pick:
                acc = [a ^ b for a, b in zip(acc, row)]
        vectors.add(tuple(acc))
    size = len(vectors)
    r = 0
    while (1 << r) < size:
        r += 1
    assert (1 << r) == size
    return r


def brute_in_span(v: list[int], rows: list[list[int]]) -> bool:
    for picks in itertools.product((0, 1), repeat=len(rows)):
        acc = [0] * len(v)
        for pick, row in zip(picks, rows):
            if pick:
                acc = [a ^ b for a, b in zip(acc, row)]
        if acc == list(v):
            return True
    return False


def brute_basis_in_degree(p: TruncatedPresentation, d: int) -> list[tuple]:
    out = []
    for exps in itertools.product(*(range(q) for q in p.truncations)):
        if sum(e * g.degree for e, g in zip(exps, p.generators)) == d:
            out.append(exps)
    return sorted(out)


def brute_poincare(p: TruncatedPresentation) -> list[int]:
    counts = [0] * (p.top_degree + 1)
    for exps in itertools.product(*(range(q) for q in p.truncations)):
        d = sum(e * g.degree for e, g in zip(exps, p.generators))
        if d <= p.top_degree:
            counts[d] += 1
    return counts


def brute_cup_length(t: MultiplicationTable) -> int:
    """Definitional cup-length: longest nonzero product of positive basis
    elements, found by breadth-first multiplication."""
    positive = [l for l, d in t.basis if d > 0]
    if not positive:
        return 0
    level = {frozenset({l}) for l in positive}
    m = 1
    while True:
        nxt = set()
        for terms in level:
            for g in positive:
                prod = t.multiply(Element(terms), Element.of(g))
                if prod:
                    nxt.add(prod.terms)
        if not nxt:
            return m
        level = nxt
        m += 1


def reference_presentation_compile(p: TruncatedPresentation) -> tuple:
    """``(generator_rows, pairing, product)`` of a presentation as its
    compiled form built them by mixed-radix monomial number: rows and
    pairing as ``CompiledRing.generator_rows`` and ``pairing`` give them,
    and ``product(a, b)`` the positions of the product of positions a
    and b, by adding exponent tuples.  Positions are numbered as the
    compiled form numbers them: by a stable sort on degree."""
    degrees = p.monomial_degrees  # per monomial number
    order = sorted(range(len(degrees)), key=degrees.__getitem__)  # position -> monomial number
    by_position = sorted(degrees)
    top = by_position[-1]
    first = {d: bisect.bisect_left(by_position, d) for d in dict.fromkeys(by_position)}
    dims = {d: bisect.bisect_right(by_position, d) - q for d, q in first.items()}
    at = sorted(range(len(order)), key=order.__getitem__)  # monomial number -> position
    local = [q - first[by_position[q]] for q in at]  # monomial number -> number within its degree
    rows = []
    stride = len(order)
    for g, q in zip(p.generators, p.truncations):
        stride //= q
        if q < 2:
            continue
        by_degree = {}
        for d, start in first.items():
            if d + g.degree <= top:
                by_degree[d] = tuple(
                    1 << local[n + stride] if n // stride % q < q - 1 else 0
                    for n in order[start : start + dims[d]]
                )
        rows.append((g.degree, by_degree))
    # exponents e and q - 1 - e pair to the top class: numbers n and last - n
    last = len(order) - 1

    def pairing(d: int) -> tuple[int, ...]:
        return tuple(1 << local[last - n] for n in order[first[d] : first[d] + dims[d]])

    terms = list(itertools.product(*map(range, p.truncations)))
    terms = [terms[n] for n in order]
    position = {t: q for q, t in enumerate(terms)}

    def product(a: int, b: int) -> list[int]:
        w = position.get(tuple(map(operator.add, terms[a], terms[b])))  # None off normal form
        return [] if w is None else [w]

    return tuple(rows), pairing, product


def reference_ideal_power_search(
    dims: Mapping[int, int],
    generator_rows: Sequence[tuple[int, Mapping[int, Sequence[int]]]],
) -> int:
    """The cup-length search as it was before the one-pass kernel: builds
    I, I^2, ... in turn until a power vanishes.  It takes the arguments
    of ``bounds._ideal_power_search`` and must return the same value.

    The span of I^(m+1) in degree e depends only on the spans of I^m in
    the degrees e - deg(g).  Powers of an ideal shrink, so a span whose
    dimension did not move between I^(m-1) and I^m is the same span;
    only degrees fed by a moved one are recomputed.  Each span is kept
    as the list of vectors that entered its basis.
    """
    spans = {d: [1 << i for i in range(n)] for d, n in dims.items() if d > 0 and n}
    if not spans:
        return 0
    degrees = {dg for dg, _ in generator_rows}
    moved = set(spans) | {0}  # from I^0, the whole ring, to I
    m = 1
    while True:
        targets = {d + dg for d in moved for dg in degrees}
        new_spans = {e: span for e, span in spans.items() if e not in targets}
        for e in targets:
            image, kept = XorBasis(), []
            for dg, rows_by_degree in generator_rows:
                span, rows = spans.get(e - dg), rows_by_degree.get(e - dg)
                if span is None or rows is None:
                    continue
                for bits in span:
                    w = 0
                    while bits:
                        low = bits & -bits
                        w ^= rows[low.bit_length() - 1]
                        bits ^= low
                    if w and image.insert(w):
                        kept.append(w)
            if kept:
                new_spans[e] = kept
        if not new_spans:
            return m
        moved = {d for d, span in spans.items() if len(new_spans.get(d, ())) != len(span)}
        spans = new_spans
        m += 1


def reference_adapted_basis(n: int, sources) -> dict:
    """``bounds._adapted_basis`` as it was, on ``XorBasis``: it takes the
    same arguments and must return the same levels, vector for vector."""
    basis, levels = XorBasis(), {}
    for level in range(max((max(source) for source, _ in sources), default=0), 0, -1):
        for source, rows in sources:
            for bits in source.get(level, ()):
                w = 0
                for i in range(bits.bit_length()):
                    if bits >> i & 1:
                        w ^= rows[i]
                if w and basis.insert(w):
                    levels.setdefault(level + 1, []).append(w)
                    if len(basis) == n:
                        return levels
    levels[1] = [1 << i for i in range(n) if len(basis) < n and basis.insert(1 << i)]
    return levels


class ReferenceUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we use 64
        raise ReferenceUsageError(message)


def reference_cli_parser() -> _Parser:
    """The CLI's argparse parser as it was before the table-driven one.
    parse_args returns a Namespace, raises ReferenceUsageError, or prints
    help and raises SystemExit(0)."""
    parser = _Parser(
        prog="lscat",
        description="Cup-length, Morse and category bounds for closed manifolds, "
        "and degree-one map obstruction reports.",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed for randomized cross-checks (default %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_show = sub.add_parser("show", help="print a space as a normalized space file")
    p_show.add_argument("space", help="catalogue name or space file path")

    p_inv = sub.add_parser("invariants", help="Poincare polynomial, cup-length, ledger")
    p_inv.add_argument("space")

    p_cl = sub.add_parser("cup-length", help="cup-length by formula and/or search")
    p_cl.add_argument("space")

    p_map = sub.add_parser("check-map", help="validate a map file and its consequences")
    p_map.add_argument("mapfile")
    p_map.add_argument(
        "--space", action="append", default=[], help="extra space file (repeatable)"
    )

    p_rep = sub.add_parser(
        "degree1-report", help="run every criterion for maps domain -> range"
    )
    p_rep.add_argument("-m", "--domain", required=True, help="domain manifold M")
    p_rep.add_argument("-n", "--range", required=True, help="range manifold N")
    p_rep.add_argument("--map", dest="mapfile", help="optional map file with the induced hom")
    p_rep.add_argument("--space", action="append", default=[])

    sub.add_parser("verify-paper", help="recompute the SO(n) table and checks")

    sub.add_parser("catalogue", help="list built-in spaces")

    return parser
