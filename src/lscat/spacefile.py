"""Line-oriented file formats for spaces and maps.

Space files (UTF-8, ``#`` starts a comment, tokens whitespace-separated)::

    space NAME
    dim N
    connectivity C                  # optional, default 0
    stably-parallelizable BOOL      # optional, default false
    orientable BOOL                 # optional, default true
    known-cat K "CITATION"          # optional
    generator NAME DEGREE           # once per NAME; truncated presentation
    truncate NAME EXPONENT          # required once per generator
    # or, mutually exclusive with generator/truncate:
    basis LABEL DEGREE              # once per LABEL; unit = unique degree-0 label
    product LABEL LABEL = EXPR      # once per LABEL pair, either order; omitted products are 0

Map files::

    map NAME
    domain SPACE                    # M, the source manifold of f
    range SPACE                     # N, the target manifold of f
    degree +1 | -1
    send GEN -> EXPR                # once per GEN: images of N's generators in M's ring

A file starts with its header line (``space`` or ``map``).  One table
per format gives each keyword its arguments and its repeat rule: a line
keyed above may appear once per key, and every other line once, so a
second ``dim`` line is an error (``line N: duplicate dim line``), as is
a ``product b a`` line after ``product a b``.  A product line that breaks
a ring law names its line too.

Expressions are sums of monomials separated by ``+``; a monomial is
``0``, ``1``, or factors ``ID`` / ``ID^INT`` joined by ``*``, where ``ID``
may hold ``^INT_`` as product labels do (``b1^2_a1``); whitespace is
insignificant within a line.  Parsing a serialized record is the
identity on normalized files.
"""

from __future__ import annotations

from ._record import Record
from .catalogue import SpaceFileError, SpaceRecord
from .homs import RingHomSpec
from .rings import GeneratorSpec, MultiplicationTable, Ring, TableEntryError
from .rings import TruncatedPresentation

# pattern strings; the readers import re and compile them on first use, so a
# request that reads no space or map file loads neither
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*$"
_FACTOR = r"([A-Za-z_][A-Za-z0-9_]*(?:\^[0-9]+_[A-Za-z0-9_]*)*)(?:\^([0-9]+))?$"
_ONE, _TWO = r"(\S+)$", r"(\S+)\s+(\S+)$"


def _keyword(usage: str, pattern: str, ring: str | None = None, key: int = 0,
             repeat: str = "duplicate {0} line", kind: str = "syntax") -> tuple:
    """A row of a format's keyword table.  ``usage`` names the arguments and
    ``pattern`` matches them, one group each; a ring line names its ``ring``
    kind.  A line may appear once, or, with ``key`` > 0, once per set of its
    first ``key`` arguments; a repeat raises ``repeat`` (formatted with the
    keyword and the arguments) of ``kind``."""
    return usage, pattern, ring, key, repeat, kind


# the first keyword of a table is its format's header
_SPACE_KEYWORDS = {
    "space": _keyword("NAME", _ONE),
    "dim": _keyword("N", _ONE),
    "connectivity": _keyword("C", _ONE),
    "stably-parallelizable": _keyword("BOOL", _ONE),
    "orientable": _keyword("BOOL", _ONE),
    "known-cat": _keyword('K "CITATION"', r'(\S+)\s+"([^"]*)"$'),
    "generator": _keyword("NAME DEGREE", _TWO, "presentation", 1, "duplicate generator {1!r}",
                          kind="duplicate-generator"),
    "truncate": _keyword("NAME EXPONENT", _TWO, "presentation", 1, "duplicate truncate for {1!r}"),
    "basis": _keyword("LABEL DEGREE", _TWO, "table", 1, "duplicate basis label {1!r}",
                      kind="duplicate-basis"),
    "product": _keyword("LABEL LABEL = EXPR", r"(\S+)\s+(\S+)\s*=\s*(.+)$", "table", 2,
                        "duplicate product {1}*{2}"),
}
_MAP_KEYWORDS = {
    "map": _keyword("NAME", _ONE),
    "domain": _keyword("SPACE", _ONE),
    "range": _keyword("SPACE", _ONE),
    "degree": _keyword("+1|-1", _ONE),
    "send": _keyword("GEN -> EXPR", r"(\S+)\s*->\s*(.+)$", key=1, repeat="duplicate send for {1!r}"),
}


def _read(text: str, keywords: dict):
    """Yield ``(line number, keyword, arguments)`` for each line of a file of
    the format ``keywords`` describes, after the checks every line passes:
    the header comes first, the keyword is known, lines of the two ring
    kinds do not mix, the arguments match and the line is no repeat."""
    import re

    header = next(iter(keywords))
    seen: set[tuple] = set()
    rings: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword = line.split()[0]
        if not seen and keyword != header:
            raise SpaceFileError(f"file must start with a {header} line", lineno)
        if keyword not in keywords:
            raise SpaceFileError(f"unknown keyword {keyword!r}", lineno)
        usage, pattern, ring, key, repeat, kind = keywords[keyword]
        if ring:
            rings.add(ring)
            if len(rings) > 1:
                raise SpaceFileError(
                    "generator/truncate lines cannot be mixed with basis/product lines",
                    lineno,
                    kind="mixed-ring-kinds",
                )
        m = re.match(pattern, line[len(keyword) :].strip())
        if not m:
            raise SpaceFileError(f"usage: {keyword} {usage}", lineno)
        this = (keyword, frozenset(m.groups()[:key]))  # a product's pair in either order
        if this in seen:
            raise SpaceFileError(repeat.format(keyword, *m.groups()), lineno, kind=kind)
        seen.add(this)
        yield lineno, keyword, m.groups()


def _int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise SpaceFileError(f"{what} must be an integer, got {token!r}", lineno) from None


def _bool(token: str, lineno: int) -> bool:
    if token in ("true", "yes", "1"):
        return True
    if token in ("false", "no", "0"):
        return False
    raise SpaceFileError(f"expected true/false, got {token!r}", lineno)


def parse_expression(text: str, lineno: int | None = None) -> list[dict[str, int]]:
    """Parse an EXPR into a list of monomials (identifier -> exponent).

    The empty dict is the unit monomial; ``0`` contributes nothing.
    Duplicate monomials are kept (the caller reduces mod 2).
    """
    import re

    compact = "".join(text.split())
    if not compact:
        raise SpaceFileError("empty expression", lineno, kind="bad-expression")
    monomials: list[dict[str, int]] = []
    for part in compact.split("+"):
        if part == "0":
            continue
        if part == "1":
            monomials.append({})
            continue
        if not part:
            raise SpaceFileError("empty summand in expression", lineno, kind="bad-expression")
        mono: dict[str, int] = {}
        for factor in part.split("*"):
            m = re.match(_FACTOR, factor)
            if not m:
                raise SpaceFileError(
                    f"bad factor {factor!r} in expression", lineno, kind="bad-expression"
                )
            try:
                name, exp = m.group(1), int(m.group(2) or 1)
            except ValueError:  # past the interpreter's limit on integer digits
                raise SpaceFileError(
                    f"exponent of {m.group(1)!r} is too long", lineno, kind="bad-expression"
                ) from None
            mono[name] = mono.get(name, 0) + exp
        monomials.append(mono)
    return monomials


def element_from_monomials(
    ring: Ring, monomials: list[dict[str, int]], lineno: int | None = None
) -> dict[int, int]:
    """Evaluate parsed monomials to a vector of ``ring``'s compiled form,
    as a map's images are: each monomial is the product of its factors' powers.

    An identifier names a presentation's generator, at its position (None
    when it is truncated at 1, so zero), or a table's basis label.
    """
    c = ring.compiled
    position = c.names()
    what, kind = (("generator", "unknown-generator") if isinstance(ring, TruncatedPresentation)
                  else ("basis label", "unknown-label"))
    acc: dict[int, int] = {}  # degree -> bitmask
    for mono in monomials:
        d, x = 0, 1  # the unit
        for name, exp in mono.items():
            if name not in position:
                raise SpaceFileError(f"unknown {what} {name!r}", lineno, kind=kind)
            p = position[name]  # its vector y, of degree e; zero for None
            e = 0 if p is None else c.degrees[p]
            y = 0 if p is None else 1 << p - c.first[e]
            x, d = c.times(x, d, c.power(y, e, exp), e * exp), d + e * exp
        acc[d] = acc.get(d, 0) ^ x
    return {d: x for d, x in acc.items() if x}


def parse_space(text: str) -> SpaceRecord:
    """Parse a space file into a validated record."""
    import re

    values: dict[str, object] = {}  # the single-valued lines' values
    generators: dict[str, int] = {}  # name -> degree
    truncations: dict[str, int] = {}
    basis: list[tuple[str, int]] = []
    products: list[tuple[int, str, str, str]] = []
    for lineno, keyword, args in _read(text, _SPACE_KEYWORDS):
        if keyword in ("dim", "connectivity"):
            value = values[keyword] = _int(args[0], lineno, keyword)
            if value < 0:
                raise SpaceFileError(f"{keyword} must be nonnegative", lineno)
        elif keyword in ("stably-parallelizable", "orientable"):
            values[keyword] = _bool(args[0], lineno)
        elif keyword == "known-cat":
            values[keyword] = (_int(args[0], lineno, "known-cat"), args[1])
        elif keyword == "generator":
            if not re.match(_IDENT, args[0]):
                raise SpaceFileError(f"bad generator name {args[0]!r}", lineno)
            degree = generators[args[0]] = _int(args[1], lineno, "degree")
            if degree < 1:
                raise SpaceFileError("generator degree must be >= 1", lineno, kind="bad-degree")
        elif keyword == "truncate":
            if args[0] not in generators:
                raise SpaceFileError(
                    f"truncate references unknown generator {args[0]!r}",
                    lineno,
                    kind="unknown-generator",
                )
            exponent = truncations[args[0]] = _int(args[1], lineno, "exponent")
            if exponent < 1:
                raise SpaceFileError("exponent must be >= 1", lineno, kind="bad-exponent")
        elif keyword == "basis":
            if args[0] != "1" and not re.match(_IDENT, args[0]):
                raise SpaceFileError(f"bad basis label {args[0]!r}", lineno)
            degree = _int(args[1], lineno, "degree")
            if degree < 0:
                raise SpaceFileError("basis degree must be >= 0", lineno, kind="bad-degree")
            basis.append((args[0], degree))
        elif keyword == "product":
            products.append((lineno, *args))
        else:  # space
            values[keyword] = args[0]

    if "space" not in values:
        raise SpaceFileError("missing space line")
    if "dim" not in values:
        raise SpaceFileError("dim missing", kind="missing-dim")
    dim = values["dim"]

    ring: Ring | None
    if basis or products:
        labels = {l for l, _ in basis}
        table: dict[tuple[str, str], frozenset] = {}
        for lineno, la, lb, rhs in products:
            for l in (la, lb):
                if l not in labels:
                    raise SpaceFileError(
                        f"product references unknown label {l!r}", lineno, kind="unknown-label"
                    )
            terms: set[str] = set()
            for mono in parse_expression(rhs, lineno):
                if len(mono) != 1 or next(iter(mono.values())) != 1:
                    raise SpaceFileError(
                        "table products must be sums of basis labels",
                        lineno,
                        kind="bad-expression",
                    )
                label = next(iter(mono))
                if label not in labels:
                    raise SpaceFileError(
                        f"product references unknown label {label!r}",
                        lineno,
                        kind="unknown-label",
                    )
                terms ^= {label}
            table[(la, lb)] = frozenset(terms)
        try:
            ring = MultiplicationTable(basis, dim, table)
        except TableEntryError as exc:
            lines = {(la, lb): lineno for lineno, la, lb, _ in products}
            raise SpaceFileError(str(exc), lines[exc.entry]) from exc
        except ValueError as exc:
            raise SpaceFileError(str(exc)) from exc
    elif generators or dim == 0:
        for g in generators:
            if g not in truncations:
                raise SpaceFileError(
                    f"generator {g!r} has no truncate line", kind="missing-truncation"
                )
        exponents = tuple(truncations[g] for g in generators)
        reach = sum((p - 1) * d for d, p in zip(generators.values(), exponents))
        if reach > dim:
            raise SpaceFileError(
                f"monomials reach degree {reach} above dim {dim}; "
                "not the cohomology ring of a closed manifold",
                kind="non-manifold",
            )
        try:
            ring = TruncatedPresentation(
                tuple(GeneratorSpec(*g) for g in generators.items()), exponents, dim
            )
        except ValueError as exc:
            raise SpaceFileError(str(exc)) from exc
    else:
        # a positive-dimensional space declared without ring lines carries
        # flags only (a closed manifold never has trivial total cohomology)
        ring = None

    return SpaceRecord(
        name=values["space"],
        dimension=dim,
        connectivity=values.get("connectivity", 0),
        orientable=values.get("orientable", True),
        stably_parallelizable=values.get("stably-parallelizable", False),
        ring=ring,
        known_cat=values.get("known-cat"),
    )


def serialize_space(record: SpaceRecord) -> str:
    """Normalized space-file text; parse(serialize(r)) reproduces r.

    Flags-only records (no ring) serialize without ring lines and parse
    back as flags-only.  Raises ValueError for a known-cat citation the
    format cannot hold (one with '#', '"' or a line break).
    """
    out = [f"space {record.name}", f"dim {record.dimension}"]
    out.append(f"connectivity {record.connectivity}")
    out.append(
        f"stably-parallelizable {'true' if record.stably_parallelizable else 'false'}"
    )
    out.append(f"orientable {'true' if record.orientable else 'false'}")
    if record.known_cat is not None:
        value, citation = record.known_cat
        for c in citation:
            # the format has no escapes: '#' starts a comment, '"' ends the
            # citation, and a line break ends the line
            if c in '#"' or c.splitlines() != [c]:
                raise ValueError(f"known-cat citation cannot contain {c!r}")
        out.append(f'known-cat {value} "{citation}"')
    ring = record.ring
    if isinstance(ring, TruncatedPresentation):
        for g in ring.generators:
            out.append(f"generator {g.name} {g.degree}")
        for g, p in zip(ring.generators, ring.truncations):
            out.append(f"truncate {g.name} {p}")
    elif ring is not None:
        for label, degree in ring.basis:
            out.append(f"basis {label} {degree}")
        c = ring.compiled
        terms = c.lookups()[0]
        for (i, j), mask in sorted(ring._products().items()):
            (la, da), (lb, db) = ring.basis[i], ring.basis[j]
            if da and db:  # the product's labels, in basis order
                start = c.first[da + db]
                rhs = " + ".join(terms[start + b] for b in range(mask.bit_length()) if mask >> b & 1)
                out.append(f"product {la} {lb} = {rhs}")
    return "\n".join(out) + "\n"


class MapFileSpec(Record):
    """Parsed map file, unresolved: space names and raw image expressions."""

    name: str
    domain: str
    range: str
    degree: int
    sends: tuple[tuple[str, str], ...]  # (generator, expression text)


def parse_map(text: str) -> MapFileSpec:
    values: dict[str, object] = {}  # the single-valued lines' values
    sends: list[tuple[str, str]] = []
    for lineno, keyword, args in _read(text, _MAP_KEYWORDS):
        if keyword == "degree":
            if args[0] not in ("1", "+1", "-1"):
                raise SpaceFileError(
                    f"degree must be +1 or -1, got {args[0]!r}", lineno, kind="bad-degree"
                )
            values[keyword] = int(args[0])
        elif keyword == "send":
            parse_expression(args[1], lineno)  # syntax check now
            sends.append((args[0], args[1].strip()))
        else:  # map, domain, range
            values[keyword] = args[0]

    if "map" not in values:
        raise SpaceFileError("missing map line")
    for field_name in ("domain", "range", "degree"):
        if field_name not in values:
            raise SpaceFileError(f"{field_name} missing", kind="missing-field")
    return MapFileSpec(values["map"], values["domain"], values["range"], values["degree"],
                       tuple(sends))


def resolve_map(
    spec: MapFileSpec, domain: SpaceRecord, range_: SpaceRecord
) -> RingHomSpec:
    """Elaborate a parsed map against resolved records.

    The induced homomorphism runs from the range's ring to the domain's
    ring; image expressions are evaluated in the domain's ring.
    """
    if domain.ring is None or range_.ring is None:
        missing = domain.name if domain.ring is None else range_.name
        raise SpaceFileError(
            f"{missing} has no ring data; cannot resolve the induced homomorphism",
            kind="no-ring-data",
        )
    images = {
        gen: element_from_monomials(domain.ring, parse_expression(expr)) for gen, expr in spec.sends
    }
    return RingHomSpec(range_.ring, domain.ring, images, spec.degree)
