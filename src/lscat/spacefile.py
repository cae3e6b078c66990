"""Line-oriented file formats for spaces and maps.

Space files (UTF-8, ``#`` starts a comment, tokens whitespace-separated)::

    space NAME
    dim N
    connectivity C                  # optional, default 0
    stably-parallelizable BOOL      # optional, default false
    orientable BOOL                 # optional, default true
    known-cat K "CITATION"          # optional
    generator NAME DEGREE           # repeatable; truncated presentation
    truncate NAME EXPONENT          # required once per generator
    # or, mutually exclusive with generator/truncate:
    basis LABEL DEGREE              # repeatable; unit = unique degree-0 label
    product LABEL LABEL = EXPR      # omitted products default to 0

Map files::

    map NAME
    domain SPACE                    # M, the source manifold of f
    range SPACE                     # N, the target manifold of f
    degree +1 | -1
    send GEN -> EXPR                # images of N's generators in M's ring

Expressions are sums of monomials separated by ``+``; a monomial is
``0``, ``1``, or factors ``ID`` / ``ID^INT`` joined by ``*``, where ``ID``
may hold ``^INT_`` as product labels do (``b1^2_a1``); whitespace is
insignificant within a line.  Parsing a serialized record is the
identity on normalized files.
"""

from __future__ import annotations

from ._record import Record
from .catalogue import SpaceRecord, _connectivity_problem
from .homs import RingHomSpec
from .rings import Element, GeneratorSpec, MultiplicationTable, Ring, TruncatedPresentation

# pattern strings; the three parse functions import re and compile them
# on first use, so a request that reads no space or map file loads neither
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*$"
_FACTOR = r"([A-Za-z_][A-Za-z0-9_]*(?:\^[0-9]+_[A-Za-z0-9_]*)*)(?:\^([0-9]+))?$"


class SpaceFileError(ValueError):
    """Parse or validation failure in a space/map file.

    ``kind`` is a stable machine-readable class: syntax, missing-dim,
    duplicate-generator, bad-exponent, unknown-generator,
    missing-truncation, mixed-ring-kinds, duplicate-basis,
    unknown-label, bad-expression, bad-degree, inconsistent-known-cat,
    inconsistent-connectivity, missing-field, no-ring-data, non-manifold, unknown-space,
    too-large (a request would enumerate more than ``bounds.ENUMERATION_LIMIT`` terms).
    """

    def __init__(self, message: str, line: int | None = None, kind: str = "syntax"):
        self.line = line
        self.kind = kind
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


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
) -> Element:
    """Evaluate parsed monomials to an element of ``ring``, on its compiled
    form.

    Presentations map identifiers to generators, and a monomial off
    normal form is 0; tables treat each identifier as a basis label
    (``1`` is the unit) and evaluate products and powers through the
    table.
    """
    c = ring.compiled
    position = c.lookups()[1]
    acc: dict[int, int] = {}  # degree -> bitmask
    for mono in monomials:
        d, x = 0, 1  # the unit
        if isinstance(ring, TruncatedPresentation):
            exps = [0] * ring.ngens
            for name, exp in mono.items():
                idx = ring.generator_index.get(name)
                if idx is None:
                    raise SpaceFileError(
                        f"unknown generator {name!r}", lineno, kind="unknown-generator"
                    )
                exps[idx] += exp
            p = position.get(tuple(exps))  # None off normal form
            if p is None:
                continue
            d, x = c.degrees[p], 1 << p - c.first[c.degrees[p]]
        else:
            for name, exp in mono.items():
                p = position.get(ring.unit_label if name == "1" else name)
                if p is None:
                    raise SpaceFileError(
                        f"unknown basis label {name!r}", lineno, kind="unknown-label"
                    )
                e = c.degrees[p]
                x, d = c.times(x, d, c.power(1 << p - c.first[e], e, exp), e * exp), d + e * exp
        if x:
            acc[d] = acc.get(d, 0) ^ x
    return c.element(acc)


_KNOWN_CAT = r'(\S+)\s+"([^"]*)"$'


def parse_space(text: str) -> SpaceRecord:
    """Parse a space file into a validated record."""
    import re

    name: str | None = None
    dim: int | None = None
    connectivity = 0
    stably_parallelizable = False
    orientable = True
    known_cat: tuple[int, str] | None = None
    generators: list[GeneratorSpec] = []
    truncations: dict[str, tuple[int, int]] = {}  # name -> (exponent, line)
    basis: list[tuple[str, int]] = []
    product_lines: list[tuple[int, str, str, str]] = []
    kind: str | None = None  # "presentation" | "table"

    def want_kind(k: str, lineno: int) -> None:
        nonlocal kind
        if kind is None:
            kind = k
        elif kind != k:
            raise SpaceFileError(
                "generator/truncate lines cannot be mixed with basis/product lines",
                lineno,
                kind="mixed-ring-kinds",
            )

    for lineno, line in _lines(text):
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "space":
            if len(tokens) != 2:
                raise SpaceFileError("usage: space NAME", lineno)
            if name is not None:
                raise SpaceFileError("duplicate space line", lineno)
            name = tokens[1]
        elif name is None:
            raise SpaceFileError("file must start with a space line", lineno)
        elif keyword == "dim":
            if len(tokens) != 2:
                raise SpaceFileError("usage: dim N", lineno)
            dim = _int(tokens[1], lineno, "dim")
            if dim < 0:
                raise SpaceFileError("dim must be nonnegative", lineno)
        elif keyword == "connectivity":
            if len(tokens) != 2:
                raise SpaceFileError("usage: connectivity C", lineno)
            connectivity = _int(tokens[1], lineno, "connectivity")
            if connectivity < 0:
                raise SpaceFileError("connectivity must be nonnegative", lineno)
        elif keyword == "stably-parallelizable":
            if len(tokens) != 2:
                raise SpaceFileError("usage: stably-parallelizable BOOL", lineno)
            stably_parallelizable = _bool(tokens[1], lineno)
        elif keyword == "orientable":
            if len(tokens) != 2:
                raise SpaceFileError("usage: orientable BOOL", lineno)
            orientable = _bool(tokens[1], lineno)
        elif keyword == "known-cat":
            m = re.match(_KNOWN_CAT, line[len("known-cat") :].strip())
            if not m:
                raise SpaceFileError('usage: known-cat K "CITATION"', lineno)
            known_cat = (_int(m.group(1), lineno, "known-cat"), m.group(2))
        elif keyword == "generator":
            want_kind("presentation", lineno)
            if len(tokens) != 3:
                raise SpaceFileError("usage: generator NAME DEGREE", lineno)
            gname = tokens[1]
            if not re.match(_IDENT, gname):
                raise SpaceFileError(f"bad generator name {gname!r}", lineno)
            if any(g.name == gname for g in generators):
                raise SpaceFileError(
                    f"duplicate generator {gname!r}", lineno, kind="duplicate-generator"
                )
            degree = _int(tokens[2], lineno, "degree")
            if degree < 1:
                raise SpaceFileError("generator degree must be >= 1", lineno, kind="bad-degree")
            generators.append(GeneratorSpec(gname, degree))
        elif keyword == "truncate":
            want_kind("presentation", lineno)
            if len(tokens) != 3:
                raise SpaceFileError("usage: truncate NAME EXPONENT", lineno)
            gname = tokens[1]
            if not any(g.name == gname for g in generators):
                raise SpaceFileError(
                    f"truncate references unknown generator {gname!r}",
                    lineno,
                    kind="unknown-generator",
                )
            if gname in truncations:
                raise SpaceFileError(f"duplicate truncate for {gname!r}", lineno)
            exponent = _int(tokens[2], lineno, "exponent")
            if exponent < 1:
                raise SpaceFileError("exponent must be >= 1", lineno, kind="bad-exponent")
            truncations[gname] = (exponent, lineno)
        elif keyword == "basis":
            want_kind("table", lineno)
            if len(tokens) != 3:
                raise SpaceFileError("usage: basis LABEL DEGREE", lineno)
            label = tokens[1]
            if label != "1" and not re.match(_IDENT, label):
                raise SpaceFileError(f"bad basis label {label!r}", lineno)
            if any(l == label for l, _ in basis):
                raise SpaceFileError(
                    f"duplicate basis label {label!r}", lineno, kind="duplicate-basis"
                )
            degree = _int(tokens[2], lineno, "degree")
            if degree < 0:
                raise SpaceFileError("basis degree must be >= 0", lineno, kind="bad-degree")
            basis.append((label, degree))
        elif keyword == "product":
            want_kind("table", lineno)
            m = re.match(r"product\s+(\S+)\s+(\S+)\s*=\s*(.+)$", line)
            if not m:
                raise SpaceFileError("usage: product LABEL LABEL = EXPR", lineno)
            product_lines.append((lineno, m.group(1), m.group(2), m.group(3)))
        else:
            raise SpaceFileError(f"unknown keyword {keyword!r}", lineno)

    if name is None:
        raise SpaceFileError("missing space line")
    if dim is None:
        raise SpaceFileError("dim missing", kind="missing-dim")

    ring: Ring | None
    if kind == "table":
        labels = {l for l, _ in basis}
        products: dict[tuple[str, str], frozenset] = {}
        for lineno, la, lb, rhs in product_lines:
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
            products[(la, lb)] = frozenset(terms)
        try:
            ring = MultiplicationTable(basis, dim, products)
        except ValueError as exc:
            raise SpaceFileError(str(exc)) from exc
    elif generators or dim == 0:
        for g in generators:
            if g.name not in truncations:
                raise SpaceFileError(
                    f"generator {g.name!r} has no truncate line", kind="missing-truncation"
                )
        exponents = tuple(truncations[g.name][0] for g in generators)
        reach = sum((p - 1) * g.degree for g, p in zip(generators, exponents))
        if reach > dim:
            raise SpaceFileError(
                f"monomials reach degree {reach} above dim {dim}; "
                "not the cohomology ring of a closed manifold",
                kind="non-manifold",
            )
        try:
            ring = TruncatedPresentation(tuple(generators), exponents, dim)
        except ValueError as exc:
            raise SpaceFileError(str(exc)) from exc
    else:
        # a positive-dimensional space declared without ring lines carries
        # flags only (a closed manifold never has trivial total cohomology)
        ring = None

    problem = _connectivity_problem(ring, connectivity)
    if problem is not None:
        raise SpaceFileError(problem, kind="inconsistent-connectivity")
    try:
        return SpaceRecord(
            name=name,
            dimension=dim,
            connectivity=connectivity,
            orientable=orientable,
            stably_parallelizable=stably_parallelizable,
            ring=ring,
            known_cat=known_cat,
        )
    except ValueError as exc:
        raise SpaceFileError(str(exc), kind="inconsistent-known-cat") from exc


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
    import re

    name: str | None = None
    domain: str | None = None
    range_: str | None = None
    degree: int | None = None
    sends: list[tuple[str, str]] = []
    seen: set[str] = set()

    for lineno, line in _lines(text):
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "map":
            if len(tokens) != 2:
                raise SpaceFileError("usage: map NAME", lineno)
            if name is not None:
                raise SpaceFileError("duplicate map line", lineno)
            name = tokens[1]
        elif name is None:
            raise SpaceFileError("file must start with a map line", lineno)
        elif keyword == "domain":
            if len(tokens) != 2:
                raise SpaceFileError("usage: domain SPACE", lineno)
            domain = tokens[1]
        elif keyword == "range":
            if len(tokens) != 2:
                raise SpaceFileError("usage: range SPACE", lineno)
            range_ = tokens[1]
        elif keyword == "degree":
            if len(tokens) != 2:
                raise SpaceFileError("usage: degree +1|-1", lineno)
            token = tokens[1]
            if token in ("1", "+1"):
                degree = 1
            elif token == "-1":
                degree = -1
            else:
                raise SpaceFileError(
                    f"degree must be +1 or -1, got {token!r}", lineno, kind="bad-degree"
                )
        elif keyword == "send":
            m = re.match(r"send\s+(\S+)\s*->\s*(.+)$", line)
            if not m:
                raise SpaceFileError("usage: send GEN -> EXPR", lineno)
            gen = m.group(1)
            if gen in seen:
                raise SpaceFileError(f"duplicate send for {gen!r}", lineno)
            seen.add(gen)
            parse_expression(m.group(2), lineno)  # syntax check now
            sends.append((gen, m.group(2).strip()))
        else:
            raise SpaceFileError(f"unknown keyword {keyword!r}", lineno)

    if name is None:
        raise SpaceFileError("missing map line")
    for field_name, value in (("domain", domain), ("range", range_), ("degree", degree)):
        if value is None:
            raise SpaceFileError(f"{field_name} missing", kind="missing-field")
    return MapFileSpec(name, domain, range_, degree, tuple(sends))


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
