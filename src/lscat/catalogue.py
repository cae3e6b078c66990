"""Built-in, citation-annotated records of standard closed manifolds.

Every numerical fact that is not recomputed here (category values in
particular) carries its literature citation as a string, so reports can
print provenance.  Parametric families (special orthogonal groups,
tori, spheres, orientable surfaces) are generated lazily and cached by
name in :func:`get`; products are available on demand through names
such as ``S3xS3``.  A record stores what the space is; its Morse data is
read off the ring when first asked for.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce

from ._record import Record
from .bounds import ENUMERATION_LIMIT, BoundLedger, MorseData, cat_bounds
from .bounds import cup_length_formula, so_n_presentation
from .rings import (
    GeneratorSpec,
    MultiplicationTable,
    Ring,
    TruncatedPresentation,
    expand_to_table,
    tensor_product,
)

SO_KNOWN_CAT = {3: 3, 4: 4, 5: 8, 6: 9, 7: 11, 8: 12, 9: 20}
SO_CAT_CITATION = "Iwase-Mimura-Nishimoto: LS category of SO(n), n <= 9"
G2_CAT_CITATION = "Iwase-Mimura: LS category of exceptional Lie groups"
TORUS_CAT_CITATION = "standard: the k-torus has category k"
SPHERE_CAT_CITATION = "standard: spheres have category 1"
SURFACE_CAT_CITATION = "standard: closed orientable surfaces have category 2 for genus >= 1"

SURFACE_CRIT_STAR_NOTE = (
    "recorded discrepancy: the literature value crit*(S_g) = 2g for g >= 1 "
    "contradicts the Morse bound SB(S_g) = 2g+2 <= crit*; suspected erratum, "
    "the ledger keeps the Betti-sum bound"
)


class UnknownSpaceError(ValueError):
    """Requested catalogue name does not resolve."""


class SpaceFileError(ValueError):
    """Parse or validation failure in a space/map file; a ``SpaceRecord``
    that contradicts itself and a family parameter above the limit raise
    it too.

    ``kind`` is a stable machine-readable class: syntax, missing-dim,
    duplicate-generator, bad-exponent, unknown-generator,
    missing-truncation, mixed-ring-kinds, duplicate-basis,
    unknown-label, bad-expression, bad-degree, inconsistent-known-cat,
    inconsistent-connectivity, inconsistent-stably-parallelizable (a class
    of half the dimension with a nonzero square, which Wu's formula rules
    out on a stably parallelizable manifold), missing-field, no-ring-data,
    non-manifold, unknown-space,
    too-large (a request would enumerate more than ``bounds.ENUMERATION_LIMIT`` terms,
    or print an integer of more digits than Python turns into a string).
    """

    def __init__(self, message: str, line: int | None = None, kind: str = "syntax"):
        self.line = line
        self.kind = kind
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class SpaceRecord(Record):
    """Catalogue entry for one closed manifold.

    ``connectivity`` c means the space is c-connected (0 = merely
    connected), so the ring may have no class in degrees 1..c.
    ``known_cat`` is cited data, never computed; when present it must
    sit between the ring's cup-length and the dimension.  G2 carries no
    ring (flags only).
    """

    name: str
    dimension: int
    connectivity: int
    orientable: bool
    stably_parallelizable: bool
    ring: Ring | None
    torsion_free: bool = False
    known_cat: tuple[int, str] | None = None
    genus: int | None = None
    notes: tuple[str, ...] = ()

    def validate(self) -> None:
        if self.ring is not None and self.ring.top_degree != self.dimension:
            raise ValueError(
                f"{self.name}: ring top degree {self.ring.top_degree} "
                f"!= dimension {self.dimension}"
            )
        c = self.connectivity
        if self.ring is not None and c >= 1:
            # a c-connected space has H^i = 0 for 0 < i <= c; the lowest
            # positive degree of a tensor product is its factors' lowest
            low = min((d for f in self.ring.tensor_factors for d in f.degrees[1:2]), default=c + 1)
            if low <= c:
                raise SpaceFileError(f"connectivity {c} needs H^i = 0 for 0 < i <= {c}, but the "
                                     f"ring has a class in degree {low}",
                                     kind="inconsistent-connectivity")
        if self.known_cat is not None:
            value = self.known_cat[0]
            if not 0 <= value <= self.dimension:
                raise SpaceFileError(f"{self.name}: known cat {value} outside [0, dim]",
                                     kind="inconsistent-known-cat")
            # no search of a factored ring: commands that print a cup-length cross-check it
            cl = 0 if self.ring is None else cup_length_formula(self.ring)
            if cl > value:
                raise SpaceFileError(f"{self.name}: known cat {value} below the cup-length bound",
                                     kind="inconsistent-known-cat")
        n = self.dimension
        if self.stably_parallelizable and n > 0 and self.ring is not None \
                and self.ring.has_middle_square():
            # Wu: x^2 = Sq^k x = v_k x on H^k of a closed 2k-manifold, and v_k = 0 once w = 1
            raise SpaceFileError(f"{self.name}: flagged stably parallelizable, but a class of "
                                 f"degree {n // 2} has a nonzero square, which Wu's formula rules "
                                 f"out (x^2 = v_{n // 2} x = 0) on a stably parallelizable "
                                 f"{n}-manifold", kind="inconsistent-stably-parallelizable")

    @property
    def simply_connected(self) -> bool:
        return self.connectivity >= 1

    @cached_property
    def morse(self) -> MorseData | None:
        """Morse data of a torsion-free space (a point, sphere, torus, surface
        or product of them), read off the ring when first asked for: its
        integral ranks are the ring's mod-2 Betti numbers; None otherwise."""
        if not self.torsion_free or self.ring is None:
            return None
        ranks = tuple(self.ring.poincare_polynomial())
        return MorseData(ranks, (0,) * len(ranks), self.simply_connected or self.dimension == 0,
                         self.dimension)

    def ledger(self) -> BoundLedger | None:
        """Bound ledger for this record; None when no ring data is stored."""
        if self.ring is None:
            return None
        value, citation = self.known_cat if self.known_cat else (None, "")
        return cat_bounds(
            self.ring,
            self.dimension,
            known_cat=value,
            known_cat_citation=citation,
            morse=self.morse,
        )


def surface_table(g: int) -> MultiplicationTable:
    """Cohomology table of the closed orientable genus-g surface.

    Basis: unit; a_1..a_g, b_1..b_g in degree 1; the top class w in
    degree 2, with a_i b_i = w and all other degree-1 products zero.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    basis = [("1", 0)]
    basis += [(f"a{i}", 1) for i in range(1, g + 1)]
    basis += [(f"b{i}", 1) for i in range(1, g + 1)]
    basis += [("w", 2)]
    products = {(f"a{i}", f"b{i}"): frozenset({"w"}) for i in range(1, g + 1)}
    return MultiplicationTable(basis, 2, products)


def _point() -> SpaceRecord:
    return SpaceRecord(
        name="point",
        dimension=0,
        connectivity=0,
        orientable=True,
        stably_parallelizable=True,
        ring=TruncatedPresentation((), (), 0),
        torsion_free=True,
        known_cat=(0, "a point is contractible"),
    )


def _sphere(n: int) -> SpaceRecord:
    if n < 1:
        raise UnknownSpaceError("spheres S n need n >= 1")
    return SpaceRecord(
        name=f"S{n}",
        dimension=n,
        connectivity=n - 1,
        orientable=True,
        stably_parallelizable=True,
        ring=TruncatedPresentation((GeneratorSpec(f"x{n}", n),), (2,), n),
        torsion_free=True,
        known_cat=(1, SPHERE_CAT_CITATION),
    )


def _torus(k: int) -> SpaceRecord:
    if k < 1:
        raise UnknownSpaceError("tori T k need k >= 1")
    gens = tuple(GeneratorSpec(f"t{i}", 1) for i in range(1, k + 1))
    return SpaceRecord(
        name=f"T{k}",
        dimension=k,
        connectivity=0,
        orientable=True,
        stably_parallelizable=True,
        ring=TruncatedPresentation(gens, (2,) * k, k),
        torsion_free=True,
        known_cat=(k, TORUS_CAT_CITATION),
    )


def _special_orthogonal(n: int) -> SpaceRecord:
    if n < 2:
        raise UnknownSpaceError("SO n needs n >= 2")
    known = (SO_KNOWN_CAT[n], SO_CAT_CITATION) if n in SO_KNOWN_CAT else None
    return SpaceRecord(
        name=f"SO{n}",
        dimension=n * (n - 1) // 2,
        connectivity=0,
        orientable=True,
        stably_parallelizable=True,
        ring=so_n_presentation(n),
        known_cat=known,
    )


def _surface(g: int) -> SpaceRecord:
    if g < 0:
        raise UnknownSpaceError("surfaces S_g need g >= 0")
    if g == 0:
        known = (1, "standard: the 2-sphere has category 1")
    elif g == 1:
        known = (2, "category of the 2-torus is 2 (torus family)")
    else:
        known = (2, SURFACE_CAT_CITATION)
    return SpaceRecord(
        name=f"S_{g}",
        dimension=2,
        connectivity=1 if g == 0 else 0,
        orientable=True,
        stably_parallelizable=True,
        ring=surface_table(g),
        torsion_free=True,
        known_cat=known,
        genus=g,
        notes=(SURFACE_CRIT_STAR_NOTE,) if g >= 1 else (),
    )


def _g2() -> SpaceRecord:
    return SpaceRecord(
        name="G2",
        dimension=14,
        connectivity=2,
        orientable=True,
        stably_parallelizable=True,
        ring=None,
        known_cat=(4, G2_CAT_CITATION),
        notes=("cohomology ring not stored; ring-based criteria are not applicable",),
    )


def _atomic(name: str) -> SpaceRecord:
    if name == "point":
        return _point()
    if name == "G2":
        return _g2()
    for prefix, family in (("SO", _special_orthogonal), ("S_", _surface), ("T", _torus),
                           ("S", _sphere)):
        if name.startswith(prefix) and name[len(prefix) :].isdecimal():
            if (n := int(name[len(prefix) :])) > ENUMERATION_LIMIT:  # n terms and more
                raise SpaceFileError(f"{name}: family parameter {n} is above the limit of "
                                     f"{ENUMERATION_LIMIT}", kind="too-large")
            return family(n)
    raise UnknownSpaceError(f"unknown space name {name!r}")


def _product_record(name: str, parts: list[str]) -> SpaceRecord:
    # parts share get's records; one with spaces around it is no name (get would strip it)
    records = [get(p) if p == p.strip() else _atomic(p) for p in parts]
    for rec in records:
        if rec.ring is None:
            raise UnknownSpaceError(f"cannot form product {name!r}: {rec.name} has no ring data")
    rings = [rec.ring for rec in records]
    # a product with a table is one from its first factor on: S2xS3xS_1 lists
    # x3 before x2 and x2_x3, where S2xS3 as one presentation gives x2, x3, x2*x3
    if not all(isinstance(r, TruncatedPresentation) for r in rings):
        rings = [r if isinstance(r, MultiplicationTable) else expand_to_table(r) for r in rings]
    return SpaceRecord(
        name=name,
        dimension=sum(rec.dimension for rec in records),
        connectivity=min(rec.connectivity for rec in records),
        orientable=all(rec.orientable for rec in records),
        stably_parallelizable=all(rec.stably_parallelizable for rec in records),
        ring=reduce(tensor_product, rings),
        torsion_free=all(rec.torsion_free for rec in records),
    )


@lru_cache(maxsize=None)
def get(name: str) -> SpaceRecord:
    """Resolve a catalogue name; products via 'x', e.g. ``S3xS3``.  The one
    record cache: a product's parts are its records."""
    name = name.strip()
    parts = name.split("x")
    if len(parts) > 1 and all(parts):
        return _product_record(name, parts)
    return _atomic(name)


def names() -> list[str]:
    """Representative catalogue names (families accept any parameter)."""
    out = ["point", "G2"]
    out += [f"SO{n}" for n in range(3, 10)]
    out += [f"T{k}" for k in range(1, 9)]
    out += [f"S{n}" for n in range(1, 11)]
    out += [f"S_{g}" for g in range(0, 5)]
    return out
