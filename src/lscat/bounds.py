"""Numerical lower bounds: cup-length, Morse counts, and the bound ledger.

The cup-length is computed two independent ways: a closed formula for
pure-truncation presentations (sum of truncation exponents minus one
each) and a definitional search (largest m with a nonzero m-th power of
the positive-degree ideal), which runs on the compiled form of either
ring representation.  The two are cross-checked whenever
the presentation stays small enough, once per ring.

The ledger chains every bound the toolkit knows:

    cup_length <= e* <= cat <= dim
    cat <= ballcat <= crit - 1
    SB <= crit*

cat itself is never computed; known values enter as cited data.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ._record import Record
from .gf2 import XorBasis
from .rings import (
    GeneratorSpec,
    MultiplicationTable,
    Ring,
    TruncatedPresentation,
)

# presentations of at most this many monomials get the formula/search
# cross-check, larger ones the formula alone; every table is searched.  The
# CLI skips the duality check above it, for monomials and basis elements alike
CROSS_CHECK_LIMIT = 4096


class MorseData(Record):
    """Homology input for Morse counting: ranks and torsion ranks per degree."""

    ranks: tuple[int, ...]
    torsion_ranks: tuple[int, ...]
    simply_connected: bool
    dimension: int

    def __init__(
        self,
        ranks: tuple[int, ...],
        torsion_ranks: tuple[int, ...],
        simply_connected: bool,
        dimension: int,
    ) -> None:
        self.__dict__.update(
            ranks=ranks,
            torsion_ranks=torsion_ranks,
            simply_connected=simply_connected,
            dimension=dimension,
        )
        n = self.dimension
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        if len(self.ranks) != n + 1 or len(self.torsion_ranks) != n + 1:
            raise ValueError(f"rank lists must have length dimension+1 = {n + 1}")
        if any(r < 0 for r in self.ranks) or any(t < 0 for t in self.torsion_ranks):
            raise ValueError("ranks must be nonnegative")


def betti_sum(ranks: Sequence[int]) -> int:
    """Sum of Betti numbers SB; a Morse-theoretic lower bound for crit*."""
    return sum(ranks)


def morse_lower_bound(d: MorseData) -> tuple[int, bool]:
    """Total of the Morse inequalities m_l >= r_l + t_l + t_(l-1).

    Returns (bound, exact).  The bound is attained by some Morse
    function exactly when the manifold is simply connected of dimension
    at least 6 (Smale), which is what the flag reports.
    """
    total = 0
    for lam in range(d.dimension + 1):
        t_prev = d.torsion_ranks[lam - 1] if lam > 0 else 0
        total += d.ranks[lam] + d.torsion_ranks[lam] + t_prev
    exact = d.simply_connected and d.dimension >= 6
    return total, exact


def cup_length_formula(p: TruncatedPresentation) -> int:
    """Cup-length of a pure-truncation presentation: sum of (p_i - 1).

    The product of all top generator powers is the longest nonzero
    product of positive classes, and any longer product overflows some
    truncation.
    """
    return sum(q - 1 for q in p.truncations)


def so_n_presentation(n: int) -> TruncatedPresentation:
    """Mod-2 cohomology of SO(n): generators b_i for odd i < n, truncated
    at the least power of 2 whose power of b_i reaches degree >= n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    gens: list[GeneratorSpec] = []
    truncs: list[int] = []
    for i in range(1, n, 2):
        p = 1
        while i * p < n:
            p *= 2
        if p > 1:
            gens.append(GeneratorSpec(f"b{i}", i))
            truncs.append(p)
    return TruncatedPresentation(tuple(gens), tuple(truncs), n * (n - 1) // 2)


def cup_length_search(t: MultiplicationTable) -> int:
    """Largest m with a nonzero m-th power of the positive-degree ideal I.

    Iterates spans degree by degree: the span of I^(m+1) is generated
    by products of a spanning set of I^m with ideal generators of I.
    Explicit tables use every positive basis element as a generator (the
    definitional choice); factored tables (expansions, tensor products)
    use their factors' generators, which span the same ideals since
    I^m . I = I^m . (generators).  Runs on the table's compiled form.
    """
    c = t.compiled
    return _ideal_power_search(c.dims, c.generator_rows)


def _ideal_power_search(
    dims: Mapping[int, int],
    generator_rows: Sequence[tuple[int, Mapping[int, Sequence[int]]]],
) -> int:
    """The search kernel on integer-indexed rings.

    ``dims[d]`` is the dimension in degree d; vectors of degree d are
    bitmasks over its basis.  ``generator_rows`` lists, per ideal
    generator, its degree and, per source degree, the row bitmasks of
    multiplication by it (missing degrees multiply to zero).

    The span of I^(m+1) in degree e depends only on the spans of I^m in
    the degrees e - deg(g).  Powers of an ideal shrink, so a span whose
    dimension did not move between I^(m-1) and I^m is the same span;
    only degrees fed by a moved one are recomputed.
    """
    spans = {
        d: XorBasis(1 << i for i in range(n)) for d, n in dims.items() if d > 0 and n
    }
    if not spans:
        return 0
    degrees = {dg for dg, _ in generator_rows}
    moved = set(spans) | {0}  # from I^0, the whole ring, to I
    m = 1
    while True:
        targets = {d + dg for d in moved for dg in degrees}
        new_spans = {e: span for e, span in spans.items() if e not in targets}
        for e in targets:
            image = XorBasis()
            for dg, rows_by_degree in generator_rows:
                span, rows = spans.get(e - dg), rows_by_degree.get(e - dg)
                if span is None or rows is None:
                    continue
                for bits in span.vectors():
                    w = 0
                    while bits:
                        low = bits & -bits
                        w ^= rows[low.bit_length() - 1]
                        bits ^= low
                    if w:
                        image.insert(w)
            if len(image):
                new_spans[e] = image
        if not new_spans:
            return m
        moved = {d for d, span in spans.items() if len(new_spans.get(d, ())) != len(span)}
        spans = new_spans
        m += 1


class CupLength(Record):
    """A ring's cup-length with the computations that certify it.

    ``formula`` is the closed formula (presentations only); ``search``
    the ideal-power search (every table, and presentations of at most
    ``CROSS_CHECK_LIMIT`` monomials); ``agree`` compares the two when
    both ran.  ``value`` is the formula when there is one.
    """

    value: int
    formula: int | None
    search: int | None
    agree: bool | None

    def __init__(
        self, value: int, formula: int | None, search: int | None, agree: bool | None
    ) -> None:
        self.__dict__.update(value=value, formula=formula, search=search, agree=agree)

    def to_dict(self) -> dict:
        return {"formula": self.formula, "search": self.search, "agree": self.agree}


# one entry per ring: presentations by value (two parses of one file share
# it), tables by identity (table equality compares every nonzero product);
# a table entry keeps its table alive so that its id is not reused
_PRESENTATION_CUP_LENGTHS: dict[TruncatedPresentation, CupLength] = {}
_TABLE_CUP_LENGTHS: dict[int, tuple[MultiplicationTable, CupLength]] = {}


def cup_length_check(ring: Ring) -> CupLength:
    """Cup-length of a ring by the cross-check policy, computed once per ring.

    Presentations use the closed formula; when the monomial basis is
    small enough the definitional ideal-power search runs on the
    compiled form and must agree.  Tables use the search.
    """
    if isinstance(ring, TruncatedPresentation):
        found = _PRESENTATION_CUP_LENGTHS.get(ring)
        if found is None:
            formula = cup_length_formula(ring)
            search = None
            if ring.total_dimension <= CROSS_CHECK_LIMIT:
                c = ring.compiled
                search = _ideal_power_search(c.dims, c.generator_rows)
            found = CupLength(
                formula, formula, search, None if search is None else search == formula
            )
            _PRESENTATION_CUP_LENGTHS[ring] = found
        return found
    entry = _TABLE_CUP_LENGTHS.get(id(ring))
    if entry is None:
        searched = cup_length_search(ring)
        entry = _TABLE_CUP_LENGTHS[id(ring)] = (ring, CupLength(searched, None, searched, None))
    return entry[1]


def cup_length(ring: Ring) -> int:
    """Cup-length of a ring; a formula/search mismatch is an internal
    consistency failure, not user error."""
    check = cup_length_check(ring)
    if check.agree is False:
        raise RuntimeError(
            f"cup-length cross-check failed: formula {check.formula}, search {check.search}"
        )
    return check.value


class LedgerError(ValueError):
    """A bound ledger violates the chain of inequalities."""


class Interval(Record):
    """Closed interval [lower, upper] with provenance per endpoint.

    ``upper is None`` means unbounded above.
    """

    lower: int
    upper: int | None
    lower_provenance: str
    upper_provenance: str

    def __init__(
        self,
        lower: int,
        upper: int | None,
        lower_provenance: str = "",
        upper_provenance: str = "",
    ) -> None:
        self.__dict__.update(
            lower=lower,
            upper=upper,
            lower_provenance=lower_provenance,
            upper_provenance=upper_provenance,
        )

    def check(self, name: str) -> None:
        if self.lower < 0:
            raise LedgerError(f"{name}: lower bound {self.lower} negative")
        if self.upper is not None and self.lower > self.upper:
            raise LedgerError(f"{name}: lower {self.lower} exceeds upper {self.upper}")

    def is_exact(self) -> bool:
        return self.upper is not None and self.lower == self.upper

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "lower_provenance": self.lower_provenance,
            "upper_provenance": self.upper_provenance,
        }

    def __str__(self) -> str:
        if self.is_exact():
            return f"= {self.lower}"
        hi = "inf" if self.upper is None else str(self.upper)
        return f"in [{self.lower}, {hi}]"


class BoundLedger(Record):
    """Interval bounds for cat, e*, ballcat, crit and crit* of one space."""

    dimension: int
    cup_length: int
    cat: Interval
    toomer_e: Interval
    ballcat: Interval
    crit: Interval
    crit_star: Interval
    betti_total: int | None

    def __init__(
        self,
        dimension: int,
        cup_length: int,
        cat: Interval,
        toomer_e: Interval,
        ballcat: Interval,
        crit: Interval,
        crit_star: Interval,
        betti_total: int | None = None,
    ) -> None:
        self.__dict__.update(
            dimension=dimension,
            cup_length=cup_length,
            cat=cat,
            toomer_e=toomer_e,
            ballcat=ballcat,
            crit=crit,
            crit_star=crit_star,
            betti_total=betti_total,
        )
        self.validate()

    def validate(self) -> None:
        for name in ("cat", "toomer_e", "ballcat", "crit", "crit_star"):
            getattr(self, name).check(name)
        if not (self.cat.lower >= self.toomer_e.lower >= self.cup_length):
            raise LedgerError(
                f"chain cl <= e*.lower <= cat.lower broken: "
                f"cl={self.cup_length}, e*={self.toomer_e.lower}, cat={self.cat.lower}"
            )
        if self.cat.upper is None or self.cat.upper > self.dimension:
            raise LedgerError(f"cat upper bound must be <= dimension {self.dimension}")
        if self.ballcat.lower < self.cat.lower:
            raise LedgerError("ballcat.lower must be >= cat.lower")
        if self.crit.lower < self.ballcat.lower + 1:
            raise LedgerError("crit.lower must be >= ballcat.lower + 1")
        if self.betti_total is not None and self.crit_star.lower < self.betti_total:
            raise LedgerError("crit_star.lower must cover the Betti sum")
        if self.crit_star.lower < self.crit.lower:
            raise LedgerError("crit_star.lower must be >= crit.lower")

    def tighten_cat_lower(self, value: int, provenance: str) -> "BoundLedger":
        """Raise cat's lower bound (monotone; never lowers) and re-chain."""
        if value <= self.cat.lower:
            return self
        if self.cat.upper is not None and value > self.cat.upper:
            raise LedgerError(
                f"cannot raise cat lower bound to {value}: upper bound is {self.cat.upper}"
            )
        cat = Interval(value, self.cat.upper, provenance, self.cat.upper_provenance)
        ballcat = self.ballcat
        if ballcat.lower < value:
            ballcat = Interval(
                value, ballcat.upper, f"{provenance} (cat <= ballcat)", ballcat.upper_provenance
            )
        crit = self.crit
        if crit.lower < ballcat.lower + 1:
            crit = Interval(ballcat.lower + 1, crit.upper, "ballcat + 1", crit.upper_provenance)
        crit_star = self.crit_star
        if crit_star.lower < crit.lower:
            crit_star = Interval(
                crit.lower, crit_star.upper, "at least crit", crit_star.upper_provenance
            )
        return BoundLedger(
            self.dimension,
            self.cup_length,
            cat,
            self.toomer_e,
            ballcat,
            crit,
            crit_star,
            self.betti_total,
        )

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "cup_length": self.cup_length,
            "betti_total": self.betti_total,
            "cat": self.cat.to_dict(),
            "toomer_e": self.toomer_e.to_dict(),
            "ballcat": self.ballcat.to_dict(),
            "crit": self.crit.to_dict(),
            "crit_star": self.crit_star.to_dict(),
        }


def cat_bounds(
    ring: Ring,
    dimension: int,
    known_cat: int | None = None,
    known_cat_citation: str = "",
    morse: MorseData | None = None,
) -> BoundLedger:
    """Assemble the bound ledger for one space.

    cat lands in [cup-length, dimension] unless a known value (cited
    data, never computed) collapses it.  e* is squeezed between the
    cup-length and cat's upper bound; it is never computed directly.
    """
    cl = cup_length(ring)
    if known_cat is not None and not cl <= known_cat <= dimension:
        raise LedgerError(
            f"known cat {known_cat} outside [cup-length, dimension] = [{cl}, {dimension}]"
        )
    if known_cat is not None:
        cite = known_cat_citation or "known value"
        cat = Interval(known_cat, known_cat, cite, cite)
    else:
        cat = Interval(cl, dimension, "cup-length bound", "dimension bound")
    toomer = Interval(
        cl,
        cat.upper,
        "cup-length bound (cl <= e*)",
        "squeezed under cat (e* <= cat)",
    )
    ballcat = Interval(cat.lower, dimension, "at least cat", "dimension bound")
    crit = Interval(ballcat.lower + 1, None, "ballcat + 1", "")
    sb = betti_sum(morse.ranks) if morse is not None else None
    if sb is not None and sb > crit.lower:
        crit_star = Interval(sb, None, "Betti sum (Morse theory)", "")
    else:
        crit_star = Interval(crit.lower, None, "at least crit", "")
    return BoundLedger(
        dimension=dimension,
        cup_length=cl,
        cat=cat,
        toomer_e=toomer,
        ballcat=ballcat,
        crit=crit,
        crit_star=crit_star,
        betti_total=sb,
    )
