"""Numerical lower bounds: cup-length, Morse counts, and the bound ledger.

Every ring but an explicit table is a tensor product of factors, whose
cup-lengths add and which has Poincare duality iff each factor does
(Kunneth): that is the formula.  The definitional search (largest m with
a nonzero m-th power of the positive-degree ideal) and the pairing rank
cross-check it within ``CROSS_CHECK_LIMIT``; an explicit table has those alone.
One rule (``_by_rule``) applies this to every invariant, and each ring keeps
its own in ``ring.invariants``, each computed once, when first read.

The ledger chains every bound the toolkit knows:

    cup_length <= e* <= cat <= dim
    cat <= ballcat <= crit - 1
    SB <= crit*

cat itself is never computed; known values enter as cited data.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import reduce
from operator import xor

from ._record import Record
from .rings import GeneratorSpec, MultiplicationTable, Ring, TruncatedPresentation
from .rings import _bits, _Monogenic, check_poincare_duality

# rings of at most this many basis elements get the formulas' cross-checks; an
# explicit table, which has no formula, is searched and ranked whatever its size
CROSS_CHECK_LIMIT = 4096

# the most terms a command may enumerate: the Poincare polynomial's 0..top_degree (a
# million took about 0.5 s and 93 MB on a 2-vCPU machine, ten million 4.5 s and 800 MB)
# and the basis elements of a map's spaces
ENUMERATION_LIMIT = 1_000_000


def morse_lower_bound(record) -> tuple[int, bool]:
    """The Betti sum SB of a ``catalogue.SpaceRecord`` with Morse data, the
    total of its ``morse``: every Morse function has at least SB critical points.

    Returns (bound, exact).  The bound is attained by some Morse
    function exactly when the manifold is simply connected of dimension
    at least 6 (Smale), which is what the flag reports.
    """
    return sum(record.morse), record.simply_connected and record.dimension >= 6


def cup_length_formula(ring: Ring) -> int:
    """Cup-length of a ring, the sum over its tensor factors: q - 1 for
    k[x]/(x^q), an explicit table's own (searched) for its factor; an
    explicit table is its own single factor.  No cross-check runs."""
    return sum(f.truncation - 1 if isinstance(f, _Monogenic) else cup_length_check(f.ring).value
               for f in ring.tensor_factors)


def _duality_of_factors(ring: Ring) -> bool:
    """Duality of a factored ring: its factors' top degrees sum to its own and
    each factor has it (its pairing is their Kronecker product; k[x]/(x^q) has it)."""
    return sum(f.top for f in ring.factors) == ring.top_degree and all(
        poincare_duality(f.ring) for f in ring.factors if not isinstance(f, _Monogenic))


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
    """Largest m with a nonzero m-th power of the positive-degree ideal I,
    in one pass over the degrees of the table's compiled form.

    Explicit tables use every positive basis element as a generator of I
    (the definitional choice); factored tables (expansions, tensor
    products) use their factors' generators, which generate the same ideal.
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

    One pass over the positive degrees, in increasing order, gives each
    a basis adapted to I > I^2 > ...: ``{level: vectors}``, whose
    vectors of level >= m span I^m; the highest level is the cup-length.
    """
    adapted: dict[int, dict[int, list[int]]] = {}
    for e in sorted(d for d, n in dims.items() if d > 0 and n):
        sources = [(adapted[e - dg], rows[e - dg]) for dg, rows in generator_rows
                   if e - dg in adapted and e - dg in rows]
        adapted[e] = _adapted_basis(dims[e], sources)
    return max((max(levels) for levels in adapted.values()), default=0)


def _adapted_basis(n: int, sources: list[tuple[dict[int, list[int]], Sequence[int]]]) -> dict:
    """Degree e's adapted basis, of dimension n, from each generator g's
    adapted basis and rows in degree e - deg(g).

    I^(m+1)_e is the sum of g I^m_(e - deg g), since I^m is an ideal and
    the ring commutative: products go into one basis, highest level
    first, a kept product of a level-l vector gets level l + 1, and the
    degree stops once full.  Unit vectors complete it at level 1, one at
    each bit that leads no pivot.

    The elimination is ``XorBasis.insert`` written out, since most
    products reduce to zero and a call per product would cost more than
    their reduction.
    """
    pivots, levels = {}, {}
    for level in range(max((max(source) for source, _ in sources), default=0), 0, -1):
        for source, rows in sources:
            for bits in source.get(level, ()):
                # a single-bit vector, as every vector of a monomial basis, is one row
                product = w = (rows[bits.bit_length() - 1] if bits & (bits - 1) == 0
                               else reduce(xor, map(rows.__getitem__, _bits(bits))))
                while w:
                    lead = w.bit_length() - 1
                    p = pivots.get(lead)
                    if p is None:
                        pivots[lead] = w
                        levels.setdefault(level + 1, []).append(product)
                        if len(pivots) == n:
                            return levels
                        break
                    w ^= p
    levels[1] = [1 << i for i in range(n) if i not in pivots]
    return levels


class CupLength(Record):
    """A ring's cup-length with the computations that certify it.

    ``formula`` is the sum over the factors (factored rings only);
    ``search`` the ideal-power search (explicit tables, and rings of at
    most ``CROSS_CHECK_LIMIT`` basis elements); ``agree`` compares the two
    when both ran.  ``value`` is the formula when there is one.
    """

    value: int
    formula: int | None
    search: int | None
    agree: bool | None

    def to_dict(self) -> dict:  # value repeats the formula or the search
        return {"formula": self.formula, "search": self.search, "agree": self.agree}


def _cross_checked(ring: Ring) -> bool:
    """Whether the ring's basis, counted from its factors, is within the limit."""
    return ring.basis_count <= CROSS_CHECK_LIMIT


def _by_rule(ring: Ring, name: str, formula, computation, settle):
    """The ring's invariant ``name`` by the cross-check rule, computed when
    first read and kept in ``ring.invariants``: a factored ring's ``formula(ring)``,
    read off its factors, which within ``CROSS_CHECK_LIMIT`` ``computation(ring)``
    on its compiled form cross-checks, or an explicit table's computation,
    whatever its size.  Kept and returned is ``settle(value, formula,
    computation, agree)``, with None for what did not run."""
    memo = ring.invariants
    if name not in memo:
        f = None if ring.factors is None else formula(ring)
        c = computation(ring) if f is None or _cross_checked(ring) else None
        memo[name] = settle(c if f is None else f, f, c, None if f is None or c is None else f == c)
    return memo[name]


def _search(ring: Ring) -> int:
    # an explicit table through cup_length_search, which takes tables only
    if ring.factors is None:
        return cup_length_search(ring)
    c = ring.compiled
    return _ideal_power_search(c.dims, c.generator_rows)


def cup_length_check(ring: Ring) -> CupLength:
    """Cup-length of a ring by the cross-check rule: the sum over a factored
    ring's factors, which within the limit the ideal-power search must match,
    or an explicit table's search."""
    return _by_rule(ring, "cup_length", cup_length_formula, _search, CupLength)


def cup_length(ring: Ring) -> int:
    """Cup-length of a ring; a formula/search mismatch is an internal
    consistency failure, not user error."""
    check = cup_length_check(ring)
    if check.agree is False:
        raise RuntimeError(
            f"cup-length cross-check failed: formula {check.formula}, search {check.search}"
        )
    return check.value


def poincare_duality(ring: Ring) -> bool:
    """Mod-2 Poincare duality in the ring's top degree by the cross-check
    rule: a factored ring's verdict from its factors, which within the limit
    :func:`check_poincare_duality` must match, or an explicit table's."""
    value, formula, pairing, agree = _by_rule(ring, "duality", _duality_of_factors,
                                              check_poincare_duality, lambda *got: got)
    if agree is False:
        raise RuntimeError(f"duality cross-check failed: factors {formula}, pairing {pairing}")
    return value


class LedgerError(ValueError):
    """A bound ledger violates the chain of inequalities."""


class Interval(Record):
    """Closed interval [lower, upper] with provenance per endpoint.

    ``upper is None`` means unbounded above.
    """

    lower: int
    upper: int | None
    lower_provenance: str = ""
    upper_provenance: str = ""

    def check(self, name: str) -> None:
        if self.lower < 0:
            raise LedgerError(f"{name}: lower bound {self.lower} negative")
        if self.upper is not None and self.lower > self.upper:
            raise LedgerError(f"{name}: lower {self.lower} exceeds upper {self.upper}")

    def is_exact(self) -> bool:
        return self.upper is not None and self.lower == self.upper

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
    betti_total: int | None = None

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


def cat_bounds(
    ring: Ring,
    dimension: int,
    known_cat: int | None = None,
    known_cat_citation: str = "",
    betti: Sequence[int] | None = None,
) -> BoundLedger:
    """Assemble the bound ledger for one space.

    cat lands in [cup-length, dimension] unless a known value (cited
    data, never computed) collapses it.  e* is squeezed between the
    cup-length and cat's upper bound; it is never computed directly.
    Betti numbers, when given, bound crit* below by their sum.
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
    sb = None if betti is None else sum(betti)
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
