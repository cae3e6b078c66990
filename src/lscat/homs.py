"""Induced homomorphisms of degree-one maps and the certification criteria.

Direction convention, fixed everywhere: a map record describes
``f: M -> N`` (M the domain manifold, N the range) and carries the
induced ring homomorphism the other way, ``f*: H*(N) -> H*(M)``.  The
degree of f is asserted metadata; the toolkit verifies only its
necessary mod-2 consequences (per-degree injectivity, top class onto
top class) and never claims a map exists.

A verdict's status is "violated" only when a necessary condition for
the existence of a degree +-1 map provably fails; "certified" on the
category-transferring criteria means cat(domain) >= cat(range) holds.

The criteria are one table, :data:`CRITERIA`, in report order; each row
says what its criterion needs: low_dim (the dimension and genera),
prop_cl_monotone (both rings), cor_cat_transfer (the range's ring, and
the domain's ring or cited cat: G2 -> T14 is violated, as cat(G2) = 4 <
14), thm_main (both flags and a cat of the range), morse_transfer (both
spaces' Morse data), thm_torus (both flags), lemma_injectivity (a map).
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Mapping

from ._record import Record
from .bounds import BoundLedger, cup_length, morse_lower_bound
from .catalogue import SpaceRecord
from .gf2 import rank
from .rings import Ring, TruncatedPresentation

CERTIFIED = "certified"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"
NOT_APPLICABLE = "not_applicable"

OPEN_QUESTION_NOTE = (
    "ballcat/crit monotonicity under degree-one maps: open question - no criterion"
)


class HomValidationError(ValueError):
    """The given generator images do not define a graded ring homomorphism."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(problems))


class DimensionMismatch(ValueError):
    """Domain and range dimensions differ; the comparison requires equality."""


class CriterionVerdict(Record):
    criterion_id: str
    status: str
    reason: str
    citations: tuple[str, ...] = ()


class RingHomSpec(Record):
    """A graded ring homomorphism given by images of source generators.

    ``source`` is H*(N) (cohomology of the map's range), ``target`` is
    H*(M).  For presentation sources the images are keyed by generator
    name; for table sources every non-unit basis label needs an image.
    An image is a vector of the target's compiled form, ``{degree: bitmask}``
    with no zero entries (``{}`` is zero, ``{0: 1}`` the unit).
    """

    source: Ring
    target: Ring
    images: Mapping[str, Mapping[int, int]]
    asserted_degree: int = 1

    def validate(self) -> None:
        if self.asserted_degree not in (1, -1):
            raise ValueError("asserted degree must be +1 or -1")


class ValidatedHom(Record):
    """A RingHomSpec that :func:`validate_hom` accepted, and its matrices:
    ``matrices[d]``, for d up to the source's top degree, is the induced map
    H^d(N) -> H^d(M) in the rings' deterministic bases, as a tuple of image
    bitmasks; entry j is the image of the j-th source basis element of
    degree d, with bit i set when the i-th target one occurs in it."""

    spec: RingHomSpec
    matrices: tuple[tuple[int, ...], ...]


def validate_hom(spec: RingHomSpec) -> ValidatedHom:
    """Check that the images define a graded ring homomorphism.

    The image vectors are checked (known keys, an image per generator, a
    vector of the target ring, homogeneous of its degree, unit -> unit, a
    presentation's relations by square-and-multiply).  Then one loop over
    the source's tensor factors
    (an explicit table is its own) checks (a) F(x)F(y) = F(xy) on each
    factor's positive basis pairs with x given and (b) each basis tensor's
    image as its rest's times its last factor part's: with a commutative
    target, F is then a homomorphism.
    An image not given (a presentation's monomial) is that product, a
    given one is compared with it.  Returns the per-degree matrices;
    raises :class:`HomValidationError` listing every problem of the read
    stage, or else every failing pair of (a) and (b)."""
    source, src, basis = spec.source, spec.source.compiled, spec.target.compiled
    known = src.names()
    # presentations take images of their generators, at x in their factor (None
    # if x = 0); tables of every basis element but the unit, which must map to 1
    if isinstance(source, TruncatedPresentation):
        generators = [(g.name, g.degree, known[g.name], q)
                      for g, q in zip(source.generators, source.truncations)]
        problems = [f"unknown generator {key!r}" for key in spec.images if key not in known]
        noun = "generator"
    else:
        generators = [(l, d, known[l], None) for l, d in source.basis if l != source.unit_label]
        problems = [f"unknown basis label {key!r}" for key in spec.images if key not in known]
        if spec.images.get(source.unit_label, {0: 1}) != {0: 1}:
            problems.append("unit must map to unit")
        noun = "basis element"
    images = {0: 1}  # per source position
    for name, degree, p, q in generators:
        v = spec.images.get(name)
        (deg, x), *rest = (v or {degree: 0}).items()
        images[p] = x
        if v is None:
            problems.append(f"no image given for {noun} {name!r}")
        elif outside := sorted(d for d, y in v.items() if y < 0 or y >> basis.dims.get(d, 0)):
            # a degree the target lacks, or a bit at or past its dimension there
            problems.append(f"image of {name!r}: outside the target ring in degrees {outside}")
        elif rest:
            problems.append(f"image of {name!r}: element is not homogeneous: degrees {sorted(v)}")
        elif deg != degree:
            problems.append(f"degree mismatch: {name!r} has degree {degree}, "
                            f"its image has degree {deg}")
        elif q and basis.power(x, degree, q):
            problems.append(f"relation {name}^{q} = 0 is not preserved: image power is nonzero")
    if problems:
        raise HomValidationError(problems)

    degrees, at, order, n = src.degrees, src._at, src._order, len(src.degrees)
    failed, given = [], set(images)  # failing position pairs; given images
    for f, s in zip(source.tensor_factors, src.strides):
        size = len(f.degrees)
        # (a) the factor's pairs with a given first image (the rest hold by
        # associativity); (b) codes c = (c - e*s)(e*s), e the last nonzero digit
        pairs = ((at[p * s], at[q * s], [at[w * s] for w in f.product(p, q)])
                 for p in range(1, size) if at[p * s] in given for q in range(p, size))
        tensors = ((at[c - c // s % size * s], at[c // s % size * s], [at[c]])
                   for c in range(s * size, n, s) if c // s % size)
        for a, b, terms in itertools.chain(pairs, tensors):
            product = basis.times(images[a], degrees[a], images[b], degrees[b])
            if len(terms) == 1 and terms[0] not in images:
                images[terms[0]] = product
            elif product != functools.reduce(operator.xor, (images[w] for w in terms), 0):
                failed.append(sorted((a, b), key=order.__getitem__))
    if failed:
        labels = src.lookups()[0]
        raise HomValidationError([
            f"multiplicativity fails on ({labels[a]}, {labels[b]}): image of product "
            "differs from product of images"
            for a, b in sorted(failed, key=lambda pair: [order[p] for p in pair])])
    matrices: list[list[int]] = [[] for _ in range(source.top_degree + 1)]
    for p, d in enumerate(degrees):
        if d <= source.top_degree:
            matrices[d].append(images[p])
    return ValidatedHom(spec, tuple(map(tuple, matrices)))


def _same_ring(a: Ring, b: Ring) -> bool:
    # identity first: table equality may compare every nonzero product
    return a is b or a == b


def check_injectivity(vh: ValidatedHom) -> tuple[dict[int, bool], bool]:
    """Injectivity of the induced map per degree, up to dim of the range.

    For an asserted degree +-1 map, failure in any degree certifies that
    no such map with this induced homomorphism exists.
    """
    per_degree = {d: rank(cols) == len(cols) for d, cols in enumerate(vh.matrices)}
    return per_degree, all(per_degree.values())


def check_top_class(vh: ValidatedHom) -> bool:
    """Whether the range's top class maps to the domain's top class: with
    a unique top class on each side, whether its 1 x 1 matrix is (1,)."""
    source, target = vh.spec.source, vh.spec.target
    top = source.top_degree
    if top != target.top_degree:
        raise DimensionMismatch(f"top degrees differ: {top} vs {target.top_degree}")
    if len(vh.matrices[top]) != 1 or target.compiled.dims.get(top) != 1:
        raise ValueError("both rings need a unique top class")
    return vh.matrices[top] == (1,)


def check_dimensions(m_record: SpaceRecord, n_record: SpaceRecord) -> None:
    """Raise DimensionMismatch unless domain and range have one dimension:
    a degree exists only between closed manifolds of one dimension."""
    if m_record.dimension != n_record.dimension:
        raise DimensionMismatch(f"dim(domain) = {m_record.dimension} != {n_record.dimension} = "
                                "dim(range); the degree-one comparison requires equal dimensions")


def check_cl_monotone(m_ring: Ring, n_ring: Ring) -> CriterionVerdict:
    """Cup-length is monotone under degree +-1 maps: cl(M) >= cl(N)."""
    cl_m, cl_n = cup_length(m_ring), cup_length(n_ring)
    if cl_m >= cl_n:
        status = CERTIFIED
        reason = f"cup-length of domain {cl_m} >= {cl_n} of range: necessary condition holds"
    else:
        status = VIOLATED
        reason = (f"cup-length obstruction: cl(domain) = {cl_m} < {cl_n} = cl(range); "
                  "no degree +-1 map from domain to range exists")
    return CriterionVerdict("prop_cl_monotone", status, reason,
                            ("cup-length is monotone under degree-one maps",))


def cor_cat_transfer(
    m_ledger: BoundLedger | None, n_ledger: BoundLedger | None, m_known_cat: int | None = None
) -> CriterionVerdict:
    """When cl(N) = cat(N), a degree +-1 map forces cat(M) >= cat(N).

    M's upper bound on cat is its ledger's, or else ``m_known_cat``, the
    cited cat of a domain without a ring (G2), so G2 -> T14 is violated.
    The conclusion is the verdict's; M's ledger keeps its own bounds.
    """
    if n_ledger is None:
        return CriterionVerdict("cor_cat_transfer", NOT_APPLICABLE, "no ring data for the range")
    if n_ledger.cat.is_exact() and n_ledger.cat.lower == n_ledger.cup_length:
        cat_n = n_ledger.cat.lower
        m_upper = m_known_cat if m_ledger is None else m_ledger.cat.upper
        if m_upper is not None and m_upper < cat_n:
            # the forced conclusion cat(domain) >= cat(range) contradicts the
            # domain's known upper bound: no degree +-1 map can exist
            return CriterionVerdict(
                "cor_cat_transfer",
                VIOLATED,
                f"category obstruction: cat(domain) <= {m_upper} "
                f"< {cat_n} = cat(range) = cl(range); a degree +-1 map "
                f"would force cat(domain) >= {cat_n}",
                ("category transfer when cup-length is sharp",),
            )
        return CriterionVerdict(
            "cor_cat_transfer",
            CERTIFIED,
            f"cl(range) = cat(range) = {cat_n}, so cat(domain) >= {cat_n}",
            ("category transfer when cup-length is sharp",),
        )
    if n_ledger.cat.is_exact():
        reason = (
            f"cat(range) = {n_ledger.cat.lower} exceeds its cup-length "
            f"{n_ledger.cup_length}; this transfer does not apply"
        )
    else:
        reason = "cat(range) is not pinned to its cup-length"
    return CriterionVerdict("cor_cat_transfer", INCONCLUSIVE, reason, ())


def thm_main_check(
    m_record: SpaceRecord,
    n_record: SpaceRecord,
    n_ledger: BoundLedger | None = None,
) -> CriterionVerdict:
    """Connectivity-versus-dimension criterion for stably parallelizable
    manifolds: with N (q-1)-connected, dim N <= 2*q*cat(N) - 4 forces
    cat(M) >= cat(N)."""
    if not (m_record.stably_parallelizable and n_record.stably_parallelizable):
        missing = "domain" if not m_record.stably_parallelizable else "range"
        return CriterionVerdict(
            "thm_main", INCONCLUSIVE, f"{missing} is not flagged stably parallelizable", ()
        )
    q = n_record.connectivity + 1
    lower_only = False
    if n_record.known_cat is not None:
        cat_n = n_record.known_cat[0]
    elif n_ledger is not None:
        # a lower bound suffices: the condition only gets easier as cat grows
        cat_n = n_ledger.cat.lower
        lower_only = not n_ledger.cat.is_exact()
    else:
        return CriterionVerdict(
            "thm_main", INCONCLUSIVE, "no category value available for the range", ()
        )
    rhs = 2 * q * cat_n - 4
    dim = n_record.dimension
    if dim <= rhs:
        return CriterionVerdict(
            "thm_main",
            CERTIFIED,
            f"{dim} = dim range <= 2*q*cat - 4 = {rhs} with q = {q}, cat = {cat_n}; "
            f"both manifolds stably parallelizable, so cat(domain) >= cat(range)",
            ("comparison theorem for stably parallelizable manifolds",),
        )
    if lower_only:
        # a larger true cat(range) may still satisfy the condition
        reason = (
            f"dimension condition fails for the lower bound only: dim range = {dim} > "
            f"2*q*cat - 4 = {rhs} (q = {q}, cat >= {cat_n})"
        )
    else:
        reason = (
            f"dimension condition fails: dim range = {dim} > 2*q*cat - 4 = {rhs} "
            f"(q = {q}, cat = {cat_n})"
        )
    return CriterionVerdict("thm_main", INCONCLUSIVE, reason, ())


class StabilizationCheck(Record):
    """Torus-stabilization constant with its verified inequality instance."""

    k: int
    lhs: int  # 2k - 4
    rhs: int  # k + n

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs


def torus_stabilization_k(n: int) -> StabilizationCheck:
    """Smallest k with 2k - 4 >= k + n, namely k = n + 4.

    Crossing with a k-torus for this k makes the dimension condition of
    the stably-parallelizable comparison theorem hold automatically.
    """
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    k = n + 4
    check = StabilizationCheck(k=k, lhs=2 * k - 4, rhs=k + n)
    assert check.holds
    return check


def thm_torus_check(m_record: SpaceRecord, n_record: SpaceRecord) -> CriterionVerdict:
    """Stabilized transfer: after crossing with a large torus the category
    comparison holds for stably parallelizable manifolds."""
    if not (m_record.stably_parallelizable and n_record.stably_parallelizable):
        missing = "domain" if not m_record.stably_parallelizable else "range"
        return CriterionVerdict(
            "thm_torus", INCONCLUSIVE, f"{missing} is not flagged stably parallelizable", ()
        )
    n = m_record.dimension
    st = torus_stabilization_k(n)
    return CriterionVerdict(
        "thm_torus",
        CERTIFIED,
        f"cat(domain x T^k) >= cat(range x T^k) for k = {st.k} "
        f"(2k - 4 = {st.lhs} >= k + n = {st.rhs}); conclusion is about the "
        f"torus-stabilized product, not cat(domain) itself",
        ("torus stabilization of the comparison theorem",),
    )


def low_dim_check(
    n: int, m_genus: int | None = None, n_genus: int | None = None
) -> CriterionVerdict:
    """Unconditional transfer in dimensions up to 4.

    In dimension 2 the genus comparison is also reported when both
    genera are known; a failing comparison is a provable obstruction.
    """
    if n > 4:
        return CriterionVerdict(
            "low_dim", NOT_APPLICABLE, f"dimension {n} exceeds 4", ()
        )
    if n == 2 and m_genus is not None and n_genus is not None:
        if m_genus < n_genus:
            return CriterionVerdict(
                "low_dim",
                VIOLATED,
                f"genus obstruction: g(domain) = {m_genus} < {n_genus} = g(range); "
                "degree-one maps cannot decrease genus",
                ("genus monotonicity under degree-one maps",),
            )
        return CriterionVerdict(
            "low_dim",
            CERTIFIED,
            f"dimension 2: category transfers; genus monotone, "
            f"g(domain) = {m_genus} >= {n_genus} = g(range)",
            ("classification of surfaces",),
        )
    citations = {
        0: ("points",),
        1: ("dimension 1: both manifolds are circles",),
        2: ("classification of surfaces",),
        3: ("known category comparison theorem for closed orientable 3-manifolds",),
        4: (
            "known 4-manifold results: category at most 2 forces a free "
            "fundamental group, which degree-one maps preserve",
        ),
    }
    return CriterionVerdict(
        "low_dim",
        CERTIFIED,
        f"dimension {n} <= 4: cat(domain) >= cat(range) holds for every "
        "degree-one map",
        citations[n],
    )


def morse_transfer_check(m_record: SpaceRecord, n_record: SpaceRecord) -> CriterionVerdict:
    """Termwise Betti-number necessity plus crit* transfer under Smale, on
    the records' Morse data.

    Degree-one maps are surjective on homology, so every Betti number of
    the domain must dominate the range's; when both manifolds are simply
    connected of dimension >= 6 the Morse counts are exact and
    crit*(domain) >= crit*(range) follows.
    """
    check_dimensions(m_record, n_record)
    bad = [lam for lam, (b_m, b_n) in enumerate(zip(m_record.morse, n_record.morse)) if b_m < b_n]
    if bad:
        return CriterionVerdict(
            "morse_transfer", VIOLATED, "rank obstruction: domain fails to dominate range in "
            f"homology ranks at degrees {bad}; degree-one maps are surjective on homology",
            ("homology surjectivity of degree-one maps",))
    (m_bound, m_exact), (n_bound, n_exact) = map(morse_lower_bound, (m_record, n_record))
    if m_exact and n_exact:
        return CriterionVerdict(
            "morse_transfer", CERTIFIED, f"crit*(domain) = {m_bound} >= {n_bound} = crit*(range); "
            "Morse counts are exact (simply connected, dimension >= 6)",
            ("Smale: Morse equalities for simply connected manifolds of dim >= 6",))
    return CriterionVerdict(
        "morse_transfer", INCONCLUSIVE, f"termwise ranks compatible (Morse bounds {m_bound} >= "
        f"{n_bound}), but exactness needs both manifolds simply connected of dimension >= 6")


class Report(Record):
    """Ordered criterion verdicts for one domain/range pair."""

    domain: str
    range: str
    verdicts: tuple[CriterionVerdict, ...]
    overall: str
    notes: tuple[str, ...]
    domain_ledger: BoundLedger | None = None
    range_ledger: BoundLedger | None = None


# (id, needs, carries_cat, check) in report order.  needs: "ring" or "Morse"
# (both records' ring or morse, else not_applicable naming the first record
# without it), "map" (the row is left out without one) or "".  carries_cat: its
# "certified" asserts cat(domain) >= cat(range).  A check takes (domain, range,
# their ledgers, the map) and calls its function by its module-level name, so
# that rebinding the name reaches it.
CRITERIA = (
    ("low_dim", "", True, lambda m, n, ml, nl, vh: low_dim_check(m.dimension, m.genus, n.genus)),
    ("prop_cl_monotone", "ring", False, lambda m, n, ml, nl, vh: check_cl_monotone(m.ring, n.ring)),
    ("cor_cat_transfer", "", True, lambda m, n, ml, nl, vh: cor_cat_transfer(
        ml, nl, m.known_cat[0] if m.known_cat else None)),
    ("thm_main", "", True, lambda m, n, ml, nl, vh: thm_main_check(m, n, nl)),
    ("morse_transfer", "Morse", False, lambda m, n, ml, nl, vh: morse_transfer_check(m, n)),
    ("thm_torus", "", False, lambda m, n, ml, nl, vh: thm_torus_check(m, n)),
    ("lemma_injectivity", "map", False, lambda m, n, ml, nl, vh: _hom_verdict(vh)),
)


def full_report(
    m_record: SpaceRecord,
    n_record: SpaceRecord,
    hom: ValidatedHom | None = None,
) -> Report:
    """Run every criterion of :data:`CRITERIA` for maps M -> N of degree
    +-1; a homomorphism comes validated (:func:`validate_hom`), so a broken
    map is reported before the pair's dimensions.

    Overall status: "violated" when any necessary condition provably
    fails; otherwise "certified" when some criterion establishes
    cat(domain) >= cat(range); otherwise "inconclusive".  The verdict
    order is fixed and the report is deterministic.
    """
    check_dimensions(m_record, n_record)
    if hom is not None and not (
        _same_ring(hom.spec.source, n_record.ring) and _same_ring(hom.spec.target, m_record.ring)
    ):
        raise ValueError(
            "the homomorphism's rings do not match the given records "
            "(expected source = range ring, target = domain ring)"
        )
    m_ledger, n_ledger = m_record.ledger(), n_record.ledger()
    verdicts: list[CriterionVerdict] = []
    transfers = False
    for criterion_id, needs, carries_cat, check in CRITERIA:
        if needs == "map":
            if hom is None:
                continue
        elif needs:
            records = (m_record, n_record)
            missing = next((r.name for r in records if getattr(r, needs.lower()) is None), None)
            if missing is not None:
                verdicts.append(CriterionVerdict(criterion_id, NOT_APPLICABLE,
                                                 f"no {needs} data for {missing}"))
                continue
        verdict = check(m_record, n_record, m_ledger, n_ledger, hom)
        verdicts.append(verdict)
        transfers = transfers or (carries_cat and verdict.status == CERTIFIED)
    violated = any(v.status == VIOLATED for v in verdicts)
    overall = VIOLATED if violated else CERTIFIED if transfers else INCONCLUSIVE
    return Report(
        domain=m_record.name,
        range=n_record.name,
        verdicts=tuple(verdicts),
        overall=overall,
        notes=(OPEN_QUESTION_NOTE,),
        domain_ledger=m_ledger,
        range_ledger=n_ledger,
    )


def _hom_verdict(vh: ValidatedHom) -> CriterionVerdict:
    per_degree, injective = check_injectivity(vh)
    top_ok = check_top_class(vh)
    citations = ("degree-one maps induce injective cohomology homomorphisms",)
    if not injective or not top_ok:
        failing = sorted(d for d, ok in per_degree.items() if not ok)
        problems = [f"induced map has a kernel in degrees {failing}; a degree +-1 map "
                    "induces a monomorphism on cohomology"] if failing else []
        if not top_ok:
            problems.append("top class of the range does not hit the top class of the domain; "
                            "incompatible with degree +-1")
        return CriterionVerdict("lemma_injectivity", VIOLATED, "; ".join(problems), citations)
    n = len(vh.matrices) - 1
    return CriterionVerdict(
        "lemma_injectivity",
        CERTIFIED,
        f"induced homomorphism injective in every degree 0..{n}; top class preserved",
        citations,
    )
