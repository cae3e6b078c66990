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
"""

from __future__ import annotations

from typing import Mapping

from ._record import Record
from .bounds import BoundLedger, MorseData, cup_length, morse_lower_bound
from .catalogue import SpaceRecord
from .gf2 import rank
from .rings import Element, MultiplicationTable, Ring, TruncatedPresentation

CERTIFIED = "certified"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"
NOT_APPLICABLE = "not_applicable"

# criteria whose "certified" status asserts cat(domain) >= cat(range);
# the others certify necessary conditions or different invariants
CAT_TRANSFER_IDS = frozenset({"low_dim", "cor_cat_transfer", "thm_main"})

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
    citations: tuple[str, ...]

    def __init__(
        self, criterion_id: str, status: str, reason: str, citations: tuple[str, ...] = ()
    ) -> None:
        self.__dict__.update(
            criterion_id=criterion_id, status=status, reason=reason, citations=citations
        )

    def to_dict(self) -> dict:
        return {
            "criterion_id": self.criterion_id,
            "status": self.status,
            "reason": self.reason,
            "citations": list(self.citations),
        }


class RingHomSpec(Record):
    """A graded ring homomorphism given by images of source generators.

    ``source`` is H*(N) (cohomology of the map's range), ``target`` is
    H*(M).  For presentation sources the images are keyed by generator
    name; for table sources every non-unit basis label needs an image.
    """

    source: Ring
    target: Ring
    images: Mapping[str, Element]
    asserted_degree: int

    def __init__(
        self, source: Ring, target: Ring, images: Mapping[str, Element], asserted_degree: int = 1
    ) -> None:
        self.__dict__.update(
            source=source, target=target, images=images, asserted_degree=asserted_degree
        )
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

    def __init__(self, spec: RingHomSpec, matrices: tuple[tuple[int, ...], ...]) -> None:
        self.__dict__.update(spec=spec, matrices=matrices)


def validate_hom(spec: RingHomSpec) -> ValidatedHom:
    """Check that the images define a graded ring homomorphism.

    The images are checked as given (known keys, an image per generator,
    of its degree, unit -> unit), then as bitmasks on the rings' compiled
    forms (:class:`~lscat.rings.CompiledRing`): a presentation source's
    relations by square-and-multiply and each monomial's image as one
    product, a table source's F(x)F(y) = F(xy) on every basis pair.
    Returns the per-degree matrices read off the images; raises
    :class:`HomValidationError` listing every problem found."""
    problems: list[str] = []
    source, target = spec.source, spec.target
    # presentations take images of their generators, tables of every basis
    # element but the unit, which must map to the unit
    if isinstance(source, TruncatedPresentation):
        generators = [(g.name, g.degree) for g in source.generators]
        unknown, noun, known = "generator", "generator", set()
    elif isinstance(source, MultiplicationTable):
        generators = [(l, d) for l, d in source.basis if l != source.unit_label]
        unknown, noun, known = "basis label", "basis element", {source.unit_label}
    else:
        raise TypeError(f"unsupported source ring {type(source).__name__}")
    known.update(name for name, _ in generators)
    for key in spec.images:
        if key not in known:
            problems.append(f"unknown {unknown} {key!r}")
    if isinstance(source, MultiplicationTable):
        if spec.images.get(source.unit_label, target.unit()) != target.unit():
            problems.append("unit must map to unit")
    basis, (_, position) = target.compiled, target.compiled.lookups()
    vectors: dict[str, int] = {}  # generator -> image, over the target basis
    for i, (name, degree) in enumerate(generators):
        img, deg = spec.images.get(name), None
        if img is None:
            problems.append(f"no image given for {noun} {name!r}")
        else:
            try:
                deg = target.element_degree(img)
            except ValueError as exc:
                problems.append(f"image of {name!r}: {exc}")
        if deg is not None and deg != degree:
            problems.append(
                f"degree mismatch: {name!r} has degree {degree}, its image has degree {deg}"
            )
            continue
        terms = img.terms if deg is not None else ()  # the image over its degree's basis
        vectors[name] = sum(1 << position[t] - basis.first[deg] for t in terms)
        if isinstance(source, TruncatedPresentation):
            p = source.truncations[i]
            if basis.power(vectors[name], degree, p):
                problems.append(
                    f"relation {name}^{p} = 0 is not preserved: image power is nonzero"
                )
    if problems:
        raise HomValidationError(problems)

    if isinstance(source, TruncatedPresentation):
        degrees = source.monomial_degrees
        images = [1] + [0] * (len(degrees) - 1)  # per monomial number
        stride = len(degrees)
        for g, q, x in zip(source.generators, source.truncations, vectors.values()):
            stride //= q
            # c = (c - stride) * g when g has the last nonzero exponent of c
            for c in range(stride, len(degrees), stride):
                if c // stride % q:
                    images[c] = basis.times(images[c - stride], degrees[c] - g.degree, x, g.degree)
    else:
        src = source.compiled  # images per position; the unit's is 1
        terms, position = src.lookups()
        at = [position[l] for l, _ in source.basis]  # basis index -> position
        degrees, images = src.degrees, [vectors.get(l, 1) for l in terms]
        for i, p in enumerate(at):
            for j in range(i, source.size):
                q, lhs = at[j], 0
                for w in src.product(p, q):
                    lhs ^= images[w]
                if lhs != basis.times(images[p], degrees[p], images[q], degrees[q]):
                    problems.append(
                        f"multiplicativity fails on ({source.basis[i][0]}, {source.basis[j][0]}): "
                        f"image of product differs from product of images"
                    )
    if problems:
        raise HomValidationError(problems)
    matrices: list[list[int]] = [[] for _ in range(source.top_degree + 1)]
    for x, d in zip(images, degrees):
        if d <= source.top_degree:
            matrices[d].append(x)
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


def injectivity_outcome(vh: ValidatedHom) -> tuple[dict[int, bool], bool | None, str, bool]:
    """The mod-2 consequences of degree +-1 for one validated hom.

    Returns ``(per_degree, top_ok, top_note, violated)``: the injectivity
    of each degree, whether the top class hits the top class (None when
    the check does not apply, ``top_note`` then saying why), and whether
    a degree +-1 map is ruled out, which holds iff some degree has a
    kernel or the top class misses.
    """
    per_degree, injective = check_injectivity(vh)
    try:
        top_ok: bool | None = check_top_class(vh)
        top_note = ""
    except (DimensionMismatch, ValueError) as exc:
        top_ok, top_note = None, str(exc)
    return per_degree, top_ok, top_note, not injective or top_ok is False


def check_cl_monotone(m_ring: Ring, n_ring: Ring) -> CriterionVerdict:
    """Cup-length is monotone under degree +-1 maps: cl(M) >= cl(N)."""
    cl_m = cup_length(m_ring)
    cl_n = cup_length(n_ring)
    if cl_m >= cl_n:
        return CriterionVerdict(
            "prop_cl_monotone",
            CERTIFIED,
            f"cup-length of domain {cl_m} >= {cl_n} of range: necessary condition holds",
            ("cup-length is monotone under degree-one maps",),
        )
    return CriterionVerdict(
        "prop_cl_monotone",
        VIOLATED,
        f"cup-length obstruction: cl(domain) = {cl_m} < {cl_n} = cl(range); "
        "no degree +-1 map from domain to range exists",
        ("cup-length is monotone under degree-one maps",),
    )


def cor_cat_transfer(
    m_ledger: BoundLedger | None, n_ledger: BoundLedger | None
) -> tuple[CriterionVerdict, BoundLedger | None]:
    """When cl(N) = cat(N), a degree +-1 map forces cat(M) >= cat(N).

    Returns the verdict together with M's ledger, tightened when the
    criterion certifies (tightening is monotone: lower bounds only rise).
    """
    if n_ledger is None:
        return (
            CriterionVerdict(
                "cor_cat_transfer", NOT_APPLICABLE, "no ring data for the range", ()
            ),
            m_ledger,
        )
    if n_ledger.cat.is_exact() and n_ledger.cat.lower == n_ledger.cup_length:
        cat_n = n_ledger.cat.lower
        if (
            m_ledger is not None
            and m_ledger.cat.upper is not None
            and m_ledger.cat.upper < cat_n
        ):
            # the forced conclusion cat(domain) >= cat(range) contradicts the
            # domain's known upper bound: no degree +-1 map can exist
            return (
                CriterionVerdict(
                    "cor_cat_transfer",
                    VIOLATED,
                    f"category obstruction: cat(domain) <= {m_ledger.cat.upper} "
                    f"< {cat_n} = cat(range) = cl(range); a degree +-1 map "
                    f"would force cat(domain) >= {cat_n}",
                    ("category transfer when cup-length is sharp",),
                ),
                m_ledger,
            )
        new_ledger = m_ledger
        if m_ledger is not None:
            new_ledger = m_ledger.tighten_cat_lower(
                cat_n, "category transfer: range has cl = cat"
            )
        return (
            CriterionVerdict(
                "cor_cat_transfer",
                CERTIFIED,
                f"cl(range) = cat(range) = {cat_n}, so cat(domain) >= {cat_n}",
                ("category transfer when cup-length is sharp",),
            ),
            new_ledger,
        )
    if n_ledger.cat.is_exact():
        reason = (
            f"cat(range) = {n_ledger.cat.lower} exceeds its cup-length "
            f"{n_ledger.cup_length}; this transfer does not apply"
        )
    else:
        reason = "cat(range) is not pinned to its cup-length"
    return CriterionVerdict("cor_cat_transfer", INCONCLUSIVE, reason, ()), m_ledger


def thm_main_check(
    m_record: SpaceRecord,
    n_record: SpaceRecord,
    n_ledger: BoundLedger | None = None,
) -> CriterionVerdict:
    """Connectivity-versus-dimension criterion for stably parallelizable
    manifolds: with N (q-1)-connected, dim N <= 2*q*cat(N) - 4 forces
    cat(M) >= cat(N)."""
    if not m_record.stably_parallelizable:
        return CriterionVerdict(
            "thm_main", INCONCLUSIVE, "domain is not flagged stably parallelizable", ()
        )
    if not n_record.stably_parallelizable:
        return CriterionVerdict(
            "thm_main", INCONCLUSIVE, "range is not flagged stably parallelizable", ()
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

    def __init__(self, k: int, lhs: int, rhs: int) -> None:
        self.__dict__.update(k=k, lhs=lhs, rhs=rhs)

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


def morse_transfer_check(m_data: MorseData, n_data: MorseData) -> CriterionVerdict:
    """Termwise homology-rank necessity plus crit* transfer under Smale.

    Degree-one maps are surjective on homology, so every rank and
    torsion rank of the domain must dominate the range's; when both
    manifolds are simply connected of dimension >= 6 the Morse counts
    are exact and crit*(domain) >= crit*(range) follows.
    """
    if m_data.dimension != n_data.dimension:
        raise DimensionMismatch(
            f"Morse data dimensions differ: {m_data.dimension} vs {n_data.dimension}"
        )
    bad_ranks = [
        lam
        for lam in range(n_data.dimension + 1)
        if m_data.ranks[lam] < n_data.ranks[lam]
    ]
    bad_torsion = [
        lam
        for lam in range(n_data.dimension + 1)
        if m_data.torsion_ranks[lam] < n_data.torsion_ranks[lam]
    ]
    if bad_ranks or bad_torsion:
        bits = []
        if bad_ranks:
            bits.append(f"homology ranks at degrees {bad_ranks}")
        if bad_torsion:
            bits.append(f"torsion ranks at degrees {bad_torsion}")
        return CriterionVerdict(
            "morse_transfer",
            VIOLATED,
            "rank obstruction: domain fails to dominate range in "
            + " and ".join(bits)
            + "; degree-one maps are surjective on homology",
            ("homology surjectivity of degree-one maps",),
        )
    m_bound, m_exact = morse_lower_bound(m_data)
    n_bound, n_exact = morse_lower_bound(n_data)
    if m_exact and n_exact:
        return CriterionVerdict(
            "morse_transfer",
            CERTIFIED,
            f"crit*(domain) = {m_bound} >= {n_bound} = crit*(range); Morse "
            "counts are exact (simply connected, dimension >= 6)",
            ("Smale: Morse equalities for simply connected manifolds of dim >= 6",),
        )
    return CriterionVerdict(
        "morse_transfer",
        INCONCLUSIVE,
        f"termwise ranks compatible (Morse bounds {m_bound} >= {n_bound}), but "
        "exactness needs both manifolds simply connected of dimension >= 6",
        (),
    )


class Report(Record):
    """Ordered criterion verdicts for one domain/range pair."""

    domain: str
    range: str
    verdicts: tuple[CriterionVerdict, ...]
    overall: str
    notes: tuple[str, ...]
    domain_ledger: BoundLedger | None
    range_ledger: BoundLedger | None

    def __init__(
        self,
        domain: str,
        range: str,
        verdicts: tuple[CriterionVerdict, ...],
        overall: str,
        notes: tuple[str, ...],
        domain_ledger: BoundLedger | None = None,
        range_ledger: BoundLedger | None = None,
    ) -> None:
        self.__dict__.update(
            domain=domain,
            range=range,
            verdicts=verdicts,
            overall=overall,
            notes=notes,
            domain_ledger=domain_ledger,
            range_ledger=range_ledger,
        )

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "range": self.range,
            "overall": self.overall,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "notes": list(self.notes),
            "domain_ledger": self.domain_ledger.to_dict() if self.domain_ledger else None,
            "range_ledger": self.range_ledger.to_dict() if self.range_ledger else None,
        }


def full_report(
    m_record: SpaceRecord,
    n_record: SpaceRecord,
    hom: RingHomSpec | None = None,
) -> Report:
    """Run every applicable criterion for maps M -> N of degree +-1.

    Overall status: "violated" when any necessary condition provably
    fails; otherwise "certified" when some criterion establishes
    cat(domain) >= cat(range); otherwise "inconclusive".  The verdict
    order is fixed and the report is deterministic.
    """
    if m_record.dimension != n_record.dimension:
        raise DimensionMismatch(
            f"dim(domain) = {m_record.dimension} != {n_record.dimension} = dim(range); "
            "the degree-one comparison requires equal dimensions"
        )
    if hom is not None and not (
        _same_ring(hom.source, n_record.ring) and _same_ring(hom.target, m_record.ring)
    ):
        raise ValueError(
            "the homomorphism's rings do not match the given records "
            "(expected source = range ring, target = domain ring)"
        )
    verdicts: list[CriterionVerdict] = []

    verdicts.append(
        low_dim_check(m_record.dimension, m_record.genus, n_record.genus)
    )

    m_ledger = m_record.ledger()
    n_ledger = n_record.ledger()

    if m_record.ring is not None and n_record.ring is not None:
        verdicts.append(check_cl_monotone(m_record.ring, n_record.ring))
    else:
        missing = m_record.name if m_record.ring is None else n_record.name
        verdicts.append(
            CriterionVerdict("prop_cl_monotone", NOT_APPLICABLE, f"no ring data for {missing}")
        )

    transfer_verdict, m_ledger = cor_cat_transfer(m_ledger, n_ledger)
    verdicts.append(transfer_verdict)

    verdicts.append(thm_main_check(m_record, n_record, n_ledger))

    if m_record.morse is not None and n_record.morse is not None:
        verdicts.append(morse_transfer_check(m_record.morse, n_record.morse))
    else:
        missing = m_record.name if m_record.morse is None else n_record.name
        verdicts.append(
            CriterionVerdict("morse_transfer", NOT_APPLICABLE, f"no Morse data for {missing}")
        )

    verdicts.append(thm_torus_check(m_record, n_record))

    if hom is not None:
        verdicts.append(_hom_verdict(hom))

    if any(v.status == VIOLATED for v in verdicts):
        overall = VIOLATED
    elif any(
        v.criterion_id in CAT_TRANSFER_IDS and v.status == CERTIFIED for v in verdicts
    ):
        overall = CERTIFIED
    else:
        overall = INCONCLUSIVE

    return Report(
        domain=m_record.name,
        range=n_record.name,
        verdicts=tuple(verdicts),
        overall=overall,
        notes=(OPEN_QUESTION_NOTE,),
        domain_ledger=m_ledger,
        range_ledger=n_ledger,
    )


def _hom_verdict(hom: RingHomSpec) -> CriterionVerdict:
    vh = validate_hom(hom)
    per_degree, top_ok, _, violated = injectivity_outcome(vh)
    citations = ("degree-one maps induce injective cohomology homomorphisms",)
    if violated:
        problems = []
        failing = sorted(d for d, ok in per_degree.items() if not ok)
        if failing:
            problems.append(
                f"induced map has a kernel in degrees {failing}; a degree +-1 map "
                "induces a monomorphism on cohomology"
            )
        if top_ok is False:
            problems.append(
                "top class of the range does not hit the top class of the domain; "
                "incompatible with degree +-1"
            )
        return CriterionVerdict("lemma_injectivity", VIOLATED, "; ".join(problems), citations)
    top_note = "top class preserved" if top_ok else "top class check not applicable"
    n = len(vh.matrices) - 1
    return CriterionVerdict(
        "lemma_injectivity",
        CERTIFIED,
        f"induced homomorphism injective in every degree 0..{n}; {top_note}",
        citations,
    )
