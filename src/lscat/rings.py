"""Graded-commutative algebras over the two-element field.

Two representations are supported:

* :class:`TruncatedPresentation` -- a polynomial algebra on generators
  ``b_i`` modulo pure truncation relations ``b_i**p_i = 0``.  Normal
  forms are exponent vectors bounded strictly by the truncations, so
  reduction is confluent without any Groebner machinery.
* :class:`MultiplicationTable` -- a finite algebra given by an explicit
  basis per degree and structure constants, for rings (surfaces) whose
  relations are not pure powers.

Both compile, on first use, to one integer-indexed form
(:class:`CompiledRing`) on which the cup-length search and the duality
check run; labels and exponent tuples stay at the edges.

Coefficients are fixed to GF(2): an element is a finite set of basis
terms, addition is symmetric difference, and no signs ever appear.
All ring objects are immutable after construction and safe to share.
"""

from __future__ import annotations

import bisect
import itertools
import warnings
from functools import cached_property
from typing import Callable, Mapping, Sequence, Union

from ._record import Record
from .gf2 import XorBasis

Term = Union[tuple, str]


class GeneratorSpec(Record):
    """A polynomial generator: a name and a positive degree."""

    name: str
    degree: int

    def __init__(self, name: str, degree: int) -> None:
        self.__dict__.update(name=name, degree=degree)
        if self.degree < 1:
            raise ValueError(f"generator {self.name!r} must have degree >= 1")


class Element(Record):
    """A sum of basis terms with implicit coefficient 1 over GF(2).

    Terms are exponent tuples for presentations or basis labels for
    tables; the owning ring interprets them.  ``e + e == 0`` because
    addition is symmetric difference of term sets.
    """

    terms: frozenset

    def __init__(self, terms: frozenset = frozenset()) -> None:
        self.__dict__.update(terms=terms)

    @classmethod
    def zero(cls) -> "Element":
        return cls(frozenset())

    @classmethod
    def of(cls, *terms: Term) -> "Element":
        return cls(frozenset(terms))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Element") -> "Element":
        return Element(self.terms ^ other.terms)

    __xor__ = __add__


class TruncatedPresentation(Record):
    """GF(2) polynomial algebra truncated by pure power relations.

    ``truncations[i] == p_i`` means ``generators[i]**p_i == 0``; a
    truncation of 1 makes the generator itself zero.  ``top_degree`` is
    the formal dimension of the space the ring models; multiplication
    never truncates at ``top_degree`` (only the power relations act),
    but construction warns when some normal-form monomial exceeds it,
    since then the ring cannot be the cohomology of a closed manifold
    of that dimension.
    """

    generators: tuple[GeneratorSpec, ...]
    truncations: tuple[int, ...]
    top_degree: int

    def __init__(
        self, generators: tuple[GeneratorSpec, ...], truncations: tuple[int, ...], top_degree: int
    ) -> None:
        self.__dict__.update(generators=generators, truncations=truncations, top_degree=top_degree)
        if len(self.generators) != len(self.truncations):
            raise ValueError("one truncation exponent per generator required")
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in {names}")
        for g, p in zip(self.generators, self.truncations):
            if p < 1:
                raise ValueError(f"truncation exponent for {g.name!r} must be >= 1")
        if self.top_degree < 0:
            raise ValueError("top_degree must be nonnegative")
        if self.max_monomial_degree > self.top_degree:
            warnings.warn(
                f"presentation has monomials of degree {self.max_monomial_degree} "
                f"above top_degree {self.top_degree}; not a closed-manifold ring",
                stacklevel=2,
            )

    # -- structure -----------------------------------------------------

    @property
    def ngens(self) -> int:
        return len(self.generators)

    @cached_property
    def generator_index(self) -> dict[str, int]:
        return {g.name: i for i, g in enumerate(self.generators)}

    @cached_property
    def max_monomial_degree(self) -> int:
        return sum((p - 1) * g.degree for g, p in zip(self.generators, self.truncations))

    @cached_property
    def total_dimension(self) -> int:
        """Number of normal-form monomials."""
        n = 1
        for p in self.truncations:
            n *= p
        return n

    @cached_property
    def compiled(self) -> "CompiledRing":
        """The integer-indexed form, built on first use."""
        return _compile_presentation(self)

    def unit(self) -> Element:
        return Element.of((0,) * self.ngens)

    def generator_element(self, name: str) -> Element:
        i = self.generator_index[name]
        exps = [0] * self.ngens
        exps[i] = 1
        return self.normal_form(exps)

    # -- arithmetic ----------------------------------------------------

    def normal_form(self, raw_exponents: Sequence[int]) -> Element:
        """Reduce a raw monomial modulo the truncation relations.

        Returns the single-monomial element when every exponent is
        strictly below its truncation, and zero otherwise.
        """
        exps = tuple(raw_exponents)
        if len(exps) != self.ngens:
            raise ValueError(
                f"expected {self.ngens} exponents, got {len(exps)}"
            )
        for e, p in zip(exps, self.truncations):
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            if e >= p:
                return Element.zero()
        return Element.of(exps)

    def monomial_degree(self, exps: Sequence[int]) -> int:
        return sum(e * g.degree for e, g in zip(exps, self.generators))

    def _check_term(self, t: Term) -> tuple:
        if not isinstance(t, tuple) or len(t) != self.ngens:
            raise ValueError(f"term {t!r} does not belong to this presentation")
        for e, p in zip(t, self.truncations):
            if not 0 <= e < p:
                raise ValueError(f"term {t!r} is not in normal form")
        return t

    def element_degree(self, e: Element) -> int | None:
        """Degree of a homogeneous element; None for zero."""
        degs = {self.monomial_degree(self._check_term(t)) for t in e.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def multiply(self, a: Element, b: Element) -> Element:
        """Cup product: bilinear extension of exponent addition mod truncation."""
        acc: set = set()
        bterms = [self._check_term(t) for t in b.terms]
        for s in a.terms:
            s = self._check_term(s)
            for t in bterms:
                prod = tuple(x + y for x, y in zip(s, t))
                if all(e < p for e, p in zip(prod, self.truncations)):
                    acc ^= {prod}
        return Element(frozenset(acc))

    # -- enumeration ---------------------------------------------------

    def basis_in_degree(self, d: int) -> list[tuple]:
        """All normal-form monomials of degree d, lexicographic on exponents."""
        if d < 0:
            return []
        out: list[tuple] = []

        def rec(i: int, remaining: int, prefix: tuple) -> None:
            if i == self.ngens:
                if remaining == 0:
                    out.append(prefix)
                return
            g, p = self.generators[i], self.truncations[i]
            for e in range(min(p - 1, remaining // g.degree) + 1):
                rec(i + 1, remaining - e * g.degree, prefix + (e,))

        rec(0, d, ())
        return sorted(out)

    def poincare_polynomial(self) -> list[int]:
        """Monomial counts per degree, indexed 0..top_degree."""
        poly = [1]
        for g, p in zip(self.generators, self.truncations):
            factor = [0] * ((p - 1) * g.degree + 1)
            for e in range(p):
                factor[e * g.degree] = 1
            poly = _convolve(poly, factor)
        poly = poly[: self.top_degree + 1]
        return poly + [0] * (self.top_degree + 1 - len(poly))

    def monomial_label(self, exps: Sequence[int]) -> str:
        parts = []
        for g, e in zip(self.generators, exps):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append(f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"


def _convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


class CompiledRing(Record):
    """Integer-indexed form of a ring for the cup-length search and the
    duality check.

    The basis of each degree d is numbered in the ring's
    ``basis_in_degree(d)`` order, and vectors of degree d are bitmasks
    over those numbers.

    * ``top`` -- the degree the pairing pairs into: a presentation's
      highest monomial degree (its only monomial there, every exponent
      maximal, is the top class), a table's declared top degree;
    * ``dims[d]`` -- dimension in degree d (missing degrees are zero);
    * ``generator_rows`` -- per ideal generator, its degree and, per
      source degree d, a tuple of row bitmasks: row i is the i-th basis
      element of degree d times the generator (missing degrees multiply
      to zero);
    * ``pairing(d)`` -- row i marks the basis elements of degree top - d
      whose product with the i-th one of degree d is the top class;
      defined when degree d has a basis and ``top`` a unique class.  It
      is built on demand: for tables it costs a product lookup per pair,
      and only the duality check needs it.
    """

    top: int
    dims: dict[int, int]
    generator_rows: tuple[tuple[int, dict[int, tuple[int, ...]]], ...]
    pairing: Callable[[int], tuple[int, ...]]

    def __init__(
        self,
        top: int,
        dims: dict[int, int],
        generator_rows: tuple[tuple[int, dict[int, tuple[int, ...]]], ...],
        pairing: Callable[[int], tuple[int, ...]],
    ) -> None:
        self.__dict__.update(top=top, dims=dims, generator_rows=generator_rows, pairing=pairing)


def _compile_presentation(p: TruncatedPresentation) -> CompiledRing:
    # monomials are numbered in mixed radix, the first generator most
    # significant, so numbering order is lexicographic on exponent vectors
    degrees = [0]  # degree of each monomial number
    for g, q in zip(p.generators, p.truncations):
        degrees = [d + e * g.degree for d in degrees for e in range(q)]
    index: list[int] = []
    by_degree: dict[int, list[int]] = {}
    for c, d in enumerate(degrees):
        numbers = by_degree.setdefault(d, [])
        index.append(len(numbers))
        numbers.append(c)
    top = degrees[-1]
    rows = []
    stride = len(degrees)
    for g, q in zip(p.generators, p.truncations):
        stride //= q
        if q < 2:
            continue
        rows.append(
            (
                g.degree,
                {
                    d: tuple(
                        1 << index[c + stride] if c // stride % q < q - 1 else 0
                        for c in numbers
                    )
                    for d, numbers in by_degree.items()
                    if d + g.degree <= top
                },
            )
        )
    # exponents e and q - 1 - e pair to the top class: numbers c and last - c
    last = len(degrees) - 1

    def pairing(d: int) -> tuple[int, ...]:
        return tuple(1 << index[last - c] for c in by_degree[d])

    dims = {d: len(numbers) for d, numbers in by_degree.items()}
    return CompiledRing(top, dims, tuple(rows), pairing)


def _compile_table(t: "MultiplicationTable") -> CompiledRing:
    labels: dict[int, list[str]] = {}
    for l, d in t.basis:
        labels.setdefault(d, []).append(l)
    local = {l: i for ls in labels.values() for i, l in enumerate(ls)}
    rows = []
    for g in t.generator_hint or [l for l, d in t.basis if d > 0]:
        dg = t.degree_of_label(g)
        rows.append(
            (
                dg,
                {
                    d: tuple(sum(1 << local[r] for r in t.product(l, g)) for l in ls)
                    for d, ls in labels.items()
                    if d > 0 and d + dg in labels
                },
            )
        )

    def pairing(d: int) -> tuple[int, ...]:
        (top_label,) = labels[t.top_degree]
        right = labels[t.top_degree - d]
        return tuple(
            sum(1 << j for j, y in enumerate(right) if top_label in t.product(x, y))
            for x in labels[d]
        )

    dims = {d: len(ls) for d, ls in labels.items()}
    return CompiledRing(t.top_degree, dims, tuple(rows), pairing)


class MultiplicationTable:
    """Finite graded GF(2) algebra given by basis and structure constants.

    The basis is an ordered sequence of (label, degree) pairs with a
    unique degree-0 label (the unit).  Products are stored sparsely:
    missing pairs are zero.  Construction from explicit products
    validates unit law, degree additivity, commutativity and
    associativity; tables built internally from a product rule (tensor
    products, presentation expansions) are associative by construction
    and skip the check.
    """

    def __init__(
        self,
        basis: Sequence[tuple[str, int]],
        top_degree: int,
        products: Mapping[tuple[str, str], frozenset] | None = None,
        *,
        rule: Callable[[str, str], frozenset] | None = None,
        generator_hint: tuple[str, ...] | None = None,
    ) -> None:
        if (products is None) == (rule is None):
            raise ValueError("exactly one of products/rule must be given")
        self.basis: tuple[tuple[str, int], ...] = tuple((str(l), int(d)) for l, d in basis)
        self.top_degree = int(top_degree)
        labels = [l for l, _ in self.basis]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate basis labels")
        self._index = {l: i for i, l in enumerate(labels)}
        self._degree = dict(self.basis)
        units = [l for l, d in self.basis if d == 0]
        if len(units) != 1:
            raise ValueError(f"need exactly one degree-0 basis element, got {units}")
        self.unit_label = units[0]
        for l, d in self.basis:
            if d < 0 or d > self.top_degree:
                raise ValueError(f"basis element {l!r} has degree {d} outside 0..{self.top_degree}")
        self._rule = rule
        self._cache: dict[tuple[str, str], frozenset] = {}
        # positive-degree labels that generate the algebra; lets the
        # cup-length search multiply by a small generating set instead of
        # every positive basis element
        if generator_hint is not None:
            for g in generator_hint:
                if g not in self._index or self._degree[g] < 1:
                    raise ValueError(f"generator hint {g!r} is not a positive basis label")
        self.generator_hint = generator_hint
        if products is not None:
            self._load_products(products)
            self._validate_full()

    # -- construction helpers -------------------------------------------

    def _load_products(self, products: Mapping[tuple[str, str], frozenset]) -> None:
        for (la, lb), val in products.items():
            if la not in self._index or lb not in self._index:
                raise ValueError(f"product entry references unknown label: {(la, lb)}")
            terms = frozenset(val.terms if isinstance(val, Element) else val)
            for t in terms:
                if t not in self._index:
                    raise ValueError(f"product {la}*{lb} references unknown label {t!r}")
            key = self._key(la, lb)
            prev = self._cache.get(key)
            if prev is not None and prev != terms:
                raise ValueError(f"conflicting entries for product {la}*{lb}")
            self._cache[key] = terms
        # unit row is forced, not data
        for l, _ in self.basis:
            key = self._key(self.unit_label, l)
            forced = frozenset({l})
            if key in self._cache and self._cache[key] != forced:
                raise ValueError(f"unit law violated at {l!r}")
            self._cache[key] = forced

    def _validate_full(self) -> None:
        labels = [l for l, _ in self.basis]
        for la, lb in itertools.combinations_with_replacement(labels, 2):
            prod = self.product(la, lb)
            d = self._degree[la] + self._degree[lb]
            if d > self.top_degree:
                if prod:
                    raise ValueError(f"product {la}*{lb} exceeds top degree but is nonzero")
                continue
            for t in prod:
                if self._degree[t] != d:
                    raise ValueError(
                        f"product {la}*{lb} not degree-additive: {t!r} has degree "
                        f"{self._degree[t]}, expected {d}"
                    )
        # associativity needs no triple with the unit (the unit row is forced
        # in _load_products) nor above the top degree (both sides vanish once
        # the pairs above are degree-additive and zero past the top)
        positive = sorted((l for l in labels if self._degree[l] > 0), key=self._degree.get)
        degrees = [self._degree[l] for l in positive]
        for la, lb in itertools.product(positive, repeat=2):
            room = self.top_degree - self._degree[la] - self._degree[lb]
            for lc in positive[: bisect.bisect_right(degrees, room)]:
                left = self.multiply(Element(self.product(la, lb)), Element.of(lc))
                right = self.multiply(Element.of(la), Element(self.product(lb, lc)))
                if left != right:
                    raise ValueError(f"associativity fails on ({la}, {lb}, {lc})")

    def _key(self, la: str, lb: str) -> tuple[str, str]:
        # commutativity: store products under the index-ordered pair
        return (la, lb) if self._index[la] <= self._index[lb] else (lb, la)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same basis, top degree, and all products."""
        if not isinstance(other, MultiplicationTable):
            return NotImplemented
        if self.basis != other.basis or self.top_degree != other.top_degree:
            return False
        labels = [l for l, _ in self.basis]
        for i, la in enumerate(labels):
            for lb in labels[i:]:
                if self.product(la, lb) != other.product(la, lb):
                    return False
        return True

    def __hash__(self) -> int:
        return hash((self.basis, self.top_degree))

    # -- structure -------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.basis)

    @cached_property
    def compiled(self) -> CompiledRing:
        """The integer-indexed form, built on first use from ``product``."""
        return _compile_table(self)

    def degree_of_label(self, label: str) -> int:
        try:
            return self._degree[label]
        except KeyError:
            raise ValueError(f"unknown basis label {label!r}") from None

    def unit(self) -> Element:
        return Element.of(self.unit_label)

    def basis_in_degree(self, d: int) -> list[str]:
        return [l for l, deg in self.basis if deg == d]

    def poincare_polynomial(self) -> list[int]:
        poly = [0] * (self.top_degree + 1)
        for _, d in self.basis:
            poly[d] += 1
        return poly

    def top_class_label(self) -> str | None:
        """The unique basis label in the top degree, if there is exactly one."""
        top = self.basis_in_degree(self.top_degree)
        return top[0] if len(top) == 1 else None

    def element_degree(self, e: Element) -> int | None:
        degs = {self.degree_of_label(self._check_term(t)) for t in e.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def _check_term(self, t: Term) -> str:
        if not isinstance(t, str) or t not in self._index:
            raise ValueError(f"term {t!r} does not belong to this table")
        return t

    # -- arithmetic --------------------------------------------------------

    def product(self, la: str, lb: str) -> frozenset:
        """Structure constants: the product of two basis elements as a label set."""
        self._check_term(la)
        self._check_term(lb)
        key = self._key(la, lb)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self._rule is not None:
            if self.unit_label in key:
                other = key[1] if key[0] == self.unit_label else key[0]
                result = frozenset({other})
            else:
                result = frozenset(self._rule(*key))
            self._cache[key] = result
            return result
        return frozenset()

    def multiply(self, a: Element, b: Element) -> Element:
        acc: set = set()
        bterms = [self._check_term(t) for t in b.terms]
        for s in a.terms:
            self._check_term(s)
            for t in bterms:
                acc ^= self.product(s, t)
        return Element(frozenset(acc))


Ring = Union[TruncatedPresentation, MultiplicationTable]


def _element_power(ring: Ring, e: Element, n: int) -> Element:
    """``e**n`` by square-and-multiply: O(log n) products, so an exponent
    read from a file cannot make the work unbounded."""
    result = ring.unit()
    base = e
    while n:
        if n & 1:
            result = ring.multiply(result, base)
        n >>= 1
        if n:
            base = ring.multiply(base, base)
    return result


def expand_to_table(p: TruncatedPresentation) -> MultiplicationTable:
    """Rewrite a presentation as a multiplication table on its monomial basis.

    The table's top degree is the presentation's declared top_degree,
    raised to the maximal monomial degree when some monomial overflows
    it, so the table models the same space (duality pairs into the
    declared dimension) and table products agree with presentation
    products on every basis pair (no extra truncation happens).
    Products are computed on demand.
    """
    monomials = sorted(
        itertools.product(*(range(p_i) for p_i in p.truncations)),
        key=lambda m: (p.monomial_degree(m), m),
    )
    labels = {m: p.monomial_label(m) for m in monomials}
    by_label = {labels[m]: m for m in monomials}
    if len(by_label) != len(monomials):
        raise ValueError("generator names produce ambiguous monomial labels")
    top = max(p.top_degree, max(p.monomial_degree(m) for m in monomials))

    def rule(la: str, lb: str) -> frozenset:
        prod = tuple(x + y for x, y in zip(by_label[la], by_label[lb]))
        if all(e < p_i for e, p_i in zip(prod, p.truncations)):
            return frozenset({labels[prod]})
        return frozenset()

    basis = [(labels[m], p.monomial_degree(m)) for m in monomials]
    hint = []
    for i, (g, p_i) in enumerate(zip(p.generators, p.truncations)):
        if p_i >= 2:
            exps = tuple(1 if j == i else 0 for j in range(p.ngens))
            hint.append(labels[exps])
    return MultiplicationTable(basis, top, rule=rule, generator_hint=tuple(hint))


def tensor_product(a: Ring, b: Ring) -> Ring:
    """Tensor product over GF(2), in the same representation kind.

    For presentations: disjoint union of generators (name collisions
    are renamed with numeric suffixes and reported); truncations keep
    their generator; top degrees add.  For tables: basis is the pair
    basis with componentwise products, again with top degrees added.
    Over a field this realizes the Kunneth ring of a product space.
    """
    if isinstance(a, TruncatedPresentation) and isinstance(b, TruncatedPresentation):
        return _tensor_presentations(a, b)
    if isinstance(a, MultiplicationTable) and isinstance(b, MultiplicationTable):
        return _tensor_tables(a, b)
    raise TypeError(
        "tensor_product needs two rings of the same representation kind; "
        "expand_to_table the presentation first"
    )


def _tensor_presentations(
    a: TruncatedPresentation, b: TruncatedPresentation
) -> TruncatedPresentation:
    used = {g.name for g in a.generators}
    gens = list(a.generators)
    for g in b.generators:
        name = g.name
        if name in used:
            k = 2
            while f"{name}_{k}" in used:
                k += 1
            warnings.warn(
                f"tensor_product: generator name {name!r} collides; renamed to {name}_{k}",
                stacklevel=3,
            )
            name = f"{name}_{k}"
        used.add(name)
        gens.append(GeneratorSpec(name, g.degree))
    return TruncatedPresentation(
        tuple(gens), a.truncations + b.truncations, a.top_degree + b.top_degree
    )


def _tensor_tables(a: MultiplicationTable, b: MultiplicationTable) -> MultiplicationTable:
    pair_label: dict[tuple[str, str], str] = {}
    used: set[str] = set()
    basis: list[tuple[str, int]] = []
    for la, da in a.basis:
        for lb, db in b.basis:
            if la == a.unit_label and lb == b.unit_label:
                name = "1"
            elif la == a.unit_label:
                name = lb
            elif lb == b.unit_label:
                name = la
            else:
                name = f"{la}_{lb}"
            if name in used:
                k = 2
                while f"{name}__{k}" in used:
                    k += 1
                name = f"{name}__{k}"
            used.add(name)
            pair_label[(la, lb)] = name
            basis.append((name, da + db))
    factors = {v: k for k, v in pair_label.items()}

    def rule(lx: str, ly: str) -> frozenset:
        (a1, b1), (a2, b2) = factors[lx], factors[ly]
        left = a.product(a1, a2)
        right = b.product(b1, b2)
        return frozenset(pair_label[(u, v)] for u in left for v in right)

    hints_a = a.generator_hint if a.generator_hint is not None else tuple(
        l for l, d in a.basis if d > 0
    )
    hints_b = b.generator_hint if b.generator_hint is not None else tuple(
        l for l, d in b.basis if d > 0
    )
    hint = tuple(pair_label[(g, b.unit_label)] for g in hints_a) + tuple(
        pair_label[(a.unit_label, g)] for g in hints_b
    )
    return MultiplicationTable(basis, a.top_degree + b.top_degree, rule=rule, generator_hint=hint)


def check_poincare_duality(ring: Ring) -> bool:
    """Nondegeneracy of the mod-2 pairing H^d x H^(n-d) -> H^n, where n
    is the ring's declared top degree.

    Requires a unique top class in degree n, so a presentation whose
    monomials stop below n fails; for each degree d the matrix of
    coefficients of the top class in products of the degree-d and
    degree-(n-d) bases must have full rank on both sides.  Runs on the
    compiled form of either representation.
    """
    c = ring.compiled
    n = ring.top_degree
    if c.top != n or c.dims.get(n) != 1:
        return False
    return _pairing_nondegenerate(n, c.dims, c.pairing)


def _pairing_nondegenerate(
    n: int, dims: Mapping[int, int], rows: Callable[[int], Sequence[int]]
) -> bool:
    """Full rank of each pairing matrix ``rows(d)`` (d <= n/2), given as
    row bitmasks over degree n - d."""
    for d in range(0, n // 2 + 1):
        left, right = dims.get(d, 0), dims.get(n - d, 0)
        if left != right:
            return False
        if left and len(XorBasis(rows(d))) != left:
            return False
    return True
