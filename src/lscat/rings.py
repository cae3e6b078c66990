"""Graded-commutative algebras over the two-element field.

Two representations are supported:

* :class:`TruncatedPresentation` -- a polynomial algebra on generators
  ``b_i`` modulo pure truncation relations ``b_i**p_i = 0``.  Normal
  forms are exponent vectors bounded strictly by the truncations, so
  reduction is confluent without any Groebner machinery.
* :class:`MultiplicationTable` -- a finite algebra given by a basis per
  degree and structure constants, for rings (surfaces) whose relations
  are not pure powers; tensor products of tables and expansions of
  presentations are tables too, factored into their factors.

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
import math
import operator
import warnings
from functools import cached_property, reduce
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


def _homogeneous(degrees: set[int]) -> int | None:
    """The one degree of an element's terms; None for zero."""
    if len(degrees) > 1:
        raise ValueError(f"element is not homogeneous: degrees {sorted(degrees)}")
    return degrees.pop() if degrees else None


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
        return math.prod(self.truncations)

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
        return _homogeneous({self.monomial_degree(self._check_term(t)) for t in e.terms})

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

    @cached_property
    def monomial_degrees(self) -> list[int]:
        """The degree of each normal-form monomial, numbered in mixed radix
        (the first generator most significant: lexicographic order)."""
        degrees = [0]
        for g, q in zip(self.generators, self.truncations):
            degrees = [d + e * g.degree for d in degrees for e in range(q)]
        return degrees

    @cached_property
    def _monomials(self) -> dict[int, list[tuple]]:
        # itertools.product runs in mixed radix: lexicographic in each degree
        out: dict[int, list[tuple]] = {}
        for m, d in zip(itertools.product(*map(range, self.truncations)), self.monomial_degrees):
            out.setdefault(d, []).append(m)
        return out

    def basis_in_degree(self, d: int) -> list[tuple]:
        """All normal-form monomials of degree d, lexicographic on exponents."""
        return list(self._monomials.get(d, ()))

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
    # over the nonzero entries of b only: a generator's factor has one per
    # power, however high its degree
    nonzero = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero:
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
      source degree d (degree 0 included), a tuple of row bitmasks: row i
      is the i-th basis element of degree d times the generator (missing
      degrees multiply to zero);
    * ``pairing(d)`` -- row i marks the basis elements of degree top - d
      whose product with the i-th one of degree d is the top class;
      defined when degree d has a basis and ``top`` a unique class.  It
      is built on demand, since only the duality check needs it: an
      explicit table reads it off its stored products, a factored table
      takes the Kronecker product of its factors' pairings.
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
    degrees = p.monomial_degrees  # monomials are numbered in mixed radix
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


def _bits(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _compile_explicit(t: "MultiplicationTable", dims: dict[int, int]) -> tuple:
    # every positive basis element g generates; its rows are read off the
    # stored products it takes part in (the unit row gives degree 0)
    rows: dict[int, dict[int, list[int]]] = {g: {} for g, (_, d) in enumerate(t.basis) if d}
    for (i, j), mask in t._store.items():
        for x, g in ((i, j), (j, i)):
            if g in rows:
                d = t.basis[x][1]
                rows[g].setdefault(d, [0] * dims[d])[t._local[x]] = mask
    rows = [(t.basis[g][1], {d: tuple(r) for d, r in by_d.items()}) for g, by_d in rows.items()]

    def pairing(d: int) -> tuple[int, ...]:
        # the top degree has a unique class, number 0
        out = [0] * dims[d]
        for (i, j), mask in t._store.items():
            if mask & 1 and t.basis[i][1] + t.basis[j][1] == t.top_degree:
                for x, y in ((i, j), (j, i)):
                    if t.basis[x][1] == d:
                        out[t._local[x]] |= 1 << t._local[y]
        return tuple(out)

    return tuple(rows), pairing


class IntegerBasis:
    """The basis of any ring numbered by position, degree by degree in
    ``basis_in_degree`` order: the i-th element of degree d is at position
    ``first[d] + i``, and a vector of degree d is a bitmask over those i,
    as in the compiled form and hom matrices.  A factored table multiplies
    in each factor through the factor's basis."""

    __slots__ = ("ring", "terms", "degrees", "first", "position")

    def __init__(self, ring: "Ring") -> None:
        presentation = isinstance(ring, TruncatedPresentation)
        top = ring.max_monomial_degree if presentation else ring.top_degree
        self.ring = ring
        self.terms: list = []  # exponent tuples or basis indices
        self.degrees: list[int] = []
        self.first: dict[int, int] = {}  # degree -> position of its first term
        for e in range(top + 1):
            block = ring.basis_in_degree(e) if presentation else ring._members.get(e, [])
            if block:
                self.first[e] = len(self.terms)
                self.terms += block
                self.degrees += [e] * len(block)
        self.position = {u: p for p, u in enumerate(self.terms)}

    def product(self, p: int, q: int) -> list[int]:
        """Positions of the terms of the product of positions p and q."""
        ring, u, v = self.ring, self.terms[p], self.terms[q]
        if isinstance(ring, TruncatedPresentation):
            # only normal-form monomials have a position
            w = self.position.get(tuple(map(operator.add, u, v)))
            return [] if w is None else [w]
        start = self.first.get(self.degrees[p] + self.degrees[q])
        return [] if start is None else [start + b for b in _bits(ring._pair(u, v))]

    def times(self, x: int, d: int, y: int, e: int) -> int:
        """The product of vectors x of degree d and y of degree e."""
        out, first = 0, self.first.get(d + e)
        for a in _bits(x):
            for b in _bits(y):
                for w in self.product(self.first[d] + a, self.first[e] + b):
                    out ^= 1 << w - first
        return out

    def power(self, x: int, d: int, n: int) -> int:
        """``x**n`` for a vector x of degree d, by square-and-multiply."""
        out, e = 1, 0
        while n:
            if n & 1:
                out, e = self.times(out, e, x, d), e + d
            x, d, n = self.times(x, d, x, d) if n > 1 else 0, 2 * d, n >> 1
        return out


def _compile_factored(t: "MultiplicationTable") -> tuple:
    # a basis element is a mixed-radix code over its factors' positions;
    # multiplying by a generator of factor k moves digit k only, along the
    # factor's own rows: (x.g) (x) y, or x (x) (y.h)
    at = [t._local[x] for x in t._at]  # code -> number within its degree
    rows = []
    for f, stride in zip(t._factors, t._strides):
        size = len(f.terms)
        for dg, by_e in f.ring.compiled.generator_rows:
            # shifts[p]: how x.g moves the code of an x at position p in f
            shifts = []
            for p, e in enumerate(f.degrees):
                mask = by_e[e][p - f.first[e]] if e in by_e else 0
                shifts.append([(f.first[e + dg] + b - p) * stride for b in _bits(mask)])
            by_degree = {}
            for d, members in t._members.items():
                if d + dg not in t._members:
                    continue
                out = []
                for x in members:
                    c, w = t._codes[x], 0
                    for s in shifts[c // stride % size]:
                        w |= 1 << at[c + s]
                    out.append(w)
                by_degree[d] = tuple(out)
            rows.append((dg, by_degree))

    factor_pairings: list[dict[int, tuple[int, ...]]] = [{} for _ in t._factors]

    def pairing(d: int) -> tuple[int, ...]:
        # the pairing of a tensor product is the tensor product of the
        # factor pairings
        out = []
        for x in t._members[d]:
            code, codes = t._codes[x], [0]
            for k, (f, stride) in enumerate(zip(t._factors, t._strides)):
                p = code // stride % len(f.terms)
                e = f.degrees[p]
                if e not in factor_pairings[k]:
                    factor_pairings[k][e] = f.ring.compiled.pairing(e)
                mask = factor_pairings[k][e][p - f.first[e]]
                top = f.ring.compiled.top
                codes = [s + (f.first[top - e] + b) * stride for s in codes for b in _bits(mask)]
            out.append(sum(1 << at[s] for s in codes))
        return tuple(out)

    return tuple(rows), pairing


class MultiplicationTable:
    """Finite graded GF(2) algebra given by a basis and structure constants.

    The basis is an ordered sequence of (label, degree) pairs with a
    unique degree-0 label (the unit).  The basis of each degree d is
    numbered in basis order, and an element of degree d is a bitmask over
    those numbers.  A table is one of two kinds:

    * explicit, from ``MultiplicationTable(basis, top_degree, products)``
      (space files, surfaces): each nonzero product of two basis elements
      is stored once, as a bitmask over the basis of the degree sum, and
      missing pairs are zero.  Construction validates the unit law,
      degree additivity, commutativity and associativity.
    * factored, from :func:`tensor_product` and :func:`expand_to_table`: a
      tensor product of factors (presentations or explicit tables).  Its
      products and compiled form are built from the factors', nothing
      is materialized, and the ring laws hold by construction.
    """

    def __init__(
        self,
        basis: Sequence[tuple[str, int]],
        top_degree: int,
        products: Mapping[tuple[str, str], frozenset],
    ) -> None:
        self._set_basis(basis, top_degree)
        self._factors: tuple[IntegerBasis, ...] | None = None
        self._load_products(products)
        self._validate_full()

    @classmethod
    def _from_factors(
        cls, basis: list[tuple[str, int]], top: int, factors: tuple[IntegerBasis, ...],
        codes: list[int],
    ) -> "MultiplicationTable":
        # codes[x] is basis element x as a mixed-radix number over the
        # factors' positions, the first factor most significant
        t = cls.__new__(cls)
        t._set_basis(basis, top)
        t._factors, t._codes = factors, codes
        t._at = sorted(range(len(codes)), key=codes.__getitem__)  # code -> basis index
        sizes = [len(f.terms) for f in factors]
        t._strides = [math.prod(sizes[k + 1 :]) for k in range(len(sizes))]
        return t

    # -- construction helpers -------------------------------------------

    def _set_basis(self, basis: Sequence[tuple[str, int]], top_degree: int) -> None:
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
        self._members: dict[int, list[int]] = {}  # degree -> basis indices, in order
        self._local: list[int] = []  # basis index -> number within its degree
        for i, (l, d) in enumerate(self.basis):
            if d < 0 or d > self.top_degree:
                raise ValueError(f"basis element {l!r} has degree {d} outside 0..{self.top_degree}")
            members = self._members.setdefault(d, [])
            self._local.append(len(members))
            members.append(i)

    def _load_products(self, products: Mapping[tuple[str, str], frozenset]) -> None:
        """Store each nonzero product once, under its index-ordered pair
        (commutativity), as a bitmask over the basis of the degree sum."""
        given: dict[tuple[int, int], int] = {}
        for (la, lb), val in products.items():
            if la not in self._index or lb not in self._index:
                raise ValueError(f"product entry references unknown label: {(la, lb)}")
            terms = frozenset(val.terms if isinstance(val, Element) else val)
            d = self._degree[la] + self._degree[lb]
            if terms and d > self.top_degree:
                raise ValueError(f"product {la}*{lb} exceeds top degree but is nonzero")
            for t in terms:
                if t not in self._index:
                    raise ValueError(f"product {la}*{lb} references unknown label {t!r}")
                if self._degree[t] != d:
                    raise ValueError(
                        f"product {la}*{lb} not degree-additive: {t!r} has degree "
                        f"{self._degree[t]}, expected {d}"
                    )
            i, j = sorted((self._index[la], self._index[lb]))
            mask = sum(1 << self._local[self._index[t]] for t in terms)
            if given.setdefault((i, j), mask) != mask:
                raise ValueError(f"conflicting entries for product {la}*{lb}")
        # unit row is forced, not data
        u = self._index[self.unit_label]
        for i, (l, _) in enumerate(self.basis):
            if given.setdefault((min(u, i), max(u, i)), 1 << self._local[i]) != 1 << self._local[i]:
                raise ValueError(f"unit law violated at {l!r}")
        self._store = {key: mask for key, mask in given.items() if mask}

    def _validate_full(self) -> None:
        # (xy)z = x(yz) = (yz)x holds trivially when both xy and yz vanish,
        # with the unit (its row is forced) and above the top degree (both
        # sides vanish there); so with x, y a stored positive pair in either
        # order and z free, every triple that can fail is checked
        degree = [d for _, d in self.basis]
        positive = sorted((i for i, d in enumerate(degree) if d > 0), key=degree.__getitem__)
        degrees = [degree[i] for i in positive]

        def times(x: int, y: int, z: int) -> int:  # (xy)z, as a bitmask
            members = self._members.get(degree[x] + degree[y], ())
            xy = _bits(self._pair(x, y))
            return reduce(operator.xor, (self._pair(members[b], z) for b in xy), 0)

        for i, j in self._store:
            if not degree[i] or not degree[j]:
                continue
            room = self.top_degree - degree[i] - degree[j]
            for x, y in ((i, j), (j, i)):
                for z in positive[: bisect.bisect_right(degrees, room)]:
                    if times(x, y, z) != times(y, z, x):
                        names = ", ".join(self.basis[k][0] for k in (x, y, z))
                        raise ValueError(f"associativity fails on ({names})")

    def _pair(self, i: int, j: int) -> int:
        """Product of basis elements i and j, as a bitmask over the basis of
        their degree sum."""
        if self._factors is None:
            return self._store.get((i, j) if i <= j else (j, i), 0)
        ci, cj, codes = self._codes[i], self._codes[j], [0]
        for f, stride in zip(self._factors, self._strides):
            size = len(f.terms)
            out = f.product(ci // stride % size, cj // stride % size)
            if not out:
                return 0
            codes = [c + p * stride for c in codes for p in out]
        return sum(1 << self._local[self._at[c]] for c in codes)

    def _products(self) -> dict[tuple[int, int], int]:
        """Every nonzero product of basis elements i <= j, as a bitmask."""
        if self._factors is None:
            return self._store
        # a product of basis tensors is nonzero iff every factor product is
        pairs = [
            [(p * s, q * s) for p, q in itertools.product(range(len(f.terms)), repeat=2)
             if f.product(p, q)]
            for f, s in zip(self._factors, self._strides)
        ]
        out = {}
        for combo in itertools.product(*pairs):
            i, j = self._at[sum(p for p, _ in combo)], self._at[sum(q for _, q in combo)]
            if i <= j:
                out[i, j] = self._pair(i, j)
        return out

    def _as_factors(self) -> tuple[tuple[IntegerBasis, ...], list[int]]:
        """This table's factors and basis codes; an explicit table is its
        own single factor."""
        if self._factors is not None:
            return self._factors, self._codes
        f = IntegerBasis(self)
        return (f,), [f.first[d] + self._local[i] for i, (_, d) in enumerate(self.basis)]

    def __eq__(self, other: object) -> bool:
        """Structural equality: same basis, top degree, and all products;
        factored tables with equal codes and factor rings need no products."""
        if not isinstance(other, MultiplicationTable):
            return NotImplemented
        if self.basis != other.basis or self.top_degree != other.top_degree:
            return False
        mine, theirs = self._factors, other._factors
        if mine is None and theirs is None:
            return self._store == other._store
        if mine and theirs and [f.ring for f in mine] == [f.ring for f in theirs]:
            return self._codes == other._codes or self._products() == other._products()
        return self._products() == other._products()

    def __hash__(self) -> int:
        return hash((self.basis, self.top_degree))

    # -- structure -------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.basis)

    @cached_property
    def compiled(self) -> CompiledRing:
        """The integer-indexed form, built on first use: read off the
        stored products, or built from the factors' compiled forms."""
        dims = {d: len(members) for d, members in self._members.items()}
        if self._factors is None:
            return CompiledRing(self.top_degree, dims, *_compile_explicit(self, dims))
        return CompiledRing(self.top_degree, dims, *_compile_factored(self))

    def degree_of_label(self, label: str) -> int:
        try:
            return self._degree[label]
        except KeyError:
            raise ValueError(f"unknown basis label {label!r}") from None

    def unit(self) -> Element:
        return Element.of(self.unit_label)

    def basis_in_degree(self, d: int) -> list[str]:
        return [self.basis[i][0] for i in self._members.get(d, ())]

    def poincare_polynomial(self) -> list[int]:
        return [len(self._members.get(d, ())) for d in range(self.top_degree + 1)]

    def element_degree(self, e: Element) -> int | None:
        return _homogeneous({self.degree_of_label(self._check_term(t)) for t in e.terms})

    def _check_term(self, t: Term) -> str:
        if not isinstance(t, str) or t not in self._index:
            raise ValueError(f"term {t!r} does not belong to this table")
        return t

    # -- arithmetic --------------------------------------------------------

    def product(self, la: str, lb: str) -> frozenset:
        """Structure constants: the product of two basis elements as a label set."""
        i, j = self._index[self._check_term(la)], self._index[self._check_term(lb)]
        members = self._members.get(self.basis[i][1] + self.basis[j][1], ())
        return frozenset(self.basis[members[b]][0] for b in _bits(self._pair(i, j)))

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
    products on every basis pair (no extra truncation happens).  The
    table is factored, with the presentation as its one factor: nothing
    is materialized, and its compiled form is the presentation's.
    """
    f = IntegerBasis(p)
    labels = [p.monomial_label(m) for m in f.terms]
    if len(set(labels)) != len(labels):
        raise ValueError("generator names produce ambiguous monomial labels")
    basis = list(zip(labels, f.degrees))
    top = max(p.top_degree, f.degrees[-1])
    return MultiplicationTable._from_factors(basis, top, (f,), list(range(len(basis))))


def tensor_product(a: Ring, b: Ring) -> Ring:
    """Tensor product over GF(2), in the same representation kind.

    For presentations: disjoint union of generators (name collisions
    are renamed with numeric suffixes and reported); truncations keep
    their generator; top degrees add.  For tables: basis is the pair
    basis, in order of a's basis then b's, with componentwise products,
    again with top degrees added; the result is a factored table whose
    factors are those of a followed by those of b (an explicit table is
    one factor), so its products and compiled form are built from
    theirs.  Over a field this realizes the Kunneth ring of a product
    space.
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
    factors_a, codes_a = a._as_factors()
    factors_b, codes_b = b._as_factors()
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
            basis.append((name, da + db))
    codes = [x * b.size + y for x in codes_a for y in codes_b]
    return MultiplicationTable._from_factors(
        basis, a.top_degree + b.top_degree, factors_a + factors_b, codes
    )


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
    for d in range(0, n // 2 + 1):
        left, right = c.dims.get(d, 0), c.dims.get(n - d, 0)
        if left != right or left and len(XorBasis(c.pairing(d))) != left:
            return False
    return True
