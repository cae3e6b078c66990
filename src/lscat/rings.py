"""Graded-commutative algebras over the two-element field.

Two representations are supported:

* :class:`TruncatedPresentation` -- a polynomial algebra on generators
  ``b_i`` modulo pure truncation relations ``b_i**p_i = 0``.  Normal
  forms are exponent vectors bounded strictly by the truncations, so
  reduction is confluent without any Groebner machinery.
* :class:`MultiplicationTable` -- a finite algebra given by a basis per
  degree and structure constants, for rings (surfaces) whose relations
  are not pure powers; tensor products with a table and expansions of
  presentations are tables too, factored into their factors.

Each ring builds one integer form on first use, ``ring.compiled`` (a
:class:`CompiledRing`): its basis numbered degree by degree, with the
products, search rows and duality pairing on those numbers; a
presentation compiles as the tensor product of its factors k[x]/(x^q),
as a factored table does.  The cup-length search, the duality check,
hom validation, file expressions and factored tables all run on it, and
a map's images are its vectors.  An :class:`Element` (exponent tuples or
basis labels) meets those numbers only in the label-level ``multiply``.

Coefficients are fixed to GF(2): an element is a finite set of basis
terms, addition is symmetric difference, and no signs ever appear.
All ring objects are immutable after construction and safe to share.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import Counter
from collections.abc import Mapping, Sequence
from functools import cached_property, reduce

from ._record import Record
from .gf2 import XorBasis

Term = tuple | str


class GeneratorSpec(Record):
    """A polynomial generator: a name and a positive degree."""

    name: str
    degree: int

    def validate(self) -> None:
        if self.degree < 1:
            raise ValueError(f"generator {self.name!r} must have degree >= 1")


class Element(Record):
    """A sum of basis terms with implicit coefficient 1 over GF(2).

    Terms are exponent tuples for presentations or basis labels for
    tables; the owning ring interprets them.  ``e + e == 0`` because
    addition is symmetric difference of term sets.
    """

    terms: frozenset = frozenset()

    @classmethod
    def of(cls, *terms: Term) -> "Element":
        return cls(frozenset(terms))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Element") -> "Element":
        return Element(self.terms ^ other.terms)


class _Ring:
    """What both ring kinds share: ``factors`` (None for an explicit table),
    the integer form, the views read off them, and the invariants."""

    @cached_property
    def compiled(self) -> "CompiledRing":
        """The integer form, built on first use."""
        return CompiledRing(self)

    @cached_property
    def invariants(self) -> dict[str, object]:
        """The invariants ``bounds`` computed for the ring, by name, freed with it."""
        return {}

    @property
    def tensor_factors(self) -> tuple:
        """The factors the ring is the tensor product of; an explicit table
        is its own single factor, its compiled form."""
        return (self.compiled,) if self.factors is None else self.factors

    @cached_property
    def basis_count(self) -> int:
        """The number of basis elements: the product of the factors' sizes."""
        return math.prod(len(f.degrees) ** m for f, m in Counter(self.tensor_factors).items())

    @cached_property
    def _series(self) -> tuple[int, ...]:
        powers = [_power(f.dims, m) for f, m in Counter(self.tensor_factors).items()]
        poly = reduce(_convolve, powers) if powers else {0: 1}
        return tuple(poly.get(d, 0) for d in range(self.top_degree + 1))

    def poincare_polynomial(self) -> list[int]:
        """Basis counts per degree, 0..top_degree: the factors' series
        multiplied, each distinct factor's raised to its multiplicity at once.
        Computed once per ring; each call returns a fresh list."""
        return list(self._series)

    def has_middle_square(self) -> bool:
        """Whether some class of degree top/2 has a nonzero square, read off
        the factors.  Squaring is additive mod 2 and squares a basis tensor
        factor by factor, so one does iff the factors' tops sum to the
        ring's and each factor has a basis element of half its top with a
        nonzero square."""
        factors = self.tensor_factors
        return all(map(_has_middle_square, factors)) and sum(
            f.top for f in factors) == self.top_degree

    def multiply(self, a: Element, b: Element) -> Element:
        """Cup product, on the compiled form."""
        c = self.compiled
        out: dict[int, int] = {}
        vb = c.vector(b)
        for d, x in c.vector(a).items():
            for e, y in vb.items():
                out[d + e] = out.get(d + e, 0) ^ c.times(x, d, y, e)
        return c.element(out)


class TruncatedPresentation(_Ring, Record):
    """GF(2) polynomial algebra truncated by pure power relations.

    ``truncations[i] == p_i`` means ``generators[i]**p_i == 0``; a
    truncation of 1 makes the generator itself zero.  ``top_degree`` is
    the formal dimension of the space the ring models; multiplication
    never truncates at ``top_degree`` (only the power relations act), so
    construction refuses a normal-form monomial above it: the ring of a
    closed manifold of that dimension has none.
    """

    generators: tuple[GeneratorSpec, ...]
    truncations: tuple[int, ...]
    top_degree: int

    def validate(self) -> None:
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
            raise ValueError(f"presentation has monomials of degree {self.max_monomial_degree} "
                             f"above top_degree {self.top_degree}; not a closed-manifold ring")

    # -- structure -----------------------------------------------------

    @cached_property
    def max_monomial_degree(self) -> int:
        return sum((p - 1) * g.degree for g, p in zip(self.generators, self.truncations))

    @cached_property
    def total_dimension(self) -> int:
        """Number of normal-form monomials."""
        return math.prod(self.truncations)

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
    def factors(self) -> tuple[_Monogenic, ...]:
        """The tensor factors k[x]/(x^q), one per generator."""
        return tuple(_Monogenic(g.degree, q) for g, q in zip(self.generators, self.truncations))

    def monomial_label(self, exps: Sequence[int]) -> str:
        parts = []
        for g, e in zip(self.generators, exps):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append(f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"


def _convolve(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """The product of two series given as ``{degree: count}``."""
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def _power(p: Mapping[int, int], m: int) -> Mapping[int, int]:
    """The series p, p[0] = 1, to the m-th power, by J. C. P. Miller's
    recurrence n a_n = sum over k > 0 of ((m+1)k - n) p_k a_(n-k): each
    a_n is one division by n, exact over the integers since a_0 = 1."""
    if m == 1:
        return p
    terms = [(k, c) for k, c in p.items() if k]
    a = [1]
    for n in range(1, m * max(p) + 1):
        s = 0
        for k, c in terms:
            if k <= n and (x := a[n - k]):  # one big-integer product; 0 + x would copy x
                s = s + ((m + 1) * k - n) * c * x if s else ((m + 1) * k - n) * c * x
        a.append(s // n)
    return {n: x for n, x in enumerate(a) if x}


class _Monogenic(Record):
    """k[x]/(x^q), x of degree g: a presentation's factor per generator.
    Position e is x^e, alone in degree e*g, so products, rows (x^e x is
    x^(e+1)) and pairing (x^e x^(q-1-e) is the top class) are closed forms.
    The record is (g, q); its tables are built when first read, so a huge q
    costs nothing until a command enumerates the factor."""

    degree: int
    truncation: int

    ring = property(lambda self: self)  # what factors compare by, as a compiled form's ring
    degrees = cached_property(lambda self: range(0, self.truncation * self.degree, self.degree))
    top = cached_property(lambda self: (self.truncation - 1) * self.degree)
    first = cached_property(lambda self: {d: e for e, d in enumerate(self.degrees)})
    dims = cached_property(lambda self: dict.fromkeys(self.degrees, 1))
    generator_rows = cached_property(lambda self: (  # nonzero rows only, as an explicit factor's
        ((self.degree, dict.fromkeys(self.degrees[:-1], {0: 1})),) if self.truncation > 1 else ()))

    def product(self, p: int, r: int) -> list[int]:
        return [p + r] if p + r < self.truncation else []

    def pairing(self, e: int) -> tuple[int, ...]:
        return (1,)


def _has_middle_square(f) -> bool:
    # x^e of k[x]/(x^q) squares to the top class iff 2e = q - 1; a table's
    # basis element of half its top, by its stored square
    if isinstance(f, _Monogenic):
        return f.truncation % 2 == 1
    half, odd = divmod(f.top, 2)
    start = f.first.get(half)
    return not odd and start is not None and any(
        f.product(p, p) for p in range(start, start + f.dims[half]))


class CompiledRing:
    """The integer form of a ring, built once on first use as
    ``ring.compiled``; the cup-length search, the duality check, hom
    validation, file expressions and factored tables all read it, and a
    map's images are its vectors.

    Positions number the basis degree by degree, by a stable sort on
    degree: a presentation's monomials in mixed-radix (lexicographic)
    order, a table's labels in basis order.  The i-th element of degree d
    is at position ``first[d] + i``, and a vector of degree d is a bitmask
    over those i.

    Every ring but an explicit table is a tensor product of factors: a
    presentation of its :class:`_Monogenic` ones, a factored table of
    those and explicit tables' compiled forms.  A basis element's code is
    the mixed-radix number of its factor positions, the first factor
    most significant (a monomial's is its number).

    * ``top`` -- the degree the pairing pairs into, the ring's declared
      top degree (no basis element lies above it);
    * ``degrees[p]``, ``first[d]``, ``dims[d]`` -- the degree of position
      p, the first position of degree d and its dimension (missing
      degrees are zero);
    * ``factors``, ``strides``, ``codes`` -- the factors (None for an explicit
      table), and the strides and each position's code over ``tensor_factors``;
    * ``vector(e)``, ``element(v)`` -- an :class:`Element` as ``{degree:
      bitmask}``, and back, for the label-level ``multiply`` only;
    * ``lookups()`` -- ``(terms, position)``: the element term (exponent
      tuple or basis label) at each position, and back;
    * ``names()`` -- the position of each name a file expression or a map
      uses: a presentation's generators, a table's basis labels;
    * ``product(p, q)``, ``times``, ``power`` -- products of positions and
      of vectors; a tensor product multiplies in each factor;
    * ``generator_rows`` -- per ideal generator, its degree and, per
      source degree d (degree 0 included), its row bitmasks: row i is the
      i-th basis element of degree d times the generator (missing degrees
      multiply to zero): a factored ring's tuple, composed from its
      factors' nonzero rows, or an explicit table's ``_Rows`` of its own;
    * ``pairing(d)`` -- row i marks the basis elements of degree top - d
      whose product with the i-th one of degree d is the top class;
      defined when degree d has a basis and ``top`` a unique class.

    Lookups, rows and pairing are built on first use (the search reads
    only the rows): from an explicit table's stored products, or from
    the factors' own.
    """

    # slots, no cached_property: product() and times() run once per basis pair
    __slots__ = ("ring", "factors", "strides", "codes", "_order", "_at", "degrees", "top",
                 "first", "dims", "_lookups", "_search")

    def __init__(self, ring: "Ring") -> None:
        self.ring, self.factors = ring, ring.factors
        presentation = isinstance(ring, TruncatedPresentation)
        degrees = ring.monomial_degrees if presentation else [d for _, d in ring.basis]
        # position -> basis index, or monomial number
        self._order = sorted(range(len(degrees)), key=degrees.__getitem__)
        self.degrees = sorted(degrees)
        self.top = ring.top_degree
        self.first = {d: bisect.bisect_left(self.degrees, d) for d in dict.fromkeys(self.degrees)}
        self.dims = {d: bisect.bisect_right(self.degrees, d) - p for d, p in self.first.items()}
        sizes = [len(f.degrees) for f in self.factors or (self,)]
        self.strides = [math.prod(sizes[k + 1 :]) for k in range(len(sizes))]
        self.codes = range(len(degrees)) if self.factors is None else (  # its own factor
            self._order if presentation else [ring._codes[i] for i in self._order])
        self._at = sorted(range(len(self.codes)), key=self.codes.__getitem__)  # code -> position
        self._lookups = self._search = None  # built on first use

    def lookups(self) -> tuple[list[Term], dict[Term, int]]:
        if self._lookups is None:
            if isinstance(self.ring, TruncatedPresentation):
                terms = list(itertools.product(*map(range, self.ring.truncations)))
            else:
                terms = [l for l, _ in self.ring.basis]
            terms = [terms[c] for c in self._order]
            self._lookups = terms, {u: p for p, u in enumerate(terms)}
        return self._lookups

    def names(self) -> dict[str, int | None]:
        """A presentation's generator names at their positions (None for one
        truncated at 1, which is zero), or a table's basis labels at theirs."""
        if isinstance(self.ring, TruncatedPresentation):
            # generator i is the monomial numbered by its stride (mixed radix)
            return {g.name: self._at[s] if q > 1 else None
                    for g, q, s in zip(self.ring.generators, self.ring.truncations, self.strides)}
        return self.lookups()[1]

    def vector(self, e: Element) -> dict[int, int]:
        """``e`` as ``{degree: bitmask}``; raises ValueError for a term not
        in the ring."""
        position = (self._lookups or self.lookups())[1]
        out: dict[int, int] = {}
        for t in e.terms:
            p = position.get(t)
            if p is None:
                raise ValueError(f"term {t!r} does not belong to this ring")
            d = self.degrees[p]
            out[d] = out.get(d, 0) | 1 << p - self.first[d]
        return out

    def element(self, v: Mapping[int, int]) -> Element:
        """The element of a ``{degree: bitmask}`` vector."""
        terms = (self._lookups or self.lookups())[0]
        return Element(frozenset(terms[self.first[d] + b] for d, x in v.items() for b in _bits(x)))

    def _rows_and_pairing(self) -> tuple:
        if self._search is None:
            self._search = (_compile_explicit if self.factors is None else _compile_factored)(self)
        return self._search

    @property
    def generator_rows(self) -> tuple[tuple[int, dict[int, tuple[int, ...] | _Rows]], ...]:
        return self._rows_and_pairing()[0]

    def pairing(self, d: int) -> tuple[int, ...]:
        return self._rows_and_pairing()[1](d)

    def product(self, p: int, q: int) -> list[int]:
        """Positions of the terms of the product of positions p and q."""
        if not p or not q:  # position 0 is the unit, in every ring kind
            return [p + q]
        start = self.first.get(self.degrees[p] + self.degrees[q])
        if start is None:
            return []
        if self.factors is None:
            return [start + b for b in _bits(self.ring._store.get((p, q) if p <= q else (q, p), 0))]
        # a product of basis tensors multiplies in each factor
        out, cp, cq = [0], self.codes[p], self.codes[q]
        for f, stride in zip(self.factors, self.strides):
            size = len(f.degrees)
            ws = f.product(cp // stride % size, cq // stride % size)
            if not ws:
                return []
            if len(ws) == len(out) == 1:  # most factor products are one term
                out[0] += ws[0] * stride
            else:
                out = [c + w * stride for c in out for w in ws]
        return [self._at[c] for c in out]

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


def _bits(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Rows(dict):
    """Rows by index, the nonzero ones only: a missing row reads 0 and stays missing."""

    def __missing__(self, i: int) -> int:
        return 0


def _compile_explicit(c: CompiledRing) -> tuple:
    # every positive basis element g generates, in basis order; its rows are
    # the unit's in degree 0 and read off the stored products it takes part
    # in, so a genus-g surface keeps O(g) rows, not (2g)^2
    t, degrees, first, dims = c.ring, c.degrees, c.first, c.dims
    rows = {g: {0: _Rows({0: 1 << g - first[degrees[g]]})} for g in t._codes if g}
    for (i, j), mask in t._store.items():
        for x, g in ((i, j), (j, i)):
            if g in rows:
                d = degrees[x]
                rows[g].setdefault(d, _Rows())[x - first[d]] = mask

    def pairing(d: int) -> tuple[int, ...]:
        # the top degree has a unique class, number 0, which the unit pairs with
        out = [int(d in (0, c.top) and c.top in dims)] + [0] * (dims[d] - 1)
        for (i, j), mask in t._store.items():
            if mask & 1 and degrees[i] + degrees[j] == c.top:
                for x, y in ((i, j), (j, i)):
                    if degrees[x] == d:
                        out[x - first[d]] |= 1 << y - first[c.top - d]
        return tuple(out)

    return tuple((degrees[g], by_d) for g, by_d in rows.items()), pairing


def _compile_factored(c: CompiledRing) -> tuple:
    # a generator of factor k moves a code's digit k only, along the factor's
    # own rows: (x.g) (x) y, or x (x) (y.h); the pairing moves every digit.
    # Layer j of a factor holds each position's j-th term, n for none
    first, dims, codes, n = c.first, c.dims, c.codes, len(c.codes)
    bit = [1 << p - first[c.degrees[p]] for p in c._at] + [0] * n  # code -> bit in its degree, or 0

    def layers(terms: list[list[int]]) -> list[list[int]]:
        return [[t[j] if j < len(t) else n for t in terms] for j in range(max(map(len, terms)))]

    rows = []
    for f, stride in zip(c.factors, c.strides):
        for dg, by_e in f.generator_rows:
            # code offsets: x.g for each x at position p in f with a nonzero row
            moves = [()] * len(f.degrees)
            for e, by_i in by_e.items():
                for i, row in by_i.items():
                    p = f.first[e] + i
                    moves[p] = [(f.first[e + dg] + b - p) * stride for b in _bits(row)]
            image = [0] * n  # per position
            for layer in layers(moves):
                offset = [o for o in layer for _ in range(stride)] * (n // (len(layer) * stride))
                image = [w | bit[code + offset[code]] for w, code in zip(image, codes)]
            rows.append((dg, {d: tuple(image[start : start + dims[d]])
                              for d, start in first.items() if d + dg <= c.top}))

    partners: list[int] | None = None

    def pairing(d: int) -> tuple[int, ...]:
        # the tensor product of the factor pairings: a term per choice of
        # layers, its code composed factor by factor
        nonlocal partners
        if partners is None:
            choices = [
                layers([[f.first[f.top - e] + b for b in _bits(mask)]
                        for e in f.first for mask in f.pairing(e)])
                for f in c.factors
            ]
            partners = [0] * n  # per position
            for choice in itertools.product(*choices):
                sums = [0]
                for f, layer in zip(c.factors, choice):
                    size = len(f.degrees)
                    sums = [s * size + t for s in sums for t in layer]
                partners = [w | bit[min(sums[code], n)] for w, code in zip(partners, codes)]
        return tuple(partners[first[d] : first[d] + dims[d]])

    return tuple(rows), pairing


class TableEntryError(ValueError):
    """A basis element of an explicit table lies outside its degrees, or a
    product entry breaks a ring law; ``entry`` is the element's label or the
    entry's key, so that a file reader can name its line."""

    def __init__(self, message: str, entry: str | tuple[str, str]):
        super().__init__(message)
        self.entry = entry


class MultiplicationTable(_Ring):
    """Finite graded GF(2) algebra given by a basis and structure constants.

    The basis is an ordered sequence of (label, degree) pairs with a
    unique degree-0 label (the unit).  The compiled form numbers the basis
    of each degree d in basis order, and an element of degree d is a
    bitmask over those numbers.  A table is one of two kinds:

    * explicit, from ``MultiplicationTable(basis, top_degree, products)``
      (space files, surfaces): each nonzero product of two positive basis
      elements is stored once, under the pair of their compiled positions,
      as a bitmask over the basis of the degree sum; missing pairs are
      zero, and the unit's are the unit law's.  Construction validates
      the unit law, degree additivity, commutativity and associativity.
    * factored, from :func:`tensor_product` and :func:`expand_to_table`: a
      tensor product of factors, each a presentation's monogenic factor
      k[x]/(x^q) or an explicit table's compiled form.  Its products and
      compiled form are built from theirs, nothing is materialized, and
      the ring laws hold by construction.
    """

    def __init__(
        self,
        basis: Sequence[tuple[str, int]],
        top_degree: int,
        products: Mapping[tuple[str, str], frozenset],
    ) -> None:
        self._set_basis(basis, top_degree)
        self.factors: tuple | None = None
        self._load_products(products)
        self._codes = sorted(range(self.size), key=self.compiled._order.__getitem__)  # positions
        self._validate_full()

    @classmethod
    def _from_factors(
        cls, basis: list[tuple[str, int]], top: int, factors: tuple, codes: list[int]
    ) -> "MultiplicationTable":
        # codes[x] is basis element x as a mixed-radix number over the
        # factors' positions, the first factor most significant
        t = cls.__new__(cls)
        t._set_basis(basis, top)
        t.factors, t._codes = factors, codes
        return t

    # -- construction helpers -------------------------------------------

    def _set_basis(self, basis: Sequence[tuple[str, int]], top_degree: int) -> None:
        self.basis: tuple[tuple[str, int], ...] = tuple((str(l), int(d)) for l, d in basis)
        self.top_degree = int(top_degree)
        labels = [l for l, _ in self.basis]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate basis labels")
        units = [l for l, d in self.basis if d == 0]
        if len(units) != 1:
            raise ValueError(f"need exactly one degree-0 basis element, got {units}")
        self.unit_label = units[0]
        for l, d in self.basis:
            if d < 0 or d > self.top_degree:
                raise TableEntryError(
                    f"basis element {l!r} has degree {d} outside 0..{self.top_degree}", l)

    def _load_products(self, products: Mapping[tuple[str, str], frozenset]) -> None:
        """Store each nonzero product of positive elements once, under its
        position-ordered pair (commutativity), as a bitmask over the basis
        of the degree sum; one with the unit is checked, not stored."""
        c = self.compiled
        (labels, position), degrees, first = c.lookups(), c.degrees, c.first
        given: dict[tuple[int, int], int] = {}
        for entry, val in products.items():
            la, lb = entry
            if la not in position or lb not in position:
                raise TableEntryError(f"product entry references unknown label: {entry}", entry)
            terms = frozenset(val.terms if isinstance(val, Element) else val)
            p, q = sorted((position[la], position[lb]))
            d = degrees[p] + degrees[q]
            if terms and d > self.top_degree:
                raise TableEntryError(f"product {la}*{lb} exceeds top degree but is nonzero", entry)
            for t in terms:
                if t not in position:
                    raise TableEntryError(
                        f"product {la}*{lb} references unknown label {t!r}", entry)
                if degrees[position[t]] != d:
                    raise TableEntryError(
                        f"product {la}*{lb} not degree-additive: {t!r} has degree "
                        f"{degrees[position[t]]}, expected {d}", entry)
            mask = sum(1 << position[t] - first[d] for t in terms)
            if p == 0 and mask != 1 << q - first[d]:  # the unit is position 0
                raise TableEntryError(f"unit law violated at {labels[q]!r}", entry)
            if p and given.setdefault((p, q), mask) != mask:
                raise TableEntryError(f"conflicting entries for product {la}*{lb}", entry)
        self._store = {key: mask for key, mask in given.items() if mask}

    def _validate_full(self) -> None:
        # (xy)z = x(yz) = (yz)x holds trivially when both xy and yz vanish,
        # with the unit and above the top degree (both sides vanish there);
        # so with x, y a stored pair in either order and z positive, every
        # triple that can fail is checked
        c, store = self.compiled, self._store
        degrees, order = c.degrees, c._order

        def times(x: int, y: int, z: int) -> int:  # (xy)z, as a bitmask
            pairs = ((w, z) if w <= z else (z, w) for w in c.product(x, y))
            return reduce(operator.xor, (store.get(pair, 0) for pair in pairs), 0)

        for key in store:
            i, j = sorted(key, key=order.__getitem__)  # in basis order, as reported
            room = self.top_degree - degrees[i] - degrees[j]
            for x, y in ((i, j), (j, i)):
                # the positive positions, up to degree room
                for z in range(1, bisect.bisect_right(degrees, room)):
                    if times(x, y, z) != times(y, z, x):
                        names = ", ".join(c.lookups()[0][k] for k in (x, y, z))
                        raise ValueError(f"associativity fails on ({names})")

    def _products(self) -> dict[tuple[int, int], int]:
        """Every nonzero product of positive basis elements i <= j (basis
        indices), as a bitmask."""
        c = self.compiled
        order = c._order
        if c.factors is None:
            return {tuple(sorted((order[p], order[q]))): m for (p, q), m in self._store.items()}
        # a product of basis tensors is nonzero iff every factor product is
        pairs = [
            [(p * s, q * s) for p, q in itertools.product(range(len(f.degrees)), repeat=2)
             if f.product(p, q)]
            for f, s in zip(c.factors, c.strides)
        ]
        out = {}
        for combo in itertools.product(*pairs):
            p, q = c._at[sum(x for x, _ in combo)], c._at[sum(y for _, y in combo)]
            if p and q and order[p] <= order[q]:
                start = c.first[c.degrees[p] + c.degrees[q]]
                out[order[p], order[q]] = sum(1 << w - start for w in c.product(p, q))
        return out

    def __eq__(self, other: object) -> bool:
        """Structural equality: same basis, top degree, and all products;
        factored tables with equal codes and factor rings need no products."""
        if not isinstance(other, MultiplicationTable):
            return NotImplemented
        if self.basis != other.basis or self.top_degree != other.top_degree:
            return False
        mine, theirs = self.factors, other.factors
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

    # -- arithmetic --------------------------------------------------------

    def product(self, la: str, lb: str) -> frozenset:
        """Structure constants: the product of two basis elements as a label set."""
        return self.multiply(Element.of(la), Element.of(lb)).terms


Ring = TruncatedPresentation | MultiplicationTable


def expand_to_table(p: TruncatedPresentation) -> MultiplicationTable:
    """Rewrite a presentation as a multiplication table on its monomial basis.

    The basis is the presentation's monomials in position order, labelled
    ``b1^2*b3``, and the top degree is the presentation's.  The
    table is factored over the presentation's monogenic factors, with
    each monomial's code: nothing is materialized, and its compiled form
    numbers it as the presentation's.
    """
    f = p.compiled
    labels = [p.monomial_label(m) for m in f.lookups()[0]]
    if len(set(labels)) != len(labels):
        raise ValueError("generator names produce ambiguous monomial labels")
    return MultiplicationTable._from_factors(list(zip(labels, f.degrees)), p.top_degree,
                                             f.factors, f.codes)


def tensor_product(a: Ring, b: Ring) -> Ring:
    """Tensor product over GF(2) of any two rings.

    Of two presentations, a presentation: disjoint union of generators
    (a name met again takes the suffix ``_2``, ``_3``, ...);
    truncations keep their generator; top degrees add.  Otherwise a
    table, a presentation taking part as its :func:`expand_to_table`:
    basis is the pair basis, in order of a's basis then b's, with
    componentwise products, again with top degrees added (a label met
    again takes the suffix ``__2``, ``__3``, ...).  The table is
    factored, its factors those of a followed by those of b (an explicit
    table is one factor), so its products and compiled form are built
    from theirs.  Over a field this realizes the Kunneth ring of a
    product space.
    """
    if isinstance(a, TruncatedPresentation) and isinstance(b, TruncatedPresentation):
        return _tensor_presentations(a, b)
    a, b = (expand_to_table(r) if isinstance(r, TruncatedPresentation) else r for r in (a, b))
    return _tensor_tables(a, b)


def _tensor_presentations(
    a: TruncatedPresentation, b: TruncatedPresentation
) -> TruncatedPresentation:
    used = {g.name for g in a.generators}
    gens = a.generators + tuple(GeneratorSpec(_fresh(g.name, used, "_"), g.degree)
                                for g in b.generators)
    return TruncatedPresentation(gens, a.truncations + b.truncations, a.top_degree + b.top_degree)


def _tensor_tables(a: MultiplicationTable, b: MultiplicationTable) -> MultiplicationTable:
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
            basis.append((_fresh(name, used, "__"), da + db))
    codes = [x * b.size + y for x in a._codes for y in b._codes]
    return MultiplicationTable._from_factors(
        basis, a.top_degree + b.top_degree, a.tensor_factors + b.tensor_factors, codes
    )


def _fresh(name: str, used: set[str], sep: str) -> str:
    """``name``, or if used already the first free ``name + sep + k``, k >= 2;
    marked used."""
    k, fresh = 2, name
    while fresh in used:
        fresh, k = f"{name}{sep}{k}", k + 1
    used.add(fresh)
    return fresh


def check_poincare_duality(ring: Ring) -> bool:
    """Nondegeneracy of the mod-2 pairing H^d x H^(n-d) -> H^n on the
    compiled form, n the declared top degree: an explicit table's verdict
    in ``bounds.poincare_duality``, and within the limit the cross-check
    of a factored ring's verdict from its factors.

    Requires a unique top class in degree n, so a ring whose basis stops
    below n fails; for each degree d the matrix of the top-class
    coefficients of products of the degree-d and degree-(n-d) bases must
    have full rank.
    """
    c = ring.compiled
    n = ring.top_degree
    if c.dims.get(n) != 1:
        return False
    for d in {min(e, n - e) for e in c.dims}:  # each d <= n/2 with H^d or H^(n-d) nonzero
        left, right = c.dims.get(d, 0), c.dims.get(n - d, 0)
        if left != right or left and len(XorBasis(c.pairing(d))) != left:
            return False
    return True
