"""A label-level reference algebra: elements as sets of exponent tuples or
basis labels, multiplied term by term, with no integer forms.

lscat computes on positions, a map's images and evaluated expressions
included, and meets labels only in ``CompiledRing.vector`` and
``element``; the tests check it against these definitions, whose products
read nothing lscat computes, and give an element to lscat as a vector
through :func:`vector`.  A presentation adds exponent tuples
and drops a sum past a truncation.  A table multiplies as it was built,
so the tests build the tables they check through this module: an
explicit one by :func:`table` reads the product entries it was given, a
presentation's expansion by :func:`expansion` adds exponents, and a
tensor product by :func:`tensor` multiplies in each factor, its basis
index mixed radix over the two factors' bases, in ``tensor_product``
order.
"""

from __future__ import annotations

import itertools

from lscat.rings import (
    Element,
    MultiplicationTable,
    TruncatedPresentation,
    expand_to_table,
    tensor_product,
)

from oracles import brute_basis_in_degree

# id(table) -> (table, the product of two of its labels as a label set); the
# table is kept so that its id is not reused
_PRODUCTS: dict[int, tuple] = {}


def _built(t: MultiplicationTable, product) -> MultiplicationTable:
    _PRODUCTS[id(t)] = (t, product)
    return t


def table(basis, top: int, products) -> MultiplicationTable:
    """An explicit table; the reference reads its products from ``products``
    (a pair given in either order; the unit row is the unit law)."""
    one = next(l for l, d in basis if d == 0)

    def product(x: str, y: str) -> set:
        if one in (x, y):
            return {y if x == one else x}
        return set(products.get((x, y), products.get((y, x), ())))

    return _built(MultiplicationTable(basis, top, products), product)


def surface(g: int) -> MultiplicationTable:
    """The genus-g surface's table, as ``catalogue.surface_table`` lists it."""
    basis = [("1", 0)] + [(f"{c}{i}", 1) for c in "ab" for i in range(1, g + 1)] + [("w", 2)]
    return table(basis, 2, {(f"a{i}", f"b{i}"): frozenset({"w"}) for i in range(1, g + 1)})


def _monomial(p: TruncatedPresentation, exps) -> str:
    named = (g.name if e == 1 else f"{g.name}^{e}" for g, e in zip(p.generators, exps) if e)
    return "*".join(named) or "1"


def expansion(p: TruncatedPresentation) -> MultiplicationTable:
    """``expand_to_table(p)``; the reference multiplies its monomial labels
    by adding exponents."""
    exps = {_monomial(p, m): m for m in itertools.product(*map(range, p.truncations))}

    def product(x: str, y: str) -> set:
        s = tuple(a + b for a, b in zip(exps[x], exps[y]))
        return {_monomial(p, s)} if all(e < q for e, q in zip(s, p.truncations)) else set()

    return _built(expand_to_table(p), product)


def tensor(a, b) -> MultiplicationTable:
    """``tensor_product(a, b)`` of two rings, one a table built here; a
    presentation takes part as its :func:`expansion`."""
    a, b = (expansion(r) if isinstance(r, TruncatedPresentation) else r for r in (a, b))
    t = tensor_product(a, b)
    labels, n = [l for l, _ in t.basis], b.size
    index = {l: k for k, l in enumerate(labels)}
    a_labels, b_labels = [l for l, _ in a.basis], [l for l, _ in b.basis]
    a_index, b_index = ({l: k for k, l in enumerate(ls)} for ls in (a_labels, b_labels))

    def product(x: str, y: str) -> set:
        (i, j), (k, m) = divmod(index[x], n), divmod(index[y], n)
        return {
            labels[a_index[u] * n + b_index[v]]
            for u in _product(a)(a_labels[i], a_labels[k])
            for v in _product(b)(b_labels[j], b_labels[m])
        }

    return _built(t, product)


def _product(t: MultiplicationTable):
    if id(t) not in _PRODUCTS:
        raise KeyError("the reference multiplies only tables built by label_algebra")
    return _PRODUCTS[id(t)][1]


def basis_in_degree(ring, d: int) -> list:
    """The basis of degree d in the compiled form's order: a presentation's
    normal-form monomials, lexicographic on exponents, or a table's labels,
    in basis order."""
    if isinstance(ring, TruncatedPresentation):
        return brute_basis_in_degree(ring, d)
    return [l for l, e in ring.basis if e == d]


def vector(ring, e: Element) -> dict[int, int]:
    """``e`` as a vector of ``ring``'s compiled form, the form of a map's
    images and of ``spacefile.element_from_monomials``."""
    return ring.compiled.vector(e)


def unit(ring) -> Element:
    if isinstance(ring, TruncatedPresentation):
        return Element.of((0,) * len(ring.generators))
    return Element.of(ring.unit_label)


def generator(p: TruncatedPresentation, name: str) -> Element:
    """A presentation generator as an element; zero when truncated at 1."""
    return multiply(p, unit(p), Element.of(tuple(int(g.name == name) for g in p.generators)))


def multiply(ring, a: Element, b: Element) -> Element:
    acc: set = set()
    for s in a.terms:
        for t in b.terms:
            if isinstance(ring, TruncatedPresentation):
                prod = tuple(x + y for x, y in zip(s, t))
                if all(e < p for e, p in zip(prod, ring.truncations)):
                    acc ^= {prod}
            else:
                acc ^= _product(ring)(s, t)
    return Element(frozenset(acc))


def power(ring, e: Element, n: int) -> Element:
    """``e**n`` by square-and-multiply, so that huge exponents stay cheap."""
    out = unit(ring)
    while n:
        if n & 1:
            out = multiply(ring, out, e)
        e, n = multiply(ring, e, e), n >> 1
    return out


def evaluate(ring, monomials: list[dict[str, int]]) -> Element:
    """What ``spacefile.element_from_monomials`` must return: the sum of the
    monomials, each a product of generator or basis-label powers."""
    acc = Element()
    for mono in monomials:
        if isinstance(ring, TruncatedPresentation):
            names = [g.name for g in ring.generators]
            exps = [0] * len(names)
            for name, exp in mono.items():
                exps[names.index(name)] += exp
            if all(e < p for e, p in zip(exps, ring.truncations)):
                acc += Element.of(tuple(exps))
        else:
            term = unit(ring)
            for name, exp in mono.items():
                term = multiply(ring, term, power(ring, Element.of(name), exp))
            acc += term
    return acc
