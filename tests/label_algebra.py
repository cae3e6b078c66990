"""A label-level reference algebra: elements as sets of exponent tuples or
basis labels, multiplied term by term, with no integer forms.

lscat keeps only one label edge (``CompiledRing.vector`` and ``element``)
and computes on positions; the tests check it against these definitions.
A presentation adds exponent tuples and drops a sum past a truncation; a
table reads each pair of labels from ``MultiplicationTable.product``, its
structure constants.
"""

from __future__ import annotations

from lscat.rings import Element, TruncatedPresentation


def unit(ring) -> Element:
    if isinstance(ring, TruncatedPresentation):
        return Element.of((0,) * ring.ngens)
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
                acc ^= ring.product(s, t)
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
            exps = [0] * ring.ngens
            for name, exp in mono.items():
                exps[ring.generator_index[name]] += exp
            if all(e < p for e, p in zip(exps, ring.truncations)):
                acc += Element.of(tuple(exps))
        else:
            term = unit(ring)
            for name, exp in mono.items():
                label = ring.unit_label if name == "1" else name
                term = multiply(ring, term, power(ring, Element.of(label), exp))
            acc += term
    return acc
