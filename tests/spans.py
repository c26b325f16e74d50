"""The span constructions ``PDot`` computes on tables, built from maps
as their definitions state them, for the tests and scripts to compare
against: the product span by ``finset.fn_product``, and the loose
composite by ``brute_pullback`` and ``finset.compose``.
``brute_pullback`` shares no code with ``finset.pullback_tables``, the
package's one pullback, so that it can check it."""

from doctrina.errors import ClassViolation, CodMismatch, ObjMismatch
from doctrina.finset import AdequateTriple, FinFn, FinSet, Pullback, compose, fn_product
from doctrina.spancat import Cospan, Span


def brute_pullback(x: FinFn, y: FinFn) -> Pullback:
    """The pullback of ``x.dom -> Z <- y.dom`` by its definition: every
    pair (a, b) with x(a) = y(b), by a double loop in lexicographic
    order, except that a pullback along an identity is the other map."""
    if x.cod != y.cod:
        raise CodMismatch(f"cospan legs disagree: {x} vs {y}")
    if y.is_identity:
        return Pullback(x.dom, FinFn.identity(x.dom), x)
    if x.is_identity:
        return Pullback(y.dom, y, FinFn.identity(y.dom))
    pairs = [
        (a, b) for a in range(x.dom.size) for b in range(y.dom.size)
        if x.table[a] == y.table[b]
    ]
    apex = FinSet(len(pairs))
    p = FinFn(apex, x.dom, tuple(a for a, _ in pairs))
    q = FinFn(apex, y.dom, tuple(b for _, b in pairs))
    return Pullback(apex, p, q)


def cospan(x: FinFn, y: FinFn) -> Cospan:
    """The cospan ``x.dom -> Z <- y.dom`` as ``SpanCategory.interchange``
    takes it: the two leg tables and the size of Z."""
    return x.table, y.table, x.cod.size


def product_span(x: Span, y: Span) -> Span:
    """x ⊗ y: each leg the product of the two legs."""
    return Span(fn_product(x.left, y.left), fn_product(x.right, y.right))


def pullback_composite(triple: AdequateTriple, x: Span, y: Span) -> Span:
    """x ; y: the projections of the chosen pullback of the middle
    cospan, followed by the outer legs, which must stay in their
    classes."""
    if x.target != y.source:
        raise ObjMismatch(f"{x} then {y}: middle objects differ")
    _, p, q = brute_pullback(x.right, y.left)
    left, right = compose(p, x.left), compose(q, y.right)
    if not triple.left.contains(left) or not triple.right.contains(right):
        raise ClassViolation("composite legs escaped their classes")
    return Span(left, right)
