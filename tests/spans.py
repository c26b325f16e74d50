"""The span constructions ``PDot`` computes on tables, built from maps
as their definitions state them, for the tests and scripts to compare
against: the product span by ``finset.fn_product``, and the loose
composite by ``finset.pullback`` and ``finset.compose``."""

from doctrina.errors import ClassViolation, ObjMismatch
from doctrina.finset import AdequateTriple, compose, fn_product, pullback
from doctrina.spancat import Span


def product_span(x: Span, y: Span) -> Span:
    """x ⊗ y: each leg the product of the two legs."""
    return Span(fn_product(x.left, y.left), fn_product(x.right, y.right))


def pullback_composite(triple: AdequateTriple, x: Span, y: Span) -> Span:
    """x ; y: the projections of the chosen pullback of the middle
    cospan, followed by the outer legs, which must stay in their
    classes."""
    if x.target != y.source:
        raise ObjMismatch(f"{x} then {y}: middle objects differ")
    _, p, q = pullback(x.right, y.left)
    left, right = compose(p, x.left), compose(q, y.right)
    if not triple.left.contains(left) or not triple.right.contains(right):
        raise ClassViolation("composite legs escaped their classes")
    return Span(left, right)
