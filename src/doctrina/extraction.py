"""Recovering a doctrine from double-functor data, and the round trip.

The converse direction only ever consumes the double-functor interface:
object posets, tight images, loose images, the external tensor map and
unit.  Quantifiers come back as loose images of one-legged spans,
fiberwise tensors as diagonal substitution after the external tensor,
and the Frobenius equality is rebuilt from one designated pullback
square plus one laxator-commuter verdict (``frobenius_via_Bhat``, a
bool).  ``roundtrip.frobenius`` holds along a map when that recipe and
the direct ``doctrine.check_frobenius`` both hold.
"""

from __future__ import annotations

from .errors import ClassViolation, NotAPullback
from .finset import (
    FinFn,
    FinSet,
    Universe,
    bang,
    compose,
    diagonal,
    fn_product,
)
from .doctrine import (
    Doctrine,
    PullbackSquare,
    check_frobenius,
    external_laxator,
    external_unit,
    is_clr_pullback,
)
from .doubling import PDot
from .poskit import MonotoneMap, Poset, iso_maps, map_product
from .report import Report
from .spancat import Span


class DoubleFunctorData:
    """The double-functor face of a built extension.

    Populated only from :class:`doctrina.doubling.PDot`; arbitrary
    user-supplied double functors are out of scope.  Everything below is
    expressed through this interface alone, so the extraction never
    peeks at the source doctrine's own quantifiers or tensors.
    """

    def __init__(self, pdot: PDot):
        self._pdot = pdot
        self.triple = pdot.triple

    def object_poset(self, a: FinSet) -> Poset:
        return self._pdot.d.fiber(a).carrier

    def tight(self, f: FinFn) -> MonotoneMap:
        return self._pdot.d.subst(f)

    def loose(self, x: Span) -> MonotoneMap:
        return self._pdot.loose_image(x)

    def mu0(self, a: FinSet, b: FinSet) -> MonotoneMap:
        return external_laxator(self._pdot.d, a, b)

    def unit0(self) -> int:
        return external_unit(self._pdot.d)

    def laxator_invertible(self, x: Span, y: Span) -> bool:
        return self._pdot.laxator_cell(x, y).invertible


def quantifier_from_conjoint(q: DoubleFunctorData, f: FinFn) -> MonotoneMap:
    """The quantifier along f is the loose image of its one-legged span
    (``ClassViolation`` when f is not in R)."""
    return q.loose(Span.conjoint(f))


def tensor_from_laxator(q: DoubleFunctorData, a: FinSet) -> MonotoneMap:
    """Fiber tensor recovered as diagonal substitution after the external
    tensor map."""
    return q.mu0(a, a).then(q.tight(diagonal(a)))


def unit_from_I(q: DoubleFunctorData, a: FinSet) -> int:
    """Fiber unit recovered by substituting the global unit along bang."""
    return q.tight(bang(a)).table[q.unit0()]


def frobenius_via_Bhat(q: DoubleFunctorData, f: FinFn) -> bool:
    """Rebuild the Frobenius equality along f in two legs: the designated
    square on the graph of f turns the substituted tensor into a product
    image, and the laxator commuter collapses that image to the target
    tensor.  Both legs are table equalities, so together they give the
    projection formula itself.

    Raises ``NotAPullback`` when the left class lacks the diagonals or the
    square is not designated, ``ClassViolation`` when a quantifier it
    needs is refused.
    """
    a, b = f.dom, f.cod
    if not q.triple.left.contains(diagonal(a)) or not q.triple.left.contains(
        diagonal(b)
    ):
        raise NotAPullback("left class must contain diagonals")

    # designated square: the graph of f sits over b x a
    k = compose(diagonal(a), fn_product(f, FinFn.identity(a)))  # a -> b x a
    bottom = fn_product(FinFn.identity(b), f)  # b x a -> b x b
    sq = PullbackSquare(top=f, left=k, right=diagonal(b), bottom=bottom)
    if not is_clr_pullback(sq, q.triple):
        raise NotAPullback(f"graph square of {f} is not designated")

    exists_f = quantifier_from_conjoint(q, f)
    exists_bottom = quantifier_from_conjoint(q, bottom)
    mu_ba = q.mu0(b, a)
    tensor_a = tensor_from_laxator(q, a)
    tensor_b = tensor_from_laxator(q, b)
    ident_a = MonotoneMap.identity(q.object_poset(a))
    ident_b = MonotoneMap.identity(q.object_poset(b))

    # direct left-hand route: substitute, tensor in the fiber, quantify
    direct_lhs = map_product(q.tight(f), ident_a).then(tensor_a).then(exists_f)
    # the square rewrites it through the product context
    recipe_mid = mu_ba.then(exists_bottom).then(q.tight(diagonal(b)))
    # the commuter collapses the product context to the target tensor
    direct_rhs = map_product(ident_b, exists_f).then(tensor_b)

    square = iso_maps(direct_lhs, recipe_mid)
    # decided even when the square fails, so that a refused commuter
    # still names its reason in the witness
    commuter = q.laxator_invertible(
        Span.identity(b), Span.conjoint(f)
    ) and iso_maps(recipe_mid, direct_rhs)
    return square and commuter


def roundtrip(d: Doctrine, max_size: int) -> Report:
    """Extract the extension of a doctrine and compare every recovered
    piece with the source, literally."""
    pdot = PDot(d)
    q = DoubleFunctorData(pdot)
    u = Universe(d.triple, max_size)
    rep = Report()
    # a triple without identities or diagonals refuses some spans and
    # squares below: each refusal fails the instance that needed it
    refused = (ClassViolation, NotAPullback)

    fib = rep.clause(
        "roundtrip.fibers", "recovered tensor and unit equal the source fiber"
    )
    for a in u.objects:
        src = d.fiber(a)
        fib.check(
            tensor_from_laxator(q, a) == src.tensor_map()
            and unit_from_I(q, a) == src.unit,
            f"A={a.size}",
        )

    # recovered as the companion span's loose image: ``tight`` is
    # ``subst`` itself, so comparing it would prove nothing
    sub = rep.clause(
        "roundtrip.subst", "recovered substitution equals the source substitution"
    )
    for f in u.maps:
        sub.check_call(
            lambda: q.loose(Span.companion(f)) == d.subst(f), lambda: f"f={f}", refused
        )

    qua = rep.clause(
        "roundtrip.exists", "recovered quantifier equals the source quantifier"
    )
    for f in u.right:
        qua.check(quantifier_from_conjoint(q, f) == d.exists(f), lambda: f"f={f}")

    fac = rep.clause(
        "roundtrip.factorisation",
        "every loose image factors through its companion and conjoint legs",
    )

    def factors(x: Span) -> bool:
        comp, conj = Span.companion(x.left), Span.conjoint(x.right)
        lhs, rhs = q.loose(x), q.loose(comp).then(q.loose(conj))
        return lhs == rhs and pdot.cat.loose_compose(comp, conj) == x

    for x in pdot.cat.enumerate_spans(max_size):
        fac.check_call(lambda: factors(x), lambda: f"{x}", refused)

    fro = rep.clause(
        "roundtrip.frobenius",
        "the rebuilt Frobenius verdict matches the direct check",
    )
    for f in u.right:
        fro.check_call(
            lambda: frobenius_via_Bhat(q, f) and check_frobenius(d, f),
            lambda: f"f={f}",
            refused,
        )

    return rep
