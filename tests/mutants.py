"""Deliberately broken doctrines for the negative-control tests."""

from doctrina.finset import FinFn, FinSet, product
from doctrina.poskit import MonoPoset, min_plus, monotone_map
from doctrina.doctrine import Doctrine, PowersetDoctrine


class BrokenTensorDoctrine(PowersetDoctrine):
    """Tensor replaced by the constant-unit map; kills Frobenius and the
    laxator commuter while leaving substitution and quantifiers intact."""

    def _make_fiber(self, a: FinSet) -> MonoPoset:
        good = super()._make_fiber(a)
        return MonoPoset(good.carrier, lambda i, j: good.unit, good.unit)


class SwappedAdjointDoctrine(PowersetDoctrine):
    """Quantifier replaced by the universal image (the right adjoint),
    so the Galois biconditional fails."""

    def _make_exists(self, f: FinFn):
        pa, pb = self.fiber(f.dom).carrier, self.fiber(f.cod).carrier
        fibres = [
            [a for a in range(f.dom.size) if f.table[a] == b]
            for b in range(f.cod.size)
        ]
        table = []
        for s in range(pa.size):
            out = 0
            for b, fib in enumerate(fibres):
                if all((s >> a) & 1 for a in fib):
                    out |= 1 << b
            table.append(out)
        return monotone_map(pa, pb, table)


PERTURBED = FinFn(FinSet(2), FinSet(1), (0, 0))


class NonFunctorialDoctrine(PowersetDoctrine):
    """Substitution along one specific map replaced by a constant; still
    monotone, no longer functorial."""

    def _make_subst(self, f: FinFn):
        good = super()._make_subst(f)
        if f == PERTURBED:
            top = good.cod.size - 1
            return monotone_map(good.dom, good.cod, (top,) * good.dom.size)
        return good


class DroppedApexDoctrine(PowersetDoctrine):
    """Span action that ignores the last apex element once the apex has
    three or more.  Substitution and quantifiers stay intact, so every
    doctrine law holds and the double extension builds; but loose
    composites and product spans, the only spans that large at bound 2,
    lose loose functoriality, and a companion span over a 3-element set
    no longer acts as substitution."""

    def _act(self, left: FinFn, right: FinFn, pred: int) -> int:
        n = left.dom.size
        out = 0
        for a in range(n - 1 if n >= 3 else n):
            if (pred >> left.table[a]) & 1:
                out |= 1 << right.table[a]
        return out


class SkippedApexDoctrine(PowersetDoctrine):
    """Span action that ignores apex element 1 once the apex has three or
    more.  Unlike the last element, element 1 of a product apex is not
    fixed by the swap, so the images of ``x ⊗ y`` and ``y ⊗ x`` no longer
    agree across the symmetry: the symmetry axiom fails."""

    def _act(self, left: FinFn, right: FinFn, pred: int) -> int:
        n = left.dom.size
        out = 0
        for a in range(n):
            if a == 1 and n >= 3:
                continue
            if (pred >> left.table[a]) & 1:
                out |= 1 << right.table[a]
        return out


class PairApexDoctrine(PowersetDoctrine):
    """Span action that ignores apex element 0 when the apex has exactly
    two elements.  Substitution and quantifiers stay intact, so the
    double extension builds; but a morphism of spans from a one-element
    apex onto element 0 of a two-element apex now induces no square,
    so ``pdot.cell-existence`` fails, along with the clauses that act by
    a two-element identity or product apex."""

    def _act(self, left: FinFn, right: FinFn, pred: int) -> int:
        n = left.dom.size
        out = 0
        for a in range(n):
            if a == 0 and n == 2:
                continue
            if (pred >> left.table[a]) & 1:
                out |= 1 << right.table[a]
        return out


SATURATED = product(FinSet(2), FinSet(2)).pa


class SaturatedProjectionDoctrine(PowersetDoctrine):
    """Quantifier along the first projection 2 x 2 -> 2 sends every
    nonempty predicate to the full set.  It stays monotone and
    substitution is untouched, so the double extension builds and the
    span action is sound; but Beck-Chevalley fails around the proof
    squares that base-change along that projection."""

    def _make_exists(self, f: FinFn):
        good = super()._make_exists(f)
        if f == SATURATED:
            top = good.cod.size - 1
            return monotone_map(
                good.dom, good.cod, (0,) + (top,) * (good.dom.size - 1)
            )
        return good


class DroppedApexTropicalDoctrine(Doctrine):
    """The min-plus counterpart of ``DroppedApexDoctrine``: the minimum
    skips the last apex element once the apex has three or more.  Its
    ``_act`` replaces the stock one, so the span action must be computed
    value by value through it, not from the stock relation tables."""

    def __init__(self, triple, cap: int):
        super().__init__(triple, min_plus(cap))

    def _act(self, left: FinFn, right: FinFn, pred: tuple) -> tuple:
        n = left.dom.size
        vals = [self.bottom] * right.cod.size
        for a in range(n - 1 if n >= 3 else n):
            j = right.table[a]
            vals[j] = min(vals[j], pred[left.table[a]])
        return tuple(vals)
