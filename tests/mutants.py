"""Deliberately broken doctrines for the negative-control tests.

Every class takes the triple and, apart from ``DroppedApexDoctrine``,
works over the 2-chain under meet, where a subset's carrier index is its
bitmask.  The three apex mutants drop apex elements in ``_legs``, the
hook both ``span_action`` and ``act`` read, so each acts through the
relation its remaining leg entries trace.  ``_legs`` takes and returns
leg tables, and the apex size is the length of either table.
``doctrines()`` names each mutant instance the suites and scripts
run."""

import inspect
import sys
from functools import partial

from doctrina.finset import FinFn, FinSet, product
from doctrina.poskit import MonoPoset, boolean_meet, min_plus, monotone_map
from doctrina.doctrine import Doctrine


class _Boolean(Doctrine):
    def __init__(self, triple):
        super().__init__(triple, boolean_meet())


class BrokenTensorDoctrine(_Boolean):
    """Tensor replaced by the constant-unit map; kills Frobenius and the
    laxator commuter while leaving substitution and quantifiers intact."""

    def _make_fiber(self, a: FinSet) -> MonoPoset:
        good = super()._make_fiber(a)
        return MonoPoset(good.carrier, lambda i, j: good.unit, good.unit)


class SwappedAdjointDoctrine(_Boolean):
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


class NonFunctorialDoctrine(_Boolean):
    """Substitution along one specific map replaced by a constant; still
    monotone, no longer functorial."""

    def _make_subst(self, f: FinFn):
        good = super()._make_subst(f)
        if f == PERTURBED:
            top = good.cod.size - 1
            return monotone_map(good.dom, good.cod, (top,) * good.dom.size)
        return good


class DroppedApexDoctrine(Doctrine):
    """Span action that ignores the last apex element once the apex has
    three or more, over any V (the 2-chain unless ``values`` is given).
    Substitution and quantifiers stay intact, so every doctrine law holds
    and the double extension builds; but loose composites and product
    spans, the only spans that large at bound 2, lose loose
    functoriality, and a companion span over a 3-element set no longer
    acts as substitution."""

    def __init__(self, triple, values: MonoPoset | None = None):
        super().__init__(triple, boolean_meet() if values is None else values)

    def _legs(self, lt: tuple, rt: tuple) -> tuple[tuple, tuple]:
        n = len(lt)
        keep = n - 1 if n >= 3 else n
        return lt[:keep], rt[:keep]


class SkippedApexDoctrine(_Boolean):
    """Span action that ignores apex element 1 once the apex has three or
    more.  Unlike the last element, element 1 of a product apex is not
    fixed by the swap, so the images of ``x ⊗ y`` and ``y ⊗ x`` no longer
    agree across the symmetry: the symmetry axiom fails."""

    def _legs(self, lt: tuple, rt: tuple) -> tuple[tuple, tuple]:
        if len(lt) >= 3:
            return lt[:1] + lt[2:], rt[:1] + rt[2:]
        return lt, rt


class PairApexDoctrine(_Boolean):
    """Span action that ignores apex element 0 when the apex has exactly
    two elements.  Substitution and quantifiers stay intact, so the
    double extension builds; but a morphism of spans from a one-element
    apex onto element 0 of a two-element apex now induces no square,
    so ``pdot.cell-existence`` fails, along with the clauses that act by
    a two-element identity or product apex."""

    def _legs(self, lt: tuple, rt: tuple) -> tuple[tuple, tuple]:
        skip = 1 if len(lt) == 2 else 0
        return lt[skip:], rt[skip:]


SATURATED = product(FinSet(2), FinSet(2)).pa


class SaturatedProjectionDoctrine(_Boolean):
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


def doctrines() -> dict:
    """Every mutant as a function of the triple, by name: each class of
    this module, found by introspection so that a new one is covered
    without editing its callers; a class that takes ``values`` runs once
    more over min-plus (cap 1), named with ``Tropical``."""
    found = {}
    for name, cls in inspect.getmembers(sys.modules[__name__], inspect.isclass):
        if issubclass(cls, Doctrine) and cls.__module__ == __name__ and name[0] != "_":
            found[name] = cls
            if "values" in inspect.signature(cls).parameters:
                tropical = name.replace("Doctrine", "TropicalDoctrine")
                found[tropical] = partial(cls, values=min_plus(1))
    return found
