"""Walk every instance of ``pdot.laxator-compositional``, not a sample,
and check the associator rule of ``pdot.double-assoc``.

Both clauses compare the loose images of two spans that differ by a
canonical apex isomorphism, and decide only the instances where the two
spans differ (``doubling.LaxCompositional``).  ``verify_pdot`` checks a
stride sample of the pairs of composable span pairs: 24,550 of the
942,841 on the trivial triple at bound 2, of which it decides the 2,176
whose σ is not the identity (``LaxCompositional.sample``).  This script
walks all of them, for the powerset and tropical (cap 2) doctrines and
every mutant of ``tests/mutants.py`` (``mutants.doctrines()``), in two
ways:

* instance by instance: every left side L((a ⊗ x) ; (a2 ⊗ x2)) is built
  with ``SpanCategory.loose_compose`` and compared with the right side
  L((a ; a2) ⊗ (x ; x2)).  Each left side is also compared with the one
  first built for its key (a ; a2, x ; x2, σ), σ from
  ``SpanCategory.interchange``: the key rule the clause relies on.  Where
  σ is the identity, the left side's span must be the right side's span
  (a ; a2) ⊗ (x ; x2) itself: the rule by which the clause decides those
  keys without building a left side.
* keyed, through ``doubling.LaxCompositional.verdict``, the code the
  clause runs, over the span ids of ``PDot.universe``: it builds each
  key's left side once, by reindexing the right side's span along σ,
  and reuses its verdict.

It also checks the class rule on every pair of middle cospans: σ of two
cospans is σ of the first cospans met of their classes
(``SpanCategory.interchange_class``), so the clause builds σ once per
pair of classes.

For ``pdot.double-assoc`` it composes both bracketings (x ; y) ; z and
x ; (y ; z) of every composable triple with ``loose_compose``.  Where the
two composites differ, they must have one multiset of (left, right) apex
images, so that the associator between them is an apex isomorphism; and
per doctrine, the instances whose two images differ must be exactly as
many as the clause's failures in ``verify_pdot``.

It prints the classes and the pairs of classes whose σ is not the
identity, then, per doctrine, the failures of both walks, the distinct
keys and the seconds of the keyed walk, and the failures of
``pdot.double-assoc`` walked and in the clause; then the instances and
seconds of the walk instance by instance (shared by every doctrine), the
instances and keys whose σ is the identity, and the associator's
instances, those whose two composites differ, and their distinct pairs.
It exits 1 if the class rule, the key rule, the identity rule or the
associator rule fails somewhere, or two counts that must agree do not.

    PYTHONPATH=src python3 scripts/lax_comp_walk.py [--bound 2]
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from operator import attrgetter
from pathlib import Path

from doctrina.doctrine import powerset_doctrine, tropical_doctrine
from doctrina.doubling import LaxCompositional, PDot, verify_pdot
from doctrina.errors import NonFunctorial
from doctrina.finset import matching, trivial_triple
from doctrina.spancat import SpanCategory

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import mutants  # noqa: E402
from spans import product_span  # noqa: E402


def doctrines() -> dict:
    return {
        "powerset": powerset_doctrine,
        "tropical": partial(tropical_doctrine, cap=2),
        **mutants.doctrines(),
    }


def composable_pairs(cat: SpanCategory, bound: int) -> list:
    spans = list(cat.enumerate_spans(bound))
    return list(matching(spans, spans, attrgetter("target"), attrgetter("source")))


def check_classes(bound: int) -> tuple[int, int, int, int, int]:
    """Middle cospans, their classes, the pairs of classes whose σ is not
    the identity, and the pairs of middle cospans, with those on which
    σ is not σ of their classes' first members."""
    cat = SpanCategory(trivial_triple(bound))
    middles = list(dict.fromkeys(
        (a.right, a2.left) for a, a2 in composable_pairs(cat, bound)
    ))
    first: dict = {}
    for u in middles:
        first.setdefault(cat.interchange_class(u), u)
    rep = {u: first[cat.interchange_class(u)] for u in middles}
    broken = sum(
        cat.interchange(u, v) != cat.interchange(rep[u], rep[v])
        for u in middles for v in middles
    )
    moved = sum(
        not cat.interchange(u, v).is_identity for u in first.values() for v in first.values()
    )
    return len(middles), len(first), moved, len(middles) ** 2, broken


def walk_each(pdots: dict, bound: int) -> tuple[int, dict, int, int, int, int]:
    """Instances, failures per doctrine, distinct keys, the instances on
    which the key rule or the identity rule fails, and the instances and
    keys whose σ is the identity, building every left side."""
    cat = SpanCategory(trivial_triple(bound))
    composable = composable_pairs(cat, bound)
    canon: dict = {}
    comps = [canon.setdefault(s, s) for s in (cat.loose_compose(a, b) for a, b in composable)]
    sigmas: dict = {}
    first: dict = {}
    failures = dict.fromkeys(pdots, 0)
    broken = identities = 0
    for r, (a, a2) in enumerate(composable):
        for c, (x, x2) in enumerate(composable):
            lhs = cat.loose_compose(product_span(a, x), product_span(a2, x2))
            rhs = product_span(comps[r], comps[c])
            u, v = (a.right, a2.left), (x.right, x2.left)
            if (u, v) not in sigmas:
                sigma = cat.interchange(u, v)
                sigmas[u, v] = sigma, sigma.is_identity
            sigma, identity = sigmas[u, v]
            if lhs != first.setdefault((comps[r], comps[c], sigma), lhs):
                broken += 1
            if identity:
                identities += 1
                broken += lhs != rhs
            for name, pdot in pdots.items():
                if pdot.loose_image(lhs) != pdot.loose_image(rhs):
                    failures[name] += 1
    identity_keys = sum(sigma.is_identity for _, _, sigma in first)
    return len(composable) ** 2, failures, len(first), broken, identities, identity_keys


def walk_keyed(pdot: PDot, bound: int) -> tuple[int, int, int]:
    """Instances, failures and distinct keys of the keyed walk."""
    spans = pdot.universe(bound)
    composable = list(matching(
        spans, spans, lambda i: pdot.span(i).target, lambda i: pdot.span(i).source
    ))
    lax = LaxCompositional(pdot, composable)
    n = len(composable)
    instances = failures = 0
    keys = set()
    for r in range(n):
        for c in range(n):
            key, ok = lax.verdict(r, c)
            instances += 1
            failures += not ok
            keys.add(key)
    return instances, failures, len(keys)


def walk_assoc(pdots: dict, bound: int) -> tuple[int, int, int, int, dict]:
    """Instances of ``pdot.double-assoc``, those whose two composites
    differ, their distinct pairs, the pairs that break the associator
    rule, and the failures per doctrine, imaging only unequal
    composites."""
    cat = SpanCategory(trivial_triple(bound))
    composable = composable_pairs(cat, bound)
    comps: dict = {}

    def comp(x, y):
        if (x, y) not in comps:
            comps[x, y] = cat.loose_compose(x, y)
        return comps[x, y]

    after: dict = {}
    for y, z in composable:
        after.setdefault(y, []).append(z)
    instances, unequal = 0, []
    for x, y in composable:
        for z in after.get(y, ()):
            instances += 1
            xy_z, x_yz = comp(comp(x, y), z), comp(x, comp(y, z))
            if xy_z != x_yz:
                unequal.append((xy_z, x_yz))
    pairs = set(unequal)
    broken = sum(
        sorted(zip(s.left.table, s.right.table)) != sorted(zip(t.left.table, t.right.table))
        for s, t in pairs
    )
    failures = {
        name: sum(pdot.loose_image(s) != pdot.loose_image(t) for s, t in unequal)
        for name, pdot in pdots.items()
    }
    return instances, len(unequal), len(pairs), broken, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bound", type=int, default=2)
    bound = parser.parse_args().bound
    triple = trivial_triple(bound)

    pdots = {}
    for name, make in doctrines().items():
        try:
            pdots[name] = PDot(make(triple))
        except NonFunctorial as e:
            print(f"{name}: skipped, no double extension: {e}")

    middles, classes, moved, pairs, misclassed = check_classes(bound)
    print(f"σ classes: {classes} of {middles} middle cospans, {moved} of "
          f"{classes ** 2} class pairs not the identity, class rule broken "
          f"on {misclassed} of {pairs} middle pairs")

    keyed = {}
    for name, pdot in pdots.items():
        start = time.perf_counter()
        keyed[name] = walk_keyed(pdot, bound), time.perf_counter() - start

    assoc, unequal, assoc_pairs, assoc_broken, assoc_walked = walk_assoc(
        {n: PDot(pdots[n].d) for n in pdots}, bound
    )
    assoc_clause = {
        n: verify_pdot(PDot(pdots[n].d), bound).find("pdot.double-assoc") for n in pdots
    }

    start = time.perf_counter()
    total, each, keys, broken, identities, identity_keys = walk_each(
        {n: PDot(pdots[n].d) for n in pdots}, bound
    )
    each_s = time.perf_counter() - start

    ok = misclassed == 0 and broken == 0 and assoc_broken == 0
    print(f"{'doctrine':<28} {'instances':>9} {'keys':>6} "
          f"{'fail each':>9} {'fail keyed':>10} {'keyed s':>7} "
          f"{'α walked':>8} {'α clause':>8}")
    for name, ((instances, failures, nkeys), secs) in keyed.items():
        clause = assoc_clause[name]
        ok &= (instances, failures, nkeys) == (total, each[name], keys)
        ok &= (clause.instances, clause.failures) == (assoc, assoc_walked[name])
        print(f"{name:<28} {instances:>9} {nkeys:>6} "
              f"{each[name]:>9} {failures:>10} {secs:>7.2f} "
              f"{assoc_walked[name]:>8} {clause.failures:>8}")
    print(f"instance by instance: {total} instances, {keys} keys, "
          f"key or identity rule broken on {broken}, {each_s:.1f} s for all doctrines")
    print(f"identity σ: {identities} instances and {identity_keys} keys, leaving "
          f"{total - identities} instances and {keys - identity_keys} keys")
    print(f"associator: {assoc} instances, {unequal} with two different "
          f"composites in {assoc_pairs} distinct pairs, apex images differ "
          f"on {assoc_broken} pairs")
    print("OK" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
