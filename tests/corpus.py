"""Seeded random diagram/system corpus used by the UWD and acceptance tests."""

import random

from doctrina.finset import FinFn, FinSet, LabelledFinSet
from doctrina.uwd import System, TypeAssignment, UwdDiagram, denote

LABELS = ("a", "b", "c")


def make_types(rng: random.Random) -> TypeAssignment:
    return TypeAssignment({t: rng.randint(1, 3) for t in LABELS})


def random_diagram(rng: random.Random, inner_ctx=None) -> UwdDiagram:
    if inner_ctx is None:
        n_j = rng.randint(1, 3)
        junctions = LabelledFinSet.of(*(rng.choice(LABELS) for _ in range(n_j)))
        n_i = rng.randint(0, 4)
        f_tab = tuple(rng.randrange(n_j) for _ in range(n_i))
        inner = LabelledFinSet.of(*(junctions.labels[j] for j in f_tab))
    else:
        inner = inner_ctx
        needed = []
        for lab in inner.labels:
            if lab not in needed:
                needed.append(lab)
        extra = [
            rng.choice(LABELS) for _ in range(rng.randint(0, 3 - len(needed)))
        ] if len(needed) < 3 else []
        labels = tuple(needed + extra)
        junctions = LabelledFinSet.of(*labels) if labels else LabelledFinSet.of(
            rng.choice(LABELS)
        )
        n_j = junctions.base.size
        slots = {
            lab: [j for j in range(n_j) if junctions.labels[j] == lab]
            for lab in set(junctions.labels)
        }
        f_tab = tuple(rng.choice(slots[lab]) for lab in inner.labels)
    n_o = rng.randint(0, 3)
    g_tab = tuple(rng.randrange(junctions.base.size) for _ in range(n_o))
    outer = LabelledFinSet.of(*(junctions.labels[j] for j in g_tab))
    return UwdDiagram(
        inner,
        junctions,
        outer,
        FinFn(inner.base, junctions.base, f_tab),
        FinFn(outer.base, junctions.base, g_tab),
    )


def random_rel_system(rng: random.Random, ctx, types) -> System:
    n = denote(ctx, types).size
    mask = rng.randrange(1 << n)  # one draw per system: the seed fixes the relation
    return System(ctx, tuple((mask >> i) & 1 for i in range(n)))


def random_trop_system(rng: random.Random, ctx, types, cap: int) -> System:
    n = denote(ctx, types).size
    return System(ctx, tuple(rng.randint(0, cap + 1) for _ in range(n)))


def build_corpus(seed: int = 20250809, singles: int = 30, pairs: int = 15, cap: int = 3):
    """Singles: (types, diagram, rel system, trop system).  Pairs:
    (types, host, filler, rel system, trop system) with filler.outer equal
    to the host's inner boundary."""
    rng = random.Random(seed)
    single = []
    for _ in range(singles):
        types = make_types(rng)
        w = random_diagram(rng)
        single.append(
            (
                types,
                w,
                random_rel_system(rng, w.inner, types),
                random_trop_system(rng, w.inner, types, cap),
            )
        )
    nested = []
    for _ in range(pairs):
        types = make_types(rng)
        filler = random_diagram(rng)
        host = random_diagram(rng, inner_ctx=filler.outer)
        nested.append(
            (
                types,
                host,
                filler,
                random_rel_system(rng, filler.inner, types),
                random_trop_system(rng, filler.inner, types, cap),
            )
        )
    return single, nested
