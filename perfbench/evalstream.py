"""The seeded conjunctive-query stream of the ``eval-stream`` workload,
and its own oracle.

A query is a hypergraph: junctions with value domains 2 or 3, boxes
that each touch one to three junctions, and the junctions the answer
exposes.  Each box arrives as its own system in a generated corpus
document; the program tensors the boxes into the joint predicate and
evaluates the query diagram (or a two-step nesting of it) on that joint.

Queries come in blocks.  Every block holds each entry of ``TEMPLATES``
once per semantics, so the size mix is the same for every seed and the
p50 and p90 of min-plus latency fall inside the 3^8-entry class
(``M``): 20% of the queries are smaller, 5% are larger.  The seed only
relabels junctions, orders boxes, draws box data, picks the exposed
junctions and which 5 of the 20 queries per semantics are nested; each
template has a fixed set of 8 diagram variants, taken in turn, so
diagrams recur with fresh data.

The oracle brute-forces over junction assignments with the raw box
data (tuple sets, cost dicts) and decodes the program's printed output
itself; it shares no code with doctrina's codecs or oracles.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

CAP = 3
INF = CAP + 1
LABEL = {2: "d2", 3: "d3"}
NESTED_PER_BLOCK = 5
VARIANTS = 8  # diagrams per template

# (size class, shape, junction domains, boxes as junction tuples); the
# classes are S: at most 3^6 joint entries, M-: 4374, M: 3^8, L: 3^9
TEMPLATES = [
    ("S", "path", (3, 3, 3), ((0, 1), (1, 2), (0,))),
    ("S", "star", (3, 3, 3, 3, 3), ((0, 1, 2), (0, 3, 4))),
    ("S", "path", (2, 3, 3, 3), ((0, 1), (1, 2), (2, 3))),
    ("M-", "star", (3, 3, 3, 3, 2), ((0, 1), (0, 2), (0, 3), (0, 4))),
    ("M", "path", (3, 3, 3, 3, 3), ((0, 1), (1, 2), (2, 3), (3, 4))),
    ("M", "path", (3, 3, 3, 3, 3), ((0, 1), (1, 2, 4), (2, 3), (0,))),
    ("M", "path", (3, 3, 3, 3, 3), ((0, 1), (1, 2), (2, 3, 4), (3,))),
    ("M", "path", (3, 3, 3, 3, 3), ((0, 1), (1, 2), (2, 3), (3, 4))),
    ("M", "cycle", (3, 3, 3, 3), ((0, 1), (1, 2), (2, 3), (3, 0))),
    ("M", "cycle", (3, 3, 3), ((0, 1), (1, 2), (2, 0), (0,), (1,))),
    ("M", "cycle", (3, 3, 3, 3), ((0, 1, 2), (2, 3), (3, 0), (1,))),
    ("M", "cycle", (3, 3, 3, 3, 3), ((0, 1, 2), (2, 3, 4), (4, 0))),
    ("M", "cycle", (3, 3, 3, 3), ((0, 1), (1, 2), (2, 3), (3, 0))),
    ("M", "cycle", (3, 3, 3), ((0, 1), (1, 2), (2, 0), (0,), (1,))),
    ("M", "star", (3, 3, 3, 3, 3), ((0, 1), (0, 2), (0, 3), (0, 4))),
    ("M", "star", (3, 3, 3, 3, 3, 3), ((0, 1, 2), (0, 3, 4), (0, 5))),
    ("M", "star", (3, 3, 3, 3, 3), ((0, 1), (0, 2), (0, 3, 4), (0,))),
    ("M", "star", (3, 3, 3, 3, 3), ((0, 1, 2), (0, 3, 4), (1,), (3,))),
    ("M", "star", (3, 3, 3, 3, 3), ((0, 1), (0, 2), (0, 3), (0, 4))),
    ("L", "path", (3, 3, 3, 3, 3), ((0, 1), (1, 2), (2, 3), (3, 4), (0,))),
]
BLOCK = 2 * len(TEMPLATES)

# box costs: mostly cheap, some saturating, some absent
COSTS = (0, 0, 0, 1, 1, 2, 3, INF)


@dataclass
class Query:
    semantics: str  # "rel" | "trop"
    size_class: str
    shape: str
    domains: tuple[int, ...]  # per junction
    boxes: tuple[tuple[int, ...], ...]  # junctions each box touches
    data: tuple  # per box: frozenset of tuples (rel) or dict tuple -> cost
    outer: tuple[int, ...]  # junction of each outer port
    nested: bool
    doc: str  # the corpus document the program reads

    @property
    def entries(self) -> int:
        n = 1
        for box in self.boxes:
            for j in box:
                n *= self.domains[j]
        return n

    @property
    def diagram_key(self) -> str:
        """The diagram part of the document, for spotting repeats."""
        return json.dumps(json.loads(self.doc)["diagrams"], sort_keys=True)


def _product(doms):
    out = [()]
    for d in doms:
        out = [t + (v,) for t in out for v in range(d)]
    return out  # row-major, first slot most significant


def _spec(inner, junctions, outer, f, g) -> dict:
    return {"inner": inner, "junctions": junctions, "outer": outer, "f": f, "g": g}


def make_query(rng: random.Random, template, semantics: str, nested: bool,
               variant: random.Random) -> Query:
    """One query on ``template``: ``variant`` draws the diagram (junction
    numbering, box and port order, exposed junctions), ``rng`` the data."""
    size_class, shape, doms, boxes = template
    perm = list(range(len(doms)))
    variant.shuffle(perm)
    domains = [0] * len(doms)
    for old, new in enumerate(perm):
        domains[new] = doms[old]
    boxes = [tuple(perm[j] for j in box) for box in boxes]
    variant.shuffle(boxes)
    boxes = [tuple(variant.sample(box, len(box))) for box in boxes]

    exposed = variant.sample(range(len(domains)), variant.choice((1, 2)))
    if variant.random() < 0.25:
        exposed.append(exposed[0])  # one junction exposed twice
    outer = tuple(exposed)

    lab = [LABEL[d] for d in domains]
    systems, data = {}, []
    for b, box in enumerate(boxes):
        tuples = _product([domains[j] for j in box])
        if semantics == "rel":
            members = frozenset(t for t in tuples if rng.random() < 0.6)
            mask = 0
            for i, t in enumerate(tuples):
                if t in members:
                    mask |= 1 << i
            payload = format(mask, "x")
            data.append(members)
        else:
            costs = {t: rng.choice(COSTS) for t in tuples}
            payload = ["inf" if costs[t] == INF else costs[t] for t in tuples]
            data.append({t: c for t, c in costs.items() if c < INF})
        systems[f"b{b}"] = {
            "context": [lab[j] for j in box], "semantics": semantics, "data": payload,
        }

    inner = [lab[j] for box in boxes for j in box]
    f = [j for box in boxes for j in box]
    out_labels = [lab[j] for j in outer]
    if nested:
        # the filler exposes one port per outer port; the host gives each
        # its own junction, so a junction exposed twice is re-identified
        # by the pushout
        k = len(outer)
        diagrams = {
            "fill": _spec(inner, lab, out_labels, f, list(outer)),
            "host": _spec(out_labels, out_labels, out_labels,
                          list(range(k)), list(range(k))),
        }
    else:
        diagrams = {"query": _spec(inner, lab, out_labels, f, list(outer))}
    doc = json.dumps({
        "labels": ["d2", "d3"],
        "domains": {"d2": 2, "d3": 3},
        "diagrams": diagrams,
        "systems": systems,
    })
    return Query(semantics, size_class, shape, tuple(domains), tuple(boxes),
                 tuple(data), outer, nested, doc)


def make_stream(seed: int, blocks: int) -> list[Query]:
    """``blocks`` blocks of ``BLOCK`` queries, reproducible from ``seed``.

    Each template has ``VARIANTS`` diagrams, the same for every seed, and
    successive blocks take them in turn from a seeded starting point: the
    diagrams recur with fresh data, as prepared queries do, and every
    seed sends the same mix of them."""
    rng = random.Random(seed)
    first = [rng.randrange(VARIANTS) for _ in TEMPLATES]
    out = []
    for block in range(blocks):
        nested = {
            sem: set(rng.sample(range(len(TEMPLATES)), NESTED_PER_BLOCK))
            for sem in ("rel", "trop")
        }
        jobs = [(sem, i) for sem in ("rel", "trop") for i in range(len(TEMPLATES))]
        rng.shuffle(jobs)
        for sem, i in jobs:
            variant = random.Random(f"{i}/{(first[i] + block) % VARIANTS}")
            out.append(make_query(rng, TEMPLATES[i], sem, i in nested[sem], variant))
    return out


# ---------------------------------------------------------------------------
# oracle


def expected(q: Query):
    """Brute force over junction assignments, pruning dead branches.

    Relational: the set of outer tuples of assignments every box
    contains.  Min-plus: for every outer tuple, the least saturating sum
    of box costs (``INF`` when none is finite)."""
    n = len(q.domains)
    # boxes are checked once their last junction (in 0..n-1) is assigned
    due = [[] for _ in range(n)]
    for b, box in enumerate(q.boxes):
        due[max(box)].append(b)
    rel = q.semantics == "rel"
    best: dict = {}
    assign = [0] * n

    def walk(j: int, cost: int) -> None:
        if j == n:
            o = tuple(assign[x] for x in q.outer)
            if rel:
                best[o] = 0
            elif cost < best.get(o, INF):
                best[o] = cost
            return
        for v in range(q.domains[j]):
            assign[j] = v
            c = cost
            for b in due[j]:
                t = tuple(assign[x] for x in q.boxes[b])
                if rel:
                    if t not in q.data[b]:
                        break
                else:
                    c += q.data[b].get(t, INF)
                    if c > CAP:
                        break
            else:
                walk(j + 1, c)

    walk(0, 0)
    outs = _product([q.domains[j] for j in q.outer])
    if rel:
        return {o for o in outs if o in best}
    return {o: best.get(o, INF) for o in outs}


def decode(q: Query, printed: str):
    """Read the program's printed answer: a hex mask or a cost array."""
    outs = _product([q.domains[j] for j in q.outer])
    if q.semantics == "rel":
        mask = int(printed, 16)
        if mask >> len(outs):
            raise ValueError("mask has bits beyond the outer product")
        return {o for i, o in enumerate(outs) if (mask >> i) & 1}
    vals = json.loads(printed)
    if len(vals) != len(outs):
        raise ValueError("cost array does not cover the outer product")
    return {o: INF if v == "inf" else v for o, v in zip(outs, vals)}


def check(q: Query, printed: str) -> bool:
    try:
        return decode(q, printed) == expected(q)
    except (ValueError, TypeError):
        return False
