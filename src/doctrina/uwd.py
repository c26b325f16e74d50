"""Undirected wiring diagrams over typed ports, and their predicate action.

A diagram is a cospan of labelled finite sets: inner ports and outer
ports soldered onto shared junctions.  Evaluating a system means
substituting its predicate along the junction-to-inner reindexing and
then quantifying along the junction-to-outer reindexing; nesting
diagrams composes by pushout, and the whole point of the law suites is
that evaluation does not care whether you nest first or evaluate first.

Value domains for the port types are supplied by a ``TypeAssignment``;
contexts denote as row-major products with port 0 most significant.
A system carries its predicate as the doctrine's own value, a tuple of
V's elements over the denoted product: 0/1 membership for a relation,
costs for min-plus (``cap + 1`` for infinity).  A tensor of systems
keeps its two parts, so the joint predicate over the concatenated
context is built only when something reads it.  Under a doctrine whose
quantifiers pass the factors that do not mention their variable
(``Doctrine.factorises``, Frobenius reciprocity), evaluation never
does: it joins the hidden junctions out one at a time, each of the
factors that touch it alone (bucket elimination), following a plan kept
per diagram shape (``elimination_plan``), so that no column spans the
junction product.  Under any other doctrine a tensor is evaluated
through its joint.  The reindexing maps behind every read are memoised
on their shape, so the plans of different diagrams share them.  Files
carry the same data as a hex mask or a cost array with "inf";
``load_corpus`` decodes the mask at the boundary and
``format_predicate`` encodes it again.  ``load_corpus`` also checks and
builds each diagram once per shape, keyed on the document's domains,
the size guard and the diagram's exact values, and any miss runs every
check; ``compose_diagrams`` keeps each nesting, since diagrams are
frozen.
Nothing on the evaluation path encodes a predicate as an element index
of a fiber; only the law suites do.
"""

from __future__ import annotations

import itertools
import json
import warnings
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod
from operator import itemgetter

from .errors import BoundaryMismatch, ContextMismatch, LabelClash
from .finset import FinFn, FinSet, LabelledFinSet, compose, pushout
from .doctrine import Doctrine


@dataclass
class TypeAssignment:
    """A finite value domain for each port label."""

    domains: dict[str, int]

    def size(self, label: str) -> int:
        if label not in self.domains:
            raise KeyError(f"no domain for label {label!r}")
        return self.domains[label]

    def values(self, label: str) -> range:
        return range(self.size(label))


def denote(ctx: LabelledFinSet, types: TypeAssignment) -> FinSet:
    """The product of the port value domains, row-major in port order."""
    n = 1
    for lab in ctx.labels:
        n *= types.size(lab)
    return FinSet(n)


def tuple_index(values: Iterable[int], ctx: LabelledFinSet, types: TypeAssignment) -> int:
    idx = 0
    for v, lab in zip(values, ctx.labels):
        idx = idx * types.size(lab) + v
    return idx


def index_tuple(idx: int, ctx: LabelledFinSet, types: TypeAssignment) -> tuple[int, ...]:
    out = []
    for lab in reversed(ctx.labels):
        s = types.size(lab)
        out.append(idx % s)
        idx //= s
    return tuple(reversed(out))


def all_tuples(ctx: LabelledFinSet, types: TypeAssignment):
    return itertools.product(*(types.values(lab) for lab in ctx.labels))


# the most entries each memo of this module keeps, least recently used
# first out: ``reindex_map``'s maps, ``reader``'s readers,
# ``elimination_plan``'s plans, ``compose_diagrams``' nestings, and
# ``load_corpus``'s contexts (``_context``) and checked diagrams
# (``_diagram``); an eval stream repeats a few hundred shapes
REINDEX_MEMO = 512


def reindex(
    ports: FinFn,
    src: LabelledFinSet,
    dst: LabelledFinSet,
    types: TypeAssignment,
) -> FinFn:
    """The value-level map induced by a port map src -> dst, running
    contravariantly from assignments on dst to assignments on src: the
    memoised ``reindex_map`` of its port table and domain sizes."""
    return reindex_map(
        ports.table,
        tuple(map(types.size, src.labels)),
        tuple(map(types.size, dst.labels)),
    )


@lru_cache(maxsize=REINDEX_MEMO)
def reindex_map(
    table: tuple[int, ...], src_sizes: tuple[int, ...], dst_sizes: tuple[int, ...]
) -> FinFn:
    """``reindex`` of the port map ``table`` between ports of the given
    domain sizes, kept per shape, so that every diagram whose ports have
    that table and those sizes reads one map.

    An assignment v on dst goes to the src index sum over src ports p of
    v[table[p]] * stride(p), where stride(p) is the product of the
    domains of the src ports after p.  Grouped by dst port, port j adds
    v[j] times the summed strides of the src ports on it, so the table is
    built by expanding those terms row-major over the dst ports."""
    strides = [0] * len(dst_sizes)
    stride = 1
    for p in reversed(range(len(table))):
        strides[table[p]] += stride
        stride *= src_sizes[p]
    out = [0]
    for n, c in zip(dst_sizes, strides):
        offsets = [v * c for v in range(n)]
        out = [t + o for t in out for o in offsets]
    return FinFn(FinSet(len(out)), FinSet(stride), tuple(out))


@lru_cache(maxsize=REINDEX_MEMO)
def reader(m: FinFn) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The function reading a value at every entry of ``m``'s table, in
    order, kept per map: one ``itemgetter`` call instead of a Python
    call per entry (an ``itemgetter`` needs two entries to give a
    tuple)."""
    table = m.table
    if len(table) > 1:
        return itemgetter(*table)
    return lambda values: tuple(values[i] for i in table)


@dataclass(frozen=True)
class UwdDiagram:
    """A cospan inner -> junctions <- outer of labelled finite sets."""

    inner: LabelledFinSet
    junctions: LabelledFinSet
    outer: LabelledFinSet
    f: FinFn  # inner ports onto junctions
    g: FinFn  # outer ports onto junctions

    def __post_init__(self) -> None:
        if self.f.dom != self.inner.base or self.f.cod != self.junctions.base:
            raise BoundaryMismatch("inner leg does not match its boundaries")
        if self.g.dom != self.outer.base or self.g.cod != self.junctions.base:
            raise BoundaryMismatch("outer leg does not match its boundaries")
        for p, j in enumerate(self.f.table):
            if self.inner.labels[p] != self.junctions.labels[j]:
                raise LabelClash(
                    f"inner port {p} ({self.inner.labels[p]}) on junction "
                    f"{j} ({self.junctions.labels[j]})"
                )
        for p, j in enumerate(self.g.table):
            if self.outer.labels[p] != self.junctions.labels[j]:
                raise LabelClash(
                    f"outer port {p} ({self.outer.labels[p]}) on junction "
                    f"{j} ({self.junctions.labels[j]})"
                )

    def dangling_junctions(self) -> tuple[int, ...]:
        hit = set(self.f.table) | set(self.g.table)
        return tuple(j for j in range(self.junctions.base.size) if j not in hit)


def identity_diagram(ctx: LabelledFinSet) -> UwdDiagram:
    i = FinFn.identity(ctx.base)
    return UwdDiagram(ctx, ctx, ctx, i, i)


@dataclass
class System:
    """A context plus a predicate over its denotation, as the doctrine's
    value: one entry per tuple of the denoted product, row-major, 0/1
    membership (relational) or a cost (min-plus).  A tensor of systems
    is a ``TensorSystem``, which keeps its parts and builds this
    predicate only when it is read."""

    context: LabelledFinSet
    predicate: tuple[int, ...]


class TensorSystem(System):
    """Two systems side by side over their concatenated context, as
    ``tensor_systems`` makes them.  It keeps its two parts, and the
    doctrine and types that tensor them, so a tensor of tensors is a
    tree of the systems it was built from.  Its context is built on
    first read, once, from its leaves' labels, so the nodes inside a
    tree build none.  Its predicate is the joint that
    ``Doctrine.pair_predicate`` builds from its parts' predicates, built
    on first read and kept.  ``evaluate`` reads neither under a doctrine
    that factorises (``Doctrine.factorises``)."""

    def __init__(
        self, left: System, right: System, d: Doctrine, types: TypeAssignment
    ):
        self.parts = (left, right)
        self.doctrine, self.types = d, types

    @cached_property
    def context(self) -> LabelledFinSet:
        labels = tuple(
            lab for leaf in leaves(self, self.doctrine) for lab in leaf.context.labels
        )
        return LabelledFinSet(FinSet(len(labels)), labels)

    @cached_property
    def predicate(self) -> tuple[int, ...]:
        left, right = self.parts
        a, b = denote(left.context, self.types), denote(right.context, self.types)
        return self.doctrine.pair_predicate(a, b, left.predicate, right.predicate)


def leaves(sys: System, d: Doctrine) -> list[System]:
    """The systems a tensor made by ``d`` was built from, in order: its
    parts, and theirs, down to plain systems and to tensors made by
    another doctrine, whose joint ``d`` does not build."""
    out, stack = [], [sys]
    while stack:
        s = stack.pop()
        if isinstance(s, TensorSystem) and s.doctrine is d:
            stack.extend(reversed(s.parts))
        else:
            out.append(s)
    return out


@dataclass(frozen=True)
class Step:
    """One step of an ``elimination_plan``: tensor the factors in
    ``slots``, each read onto one set of junctions (its reader in
    ``reads``, ``None`` where the factor is over that set already), and
    join the column over the fibres of ``fibres`` into ``size`` entries
    (``None`` where the column is the result as it is)."""

    slots: tuple[int, ...]
    reads: tuple[Callable[[Sequence[int]], tuple[int, ...]] | None, ...]
    fibres: tuple[int, ...] | None
    size: int

    def run(self, d: Doctrine, factors: list[tuple[int, ...]]) -> tuple[int, ...]:
        column = None
        for slot, read in zip(self.slots, self.reads):
            value = factors[slot] if read is None else read(factors[slot])
            column = value if column is None else d.tensor_values(column, value)
        if self.fibres is None:
            return column
        return d.join_values(column, self.fibres, self.size)


@lru_cache(maxsize=REINDEX_MEMO)
def elimination_plan(
    tables: tuple[tuple[int, ...], ...], sizes: tuple[int, ...], outer: tuple[int, ...]
) -> tuple[Step, ...]:
    """The steps that evaluate a tensor of leaves whose ports lie on the
    junctions ``tables`` (one table per leaf), over junctions of domain
    ``sizes``, with outer ports on the junctions ``outer``, kept per
    shape like ``reindex_map``.  The factors start as the leaves'
    predicates, in order; each step appends one, and the last is the
    result.

    Each hidden junction that some leaf touches is joined out of the
    factors that contain it, and only of them (Frobenius): they are read
    onto the union of their junctions, tensored, and joined over the
    junction's values.  The junction taken next is the one of least
    union, by the product of its domains, the lowest index among equals
    (greedy min-degree order).  The last step tensors what is left over
    the kept junctions, the image of ``outer`` in first-seen order, and
    reads the outer assignments off it; one that no kept assignment
    reaches, where a junction exposed twice takes two values, is V's
    bottom.  A hidden junction that no leaf touches changes nothing,
    since joins are idempotent, unless its domain is empty: then the last
    step is taken over it too, and every outer assignment is the bottom.
    No column spans the junction product."""

    def onto(ports: tuple[int, ...], union: tuple[int, ...]) -> FinFn:
        # the map from assignments on ``union`` to assignments on ``ports``
        return reindex_map(
            tuple(map(union.index, ports)),
            tuple(sizes[j] for j in ports),
            tuple(sizes[j] for j in union),
        )

    def step(used, union: tuple[int, ...], ports: tuple[int, ...]) -> Step:
        # read the factors ``used`` onto ``union``, tensor them, and
        # join the column onto ``ports``
        return Step(
            tuple(slot for slot, _ in used),
            tuple(None if p == union else reader(onto(p, union)) for _, p in used),
            None if ports == union else onto(ports, union).table,
            prod(sizes[j] for j in ports),
        )

    # each factor by its slot and ports, in slot order: a leaf's port
    # table, whose junctions may repeat, or the junctions of the factor a
    # step made; ``at[j]`` holds the factors on junction j, in slot order
    # too, and ``cost[j]`` the size of their union, for each hidden j
    factors = dict(enumerate(tables))
    at: dict[int, dict[int, tuple[int, ...]]] = {}
    for slot, ports in factors.items():
        for j in ports:
            at.setdefault(j, {})[slot] = ports
    touched = set(at)
    hidden = sorted(touched.difference(outer))
    steps: list[Step] = []

    def union_at(j: int) -> tuple[int, ...]:
        return tuple(dict.fromkeys(k for p in at[j].values() for k in p))

    cost = {j: prod(sizes[k] for k in union_at(j)) for j in hidden}
    while hidden:
        j = min(hidden, key=cost.__getitem__)
        hidden.remove(j)
        union = union_at(j)
        rest = tuple(k for k in union if k != j)
        used = at.pop(j)
        steps.append(step(used.items(), union, rest))
        for slot, ports in used.items():
            del factors[slot]
            for k in ports:
                if k != j:
                    at[k].pop(slot, None)
        # only the junctions of the union see their factors change
        slot = len(tables) + len(steps) - 1
        factors[slot] = rest
        for k in rest:
            at[k][slot] = rest
            if k in cost:
                cost[k] = prod(sizes[x] for x in union_at(k))
    empty = tuple(
        j for j, n in enumerate(sizes) if n == 0 and j not in touched and j not in outer
    )
    steps.append(step(factors.items(), tuple(dict.fromkeys(outer)) + empty, outer))
    return tuple(steps)


def evaluate(w: UwdDiagram, sys: System, d: Doctrine, types: TypeAssignment) -> System:
    """Push a system through a diagram: substitute, then quantify.  A
    tensor of systems under a doctrine that factorises
    (``Doctrine.factorises``) is evaluated without its joint: its leaves
    are read and its junctions joined out one at a time, by the
    ``elimination_plan`` of the diagram's shape.  Under any other
    doctrine, and for a plain system, the predicate is substituted along
    the inner leg and quantified along the outer one (``Doctrine.act``),
    over the junction assignments."""
    factorised = isinstance(sys, TensorSystem) and d.factorises
    if factorised:
        # the leaves' labels against the inner boundary, in the walk that
        # cuts the inner leg into their tables: no context is built
        parts, tables, start = leaves(sys, d), [], 0
        labels = w.inner.labels
        for part in parts:
            end = start + part.context.base.size
            if labels[start:end] != part.context.labels:
                break
            tables.append(w.f.table[start:end])
            start = end
        matched = len(tables) == len(parts) and start == len(labels)
    else:
        matched = sys.context == w.inner
    if not matched:
        raise ContextMismatch(
            f"system context {sys.context} is not the diagram's inner boundary"
        )
    for j in w.dangling_junctions():
        if types.size(w.junctions.labels[j]) == 0:
            warnings.warn(
                f"dangling junction {j} has an empty domain; "
                "the quantified predicate collapses",
                stacklevel=2,
            )
    if factorised:
        factors = [part.predicate for part in parts]
        sizes = tuple(map(types.size, w.junctions.labels))
        for step in elimination_plan(tuple(tables), sizes, w.g.table):
            factors.append(step.run(d, factors))
        return System(w.outer, factors[-1])
    fhat = reindex(w.f, w.inner, w.junctions, types)
    ghat = reindex(w.g, w.outer, w.junctions, types)
    return System(w.outer, d.act(fhat, ghat, sys.predicate))


@lru_cache(maxsize=REINDEX_MEMO)
def compose_diagrams(outer: UwdDiagram, inner_fill: UwdDiagram) -> UwdDiagram:
    """Nest inner_fill into outer; junctions merge by pushout.  Diagrams
    are frozen, so the nesting is kept per pair, and a repeated nesting
    runs no pushout."""
    if inner_fill.outer != outer.inner:
        raise BoundaryMismatch("filler's outer boundary must be the host's inner")
    po = pushout(
        inner_fill.g,
        outer.f,
        labels=(inner_fill.junctions.labels, outer.junctions.labels),
    )
    junctions = LabelledFinSet(po.apex, po.labels)
    return UwdDiagram(
        inner_fill.inner,
        junctions,
        outer.outer,
        compose(inner_fill.f, po.i1),
        compose(outer.g, po.i2),
    )


def disjoint_union(w1: UwdDiagram, w2: UwdDiagram) -> UwdDiagram:
    """Side-by-side diagrams: contexts concatenate, junctions stack."""

    def cat(a: LabelledFinSet, b: LabelledFinSet) -> LabelledFinSet:
        return LabelledFinSet(FinSet(a.base.size + b.base.size), a.labels + b.labels)

    off = w1.junctions.base.size
    junctions = cat(w1.junctions, w2.junctions)
    inner = cat(w1.inner, w2.inner)
    outer = cat(w1.outer, w2.outer)
    f = FinFn(inner.base, junctions.base, w1.f.table + tuple(j + off for j in w2.f.table))
    g = FinFn(outer.base, junctions.base, w1.g.table + tuple(j + off for j in w2.g.table))
    return UwdDiagram(inner, junctions, outer, f, g)


def tensor_systems(
    s1: System, s2: System, d: Doctrine, types: TypeAssignment
) -> TensorSystem:
    """Combine independent systems over the concatenated context.  The
    result keeps both parts; its joint predicate is built only when read
    (``TensorSystem``)."""
    return TensorSystem(s1, s2, d, types)


def functoriality_check(
    outer: UwdDiagram,
    inner_fill: UwdDiagram,
    sys: System,
    d: Doctrine,
    types: TypeAssignment,
) -> bool:
    """Nest-then-evaluate equals evaluate-then-evaluate, literally."""
    flat = evaluate(compose_diagrams(outer, inner_fill), sys, d, types)
    nested = evaluate(outer, evaluate(inner_fill, sys, d, types), d, types)
    return flat.context == nested.context and flat.predicate == nested.predicate


# ---------------------------------------------------------------------------
# predicate codecs


def rel_tuples(pred: tuple[int, ...], ctx: LabelledFinSet, types: TypeAssignment) -> frozenset:
    return frozenset(index_tuple(i, ctx, types) for i, v in enumerate(pred) if v)


def rel_pred(
    tuples: Iterable[tuple], ctx: LabelledFinSet, types: TypeAssignment
) -> tuple[int, ...]:
    values = [0] * denote(ctx, types).size
    for t in tuples:
        values[tuple_index(t, ctx, types)] = 1
    return tuple(values)


class _Costs(Mapping):
    """A cost vector read as a map from the context's value tuples, entry
    by entry, so that a large input needs no dict over its product."""

    def __init__(self, values, ctx: LabelledFinSet, types: TypeAssignment):
        if len(values) != denote(ctx, types).size:
            raise ValueError(f"{len(values)} costs for {denote(ctx, types).size} tuples")
        self.values, self.ctx, self.types = values, ctx, types
        self.sizes = [types.size(lab) for lab in ctx.labels]

    def __getitem__(self, t):
        if len(t) != len(self.sizes) or not all(0 <= v < n for v, n in zip(t, self.sizes)):
            raise KeyError(t)
        return self.values[tuple_index(t, self.ctx, self.types)]

    def __iter__(self):
        return all_tuples(self.ctx, self.types)

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        return repr(dict(self))


def trop_costs(
    values: tuple[int, ...], ctx: LabelledFinSet, types: TypeAssignment
) -> Mapping[tuple, int]:
    return _Costs(values, ctx, types)


def trop_pred(
    costs: Mapping[tuple, int], ctx: LabelledFinSet, types: TypeAssignment, cap: int
) -> tuple[int, ...]:
    inf = cap + 1
    n = denote(ctx, types).size
    values = [inf] * n
    for t, v in costs.items():
        values[tuple_index(t, ctx, types)] = min(v, inf)
    return tuple(values)


# ---------------------------------------------------------------------------
# independent oracles


def relational_oracle(
    w: UwdDiagram, members: frozenset, types: TypeAssignment
) -> frozenset:
    """Brute-force conjunctive-query evaluation over raw value tuples."""
    out = set()
    for j in all_tuples(w.junctions, types):
        inner = tuple(j[w.f.table[p]] for p in range(w.inner.base.size))
        if inner in members:
            out.add(tuple(j[w.g.table[p]] for p in range(w.outer.base.size)))
    return frozenset(out)


def tropical_oracle(
    w: UwdDiagram, costs: Mapping[tuple, int], types: TypeAssignment, cap: int
) -> dict[tuple, int]:
    """Brute-force min-over-fibres evaluation over raw value tuples."""
    inf = cap + 1
    out: dict[tuple, int] = {
        t: inf for t in all_tuples(w.outer, types)
    }
    for j in all_tuples(w.junctions, types):
        inner = tuple(j[w.f.table[p]] for p in range(w.inner.base.size))
        cost = costs.get(inner, inf)
        o = tuple(j[w.g.table[p]] for p in range(w.outer.base.size))
        if cost < out[o]:
            out[o] = cost
    return out


# ---------------------------------------------------------------------------
# file format


@dataclass
class Corpus:
    types: TypeAssignment
    diagrams: dict[str, UwdDiagram]
    systems: dict[str, tuple[System, str]]  # name -> (system, semantics)


def _object(value, what: str) -> dict:
    """A JSON object from a file; any other JSON value is an error."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {json.dumps(value)}")
    return value


def load_json_file(path: str):
    """Decode the JSON file at ``path``.  A document nested deeper than
    the decoder can recurse is a ``ValueError`` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to decode") from None


def json_keys(obj: dict, keys: tuple[str, ...], what: str) -> None:
    """Refuse a key outside ``keys``: it would be ignored, unread."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"unknown key {json.dumps(key)} in {what}")


def _required(spec: dict, keys: tuple[str, ...], what: str) -> None:
    """Refuse a spec without one of ``keys``, naming the spec and key."""
    for key in keys:
        if key not in spec:
            raise ValueError(f"{what}: missing key {json.dumps(key)}")


def _labelled(
    labels, domains: tuple[tuple[str, int], ...], what: str
) -> tuple[LabelledFinSet, tuple[int, ...]]:
    """A label list from a file, as the ``_context`` of its labels under
    the document's label-domain pairs ``domains``; a string is not one
    (``"wv"`` would read as the labels ``w``, ``v``).  A list of strings
    is looked up as it comes; anything else, or a list with a label
    without a domain, is checked entry by entry for its error."""
    if type(labels) is list and set(map(type, labels)) <= _STR:
        try:
            return _context(tuple(labels), domains)
        except KeyError:
            pass
    if not isinstance(labels, list) or not all(type(t) is str for t in labels):
        raise ValueError(f"{what} {json.dumps(labels)} is not a list of labels")
    known = dict(domains)
    for lab in labels:
        if lab not in known:
            raise ValueError(f"{what}: no domain for label {json.dumps(lab)}")
    return _context(tuple(labels), domains)


@lru_cache(maxsize=REINDEX_MEMO)
def _context(
    labels: tuple[str, ...], domains: tuple[tuple[str, int], ...]
) -> tuple[LabelledFinSet, tuple[int, ...]]:
    """The context over ``labels`` and their domain sizes under the
    label-domain pairs ``domains`` (a ``KeyError`` for a label without
    one), kept per list and pairs: every diagram side and system context
    that carries the list is one object."""
    size = dict(domains)
    return LabelledFinSet(FinSet(len(labels)), labels), tuple(size[t] for t in labels)


_HEX = frozenset("0123456789abcdefABCDEF")
# entry i of a relational predicate is bit i of its hex mask; the two are
# converted through the mask's binary digits, whole strings at a time
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
# the exact types a file's values must have to be looked up in a memo by
# value: ``"wv"``, ``true`` and ``1.0`` equal or hash like ``["w", "v"]``
# and ``1``
_LIST, _STR, _INT = {list}, {str}, {int}


def _check_size(sizes: tuple[int, ...], max_size: int | None, what: str) -> None:
    """Refuse a context whose domain sizes ``sizes`` multiply to more
    than ``max_size`` tuples, multiplying only until the product passes
    the bound (an empty domain anywhere makes it empty)."""
    if max_size is None or 0 in sizes:
        return
    n = 1
    for size in sizes:
        n *= size
        if n > max_size:
            raise ValueError(
                f"{what} denotes more than {max_size} tuples, above the size "
                "guard; rerun with --force"
            )


def _check_diagram(
    domains: tuple[tuple[str, int], ...], max_size: int | None, inner, junctions, outer, f, g
) -> UwdDiagram:
    """A diagram from a file's values, checked in order: its label lists
    (``_labelled``), the size guard on each side, each leg's entries,
    length and range, and the labels each leg joins (``UwdDiagram``).
    Messages name the side or leg; ``load_corpus`` puts the diagram's
    name in front."""
    sides = (("inner", inner), ("junctions", junctions), ("outer", outer))
    contexts = [_labelled(labels, domains, side) for side, labels in sides]
    for (side, _), (_, sizes) in zip(sides, contexts):
        _check_size(sizes, max_size, side)
    (inner, _), (junctions, _), (outer, _) = contexts
    k, legs = junctions.base.size, []
    for leg, table, side, ports in (("f", f, "inner", inner), ("g", g, "outer", outer)):
        if not isinstance(table, list) or any(type(j) is not int for j in table):
            raise ValueError(f"{leg} {json.dumps(table)} is not a list of junctions")
        if len(table) != ports.base.size:
            raise ValueError(
                f"{leg} has length {len(table)}, not the number of {side} ports "
                f"({ports.base.size})"
            )
        if table and (min(table) < 0 or max(table) >= k):
            p, j = next((p, j) for p, j in enumerate(table) if not 0 <= j < k)
            raise ValueError(
                f"{leg} sends {side} port {p} to junction {j}, outside the {k} junctions"
            )
        legs.append(FinFn(ports.base, junctions.base, tuple(table)))
    return UwdDiagram(inner, junctions, outer, *legs)


@lru_cache(maxsize=REINDEX_MEMO)
def _diagram(
    domains: tuple[tuple[str, int], ...], max_size: int | None, *values: tuple
) -> UwdDiagram:
    """``_check_diagram`` of the tuples of a diagram's inner, junctions,
    outer, f and g, kept per document label-domain pairs, size guard and
    values: a repeated diagram is checked and built once, and is one
    object.  Only values of the exact types ``load_corpus`` pre-checks
    come here; an error is raised again on every call, never kept."""
    return _check_diagram(domains, max_size, *map(list, values))


def load_corpus(doc: dict, cap: int = 3, max_size: int | None = None) -> Corpus:
    """Parse the diagram/system interchange dictionary.

    Top-level keys: labels (a list of strings), domains (a natural number
    per label), diagrams, systems; a diagram has the keys inner,
    junctions, outer, f and g, a system context, semantics and data, and
    any other key is refused.  The document, its sections and each
    diagram or system are JSON objects.  Relational data
    is a hex bitmask over the denoted product, with no bit beyond it,
    loaded as the 0/1 tuple of its bits;
    cost data is an array of natural numbers (saturating above the cap)
    with "inf" for infinity.  Arrays are 0-indexed, row-major, port 0
    most significant.  Anything else raises ``ValueError``; each check is
    one pass over the data as given.  With ``max_size`` set, a system
    context or a diagram's inner, junction or outer set whose denoted
    product has more tuples is refused before anything is built over it.

    A diagram is checked and built once per shape (``_diagram``), keyed
    on the document's label-domain pairs, ``max_size`` and the exact
    tuples of its inner, junctions, outer, f and g; a repeat is the same
    frozen ``UwdDiagram``.  The key is formed only when the five values
    are lists, the labels strings and the legs' entries integers (never
    ``true`` or ``1.0``), so no other value can equal one.  A miss, or a
    value of another type, runs every check in order, so every error is
    a first load's, naming its own diagram; no error is kept.  Each label
    list is one context per label-domain pairs (``_context``), shared by
    the diagrams and systems that carry it.
    """
    doc = _object(doc, "a diagram/system document")
    json_keys(doc, ("labels", "domains", "diagrams", "systems"), "the document")
    labels = doc.get("labels", [])
    if not isinstance(labels, list):
        raise ValueError(f"labels {json.dumps(labels)} is not a list of labels")
    domains = _object(doc.get("domains", {}), "domains")
    # the keys of a JSON object are strings, so every label found is one
    missing = [t for t in labels if type(t) is not str or t not in domains]
    if missing:
        raise ValueError(f"labels without domains: {missing}")
    # a JSON integer: never true, 2.9 or "2"; 0 is the empty domain
    for t in labels:
        if type(domains[t]) is not int or domains[t] < 0:
            size = json.dumps(domains[t])
            raise ValueError(f"domain of {t!r} must be a natural number, got {size}")
    types = TypeAssignment({t: domains[t] for t in labels})
    pairs = tuple(types.domains.items())

    diagrams: dict[str, UwdDiagram] = {}
    for name, spec in _object(doc.get("diagrams", {}), "diagrams").items():
        spec = _object(spec, f"diagram {name}")
        keys = ("inner", "junctions", "outer", "f", "g")
        json_keys(spec, keys, f"diagram {name}")
        _required(spec, keys, f"diagram {name}")
        values = [spec[key] for key in keys]
        inner, junctions, outer, f, g = values
        try:
            if (
                set(map(type, values)) == _LIST
                and set(map(type, inner + junctions + outer)) <= _STR
                and set(map(type, f + g)) <= _INT
            ):
                diagrams[name] = _diagram(pairs, max_size, *map(tuple, values))
            else:
                diagrams[name] = _check_diagram(pairs, max_size, *values)
        except (ValueError, LabelClash) as e:
            raise type(e)(f"diagram {name}: {e}") from None

    systems: dict[str, tuple[System, str]] = {}
    for name, spec in _object(doc.get("systems", {}), "systems").items():
        spec = _object(spec, f"system {name}")
        keys = ("context", "semantics", "data")
        json_keys(spec, keys, f"system {name}")
        _required(spec, keys, f"system {name}")
        ctx, sizes = _labelled(spec["context"], pairs, f"system {name}: context")
        _check_size(sizes, max_size, f"system {name}: context")
        semantics = spec["semantics"]
        data = spec["data"]
        n = prod(sizes)
        if semantics == "rel":
            if not isinstance(data, str) or not data or not set(data) <= _HEX:
                raise ValueError(f"system {name}: data {data!r} is not a hex mask")
            mask = int(data, 16)
            if mask >> n:
                raise ValueError(f"system {name}: mask {data} has bits beyond {n} tuples")
            # the n digits under a leading 1, read last digit first
            pred = tuple(bin(mask | 1 << n)[:2:-1].encode().translate(_FROM_DIGITS))
        elif semantics == "trop":
            if not isinstance(data, list):
                raise ValueError(f"system {name}: cost data {data!r} is not an array")
            inf = cap + 1

            def cost(v):
                if type(v) is int and v >= 0:
                    return v if v < inf else inf
                if v == "inf":
                    return inf
                raise ValueError(
                    f"system {name}: cost {v!r} is neither a natural number nor \"inf\""
                )

            # straight into the tuple: no list of costs beside the parsed data
            pred = tuple(map(cost, data))
            if len(pred) != n:
                raise ValueError(f"system {name}: expected {n} costs, got {len(pred)}")
        else:
            raise ValueError(f"system {name}: unknown semantics {semantics!r}")
        systems[name] = (System(ctx, pred), semantics)
    return Corpus(types, diagrams, systems)


def load_corpus_file(path: str, cap: int = 3, max_size: int | None = None) -> Corpus:
    return load_corpus(load_json_file(path), cap=cap, max_size=max_size)


def format_predicate(sys: System, semantics: str, types: TypeAssignment, cap: int) -> str:
    """Render a result the way files carry it: hex mask or cost array."""
    if semantics == "rel":
        digits = bytes(sys.predicate[::-1]).translate(_TO_DIGITS)
        return format(int(b"0" + digits, 2), "x")
    return json.dumps(["inf" if v > cap else v for v in sys.predicate])
