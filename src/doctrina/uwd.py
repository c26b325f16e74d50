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
costs for min-plus (``cap + 1`` for infinity).  Files carry the same
data as a hex mask or a cost array with "inf"; ``load_corpus`` decodes
the mask at the boundary and ``format_predicate`` encodes it again.
Nothing on the evaluation path encodes a predicate as an element index
of a fiber; only the law suites do.
"""

from __future__ import annotations

import itertools
import json
import warnings
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

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


def reindex(
    ports: FinFn,
    src: LabelledFinSet,
    dst: LabelledFinSet,
    types: TypeAssignment,
) -> FinFn:
    """The value-level map induced by a port map src -> dst, running
    contravariantly from assignments on dst to assignments on src.

    An assignment v on dst goes to the src index sum over src ports p of
    v[ports(p)] * stride(p), where stride(p) is the product of the
    domains of the src ports after p.  Grouped by dst port, port j adds
    v[j] times the summed strides of the src ports on it, so the table is
    built by expanding those terms row-major over the dst ports."""
    sizes = [types.size(lab) for lab in dst.labels]
    strides = [0] * len(sizes)
    stride = 1
    for p in reversed(range(src.base.size)):
        strides[ports.table[p]] += stride
        stride *= types.size(src.labels[p])
    table = [0]
    for n, c in zip(sizes, strides):
        offsets = [v * c for v in range(n)]
        table = [t + o for t in table for o in offsets]
    return FinFn(denote(dst, types), FinSet(stride), tuple(table))


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
    membership (relational) or a cost (min-plus)."""

    context: LabelledFinSet
    predicate: tuple[int, ...]


def evaluate(w: UwdDiagram, sys: System, d: Doctrine, types: TypeAssignment) -> System:
    """Push a system through a diagram: substitute, then quantify."""
    if sys.context != w.inner:
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
    fhat = reindex(w.f, w.inner, w.junctions, types)
    ghat = reindex(w.g, w.outer, w.junctions, types)
    return System(w.outer, d.act(fhat, ghat, sys.predicate))


def compose_diagrams(outer: UwdDiagram, inner_fill: UwdDiagram) -> UwdDiagram:
    """Nest inner_fill into outer; junctions merge by pushout."""
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
) -> System:
    """Combine independent systems over the concatenated context."""
    ctx = LabelledFinSet(
        FinSet(s1.context.base.size + s2.context.base.size),
        s1.context.labels + s2.context.labels,
    )
    a, b = denote(s1.context, types), denote(s2.context, types)
    return System(ctx, d.pair_predicate(a, b, s1.predicate, s2.predicate))


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


def _labelled(labels: list, types: TypeAssignment, what: str) -> LabelledFinSet:
    """A label list from a file; a string is not one (``"wv"`` would read
    as the labels ``w``, ``v``)."""
    if not isinstance(labels, list) or not all(type(t) is str for t in labels):
        raise ValueError(f"{what} {json.dumps(labels)} is not a list of labels")
    for lab in labels:
        if lab not in types.domains:
            raise ValueError(f"{what}: no domain for label {json.dumps(lab)}")
    return LabelledFinSet(FinSet(len(labels)), tuple(labels))


_HEX = frozenset("0123456789abcdefABCDEF")
# entry i of a relational predicate is bit i of its hex mask; the two are
# converted through the mask's binary digits, whole strings at a time
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _check_size(
    ctx: LabelledFinSet, types: TypeAssignment, max_size: int | None, what: str
) -> None:
    """Refuse a context whose denoted product has more than ``max_size``
    tuples, multiplying only until the product passes the bound (an
    empty domain anywhere makes it empty)."""
    if max_size is None:
        return
    sizes = [types.size(lab) for lab in ctx.labels]
    if 0 in sizes:
        return
    n = 1
    for size in sizes:
        n *= size
        if n > max_size:
            raise ValueError(
                f"{what} denotes more than {max_size} tuples, above the size "
                "guard; rerun with --force"
            )


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

    diagrams: dict[str, UwdDiagram] = {}
    for name, spec in _object(doc.get("diagrams", {}), "diagrams").items():
        spec = _object(spec, f"diagram {name}")
        keys = ("inner", "junctions", "outer", "f", "g")
        json_keys(spec, keys, f"diagram {name}")
        _required(spec, keys, f"diagram {name}")
        inner = _labelled(spec["inner"], types, f"diagram {name}: inner")
        junctions = _labelled(spec["junctions"], types, f"diagram {name}: junctions")
        outer = _labelled(spec["outer"], types, f"diagram {name}: outer")
        for side, ports in (("inner", inner), ("junctions", junctions), ("outer", outer)):
            _check_size(ports, types, max_size, f"diagram {name}: {side}")
        k, legs = junctions.base.size, []
        for leg, side, ports in (("f", "inner", inner), ("g", "outer", outer)):
            table = spec[leg]
            if not isinstance(table, list) or any(type(j) is not int for j in table):
                raise ValueError(
                    f"diagram {name}: {leg} {json.dumps(table)} is not a list of junctions"
                )
            if len(table) != ports.base.size:
                raise ValueError(
                    f"diagram {name}: {leg} has length {len(table)}, not the "
                    f"number of {side} ports ({ports.base.size})"
                )
            if table and (min(table) < 0 or max(table) >= k):
                p, j = next((p, j) for p, j in enumerate(table) if not 0 <= j < k)
                raise ValueError(
                    f"diagram {name}: {leg} sends {side} port {p} to junction {j}, "
                    f"outside the {k} junctions"
                )
            legs.append(FinFn(ports.base, junctions.base, tuple(table)))
        try:
            diagrams[name] = UwdDiagram(inner, junctions, outer, *legs)
        except LabelClash as e:
            raise LabelClash(f"diagram {name}: {e}") from None

    systems: dict[str, tuple[System, str]] = {}
    for name, spec in _object(doc.get("systems", {}), "systems").items():
        spec = _object(spec, f"system {name}")
        keys = ("context", "semantics", "data")
        json_keys(spec, keys, f"system {name}")
        _required(spec, keys, f"system {name}")
        ctx = _labelled(spec["context"], types, f"system {name}: context")
        _check_size(ctx, types, max_size, f"system {name}: context")
        semantics = spec["semantics"]
        data = spec["data"]
        n = denote(ctx, types).size
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
