"""The double category of spans over an adequate triple, taken with tight
arrows reversed.

A ``Span`` is a loose arrow: two legs out of a shared apex, left leg in
the L class, right leg in R.  A ``SpanCell`` is stored as a morphism of
spans in the base category (apex map plus two foot maps, both squares
commuting); under the reversed-tight-arrow reading its boundary tights
point the other way, which is what makes the quantifier cells below come
out as adjunction units and counits.

Loose composition is by pullback and is strictly unital thanks to the
identity convention in :mod:`doctrina.finset`; associativity holds only
up to the canonical mediating bijection, which the property suite checks
but composites never carry.  It has one implementation, on span keys,
a span's foot sizes and leg tables (``SpanCategory.compose_keys``), with
the product span beside it (``product_key``); ``loose_compose`` wraps it
for ``Span`` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator, NamedTuple

from .errors import BoundaryMismatch, ClassViolation, ObjMismatch
from .finset import (
    AdequateTriple,
    FinFn,
    FinSet,
    Pullback,
    Universe,
    compose,
    matching,
    product_table,
    pullback,
)
from .report import Report


# a span as its feet's sizes and its leg tables, (source size, target
# size, left table, right table): all that fixes it, since the apex is
# the length of either table
SpanKey = tuple[int, int, tuple[int, ...], tuple[int, ...]]


def _is_identity(table: tuple[int, ...], cod: int) -> bool:
    return len(table) == cod and table == tuple(range(cod))


def product_key(x: SpanKey, y: SpanKey) -> SpanKey:
    """The product span x ⊗ y, each leg the product of the two legs on
    row-major products (``finset.fn_product``'s table)."""
    n, k, lt, rt = x
    n2, k2, lt2, rt2 = y
    return n * n2, k * k2, product_table(lt, lt2, n2), product_table(rt, rt2, k2)


@dataclass(frozen=True, slots=True)
class Span:
    """A loose arrow source <- apex -> target; hashed once, like ``FinFn``."""

    left: FinFn
    right: FinFn
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.left.dom != self.right.dom:
            raise ValueError("span legs must share an apex")
        object.__setattr__(self, "_hash", hash((self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def key(self) -> SpanKey:
        """The span as (source size, target size, left table, right table)."""
        return self.left.cod.size, self.right.cod.size, self.left.table, self.right.table

    @staticmethod
    def of(key: SpanKey) -> "Span":
        """The span whose ``key`` is ``key``."""
        n, k, lt, rt = key
        apex = FinSet(len(lt))
        return Span(FinFn(apex, FinSet(n), lt), FinFn(apex, FinSet(k), rt))

    @property
    def apex(self) -> FinSet:
        return self.left.dom

    @property
    def source(self) -> FinSet:
        return self.left.cod

    @property
    def target(self) -> FinSet:
        return self.right.cod

    @staticmethod
    def identity(a: FinSet) -> "Span":
        i = FinFn.identity(a)
        return Span(i, i)

    @staticmethod
    def companion(f: FinFn) -> "Span":
        """The one-legged span of f whose loose image substitutes along f."""
        return Span(f, FinFn.identity(f.dom))

    @staticmethod
    def conjoint(f: FinFn) -> "Span":
        """The one-legged span of f whose loose image quantifies along f."""
        return Span(FinFn.identity(f.dom), f)

    @property
    def is_identity(self) -> bool:
        return self.left.is_identity and self.right.is_identity

    def __repr__(self) -> str:
        return f"Span({self.left!r}, {self.right!r})"


@dataclass(frozen=True)
class SpanCell:
    """A morphism of spans src -> dst; the double cell it presents has its
    tight boundaries running dst -> src in the reversed orientation."""

    src: Span
    dst: Span
    tight_left: FinFn   # src.source -> dst.source
    tight_right: FinFn  # src.target -> dst.target
    apex_map: FinFn     # src.apex -> dst.apex

    def __post_init__(self) -> None:
        if (
            self.tight_left.dom != self.src.source
            or self.tight_left.cod != self.dst.source
            or self.tight_right.dom != self.src.target
            or self.tight_right.cod != self.dst.target
            or self.apex_map.dom != self.src.apex
            or self.apex_map.cod != self.dst.apex
        ):
            raise BoundaryMismatch("cell data does not frame src -> dst")
        if compose(self.apex_map, self.dst.left) != compose(self.src.left, self.tight_left):
            raise BoundaryMismatch("left square does not commute")
        if compose(self.apex_map, self.dst.right) != compose(self.src.right, self.tight_right):
            raise BoundaryMismatch("right square does not commute")

    @staticmethod
    def loose_identity(x: Span) -> "SpanCell":
        """The identity cell on a loose arrow."""
        return SpanCell(
            x, x,
            FinFn.identity(x.source), FinFn.identity(x.target),
            FinFn.identity(x.apex),
        )

    @staticmethod
    def tight_identity(f: FinFn) -> "SpanCell":
        """The cell the identity-span functor assigns to a tight arrow."""
        return SpanCell(Span.identity(f.dom), Span.identity(f.cod), f, f, f)


class CellData(NamedTuple):
    """A morphism of spans as bare data, in ``SpanCell``'s field order and
    unvalidated: what ``SpanCategory.enumerate_cell_data`` yields.  Its
    first four fields are the cell's boundary."""

    src: Span
    dst: Span
    tight_left: FinFn
    tight_right: FinFn
    apex_map: FinFn


class SnakeData(NamedTuple):
    """The companion (``companion``) or conjoint of a tight arrow: its
    one-legged span with the unit and counit cells."""

    tight: FinFn
    span: Span
    unit: SpanCell
    counit: SpanCell
    companion: bool


class SpanCategory:
    """Span(triple) with reversed tight arrows, at finite scale."""

    def __init__(self, triple: AdequateTriple):
        self.triple = triple
        # the pullback of every cospan ``interchange`` or ``cell_hcompose``
        # has met, kept as long as this category, and for each factor
        # cospan of ``interchange`` its apex grouped by the first
        # projection
        self._pullbacks: dict[tuple[FinFn, FinFn], Pullback] = {}
        self._rows: dict[tuple[FinFn, FinFn], tuple[tuple[int, ...], ...]] = {}

    # -- loose arrows -------------------------------------------------

    def span(self, left: FinFn, right: FinFn) -> Span:
        if not self.triple.left.contains(left):
            raise ClassViolation(f"left leg {left} not in L")
        if not self.triple.right.contains(right):
            raise ClassViolation(f"right leg {right} not in R")
        return Span(left, right)

    def _pullback(self, x: FinFn, y: FinFn) -> Pullback:
        """``finset.pullback(x, y)``, computed once per cospan."""
        key = (x, y)
        pb = self._pullbacks.get(key)
        if pb is None:
            pb = self._pullbacks[key] = pullback(x, y)
        return pb

    def interchange(self, u: tuple[FinFn, FinFn], v: tuple[FinFn, FinFn]) -> FinFn:
        """The canonical bijection σ from the pullback of the product
        cospan ``u × v`` onto the row-major product of the pullbacks of
        ``u`` and ``v``: limits commute with limits.  Each projection of
        the product cospan's pullback, as ``finset.pullback`` builds it,
        is σ followed by the product of the matching projections of the
        other two.  Hence ``(a ⊗ x) ; (a2 ⊗ x2)`` is ``(a ; a2) ⊗ (x ; x2)``
        with its legs reindexed along σ, for middle cospans u and v, and
        is that very span when σ is the identity.

        σ is read off the two factor pullbacks alone (``interchange_class``):
        an element (i1, j1) of the first and (i2, j2) of the second meet
        in the product cospan's pullback, which lists them in the order
        ``finset.pullback`` does.  That order is lexicographic in
        (i1, i2, j1, j2), except when both left legs are identities: every
        pullback here then takes its shortcut along the identity and lists
        its apex in the order of the right legs' domains, (j1, j2) for the
        product, so σ is the identity.  So σ depends on each cospan only
        through its class, and a caller meeting many cospans builds σ
        once per pair of classes."""
        (id1, rows1), (id2, rows2) = self.interchange_class(u), self.interchange_class(v)
        n2 = sum(map(len, rows2))
        if id1 and id2:
            return FinFn.identity(FinSet(sum(map(len, rows1)) * n2))
        table = tuple([
            m1 * n2 + m2 for r1 in rows1 for r2 in rows2 for m1 in r1 for m2 in r2
        ])
        n = FinSet(len(table))
        return FinFn(n, n, table)

    def interchange_class(
        self, u: tuple[FinFn, FinFn]
    ) -> tuple[bool, tuple[tuple[int, ...], ...]]:
        """All that ``interchange`` reads of the cospan ``u``: whether its
        left leg is an identity, and the elements (i, j) of its pullback
        grouped by i, lexicographic in (i, j), built once per cospan.
        Cospans of one class give one σ, on either side of
        ``interchange``; at bound 2 the 59 middle cospans of composable
        span pairs fall into 10 classes."""
        rows = self._rows.get(u)
        if rows is None:
            pb = self._pullback(*u)
            pt, qt = pb.p.table, pb.q.table
            groups: dict[int, list[int]] = {}
            for m in sorted(range(pb.apex.size), key=lambda m: (pt[m], qt[m])):
                groups.setdefault(pt[m], []).append(m)
            rows = self._rows[u] = tuple(map(tuple, groups.values()))
        return u[0].is_identity, rows

    def loose_compose(self, x: Span, y: Span) -> Span:
        return Span.of(self.compose_keys(x.key, y.key))

    def compose_keys(self, x: SpanKey, y: SpanKey) -> SpanKey:
        """The loose composite ``x ; y`` on keys, the one implementation
        of loose composition: each leg of the composite is a projection
        of the pullback of the middle cospan (x's right leg, y's left
        leg) followed by the outer leg, with the apex ordered as
        ``finset.pullback`` orders it.  A pullback along an identity is
        the other leg, so an identity middle leg keeps the other span's
        apex.  The composite's legs must stay in their classes."""
        n, mid, lt, rt = x
        mid2, k, lt2, rt2 = y
        if mid != mid2:
            raise ObjMismatch(f"{Span.of(x)} then {Span.of(y)}: middle objects differ")
        if _is_identity(lt2, mid):
            left, right = lt, tuple([rt2[v] for v in rt])
        elif _is_identity(rt, mid):
            left, right = tuple([lt[v] for v in lt2]), rt2
        else:
            over: list[list[int]] = [[] for _ in range(mid)]
            for b, v in enumerate(lt2):
                over[v].append(b)
            # the pairs (a, b) with rt[a] == lt2[b], lexicographic
            pairs = [(a, b) for a, v in enumerate(rt) for b in over[v]]
            left = tuple([lt[a] for a, _ in pairs])
            right = tuple([rt2[b] for _, b in pairs])
        if not self.triple.left.has(left, n) or not self.triple.right.has(right, k):
            raise ClassViolation("composite legs escaped their classes")
        return n, k, left, right

    # -- cells --------------------------------------------------------

    def cell_vcompose(self, a: SpanCell, b: SpanCell) -> SpanCell:
        if a.dst != b.src:
            raise BoundaryMismatch("vertical pasting needs a.dst == b.src")
        return SpanCell(
            a.src, b.dst,
            compose(a.tight_left, b.tight_left),
            compose(a.tight_right, b.tight_right),
            compose(a.apex_map, b.apex_map),
        )

    def cell_hcompose(self, a: SpanCell, b: SpanCell) -> SpanCell:
        if a.src.target != b.src.source or a.dst.target != b.dst.source:
            raise BoundaryMismatch("horizontal pasting needs matching feet")
        if a.tight_right != b.tight_left:
            raise BoundaryMismatch("horizontal pasting needs equal middle tights")
        src = self.loose_compose(a.src, b.src)
        dst = self.loose_compose(a.dst, b.dst)
        s_apex, sp, sq = self._pullback(a.src.right, b.src.left)
        d_apex, dp, dq = self._pullback(a.dst.right, b.dst.left)
        index = {
            (dp.table[m], dq.table[m]): m for m in range(d_apex.size)
        }
        table = tuple(
            index[(a.apex_map.table[sp.table[k]], b.apex_map.table[sq.table[k]])]
            for k in range(s_apex.size)
        )
        return SpanCell(
            src, dst,
            a.tight_left, b.tight_right,
            FinFn(s_apex, d_apex, table),
        )

    # -- companions and conjoints --------------------------------------

    def companion_of(self, f: FinFn) -> SnakeData:
        if not self.triple.left.contains(f):
            raise ClassViolation(f"{f} is not in L, no companion")
        a, b = f.dom, f.cod
        span = Span.companion(f)
        unit = SpanCell(
            Span.identity(a), span, f, FinFn.identity(a), FinFn.identity(a)
        )
        counit = SpanCell(
            span, Span.identity(b), FinFn.identity(b), f, f
        )
        return SnakeData(f, span, unit, counit, companion=True)

    def conjoint_of(self, f: FinFn) -> SnakeData:
        if not self.triple.right.contains(f):
            raise ClassViolation(f"{f} is not in R, no conjoint")
        a, b = f.dom, f.cod
        span = Span.conjoint(f)
        unit = SpanCell(
            Span.identity(a), span, FinFn.identity(a), f, FinFn.identity(a)
        )
        counit = SpanCell(
            span, Span.identity(b), f, FinFn.identity(b), f
        )
        return SnakeData(f, span, unit, counit, companion=False)

    def verify_triangles(self, data: SnakeData) -> bool:
        """Both pasting identities, as literal cell equalities."""
        f = data.tight
        snake_v = self.cell_vcompose(data.unit, data.counit)
        if snake_v != SpanCell.tight_identity(f):
            return False
        if data.companion:
            snake_h = self.cell_hcompose(data.counit, data.unit)
        else:
            snake_h = self.cell_hcompose(data.unit, data.counit)
        return snake_h == SpanCell.loose_identity(data.span)

    # -- enumeration ----------------------------------------------------

    def enumerate_spans(self, max_size: int) -> Iterator[Span]:
        """All spans with every object bounded by max_size, legs in class;
        deterministic: left legs in ``Universe`` order, then the right
        legs out of the same apex in that order."""
        u = Universe(self.triple, max_size)
        dom = attrgetter("dom")
        return (Span(left, right) for left, right in matching(u.left, u.right, dom, dom))

    def check_triangles(self, max_size: int) -> Report:
        """All four snake identities, for every map in the relevant class,
        as literal cell equalities."""
        rep = Report()
        comp = rep.clause(
            "spancat.companion-triangles",
            "companion snake identities hold on the nose",
        )
        conj = rep.clause(
            "spancat.conjoint-triangles",
            "conjoint snake identities hold on the nose",
        )
        u = Universe(self.triple, max_size)
        snakes = [(comp, self.companion_of(f)) for f in u.left]
        snakes += [(conj, self.conjoint_of(f)) for f in u.right]
        for clause, data in snakes:
            # without identities in a class a pasted composite can leave
            # the classes: a failed instance, with the reason
            clause.check_call(
                lambda: self.verify_triangles(data), lambda: f"f={data.tight}", ClassViolation
            )
        return rep

    def enumerate_cell_data(self, max_size: int) -> Iterator[CellData]:
        """Every morphism of spans bounded by ``max_size``, unvalidated:
        the groups of ``cell_groups``, flattened."""
        for src, dst, tl, matches in self.cell_groups(max_size):
            for am, trs in matches:
                for tr in trs:
                    yield CellData(src, dst, tl, tr, am)

    def cell_boundaries(self, max_size: int) -> Iterator[tuple]:
        """The groups of ``cell_groups`` with each boundary once, with the
        first apex map seen for it: apex maps that admit the same tight
        right maps share one list of them, so only the first apex map
        with each list is kept."""
        for src, dst, tl, matches in self.cell_groups(max_size):
            firsts: dict[int, FinFn] = {}
            kept = [(am, trs) for am, trs in matches if firsts.setdefault(id(trs), am) is am]
            yield src, dst, tl, kept

    def cell_groups(self, max_size: int) -> Iterator[tuple]:
        """The morphisms of spans bounded by ``max_size``, grouped as
        (src, dst, tight left map, [(apex map, [tight right map, ...])]):
        span pairs in ``enumerate_spans`` order, then the tight left map,
        the apex map and the tight right map, each lexicographic.  Apex
        maps into ``dst`` are grouped by their composite with ``dst.left``,
        tight right maps out of ``src`` by their composite with
        ``src.right`` (one shared list per composite), and matched."""
        spans = list(self.enumerate_spans(max_size))
        u = Universe(self.triple, max_size)
        objs, fns = u.objects, u.hom
        # (dst, apex of src) -> {am ; dst.left: [(am, am ; dst.right), ...]}
        apex_maps: dict[tuple[Span, FinSet], dict[tuple, list]] = {}
        # (src, target of dst) -> {src.right ; tr: [tr, ...]}
        right_maps: dict[tuple[Span, FinSet], dict[tuple, list]] = {}
        for x in spans:
            lt, rt = x.left.table, x.right.table
            for a in objs:
                groups = apex_maps[x, a] = {}
                for am in fns[a, x.apex]:
                    key = tuple([lt[v] for v in am.table])
                    groups.setdefault(key, []).append(
                        (am, tuple([rt[v] for v in am.table]))
                    )
                groups = right_maps[x, a] = {}
                for tr in fns[x.target, a]:
                    key = tuple([tr.table[v] for v in rt])
                    groups.setdefault(key, []).append(tr)
        for src in spans:
            sl = src.left.table
            for dst in spans:
                by_left = apex_maps[dst, src.apex]
                by_right = right_maps[src, dst.target]
                for tl in fns[src.source, dst.source]:
                    want_left = tuple([tl.table[v] for v in sl])
                    matches = [(am, trs) for am, want_right in by_left.get(want_left, ())
                               if (trs := by_right.get(want_right))]
                    if matches:
                        yield src, dst, tl, matches

    def enumerate_cells(self, max_size: int) -> Iterator[SpanCell]:
        """``enumerate_cell_data`` as validated cells."""
        for c in self.enumerate_cell_data(max_size):
            yield SpanCell(*c)
