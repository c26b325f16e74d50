"""Finite sets and functions, their limits and colimits, and morphism classes.

Everything downstream is built on these values.  Conventions are chosen so
that constructions are *literally* equal whenever the theory says they are
canonically isomorphic:

* elements of a ``FinSet`` are the dense indices ``0..size-1``;
* there is one ``FinSet`` object per size, so equality of sets is identity;
* product pairs are row-major: ``(i, j) -> i * b.size + j``, tabulated
  for products and symmetries of maps by ``product_table``/``swap_table``;
* pullback apices enumerate matching pairs in lexicographic order, except
  that a pullback along an identity is the other map itself (the unitary
  convention); ``pullback_tables`` decides this order, on tables, for
  every pullback in the package;
* pushout classes are ordered by their least representative in the
  disjoint union (left block first).
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, dataclass, field
from functools import lru_cache
from operator import attrgetter, index
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import CodMismatch, DomMismatch, LabelClash
from .report import Report


class FinSet:
    """A finite set, the indices 0..size-1: one immutable object per size."""

    __slots__ = ("size", "_hash")
    _interned: dict[int, "FinSet"] = {}

    def __new__(cls, size: int) -> "FinSet":
        n = index(size)
        if n not in cls._interned:
            if n < 0:
                raise ValueError(f"negative size {n}")
            self = cls._interned[n] = object.__new__(cls)
            object.__setattr__(self, "size", n)
            object.__setattr__(self, "_hash", hash((n,)))
        return cls._interned[n]

    def __setattr__(self, name: str, value=None) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return FinSet, (self.size,)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.size))

    def __repr__(self) -> str:
        return f"FinSet({self.size})"


@dataclass(frozen=True, slots=True)
class FinFn:
    """A function between finite sets, tabulated as a tuple of cod-indices.

    Functions key every cache in the package, so the hash of the fields is
    computed once, at construction.
    """

    dom: FinSet
    cod: FinSet
    table: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.table) != self.dom.size:
            raise ValueError("table length does not match domain size")
        if self.table and (min(self.table) < 0 or max(self.table) >= self.cod.size):
            raise ValueError("table entry outside codomain")
        object.__setattr__(self, "_hash", hash((self.dom, self.cod, self.table)))

    def __hash__(self) -> int:
        return self._hash

    def __call__(self, i: int) -> int:
        return self.table[i]

    @staticmethod
    def identity(a: FinSet) -> "FinFn":
        return FinFn(a, a, tuple(range(a.size)))

    @property
    def is_identity(self) -> bool:
        return self.dom == self.cod and self.table == tuple(range(self.dom.size))

    @property
    def is_injective(self) -> bool:
        return len(set(self.table)) == self.dom.size

    @property
    def is_surjective(self) -> bool:
        return len(set(self.table)) == self.cod.size

    def then(self, g: "FinFn") -> "FinFn":
        return compose(self, g)

    def __repr__(self) -> str:
        return f"FinFn({self.dom.size}->{self.cod.size}:{list(self.table)})"


def compose(f: FinFn, g: FinFn) -> FinFn:
    """Diagrammatic composite: apply ``f`` first, then ``g``."""
    if f.cod != g.dom:
        raise CodMismatch(f"cannot compose {f} then {g}")
    gt = g.table
    return FinFn(f.dom, g.cod, tuple([gt[v] for v in f.table]))


class Pullback(NamedTuple):
    apex: FinSet
    p: FinFn  # apex -> x.dom
    q: FinFn  # apex -> y.dom


def pullback_tables(
    xt: tuple[int, ...], yt: tuple[int, ...], z: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The projection tables (p, q) of the pullback of the cospan
    ``a -> Z <- b`` given by its tables ``xt`` and ``yt`` and the size
    ``z`` of Z: the one place a pullback's apex is ordered.

    The apex lists the pairs (a, b) with xt[a] = yt[b] in lexicographic
    order.  A pullback along an identity is the other map: p is the
    identity and q is ``xt`` when ``yt`` is the identity, and otherwise
    p is ``yt`` and q the identity when ``xt`` is.
    """
    ident = tuple(range(z))
    if yt == ident:
        return tuple(range(len(xt))), xt
    if xt == ident:
        return yt, tuple(range(len(yt)))
    over: list[list[int]] = [[] for _ in range(z)]
    for b, v in enumerate(yt):
        over[v].append(b)
    pairs = [(a, b) for a, v in enumerate(xt) for b in over[v]]
    return tuple([a for a, _ in pairs]), tuple([b for _, b in pairs])


def pullback(x: FinFn, y: FinFn) -> Pullback:
    """Pullback of the cospan ``x.dom -> Z <- y.dom``, with the apex
    ordered by ``pullback_tables``; p and q are the coordinate
    projections.
    """
    if x.cod != y.cod:
        raise CodMismatch(f"cospan legs disagree: {x} vs {y}")
    p, q = pullback_tables(x.table, y.table, x.cod.size)
    apex = FinSet(len(p))
    return Pullback(apex, FinFn(apex, x.dom, p), FinFn(apex, y.dom, q))


class Pushout(NamedTuple):
    apex: FinSet
    i1: FinFn  # cod(f) -> apex
    i2: FinFn  # cod(g) -> apex
    labels: Optional[tuple]


def pushout(
    f: FinFn,
    g: FinFn,
    labels: Optional[tuple[Sequence, Sequence]] = None,
) -> Pushout:
    """Pushout of ``cod(f) <- dom -> cod(g)``.

    The apex is the quotient of cod(f) + cod(g) by the smallest
    equivalence with f(x) ~ g(x); classes are numbered by their least
    representative (left block first).  When ``labels`` carries the label
    sequences of the two codomains, the quotient inherits them and a
    clash between identified elements raises ``LabelClash``.
    """
    if f.dom != g.dom:
        raise DomMismatch(f"pushout legs have different domains: {f} vs {g}")
    n1, n2 = f.cod.size, g.cod.size
    parent = list(range(n1 + n2))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            # keep the least representative as root
            if ri > rj:
                ri, rj = rj, ri
            parent[rj] = ri

    for x in range(f.dom.size):
        union(f.table[x], n1 + g.table[x])

    roots = sorted({find(i) for i in range(n1 + n2)})
    index = {r: k for k, r in enumerate(roots)}
    apex = FinSet(len(roots))
    i1 = FinFn(f.cod, apex, tuple(index[find(i)] for i in range(n1)))
    i2 = FinFn(g.cod, apex, tuple(index[find(n1 + j)] for j in range(n2)))

    out_labels = None
    if labels is not None:
        merged: list = [None] * apex.size
        for inj, block in zip((i1, i2), labels):
            for k, label in zip(inj.table, block, strict=True):
                if merged[k] is not None and merged[k] != label:
                    raise LabelClash(f"class {k}: {merged[k]!r} vs {label!r}")
                merged[k] = label
        out_labels = tuple(merged)
    return Pushout(apex, i1, i2, out_labels)


class Product(NamedTuple):
    prod: FinSet
    pa: FinFn  # projection onto first factor
    pb: FinFn  # projection onto second factor


def product_table(ft: Sequence[int], gt: Sequence[int], gc: int) -> tuple[int, ...]:
    """The table of f x g on row-major products of sets or posets, from the
    tables of f and g and the size ``gc`` of g's codomain."""
    return tuple([x * gc + y for x in ft for y in gt])


def swap_table(na: int, nb: int) -> tuple[int, ...]:
    """The table of the symmetry a x b -> b x a on row-major products,
    for sets or posets of sizes ``na`` and ``nb``: (i, j) goes to (j, i)."""
    return tuple([j * na + i for i in range(na) for j in range(nb)])


@lru_cache(maxsize=None)
def product(a: FinSet, b: FinSet) -> Product:
    """Cartesian product with row-major pairing (i, j) -> i * b.size + j."""
    prod = FinSet(a.size * b.size)
    pa = FinFn(prod, a, tuple([i for i in range(a.size) for _ in range(b.size)]))
    pb = FinFn(prod, b, tuple(range(b.size)) * a.size)
    return Product(prod, pa, pb)


@lru_cache(maxsize=None)
def fn_product(f: FinFn, g: FinFn) -> FinFn:
    """The map f x g between row-major products."""
    dom = product(f.dom, g.dom).prod
    cod = product(f.cod, g.cod).prod
    return FinFn(dom, cod, product_table(f.table, g.table, g.cod.size))


def diagonal(a: FinSet) -> FinFn:
    prod = product(a, a).prod
    return FinFn(a, prod, tuple(i * a.size + i for i in range(a.size)))


def terminal() -> FinSet:
    return FinSet(1)


def bang(a: FinSet) -> FinFn:
    return FinFn(a, terminal(), (0,) * a.size)


def swap_fn(a: FinSet, b: FinSet) -> FinFn:
    """The symmetry a x b -> b x a on row-major products."""
    dom = product(a, b).prod
    cod = product(b, a).prod
    return FinFn(dom, cod, swap_table(a.size, b.size))


# ---------------------------------------------------------------------------
# enumeration


def finsets(max_size: int, nonempty: bool = False) -> Iterator[FinSet]:
    return (FinSet(n) for n in range(1 if nonempty else 0, max_size + 1))


def functions(a: FinSet, b: FinSet) -> Iterator[FinFn]:
    """All functions a -> b in lexicographic table order."""
    if a.size == 0:
        yield FinFn(a, b, ())
        return
    if b.size == 0:
        return
    for table in itertools.product(range(b.size), repeat=a.size):
        yield FinFn(a, b, table)


def matching(
    xs: Iterable, ys: Iterable, x_key: Callable, y_key: Callable
) -> Iterator[tuple]:
    """Every pair ``(x, y)`` with ``x_key(x) == y_key(y)``: the xs in their
    own order, and under each x the ys in theirs.  The ys are indexed at
    the call; the pairs are generated as they are consumed."""
    by_key: dict = {}
    for y in ys:
        by_key.setdefault(y_key(y), []).append(y)
    return ((x, y) for x in xs for y in by_key.get(x_key(x), ()))


def cospans(xs: Iterable[FinFn], ys: Iterable[FinFn]) -> Iterator[tuple[FinFn, FinFn]]:
    """Every cospan ``x: a -> z <- b: y`` with x from ``xs`` and y from
    ``ys``: by z, then x, then y, each list in its own order."""
    cod = attrgetter("cod")
    return matching(sorted(xs, key=lambda f: f.cod.size), ys, cod, cod)


# ---------------------------------------------------------------------------
# labelled finite sets


@dataclass(frozen=True)
class LabelledFinSet:
    """A finite set whose elements carry type tags from a finite alphabet."""

    base: FinSet
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != self.base.size:
            raise ValueError("labels length does not match base size")

    @staticmethod
    def of(*labels: str) -> "LabelledFinSet":
        return LabelledFinSet(FinSet(len(labels)), tuple(labels))

    def __repr__(self) -> str:
        return f"LabelledFinSet({list(self.labels)})"


# ---------------------------------------------------------------------------
# morphism classes and adequate triples


@dataclass(frozen=True)
class MorClass:
    """A decidable class of finite-set functions."""

    kind: str  # "all" | "inj" | "surj" | "explicit"
    members: Optional[frozenset[FinFn]] = None
    # the members as (codomain size, table), what ``has`` looks up
    _tables: frozenset = field(init=False, repr=False, compare=False)

    ALL_KINDS = ("all", "inj", "surj", "explicit")

    def __post_init__(self) -> None:
        if self.kind not in self.ALL_KINDS:
            raise ValueError(f"unknown class kind {self.kind!r}")
        if (self.kind == "explicit") != (self.members is not None):
            raise ValueError("explicit classes and only they carry members")
        tables = frozenset((f.cod.size, f.table) for f in self.members or ())
        object.__setattr__(self, "_tables", tables)

    @staticmethod
    def all() -> "MorClass":
        return MorClass("all")

    @staticmethod
    def injections() -> "MorClass":
        return MorClass("inj")

    @staticmethod
    def surjections() -> "MorClass":
        return MorClass("surj")

    @staticmethod
    def explicit(maps) -> "MorClass":
        return MorClass("explicit", frozenset(maps))

    def has(self, table: tuple[int, ...], cod: int) -> bool:
        """Whether the map with ``table`` into the set of size ``cod`` is
        in the class: the one place membership is decided, on tables, so
        that a caller holding only tables builds no ``FinFn``."""
        if self.kind == "all":
            return True
        if self.kind == "inj":
            return len(set(table)) == len(table)
        if self.kind == "surj":
            return len(set(table)) == cod
        return (cod, table) in self._tables

    def contains(self, f: FinFn) -> bool:
        return self.has(f.table, f.cod.size)


@dataclass(frozen=True)
class AdequateTriple:
    """Generator bound plus the two morphism classes, validation deferred
    to check_adequate_triple."""

    universe: int
    left: MorClass
    right: MorClass
    nonempty_only: bool = False


def trivial_triple(universe: int = 3) -> AdequateTriple:
    return AdequateTriple(universe, MorClass.all(), MorClass.all())


def surjection_triple(universe: int = 3) -> AdequateTriple:
    """All maps on the left, surjections on the right; restricted to
    nonempty sets so that product projections stay surjective."""
    return AdequateTriple(
        universe, MorClass.all(), MorClass.surjections(), nonempty_only=True
    )


def injection_right_triple(universe: int = 3) -> AdequateTriple:
    """A known-defective configuration: projections are not injective."""
    return AdequateTriple(universe, MorClass.all(), MorClass.injections())


class Universe:
    """The bounded universe of a triple, enumerated once.

    ``objects`` are the sets up to the bound by size, nonempty only when
    the triple says so; ``hom[a, b]`` lists the functions a -> b by table;
    ``maps`` lists every function between objects, ordered by domain, then
    codomain, then table; ``left`` and ``right`` are the members of each
    class, in the order of ``maps``.  Every suite ranges over these lists
    (paired up by ``matching``), which is what fixes the order of every
    report.  One universe per (triple, bound) is built, on first use, and
    shared by every suite, so equal maps are one object: never change it.
    """

    _built: dict[tuple[AdequateTriple, int], "Universe"] = {}

    def __new__(cls, triple: AdequateTriple, bound: int) -> "Universe":
        u = cls._built.get((triple, bound))
        if u is None:
            u = cls._built[triple, bound] = object.__new__(cls)
            u.objects = list(finsets(bound, triple.nonempty_only))
            u.hom = {(a, b): list(functions(a, b)) for a in u.objects for b in u.objects}
            u.maps = [f for fs in u.hom.values() for f in fs]
            u.left = [f for f in u.maps if triple.left.contains(f)]
            u.right = [f for f in u.maps if triple.right.contains(f)]
        return u


def check_adequate_triple(t: AdequateTriple) -> Report:
    """Exhaustively verify the triple axioms up to the universe bound."""
    if t.universe < 1:
        raise ValueError("universe bound must be at least 1")
    rep = Report()
    u = Universe(t, t.universe)
    classes = (("L", t.left, u.left), ("R", t.right, u.right))

    ids = rep.clause("triple.identities", "identities belong to both classes")
    for a in u.objects:
        ident = FinFn.identity(a)
        ids.check(t.left.contains(ident), f"id_{a.size} not in L")
        ids.check(t.right.contains(ident), f"id_{a.size} not in R")

    # a class of every map contains each composite and product unbuilt
    comp = rep.clause("triple.composition", "classes are closed under composition")
    for name, cls, members in classes:
        for f, g in matching(members, members, attrgetter("cod"), attrgetter("dom")):
            comp.check(
                cls.kind == "all" or cls.contains(compose(f, g)),
                lambda: f"{name}: {f};{g} escapes the class",
            )

    pb = rep.clause(
        "triple.pullbacks",
        "every L against R cospan has a pullback with stable classes",
    )
    for x, y in cospans(u.left, u.right):
        apex, p, q = pullback(x, y)
        xt, yt = x.table, y.table
        ok_shape = [xt[a] for a in p.table] == [yt[b] for b in q.table]
        # base change of x (in L) along y lands over b;
        # base change of y (in R) along x lands over a
        pb.check(
            ok_shape and t.left.contains(q) and t.right.contains(p),
            lambda: f"cospan {x} / {y}: unstable pullback legs",
        )

    prods = rep.clause("triple.products", "classes are closed under finite products")
    for name, cls, members in classes:
        for f in members:
            for g in members:
                prods.check(
                    cls.kind == "all" or cls.contains(fn_product(f, g)),
                    lambda: f"{name}: {f} x {g} escapes the class",
                )

    projs = rep.clause("triple.projections", "product projections lie in both classes")
    for a in u.objects:
        for b in u.objects:
            _, pa, p_b = product(a, b)
            for proj in (pa, p_b):
                for name, cls, _ in classes:
                    projs.check(
                        cls.contains(proj),
                        f"projection {a.size}x{b.size}->{proj.cod.size} not in {name}",
                    )
    if t.nonempty_only:
        projs.note(
            "universe restricted to nonempty sets: projections out of a "
            "product with an empty factor would not be surjective"
        )

    if t.left.kind == "explicit" or t.right.kind == "explicit":
        rep.find("triple.composition").note(
            "explicit class lists are closed-by-assertion; closure verified above"
        )
    return rep
