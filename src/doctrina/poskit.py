"""Finite posets, monotone maps, pointwise 2-cells, and monoidal posets.

The predicate algebras live here as well: a finite value lattice V with
a monoidal structure (``boolean_meet``, the 2-chain under meet, and
``min_plus``, the chain 0..cap plus infinity ordered by >= under
saturating addition), its joins (``join_table``), and its powers, the
fibers of predicates on an n-set (``power_fiber``).  Their codec numbers a
value tuple base |V|, slot 0 least significant, so a subset's index is
its bitmask.  ``is_commutative_quantale`` reads off V's tables whether
its tensor is commutative, associative and distributes over every join.
The action of a relation on a whole fiber is tabulated
in that codec (``span_table``) from one cached, checked column per set
of joined slots (``join_column``).  Because the carriers are posets,
every coherence 2-cell of the theory degenerates to a boolean:
``leq_maps`` returns exactly that boolean, and an invertible cell is
one that holds both ways.  Carriers are powers of V's order
(``power_poset``), built by ``product_poset`` one multiplication per
row.  A poset's covers are found while its order is validated, by a
walk from each element over its covers: each step picks an element of
what is left above (the one of larger up-set among the lowest and
highest indices left, a minimal one in either index orientation on the
orders built here), checks its row against the current one and strikes
the whole of it.
The pairwise scan runs only on an order the walk refuses, to name the
first failing pair.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NoReturn

from .errors import ShapeMismatch
from .finset import product_table, swap_table
from .report import Report


def bits(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _refuse(leq: tuple[int, ...], row: int) -> NoReturn:
    """Raise the ``ValueError`` that names the first pair i <= j, in
    ascending i and then j, that breaks transitivity or antisymmetry.
    Called only once the cover walk has refused ``row``, whose failing
    pick is one of the pairs scanned, so a witness turns up by then."""
    for i in range(row + 1):
        for j in bits(leq[i] & ~(1 << i)):
            if leq[j] & ~leq[i]:
                raise ValueError(f"not transitive through {i} <= {j}")
            if (leq[j] >> i) & 1:
                raise ValueError(f"not antisymmetric at {i}, {j}")
    raise AssertionError(f"the cover walk refused row {row} without a witness")


@dataclass(frozen=True)
class Poset:
    """A finite poset; ``leq[i]`` is the bitmask of elements above i.

    ``covers`` is the covering relation, ascending in i, found by the
    walk that checks transitivity and antisymmetry: order preservation
    on covers implies order preservation everywhere, by transitivity.
    The walk checks one pair per cover, not every pair i <= j; only an
    order it refuses is scanned pair by pair, for the message."""

    size: int
    leq: tuple[int, ...]
    covers: tuple[tuple[int, int], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.leq) != self.size:
            raise ValueError("leq row count does not match size")
        full = (1 << self.size) - 1
        for i, row in enumerate(self.leq):
            if row & ~full:
                raise ValueError("leq row mentions nonexistent elements")
            if not (row >> i) & 1:
                raise ValueError(f"not reflexive at {i}")
        leq = self.leq
        ups = [row & ~(1 << i) for i, row in enumerate(leq)]
        counts = [row.bit_count() for row in leq]
        covers = []
        # Row i picks an element j of ``rest``, checks leq[j] inside
        # leq[i] and without i, and strikes all of leq[j] from ``rest``.
        # The rows the walk accepts are exactly the partial orders, by
        # induction on the size of leq[i]: each struck k lies in a
        # checked leq[j] strictly inside leq[i], whose own walk gives
        # leq[k] inside leq[j], so leq[k] lies inside leq[i] and misses i.
        # By the same inclusion ups[k] lies inside ups[j], so ``above``,
        # the union of ups over the picks, is the union over all of
        # ups[i], and the covers are the elements outside it.  Any pick
        # is sound and sets only the cost, one check per pick.  Where the
        # indices ascend with the order (chains, subsets) rest's lowest
        # element is minimal in it, where they descend (min-plus) its
        # highest; the one of larger up-set is the minimal one on every
        # power of chain(5), min-plus, M3 and N5 up to 4 slots, where the
        # picks are exactly the covers.
        for i in range(self.size):
            row, rest, above = leq[i], ups[i], 0
            while rest:
                low = (rest & -rest).bit_length() - 1
                high = rest.bit_length() - 1
                j = low if counts[low] >= counts[high] else high
                if leq[j] & ~row or (leq[j] >> i) & 1:
                    _refuse(leq, i)
                above |= ups[j]
                rest &= ~leq[j]
            covers.extend([(i, j) for j in bits(ups[i] & ~above)])
        object.__setattr__(self, "covers", tuple(covers))

    def le(self, i: int, j: int) -> bool:
        return bool((self.leq[i] >> j) & 1)

    def pairs(self):
        """All (i, j) with i <= j, ascending in i."""
        for i, row in enumerate(self.leq):
            for j in bits(row):
                yield i, j


@lru_cache(maxsize=None)
def chain(n: int) -> Poset:
    """The n-element chain 0 < 1 < ... < n-1."""
    full = (1 << n) - 1
    return Poset(n, tuple((full >> i) << i for i in range(n)))


@lru_cache(maxsize=None)
def product_poset(a: Poset, b: Poset) -> Poset:
    """Row-major product order, consistent with finset.product: (i, j) is
    below (i2, j2) when i <= i2 and j <= j2.  ``spread[i]`` has a 1 at
    the base of block i2 for every i2 above i; no row of b leaves its
    block, so one multiplication lays b's row j into all of them.  With a
    one-element factor the product is the other factor itself."""
    if a.size == 1 or b.size == 1:
        return b if a.size == 1 else a
    spread = [sum(1 << (i2 * b.size) for i2 in bits(row)) for row in a.leq]
    return Poset(a.size * b.size, tuple([s * r for s in spread for r in b.leq]))


@lru_cache(maxsize=None)
def power_poset(p: Poset, n: int) -> Poset:
    """The n-fold row-major power of p: tuples ordered componentwise.
    Every factor is p, so the order is the same however the slots are
    grouped; grouping them in two halves makes the product of the powers
    at n // 2 and n - n // 2 this very object."""
    if n == 0:
        return chain(1)
    if n == 1:
        return p
    return product_poset(power_poset(p, n // 2), power_poset(p, n - n // 2))


@dataclass(frozen=True, slots=True)
class MonotoneMap:
    """An order-preserving map, tabulated on indices.

    Shape is always validated; order preservation is checked by the
    factories that build primitive maps (see ``monotone_map``) and by the
    law suites, not on every composite.
    """

    dom: Poset
    cod: Poset
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.table) != self.dom.size:
            raise ValueError("table length does not match domain size")
        if self.table and (min(self.table) < 0 or max(self.table) >= self.cod.size):
            raise ValueError("table entry outside codomain")

    def __call__(self, i: int) -> int:
        return self.table[i]

    def is_monotone(self) -> bool:
        leq, t = self.cod.leq, self.table
        return all((leq[t[i]] >> t[j]) & 1 for i, j in self.dom.covers)

    @staticmethod
    def identity(p: Poset) -> "MonotoneMap":
        return MonotoneMap(p, p, tuple(range(p.size)))

    def then(self, g: "MonotoneMap") -> "MonotoneMap":
        if self.cod != g.dom:
            raise ShapeMismatch("composition across different posets")
        gt = g.table
        return MonotoneMap(self.dom, g.cod, tuple([gt[v] for v in self.table]))


def monotone_map(dom: Poset, cod: Poset, table) -> MonotoneMap:
    """Checked constructor for primitive maps."""
    m = MonotoneMap(dom, cod, tuple(table))
    if not m.is_monotone():
        raise ValueError("map is not order-preserving")
    return m


def map_product(f: MonotoneMap, g: MonotoneMap) -> MonotoneMap:
    return MonotoneMap(
        product_poset(f.dom, g.dom),
        product_poset(f.cod, g.cod),
        product_table(f.table, g.table, g.cod.size),
    )


def swap_map(a: Poset, b: Poset) -> MonotoneMap:
    return MonotoneMap(
        product_poset(a, b), product_poset(b, a), swap_table(a.size, b.size)
    )


def leq_maps(f: MonotoneMap, g: MonotoneMap) -> bool:
    """The 2-cell of Pos from f to g exists: f lies pointwise below g."""
    if f.dom != g.dom or f.cod != g.cod:
        raise ShapeMismatch("2-cells need parallel maps")
    return all(f.cod.le(f.table[i], g.table[i]) for i in range(f.dom.size))


def iso_maps(f: MonotoneMap, g: MonotoneMap) -> bool:
    """Both inequality directions; by antisymmetry this is table equality."""
    if f.dom != g.dom or f.cod != g.cod:
        raise ShapeMismatch("2-cells need parallel maps")
    return f.table == g.table


# ---------------------------------------------------------------------------
# monoidal posets


@dataclass(frozen=True, eq=False)
class MonoPoset:
    """A symmetric monoidal poset; coherence is property, not data.

    ``tensor(i, j)`` is computed on the first ``mul`` of the pair, checked
    to lie in the carrier, and memoised: a fiber over a product is large,
    and the law suites read a sliver of its tensor.  ``tensor_table``
    and ``tensor_map()`` materialise all of it, row-major over carrier
    pairs (sensible only for carriers small enough to materialise the
    product order).
    """

    carrier: Poset
    tensor: Callable[[int, int], int]
    unit: int
    _memo: dict[int, int] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.unit < self.carrier.size:
            raise ValueError("unit outside carrier")

    @staticmethod
    def tabulated(carrier: Poset, table, unit: int) -> "MonoPoset":
        """The monoidal poset whose tensor is the row-major ``table``."""
        n = carrier.size
        if len(table) != n * n:
            raise ShapeMismatch("tensor table is not carrier x carrier")
        return MonoPoset(carrier, lambda i, j: table[i * n + j], unit)

    def mul(self, i: int, j: int) -> int:
        n = self.carrier.size
        k = i * n + j
        v = self._memo.get(k)
        if v is None:
            v = self.tensor(i, j)
            if not 0 <= v < n:
                raise ValueError("tensor entry outside carrier")
            self._memo[k] = v
        return v

    @property
    def tensor_table(self) -> tuple[int, ...]:
        n = self.carrier.size
        return tuple(self.mul(i, j) for i in range(n) for j in range(n))

    def tensor_rows(self) -> tuple[tuple[int, ...], ...]:
        """``tensor_table`` cut into rows: row i is i tensored with each
        element."""
        n, t = self.carrier.size, self.tensor_table
        return tuple(t[i * n:(i + 1) * n] for i in range(n))

    def tensor_map(self) -> MonotoneMap:
        return MonotoneMap(
            product_poset(self.carrier, self.carrier), self.carrier, self.tensor_table
        )


def check_mono_poset(m: MonoPoset) -> Report:
    """Exhaustive pseudo-monoid laws: associativity, unit, symmetry,
    monotonicity of the tensor in each argument."""
    rep = Report()
    n = m.carrier.size
    assoc = rep.clause("monoposet.assoc", "tensor is associative")
    for a, b, c in itertools.product(range(n), repeat=3):
        assoc.check(
            m.mul(m.mul(a, b), c) == m.mul(a, m.mul(b, c)),
            f"({a}*{b})*{c} != {a}*({b}*{c})",
        )
    unit = rep.clause("monoposet.unit", "unit is neutral on both sides")
    for a in range(n):
        unit.check(m.mul(m.unit, a) == a, f"unit*{a} != {a}")
        unit.check(m.mul(a, m.unit) == a, f"{a}*unit != {a}")
    sym = rep.clause("monoposet.symmetry", "tensor is commutative")
    for a, b in itertools.product(range(n), repeat=2):
        sym.check(m.mul(a, b) == m.mul(b, a), f"{a}*{b} != {b}*{a}")
    mono = rep.clause("monoposet.monotone", "tensor preserves order in each slot")
    for i, j in m.carrier.pairs():
        for c in range(n):
            mono.check(
                m.carrier.le(m.mul(i, c), m.mul(j, c)),
                f"left slot at {i}<={j} with {c}",
            )
            mono.check(
                m.carrier.le(m.mul(c, i), m.mul(c, j)),
                f"right slot at {i}<={j} with {c}",
            )
    return rep


# ---------------------------------------------------------------------------
# value lattices and their powers


def join_table(p: Poset) -> tuple[tuple[int, ...], ...]:
    """Row i holds the join of i with every element: the element whose
    up-set is the intersection of both up-sets.  Raises ``ValueError``
    when some pair has no least upper bound."""
    element = {row: k for k, row in enumerate(p.leq)}
    try:
        return tuple(tuple([element[r & s] for s in p.leq]) for r in p.leq)
    except KeyError:
        raise ValueError("not a lattice: some pair has no join") from None


def bottom_element(p: Poset) -> int:
    """The least element: the one whose up-set is all of p."""
    full = (1 << p.size) - 1
    if full not in p.leq:
        raise ValueError("not a lattice: no least element")
    return p.leq.index(full)


def boolean_meet() -> MonoPoset:
    """The 2-chain 0 < 1 under meet, unit 1: predicates are subsets."""
    return MonoPoset(chain(2), operator.and_, 1)


@lru_cache(maxsize=None)
def trop_value_poset(cap: int) -> Poset:
    """The chain 0..cap plus infinity under >=, so 0 is the top element."""
    n = cap + 2
    return Poset(n, tuple((1 << (i + 1)) - 1 for i in range(n)))


def min_plus(cap: int) -> MonoPoset:
    """The truncated min-plus quantale: the value chain of
    ``trop_value_poset``, with cap + 1 standing for infinity, under
    saturating addition (a sum above cap is infinity), unit 0."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    inf = cap + 1
    return MonoPoset(trop_value_poset(cap), lambda x, y: min(x + y, inf), 0)


def is_commutative_quantale(v: MonoPoset) -> bool:
    """Whether V's tensor is commutative and associative and preserves
    every join of its finite lattice in each argument: the empty join
    (x ⊗ ⊥ = ⊥) and binary joins (x ⊗ (y ∨ z) = x ⊗ y ∨ x ⊗ z), read off
    V's tables.  Preserving joins is the pointwise closed form of
    Frobenius: a quantifier passes a tensor factor that does not mention
    its variable.  With commutativity and associativity, the factors may
    be tensored in any order and bracketing."""
    n = v.carrier.size
    join, bottom, mul = join_table(v.carrier), bottom_element(v.carrier), v.mul
    elements = range(n)
    return (
        all(mul(a, b) == mul(b, a) for a in elements for b in elements)
        and all(mul(a, bottom) == bottom for a in elements)
        and all(
            mul(mul(a, b), c) == mul(a, mul(b, c))
            and mul(a, join[b][c]) == join[mul(a, b)][mul(a, c)]
            for a in elements for b in elements for c in elements
        )
    )


def trop_index(values, cap: int) -> int:
    """Index of a min-plus value tuple, slot 0 least significant."""
    base = cap + 2
    idx = 0
    for v in reversed(list(values)):
        idx = idx * base + v
    return idx


def trop_values(idx: int, n: int, cap: int) -> tuple[int, ...]:
    """The n values whose ``trop_index`` is ``idx``, one ``divmod`` per
    value.  Raises ``ValueError`` for ``idx`` outside
    ``[0, (cap + 2) ** n)``."""
    base = cap + 2
    if not 0 <= idx < base**n:
        raise ValueError(f"index outside the {base}**{n} values of {n} slots")
    out = []
    for _ in range(n):
        idx, v = divmod(idx, base)
        out.append(v)
    return tuple(out)


@lru_cache(maxsize=None)
def value_tuples(n: int, size: int) -> tuple[tuple[int, ...], ...]:
    """The n-tuples over ``range(size)`` in index order: slot 0 varies
    fastest."""
    return tuple([t[::-1] for t in itertools.product(range(size), repeat=n)])


@lru_cache(maxsize=None)
def value_index(n: int, size: int) -> dict[tuple[int, ...], int]:
    """The index of every n-tuple over ``range(size)``, as one lookup."""
    return {v: i for i, v in enumerate(value_tuples(n, size))}


def power_fiber(v: MonoPoset, n: int) -> MonoPoset:
    """V-valued predicates on an n-set: ``power_poset`` of V's order,
    pointwise tensor, unit the constant predicate at V's unit."""
    size = v.carrier.size
    decode, index = value_tuples(n, size), value_index(n, size)
    rows = v.tensor_rows()

    def tensor(i: int, j: int) -> int:
        return index[tuple([rows[x][y] for x, y in zip(decode[i], decode[j])])]

    return MonoPoset(power_poset(v.carrier, n), tensor, index[(v.unit,) * n])


def tropical_fiber(n: int, cap: int) -> MonoPoset:
    """The min-plus fiber on an n-set."""
    return power_fiber(min_plus(cap), n)


# ---------------------------------------------------------------------------
# the span action of a stock valued doctrine, one relation at a time
#
# A span acts by substituting along its left leg, then joining over the
# fibres of its right leg.  Joins are idempotent, so the action depends
# only on the relation the span traces: target slot j joins the source
# slots its fibre reaches.  Each such column is a function of V, n and
# that set of slots alone, and is built and checked once.


@lru_cache(maxsize=None)
def join_column(order: Poset, n: int, slots: tuple[int, ...]) -> tuple[int, ...]:
    """For every n-tuple over ``order``, in codec order, the join of its
    entries at ``slots`` (the bottom when there are none), built by
    ``monotone_map`` so that every cover pair of the n-slot power is
    checked."""
    join = join_table(order)
    col = [bottom_element(order)] * order.size**n
    for a in slots:
        col = [join[c][t[a]] for c, t in zip(col, value_tuples(n, order.size))]
    return monotone_map(power_poset(order, n), order, col).table


def span_table(order: Poset, n: int, fibres: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The action of the relation whose target slot j reaches the source
    slots ``fibres[j]``, on every predicate of the n-slot fiber: an index
    table into the fiber of ``len(fibres)`` slots, by Horner's rule over
    the ``join_column`` of each fibre, starting from the last slot's
    column (all zeros, the one element of the 0-slot fiber, when there
    is no slot).  A map into a product order is monotone exactly when
    each component is, so the checked columns check the table.  Not
    cached here: a doctrine keeps the maps of its own span actions, and
    drops them with itself."""
    if not fibres:
        return (0,) * order.size**n
    *rest, last = fibres
    table = join_column(order, n, last)
    for fib in reversed(rest):
        col = join_column(order, n, fib)
        table = [t * order.size + c for t, c in zip(table, col)]
    return tuple(table)
