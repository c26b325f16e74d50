"""Indexed monoidal structures over an adequate triple, with quantifiers.

A doctrine assigns a monoidal poset of predicates to every finite set,
a substitution map to every function, and a left-adjoint quantifier to
every function in the right class.  ``Doctrine(triple, values)`` takes
predicates valued in a finite lattice V with a commutative monotone
monoid, pointwise: substitution precomposes, and quantification joins
over each fibre (V's bottom over an empty one).  ``powerset_doctrine``
takes the 2-chain under meet (subsets, preimage, image) and
``tropical_doctrine`` the truncated min-plus chain (cost vectors,
minimum over each fibre, infinity over an empty one).

Fibers, substitution and quantifiers work on carrier indices, whose codec
puts slot 0 least significant, so a subset's index is its bitmask.  The
span action ``act`` and the external tensor ``pair_predicate`` work on
the predicate's own value, a tuple of V's elements (0/1 for a relation),
so that evaluation never builds a fiber.

``span_action`` is the one checked entry point for the span action as a
map between foot fibers, and every cover pair of its domain is checked
order-preserving.  It takes a span as its foot sizes and leg tables, as
``doubling.PDot`` keys spans, so that no caller builds a map or a span
to ask for one.  It and ``act`` read a span through one hook, ``_legs``,
from leg tables to the leg tables the action joins over.  Joins are
idempotent, so the action depends only on the relation those tables
trace: ``span_action`` builds its map once per relation
(``poskit.span_table``) and keeps it per doctrine; ``act`` folds the
joins over one value.
Substitution is tabulated by Horner passes over the value tuples of its
codomain, one per slot of its domain, and quantifiers value by value;
neither reads ``_legs`` or the relation tables, so the clauses that set
them beside span actions compare two independent computations:
``roundtrip.subst`` and ``roundtrip.exists``, and the squares with
substitution sides, ``pdot.cell-existence`` and ``pdot.symmetry-cell``.
A subclass overrides ``_make_fiber``, ``_make_subst``, ``_make_exists``,
``_legs`` or ``_span_action``, as ``Doctrine`` says.

The checkers at the bottom verify, exhaustively over a finite universe,
every law the theory demands: functoriality, strong monoidality of
substitution, the Galois biconditional, comonoidality of the quantifier,
Beck-Chevalley over designated pullback squares (the generated squares
and the proof squares of the laxator-commuter argument), and both
Frobenius equalities.  The three single-law checkers (``check_adjunction``
along a map, ``check_beck_chevalley`` on a square, ``check_frobenius``
along a map) return a plain verdict; ``check_doctrine`` records one
instance of ``doctrine.galois``, ``doctrine.beck-chevalley`` or
``doctrine.frobenius`` per verdict, with the map or square as witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator

from .errors import ClassViolation, NotAPullback
from .finset import (
    AdequateTriple,
    FinFn,
    FinSet,
    Universe,
    compose,
    cospans,
    fn_product,
    matching,
    product,
    pullback,
    swap_fn,
    terminal,
)
from .poskit import (
    MonoPoset,
    MonotoneMap,
    boolean_meet,
    bottom_element,
    iso_maps,
    join_table,
    map_product,
    min_plus,
    monotone_map,
    power_fiber,
    product_poset,
    span_table,
    swap_map,
    value_index,
    value_tuples,
)
from .report import Report

# the keys ``matching`` pairs maps on
_DOM, _COD = attrgetter("dom"), attrgetter("cod")

# the bound at which the clauses quadratic in maps, spans or cells are
# stated: the Beck-Chevalley squares (generated and proof squares) and
# laxator symmetry here, the span pairs and cells of
# ``doubling.verify_pdot``
PAIR_BOUND = 2


class Doctrine:
    """The doctrine of ``values``-valued predicates, with cached fibers,
    substitution and quantifiers.  The order of ``values`` must be a
    lattice (its joins are derived from it); its tensor laws are trusted,
    not checked.

    A subclass overrides ``_make_fiber``, ``_make_subst`` and
    ``_make_exists``; ``_legs(lt, rt)`` for a pointwise span action,
    which ``act`` and ``span_action`` both follow; and
    ``_span_action(n, k, lt, rt)`` for any other action (a single-entry
    perturbation, say), which ``act`` does not follow.  Both hooks take
    a span's leg tables, whose length is the apex size; ``n`` and ``k``
    are the sizes of its feet.  The hooks are no interface class of
    their own: the benchmark's tracer wraps ``act``, ``pair_predicate``,
    ``subst``, ``exists`` and ``span_action`` in ``vars(Doctrine)``."""

    def __init__(self, triple: AdequateTriple, values: MonoPoset):
        self.triple = triple
        self.values = values
        order = values.carrier
        self.bottom = bottom_element(order)
        self._join = join_table(order)
        self._tensor = values.tensor_rows()
        self._size = order.size
        self._fibers: dict[FinSet, MonoPoset] = {}
        self._subst: dict[FinFn, MonotoneMap] = {}
        self._exists: dict[FinFn, MonotoneMap] = {}
        self._lax: dict[tuple[FinSet, FinSet], MonotoneMap] = {}
        # stock span-action maps, one per (source size, target size, relation)
        self._tables: dict[tuple, MonotoneMap] = {}

    def fiber(self, a: FinSet) -> MonoPoset:
        if a not in self._fibers:
            self._fibers[a] = self._make_fiber(a)
        return self._fibers[a]

    def subst(self, f: FinFn) -> MonotoneMap:
        if f not in self._subst:
            self._subst[f] = self._make_subst(f)
        return self._subst[f]

    def exists(self, f: FinFn) -> MonotoneMap:
        if not self.triple.right.contains(f):
            raise ClassViolation(f"no quantifier along {f}: not in R")
        if f not in self._exists:
            self._exists[f] = self._make_exists(f)
        return self._exists[f]

    def span_action(
        self, n: int, k: int, lt: tuple[int, ...], rt: tuple[int, ...]
    ) -> MonotoneMap:
        """Substitute along the left leg then quantify along the right
        leg of the span n <- apex -> k with leg tables ``lt`` and ``rt``,
        as one map between the foot fibers, checked order-preserving on
        every cover pair.  Computed directly (``_span_action``) so that a
        large apex never forces materialising an intermediate fiber."""
        for table, size in ((lt, n), (rt, k)):
            if table and (min(table) < 0 or max(table) >= size):
                raise ValueError("table entry outside codomain")
        self._check_span(lt, rt, k)
        return self._span_action(n, k, lt, rt)

    def act(self, left: FinFn, right: FinFn, pred: tuple[int, ...]) -> tuple[int, ...]:
        """Span action on a single predicate value; never materialises a
        fiber, so the feet may be denoted products of arbitrary size."""
        k = right.cod.size
        self._check_span(left.table, right.table, k)
        return self._join_fold(*self._legs(left.table, right.table), pred, k)

    def pair_predicate(
        self, a: FinSet, b: FinSet, p: tuple[int, ...], q: tuple[int, ...]
    ) -> tuple[int, ...]:
        """The external tensor of two predicate values, pointwise."""
        # row x of the tensor table, read at every entry of q, is the
        # block of the joint under an entry x of p
        rows = self._tensor
        blocks = {x: tuple(map(rows[x].__getitem__, q)) for x in set(p)}
        joint: list[int] = []
        extend = joint.extend
        for x in p:
            extend(blocks[x])
        return tuple(joint)

    def _check_span(self, lt: tuple[int, ...], rt: tuple[int, ...], k: int) -> None:
        """The legs share an apex, and the right leg, into a set of size
        ``k``, is in R."""
        if len(lt) != len(rt):
            raise ValueError("span legs must share an apex")
        if not self.triple.right.has(rt, k):
            right = FinFn(FinSet(len(rt)), FinSet(k), rt)
            raise ClassViolation(f"no quantifier along {right}: not in R")

    def _span_action(
        self, n: int, k: int, lt: tuple[int, ...], rt: tuple[int, ...]
    ) -> MonotoneMap:
        """The map of the relation a checked span's ``_legs`` trace:
        target slot j joins the source slots its fibre reaches, and
        every cover pair is checked.  The key (source size, target size,
        relation as a set of (j, i) pairs) fixes both feet, so every span
        tracing the relation gets one map, sorted into fibres once."""
        lt, rt = self._legs(lt, rt)
        m = self._tables.get(key := (n, k, frozenset(zip(rt, lt))))
        if m is None:
            fibres: list[list[int]] = [[] for _ in range(k)]
            for j, i in sorted(key[2]):
                fibres[j].append(i)
            m = self._tables[key] = MonotoneMap(
                self.fiber(FinSet(n)).carrier,
                self.fiber(FinSet(k)).carrier,
                span_table(self.values.carrier, n, tuple(map(tuple, fibres))),
            )
        return m

    def _make_fiber(self, a: FinSet) -> MonoPoset:
        return power_fiber(self.values, a.size)

    def _make_subst(self, f: FinFn) -> MonotoneMap:
        """The index of psi ∘ f for every value tuple psi of the codomain,
        by Horner's rule over the domain's slots, last slot first."""
        size, tuples = self._size, value_tuples(f.cod.size, self._size)
        table = [0] * len(tuples)
        for b in reversed(f.table):
            table = [t * size + psi[b] for t, psi in zip(table, tuples)]
        return monotone_map(self.fiber(f.cod).carrier, self.fiber(f.dom).carrier, table)

    def _make_exists(self, f: FinFn) -> MonotoneMap:
        index = value_index(f.cod.size, self._size)
        ident = range(f.dom.size)
        table = [
            index[self._join_fold(ident, f.table, phi, f.cod.size)]
            for phi in value_tuples(f.dom.size, self._size)
        ]
        return monotone_map(self.fiber(f.dom).carrier, self.fiber(f.cod).carrier, table)

    def _join_fold(self, lt, rt, pred, m: int) -> tuple[int, ...]:
        """Slot j joins ``pred[lt[x]]`` over every x with ``rt[x] == j``."""
        join = self._join
        vals = [self.bottom] * m
        for i, j in zip(lt, rt):
            vals[j] = join[vals[j]][pred[i]]
        return tuple(vals)

    def _legs(self, lt: tuple[int, ...], rt: tuple[int, ...]) -> tuple[tuple, tuple]:
        """The leg tables the span action joins over, from the span's leg
        tables: every apex element."""
        return lt, rt


def powerset_doctrine(triple: AdequateTriple) -> Doctrine:
    return Doctrine(triple, boolean_meet())


def tropical_doctrine(triple: AdequateTriple, cap: int = 3) -> Doctrine:
    return Doctrine(triple, min_plus(cap))


# ---------------------------------------------------------------------------
# external monoidal structure


def external_laxator(d: Doctrine, a: FinSet, b: FinSet) -> MonotoneMap:
    """P(a) x P(b) -> P(a x b): substitute along both projections, tensor."""
    if (a, b) in d._lax:
        return d._lax[(a, b)]
    ab, pa, pb = product(a, b)
    fib = d.fiber(ab)
    sa, sb = d.subst(pa).table, d.subst(pb).table
    table = tuple([fib.mul(x, y) for x in sa for y in sb])
    dom = product_poset(d.fiber(a).carrier, d.fiber(b).carrier)
    out = MonotoneMap(dom, fib.carrier, table)
    d._lax[(a, b)] = out
    return out


def external_unit(d: Doctrine) -> int:
    """The element of P(1) the monoidal unit picks out."""
    return d.fiber(terminal()).unit


# ---------------------------------------------------------------------------
# designated pullback squares


@dataclass(frozen=True)
class PullbackSquare:
    """A square top: A -> I, left: A -> B, right: I -> J, bottom: B -> J.
    Construction checks nothing; ``is_pullback`` checks the corners, and
    commutation follows from its comparison with the chosen pullback."""

    top: FinFn
    left: FinFn
    right: FinFn
    bottom: FinFn


def is_pullback(sq: PullbackSquare) -> bool:
    """The corners match and the apex corner is a genuine limit of the
    cospan (bottom, right): its (left, top) pairs are the pullback's
    pairs, each once, so the square commutes."""
    if (
        sq.top.dom != sq.left.dom
        or sq.top.cod != sq.right.dom
        or sq.left.cod != sq.bottom.dom
        or sq.right.cod != sq.bottom.cod
    ):
        return False
    apex, p, q = pullback(sq.bottom, sq.right)
    if apex.size != sq.top.dom.size:
        return False
    pairs = sorted(zip(p.table, q.table))
    mine = sorted(zip(sq.left.table, sq.top.table))
    return pairs == mine and len(set(zip(sq.left.table, sq.top.table))) == apex.size


def is_clr_pullback(sq: PullbackSquare, triple: AdequateTriple) -> bool:
    """A designated square: a pullback whose cospan has one leg per class."""
    if not is_pullback(sq):
        return False
    lb, rb = triple.left.contains(sq.bottom), triple.right.contains(sq.bottom)
    lr, rr = triple.left.contains(sq.right), triple.right.contains(sq.right)
    return (lb and rr) or (rb and lr)


def square_from_cospan(f: FinFn, g: FinFn) -> PullbackSquare:
    """The chosen pullback square over the cospan f: B -> J <- I : g."""
    apex, p, q = pullback(f, g)
    return PullbackSquare(top=q, left=p, right=g, bottom=f)


def generated_pullbacks(
    triple: AdequateTriple, max_size: int
) -> Iterator[PullbackSquare]:
    """All designated squares arising from cospans within the bound: the
    chosen pullback of every cospan f: B -> J <- I : g with one leg in
    each class, by J, then B and f, then I and g.  The chosen square is a
    pullback by construction, so only the legs' classes are tested."""
    maps = Universe(triple, max_size).maps
    in_l, in_r = triple.left.contains, triple.right.contains
    for f, g in cospans(maps, maps):
        if (in_l(f) and in_r(g)) or (in_r(f) and in_l(g)):
            yield square_from_cospan(f, g)


def proof_squares(x2: FinFn, y2: FinFn) -> tuple[PullbackSquare, ...]:
    """The three designated squares behind the laxator-commuter argument
    for spans with right legs ``x2`` in R and ``y2`` in L ∩ R: base
    change of each right leg along a projection, and the middle exchange
    square between the two product modifications.  The apexes are the
    legs' domains, so the squares depend on nothing else.  Each cospan
    has a leg in each class: ``x2`` and a projection, a projection and
    ``y2``, and ``x2 × id`` and ``id × y2`` (the classes are closed under
    products)."""
    xx, yy = x2.dom, y2.dom
    x2c, y2c = x2.cod, y2.cod
    sq1 = PullbackSquare(
        top=fn_product(x2, FinFn.identity(y2c)),
        left=product(xx, y2c).pa,
        right=product(x2c, y2c).pa,
        bottom=x2,
    )
    sq2 = PullbackSquare(
        top=product(x2c, yy).pb,
        left=fn_product(FinFn.identity(x2c), y2),
        right=y2,
        bottom=product(x2c, y2c).pb,
    )
    sq3 = PullbackSquare(
        top=fn_product(x2, FinFn.identity(yy)),
        left=fn_product(FinFn.identity(xx), y2),
        right=fn_product(FinFn.identity(x2c), y2),
        bottom=fn_product(x2, FinFn.identity(y2c)),
    )
    return sq1, sq2, sq3


def beck_chevalley_squares(
    triple: AdequateTriple, max_size: int
) -> list[PullbackSquare]:
    """The squares ``doctrine.beck-chevalley`` ranges over, each once, in
    first-seen order: the generated squares (``generated_pullbacks``),
    then the proof squares of every pair of right legs of the laxator's
    class domain, f in R and g in L ∩ R, by f then g.  Those are the
    right legs of every span pair on which ``pdot.laxator-commuter``
    must hold, so the Beck-Chevalley steps of the commuter argument are
    checked here, once per square."""
    right = Universe(triple, max_size).right
    squares = dict.fromkeys(generated_pullbacks(triple, max_size))
    for f in right:
        for g in filter(triple.left.contains, right):
            squares.update(dict.fromkeys(proof_squares(f, g)))
    return list(squares)


# ---------------------------------------------------------------------------
# law checkers


def check_adjunction(d: Doctrine, f: FinFn) -> bool:
    """The Galois biconditional for the quantifier along f, exhaustively
    over both fibers: the image of a is below b iff a is below the
    substitution of b.  The unit at a is its instance at b = ∃f(a), and
    the counit at b its instance at a = f*(b)."""
    ex, sb = d.exists(f).table, d.subst(f).table
    pa, pb = d.fiber(f.dom).carrier, d.fiber(f.cod).carrier
    return all(
        pb.le(ex[a], b) == pa.le(a, sb[b])
        for a in range(pa.size)
        for b in range(pb.size)
    )


def check_beck_chevalley(d: Doctrine, sq: PullbackSquare) -> bool:
    """Quantification commutes with substitution around the square.

    For each parallel pair of the square that lies in the right class
    (bottom with top, right with left), the two composite maps are
    compared and must be equal outright; a designated square has at least one.
    """
    if not is_clr_pullback(sq, d.triple):
        raise NotAPullback(f"{sq} is not a designated pullback")
    return all(
        iso_maps(
            d.exists(leg).then(d.subst(other)),
            d.subst(other_base).then(d.exists(leg_base)),
        )
        for leg, other, other_base, leg_base in (
            (sq.bottom, sq.right, sq.left, sq.top),
            (sq.right, sq.bottom, sq.top, sq.left),
        )
        if d.triple.right.contains(leg)
    )


def check_frobenius(d: Doctrine, f: FinFn) -> bool:
    """Both projection-formula equalities for the quantifier along f:
    ∃f(f*b ⊗ a) = b ⊗ ∃f(a) and ∃f(a ⊗ f*b) = ∃f(a) ⊗ b."""
    ex, sb = d.exists(f).table, d.subst(f).table
    fa, fb = d.fiber(f.dom), d.fiber(f.cod)
    return all(
        ex[fa.mul(sb[b], a)] == fb.mul(b, ex[a])
        and ex[fa.mul(a, sb[b])] == fb.mul(ex[a], b)
        for b in range(fb.carrier.size)
        for a in range(fa.carrier.size)
    )


def check_subst_functorial(d: Doctrine, max_size: int) -> Report:
    """Substitution sends identities to identities and composites to
    composites, exhaustively over the maps between sets up to the bound."""
    u = Universe(d.triple, max_size)
    rep = Report()
    fid = rep.clause("doctrine.subst-identity", "substitution sends identities to identities")
    for a in u.objects:
        fid.check(
            d.subst(FinFn.identity(a)).table == tuple(range(d.fiber(a).carrier.size)),
            f"A={a.size}",
        )
    fcomp = rep.clause("doctrine.subst-compose", "substitution is strictly functorial")
    for f, g in matching(u.maps, u.maps, _COD, _DOM):
        fcomp.check(
            d.subst(compose(f, g)) == d.subst(g).then(d.subst(f)),
            lambda: f"f={f} g={g}",
        )
    return rep


def check_doctrine(d: Doctrine, max_size: int | None = None) -> Report:
    """The whole doctrine law suite over the enumerated universe."""
    t = d.triple
    bound = t.universe if max_size is None else max_size
    rep = check_subst_functorial(d, bound)
    u = Universe(t, bound)

    strong = rep.clause(
        "doctrine.subst-strong", "substitution preserves tensor and unit"
    )
    for f in u.maps:
        fa, fb = d.fiber(f.dom), d.fiber(f.cod)
        sb = d.subst(f)
        strong.check(sb.table[fb.unit] == fa.unit, lambda: f"unit along {f}")
        for x in range(fb.carrier.size):
            for y in range(fb.carrier.size):
                strong.check(
                    sb.table[fb.mul(x, y)] == fa.mul(sb.table[x], sb.table[y]),
                    lambda: f"f={f} x={x} y={y}",
                )

    eid = rep.clause("doctrine.exists-identity", "quantifier along an identity is the identity")
    for a in u.objects:
        ident = FinFn.identity(a)
        if t.right.contains(ident):
            eid.check(
                d.exists(ident).table == tuple(range(d.fiber(a).carrier.size)),
                f"A={a.size}",
            )
    ecomp = rep.clause("doctrine.exists-compose", "quantifiers compose strictly")
    for f, g in matching(u.right, u.right, _COD, _DOM):
        ecomp.check(
            d.exists(compose(f, g)) == d.exists(f).then(d.exists(g)),
            lambda: f"f={f} g={g}",
        )

    gal = rep.clause("doctrine.galois", "quantifier is left adjoint to substitution")
    for f in u.right:
        gal.check(check_adjunction(d, f), lambda: f"f={f}")

    com = rep.clause(
        "doctrine.comonoidal", "quantifier laxly preserves the tensor"
    )
    for f in u.right:
        ex = d.exists(f)
        fa, fb = d.fiber(f.dom), d.fiber(f.cod)
        for a in range(fa.carrier.size):
            for a2 in range(fa.carrier.size):
                com.check(
                    fb.carrier.le(
                        ex.table[fa.mul(a, a2)], fb.mul(ex.table[a], ex.table[a2])
                    ),
                    lambda: f"f={f} a={a} a'={a2}",
                )

    bc = rep.clause(
        "doctrine.beck-chevalley",
        "quantification commutes with substitution over designated squares",
    )
    for sq in beck_chevalley_squares(t, min(PAIR_BOUND, bound)):
        bc.check(check_beck_chevalley(d, sq), lambda: f"square {sq}")

    fr = rep.clause("doctrine.frobenius", "both projection formulas hold")
    for f in u.right:
        fr.check(check_frobenius(d, f), lambda: f"f={f}")

    lax = rep.clause(
        "doctrine.laxator-natural", "the external tensor map is natural"
    )
    for f in u.maps:
        for g in u.maps:
            mu_cod = external_laxator(d, f.cod, g.cod)
            mu_dom = external_laxator(d, f.dom, g.dom)
            lhs = map_product(d.subst(f), d.subst(g)).then(mu_dom)
            rhs = mu_cod.then(d.subst(fn_product(f, g)))
            lax.check(lhs == rhs, lambda: f"f={f} g={g}")

    sym = rep.clause(
        "doctrine.laxator-symmetric", "the external tensor map respects the symmetry"
    )
    small = [a for a in u.objects if a.size <= PAIR_BOUND]
    for a in small:
        for b in small:
            mu_ab = external_laxator(d, a, b)
            mu_ba = external_laxator(d, b, a)
            sw_pos = swap_map(d.fiber(a).carrier, d.fiber(b).carrier)
            sw_set = swap_fn(a, b)
            sym.check(
                sw_pos.then(mu_ba).then(d.subst(sw_set)) == mu_ab,
                f"A={a.size} B={b.size}",
            )
    return rep
