"""Extending a doctrine to a square-preserving assignment on spans.

A span acts on predicates by substituting along its left leg and then
quantifying along its right leg; a morphism of spans acts as a square
between the induced maps.  Because the fibers are posets, every piece of
coherence data collapses to a pair of pointwise inequalities, and the
whole battery of coherence axioms reduces to map equalities.  Each
``PDot`` cell method returns its square as a ``QtCell`` whose ``holds``
and ``invertible`` flags are the verdicts, all decided by one method,
``PDot._verdict``; nothing here raises on a failed law.  The
``verify_pdot`` suite records each axiom as one clause over an
enumerated universe and reports witnesses for anything that fails.

The loose functoriality clause (``compositor``) is quantifier-
substitution commutation in disguise, and the laxator-commuter clause is
the projection formula in disguise; both are checked as outright map
equalities.  The compositor is checked on every composable pair of
spans.  The commuter is checked on the class domain where the theory
guarantees it (``laxator_domain``); outside it, its strict inequalities
are only counted, in the clause's notes.  The symmetry clause is the
image of the square that swaps the factors of a product span, so it
rests on the span action; identities that hold whatever the doctrine
(swap naturality, strict units of span composition) are tested with
the layer that makes them true.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonFunctorial, ShapeMismatch
from .finset import (
    FinFn,
    FinSet,
    Universe,
    compose,  # not called here; perfbench's tests expect every module's binding
    matching,
    swap_fn,
)
from .doctrine import PAIR_BOUND, Doctrine, check_subst_functorial, external_laxator
from .poskit import MonotoneMap, map_product, product_poset
from .report import Clause, Report
from .spancat import CellData, Cospan, Span, SpanCell, SpanCategory, SpanKey, product_key

# a square of the double extension as the side ids (top, bottom, left, right)
Square = tuple[int, int, int, int]


@dataclass(frozen=True)
class QtCell:
    """A candidate square in the quintet double category over Pos.

    The square is a cell exactly when bottom after left lies pointwise
    below right after top (``holds``), and a commuter exactly when the
    two composites are equal (``invertible``): on a poset, antisymmetry
    makes the reverse inequality the same thing as equality.
    """

    top: MonotoneMap
    bottom: MonotoneMap
    left: MonotoneMap
    right: MonotoneMap
    holds: bool
    invertible: bool


def _check_sides(top_dom, top_cod, bottom, left, right) -> None:
    """Raise ``ShapeMismatch`` where the sides of a square, with a top
    from ``top_dom`` to ``top_cod``, do not meet, as composing and
    comparing them would."""
    if left.cod != bottom.dom or top_cod != right.dom:
        raise ShapeMismatch("composition across different posets")
    if left.dom != top_dom or bottom.cod != right.cod:
        raise ShapeMismatch("2-cells need parallel maps")


def _decide(bottom: MonotoneMap, left: MonotoneMap, upper: list[int]) -> int:
    """``holds + invertible`` of a square whose sides meet, from the table
    ``upper`` of top then right: left then bottom is tabulated here and
    compared with it.  Equal tables hold by reflexivity; only unequal
    ones need the pointwise pass.  Every square is decided here."""
    bt = bottom.table
    lower = [bt[v] for v in left.table]
    if lower == upper:
        return 2
    leq = bottom.cod.leq
    return int(all((leq[v] >> w) & 1 for v, w in zip(lower, upper)))


def _first_diff(f: MonotoneMap, g: MonotoneMap) -> str:
    for i, (x, y) in enumerate(zip(f.table, g.table)):
        if x != y:
            return f"at {i}: {x} vs {y}"
    return "shape"


def _fail_square(clause: Clause, pdot: PDot, sq: Square, where) -> None:
    """Record a failed instance on the square ``sq``: its witness is the
    instance ``where()`` names and the first entry at which the two
    composites of the square differ."""
    def witness():
        top, bottom, left, right = pdot._sides(sq)
        return f"{where()}: {_first_diff(left.then(bottom), top.then(right))}"

    clause.check(False, witness)


class PDot:
    """The double extension of a doctrine, with its spans, side maps and
    squares numbered by small ints.

    A span is keyed by its ``SpanKey``, (source size, target size, left
    table, right table), and gets an id, the next free int, the first
    time its key is seen (``_key_id``); on a fresh ``PDot``,
    ``verify_pdot`` makes its universe ids 0..n-1 in ``enumerate_spans``
    order.  A finite set is fixed by its size, which serves as its id.
    Loose composites (``SpanCategory.compose_keys``), product spans
    (``spancat.product_key``) and the reindexed left sides of
    ``LaxCompositional`` are computed on keys, and loose images are
    decided on them (``Doctrine.span_action``), so none builds a map or
    a span.  A ``Span`` exists only where a caller passes one in
    (``span_id``, which keys it by its tables) or asks for one (``span``,
    built on first call and kept).  Loose composites and product spans
    are tables by pair of span ids, loose images by span id, μ(A, B) and
    the substitution along the swap A × B -> B × A by pair of sizes;
    each entry is filled on first use.

    Every side map of a square has a side id.  Loose images,
    substitutions, μ and the identity maps are interned by value
    (``_intern``), so equal maps have one id; the product L(x) × L(y) on
    top of a laxator square has an id per pair of image ids.  Its table
    is never kept: ``_verdict`` decides the square on the factor tables,
    and the product map is built only when the square's sides are read
    (``_sides``, for a witness or ``laxator_cell``).
    A square is the tuple (top, bottom, left, right) of its side ids
    (``Square``): L(dst), L(src) and the substitutions along the tight
    maps for a cell (``cell_image``), or built from span ids by
    ``_laxator_square`` and ``_symmetry_square``.
    The compositor and the unitor are equalities of interned maps
    (``_compositor_ids``, ``_unitor_ids``); as squares, those maps are
    joined by interned identities (``_equality_square``).  ``_verdict``
    decides a square on its first sight and keeps only ``holds +
    invertible``; ``_sides`` reads its maps back.  It is the only
    decider: every cell method that takes spans resolves their ids to a
    ``Square`` and returns ``_cell`` of it, a ``QtCell`` of its sides
    and ``_verdict``'s flags, and ``verify_pdot`` reads verdicts on
    ids."""

    def __init__(self, doctrine: Doctrine):
        self.d = doctrine
        self.triple = doctrine.triple
        self.cat = SpanCategory(doctrine.triple)
        self._span_ids: dict[SpanKey, int] = {}
        # per span id: its key, its ``Span`` once one is passed in or
        # asked for, the sizes of its source and target, and its loose
        # image's map id
        self._keys: list[SpanKey] = []
        self._spans: list[Span | None] = []
        self._source: list[int] = []
        self._target: list[int] = []
        self._loose: list[int | None] = []
        self._composite: dict[tuple[int, int], int] = {}
        self._product: dict[tuple[int, int], int] = {}
        # per side id: an interned map, or the pair of map ids whose
        # product the side is
        self._maps: list[MonotoneMap | tuple[int, int]] = []
        self._by_table: dict[tuple[int, ...], list[int]] = {}
        self._products: dict[tuple[int, int], int] = {}
        self._then: dict[tuple[int, int], int] = {}
        self._subst: dict[FinFn, int] = {}
        self._mu: dict[tuple[int, int], int] = {}
        self._swap: dict[tuple[int, int], int] = {}
        self._verdicts: dict[Square, int] = {}
        # strictly functorial substitution is a construction precondition,
        # probed on the sets the pasting clauses range over
        probe = check_subst_functorial(doctrine, min(PAIR_BOUND, doctrine.triple.universe))
        for c in probe.clauses:
            if not c.passed:
                raise NonFunctorial(f"{c.clause} fails at {c.witnesses[0]}")

    # -- span ids ---------------------------------------------------------

    def _key_id(self, key: SpanKey) -> int:
        """The id of the span ``key``, the next free int on its first
        sight."""
        i = self._span_ids.get(key)
        if i is None:
            i = self._span_ids[key] = len(self._keys)
            self._keys.append(key)
            self._spans.append(None)
            self._source.append(key[0])
            self._target.append(key[1])
            self._loose.append(None)
        return i

    def span_id(self, x: Span) -> int:
        """The id of the span ``x``, keyed by its tables; ``x`` is kept as
        the span of its id if none is yet."""
        i = self._key_id(x.key)
        if self._spans[i] is None:
            self._spans[i] = x
        return i

    def span(self, i: int) -> Span:
        """The span of id ``i``, built on the first call that needs it."""
        x = self._spans[i]
        if x is None:
            x = self._spans[i] = Span.of(self._keys[i])
        return x

    def _identity_id(self, n: int) -> int:
        """The id of the identity span on the set of size ``n``."""
        ident = tuple(range(n))
        return self._key_id((n, n, ident, ident))

    def universe(self, bound: int) -> list[int]:
        """The ids of the spans bounded by ``bound``, in
        ``enumerate_spans`` order."""
        return [self.span_id(x) for x in self.cat.enumerate_spans(bound)]

    def _composite_id(self, i: int, j: int) -> int:
        k = self._composite.get((i, j))
        if k is None:
            keys = self._keys
            k = self._composite[i, j] = self._key_id(self.cat.compose_keys(keys[i], keys[j]))
        return k

    def composite(self, x: Span, y: Span) -> Span:
        """The loose composite ``x ; y``, computed once per pair of ids
        and returned as the first span seen equal to it."""
        return self.span(self._composite_id(self.span_id(x), self.span_id(y)))

    def _product_id(self, i: int, j: int) -> int:
        k = self._product.get((i, j))
        if k is None:
            k = self._product[i, j] = self._key_id(product_key(self._keys[i], self._keys[j]))
        return k

    # -- side maps ----------------------------------------------------------

    def _intern(self, m: MonotoneMap) -> int:
        """The id of the first map seen equal to ``m``.  Maps are looked
        up by table, which hashes far faster than their posets, and
        compared whole only against maps with that table."""
        ids = self._by_table.setdefault(m.table, [])
        for i in ids:
            if self._maps[i] == m:
                return i
        ids.append(len(self._maps))
        self._maps.append(m)
        return ids[-1]

    def _side(self, k: int) -> MonotoneMap:
        """The map of side id ``k``; a product side is built anew."""
        m = self._maps[k]
        if type(m) is tuple:
            u, v = m
            return map_product(self._maps[u], self._maps[v])
        return m

    def _product_side(self, u: int, v: int) -> int:
        """The side id of the product of maps ``u`` and ``v``."""
        k = self._products.get((u, v))
        if k is None:
            k = self._products[u, v] = len(self._maps)
            self._maps.append((u, v))
        return k

    def _loose_id(self, i: int) -> int:
        """The map id of the loose image of span ``i``."""
        k = self._loose[i]
        if k is None:
            k = self._loose[i] = self._intern(self.d.span_action(*self._keys[i]))
        return k

    def loose_image(self, x: Span) -> MonotoneMap:
        """Substitute along the left leg, quantify along the right; equal
        images are one object."""
        return self._maps[self._loose_id(self.span_id(x))]

    def _then_id(self, u: int, v: int) -> int:
        """The map id of map ``u`` followed by map ``v``."""
        k = self._then.get((u, v))
        if k is None:
            k = self._then[u, v] = self._intern(self._maps[u].then(self._maps[v]))
        return k

    def _subst_id(self, f: FinFn) -> int:
        k = self._subst.get(f)
        if k is None:
            k = self._subst[f] = self._intern(self.d.subst(f))
        return k

    def _mu_id(self, a: int, b: int) -> int:
        """The map id of μ(A, B) for sets of sizes ``a`` and ``b``."""
        k = self._mu.get((a, b))
        if k is None:
            m = external_laxator(self.d, FinSet(a), FinSet(b))
            k = self._mu[a, b] = self._intern(m)
        return k

    def _swap_id(self, a: int, b: int) -> int:
        """The map id of substitution along the swap A × B -> B × A."""
        k = self._swap.get((a, b))
        if k is None:
            k = self._swap[a, b] = self._subst_id(swap_fn(FinSet(a), FinSet(b)))
        return k

    # -- squares ----------------------------------------------------------

    def _sides(self, sq: Square) -> tuple[MonotoneMap, ...]:
        return tuple([self._side(k) for k in sq])

    def _verdict(self, sq: Square) -> int:
        """``holds + invertible`` of the square ``sq``, decided on its
        first sight and read back on every later one: a commuter is a
        cell, so the pair of flags is their sum.  It is the one place a
        square is decided.  The sides are checked before top then right
        is tabulated, so sides that do not meet raise ``ShapeMismatch``,
        not an ``IndexError``.  A product top L(x) × L(y) is never built:
        its sides are checked against the cached product orders, and top
        then right is read off the factor tables, ``rt[x * gc + y]`` for
        x in the table of L(x) and y in that of L(y)."""
        verdict = self._verdicts.get(sq)
        if verdict is None:
            top = self._maps[sq[0]]
            bottom, left, right = (self._maps[k] for k in sq[1:])
            rt = right.table
            if type(top) is not tuple:
                _check_sides(top.dom, top.cod, bottom, left, right)
                upper = [rt[v] for v in top.table]
            else:
                f, g = (self._maps[k] for k in top)
                dom, cod = product_poset(f.dom, g.dom), product_poset(f.cod, g.cod)
                _check_sides(dom, cod, bottom, left, right)
                gc = g.cod.size
                upper = [rt[x * gc + y] for x in f.table for y in g.table]
            verdict = self._verdicts[sq] = _decide(bottom, left, upper)
        return verdict

    def _cell(self, sq: Square) -> QtCell:
        verdict = self._verdict(sq)
        return QtCell(*self._sides(sq), verdict > 0, verdict > 1)

    def _laxator_square(self, i: int, j: int) -> Square:
        """L(x) × L(y) against L(x ⊗ y), joined by μ on the sources and on
        the targets of spans ``i`` and ``j``."""
        ids, src, tgt = self._loose_id, self._source, self._target
        return (
            self._product_side(ids(i), ids(j)), ids(self._product_id(i, j)),
            self._mu_id(src[i], src[j]), self._mu_id(tgt[i], tgt[j]),
        )

    def _symmetry_square(self, i: int, j: int) -> Square:
        """L(y ⊗ x) against L(x ⊗ y), joined by substitution along the
        swaps of the feet of spans ``i`` and ``j``."""
        ids, src, tgt = self._loose_id, self._source, self._target
        return (
            ids(self._product_id(j, i)), ids(self._product_id(i, j)),
            self._swap_id(src[i], src[j]), self._swap_id(tgt[i], tgt[j]),
        )

    def cell_image(self, cell: SpanCell | CellData) -> QtCell:
        """The square a morphism of spans induces between loose images;
        it is a genuine cell when ``holds``.  It reads the boundary only,
        so a bare ``CellData`` serves as well as a ``SpanCell``."""
        ids, subst = self._loose_id, self._subst_id
        src, dst = ids(self.span_id(cell.src)), ids(self.span_id(cell.dst))
        return self._cell((dst, src, subst(cell.tight_left), subst(cell.tight_right)))

    # -- structure cells --------------------------------------------------

    def _compositor_ids(self, i: int, j: int) -> tuple[int, int]:
        """The map ids of L(x ; y) and of L(x) ; L(y) for spans ``i`` and
        ``j``: loose functoriality is their equality."""
        ids = self._loose_id
        return ids(self._composite_id(i, j)), self._then_id(ids(i), ids(j))

    def _unitor_ids(self, a: FinSet) -> tuple[int, int]:
        """The map ids of the image of the identity span on ``a`` and of
        the identity on its fiber."""
        ident = MonotoneMap.identity(self.d.fiber(a).carrier)
        return self._loose_id(self._identity_id(a.size)), self._intern(ident)

    def _equality_square(self, top: int, bottom: int) -> Square:
        """Maps ``top`` and ``bottom`` joined by interned identities: the
        square commutes exactly when the two maps are equal."""
        m, ident = self._maps[top], MonotoneMap.identity
        return top, bottom, self._intern(ident(m.dom)), self._intern(ident(m.cod))

    def compositor(self, x: Span, y: Span) -> QtCell:
        """Image of a composite against the composite of images; loose
        functoriality is ``invertible``."""
        ids = self._compositor_ids(self.span_id(x), self.span_id(y))
        return self._cell(self._equality_square(*ids))

    def unitor(self, a: FinSet) -> QtCell:
        return self._cell(self._equality_square(*self._unitor_ids(a)))

    def laxator_domain(self, x: Span, y: Span) -> bool:
        """The class condition under which the laxator must be invertible:
        both right legs quantifiable and the second one also in L."""
        t = self.triple
        return (
            t.right.contains(x.right)
            and t.right.contains(y.right)
            and t.left.contains(y.right)
        )

    def laxator_cell(self, x: Span, y: Span) -> QtCell:
        """The laxator square exists when ``holds``; it is the commuter
        the theory guarantees on ``laxator_domain`` when ``invertible``."""
        return self._cell(self._laxator_square(self.span_id(x), self.span_id(y)))

    def symmetry_cell(self, x: Span, y: Span) -> QtCell:
        """The image of the span symmetry square: ``L(y ⊗ x)`` against
        ``L(x ⊗ y)``, joined by substitution along the swaps of the feet.
        A symmetric lax functor makes it ``invertible``."""
        return self._cell(self._symmetry_square(self.span_id(x), self.span_id(y)))


LAX_COMP_STRIDE = 53


class LaxCompositional:
    """The keyed verdicts of ``pdot.laxator-compositional`` over the
    pairs of ``composable``, a list of pairs of span ids: for row
    (a, a2) and column (x, x2), whether L((a ⊗ x) ; (a2 ⊗ x2)) equals
    L((a ; a2) ⊗ (x ; x2)).

    One rule decides this clause and ``pdot.double-assoc``.  Each of
    their instances compares the loose images of two spans that differ
    by a canonical apex isomorphism: σ between (a ⊗ x) ; (a2 ⊗ x2) and
    (a ; a2) ⊗ (x ; x2) here, the associator between (x ; y) ; z and
    x ; (y ; z) there.  Where the isomorphism is the identity the two
    spans are one span, so the instance holds for every doctrine and is
    counted; the images are compared only where the spans differ.  For
    ``pdot.double-assoc`` that is where the two composites' span ids
    differ.

    Here the left side is the right side's span reindexed along σ
    (``SpanCategory.interchange``), which depends only on the classes
    (``SpanCategory.interchange_class``) of the middle cospans
    (a.right, a2.left) and (x.right, x2.left), read off ``PDot``'s span
    keys as leg tables and the size of the middle set, with no ``Span``
    built; so instances with the key
    (a ; a2, x ; x2, σ) have equal left sides and one verdict.  σ is
    built once per pair of classes and interned by value, so classes
    with equal σ share their keys.  A key is an int over the indices of
    the distinct composites and of the distinct σ.  A key whose σ is the
    identity holds at once and builds nothing.  Any other key's right
    side is read off ``PDot``'s product and image tables and its left
    side's span key looked up once: the right side's with each leg table
    reindexed along σ by tuple indexing (``table[v]`` for v in σ's
    table); the two sides are compared as map ids.
    """

    def __init__(self, pdot: PDot, composable: list[tuple[int, int]]):
        self.pdot, self.composable = pdot, composable
        cat, keys = pdot.cat, pdot._keys
        composites: dict[int, int] = {}
        classes: dict[tuple, int] = {}
        # the first middle cospan of each class
        firsts: list[Cospan] = []
        # per row: the index of its composite and the class of its middle
        self.rows: list[tuple[int, int]] = []
        for a, a2 in composable:
            _, mid, _, rt = keys[a]
            u = rt, keys[a2][2], mid
            k = classes.setdefault(cat.interchange_class(u), len(classes))
            if k == len(firsts):
                firsts.append(u)
            ac = composites.setdefault(pdot._composite_id(a, a2), len(composites))
            self.rows.append((ac, k))
        self.by_id, self.m = list(composites), len(composites)
        sigma_ids: dict[FinFn, int] = {}
        # per σ id: the table of σ, or None where it is the identity
        self.reindex: list[tuple[int, ...] | None] = []
        # per pair of classes: the id of its σ
        self.sigmas: list[list[int]] = []
        for u in firsts:
            ids = []
            for v in firsts:
                sigma = cat.interchange(u, v)
                s = sigma_ids.setdefault(sigma, len(sigma_ids))
                if s == len(self.reindex):
                    self.reindex.append(None if sigma.is_identity else sigma.table)
                ids.append(s)
            self.sigmas.append(ids)
        self.verdicts: dict[int, bool] = {}

    def verdict(self, r: int, c: int) -> tuple[int, bool]:
        """The key and verdict of row ``r`` with column ``c``."""
        (ac, i), (xc, j) = self.rows[r], self.rows[c]
        s, m = self.sigmas[i][j], self.m
        key = (s * m + ac) * m + xc
        sigma = self.reindex[s]
        if sigma is None:
            return key, True
        ok = self.verdicts.get(key)
        if ok is None:
            pdot = self.pdot
            k = pdot._product_id(self.by_id[ac], self.by_id[xc])
            rhs = pdot._loose_id(k)
            # interned after the right side, the left side finds that
            # side's id when they are equal
            n, m, lt, rt = pdot._keys[k]
            lhs = n, m, tuple([lt[v] for v in sigma]), tuple([rt[v] for v in sigma])
            ok = self.verdicts[key] = pdot._loose_id(pdot._key_id(lhs)) == rhs
        return key, ok

    def sample(self) -> tuple[int, list[tuple[int, int]]]:
        """The instances of the clause's sample, and the ``(row, column)``
        pairs of those whose σ is not the identity, row-major: the only
        ones that can fail.  The sample takes, in the row-major walk of
        every pair, every ``LAX_COMP_STRIDE``-th pair starting with the
        first, and every pair whose row and column both hold an identity
        span: row r takes the columns ≡ -r·n (mod ``LAX_COMP_STRIDE``)
        and, if it holds an identity, the identity columns."""
        stride, span, n = LAX_COMP_STRIDE, self.pdot.span, len(self.rows)
        ids = [span(a).is_identity or span(a2).is_identity for a, a2 in self.composable]
        id_cols = [c for c, flag in enumerate(ids) if flag]
        col_class = [j for _, j in self.rows]
        # per pair of classes: whether its σ moves the apex
        moves = [[self.reindex[s] is not None for s in row] for row in self.sigmas]
        instances, pairs = 0, []
        for r, (_, i) in enumerate(self.rows):
            cols = range((-r * n) % stride, n, stride)
            if ids[r]:
                cols = sorted(set(cols).union(id_cols))
            instances += len(cols)
            moved = moves[i]
            pairs += [(r, c) for c in cols if moved[col_class[c]]]
        return instances, pairs


def _cell_existence(rep: Report, pdot: PDot, bound: int) -> None:
    """``pdot.cell-existence``.  A cell's induced square depends only on
    its boundary (the apex map never enters the image), so each distinct
    boundary is checked once, with the first apex map seen for it, as
    ``SpanCategory.cell_boundaries`` yields them: the loose ids are read
    once per span of a (src, dst) block, a tight left map's substitution
    id once per group, and the square is a tuple of ids."""
    exist = rep.clause(
        "pdot.cell-existence", "every span morphism induces a genuine square"
    )
    ids, subst, verdict = pdot._loose_id, pdot._subst_id, pdot._verdict
    src = dst = None
    checked = 0
    for c_src, c_dst, tl, matches in pdot.cat.cell_boundaries(bound):
        if c_src is not src:
            src, s = c_src, ids(pdot.span_id(c_src))
        if c_dst is not dst:
            dst, t = c_dst, ids(pdot.span_id(c_dst))
        left = subst(tl)
        for am, trs in matches:
            checked += len(trs)
            for tr in trs:
                sq = (t, s, left, subst(tr))
                if not verdict(sq):
                    _fail_square(exist, pdot, sq, lambda: f"{SpanCell(src, dst, tl, tr, am)}")
    exist.check(True, count=checked - exist.failures)
    exist.note(f"distinct boundaries: {exist.instances}")


def verify_pdot(pdot: PDot, max_size: int) -> Report:
    """Run every coherence clause over the enumerated universe.

    Each verdict is a map equality or the ``holds`` or ``invertible``
    flag of a square, so a broken doctrine yields failing clauses, never
    an exception.  Tight images are substitutions, so tight
    functoriality and laxator naturality are doctrine laws, carried by
    ``doctrine.subst-identity``, ``doctrine.subst-compose`` and
    ``doctrine.laxator-natural`` in ``check_doctrine``.  The
    Beck-Chevalley squares behind the laxator-commuter argument depend
    only on the right legs of a span pair, so they are doctrine squares,
    carried by ``doctrine.beck-chevalley`` (``doctrine.proof_squares``).
    Pasting cells needs no clause of its own: a vertically pasted image
    has composites of tight images for its sides
    (``doctrine.subst-compose``), a horizontally pasted one composites
    of loose images (``pdot.compositor``).  Nor does the unit square,
    the identity of P(1) over the unit on both sides: it commutes
    exactly when L(id_1) fixes the unit, and ``pdot.unitor`` at A = 1
    asserts L(id_1) = id.  Only laws some doctrine can fail are clauses:
    strict units of loose composition (pullback along an identity) and
    swap naturality (``map_product`` and ``swap_map``) hold for any
    doctrine and are tested with ``spancat`` and ``poskit``.  The
    map-level clauses (unitor, laxator unitality) scale with
    ``max_size``.  The clauses quadratic in spans or cells run over the
    universe at ``min(max_size, PAIR_BOUND)``, the bound at which those
    properties are stated; ``pdot.compositor`` carries the bound in a
    note.  A witness naming a span, map or cell is a callable, formatted
    only for a failure its clause keeps.

    Every instance is counted, and each failing one is checked on its
    own, with its witness, in enumeration order; a clause's passes are
    counted in one ``Clause.check``.  The clauses range over span ids
    (``PDot.universe``) and read composites, product spans and side maps
    from ``PDot``'s tables by id, building each on its first sight.  The
    unitor, ``pdot.compositor``, ``pdot.double-assoc`` (by whole rows of
    composite ids) and ``pdot.laxator-compositional`` compare the ids of
    interned maps; every other square is a ``Square`` of side ids,
    decided once by ``PDot._verdict``.  ``pdot.double-assoc`` and
    ``pdot.laxator-compositional`` compare images only where their
    canonical isomorphism is not the identity, by the rule in
    ``LaxCompositional``'s docstring; ``pdot.laxator-compositional``
    ranges over the stride sample of ``LaxCompositional.sample``.
    ``pdot.cell-existence`` checks each distinct boundary once
    (``_cell_existence``).
    """
    rep = Report()
    d = pdot.d
    pair_bound = min(max_size, PAIR_BOUND)
    spans = pdot.universe(pair_bound)
    span, maps = pdot.span, pdot._maps
    objs = Universe(pdot.triple, max_size).objects

    unitor = rep.clause("pdot.unitor", "identity spans map to identity maps")
    for a in objs:
        lhs, rhs = pdot._unitor_ids(a)
        unitor.check(lhs == rhs, lambda: f"A={a.size}: {_first_diff(maps[rhs], maps[lhs])}")

    comp = rep.clause(
        "pdot.compositor",
        "image of a loose composite equals the composite of images",
    )
    source, target = pdot._source.__getitem__, pdot._target.__getitem__
    composable = list(matching(spans, spans, target, source))
    for i, j in composable:
        lhs, rhs = pdot._compositor_ids(i, j)
        if lhs != rhs:
            comp.check(False, lambda: (
                f"{span(i)} ; {span(j)}: {_first_diff(maps[rhs], maps[lhs])}"
            ))
    comp.check(True, count=len(composable) - comp.failures)
    comp.note(f"span universe bounded at {pair_bound}")

    assoc = rep.clause(
        "pdot.double-assoc",
        "the two bracketings of a triple composite have equal images",
    )
    # per composable pair (i, j), the row of composite ids of each
    # bracketing over the pairs (j, k), read off ``PDot._composite`` and
    # composed on a miss; two bracketings with one span id hold by
    # construction, so only rows that differ are walked and imaged
    xy, image, known = pdot._composite_id, pdot._loose_id, pdot._composite.get
    paired = [(i, j, xy(i, j)) for i, j in composable]
    after: dict[int, tuple[list[int], list[int]]] = {}
    for j, k, jk in paired:
        ks, jks = after.setdefault(j, ([], []))
        ks.append(k)
        jks.append(jk)
    passed = 0
    for i, j, ij in paired:
        ks, jks = after.get(j, ((), ()))
        lefts = [c if (c := known((ij, k))) is not None else xy(ij, k) for k in ks]
        rights = [c if (c := known((i, jk))) is not None else xy(i, jk) for jk in jks]
        if lefts == rights:
            passed += len(ks)
            continue
        for k, xy_z, x_yz in zip(ks, lefts, rights):
            if xy_z != x_yz:
                lhs, rhs = image(xy_z), image(x_yz)
                if lhs != rhs:
                    assoc.check(False, lambda: (
                        f"{span(i)} ; {span(j)} ; {span(k)}: "
                        f"{_first_diff(maps[lhs], maps[rhs])}"
                    ))
                    continue
            passed += 1
    assoc.check(True, count=passed)

    _cell_existence(rep, pdot, pair_bound)

    lax_exist = rep.clause(
        "pdot.laxator-cell", "the laxator square exists on every span pair"
    )
    lax_comm = rep.clause(
        "pdot.laxator-commuter",
        "the laxator square is an equality on its guaranteed class domain",
    )
    off_domain_failures = 0
    off_domain_total = 0
    pairs = len(spans) ** 2
    for i in spans:
        for j in spans:
            sq = pdot._laxator_square(i, j)
            verdict = pdot._verdict(sq)
            if not verdict:
                _fail_square(lax_exist, pdot, sq, lambda: f"{span(i)} , {span(j)}")
            if not pdot.laxator_domain(span(i), span(j)):
                off_domain_total += 1
                if verdict < 2:
                    off_domain_failures += 1
                    if off_domain_failures <= 3:
                        lax_comm.note(f"off-domain strict inequality: {span(i)} , {span(j)}")
            elif verdict < 2:
                _fail_square(lax_comm, pdot, sq, lambda: f"{span(i)} , {span(j)}")
    lax_exist.check(True, count=pairs - lax_exist.failures)
    lax_comm.check(True, count=pairs - off_domain_total - lax_comm.failures)
    lax_comm.note(
        f"off-domain pairs checked: {off_domain_total}, "
        f"strict inequalities: {off_domain_failures}"
    )

    lax_unit = rep.clause(
        "pdot.laxator-unital",
        "the laxator on identity spans collapses to the external tensor",
    )
    ident = pdot._identity_id
    for a in objs:
        for b in objs:
            qt = pdot._cell(pdot._laxator_square(ident(a.size), ident(b.size)))
            mu = external_laxator(d, a, b)
            lax_unit.check(
                qt.invertible and qt.top.then(qt.right) == mu,
                f"A={a.size} B={b.size}",
            )

    lax_comp = rep.clause(
        "pdot.laxator-compositional",
        "the laxator respects loose composition of span pairs",
    )
    # quadratic in composable pairs; identity-pair columns are covered in
    # full, the rest on a deterministic stride.  Only the sampled pairs
    # whose σ is not the identity are decided; the rest pass for any
    # doctrine and are counted
    lax = LaxCompositional(pdot, composable)
    instances, decided = lax.sample()
    for r, c in decided:
        if not lax.verdict(r, c)[1]:
            (a, a2), (x, x2) = composable[r], composable[c]
            lax_comp.check(False, lambda: f"{span(a)};{span(a2)} with {span(x)};{span(x2)}")
    lax_comp.check(True, count=instances - lax_comp.failures)
    n = len(composable)
    lax_comp.note(f"pair-pairs sampled: {lax_comp.instances} of {n * n}")

    sym_c = rep.clause("pdot.symmetry-cell", "the symmetry square is an equality")
    for i in spans:
        for j in spans:
            sq = pdot._symmetry_square(i, j)
            if pdot._verdict(sq) < 2:
                _fail_square(sym_c, pdot, sq, lambda: f"{span(i)} , {span(j)}")
    sym_c.check(True, count=pairs - sym_c.failures)

    return rep
