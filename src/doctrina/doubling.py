"""Extending a doctrine to a square-preserving assignment on spans.

A span acts on predicates by substituting along its left leg and then
quantifying along its right leg; a morphism of spans acts as a square
between the induced maps.  Because the fibers are posets, every piece of
coherence data collapses to a pair of pointwise inequalities, and the
whole battery of coherence axioms reduces to map equalities.  Each
``PDot`` cell method returns its square as a ``QtCell`` whose ``holds``
and ``invertible`` flags are the verdicts; nothing here raises on a
failed law.  The ``verify_pdot`` suite records each axiom as one clause
over an enumerated universe and reports witnesses for anything that
fails.

The loose functoriality clause (``compositor``) is quantifier-
substitution commutation in disguise, and the laxator-commuter clause is
the projection formula in disguise; both are checked as outright map
equalities on the domains where the theory guarantees them, and recorded
as empirical verdicts outside those domains.  The symmetry clause is the
image of the square that swaps the factors of a product span, so it
rests on the span action; identities that hold whatever the doctrine
(swap naturality, strict units of span composition) are tested with
the layer that makes them true.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from .errors import NonFunctorial, NotAPullback, ShapeMismatch
from .finset import (
    FinFn,
    FinSet,
    Universe,
    compose,  # noqa: F401  (perfbench's tracer tests patch this binding)
    fn_product,
    matching,
    product,
    swap_fn,
    terminal,
)
from .doctrine import (
    PAIR_BOUND,
    Doctrine,
    PullbackSquare,
    check_beck_chevalley,
    check_subst_functorial,
    external_laxator,
    external_unit_map,
)
from .poskit import MonotoneMap, chain, map_product
from .report import Clause, Report
from .spancat import CellData, Span, SpanCell, SpanCategory


class QtCell:
    """A candidate square in the quintet double category over Pos.

    The square is a cell exactly when bottom after left lies pointwise
    below right after top (``holds``), and a commuter exactly when the
    two composites are equal (``invertible``): on a poset, antisymmetry
    makes the reverse inequality the same thing as equality.  Its four
    sides come from ``sides()`` on first read, so a square whose verdict
    was decided for equal sides is built only if something reads them.
    """

    def __init__(
        self,
        sides: Callable[[], tuple[MonotoneMap, ...]],
        holds: bool,
        invertible: bool,
    ):
        self.sides = sides
        self.holds = holds
        self.invertible = invertible

    @cached_property
    def _built(self) -> tuple[MonotoneMap, ...]:
        return self.sides()

    top = property(lambda self: self._built[0])
    bottom = property(lambda self: self._built[1])
    left = property(lambda self: self._built[2])
    right = property(lambda self: self._built[3])


def _qt_cell(top, bottom, left, right) -> QtCell:
    """Decide the square on the tables of its two composites, left then
    bottom against top then right; sides that do not meet raise
    ``ShapeMismatch`` as composing and comparing them would."""
    if left.cod != bottom.dom or top.cod != right.dom:
        raise ShapeMismatch("composition across different posets")
    if left.dom != top.dom or bottom.cod != right.cod:
        raise ShapeMismatch("2-cells need parallel maps")
    bt, rt = bottom.table, right.table
    lower = [bt[v] for v in left.table]
    upper = [rt[v] for v in top.table]
    # equal tables hold by reflexivity; only unequal ones need the pointwise pass
    invertible = lower == upper
    leq = bottom.cod.leq
    holds = invertible or all((leq[v] >> w) & 1 for v, w in zip(lower, upper))
    return QtCell(lambda: (top, bottom, left, right), holds, invertible)


def _first_diff(f: MonotoneMap, g: MonotoneMap) -> str:
    for i, (x, y) in enumerate(zip(f.table, g.table)):
        if x != y:
            return f"at {i}: {x} vs {y}"
    return "shape"


def _verdict(clause: Clause, ok: bool, qt: QtCell, where) -> None:
    """Record one cell verdict; a failure's witness is the instance
    ``where()`` names and the first entry at which the square's two
    composites differ."""
    clause.check(ok, lambda: (
        f"{where()}: {_first_diff(qt.left.then(qt.bottom), qt.top.then(qt.right))}"
    ))


@lru_cache(maxsize=None)
def product_span(x: Span, y: Span) -> Span:
    return Span(fn_product(x.left, y.left), fn_product(x.right, y.right))


class PDot:
    """The double extension of a doctrine, with cached loose images and
    loose composites.

    Every side map of a square is interned by value: the first map seen
    equal to it is kept, and its index in ``_maps`` is its id.  A loose
    image is interned once per span, a substitution once per map and a
    laxator μ(A, B) once per pair of sets.  Equal images are then one
    object, and a square is fixed by the ids of its sides, so each cell
    method decides its square once per tuple of ids (``_square``) and
    keeps only its verdict, ``holds + invertible``."""

    def __init__(self, doctrine: Doctrine):
        self.d = doctrine
        self.triple = doctrine.triple
        self.cat = SpanCategory(doctrine.triple)
        self._composite: dict[tuple[Span, Span], Span] = {}
        self._canonical: dict[Span, Span] = {}
        self._maps: list[MonotoneMap] = []
        self._by_table: dict[tuple[int, ...], list[int]] = {}
        self._loose: dict[Span, int] = {}
        self._subst: dict[FinFn, int] = {}
        self._mu: dict[tuple[FinSet, FinSet], int] = {}
        self._verdicts: dict[tuple[int, ...], int] = {}
        # strictly functorial substitution is a construction precondition,
        # probed on the sets the pasting clauses range over
        probe = check_subst_functorial(doctrine, min(PAIR_BOUND, doctrine.triple.universe))
        for c in probe.clauses:
            if not c.passed:
                raise NonFunctorial(f"{c.clause} fails at {c.witnesses[0]}")

    # -- images ---------------------------------------------------------

    def canonical(self, x: Span) -> Span:
        """The first span seen equal to ``x``.  Cache lookups with the
        very key object they were stored under skip the field-by-field
        comparison of equal spans."""
        return self._canonical.setdefault(x, x)

    def composite(self, x: Span, y: Span) -> Span:
        """The loose composite ``x ; y``, computed once per pair and
        returned as its canonical span.  The pairs the clauses compose
        more than once are the composable pairs of the span universe and
        their composites with a third span."""
        key = (x, y)
        xy = self._composite.get(key)
        if xy is None:
            xy = self._composite[key] = self.canonical(self.cat.loose_compose(x, y))
        return xy

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

    def _loose_id(self, x: Span) -> int:
        """The id of ``loose_image(x)``."""
        i = self._loose.get(x)
        if i is None:
            i = self._loose[x] = self._intern(self.d.span_action(x.left, x.right))
        return i

    def loose_image(self, x: Span) -> MonotoneMap:
        """Substitute along the left leg, quantify along the right; equal
        images are one object."""
        return self._maps[self._loose_id(x)]

    def _subst_id(self, f: FinFn) -> int:
        i = self._subst.get(f)
        if i is None:
            i = self._subst[f] = self._intern(self.d.subst(f))
        return i

    def _mu_id(self, a: FinSet, b: FinSet) -> int:
        i = self._mu.get((a, b))
        if i is None:
            i = self._mu[a, b] = self._intern(external_laxator(self.d, a, b))
        return i

    def _square(
        self, key: tuple[int, ...], sides: Callable[[], tuple[MonotoneMap, ...]]
    ) -> QtCell:
        """The square ``sides()`` builds, decided on its first key and
        given that verdict on every later one.  A key is the ids of the
        sides that fix the square: four (top, bottom, left, right) for a
        square of interned maps, three for a compositor, five for a
        laxator, one for a unitor; so keys of different forms never
        meet."""
        verdict = self._verdicts.get(key)
        if verdict is None:
            qt = _qt_cell(*sides())
            # a commuter is a cell, so the pair of flags is their sum
            self._verdicts[key] = qt.holds + qt.invertible
            return qt
        return QtCell(sides, verdict > 0, verdict > 1)

    def _image_square(self, top: Span, bottom: Span, left: FinFn, right: FinFn) -> QtCell:
        """The square with the loose images of ``top`` and ``bottom`` and
        the substitutions along ``left`` and ``right`` for its sides: the
        shape of a cell image and of the symmetry square, which share
        their verdicts."""
        d, ids = self.d, self._loose_id
        return self._square(
            (ids(top), ids(bottom), self._subst_id(left), self._subst_id(right)),
            lambda: (
                self.loose_image(top), self.loose_image(bottom),
                d.subst(left), d.subst(right),
            ),
        )

    def cell_image(self, cell: SpanCell | CellData) -> QtCell:
        """The square a morphism of spans induces between loose images;
        it is a genuine cell when ``holds``.  It reads the boundary only,
        so a bare ``CellData`` serves as well as a ``SpanCell``."""
        return self._image_square(cell.dst, cell.src, cell.tight_left, cell.tight_right)

    # -- structure cells --------------------------------------------------

    def compositor(self, x: Span, y: Span) -> QtCell:
        """Image of a composite against the composite of images; loose
        functoriality is ``invertible``."""
        xy = self.composite(x, y)

        def sides():
            lhs = self.loose_image(xy)
            rhs = self.loose_image(x).then(self.loose_image(y))
            return lhs, rhs, MonotoneMap.identity(lhs.dom), MonotoneMap.identity(lhs.cod)

        ids = self._loose_id
        return self._square((ids(xy), ids(x), ids(y)), sides)

    def unitor(self, a: FinSet) -> QtCell:
        ia = Span.identity(a)

        def sides():
            m = self.loose_image(ia)
            ident = MonotoneMap.identity(self.d.fiber(a).carrier)
            return m, ident, MonotoneMap.identity(m.dom), MonotoneMap.identity(m.cod)

        return self._square((self._loose_id(ia),), sides)

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
        the theory guarantees on ``laxator_domain`` when ``invertible``.
        Its top is the product of the images of ``x`` and ``y``, so their
        ids stand for it in the key."""
        xy = product_span(x, y)
        d = self.d

        def sides():
            return (
                map_product(self.loose_image(x), self.loose_image(y)),
                self.loose_image(xy),
                external_laxator(d, x.source, y.source),
                external_laxator(d, x.target, y.target),
            )

        ids = self._loose_id
        key = (
            ids(x), ids(y),
            self._mu_id(x.source, y.source), self._mu_id(x.target, y.target),
            ids(xy),
        )
        return self._square(key, sides)

    def unit_cell(self) -> QtCell:
        one = terminal()
        i0 = external_unit_map(self.d)
        top = MonotoneMap.identity(chain(1))
        bottom = self.loose_image(Span.identity(one))
        return _qt_cell(top, bottom, i0, i0)

    def symmetry_cell(self, x: Span, y: Span) -> QtCell:
        """The image of the span symmetry square: ``L(y ⊗ x)`` against
        ``L(x ⊗ y)``, joined by substitution along the swaps of the feet.
        A symmetric lax functor makes it ``invertible``."""
        return self._image_square(
            product_span(y, x), product_span(x, y),
            swap_fn(x.source, y.source), swap_fn(x.target, y.target),
        )


@lru_cache(maxsize=None)
def proof_squares(x2: FinFn, y2: FinFn) -> tuple[PullbackSquare, ...]:
    """The three designated squares behind the laxator-commuter argument
    for spans with right legs ``x2`` and ``y2``: base change of each right
    leg along a projection, and the middle exchange square between the
    two product modifications.  The apexes are the legs' domains, so the
    squares depend on nothing else."""
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


def _bc_failure(d: Doctrine, sq: PullbackSquare) -> str | None:
    """``None`` when Beck-Chevalley holds around ``sq``, otherwise the
    tail of the witness: the square, or why it is not designated."""
    try:
        return None if check_beck_chevalley(d, sq).passed else str(sq)
    except NotAPullback as e:
        return str(e)


LAX_COMP_STRIDE = 53


def lax_comp_sample(
    composable: list[tuple[Span, Span]],
) -> Iterator[tuple[int, int]]:
    """The ``(row, column)`` index pairs into ``composable`` that
    ``pdot.laxator-compositional`` checks, row-major: every
    ``LAX_COMP_STRIDE``-th pair of the row-major walk starting with the
    first, and every pair whose row and column both hold an identity."""
    n = len(composable)
    ids = [a.is_identity or b.is_identity for a, b in composable]
    id_cols = [c for c, flag in enumerate(ids) if flag]
    for r in range(n):
        cols = range((-r * n) % LAX_COMP_STRIDE, n, LAX_COMP_STRIDE)
        if ids[r]:
            cols = sorted(set(cols).union(id_cols))
        for c in cols:
            yield r, c


def lax_comp_verdicts(
    pdot: PDot,
    composable: list[tuple[Span, Span]],
    pairs: Iterable[tuple[int, int]],
) -> Iterator[tuple[int, int, int, bool]]:
    """``(row, column, key, verdict)`` for each index pair into
    ``composable``, in the order of ``pairs``: whether the laxator
    respects loose composition there, L((a ⊗ x) ; (a2 ⊗ x2)) equal to
    L((a ; a2) ⊗ (x ; x2)) for row (a, a2) and column (x, x2).

    The left side is the right side's span reindexed along σ
    (``SpanCategory.interchange``), which depends only on the middle
    cospans (a.right, a2.left) and (x.right, x2.left); so instances with
    the key (a ; a2, x ; x2, σ) have equal left sides and one verdict.  σ
    is computed once per pair of middle cospans, and each key's left side
    is built with ``loose_compose`` once, from its first pair.  A key is
    an int over the ids of the distinct composites and of the distinct σ.
    """
    cat = pdot.cat
    composites: dict[Span, int] = {}
    middles: dict[tuple[FinFn, FinFn], int] = {}
    rows = [
        (
            composites.setdefault(pdot.composite(a, a2), len(composites)),
            middles.setdefault((a.right, a2.left), len(middles)),
        )
        for a, a2 in composable
    ]
    by_id, m = list(composites), len(composites)
    sigmas: list[list[int | None]] = [[None] * len(middles) for _ in middles]
    sigma_ids: dict[FinFn, int] = {}
    verdicts: dict[int, bool] = {}
    for r, c in pairs:
        (a, a2), (x, x2) = composable[r], composable[c]
        (ac, i), (xc, j) = rows[r], rows[c]
        s = sigmas[i][j]
        if s is None:
            sigma = cat.interchange((a.right, a2.left), (x.right, x2.left))
            s = sigmas[i][j] = sigma_ids.setdefault(sigma, len(sigma_ids))
        key = (s * m + ac) * m + xc
        ok = verdicts.get(key)
        if ok is None:
            rhs = pdot.loose_image(product_span(by_id[ac], by_id[xc]))
            # imaged after the right side, the left side finds that
            # side's cache entry when they are equal
            lhs = pdot.loose_image(
                cat.loose_compose(product_span(a, x), product_span(a2, x2))
            )
            ok = verdicts[key] = lhs is rhs
        yield r, c, key, ok


def _cell_existence(rep: Report, pdot: PDot, bound: int) -> None:
    """``pdot.cell-existence``.  A cell's induced square depends only on
    its boundary (the apex map never enters the image), so each distinct
    boundary is checked once, with the first apex map seen for it; the
    boundaries seen are dropped when the clause is done."""
    exist = rep.clause(
        "pdot.cell-existence", "every span morphism induces a genuine square"
    )
    seen: set[tuple] = set()
    for c in pdot.cat.enumerate_cell_data(bound):
        boundary = c[:4]
        if boundary in seen:
            continue
        seen.add(boundary)
        qt = pdot.cell_image(c)
        _verdict(exist, qt.holds, qt, lambda: f"{SpanCell(*c)}")
    exist.note(f"distinct boundaries: {len(seen)}")


def verify_pdot(pdot: PDot, max_size: int) -> Report:
    """Run every coherence clause over the enumerated universe.

    Each verdict is the ``holds`` or ``invertible`` flag of a ``QtCell``,
    so a broken doctrine yields failing clauses, never an exception.
    Tight images are substitutions, so tight functoriality and laxator
    naturality are doctrine laws, carried by ``doctrine.subst-identity``,
    ``doctrine.subst-compose`` and ``doctrine.laxator-natural`` in
    ``check_doctrine``.  Pasting cells needs no clause of its own: a
    vertically pasted image has composites of tight images for its sides
    (``doctrine.subst-compose``), a horizontally pasted one composites of
    loose images (``pdot.compositor``).  Only laws some doctrine can fail
    are clauses: strict units of loose composition (pullback along an
    identity) and swap naturality (``map_product`` and ``swap_map``) hold
    for any doctrine and are tested with ``spancat`` and ``poskit``.  The
    map-level clauses (unitor, laxator unitality) scale with
    ``max_size``.  The clauses quadratic in spans or cells run over the
    universe at ``min(max_size, PAIR_BOUND)``, the bound at which those
    properties are stated; ``pdot.compositor`` carries the bound in a
    note.
    A witness naming a span, map or cell is a callable, formatted only
    for a failure its clause keeps.

    Work that recurs is done once and its verdict reused; every instance
    is still counted, and a failing one gets its own witness.  The square
    clauses (the unitor, ``pdot.compositor``, ``pdot.cell-existence``,
    the laxator clauses and ``pdot.symmetry-cell``) take their squares
    from ``PDot``, which interns loose images by value and decides each
    distinct square once, keyed on the ids of the sides that fix it; a
    failing instance's witness is read off its square, rebuilt on demand.
    On powerset at bound 2 the 43 spans have 26 distinct loose images,
    and 314 of the 971 compositor squares, 1,639 of the 4,943 cell
    squares, 676 of the 1,849 laxator squares and 202 of the 1,849
    symmetry squares are decided; the other 26 symmetry squares are cell
    squares, and the 9 squares of ``pdot.laxator-unital`` are laxator
    squares.  ``pdot.double-assoc`` and ``pdot.laxator-compositional``
    compare interned images by identity.  The proof squares of
    ``pdot.laxator-bc-squares`` depend on the right legs only, so they
    are built once per pair of right legs, and Beck-Chevalley is checked
    once per distinct square while every (pair, square) instance is
    recorded, with its own witness on failure: 97 checks for 5,547
    instances on the trivial triple at bound 2.  The stride sample of
    ``pdot.laxator-compositional`` is enumerated directly
    (``lax_comp_sample``), not filtered from the walk over all pairs of
    composable pairs, and its left sides are keyed
    (``lax_comp_verdicts``): a left side is fixed by the two composites
    and the bijection σ of the two middle cospans, so each key's left
    side is built once and its verdict reused.  On the trivial triple at
    bound 2 that is 15 distinct σ over 3,461 pairs of middle cospans, and
    4,242 left sides built for 24,550 instances.  The cells of
    ``pdot.cell-existence`` are enumerated as bare boundaries and apex
    maps (``SpanCategory.enumerate_cell_data``); each distinct boundary
    is checked once, with the first apex map seen for it, and a
    ``SpanCell`` is built only to format a failing witness, which reads
    as it always has; the set of boundaries seen is dropped when the
    clause is done.  ``SpanCategory.loose_compose`` pulls back each
    cospan once per category: powerset ``verify_pdot`` at bound 2 makes
    6,483 loose composites, 4,242 of them left sides, over 1,266
    pullbacks.
    """
    rep = Report()
    d = pdot.d
    cat = pdot.cat
    pair_bound = min(max_size, PAIR_BOUND)
    spans = [pdot.canonical(s) for s in cat.enumerate_spans(pair_bound)]
    objs = Universe(pdot.triple, max_size).objects

    unitor = rep.clause("pdot.unitor", "identity spans map to identity maps")
    for a in objs:
        qt = pdot.unitor(a)
        _verdict(unitor, qt.invertible, qt, lambda: f"A={a.size}")

    comp = rep.clause(
        "pdot.compositor",
        "image of a loose composite equals the composite of images",
    )
    source, target = attrgetter("source"), attrgetter("target")
    composable = list(matching(spans, spans, target, source))
    for x, y in composable:
        qt = pdot.compositor(x, y)
        _verdict(comp, qt.invertible, qt, lambda: f"{x} ; {y}")
    comp.note(f"span universe bounded at {pair_bound}")

    assoc = rep.clause(
        "pdot.double-assoc",
        "the two bracketings of a triple composite have equal images",
    )
    for (x, y), z in matching(composable, spans, lambda xy: xy[1].target, source):
        lhs = pdot.loose_image(pdot.composite(pdot.composite(x, y), z))
        rhs = pdot.loose_image(pdot.composite(x, pdot.composite(y, z)))
        assoc.check(lhs is rhs, lambda: f"{x} ; {y} ; {z}: {_first_diff(lhs, rhs)}")

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
    for x in spans:
        for y in spans:
            qt = pdot.laxator_cell(x, y)
            _verdict(lax_exist, qt.holds, qt, lambda: f"{x} , {y}")
            if pdot.laxator_domain(x, y):
                _verdict(lax_comm, qt.invertible, qt, lambda: f"{x} , {y}")
            else:
                off_domain_total += 1
                if not qt.invertible:
                    off_domain_failures += 1
                    if off_domain_failures <= 3:
                        lax_comm.note(f"off-domain strict inequality: {x} , {y}")
    lax_comm.note(
        f"off-domain pairs checked: {off_domain_total}, "
        f"strict inequalities: {off_domain_failures}"
    )

    lax_unit = rep.clause(
        "pdot.laxator-unital",
        "the laxator on identity spans collapses to the external tensor",
    )
    for a in objs:
        for b in objs:
            qt = pdot.laxator_cell(Span.identity(a), Span.identity(b))
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
    # full, the rest on a deterministic stride
    for r, c, _, ok in lax_comp_verdicts(pdot, composable, lax_comp_sample(composable)):
        (a, a2), (x, x2) = composable[r], composable[c]
        lax_comp.check(ok, lambda: f"{a};{a2} with {x};{x2}")
    n = len(composable)
    lax_comp.note(f"pair-pairs sampled: {lax_comp.instances} of {n * n}")

    bc_clause = rep.clause(
        "pdot.laxator-bc-squares",
        "the three designated squares behind the commuter argument commute",
    )
    # the squares depend on the right legs only and recur across pairs,
    # so each distinct square is checked once and its verdict reused;
    # every (pair, square) instance is still recorded
    bc_verdicts: dict[PullbackSquare, str | None] = {}
    for x in spans:
        for y in spans:
            if not pdot.laxator_domain(x, y):
                continue
            for sq in proof_squares(x.right, y.right):
                if sq in bc_verdicts:
                    tail = bc_verdicts[sq]
                else:
                    tail = bc_verdicts[sq] = _bc_failure(d, sq)
                bc_clause.check(tail is None, lambda: f"{x} , {y}: {tail}")

    unit_c = rep.clause("pdot.unit-cell", "the unit square is an equality")
    qt = pdot.unit_cell()
    _verdict(unit_c, qt.invertible, qt, lambda: "unit")

    sym_c = rep.clause("pdot.symmetry-cell", "the symmetry square is an equality")
    for x in spans:
        for y in spans:
            qt = pdot.symmetry_cell(x, y)
            _verdict(sym_c, qt.invertible, qt, lambda: f"{x} , {y}")

    return rep


def search_offdomain_witness(pdot: PDot, max_size: int) -> str | None:
    """Search the whole span universe for a pair outside the guaranteed
    class domain whose laxator square is not a commuter.  Returns a
    witness string, or None when no such pair exists at this bound.

    The square is ``PDot.laxator_cell``'s, with the doctrine's own μ
    (``external_laxator``) and loose images on three sides, and the span
    action of x ⊗ y (``Doctrine.span_action``, one table per relation the
    product spans trace) on the fourth; the two composites are compared
    as carrier indices, and ``product_span``'s cache stays empty.  The
    witness names the entry s·|P(B)| + t of the square where the two
    composites first differ."""
    d = pdot.d
    spans = list(pdot.cat.enumerate_spans(max_size))
    objs = Universe(pdot.triple, max_size).objects
    mu = {(a, b): external_laxator(d, a, b).table for a in objs for b in objs}
    for x in spans:
        lx = pdot.loose_image(x).table
        for y in spans:
            if pdot.laxator_domain(x, y):
                continue
            ly = pdot.loose_image(y)
            act = d.span_action(
                fn_product(x.left, y.left), fn_product(x.right, y.right)
            ).table
            mu_cd, n = mu[x.target, y.target], ly.cod.size
            lower = [act[j] for j in mu[x.source, y.source]]
            upper = [mu_cd[u * n + v] for u in lx for v in ly.table]
            if lower != upper:
                i = next(i for i, (p, q) in enumerate(zip(lower, upper)) if p != q)
                s, t = divmod(i, ly.dom.size)
                return f"{x} , {y} at ({s}, {t})"
    return None
