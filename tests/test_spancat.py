from dataclasses import FrozenInstanceError

import sys

import pytest

from doctrina.errors import BoundaryMismatch, ClassViolation, ObjMismatch
from doctrina.finset import (
    FinFn,
    FinSet,
    bang,
    compose,
    fn_product,
    functions,
    product,
    pullback,
    surjection_triple,
    trivial_triple,
)
from doctrina.spancat import Span, SpanCell, SpanCategory

from spans import brute_pullback, cospan, pullback_composite


@pytest.fixture(scope="module")
def cat():
    return SpanCategory(trivial_triple(3))


def brute_span_count(max_size, nonempty=False):
    lo = 1 if nonempty else 0
    total = 0
    for s in range(lo, max_size + 1):
        for p in range(lo, max_size + 1):
            for q in range(lo, max_size + 1):
                total += p ** s * q ** s
    return total


def reference_cells(cat, max_size):
    """The morphisms of spans by their definition: every tight left map,
    apex map and tight right map whose two squares commute, validated."""
    spans = list(cat.enumerate_spans(max_size))
    for src in spans:
        for dst in spans:
            for tl in functions(src.source, dst.source):
                for am in functions(src.apex, dst.apex):
                    if compose(am, dst.left) != compose(src.left, tl):
                        continue
                    for tr in functions(src.target, dst.target):
                        if compose(src.right, tr) == compose(am, dst.right):
                            yield SpanCell(src, dst, tl, tr, am)


class TestSpanValues:
    def test_equal_spans_built_apart_hash_equal(self, cat):
        for x in cat.enumerate_spans(1):
            y = Span(
                FinFn(x.apex, x.source, tuple(x.left.table)),
                FinFn(x.apex, x.target, tuple(x.right.table)),
            )
            assert y is not x and y == x and hash(y) == hash(x)
            assert hash(x) == hash((x.left, x.right))

    def test_frozen_and_slotted(self):
        x = Span.identity(FinSet(2))
        for attr in ("left", "_hash"):
            with pytest.raises(FrozenInstanceError):
                setattr(x, attr, None)
        assert not hasattr(x, "__dict__")


class TestLooseComposition:
    def test_identity_right_unit_verbatim(self, cat):
        x = cat.span(FinFn.identity(FinSet(2)), bang(FinSet(2)))
        assert cat.loose_compose(x, Span.identity(FinSet(1))) == x

    def test_identity_left_unit_verbatim(self, cat):
        x = cat.span(FinFn.identity(FinSet(2)), bang(FinSet(2)))
        assert cat.loose_compose(Span.identity(FinSet(2)), x) == x

    def test_unitality_everywhere(self, cat):
        for x in cat.enumerate_spans(2):
            assert cat.loose_compose(x, Span.identity(x.target)) == x
            assert cat.loose_compose(Span.identity(x.source), x) == x

    def test_pullback_oracle_on_composite(self, cat):
        f = FinFn(FinSet(2), FinSet(1), (0, 0))
        comp = cat.companion_of(f).span  # 1 <- 2 = 2
        conj = cat.conjoint_of(f).span   # 2 = 2 -> 1
        graph = cat.loose_compose(comp, conj)
        assert graph.apex.size == 2  # the graph of f

    def test_loose_compose_pulls_back_nothing(self, monkeypatch):
        # loose composition, σ and horizontal pasting order their apexes
        # by ``finset.pullback_tables``, on tables, so a passing powerset
        # verify_pdot at bound 2 calls ``finset.pullback`` 0 times, where
        # a FinFn pullback cached per middle cospan called it 59 times.
        # The 59 middle cospans are cached as tables, which
        # ``LaxCompositional`` reads off the span keys without asking
        # ``PDot`` for a span; check_doctrine's designated squares still
        # call ``finset.pullback`` 181 times
        from doctrina.doctrine import check_doctrine, powerset_doctrine
        from doctrina.doubling import LaxCompositional, PDot, verify_pdot

        calls = [0]

        def counted(x, y):
            calls[0] += 1
            return pullback(x, y)

        # every binding of finset.pullback in the package
        for name, mod in list(sys.modules.items()):
            if name.startswith("doctrina"):
                for attr, value in list(vars(mod).items()):
                    if value is pullback:
                        monkeypatch.setattr(mod, attr, counted)
        inside, spans = [False], [0]
        init, span = LaxCompositional.__init__, PDot.span

        def tracked_init(self, *args):
            inside[0] = True
            try:
                init(self, *args)
            finally:
                inside[0] = False

        def counted_span(self, i):
            spans[0] += inside[0]
            return span(self, i)

        monkeypatch.setattr(LaxCompositional, "__init__", tracked_init)
        monkeypatch.setattr(PDot, "span", counted_span)
        pdot = PDot(powerset_doctrine(trivial_triple(2)))
        assert verify_pdot(pdot, 2).passed
        assert (calls[0], len(pdot.cat._rows), spans[0]) == (0, 59, 0)
        assert check_doctrine(powerset_doctrine(trivial_triple(2)), 2).passed
        assert calls[0] == 181
        # and the composites are those of the reference pullback
        cat2 = SpanCategory(trivial_triple(2))
        spans2 = list(cat2.enumerate_spans(2))
        pairs = [(x, y) for x in spans2 for y in spans2 if x.target == y.source]
        assert len(pairs) == 971
        for x, y in pairs:
            assert cat2.loose_compose(x, y) == pullback_composite(cat2.triple, x, y)

    def test_interchange_on_middle_cospans(self):
        # every pair of the middle cospans of composable span pairs at
        # bound 2, identity legs and empty domains among them: σ is a
        # bijection onto the row-major product of the factor apexes, and
        # the product cospan's reference pullback projects through it
        cat2 = SpanCategory(trivial_triple(2))
        spans = list(cat2.enumerate_spans(2))
        middles = list(dict.fromkeys(
            (x.right, y.left) for x in spans for y in spans if x.target == y.source
        ))
        assert len(middles) == 59
        assert any(f.is_identity or g.is_identity for f, g in middles)
        assert any(f.dom.size == 0 or g.dom.size == 0 for f, g in middles)
        for u in middles:
            first = brute_pullback(*u)
            for v in middles:
                second = brute_pullback(*v)
                whole = brute_pullback(fn_product(u[0], v[0]), fn_product(u[1], v[1]))
                sigma = cat2.interchange(cospan(*u), cospan(*v))
                assert sigma.dom == whole.apex
                assert sigma.cod == product(first.apex, second.apex).prod
                assert sorted(sigma.table) == list(range(sigma.cod.size))
                assert compose(sigma, fn_product(first.p, second.p)) == whole.p
                assert compose(sigma, fn_product(first.q, second.q)) == whole.q

    def test_interchange_is_mostly_the_identity(self):
        # where σ is the identity, (a ⊗ x) ; (a2 ⊗ x2) is the span
        # (a ; a2) ⊗ (x ; x2) itself: at bound 2 that is 3,306 of the
        # 3,481 pairs of middle cospans, 121 of them with both left legs
        # identities, where σ is the identity without a table
        cat2 = SpanCategory(trivial_triple(2))
        spans = list(cat2.enumerate_spans(2))
        middles = list(dict.fromkeys(
            cospan(x.right, y.left) for x in spans for y in spans if x.target == y.source
        ))
        pairs = [(u, v) for u in middles for v in middles]
        identities = [(u, v) for u, v in pairs if cat2.interchange(u, v).is_identity]
        assert (len(pairs), len(identities)) == (3481, 3306)

        def left_identity(u):
            return u[0] == tuple(range(u[2]))

        shortcut = [(u, v) for u, v in pairs if left_identity(u) and left_identity(v)]
        assert len(shortcut) == 121 and set(shortcut) <= set(identities)

    def test_interchange_by_class(self, monkeypatch):
        # σ reads a middle cospan only through its class: at bound 2 the
        # 59 middle cospans fall into 10 classes, σ of two cospans is σ of
        # their classes' first members on all 3,481 pairs, and 16 of the
        # 100 pairs of classes have a σ that is not the identity
        from doctrina.doctrine import powerset_doctrine
        from doctrina.doubling import PDot, verify_pdot

        cat2 = SpanCategory(trivial_triple(2))
        spans = list(cat2.enumerate_spans(2))
        middles = list(dict.fromkeys(
            cospan(x.right, y.left) for x in spans for y in spans if x.target == y.source
        ))
        first = {}
        for u in middles:
            first.setdefault(cat2.interchange_class(u), u)
        assert (len(middles), len(first)) == (59, 10)
        rep = {u: first[cat2.interchange_class(u)] for u in middles}
        for u in middles:
            for v in middles:
                assert cat2.interchange(u, v) == cat2.interchange(rep[u], rep[v])
        reps = list(first.values())
        moved = [(u, v) for u in reps for v in reps if not cat2.interchange(u, v).is_identity]
        assert len(moved) == 16
        # so verify_pdot builds σ once per pair of classes, where it built
        # it once per pair of middle cospans it met, 3,461 times
        calls = [0]
        interchange = SpanCategory.interchange

        def counting(self, u, v):
            calls[0] += 1
            return interchange(self, u, v)

        monkeypatch.setattr(SpanCategory, "interchange", counting)
        verify_pdot(PDot(powerset_doctrine(trivial_triple(2))), 2)
        assert calls[0] == 100

    def test_obj_mismatch(self, cat):
        x = cat.span(bang(FinSet(2)), FinFn.identity(FinSet(2)))
        with pytest.raises(ObjMismatch):
            cat.loose_compose(x, x)

    def test_associator_is_a_leg_preserving_bijection(self, cat):
        from doctrina.finset import pullback

        def coords_left(x, y, z):
            xy_pb = pullback(x.right, y.left)
            xy = Span(compose(xy_pb.p, x.left), compose(xy_pb.q, y.right))
            outer = pullback(xy.right, z.left)
            return xy, [
                (
                    xy_pb.p.table[outer.p.table[k]],
                    xy_pb.q.table[outer.p.table[k]],
                    outer.q.table[k],
                )
                for k in range(outer.apex.size)
            ]

        def coords_right(x, y, z):
            yz_pb = pullback(y.right, z.left)
            yz = Span(compose(yz_pb.p, y.left), compose(yz_pb.q, z.right))
            outer = pullback(x.right, yz.left)
            return yz, [
                (
                    outer.p.table[k],
                    yz_pb.p.table[outer.q.table[k]],
                    yz_pb.q.table[outer.q.table[k]],
                )
                for k in range(outer.apex.size)
            ]

        spans = list(cat.enumerate_spans(2))
        by_source = {}
        for s in spans:
            by_source.setdefault(s.source, []).append(s)
        checked = 0
        for x in spans:
            for y in by_source.get(x.target, []):
                for z in by_source.get(y.target, []):
                    checked += 1
                    if checked % 29 != 1:  # deterministic thinning
                        continue
                    left = cat.loose_compose(cat.loose_compose(x, y), z)
                    right = cat.loose_compose(x, cat.loose_compose(y, z))
                    _, lc = coords_left(x, y, z)
                    _, rc = coords_right(x, y, z)
                    # apex coordinates biject, and the bijection commutes
                    # with the composite legs
                    assert sorted(lc) == sorted(rc)
                    assert len(set(lc)) == len(lc)
                    lookup = {t: i for i, t in enumerate(rc)}
                    m = FinFn(
                        left.apex, right.apex, tuple(lookup[t] for t in lc)
                    )
                    assert m.is_injective
                    assert compose(m, right.left) == left.left
                    assert compose(m, right.right) == left.right
        assert checked > 100


def reference_hcompose(triple, a, b):
    """The horizontal composite of cells a and b by its definition: the
    composites of the sources and of the targets, and the apex map that
    sends each pair (i, j) of the source's reference pullback to the
    pair (a(i), b(j)) of the target's."""
    src = pullback_composite(triple, a.src, b.src)
    dst = pullback_composite(triple, a.dst, b.dst)
    s_apex, sp, sq = brute_pullback(a.src.right, b.src.left)
    d_apex, dp, dq = brute_pullback(a.dst.right, b.dst.left)
    pairs = list(zip(dp.table, dq.table))
    table = tuple(
        pairs.index((a.apex_map(sp(k)), b.apex_map(sq(k)))) for k in range(s_apex.size)
    )
    return SpanCell(src, dst, a.tight_left, b.tight_right, FinFn(s_apex, d_apex, table))


class TestCells:
    def test_hcompose_is_the_reference(self):
        # every horizontally composable pair of cells at bound 1
        cat1 = SpanCategory(trivial_triple(1))
        cells = list(cat1.enumerate_cells(1))
        pairs = [
            (a, b) for a in cells for b in cells
            if a.src.target == b.src.source and a.dst.target == b.dst.source
            and a.tight_right == b.tight_left
        ]
        assert len(pairs) == 70
        for a, b in pairs:
            assert cat1.cell_hcompose(a, b) == reference_hcompose(cat1.triple, a, b)

    def test_vertical_identity_composition(self, cat):
        x = cat.span(FinFn.identity(FinSet(2)), bang(FinSet(2)))
        v = SpanCell.loose_identity(x)
        assert cat.cell_vcompose(v, v) == v

    def test_horizontal_with_identity_cells_unchanged(self, cat):
        f = FinFn(FinSet(2), FinSet(1), (0, 0))
        data = cat.conjoint_of(f)
        e = SpanCell.tight_identity(FinFn.identity(FinSet(1)))
        # unit cell beside the identity-span cell over the target
        again = cat.cell_hcompose(data.counit, e)
        assert again == data.counit

    def test_boundary_mismatch(self, cat):
        x = cat.span(FinFn.identity(FinSet(2)), bang(FinSet(2)))
        v = SpanCell.loose_identity(x)
        w = SpanCell.loose_identity(Span.identity(FinSet(2)))
        with pytest.raises(BoundaryMismatch):
            cat.cell_hcompose(v, w)

    def test_commuting_squares_enforced(self, cat):
        x = Span.identity(FinSet(2))
        swap = FinFn(FinSet(2), FinSet(2), (1, 0))
        with pytest.raises(BoundaryMismatch):
            SpanCell(x, x, swap, FinFn.identity(FinSet(2)), FinFn.identity(FinSet(2)))

    def test_interchange_full_at_size_one(self):
        cat1 = SpanCategory(trivial_triple(1))
        cells = list(cat1.enumerate_cells(1))
        by_src = {}
        for c in cells:
            by_src.setdefault(c.src, []).append(c)
        grids = 0
        for a in cells:
            for b in cells:
                if (
                    a.src.target != b.src.source
                    or a.dst.target != b.dst.source
                    or a.tight_right != b.tight_left
                ):
                    continue
                for d in by_src.get(a.dst, []):
                    for e in by_src.get(b.dst, []):
                        if (
                            d.src.target != e.src.source
                            or d.dst.target != e.dst.source
                            or d.tight_right != e.tight_left
                        ):
                            continue
                        rows = cat1.cell_vcompose(
                            cat1.cell_hcompose(a, b), cat1.cell_hcompose(d, e)
                        )
                        cols = cat1.cell_hcompose(
                            cat1.cell_vcompose(a, d), cat1.cell_vcompose(b, e)
                        )
                        assert rows == cols
                        grids += 1
        assert grids > 0

    def test_interchange_sampled_at_size_two(self, cat):
        cells = list(cat.enumerate_cells(2))
        by_src = {}
        for c in cells:
            by_src.setdefault(c.src, []).append(c)
        h_pairs = []
        for i, a in enumerate(cells):
            if i % 37 != 0:
                continue
            for b in cells:
                if (
                    a.src.target == b.src.source
                    and a.dst.target == b.dst.source
                    and a.tight_right == b.tight_left
                ):
                    h_pairs.append((a, b))
        grids = 0
        for a, b in h_pairs:
            if grids >= 400:
                break
            for d in by_src.get(a.dst, []):
                hit = False
                for e in by_src.get(b.dst, []):
                    if (
                        d.src.target == e.src.source
                        and d.dst.target == e.dst.source
                        and d.tight_right == e.tight_left
                    ):
                        rows = cat.cell_vcompose(
                            cat.cell_hcompose(a, b), cat.cell_hcompose(d, e)
                        )
                        cols = cat.cell_hcompose(
                            cat.cell_vcompose(a, d), cat.cell_vcompose(b, e)
                        )
                        assert rows == cols
                        grids += 1
                        hit = True
                        break
                if hit:
                    break
        assert grids >= 100


class TestCompanionsConjoints:
    def test_identity_map_gives_identity_cells(self, cat):
        ident = FinFn.identity(FinSet(2))
        data = cat.companion_of(ident)
        assert data.span == Span.identity(FinSet(2))
        assert cat.verify_triangles(data)

    def test_conjoint_of_constant(self, cat):
        f = FinFn(FinSet(2), FinSet(1), (0, 0))
        data = cat.conjoint_of(f)
        assert data.span.left == FinFn.identity(FinSet(2))
        assert data.span.right == f
        assert cat.verify_triangles(data)

    def test_companion_of_injection(self, cat):
        f = FinFn(FinSet(1), FinSet(2), (1,))
        data = cat.companion_of(f)
        assert data.span.left == f
        assert cat.verify_triangles(data)

    def test_flag_orders_horizontal_snake(self, cat):
        # pasted in the other order, the horizontal snake does not compose
        for data in (
            cat.companion_of(FinFn(FinSet(1), FinSet(2), (1,))),
            cat.conjoint_of(FinFn(FinSet(2), FinSet(1), (0, 0))),
        ):
            with pytest.raises(BoundaryMismatch):
                cat.verify_triangles(data._replace(companion=not data.companion))

    def test_all_triangles_up_to_three(self, cat):
        rep = cat.check_triangles(3)
        assert rep.passed
        assert all(c.instances == 60 for c in rep.clauses)

    def test_class_violation_in_restricted_triple(self):
        scat = SpanCategory(surjection_triple(2))
        non_surj = FinFn(FinSet(1), FinSet(2), (0,))
        with pytest.raises(ClassViolation):
            scat.conjoint_of(non_surj)
        # companions need L membership; L is everything here
        assert scat.verify_triangles(scat.companion_of(non_surj))

    def test_surjection_triple_triangles(self):
        scat = SpanCategory(surjection_triple(3))
        assert scat.check_triangles(3).passed


class TestEnumeration:
    def test_empty_universe(self, cat):
        assert list(cat.enumerate_spans(0)) == [Span.identity(FinSet(0))]

    def test_single_span_over_singletons(self, cat):
        spans = [
            s
            for s in cat.enumerate_spans(1)
            if s.apex.size == 1 and s.source.size == 1 and s.target.size == 1
        ]
        assert len(spans) == 1

    def test_count_matches_brute_force(self, cat):
        assert len(list(cat.enumerate_spans(2))) == brute_span_count(2)

    def test_deterministic_and_duplicate_free(self, cat):
        first = list(cat.enumerate_spans(2))
        second = list(cat.enumerate_spans(2))
        assert first == second
        assert len(set(first)) == len(first)

    def test_class_filter(self):
        scat = SpanCategory(surjection_triple(2))
        assert all(
            s.right.is_surjective for s in scat.enumerate_spans(2)
        )


@pytest.mark.parametrize("triple, bound, boundaries", [
    (trivial_triple(1), 1, 14), (trivial_triple(2), 2, 4943),
    (surjection_triple(1), 1, 1), (surjection_triple(2), 2, 940),
], ids=["all-all-1", "all-all-2", "surj-right-1", "surj-right-2"])
def test_cell_data_matches_definition(triple, bound, boundaries):
    # the same cells in the same order; so the first apex map seen for
    # each boundary, the one pdot.cell-existence keeps, is the same too
    cat = SpanCategory(triple)
    reference = list(reference_cells(cat, bound))
    assert list(cat.enumerate_cells(bound)) == reference
    first_seen = {}
    for c in reference:
        first_seen.setdefault(
            (c.src, c.dst, c.tight_left, c.tight_right), c.apex_map
        )
    data_seen = {}
    for c in cat.enumerate_cell_data(bound):
        data_seen.setdefault(c[:4], c.apex_map)
    assert list(data_seen.items()) == list(first_seen.items())
    assert len(first_seen) == boundaries
    # the boundary stream holds each boundary once, in order, with its
    # first apex map
    distinct = [
        ((src, dst, tl, tr), am)
        for src, dst, tl, matches in cat.cell_boundaries(bound)
        for am, trs in matches for tr in trs
    ]
    assert distinct == list(first_seen.items())
