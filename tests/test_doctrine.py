import operator
from functools import partial

import pytest

from doctrina.errors import ClassViolation, NonFunctorial, NotAPullback
from doctrina.finset import (
    FinFn,
    FinSet,
    Universe,
    finsets,
    fn_product,
    functions,
    injection_right_triple,
    product,
    surjection_triple,
    swap_fn,
    trivial_triple,
)
from doctrina.poskit import (
    MonoPoset,
    Poset,
    boolean_meet,
    chain,
    min_plus,
    monotone_map,
    power_poset,
    trop_index,
    trop_values,
    value_index,
    value_tuples,
)
from doctrina.doctrine import (
    Doctrine,
    PullbackSquare,
    check_adjunction,
    check_beck_chevalley,
    check_doctrine,
    check_frobenius,
    external_laxator,
    external_unit,
    generated_pullbacks,
    is_pullback,
    powerset_doctrine,
    square_from_cospan,
    tropical_doctrine,
)

from doctrina.doubling import PDot, verify_pdot
from doctrina.extraction import roundtrip
from doctrina.spancat import SpanCategory

from mutants import (
    PERTURBED,
    NonFunctorialDoctrine,
    SwappedAdjointDoctrine,
    doctrines,
)
from spans import product_span
from test_poskit import M3, N5, meet_monoid


CONST21 = FinFn(FinSet(2), FinSet(1), (0, 0))


def per_value_span_action(d: Doctrine, n: int, k: int, lt: tuple, rt: tuple):
    """The reference for the relation tables, on the span n <- apex -> k
    with leg tables ``lt`` and ``rt``: for each value tuple of the
    source, in codec order, target slot j joins its entries at the
    ``d._legs`` pairs (i, j), starting from the bottom; each image is
    looked up as a tuple, and ``monotone_map`` checks every cover pair."""
    lt, rt = d._legs(lt, rt)
    index = value_index(k, d._size)
    images = []
    for v in value_tuples(n, d._size):
        vals = [d.bottom] * k
        for i, j in zip(lt, rt):
            vals[j] = d._join[vals[j]][v[i]]
        images.append(index[tuple(vals)])
    return monotone_map(d.fiber(FinSet(n)).carrier, d.fiber(FinSet(k)).carrier, images)


def action_spans(triple):
    """Every span at bound 2, then products of spans between 2-element
    feet, whose feet have 4 slots and whose apexes have up to 4 elements."""
    spans = list(SpanCategory(triple).enumerate_spans(2))
    square = [x for x in spans if x.source.size == x.target.size == 2]
    wide = [product_span(x, y) for x, y in zip(square, square[3:] + square[:3])]
    assert len(wide) >= 8
    return spans + wide


class PerValueDoctrine(Doctrine):
    """The stock doctrine with its span action computed value by value."""

    def _span_action(self, n, k, lt, rt):
        return per_value_span_action(self, n, k, lt, rt)


UNION = MonoPoset(chain(2), operator.or_, 0)
LATTICES = [meet_monoid(M3), meet_monoid(N5), meet_monoid(power_poset(chain(2), 2)), UNION]
LATTICE_IDS = ["M3-meet", "N5-meet", "2x2-meet", "union"]


class TestPowersetDoctrine:
    def test_subst_is_preimage(self, pow3):
        # preimage of the point under the constant map is everything
        assert pow3.subst(CONST21).table[0b1] == 0b11

    def test_exists_is_image(self, pow3):
        assert pow3.exists(CONST21).table[0] == 0
        ident = FinFn.identity(FinSet(2))
        assert pow3.exists(ident).table[0b01] == 0b01

    def test_exhaustive_image_preimage_oracle(self, pow3):
        for f in functions(FinSet(2), FinSet(3)):
            sub, ex = pow3.subst(f), pow3.exists(f)
            for s in range(8):
                assert sub.table[s] == sum(
                    1 << a for a in range(2) if (s >> f.table[a]) & 1
                )
            for s in range(4):
                assert ex.table[s] == 0 | sum(
                    {1 << f.table[a] for a in range(2) if (s >> a) & 1}
                )


class TestTropicalDoctrine:
    def test_exists_is_min_over_fibre(self):
        d = tropical_doctrine(trivial_triple(2), 6)
        phi = trop_index((2, 5), 6)
        assert trop_values(d.exists(CONST21).table[phi], 1, 6) == (2,)

    def test_empty_fibre_gives_infinity(self, trop2k3):
        f = FinFn(FinSet(0), FinSet(1), ())
        assert trop_values(trop2k3.exists(f).table[0], 1, 3) == (4,)

    def test_subst_is_precomposition(self, trop2k3):
        psi = trop_index((3,), 3)
        assert trop_values(trop2k3.subst(CONST21).table[psi], 2, 3) == (3, 3)

    def test_cap_guard(self):
        with pytest.raises(ValueError):
            tropical_doctrine(trivial_triple(2), 0)

    @pytest.mark.parametrize(
        "make",
        [partial(Doctrine, values=v) for v in [min_plus(1), min_plus(2), min_plus(3)] + LATTICES]
        + list(doctrines().values()),
        ids=["1", "2", "3"] + LATTICE_IDS + list(doctrines()),
    )
    @pytest.mark.parametrize("triple, empties", [
        (trivial_triple(2), True), (surjection_triple(2), False),
    ], ids=["all-all", "surj-right"])
    def test_packed_span_action_is_the_per_value_table(self, triple, empties, make):
        # the mutants' ``_legs`` drop apex elements, so they take the
        # relation tables too
        d = make(triple)
        spans = action_spans(triple)
        for x in spans:
            assert d.span_action(*x.key) == per_value_span_action(d, *x.key), x
        if empties:
            # empty feet, and right legs that leave a fibre empty
            assert any(x.source.size == 0 for x in spans)
            assert any(x.target.size == 0 for x in spans)
            assert any(len(set(x.right.table)) < x.target.size for x in spans)


def per_value_subst_table(d: Doctrine, f: FinFn) -> tuple[int, ...]:
    """The reference for substitution along f: for each value tuple psi
    of the codomain, in codec order, the index of psi ∘ f, looked up as
    a tuple."""
    index = value_index(f.dom.size, d._size)
    return tuple(
        index[tuple([psi[b] for b in f.table])]
        for psi in value_tuples(f.cod.size, d._size)
    )


class TestSubstitutionTables:
    @pytest.mark.parametrize(
        "values", [boolean_meet(), min_plus(3), LATTICES[0], LATTICES[1]],
        ids=["boolean", "min-plus-3", "M3-meet", "N5-meet"],
    )
    def test_horner_passes_are_the_per_value_table(self, values):
        # every map at bound 2, their products and the swaps, up to 4
        # slots on either side
        d = Doctrine(trivial_triple(2), values)
        maps = Universe(trivial_triple(2), 2).maps
        sets = [FinSet(n) for n in range(3)]
        wide = [fn_product(f, g) for f in maps for g in maps]
        swaps = [swap_fn(a, b) for a in sets for b in sets]
        assert max(f.dom.size for f in wide) == max(f.cod.size for f in swaps) == 4
        for f in maps + wide + swaps:
            assert d.subst(f).table == per_value_subst_table(d, f), f


class TestAdjunction:
    def test_powerset_constant(self, pow3):
        assert check_adjunction(pow3, CONST21)

    def test_tropical_identity_composites(self, trop2):
        ident = FinFn.identity(FinSet(2))
        assert check_adjunction(trop2, ident)
        assert trop2.exists(ident).table == tuple(range(16))

    def test_swapped_adjoint_caught_with_witness(self, triple3):
        bad = SwappedAdjointDoctrine(triple3)
        assert not check_adjunction(bad, CONST21)
        # the clause names each failing map, first the empty one into 1
        galois = check_doctrine(bad, 2).find("doctrine.galois")
        assert galois.witnesses[0] == "f=FinFn(0->1:[])"
        assert f"f={CONST21}" in galois.witnesses

    def test_class_violation(self):
        d = powerset_doctrine(surjection_triple(2))
        with pytest.raises(ClassViolation):
            d.exists(FinFn(FinSet(1), FinSet(2), (0,)))

    def test_span_actions_refuse_right_legs_out_of_r(self):
        # the span action decides its right leg's class on the table, and
        # refuses it as the quantifier along it does, with one message,
        # whether it takes tables (``span_action``) or maps (``act``)
        d = powerset_doctrine(injection_right_triple(2))
        refused = 0
        for f in Universe(d.triple, 2).maps:
            left = FinFn.identity(f.dom)
            if d.triple.right.contains(f):
                d.span_action(f.dom.size, f.cod.size, left.table, f.table)
                continue
            with pytest.raises(ClassViolation) as want:
                d.exists(f)
            with pytest.raises(ClassViolation) as tables:
                d.span_action(f.dom.size, f.cod.size, left.table, f.table)
            with pytest.raises(ClassViolation) as maps:
                d.act(left, f, (0,) * f.dom.size)
            assert str(tables.value) == str(maps.value) == str(want.value)
            refused += 1
        assert refused == 3

    def test_span_action_checks_its_tables(self, pow2):
        with pytest.raises(ValueError, match="share an apex"):
            pow2.span_action(1, 1, (0, 0), (0,))
        for lt, rt in (((1,), (0,)), ((0,), (1,)), ((-1,), (0,))):
            with pytest.raises(ValueError, match="outside codomain"):
                pow2.span_action(1, 1, lt, rt)


class TestBeckChevalley:
    def test_identity_square(self, pow2):
        i = FinFn.identity(FinSet(2))
        sq = PullbackSquare(i, i, i, i)
        assert check_beck_chevalley(pow2, sq)

    def test_constant_self_pullback_powerset(self, pow2):
        sq = square_from_cospan(CONST21, CONST21)
        assert check_beck_chevalley(pow2, sq)
        # exhaustive brute-force cross-check on one side
        apex, p, q = sq.top.dom, sq.left, sq.top
        for s in range(4):
            image_then_preimage = pow2.subst(sq.right).table[
                pow2.exists(sq.bottom).table[s]
            ]
            preimage_then_image = pow2.exists(sq.top).table[
                pow2.subst(sq.left).table[s]
            ]
            assert image_then_preimage == preimage_then_image

    def test_constant_self_pullback_tropical(self, trop2):
        sq = square_from_cospan(CONST21, CONST21)
        assert check_beck_chevalley(trop2, sq)

    def test_not_a_pullback_rejected(self, pow2):
        i2 = FinFn.identity(FinSet(2))
        c = FinFn(FinSet(2), FinSet(2), (0, 0))
        # commuting but not a pullback: apex too small
        sq = PullbackSquare(
            top=FinFn(FinSet(1), FinSet(2), (0,)),
            left=FinFn(FinSet(1), FinSet(2), (0,)),
            right=c,
            bottom=c,
        )
        with pytest.raises(NotAPullback):
            check_beck_chevalley(pow2, sq)

    @pytest.mark.parametrize("bottom", [
        FinFn(FinSet(3), FinSet(2), (0, 1, 1)),  # its domain is not left's codomain
        FinFn(FinSet(2), FinSet(2), (1, 0)),  # the square does not commute
    ], ids=["mis-cornered", "not-commuting"])
    def test_malformed_square_rejected(self, pow2, bottom):
        # a square is validated once, by the pullback test of the checker
        i2 = FinFn.identity(FinSet(2))
        sq = PullbackSquare(top=i2, left=i2, right=i2, bottom=bottom)
        assert not is_pullback(sq)
        with pytest.raises(NotAPullback):
            check_beck_chevalley(pow2, sq)

    def test_all_generated_squares_both_fibers(self, pow2, trop2):
        squares = list(generated_pullbacks(trivial_triple(2), 2))
        assert len(squares) > 30
        for sq in squares:
            assert check_beck_chevalley(pow2, sq)
            assert check_beck_chevalley(trop2, sq)


class TestFrobenius:
    def test_powerset_point_instance(self, pow3):
        assert check_frobenius(pow3, CONST21)
        # b = {0}, a = {0}: both sides {0}
        ex, sub = pow3.exists(CONST21), pow3.subst(CONST21)
        fa, fb = pow3.fiber(FinSet(2)), pow3.fiber(FinSet(1))
        assert ex.table[fa.mul(sub.table[1], 1)] == fb.mul(1, ex.table[1]) == 1

    def test_tropical_min_plus_oracle(self):
        d = tropical_doctrine(trivial_triple(2), 6)
        assert check_frobenius(d, CONST21)
        a = trop_index((2, 5), 6)
        b = trop_index((1,), 6)
        ex, sub = d.exists(CONST21), d.subst(CONST21)
        fa, fb = d.fiber(FinSet(2)), d.fiber(FinSet(1))
        lhs = ex.table[fa.mul(sub.table[b], a)]
        rhs = fb.mul(b, ex.table[a])
        assert trop_values(lhs, 1, 6) == trop_values(rhs, 1, 6) == (3,)

    def test_identity_reduces_to_tensor(self, pow2):
        ident = FinFn.identity(FinSet(2))
        assert check_frobenius(pow2, ident)


class TestExternalMonoidal:
    def test_powerset_cylinder_point(self, pow2):
        one = FinSet(1)
        mu = external_laxator(pow2, one, one)
        assert mu.table[1 * 2 + 1] == 1  # {0} x {0} = {(0,0)}

    def test_powerset_products_of_twos(self, pow2):
        two = FinSet(2)
        mu = external_laxator(pow2, two, two)
        for s in range(4):
            for t in range(4):
                expect = 0
                for i in range(2):
                    for j in range(2):
                        if (s >> i) & 1 and (t >> j) & 1:
                            expect |= 1 << (i * 2 + j)
                assert mu.table[s * 4 + t] == expect

    def test_tropical_pointwise_addition(self, trop2k3):
        two = FinSet(2)
        mu = external_laxator(trop2k3, two, two)
        phi, psi = trop_index((1, 2), 3), trop_index((0, 3), 3)
        got = trop_values(mu.table[phi * 25 + psi], 4, 3)
        assert got == (1, 4, 2, 4)  # pairwise sums, saturating above 3

    @pytest.mark.parametrize("make", [powerset_doctrine, tropical_doctrine])
    @pytest.mark.parametrize("k, m", [(1, 1), (1, 2), (2, 2)])
    def test_laxator_domain_is_the_fiber_order_over_the_sum(self, make, k, m):
        # the order of P(A) x P(B) is the cached order of P(A + B)
        d = make(trivial_triple(2))
        total = d.fiber(FinSet(k + m)).carrier
        assert external_laxator(d, FinSet(k), FinSet(m)).dom is total
        if k == m:
            assert d.fiber(FinSet(k)).tensor_map().dom is total

    def test_unit_is_fiber_unit(self, pow2, trop2):
        assert external_unit(pow2) == 1  # the full subset of the point
        assert external_unit(trop2) == 0  # the zero cost

    def test_pair_predicate_matches_laxator(self, pow2, trop2, trop2k3):
        # uwd.tensor_systems tensors values through pair_predicate, the law
        # suites carrier indices through external_laxator: the two must
        # agree entry for entry across the fiber codec
        for d in (pow2, trop2, trop2k3):
            size = d.values.carrier.size
            for a in finsets(2):
                for b in finsets(2):
                    mu = external_laxator(d, a, b)
                    va, vb = value_tuples(a.size, size), value_tuples(b.size, size)
                    index = value_index(product(a, b).prod.size, size)
                    joints = [d.pair_predicate(a, b, p, q) for p in va for q in vb]
                    assert [index[j] for j in joints] == list(mu.table)

    def test_carrier_indices_invert_values(self, pow2, trop2, trop2k3):
        # the value tuple of every element of a fiber, in carrier order,
        # and the codec's index back
        for d in (pow2, trop2, trop2k3):
            size = d.values.carrier.size
            for a in finsets(3):
                values = value_tuples(a.size, size)
                assert len(values) == d.fiber(a).carrier.size
                index = value_index(a.size, size)
                assert [index[v] for v in values] == list(range(len(values)))


class TestDoctrineSuite:
    def test_powerset_full_suite_size3(self, pow3):
        rep = check_doctrine(pow3, 3)
        assert rep.passed
        # every pair of the 60 maps between sets of size <= 3
        assert rep.find("doctrine.laxator-natural").instances == 3600

    def test_nonfunctorial_subst_caught_with_witness(self, triple2):
        rep = check_doctrine(NonFunctorialDoctrine(triple2), 2)
        comp = rep.find("doctrine.subst-compose")
        assert not comp.passed
        assert any(repr(PERTURBED) in w for w in comp.witnesses)

    def test_tropical_full_suite_size2(self, trop2k3):
        assert check_doctrine(trop2k3, 2).passed

    def test_surjection_triple_powerset(self):
        d = powerset_doctrine(surjection_triple(3))
        assert check_doctrine(d, 3).passed

    def test_span_action_agrees_with_composite(self, pow2, trop2):
        for d in (pow2, trop2):
            left = FinFn(FinSet(3), FinSet(2), (0, 0, 1))
            right = FinFn(FinSet(3), FinSet(2), (1, 0, 1))
            assert d.span_action(2, 2, left.table, right.table) == d.subst(left).then(
                d.exists(right)
            )


# {clause: (failures, instances)} of the clauses of check_doctrine and
# roundtrip that fail at bound 2, per triple; a doctrine or triple not
# named fails none
FAILING = {
    "BrokenTensorDoctrine": {
        "all-all": {"doctrine.frobenius": (6, 11), "roundtrip.frobenius": (6, 11)},
        "inj-right": {"doctrine.frobenius": (4, 8), "roundtrip.frobenius": (4, 8)},
    },
    "DroppedApexDoctrine": {
        "all-all": {"roundtrip.frobenius": (4, 11)},
        "surj-right": {"roundtrip.frobenius": (2, 4)},
        "inj-right": {"roundtrip.frobenius": (2, 8)},
    },
    "NonFunctorialDoctrine": {
        "all-all": {
            "doctrine.subst-compose": (4, 47),
            "doctrine.galois": (1, 11),
            "doctrine.beck-chevalley": (11, 122),
            "doctrine.frobenius": (1, 11),
            "doctrine.laxator-natural": (25, 121),
        },
        "surj-right": {
            "doctrine.subst-compose": (4, 36),
            "doctrine.galois": (1, 4),
            "doctrine.beck-chevalley": (1, 32),
            "doctrine.frobenius": (1, 4),
            "doctrine.laxator-natural": (25, 64),
        },
        "inj-right": {
            "doctrine.subst-compose": (4, 47),
            "doctrine.beck-chevalley": (10, 89),
            "doctrine.laxator-natural": (25, 121),
        },
    },
    "PairApexDoctrine": {
        "all-all": {
            "roundtrip.subst": (5, 11),
            "roundtrip.exists": (5, 11),
            "roundtrip.frobenius": (5, 11),
        },
        "surj-right": {
            "roundtrip.subst": (5, 8),
            "roundtrip.exists": (3, 4),
            "roundtrip.frobenius": (2, 4),
        },
        "inj-right": {
            "roundtrip.subst": (5, 11),
            "roundtrip.exists": (2, 8),
            "roundtrip.frobenius": (3, 8),
        },
    },
    "SaturatedProjectionDoctrine": {
        "all-all": {"doctrine.beck-chevalley": (4, 122)},
    },
    "SwappedAdjointDoctrine": {
        "all-all": {
            "doctrine.galois": (7, 11),
            "doctrine.frobenius": (6, 11),
            "roundtrip.exists": (7, 11),
            "roundtrip.frobenius": (6, 11),
        },
        "surj-right": {"doctrine.galois": (1, 4), "roundtrip.exists": (1, 4)},
        "inj-right": {
            "doctrine.galois": (4, 8),
            "doctrine.frobenius": (4, 8),
            "roundtrip.exists": (4, 8),
            "roundtrip.frobenius": (4, 8),
        },
    },
}
FAILING["DroppedApexTropicalDoctrine"] = FAILING["DroppedApexDoctrine"]
FAILING["SkippedApexDoctrine"] = FAILING["DroppedApexDoctrine"]
LAW_DOCTRINES = {"powerset": powerset_doctrine, "tropical": tropical_doctrine, **doctrines()}
LAW_TRIPLES = {
    "all-all": trivial_triple,
    "surj-right": surjection_triple,
    "inj-right": injection_right_triple,
}


@pytest.mark.parametrize("triple", list(LAW_TRIPLES))
@pytest.mark.parametrize("name", list(LAW_DOCTRINES))
def test_act_is_the_span_action_value_by_value(name, triple):
    # evaluation's ``act`` and the law suites' ``span_action`` read one
    # definition of the action: on every span at bound 2, and on products
    # of spans, whose apexes are large enough for the apex mutants, the
    # image of every source value under ``act`` is the map's image of its
    # index
    d = LAW_DOCTRINES[name](LAW_TRIPLES[triple](2))
    for x in action_spans(d.triple):
        n, k = x.source.size, x.target.size
        index = value_index(k, d._size)
        acted = [index[d.act(x.left, x.right, v)] for v in value_tuples(n, d._size)]
        assert tuple(acted) == d.span_action(*x.key).table, x


@pytest.mark.parametrize("triple", list(LAW_TRIPLES))
@pytest.mark.parametrize("name", list(LAW_DOCTRINES))
def test_failing_clauses(name, triple):
    d = LAW_DOCTRINES[name](LAW_TRIPLES[triple](2))
    reports = [check_doctrine(d, 2)]
    if name == "NonFunctorialDoctrine":
        # its substitution is not functorial, so it has no double extension
        with pytest.raises(NonFunctorial):
            roundtrip(d, 2)
    else:
        reports.append(roundtrip(d, 2))
    failing = {
        c.clause: (c.failures, c.instances)
        for r in reports for c in r.clauses if not c.passed
    }
    assert failing == FAILING.get(name, {}).get(triple, {})


def law_reports(d):
    """The doctrine, double-extension and round-trip reports at bound 2."""
    return [check_doctrine(d, 2), verify_pdot(PDot(d), 2), roundtrip(d, 2)]


TRIPLES = [trivial_triple(2), surjection_triple(2)]
TRIPLE_IDS = ["all-all", "surj-right"]


class TestValuedDoctrine:
    @pytest.mark.parametrize("triple", TRIPLES, ids=TRIPLE_IDS)
    def test_boolean_meet_is_the_powerset_doctrine(self, triple):
        # the powerset doctrine's span actions, from the relation tables,
        # against the join fold over the 2-chain value by value: the
        # reports agree byte for byte
        per_value = law_reports(PerValueDoctrine(triple, boolean_meet()))
        tables = law_reports(powerset_doctrine(triple))
        assert [r.to_jsonl() for r in per_value] == [r.to_jsonl() for r in tables]

    @pytest.mark.parametrize("triple", TRIPLES, ids=TRIPLE_IDS)
    def test_union_fails_frobenius_exactly_off_surjections(self, triple):
        # join as tensor: the bottom (the empty set) is not absorbing, so
        # the projection formula fails along every non-surjective map, and
        # with it the laxator commuter; nothing else fails
        reports = law_reports(Doctrine(triple, MonoPoset(chain(2), operator.or_, 0)))
        failing = {
            c.clause: (c.failures, c.instances)
            for r in reports for c in r.clauses if not c.passed
        }
        if triple.right.contains(FinFn(FinSet(0), FinSet(1), ())):
            assert failing == {
                "doctrine.frobenius": (6, 11),
                "pdot.laxator-commuter": (1240, 1849),
                "roundtrip.frobenius": (6, 11),
            }
            fro = reports[0].find("doctrine.frobenius")
            legs = {f"f={f}": f for f in Universe(triple, 2).right}
            assert all(len(set(legs[w].table)) < legs[w].cod.size for w in fro.witnesses)
        else:
            assert failing == {}

    def test_non_lattice_values_rejected(self):
        # a bottom below two maximal elements, then two incomparable ones
        vee = Poset(3, (0b111, 0b010, 0b100))
        with pytest.raises(ValueError, match="no join"):
            Doctrine(trivial_triple(1), MonoPoset(vee, operator.or_, 0))
        antichain = Poset(2, (0b01, 0b10))
        with pytest.raises(ValueError, match="no least element"):
            Doctrine(trivial_triple(1), MonoPoset(antichain, operator.and_, 0))
