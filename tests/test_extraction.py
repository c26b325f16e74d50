import pytest

from doctrina.errors import ClassViolation, NonFunctorial, NotAPullback
from doctrina.finset import (
    FinFn,
    FinSet,
    surjection_triple,
    terminal,
    trivial_triple,
)
from doctrina.doctrine import (
    check_frobenius,
    powerset_doctrine,
)
from doctrina.poskit import check_mono_poset
from doctrina.doubling import PDot
from doctrina.extraction import (
    DoubleFunctorData,
    frobenius_via_Bhat,
    quantifier_from_conjoint,
    roundtrip,
    tensor_from_laxator,
    unit_from_I,
)
from doctrina.poskit import MonoPoset

from mutants import DroppedApexDoctrine, NonFunctorialDoctrine


CONST21 = FinFn(FinSet(2), FinSet(1), (0, 0))


@pytest.fixture(scope="module")
def qpow(pow2):
    return DoubleFunctorData(PDot(pow2))


@pytest.fixture(scope="module")
def qtrop(trop2):
    return DoubleFunctorData(PDot(trop2))


class TestQuantifierRecovery:
    def test_powerset_image_recovered(self, qpow, pow2):
        assert quantifier_from_conjoint(qpow, CONST21) == pow2.exists(CONST21)

    def test_identity_recovered(self, qpow):
        ident = FinFn.identity(FinSet(2))
        assert quantifier_from_conjoint(qpow, ident).table == tuple(range(4))

    def test_tropical_min_recovered(self, qtrop, trop2):
        assert quantifier_from_conjoint(qtrop, CONST21) == trop2.exists(CONST21)

    def test_recovered_quantifier_is_adjoint(self, qpow, pow2):
        # the recovered map must satisfy the adjunction against the tight
        ex = quantifier_from_conjoint(qpow, CONST21)
        sub = qpow.tight(CONST21)
        for s in range(4):
            assert s & sub.table[ex.table[s]] == s
        for t in range(2):
            assert ex.table[sub.table[t]] | t == t

    def test_class_violation(self):
        d = powerset_doctrine(surjection_triple(2))
        q = DoubleFunctorData(PDot(d))
        with pytest.raises(ClassViolation):
            quantifier_from_conjoint(q, FinFn(FinSet(1), FinSet(2), (0,)))


class TestTensorRecovery:
    def test_powerset_intersection_and_unit(self, qpow, pow2):
        a = FinSet(2)
        assert tensor_from_laxator(qpow, a) == pow2.fiber(a).tensor_map()
        assert unit_from_I(qpow, a) == 0b11

    def test_terminal_fiber(self, qpow, pow2):
        one = terminal()
        assert tensor_from_laxator(qpow, one) == pow2.fiber(one).tensor_map()

    def test_tropical_addition_and_zero(self, qtrop, trop2):
        a = FinSet(2)
        assert tensor_from_laxator(qtrop, a) == trop2.fiber(a).tensor_map()
        assert unit_from_I(qtrop, a) == 0

    def test_recovered_tensor_passes_monoid_laws(self, qpow, pow2):
        a = FinSet(2)
        recovered = MonoPoset.tabulated(
            pow2.fiber(a).carrier,
            tensor_from_laxator(qpow, a).table,
            unit_from_I(qpow, a),
        )
        assert check_mono_poset(recovered).passed


class TestFrobeniusRecipe:
    def test_powerset_constant_matches_direct(self, qpow, pow2):
        rebuilt = frobenius_via_Bhat(qpow, CONST21)
        assert rebuilt == check_frobenius(pow2, CONST21)
        assert rebuilt

    def test_identity_trivial(self, qpow):
        assert frobenius_via_Bhat(qpow, FinFn.identity(FinSet(2)))

    def test_tropical_constant(self, qtrop, trop2):
        assert frobenius_via_Bhat(qtrop, CONST21) == check_frobenius(trop2, CONST21)

    def test_needs_diagonals_in_left_class(self):
        from doctrina.finset import AdequateTriple, MorClass

        cfg = AdequateTriple(2, MorClass.surjections(), MorClass.surjections(),
                             nonempty_only=True)
        d = powerset_doctrine(cfg)
        q = DoubleFunctorData(PDot(d))
        with pytest.raises(NotAPullback):
            frobenius_via_Bhat(q, CONST21)


class TestRoundTrip:
    def test_powerset(self, pow2):
        rep = roundtrip(pow2, 2)
        assert rep.passed
        clauses = {c.clause for c in rep.clauses}
        assert {"roundtrip.fibers", "roundtrip.subst", "roundtrip.exists",
                "roundtrip.factorisation", "roundtrip.frobenius"} <= clauses

    def test_tropical(self, trop2):
        assert roundtrip(trop2, 2).passed

    def test_surjection_triple(self):
        assert roundtrip(powerset_doctrine(surjection_triple(2)), 2).passed

    def test_perturbed_subst_refused_at_construction(self, triple2):
        with pytest.raises(NonFunctorial):
            roundtrip(NonFunctorialDoctrine(triple2), 2)

    def test_subst_recovered_through_companion_span(self):
        # the mutant's span action drops an apex element only on 3-element
        # apexes, so companion spans over 3-element sets stop acting as
        # substitution while substitution itself stays intact
        rep = roundtrip(DroppedApexDoctrine(trivial_triple(3)), 3)
        sub = rep.find("roundtrip.subst")
        assert not sub.passed
        assert sub.witnesses[0].startswith("f=FinFn(3->")

    def test_refused_identity_is_a_failed_instance(self):
        # on a triple whose right class lacks the empty identity, the CLI
        # stops at adequacy; the round trip itself still reports the
        # companion span it could not act by as a failure, with the reason
        from doctrina.finset import AdequateTriple, MorClass

        cfg = AdequateTriple(1, MorClass.all(), MorClass.explicit([FinFn.identity(FinSet(1))]))
        sub = roundtrip(powerset_doctrine(cfg), 1).find("roundtrip.subst")
        assert sub.witnesses[0] == (
            "f=FinFn(0->0:[]): no quantifier along FinFn(0->0:[]): not in R"
        )
