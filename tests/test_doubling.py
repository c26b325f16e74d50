import collections
import hashlib
import subprocess
import sys
from functools import lru_cache, partial
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from doctrina.errors import ClassViolation, NonFunctorial, ObjMismatch, ShapeMismatch
from doctrina.finset import (
    AdequateTriple,
    FinFn,
    FinSet,
    MorClass,
    Universe,
    bang,
    compose,
    injection_right_triple,
    matching,
    surjection_triple,
    swap_fn,
    terminal,
    trivial_triple,
)
from doctrina.poskit import (
    MonotoneMap,
    bottom_element,
    chain,
    iso_maps,
    join_table,
    leq_maps,
    map_product,
    min_plus,
    monotone_map,
    power_poset,
    trop_index,
    trop_values,
)
from doctrina import doctrine
from doctrina.doctrine import (
    beck_chevalley_squares,
    check_beck_chevalley,
    check_doctrine,
    external_laxator,
    external_unit,
    generated_pullbacks,
    is_clr_pullback,
    powerset_doctrine,
    proof_squares,
    tropical_doctrine,
)
from doctrina import doubling
from doctrina.doubling import (
    LAX_COMP_STRIDE,
    LaxCompositional,
    PDot,
    QtCell,
    verify_pdot,
)
from doctrina.extraction import roundtrip
from doctrina.report import Report
from doctrina.spancat import Span, SpanCategory, SpanCell

import mutants
from mutants import (
    BrokenTensorDoctrine,
    DroppedApexDoctrine,
    NonFunctorialDoctrine,
    PairApexDoctrine,
    SaturatedProjectionDoctrine,
    SkippedApexDoctrine,
    SwappedAdjointDoctrine,
)
from offdomain import search_offdomain_witness
from spans import brute_pullback, cospan, product_span, pullback_composite


CONST21 = FinFn(FinSet(2), FinSet(1), (0, 0))


def _qt_cell(top, bottom, left, right) -> QtCell:
    """The reference verdict of a square given as maps: its sides checked
    and its two composites compared by the decider ``PDot._verdict``
    calls, with no memo and no ids."""
    doubling._check_sides(top.dom, top.cod, bottom, left, right)
    rt = right.table
    verdict = doubling._decide(bottom, left, [rt[v] for v in top.table])
    return QtCell(top, bottom, left, right, verdict > 0, verdict > 1)

# first witnesses of DroppedApexDoctrine at bound 2, pinned because
# witnesses are formatted only on failure, apart from the checks
DROPPED_ASSOC_WITNESS = (
    "Span(FinFn(2->2:[0, 1]), FinFn(2->1:[0, 0])) ; "
    "Span(FinFn(2->1:[0, 0]), FinFn(2->2:[0, 1])) ; "
    "Span(FinFn(2->2:[1, 0]), FinFn(2->2:[0, 1])): at 2: 2 vs 1"
)
DROPPED_LAX_COMP_WITNESS = (
    "Span(FinFn(1->1:[0]), FinFn(1->2:[0]));"
    "Span(FinFn(2->2:[0, 0]), FinFn(2->2:[1, 0])) with "
    "Span(FinFn(2->2:[0, 1]), FinFn(2->2:[0, 1]));"
    "Span(FinFn(2->2:[1, 0]), FinFn(2->1:[0, 0]))"
)
SKIPPED_LAX_COMP_WITNESS = (
    "Span(FinFn(1->1:[0]), FinFn(1->1:[0]));"
    "Span(FinFn(2->1:[0, 0]), FinFn(2->2:[0, 1])) with "
    "Span(FinFn(2->1:[0, 0]), FinFn(2->2:[1, 0]));"
    "Span(FinFn(2->2:[0, 1]), FinFn(2->2:[0, 1]))"
)
PAIR_LAX_COMP_WITNESS = (
    "Span(FinFn(1->1:[0]), FinFn(1->2:[0]));"
    "Span(FinFn(1->2:[0]), FinFn(1->2:[1])) with "
    "Span(FinFn(2->1:[0, 0]), FinFn(2->2:[0, 1]));"
    "Span(FinFn(2->2:[1, 0]), FinFn(2->2:[0, 1]))"
)
SATURATED_BC_WITNESS = (
    "square PullbackSquare(top=FinFn(2->4:[0, 1]), left=FinFn(2->1:[0, 0]), "
    "right=FinFn(4->2:[0, 0, 1, 1]), bottom=FinFn(1->2:[0]))"
)
PAIR_APEX_CELL_WITNESS = (
    "SpanCell(src=Span(FinFn(1->1:[0]), FinFn(1->1:[0])), "
    "dst=Span(FinFn(2->1:[0, 0]), FinFn(2->2:[0, 1])), "
    "tight_left=FinFn(1->1:[0]), tight_right=FinFn(1->2:[0]), "
    "apex_map=FinFn(1->2:[0])): at 1: 1 vs 0"
)
# sha256 of the tropical (cap 2) report at bound 2
TROPICAL_REPORT_SHA256 = (
    "2b7d803689e6f9dd301485100d4f9a7faf4697a830c7052f8d1fba3f8280667e"
)


@pytest.fixture(scope="module")
def ppow(pow2):
    return PDot(pow2)


@pytest.fixture(scope="module")
def ptrop(trop2):
    return PDot(trop2)


@pytest.fixture(scope="module")
def dropped_apex_report(triple2):
    return verify_pdot(PDot(DroppedApexDoctrine(triple2)), 2)


class TestLooseImage:
    def test_identity_span(self, ppow):
        a = FinSet(2)
        img = ppow.loose_image(Span.identity(a))
        assert img.table == tuple(range(4))

    def test_support_collapse_powerset(self, ppow):
        # span 2 <-id- 2 -!-> 1 sends S to {0} unless S is empty
        span = Span(FinFn.identity(FinSet(2)), bang(FinSet(2)))
        img = ppow.loose_image(span)
        assert img.table == (0, 1, 1, 1)

    def test_broadcast_tropical(self, ptrop):
        # span 1 <-!- 2 -id-> 2 duplicates a cost along the diagonal
        span = Span(bang(FinSet(2)), FinFn.identity(FinSet(2)))
        img = ptrop.loose_image(span)
        c = trop_index((2,), 2)
        assert trop_values(img.table[c], 2, 2) == (2, 2)


class TestCellImage:
    def test_identity_cell_invertible(self, ppow):
        span = Span(FinFn.identity(FinSet(2)), bang(FinSet(2)))
        qt = ppow.cell_image(SpanCell.loose_identity(span))
        assert qt.invertible

    def test_quantifier_unit_and_counit(self, ppow, pow2):
        cat = ppow.cat
        data = cat.conjoint_of(CONST21)
        unit = ppow.cell_image(data.unit)
        counit = ppow.cell_image(data.counit)
        assert unit.holds and counit.holds
        # the unit direction is strict somewhere: preimage of image grows
        assert not unit.invertible
        # both composites recover the adjunction inequalities
        sub, ex = pow2.subst(CONST21), pow2.exists(CONST21)
        for s in range(4):
            assert s & sub.table[ex.table[s]] == s

    def test_tropical_cell_judgement_shape(self, ptrop):
        data = ptrop.cat.conjoint_of(CONST21)
        unit = ptrop.cell_image(data.unit)
        assert unit.holds and not unit.invertible


class TestCompositor:
    def test_identity_composite(self, ppow):
        span = Span(FinFn.identity(FinSet(2)), bang(FinSet(2)))
        qt = ppow.compositor(span, Span.identity(FinSet(1)))
        assert qt.invertible

    def test_companion_then_conjoint_powerset(self, ppow):
        cat = ppow.cat
        comp = cat.companion_of(CONST21).span
        conj = cat.conjoint_of(CONST21).span
        assert ppow.compositor(comp, conj).invertible

    def test_small_pair_tropical(self, ptrop):
        cat = ptrop.cat
        comp = cat.companion_of(CONST21).span
        conj = cat.conjoint_of(CONST21).span
        assert ptrop.compositor(comp, conj).invertible

    def test_cached_composite_is_loose_compose(self):
        # ``PDot`` composes and multiplies spans on their leg tables: each
        # composite and product id must be the span that ``loose_compose``
        # and the references from ``finset.pullback`` and
        # ``finset.fn_product`` build, on every pinned triple
        composable = {}
        for name, make in PINNED_TRIPLES.items():
            triple = make(2)
            pdot = PDot(powerset_doctrine(triple))
            spans = list(pdot.cat.enumerate_spans(2))
            pairs = [(x, y) for x in spans for y in spans if x.target == y.source]
            composable[name] = len(pairs)
            for x, y in pairs:
                xy = pdot.composite(x, y)
                assert xy == pdot.cat.loose_compose(x, y) == pullback_composite(triple, x, y)
                assert pdot.composite(x, y) is xy
            ids = [pdot.span_id(x) for x in spans]
            for x, i in zip(spans, ids):
                for y, j in zip(spans, ids):
                    assert pdot.span(pdot._product_id(i, j)) == product_span(x, y)
        assert composable == {"all-all": 971, "surj-right": 172, "inj-right": 380, "inj-left": 380}

    def test_composite_refusals_are_loose_compose_refusals(self):
        # a right class of identities and maps onto one point is not
        # closed under pullback, so composites escape it; the table path
        # refuses each with the exception and message of the reference,
        # as it refuses spans whose middle objects differ
        maps = Universe(trivial_triple(2), 2).maps
        right = MorClass.explicit(f for f in maps if f.is_identity or f.cod.size == 1)
        triple = AdequateTriple(2, MorClass.all(), right)
        pdot = PDot(powerset_doctrine(triple))
        spans = list(pdot.cat.enumerate_spans(2))

        def outcome(compose, x, y):
            try:
                return compose(x, y)
            except (ClassViolation, ObjMismatch) as e:
                return type(e), str(e)

        seen = collections.Counter()
        for x in spans:
            for y in spans:
                want = outcome(partial(pullback_composite, triple), x, y)
                assert outcome(pdot.composite, x, y) == want
                assert outcome(pdot.cat.loose_compose, x, y) == want
                seen[want[0] if type(want) is tuple else Span] += 1
        assert seen == {Span: 108, ClassViolation: 13, ObjMismatch: 240}

    def test_functorial_on_all_pairs(self, ppow):
        spans = list(ppow.cat.enumerate_spans(2))
        by_source = {}
        for s in spans:
            by_source.setdefault(s.source, []).append(s)
        for x in spans:
            for y in by_source.get(x.target, []):
                lhs = ppow.loose_image(ppow.cat.loose_compose(x, y))
                rhs = ppow.loose_image(x).then(ppow.loose_image(y))
                assert lhs == rhs


class TestUnitorAndUnits:
    def test_unitor_sizes(self, ppow):
        for n in (1, 2, 3):
            assert ppow.unitor(FinSet(n)).invertible

    # the unit square, the identity of P(1) over the external unit on
    # both sides, commutes exactly when L(id_1) fixes the unit; the
    # unitor at A = 1 makes L(id_1) the identity, so it needs no clause
    def test_external_unit_powerset_full_point(self, ppow):
        assert external_unit(ppow.d) == 1
        assert ppow.loose_image(Span.identity(terminal())).table[1] == 1

    def test_external_unit_tropical_zero(self, ptrop):
        assert external_unit(ptrop.d) == 0
        assert ptrop.loose_image(Span.identity(terminal())).table[0] == 0


class TestLaxator:
    def test_identity_spans(self, ppow):
        qt = ppow.laxator_cell(Span.identity(FinSet(2)), Span.identity(FinSet(2)))
        assert qt.invertible

    def test_collapse_pair_is_frobenius_shadow(self, ppow):
        span = Span(FinFn.identity(FinSet(2)), bang(FinSet(2)))
        qt = ppow.laxator_cell(span, span)
        assert qt.invertible
        # product of images equals image of the product cylinder
        big = product_span(span, span)
        mu = qt.left
        for s in range(4):
            for t in range(4):
                joint = mu.table[s * 4 + t]
                lhs = ppow.loose_image(big).table[joint]
                img = ppow.loose_image(span).table
                assert lhs == qt.right.table[img[s] * 2 + img[t]]

    def test_tropical_collapse_pair(self):
        d = tropical_doctrine(trivial_triple(2), 3)
        p = PDot(d)
        span = Span(FinFn.identity(FinSet(2)), bang(FinSet(2)))
        assert p.laxator_cell(span, span).invertible

    def test_proof_squares_are_designated(self, pow2, ppow):
        span = Span(FinFn.identity(FinSet(2)), bang(FinSet(2)))
        other = Span(bang(FinSet(2)), FinFn.identity(FinSet(2)))
        for sq in proof_squares(span.right, other.right):
            assert check_beck_chevalley(pow2, sq)

    def test_symmetry_cells(self, ppow):
        x = Span(FinFn.identity(FinSet(2)), bang(FinSet(2)))
        y = Span.identity(FinSet(1))
        assert ppow.symmetry_cell(x, y).invertible
        assert ppow.symmetry_cell(x, x).invertible


class TestVerifySuite:
    def test_powerset_all_clauses(self, ppow):
        rep = verify_pdot(ppow, 2)
        assert rep.passed
        names = {c.clause for c in rep.clauses}
        assert "pdot.compositor" in names
        assert "pdot.laxator-commuter" in names

    def test_tropical_all_clauses(self, ptrop):
        rep = verify_pdot(ptrop, 2)
        assert rep.passed
        digest = hashlib.sha256(rep.to_jsonl().encode()).hexdigest()
        assert digest == TROPICAL_REPORT_SHA256

    def test_broken_tensor_caught_in_laxator_clause(self, triple2):
        bad = PDot(BrokenTensorDoctrine(triple2))
        rep = verify_pdot(bad, 2)
        lax = rep.find("pdot.laxator-commuter")
        assert not lax.passed
        assert lax.witnesses

    def test_broken_tensor_direct_commuter_failure(self, triple2):
        bad = PDot(BrokenTensorDoctrine(triple2))
        # a non-surjective right leg: the constant-unit tensor makes the
        # joint predicate full, whose image is then a strict subset
        span = Span(FinFn.identity(FinSet(1)), FinFn(FinSet(1), FinSet(2), (0,)))
        assert bad.laxator_domain(span, span)
        assert not bad.laxator_cell(span, span).invertible

    def test_dropped_apex_fails_compositor(self, dropped_apex_report):
        # only loose composites and product spans reach a 3-element apex
        comp = dropped_apex_report.find("pdot.compositor")
        assert not comp.passed
        assert " ; " in comp.witnesses[0] and ": at " in comp.witnesses[0]

    def test_dropped_apex_pasting_witnesses(self, dropped_apex_report):
        assoc = dropped_apex_report.find("pdot.double-assoc")
        lax = dropped_apex_report.find("pdot.laxator-compositional")
        assert (assoc.instances, assoc.failures) == (22739, 12)
        assert (lax.instances, lax.failures) == (24550, 190)
        assert assoc.witnesses[0] == DROPPED_ASSOC_WITNESS
        assert lax.witnesses[0] == DROPPED_LAX_COMP_WITNESS

    @pytest.mark.parametrize("mutant, failures, witness", [
        (SkippedApexDoctrine, 384, SKIPPED_LAX_COMP_WITNESS),
        (PairApexDoctrine, 120, PAIR_LAX_COMP_WITNESS),
    ])
    def test_apex_mutants_fail_lax_comp(self, triple2, mutant, failures, witness):
        lax = verify_pdot(PDot(mutant(triple2)), 2).find("pdot.laxator-compositional")
        assert (lax.instances, lax.failures) == (24550, failures)
        assert lax.witnesses[0] == witness

    def test_skipped_apex_fails_symmetry(self, triple2, dropped_apex_report):
        # the dropped apex element (last, last) is fixed by the swap, so
        # only a mutant that breaks an unfixed element fails the axiom
        sym = verify_pdot(PDot(SkippedApexDoctrine(triple2)), 2).find(
            "pdot.symmetry-cell"
        )
        assert (sym.instances, sym.failures) == (1849, 256)
        assert " , " in sym.witnesses[0] and ": at " in sym.witnesses[0]
        assert dropped_apex_report.find("pdot.symmetry-cell").passed

    def test_saturated_projection_fails_bc_squares(self, triple2):
        # the saturated quantifier is read only by proof squares, none of
        # them generated, so doctrine.beck-chevalley is the one clause
        # that fails, and the double extension passes every pdot.* clause
        d = SaturatedProjectionDoctrine(triple2)
        rep = check_doctrine(d, 2)
        bc = rep.find("doctrine.beck-chevalley")
        assert (bc.instances, bc.failures) == (122, 4)
        assert bc.witnesses[0] == SATURATED_BC_WITNESS
        assert len(set(bc.witnesses)) == 4
        assert [c.clause for c in rep.clauses if not c.passed] == [
            "doctrine.beck-chevalley"
        ]
        assert verify_pdot(PDot(d), 2).passed

    def test_pair_apex_fails_cell_existence(self, triple2):
        # a cell's witness is built from its bare data only on failure,
        # with the first apex map seen for its boundary
        rep = verify_pdot(PDot(PairApexDoctrine(triple2)), 2)
        cells = rep.find("pdot.cell-existence")
        assert (cells.instances, cells.failures) == (4943, 1256)
        assert cells.witnesses[0] == PAIR_APEX_CELL_WITNESS
        assert cells.notes == ["distinct boundaries: 4943"]

    def test_nonfunctorial_subst_refused(self, triple2):
        with pytest.raises(NonFunctorial):
            PDot(NonFunctorialDoctrine(triple2))


def _old_lax_comp_walk(composable):
    """The sampling rule as a filter over the row-major walk of every pair
    of composable pairs: every 53rd pair from the first, plus every
    identity-by-identity pair."""
    seen = 0
    for r, (a, a2) in enumerate(composable):
        ids_left = a.is_identity or a2.is_identity
        for c, (x, x2) in enumerate(composable):
            seen += 1
            if (ids_left and (x.is_identity or x2.is_identity)) or seen % 53 == 1:
                yield r, c


def lax_comp_sample(composable):
    """The ``(row, column)`` index pairs into ``composable`` that
    ``pdot.laxator-compositional`` samples, row-major: every
    ``LAX_COMP_STRIDE``-th pair of the row-major walk starting with the
    first, and every pair whose row and column both hold an identity.
    The oracle of ``LaxCompositional.sample``, which walks only the
    pairs that can fail."""
    n = len(composable)
    ids = [a.is_identity or b.is_identity for a, b in composable]
    id_cols = [c for c, flag in enumerate(ids) if flag]
    for r in range(n):
        cols = range((-r * n) % LAX_COMP_STRIDE, n, LAX_COMP_STRIDE)
        if ids[r]:
            cols = sorted(set(cols).union(id_cols))
        for c in cols:
            yield r, c


@pytest.mark.parametrize("triple, bound", [
    (trivial_triple(1), 1), (trivial_triple(2), 2), (surjection_triple(2), 2),
], ids=["all-all-1", "all-all-2", "surj-right-2"])
def test_lax_comp_sample_matches_walk(triple, bound):
    spans = list(SpanCategory(triple).enumerate_spans(bound))
    composable = [(x, y) for x in spans for y in spans if x.target == y.source]
    assert list(lax_comp_sample(composable)) == list(_old_lax_comp_walk(composable))


def test_loose_compose_on_lax_comp_left_sides(triple2):
    # the product-span composites on the left of
    # pdot.laxator-compositional, through the reference pullbacks
    cat = SpanCategory(triple2)
    spans = list(cat.enumerate_spans(2))
    composable = [(x, y) for x in spans for y in spans if x.target == y.source]
    checked = 0
    for r, c in lax_comp_sample(composable):
        (a, a2), (x, x2) = composable[r], composable[c]
        u, v = product_span(a, x), product_span(a2, x2)
        _, p, q = brute_pullback(u.right, v.left)
        assert cat.loose_compose(u, v) == Span(
            compose(p, u.left), compose(q, v.right)
        )
        checked += 1
    assert checked == 24550


def _composable(cat, bound):
    spans = list(cat.enumerate_spans(bound))
    return [(x, y) for x in spans for y in spans if x.target == y.source]


def _lax_comp_keys(cat, composable, pairs):
    """The key rule of ``pdot.laxator-compositional`` over the instances
    ``pairs``: each left side (a ⊗ x) ; (a2 ⊗ x2) is the product of the
    composites reindexed along σ, and equals the left side of the first
    instance with its key (a ; a2, x ; x2, σ).  Returns the keys."""
    first: dict[tuple, Span] = {}
    for r, c in pairs:
        (a, a2), (x, x2) = composable[r], composable[c]
        lhs = cat.loose_compose(product_span(a, x), product_span(a2, x2))
        ac, xc = cat.loose_compose(a, a2), cat.loose_compose(x, x2)
        sigma = cat.interchange(cospan(a.right, a2.left), cospan(x.right, x2.left))
        rhs = product_span(ac, xc)
        assert lhs == Span(compose(sigma, rhs.left), compose(sigma, rhs.right))
        assert lhs == first.setdefault((ac, xc, sigma), lhs)
    return first


@pytest.mark.parametrize("triple, bound, walk, keys", [
    (trivial_triple(2), 2, "sample", 4242),
    (surjection_triple(2), 2, "sample", 627),
    (trivial_triple(1), 1, "all", 25),
], ids=["all-all-2", "surj-right-2", "all-all-1-every-pair"])
def test_lax_comp_key_rule(triple, bound, walk, keys):
    # instances with one key have one left side, so verify_pdot may build
    # it once and reuse the verdict
    cat = SpanCategory(triple)
    composable = _composable(cat, bound)
    n = len(composable)
    if walk == "sample":
        pairs = list(lax_comp_sample(composable))
    else:
        pairs = [(r, c) for r in range(n) for c in range(n)]
    assert len(_lax_comp_keys(cat, composable, pairs)) == keys


def _calls_per_clause(monkeypatch, cls, name, run, counted=lambda *args: True):
    """Count the calls of ``cls.name`` for which ``counted`` holds of the
    arguments, made while each clause is the one opened last, during
    ``run()``."""
    counts = collections.Counter()
    opened = [None]
    clause, method = Report.clause, getattr(cls, name)

    def opening(self, clause_id, law):
        opened[0] = clause_id
        return clause(self, clause_id, law)

    def counting(*args):
        counts[opened[0]] += counted(*args)
        return method(*args)

    monkeypatch.setattr(Report, "clause", opening)
    monkeypatch.setattr(cls, name, counting)
    return run(), counts


class TestLeftSidesBuiltOnce:
    def test_each_key_builds_its_left_side_once(self, monkeypatch):
        # the clause builds no loose composite and no FinFn or Span: a
        # key's left side is its right side's span key with both leg
        # tables reindexed along σ by tuple indexing, looked up once per
        # key; a key whose σ is the identity has the right side's span for
        # its left side and looks up nothing.  Composing each left side
        # from product spans made 4,242 loose composites, one per key, and
        # building each left side as a Span made 2,852 legs and 1,426 spans
        def run():
            return verify_pdot(PDot(powerset_doctrine(trivial_triple(2))), 2)

        _, composed = _calls_per_clause(monkeypatch, SpanCategory, "loose_compose", run)
        # the keys of composites and product spans by id, kept alive so
        # that their ids stay theirs; any other key the clause looks up is
        # a left side
        made = {}
        product_key, compose_keys = doubling.product_key, SpanCategory.compose_keys

        def product(*args):
            key = product_key(*args)
            made[id(key)] = key
            return key

        def composite(self, *args):
            key = compose_keys(self, *args)
            made[id(key)] = key
            return key

        monkeypatch.setattr(doubling, "product_key", product)
        monkeypatch.setattr(SpanCategory, "compose_keys", composite)
        _, legs = _calls_per_clause(monkeypatch, doubling, "FinFn", run)
        rep, sides = _calls_per_clause(
            monkeypatch, PDot, "_key_id", run, lambda self, key: id(key) not in made
        )
        assert rep.find("pdot.laxator-compositional").instances == 24550
        assert "pdot.laxator-compositional" not in composed
        # the keys of the sample, as test_lax_comp_key_rule counts them,
        # by whether their σ is the identity
        pdot = PDot(powerset_doctrine(trivial_triple(2)))
        span = pdot.span
        spans = pdot.universe(2)
        composable = [(i, j) for i in spans for j in spans if span(i).target == span(j).source]
        sigma = lru_cache(maxsize=None)(pdot.cat.interchange)
        keys = set()
        for r, c in lax_comp_sample([(span(i), span(j)) for i, j in composable]):
            (a, a2), (x, x2) = composable[r], composable[c]
            keys.add((
                pdot._composite_id(a, a2), pdot._composite_id(x, x2),
                sigma(
                    cospan(span(a).right, span(a2).left), cospan(span(x).right, span(x2).left)
                ),
            ))
        moved = sum(not s.is_identity for _, _, s in keys)
        assert (len(keys), moved) == (4242, 1426)
        assert sides["pdot.laxator-compositional"] == moved
        assert legs == {}


class TestSquaresDecidedOnce:
    # a loose image is interned by value and a square is keyed on the ids
    # of its sides, so each distinct square is decided once; every
    # instance is still counted
    def test_distinct_loose_images(self, ppow):
        spans = list(ppow.cat.enumerate_spans(2))
        assert len(spans) == 43
        images = [ppow.loose_image(s) for s in spans]
        assert len(set(images)) == len({id(m) for m in images}) == 26

    def test_each_distinct_square_decided_once(self, monkeypatch):
        # counted at ``_decide``, which ``PDot._verdict`` calls for a
        # square of either kind of top
        pdot = PDot(powerset_doctrine(trivial_triple(2)))
        rep, decided = _calls_per_clause(
            monkeypatch, doubling, "_decide", lambda: verify_pdot(pdot, 2)
        )
        instances = {c.clause: c.instances for c in rep.clauses}
        assert [instances[c] for c in (
            "pdot.compositor", "pdot.cell-existence", "pdot.laxator-cell",
            "pdot.laxator-unital", "pdot.symmetry-cell",
        )] == [971, 4943, 1849, 9, 1849]
        # the laxator squares are decided with pdot.laxator-commuter the
        # clause opened last; the nine squares of pdot.laxator-unital are
        # laxator squares already decided, and 26 symmetry squares are
        # squares of pdot.cell-existence.  The unitor and the compositor
        # compare interned maps: L(x) ; L(y) is interned once per pair of
        # image ids
        assert decided == {
            "pdot.cell-existence": 1639,
            "pdot.laxator-commuter": 676,
            "pdot.symmetry-cell": 202,
        }
        assert len(pdot._then) == 314


SUITES = {
    "check_doctrine": lambda d: check_doctrine(d, 2),
    "verify_pdot": lambda d: verify_pdot(PDot(d), 2),
    "roundtrip": lambda d: roundtrip(d, 2),
}


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("mutant", [BrokenTensorDoctrine, SwappedAdjointDoctrine])
def test_broken_doctrines_get_reports(mutant, suite, triple2):
    rep = SUITES[suite](mutant(triple2))
    assert isinstance(rep, Report)
    if mutant is SwappedAdjointDoctrine and suite == "verify_pdot":
        # the wrong adjoint still makes a strict, coherent double extension
        assert rep.passed
    else:
        assert not rep.passed


class TestOffDomainSearch:
    def test_trivial_triple_has_no_off_domain_pairs(self, ppow):
        assert search_offdomain_witness(ppow, 2) is None

    def test_injective_left_configuration_recorded(self):
        cfg = AdequateTriple(2, MorClass.injections(), MorClass.all())
        for d in (powerset_doctrine(cfg), tropical_doctrine(cfg, 2)):
            witness = search_offdomain_witness(PDot(d), 2)
            # the stock fibers satisfy the commuter equality everywhere,
            # so the search comes back empty and that is the recorded fact
            assert witness is None

    @pytest.mark.parametrize("mutant, at", [
        (DroppedApexDoctrine, "(2, 2)"),
        (SkippedApexDoctrine, "(1, 2)"),
        (PairApexDoctrine, "(1, 1)"),
    ])
    def test_broken_span_action_yields_witness(self, mutant, at):
        # a span action that drops an apex element breaks the commuter
        # off the guaranteed domain: x = (2 <- 2 -> 1), identity left leg
        cfg = AdequateTriple(2, MorClass.injections(), MorClass.all())
        x = "Span(FinFn(2->2:[0, 1]), FinFn(2->1:[0, 0]))"
        assert search_offdomain_witness(PDot(mutant(cfg)), 2) == f"{x} , {x} at {at}"

    def test_broken_tensor_yields_witness(self):
        # the search reads the doctrine's own laxator, so a broken fiber
        # tensor shows although evaluation's ``pair_predicate`` is sound
        cfg = AdequateTriple(2, MorClass.injections(), MorClass.all())
        assert search_offdomain_witness(PDot(BrokenTensorDoctrine(cfg)), 2) == (
            "Span(FinFn(0->0:[]), FinFn(0->1:[])) , "
            "Span(FinFn(2->2:[0, 1]), FinFn(2->1:[0, 0])) at (0, 0)"
        )

    def test_search_span_tables_go_with_the_doctrine(self, monkeypatch):
        # the search's span tables are its doctrine's, so they go with
        # it: a second doctrine builds every table again
        cfg = AdequateTriple(2, MorClass.injections(), MorClass.all())
        built = collections.Counter()
        span_table = doctrine.span_table

        def counting(order, n, fibres):
            built[n, fibres] += 1
            return span_table(order, n, fibres)

        def fibres(key):
            # a key is (source size, target size, set of (j, i) pairs);
            # span_table gets the source size and the fibre of each j
            n, k, relation = key
            return n, tuple(tuple(sorted(i for j2, i in relation if j2 == j)) for j in range(k))

        monkeypatch.setattr(doctrine, "span_table", counting)
        for rounds in (1, 2):
            d = powerset_doctrine(cfg)
            assert search_offdomain_witness(PDot(d), 2) is None
            assert sorted(map(fibres, d._tables)) == sorted(built)
            assert set(built.values()) == {rounds}

    def test_surjection_triple_always_on_domain(self):
        d = powerset_doctrine(surjection_triple(2))
        p = PDot(d)
        spans = list(p.cat.enumerate_spans(2))
        assert all(
            p.laxator_domain(x, y) for x in spans for y in spans
        )


# the stock doctrines and every mutant of ``mutants.doctrines()``
SEARCH_DOCTRINES = {
    "powerset": powerset_doctrine,
    "tropical": partial(tropical_doctrine, cap=2),
    **mutants.doctrines(),
}


@pytest.mark.parametrize("name", list(SEARCH_DOCTRINES))
def test_search_agrees_with_verify_pdot(name):
    # the search and ``pdot.laxator-commuter`` check one square over the
    # same span order, so they find the same first off-domain pair
    cfg = AdequateTriple(2, MorClass.injections(), MorClass.all())
    try:
        pdot = PDot(SEARCH_DOCTRINES[name](cfg))
    except NonFunctorial as e:
        pytest.skip(f"{name} has no double extension on this triple: {e}")
    lax = verify_pdot(pdot, 2).find("pdot.laxator-commuter")
    strict = int(lax.notes[-1].rsplit(": ", 1)[1])
    witness = search_offdomain_witness(pdot, 2)
    if strict == 0:
        assert witness is None
    else:
        first = lax.notes[0].removeprefix("off-domain strict inequality: ")
        assert witness is not None and witness.rsplit(" at ", 1)[0] == first


@pytest.mark.parametrize("triple", [
    trivial_triple, surjection_triple, injection_right_triple,
], ids=["all-all", "surj-right", "inj-right"])
def test_laxator_verdicts_match_composed_sides(triple):
    # ``PDot._verdict`` decides a laxator square on the factor tables of
    # its top L(x) × L(y); ``_qt_cell`` on the sides ``_sides`` builds,
    # the product map included.  Every distinct laxator square of every
    # doctrine with a double extension gets one verdict from both; the
    # apex mutants fail some, so the comparison covers all three verdicts
    seen = collections.Counter()
    refused = []
    stock = {"powerset": powerset_doctrine, "tropical": tropical_doctrine}
    for name, make in {**stock, **mutants.doctrines()}.items():
        try:
            pdot = PDot(make(triple(2)))
        except NonFunctorial:
            refused.append(name)
            continue
        spans = pdot.universe(2)
        for sq in dict.fromkeys(pdot._laxator_square(i, j) for i in spans for j in spans):
            verdict = pdot._verdict(sq)
            qt = _qt_cell(*pdot._sides(sq))
            assert verdict == qt.holds + qt.invertible, (name, sq)
            seen[verdict] += 1
    assert refused == ["NonFunctorialDoctrine"]
    assert set(seen) == {0, 1, 2}


def test_tropical_subclass_legs_are_the_span_action():
    # the span action is computed from the relation its ``_legs`` trace,
    # so a subclass that drops an apex element there has that action
    # checked, over min-plus as over the 2-chain
    rep = verify_pdot(PDot(DroppedApexDoctrine(trivial_triple(2), min_plus(1))), 2)
    comp = rep.find("pdot.compositor")
    assert comp.failures == 12
    assert comp.witnesses[0] == (
        "Span(FinFn(2->2:[0, 1]), FinFn(2->1:[0, 0])) ; "
        "Span(FinFn(2->1:[0, 0]), FinFn(2->2:[0, 1])): at 1: 0 vs 3"
    )
    assert verify_pdot(PDot(tropical_doctrine(trivial_triple(2), 1)), 2).passed


# the apex reach of the suites: (failures, instances) of every clause of
# check_doctrine, verify_pdot and roundtrip that fails at bound 2 on
# all-all, for DroppedApexDoctrine with each threshold.  Bound 2 acts on
# apexes of 0, 1, 2, 4, 8 and 16 elements, so a threshold of 5 to 8 is
# caught only by pdot.laxator-compositional's stride sample, and one of 9
# or more by nothing.  This records a limit: it moves, with its reason,
# when a clause reaches a larger apex (an exhaustive laxator walk, or a
# larger bound on some clause)
APEX_REACH = {
    3: {
        "pdot.compositor": (12, 971),
        "pdot.double-assoc": (12, 22739),
        "pdot.laxator-commuter": (256, 1849),
        "pdot.laxator-unital": (1, 9),
        "pdot.laxator-compositional": (190, 24550),
        "roundtrip.frobenius": (4, 11),
    },
    5: {"pdot.laxator-compositional": (6, 24550)},
    9: {},
}


@pytest.mark.parametrize("reach", sorted(APEX_REACH))
def test_dropped_apex_reach(reach, triple2):
    reports = [run(DroppedApexDoctrine(triple2, reach=reach)) for run in SUITES.values()]
    failed = {
        c.clause: (c.failures, c.instances) for rep in reports for c in rep.clauses if not c.passed
    }
    assert failed == APEX_REACH[reach]


# failures of pdot.laxator-compositional on surj-right at bound 2; 0 for
# every doctrine not named
SURJ_LAX_COMP_FAILURES = {
    "DroppedApexDoctrine": 65,
    "DroppedApexTropicalDoctrine": 65,
    "PairApexDoctrine": 5,
    "SkippedApexDoctrine": 140,
}


REFERENCE_TRIPLES = {
    "all-all": trivial_triple,
    "surj-right": surjection_triple,
    "inj-right": injection_right_triple,
}


@lru_cache(maxsize=None)
def _instances(triple):
    """The span data of every instance the pasting clauses check on
    ``REFERENCE_TRIPLES[triple]`` at bound 2, each loose composite made
    with ``loose_compose`` for that instance alone.  None of it depends on
    the doctrine, so it is built once per triple; equal spans are kept
    once."""
    cat = SpanCategory(REFERENCE_TRIPLES[triple](2))
    canon = {}

    def comp(x, y):
        s = cat.loose_compose(x, y)
        return canon.setdefault(s, s)

    spans = list(cat.enumerate_spans(2))
    composable = _composable(cat, 2)
    cells = {}
    for c in cat.enumerate_cell_data(2):
        cells.setdefault(c[:4], c)
    return SimpleNamespace(
        spans=spans,
        objs=Universe(cat.triple, 2).objects,
        composable=[(x, y, comp(x, y)) for x, y in composable],
        assoc=[
            (x, y, z, comp(comp(x, y), z), comp(x, comp(y, z)))
            for x, y in composable for z in spans if y.target == z.source
        ],
        cells=list(cells.values()),
        lax_comp=[
            (a, a2, x, x2,
             comp(product_span(a, x), product_span(a2, x2)),
             product_span(comp(a, a2), comp(x, x2)))
            for (a, a2), (x, x2) in (
                (composable[r], composable[c]) for r, c in lax_comp_sample(composable)
            )
        ],
        lax_comp_total=len(composable) ** 2,
    )


# the reference triples and injections on the left, where the laxator
# has off-domain pairs
PINNED_TRIPLES = {
    **REFERENCE_TRIPLES,
    "inj-left": lambda n: AdequateTriple(n, MorClass.injections(), MorClass.all()),
}

# sha256 of ``verify_pdot(PDot(d), 2).to_jsonl()`` for the stock
# doctrines and every mutant on each pinned triple: every count, witness
# and note of every clause, whatever order span ids are given in and
# however passes are counted.  NonFunctorialDoctrine has no double
# extension, so PDot refuses it
VERIFY_PDOT_SHA256 = {
    ("powerset", "all-all"):
        "2b7d803689e6f9dd301485100d4f9a7faf4697a830c7052f8d1fba3f8280667e",
    ("powerset", "surj-right"):
        "4b394236f2f8de6dd06d371d5bedd1962bfc8934c9022fbe59b027ba27aaeb5f",
    ("powerset", "inj-right"):
        "465b4e570e8215647d2e03846d87f1da7dd3f4ac8241c532a8e3b96c75428091",
    ("tropical", "all-all"):
        "2b7d803689e6f9dd301485100d4f9a7faf4697a830c7052f8d1fba3f8280667e",
    ("tropical", "surj-right"):
        "4b394236f2f8de6dd06d371d5bedd1962bfc8934c9022fbe59b027ba27aaeb5f",
    ("tropical", "inj-right"):
        "465b4e570e8215647d2e03846d87f1da7dd3f4ac8241c532a8e3b96c75428091",
    ("BrokenTensorDoctrine", "all-all"):
        "5be5b9e2307f118ffaf0b46338467e05c46c84172de2110b6e030abba31ea22b",
    ("BrokenTensorDoctrine", "surj-right"):
        "4b394236f2f8de6dd06d371d5bedd1962bfc8934c9022fbe59b027ba27aaeb5f",
    ("BrokenTensorDoctrine", "inj-right"):
        "9627855493b34fafed0feaf7177da31afee100e025c974055a6eeb4eb6157072",
    ("DroppedApexDoctrine", "all-all"):
        "5a75da63487d2f9d8881985ef8f340b8d72a30698539f1876fe5000aa08f61c8",
    ("DroppedApexDoctrine", "surj-right"):
        "1e3dd14a5b65cd67a781e7cc8d79255622cf76c31ce7387decb7c04c4e5a47bb",
    ("DroppedApexDoctrine", "inj-right"):
        "046238b0118572efd6a0b9f782576527feeb26030c50984133f42abc076cb0ec",
    ("DroppedApexTropicalDoctrine", "all-all"):
        "1c3a2a46d183da946a03084b987badb74b5a1c85250ca6b7b552be385bea66ba",
    ("DroppedApexTropicalDoctrine", "surj-right"):
        "160ff2bd819107c8a97c06d3075d292dbb3fb4a313fa51d88629d6fc106d7881",
    ("DroppedApexTropicalDoctrine", "inj-right"):
        "945fa849637a864060c249d14c5f78a8a1ec4bdc1555250d9bd4b7dbd2f944b8",
    ("NonFunctorialDoctrine", "all-all"):
        "NonFunctorial",
    ("NonFunctorialDoctrine", "surj-right"):
        "NonFunctorial",
    ("NonFunctorialDoctrine", "inj-right"):
        "NonFunctorial",
    ("PairApexDoctrine", "all-all"):
        "2a0227acde69698b8e13d739066718160127ebb1a42c724043104f721b790136",
    ("PairApexDoctrine", "surj-right"):
        "cb9e07c4358e461dd9c58f9833b5fd86eee514ff9ac296985b159a5036e07d16",
    ("PairApexDoctrine", "inj-right"):
        "7faef10381b88fcb88080267a6454aef3bcdaf4cda4ba9b8419abda98fc452fb",
    ("SaturatedProjectionDoctrine", "all-all"):
        "2b7d803689e6f9dd301485100d4f9a7faf4697a830c7052f8d1fba3f8280667e",
    ("SaturatedProjectionDoctrine", "surj-right"):
        "4b394236f2f8de6dd06d371d5bedd1962bfc8934c9022fbe59b027ba27aaeb5f",
    ("SaturatedProjectionDoctrine", "inj-right"):
        "465b4e570e8215647d2e03846d87f1da7dd3f4ac8241c532a8e3b96c75428091",
    ("SkippedApexDoctrine", "all-all"):
        "4788a28bdd16c0cfe2be96a9504c5d9634cc0a8411f68844b39920c6bcab7846",
    ("SkippedApexDoctrine", "surj-right"):
        "9a7e59ac9b12cd40a49eab5732cc9576a4f859957c3e012bb149cd6cd61dcfb5",
    ("SkippedApexDoctrine", "inj-right"):
        "57cef0ca46d82e7e3cd409a15b348deb344f3fb7127abf738d34884493c3fbf1",
    ("SwappedAdjointDoctrine", "all-all"):
        "2b7d803689e6f9dd301485100d4f9a7faf4697a830c7052f8d1fba3f8280667e",
    ("SwappedAdjointDoctrine", "surj-right"):
        "4b394236f2f8de6dd06d371d5bedd1962bfc8934c9022fbe59b027ba27aaeb5f",
    ("SwappedAdjointDoctrine", "inj-right"):
        "465b4e570e8215647d2e03846d87f1da7dd3f4ac8241c532a8e3b96c75428091",
    ("powerset", "inj-left"):
        "8099d69af1281f96d013ae270455fdcf39ab7df4814fe04f23a92a8a636d00a5",
    ("tropical", "inj-left"):
        "8099d69af1281f96d013ae270455fdcf39ab7df4814fe04f23a92a8a636d00a5",
    ("BrokenTensorDoctrine", "inj-left"):
        "2cdde3c9438f3b2df41e23d8d8a99cf947ccdaa5c81fad19c399eb4cadc01fe9",
    ("DroppedApexDoctrine", "inj-left"):
        "e4809132685226ca0802de5fe341a5c5da65d7f9e30947b070f8e7a10595742d",
    ("DroppedApexTropicalDoctrine", "inj-left"):
        "dcb7e38d6a86750da351314fe22294a76927ded7d4c1a82a915a4fc30913df4a",
    ("NonFunctorialDoctrine", "inj-left"):
        "NonFunctorial",
    ("PairApexDoctrine", "inj-left"):
        "0367182798761b89b488cd91d01b009ddcdaec8a1947080ed59a041c8d7ba9a7",
    ("SaturatedProjectionDoctrine", "inj-left"):
        "8099d69af1281f96d013ae270455fdcf39ab7df4814fe04f23a92a8a636d00a5",
    ("SkippedApexDoctrine", "inj-left"):
        "2e42f3a5730cf0ca9ce858cb8d1bf86ecc74e8de7ed08a0764d554fd69a3a2ec",
    ("SwappedAdjointDoctrine", "inj-left"):
        "8099d69af1281f96d013ae270455fdcf39ab7df4814fe04f23a92a8a636d00a5",
}


@pytest.mark.parametrize("name, triple", list(VERIFY_PDOT_SHA256))
def test_verify_pdot_records_pinned(name, triple):
    want = VERIFY_PDOT_SHA256[name, triple]
    d = SEARCH_DOCTRINES[name](PINNED_TRIPLES[triple](2))
    if want == "NonFunctorial":
        with pytest.raises(NonFunctorial):
            PDot(d)
        return
    got = verify_pdot(PDot(d), 2).to_jsonl()
    assert hashlib.sha256(got.encode()).hexdigest() == want


# pdot.double-assoc at bound 2: its instances, those whose two
# bracketings are different spans, and the distinct pairs of those spans
ASSOC_SPLIT = {
    "all-all": (22739, 62, 26),
    "surj-right": (1648, 34, 22),
    "inj-right": (5420, 20, 10),
}


@pytest.mark.parametrize("triple", list(REFERENCE_TRIPLES))
def test_double_assoc_split_by_composite_ids(triple):
    # two bracketings composed to one span hold for every doctrine; the
    # others are the only instances that can fail, and their spans are
    # apex-isomorphic: one multiset of (left, right) apex images
    inst = _instances(triple)
    unequal = [(xy_z, x_yz) for *_, xy_z, x_yz in inst.assoc if xy_z != x_yz]
    assert (len(inst.assoc), len(unequal), len(set(unequal))) == ASSOC_SPLIT[triple]
    for xy_z, x_yz in set(unequal):
        assert sorted(zip(xy_z.left.table, xy_z.right.table)) == sorted(
            zip(x_yz.left.table, x_yz.right.table)
        )


@pytest.mark.parametrize("triple", list(REFERENCE_TRIPLES))
def test_double_assoc_images_only_unequal_ids(monkeypatch, triple):
    # the clause compares composite span ids first and looks up the two
    # loose images only where they differ: 124 lookups on all-all, where
    # imaging both bracketings of every instance made 45,478
    def run():
        return verify_pdot(PDot(powerset_doctrine(REFERENCE_TRIPLES[triple](2))), 2)

    rep, imaged = _calls_per_clause(monkeypatch, PDot, "_loose_id", run)
    instances, unequal, _ = ASSOC_SPLIT[triple]
    assert rep.find("pdot.double-assoc").instances == instances
    assert imaged["pdot.double-assoc"] == 2 * unequal


def _lax_comp_reference(image, triple):
    """``pdot.laxator-compositional`` instance by instance: both sides
    imaged by ``image`` for every sampled pair of composable pairs."""
    clause = Report().clause(
        "pdot.laxator-compositional",
        "the laxator respects loose composition of span pairs",
    )
    inst = _instances(triple)
    for a, a2, x, x2, lhs, rhs in inst.lax_comp:
        clause.check(
            image(lhs) == image(rhs), lambda: f"{a};{a2} with {x};{x2}",
        )
    clause.note(f"pair-pairs sampled: {clause.instances} of {inst.lax_comp_total}")
    return clause


@pytest.mark.parametrize("name", list(SEARCH_DOCTRINES))
def test_keyed_lax_comp_matches_reference(name):
    # the keyed clause reuses one verdict per key; the reference checks
    # every instance on its own and must give the same record
    make = SEARCH_DOCTRINES[name]
    try:
        pdot = PDot(make(surjection_triple(2)))
    except NonFunctorial as e:
        pytest.skip(f"{name} has no double extension on this triple: {e}")
    got = verify_pdot(pdot, 2).find("pdot.laxator-compositional").to_record()
    want = _lax_comp_reference(
        PDot(make(surjection_triple(2))).loose_image, "surj-right"
    ).to_record()
    assert got == want
    assert got["failures"] == SURJ_LAX_COMP_FAILURES.get(name, 0)


# failures of pdot.laxator-compositional on all-all at bound 2; 0 for
# every doctrine not named
LAX_COMP_FAILURES = {
    "DroppedApexDoctrine": 190,
    "DroppedApexTropicalDoctrine": 190,
    "PairApexDoctrine": 120,
    "SkippedApexDoctrine": 384,
}


@pytest.mark.parametrize("name", list(SEARCH_DOCTRINES))
def test_lax_comp_decides_only_failable_instances(name):
    # the clause decides only the sampled instances whose σ is not the
    # identity (2,176 of 24,550) and counts the rest; its instances and
    # its failing pairs, in order, are those of the whole sample walked
    # pair by pair
    try:
        pdot = PDot(SEARCH_DOCTRINES[name](trivial_triple(2)))
    except NonFunctorial as e:
        pytest.skip(f"{name} has no double extension: {e}")
    clause = verify_pdot(pdot, 2).find("pdot.laxator-compositional")
    span, spans = pdot.span, pdot.universe(2)
    composable = list(matching(
        spans, spans, pdot._target.__getitem__, pdot._source.__getitem__
    ))
    sample = list(lax_comp_sample([(span(i), span(j)) for i, j in composable]))
    walk = LaxCompositional(pdot, composable)
    want = [(r, c) for r, c in sample if not walk.verdict(r, c)[1]]
    lax = LaxCompositional(pdot, composable)
    instances, decided = lax.sample()
    assert (instances, len(decided)) == (len(sample), 2176) == (24550, 2176)
    assert [(r, c) for r, c in decided if not lax.verdict(r, c)[1]] == want
    assert len(want) == LAX_COMP_FAILURES.get(name, 0)
    assert (clause.instances, clause.failures) == (24550, len(want))
    assert clause.witnesses == [
        f"{span(a)};{span(a2)} with {span(x)};{span(x2)}"
        for (a, a2), (x, x2) in ((composable[r], composable[c]) for r, c in want[:5])
    ]


# -- verify_pdot against a reference that builds every square -------------


def _reference_square(top, bottom, left, right):
    """A square decided with both composites built as maps and compared
    with ``leq_maps`` and ``iso_maps``."""
    lower, upper = left.then(bottom), top.then(right)
    return SimpleNamespace(
        holds=leq_maps(lower, upper), invertible=iso_maps(lower, upper),
        lower=lower, upper=upper,
    )


def _diff(f, g):
    return next(
        (f"at {i}: {x} vs {y}" for i, (x, y) in enumerate(zip(f.table, g.table)) if x != y),
        "shape",
    )


def _check_square(clause, ok, sq, where):
    clause.check(ok, lambda: f"{where()}: {_diff(sq.lower, sq.upper)}")


def _verify_pdot_reference(pdot, triple):
    """Every ``pdot.*`` clause of ``verify_pdot`` at bound 2 on
    ``REFERENCE_TRIPLES[triple]``, instance by instance: each square is
    built from its sides and decided on its own, and no verdict is
    reused.  Returns the records."""
    d = pdot.d
    inst = _instances(triple)
    images = {}

    def L(s):
        # the instance spans are kept once per value, so a repeated span
        # is found by identity
        m = images.get(s)
        if m is None:
            m = images[s] = pdot.loose_image(s)
        return m

    spans, objs = inst.spans, inst.objs
    rep = Report()

    unitor = rep.clause("pdot.unitor", "identity spans map to identity maps")
    for a in objs:
        m = L(Span.identity(a))
        sq = _reference_square(
            m, MonotoneMap.identity(d.fiber(a).carrier),
            MonotoneMap.identity(m.dom), MonotoneMap.identity(m.cod),
        )
        _check_square(unitor, sq.invertible, sq, lambda: f"A={a.size}")

    comp = rep.clause(
        "pdot.compositor",
        "image of a loose composite equals the composite of images",
    )
    for x, y, xy in inst.composable:
        lhs, rhs = L(xy), L(x).then(L(y))
        sq = _reference_square(
            lhs, rhs, MonotoneMap.identity(lhs.dom), MonotoneMap.identity(lhs.cod)
        )
        _check_square(comp, sq.invertible, sq, lambda: f"{x} ; {y}")
    comp.note("span universe bounded at 2")

    assoc = rep.clause(
        "pdot.double-assoc",
        "the two bracketings of a triple composite have equal images",
    )
    for x, y, z, xy_z, x_yz in inst.assoc:
        lhs, rhs = L(xy_z), L(x_yz)
        assoc.check(lhs == rhs, lambda: f"{x} ; {y} ; {z}: {_diff(lhs, rhs)}")

    exist = rep.clause(
        "pdot.cell-existence", "every span morphism induces a genuine square"
    )
    for c in inst.cells:
        sq = _reference_square(
            L(c.dst), L(c.src), d.subst(c.tight_left), d.subst(c.tight_right)
        )
        _check_square(exist, sq.holds, sq, lambda: f"{SpanCell(*c)}")
    exist.note(f"distinct boundaries: {len(inst.cells)}")

    def laxator(x, y):
        return _reference_square(
            map_product(L(x), L(y)), L(product_span(x, y)),
            external_laxator(d, x.source, y.source),
            external_laxator(d, x.target, y.target),
        )

    lax_exist = rep.clause(
        "pdot.laxator-cell", "the laxator square exists on every span pair"
    )
    lax_comm = rep.clause(
        "pdot.laxator-commuter",
        "the laxator square is an equality on its guaranteed class domain",
    )
    off_total = off_failures = 0
    for x in spans:
        for y in spans:
            sq = laxator(x, y)
            _check_square(lax_exist, sq.holds, sq, lambda: f"{x} , {y}")
            if pdot.laxator_domain(x, y):
                _check_square(lax_comm, sq.invertible, sq, lambda: f"{x} , {y}")
            else:
                off_total += 1
                if not sq.invertible:
                    off_failures += 1
                    if off_failures <= 3:
                        lax_comm.note(f"off-domain strict inequality: {x} , {y}")
    lax_comm.note(
        f"off-domain pairs checked: {off_total}, strict inequalities: {off_failures}"
    )

    lax_unit = rep.clause(
        "pdot.laxator-unital",
        "the laxator on identity spans collapses to the external tensor",
    )
    for a in objs:
        for b in objs:
            sq = laxator(Span.identity(a), Span.identity(b))
            lax_unit.check(
                sq.invertible and sq.upper == external_laxator(d, a, b),
                f"A={a.size} B={b.size}",
            )

    rep.clauses.append(_lax_comp_reference(L, triple))

    sym = rep.clause("pdot.symmetry-cell", "the symmetry square is an equality")
    for x in spans:
        for y in spans:
            sq = _reference_square(
                L(product_span(y, x)), L(product_span(x, y)),
                d.subst(swap_fn(x.source, y.source)),
                d.subst(swap_fn(x.target, y.target)),
            )
            _check_square(sym, sq.invertible, sq, lambda: f"{x} , {y}")
    return [c.to_record() for c in rep.clauses]


# distinct proof squares of the laxator's class domain at bounds 1 and 2
PROOF_SQUARES = {"all-all": (5, 97), "surj-right": (1, 15), "inj-right": (5, 60)}


@pytest.mark.parametrize("triple", list(REFERENCE_TRIPLES))
def test_beck_chevalley_takes_every_proof_square(triple):
    # the proof squares depend only on the right legs, so
    # doctrine.beck-chevalley takes them from the pairs of right legs
    # (f in R, g in L ∩ R); the walk over the span pairs on the
    # laxator's class domain is the oracle: the pairs of right legs reach
    # the same squares, each designated, and the clause checks them all
    for bound, count in zip((1, 2), PROOF_SQUARES[triple]):
        t = REFERENCE_TRIPLES[triple](bound)
        pdot = PDot(powerset_doctrine(t))
        spans = list(pdot.cat.enumerate_spans(bound))
        walked = {
            sq for x in spans for y in spans if pdot.laxator_domain(x, y)
            for sq in proof_squares(x.right, y.right)
        }
        right = Universe(t, bound).right
        paired = {
            sq for f in right for g in right if t.left.contains(g)
            for sq in proof_squares(f, g)
        }
        assert paired == walked and len(walked) == count
        assert all(is_clr_pullback(sq, t) for sq in walked)
        squares = beck_chevalley_squares(t, bound)
        assert len(set(squares)) == len(squares)
        assert set(squares) == set(generated_pullbacks(t, bound)) | walked


# failures of doctrine.beck-chevalley at bound 2 on all-all (of 122
# squares) and surj-right (of 32); none for a doctrine not named
BC_FAILURES = {"NonFunctorialDoctrine": (11, 1), "SaturatedProjectionDoctrine": (4, 0)}


@pytest.mark.parametrize("name", list(SEARCH_DOCTRINES))
def test_beck_chevalley_verdicts(name):
    got = []
    for triple in (trivial_triple(2), surjection_triple(2)):
        bc = check_doctrine(SEARCH_DOCTRINES[name](triple), 2).find("doctrine.beck-chevalley")
        got.append((bc.instances, bc.failures))
    fails = BC_FAILURES.get(name, (0, 0))
    assert got == [(122, fails[0]), (32, fails[1])]


@pytest.mark.parametrize("triple", list(REFERENCE_TRIPLES))
@pytest.mark.parametrize("name", list(SEARCH_DOCTRINES))
def test_verify_pdot_matches_reference(name, triple):
    # verify_pdot decides each distinct square once and reuses its
    # verdict; the reference decides every instance on its own, so every
    # count, witness and note must come out the same
    if name == "NonFunctorialDoctrine":
        pytest.skip("its substitution is not functorial, so it has no double extension")
    pdot = PDot(SEARCH_DOCTRINES[name](REFERENCE_TRIPLES[triple](2)))
    got = [c.to_record() for c in verify_pdot(pdot, 2).clauses]
    # the reference reads the loose images verify_pdot has cached, never
    # its verdicts
    assert got == _verify_pdot_reference(pdot, triple)


@pytest.mark.parametrize("name", list(SEARCH_DOCTRINES))
def test_span_methods_agree_after_verify_pdot(name):
    # verify_pdot reads its verdicts on span ids; the cell methods that take
    # spans resolve the ids and read the same tables, so after a run they
    # answer every instance as a fresh PDot that decides each square itself
    if name == "NonFunctorialDoctrine":
        pytest.skip("its substitution is not functorial, so it has no double extension")
    make = SEARCH_DOCTRINES[name]
    pdot = PDot(make(trivial_triple(2)))
    verify_pdot(pdot, 2)
    fresh = PDot(make(trivial_triple(2)))
    inst = _instances("all-all")

    def flags(method, *args):
        got, want = method(pdot, *args), method(fresh, *args)
        assert (got.holds, got.invertible) == (want.holds, want.invertible), args

    for x, y, _ in inst.composable:
        flags(PDot.compositor, x, y)
    for a in inst.objs:
        flags(PDot.unitor, a)
    for x in inst.spans:
        for y in inst.spans:
            flags(PDot.laxator_cell, x, y)
            flags(PDot.symmetry_cell, x, y)
    for c in inst.cells:
        flags(PDot.cell_image, c)


# NonFunctorialDoctrine has no double extension
@pytest.mark.parametrize("name", [n for n in SEARCH_DOCTRINES if n != "NonFunctorialDoctrine"])
def test_compositor_and_unitor_match_the_reference_decider(name):
    # ``compositor`` and ``unitor`` decide an equality square of interned
    # ids through ``PDot._verdict``; the reference decides the same maps,
    # built here from loose images and joined by fresh identities
    pdot = PDot(SEARCH_DOCTRINES[name](trivial_triple(2)))
    inst, ident, image = _instances("all-all"), MonotoneMap.identity, pdot.loose_image

    def agree(qt, top, bottom):
        want = _qt_cell(top, bottom, ident(top.dom), ident(top.cod))
        assert (qt.top, qt.bottom) == (top, bottom)
        assert (qt.holds, qt.invertible) == (want.holds, want.invertible)

    for x, y, xy in inst.composable:
        agree(pdot.compositor(x, y), image(xy), image(x).then(image(y)))
    for a in inst.objs:
        fiber = pdot.d.fiber(a).carrier
        agree(pdot.unitor(a), image(Span.identity(a)), ident(fiber))


# NonFunctorialDoctrine has no double extension
@pytest.mark.parametrize("name", [n for n in SEARCH_DOCTRINES if n != "NonFunctorialDoctrine"])
def test_each_square_is_fixed_by_its_side_ids(name):
    # a square is decided once, under the ids of its sides; its kept
    # verdict must be the verdict of the sides the ids resolve to
    pdot = PDot(SEARCH_DOCTRINES[name](trivial_triple(2)))
    verify_pdot(pdot, 2)
    assert len(pdot._verdicts) > 2000
    for sq, verdict in pdot._verdicts.items():
        qt = _qt_cell(*pdot._sides(sq))
        assert verdict == qt.holds + qt.invertible, sq


def test_passing_verify_pdot_builds_no_span_in_doubling(monkeypatch):
    # ``PDot`` keys spans by their tables and composes, multiplies and
    # reindexes them on tables, so a passing run builds no FinFn and no
    # Span in doubling, directly or through a Span constructor; the spans
    # it meets are the universe's, built by ``enumerate_spans``
    built = collections.Counter()
    constructors = {"of", "identity", "companion", "conjoint"}

    def counting(cls):
        post_init = cls.__post_init__

        def counted(self):
            # frame 1 is the dataclass ``__init__``, frame 2 its caller
            caller = sys._getframe(2)
            if caller.f_code.co_name in constructors:
                caller = caller.f_back
            if caller.f_globals.get("__name__") == "doctrina.doubling":
                built[cls.__name__] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)

    counting(FinFn)
    counting(Span)
    rep = verify_pdot(PDot(powerset_doctrine(trivial_triple(2))), 2)
    assert rep.passed
    assert built == {}
    # the same count sees a Span that doubling asks for
    pdot = PDot(powerset_doctrine(trivial_triple(2)))
    pdot.span(pdot._identity_id(2))
    assert built == {"Span": 1, "FinFn": 2}


def test_verify_pdot_hashes_few_spans(monkeypatch):
    # the clause loops key their squares on span ids, and ``PDot`` keys
    # a span by its tables, so no Span is hashed in doubling: the 3,956
    # left are the keys of ``SpanCategory.cell_groups``.  Powerset at
    # bound 2 hashed 340,984 before spans had ids, 17,221 while the left
    # sides of pdot.laxator-compositional were composed of product spans,
    # 14,405 while that clause built the right side of every sampled key,
    # 13,428 while pdot.unit-cell looked up the identity span on 1, and
    # 13,427 while ``PDot`` keyed spans by ``Span``
    hashed = [0]
    span_hash = Span.__hash__

    def counting(self):
        hashed[0] += 1
        return span_hash(self)

    monkeypatch.setattr(Span, "__hash__", counting)
    verify_pdot(PDot(powerset_doctrine(trivial_triple(2))), 2)
    assert hashed[0] == 3956


# -- the table-only square test against composing and comparing maps -------


SQUARE_POSETS = [
    chain(1), chain(2), chain(3), power_poset(chain(2), 2), power_poset(chain(3), 2),
]


@st.composite
def monotone_maps(draw, dom, cod):
    """A monotone map: each element goes to the join of values drawn for
    the elements below it."""
    join = join_table(cod)
    values = st.integers(0, cod.size - 1)
    raw = draw(st.lists(values, min_size=dom.size, max_size=dom.size))
    table = []
    for x in range(dom.size):
        v = bottom_element(cod)
        for y in range(dom.size):
            if dom.le(y, x):
                v = join[v][raw[y]]
        table.append(v)
    return monotone_map(dom, cod, table)


@st.composite
def squares(draw):
    p, q, r, s = (draw(st.sampled_from(SQUARE_POSETS)) for _ in range(4))
    return (
        draw(monotone_maps(p, q)), draw(monotone_maps(r, s)),
        draw(monotone_maps(p, r)), draw(monotone_maps(q, s)),
    )


@st.composite
def parallel_maps(draw):
    p, q = (draw(st.sampled_from(SQUARE_POSETS)) for _ in range(2))
    return draw(monotone_maps(p, q)), draw(monotone_maps(p, q))


class TestQtCellTables:
    @given(squares())
    def test_agrees_with_composed_maps(self, sides):
        top, bottom, left, right = sides
        lower, upper = left.then(bottom), top.then(right)
        qt = _qt_cell(top, bottom, left, right)
        assert (qt.holds, qt.invertible) == (leq_maps(lower, upper), iso_maps(lower, upper))
        assert (qt.top, qt.bottom, qt.left, qt.right) == sides

    @given(parallel_maps())
    def test_parallel_maps_with_identity_sides(self, fg):
        # the compositor's shape: holds is leq_maps, invertible iso_maps
        f, g = fg
        ids = MonotoneMap.identity(f.dom), MonotoneMap.identity(f.cod)
        qt = _qt_cell(f, g, *ids)
        assert (qt.holds, qt.invertible) == (leq_maps(g, f), iso_maps(g, f))
        assert _qt_cell(f, f, *ids).invertible

    @pytest.mark.parametrize("side", ["top", "bottom", "left", "right"])
    @pytest.mark.parametrize("end", ["dom", "cod"])
    def test_sides_that_do_not_meet(self, side, end):
        # one side's end moved to another poset: composing the sides with
        # ``then`` or comparing the composites with ``iso_maps`` refuses
        # it, and so does the table-only test
        p = chain(2)
        sides = dict.fromkeys(["top", "bottom", "left", "right"], MonotoneMap.identity(p))
        other = chain(3)
        moved = sides[side]
        sides[side] = MonotoneMap(
            other if end == "dom" else moved.dom,
            other if end == "cod" else moved.cod,
            (0, 1, 1) if end == "dom" else moved.table,
        )
        with pytest.raises(ShapeMismatch):
            iso_maps(sides["left"].then(sides["bottom"]), sides["top"].then(sides["right"]))
        with pytest.raises(ShapeMismatch):
            _qt_cell(**sides)


def test_lax_comp_walk_script_runs():
    # the full walk of pdot.laxator-compositional at bound 1, through the
    # script that compares it with the keyed walk
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "lax_comp_walk.py"), "--bound", "1"],
        capture_output=True, text=True, cwd=str(root),
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "OK"
