import copy
import importlib.util
import itertools
import json
import operator
import random
import sys
import warnings
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from doctrina.errors import BoundaryMismatch, ClassViolation, ContextMismatch, LabelClash
from doctrina.finset import FinFn, FinSet, LabelledFinSet, surjection_triple, trivial_triple
from doctrina.doctrine import Doctrine, powerset_doctrine, tropical_doctrine
from doctrina.poskit import MonoPoset, chain, is_commutative_quantale, min_plus, power_poset
from doctrina import uwd
from doctrina.uwd import (
    Step,
    System,
    TypeAssignment,
    UwdDiagram,
    compose_diagrams,
    denote,
    disjoint_union,
    elimination_plan,
    evaluate,
    format_predicate,
    functoriality_check,
    identity_diagram,
    index_tuple,
    load_corpus,
    load_corpus_file,
    reader,
    reindex,
    reindex_map,
    rel_pred,
    rel_tuples,
    relational_oracle,
    tensor_systems,
    trop_costs,
    trop_pred,
    tropical_oracle,
    tuple_index,
)

from corpus import build_corpus
from mutants import DroppedApexDoctrine
from test_poskit import M3, N5, meet_monoid

TYPES = TypeAssignment({"w": 2, "v": 3})
D_REL = powerset_doctrine(trivial_triple(3))
D_TROP = tropical_doctrine(trivial_triple(3), 3)


def join_diagram():
    inner = LabelledFinSet.of("w", "w", "w", "w")
    junctions = LabelledFinSet.of("w", "w", "w")
    outer = LabelledFinSet.of("w", "w")
    return UwdDiagram(
        inner, junctions, outer,
        FinFn(inner.base, junctions.base, (0, 1, 1, 2)),
        FinFn(outer.base, junctions.base, (0, 2)),
    )


class TestDenotation:
    def test_singleton_port(self):
        assert denote(LabelledFinSet.of("w"), TYPES).size == 2

    def test_two_ports(self):
        assert denote(LabelledFinSet.of("w", "v"), TYPES).size == 6

    def test_empty_context(self):
        assert denote(LabelledFinSet.of(), TYPES).size == 1

    def test_tuple_codec_roundtrip(self):
        ctx = LabelledFinSet.of("w", "v", "w")
        for i in range(denote(ctx, TYPES).size):
            assert tuple_index(index_tuple(i, ctx, TYPES), ctx, TYPES) == i


class TestDiagramValidation:
    def test_label_preservation_enforced(self):
        inner = LabelledFinSet.of("v")
        junctions = LabelledFinSet.of("w")
        with pytest.raises(LabelClash):
            UwdDiagram(
                inner, junctions, LabelledFinSet.of(),
                FinFn(inner.base, junctions.base, (0,)),
                FinFn(FinSet(0), junctions.base, ()),
            )

    def test_boundary_shape_enforced(self):
        inner = LabelledFinSet.of("w")
        junctions = LabelledFinSet.of("w")
        with pytest.raises(BoundaryMismatch):
            UwdDiagram(
                inner, junctions, LabelledFinSet.of(),
                FinFn(FinSet(2), junctions.base, (0, 0)),
                FinFn(FinSet(0), junctions.base, ()),
            )


class TestEvaluate:
    def test_identity_diagram_echoes(self):
        ctx = LabelledFinSet.of("w", "v")
        sys = System(ctx, rel_pred([(1, 2), (0, 0)], ctx, TYPES))
        out = evaluate(identity_diagram(ctx), sys, D_REL, TYPES)
        assert out.predicate == sys.predicate

    def test_relational_composition_example(self):
        w = join_diagram()
        phi = rel_pred([(0, 1, 1, 0)], w.inner, TYPES)
        out = evaluate(w, System(w.inner, phi), D_REL, TYPES)
        assert rel_tuples(out.predicate, out.context, TYPES) == {(0, 0)}
        assert format_predicate(out, "rel", TYPES, 3) == "1"

    def test_tropical_shortest_hop(self):
        w = join_diagram()
        costs = {}
        for x in range(2):
            for y in range(2):
                for y2 in range(2):
                    for z in range(2):
                        r = 1 if (x, y) == (0, 1) else 4
                        s = 2 if (y2, z) == (1, 0) else 4
                        costs[(x, y, y2, z)] = min(r + s, 4)
        pred = trop_pred(costs, w.inner, TYPES, 3)
        out = evaluate(w, System(w.inner, pred), D_TROP, TYPES)
        got = trop_costs(out.predicate, out.context, TYPES)
        assert got[(0, 0)] == 3
        assert all(v == 4 for t, v in got.items() if t != (0, 0))

    def test_context_mismatch(self):
        w = join_diagram()
        sys = System(LabelledFinSet.of("w"), 1)
        with pytest.raises(ContextMismatch):
            evaluate(w, sys, D_REL, TYPES)

    def test_permutation_is_relabelling(self):
        ctx = LabelledFinSet.of("w", "v")
        flipped = LabelledFinSet.of("v", "w")
        w = UwdDiagram(
            ctx, ctx, flipped,
            FinFn.identity(ctx.base),
            FinFn(flipped.base, ctx.base, (1, 0)),
        )
        sys = System(ctx, rel_pred([(1, 2)], ctx, TYPES))
        out = evaluate(w, sys, D_REL, TYPES)
        assert rel_tuples(out.predicate, out.context, TYPES) == {(2, 1)}

    def test_empty_domain_warning(self):
        types = TypeAssignment({"w": 2, "z": 0})
        junctions = LabelledFinSet.of("w", "z")
        inner = LabelledFinSet.of("w")
        w = UwdDiagram(
            inner, junctions, inner,
            FinFn(inner.base, junctions.base, (0,)),
            FinFn(inner.base, junctions.base, (0,)),
        )
        sys = System(inner, (0, 1))
        with pytest.warns(UserWarning):
            out = evaluate(w, sys, D_REL, types)
        assert out.predicate == (0, 0)  # collapsed by the empty junction


class TestComposition:
    def test_identity_on_either_side(self):
        w = join_diagram()
        left = compose_diagrams(w, identity_diagram(w.inner))
        right = compose_diagrams(identity_diagram(w.outer), w)
        # canonical quotient indexing keeps the same junction count
        assert left.junctions.base.size == w.junctions.base.size
        assert right.junctions.base.size == w.junctions.base.size
        sys = System(w.inner, rel_pred([(0, 1, 1, 0)], w.inner, TYPES))
        for comp in (left, right):
            a = evaluate(comp, sys, D_REL, TYPES)
            b = evaluate(w, sys, D_REL, TYPES)
            assert a.predicate == b.predicate

    def test_two_hops_chain_into_path(self):
        # each filler: 2 inner ports on 2 junctions, 2 outer ports
        ctx2 = LabelledFinSet.of("w", "w")
        hop = UwdDiagram(
            ctx2, ctx2, ctx2,
            FinFn.identity(ctx2.base),
            FinFn.identity(ctx2.base),
        )
        # host joins two pairs along the middle junction
        host = join_diagram()
        # nest: fill the host's inner boundary with two side-by-side hops
        two_hops = disjoint_union(hop, hop)
        composite = compose_diagrams(host, two_hops)
        assert composite.junctions.base.size == 3
        assert composite.inner == two_hops.inner
        assert composite.outer == host.outer

    def test_boundary_mismatch(self):
        w = join_diagram()
        with pytest.raises(BoundaryMismatch):
            compose_diagrams(w, w)

    def test_self_loop_closure_truth_value(self):
        ctx = LabelledFinSet.of("w", "w")
        close = UwdDiagram(
            ctx, LabelledFinSet.of("w"), LabelledFinSet.of(),
            FinFn(ctx.base, FinSet(1), (0, 0)),
            FinFn(FinSet(0), FinSet(1), ()),
        )
        diag = System(ctx, rel_pred([(0, 0), (1, 1)], ctx, TYPES))
        offdiag = System(ctx, rel_pred([(0, 1)], ctx, TYPES))
        assert evaluate(close, diag, D_REL, TYPES).predicate == (1,)
        assert evaluate(close, offdiag, D_REL, TYPES).predicate == (0,)


class TestFunctoriality:
    def test_identity_pair(self):
        ctx = LabelledFinSet.of("w", "w")
        sys = System(ctx, rel_pred([(0, 1)], ctx, TYPES))
        assert functoriality_check(
            identity_diagram(ctx), identity_diagram(ctx), sys, D_REL, TYPES
        )

    def test_three_chain_split_two_ways(self):
        # flat three-step chain versus nested evaluation, relational
        ctx2 = LabelledFinSet.of("w", "w")
        inner6 = LabelledFinSet.of(*["w"] * 6)
        j4 = LabelledFinSet.of(*["w"] * 4)
        chain3 = UwdDiagram(
            inner6, j4, ctx2,
            FinFn(inner6.base, j4.base, (0, 1, 1, 2, 2, 3)),
            FinFn(ctx2.base, j4.base, (0, 3)),
        )
        r = {(0, 1)}
        s = {(1, 0), (1, 1)}
        t = {(0, 0)}
        joint = rel_pred(
            [a + b + c for a in r for b in s for c in t], inner6, TYPES
        )
        flat = evaluate(chain3, System(inner6, joint), D_REL, TYPES)

        # nested: first join r and s, then join with t
        inner4 = LabelledFinSet.of(*["w"] * 4)
        j3 = LabelledFinSet.of(*["w"] * 3)
        first = UwdDiagram(
            inner4, j3, ctx2,
            FinFn(inner4.base, j3.base, (0, 1, 1, 2)),
            FinFn(ctx2.base, j3.base, (0, 2)),
        )
        rs = rel_pred([a + b for a in r for b in s], inner4, TYPES)
        step1 = evaluate(first, System(inner4, rs), D_REL, TYPES)
        step2_pred = tensor_systems(
            step1, System(ctx2, rel_pred(t, ctx2, TYPES)), D_REL, TYPES
        )
        second = UwdDiagram(
            inner4, j3, ctx2,
            FinFn(inner4.base, j3.base, (0, 1, 1, 2)),
            FinFn(ctx2.base, j3.base, (0, 2)),
        )
        nested = evaluate(second, step2_pred, D_REL, TYPES)
        assert rel_tuples(nested.predicate, ctx2, TYPES) == rel_tuples(
            flat.predicate, ctx2, TYPES
        )
        # and both agree with the brute-force join
        expect = {
            (a0, c1)
            for (a0, a1) in r
            for (b0, b1) in s
            for (c0, c1) in t
            if a1 == b0 and b1 == c0
        }
        assert rel_tuples(flat.predicate, ctx2, TYPES) == expect

    def test_tropical_chain_equals_matrix_product(self):
        # min-plus two-hop composition equals the matrix product
        w = join_diagram()
        r = [[1, 4], [4, 0]]
        s = [[2, 4], [4, 1]]
        costs = {
            (x, y, y2, z): min(r[x][y] + s[y2][z], 4)
            for x in range(2) for y in range(2)
            for y2 in range(2) for z in range(2)
        }
        pred = trop_pred(costs, w.inner, TYPES, 3)
        out = evaluate(w, System(w.inner, pred), D_TROP, TYPES)
        got = trop_costs(out.predicate, out.context, TYPES)
        for x in range(2):
            for z in range(2):
                want = min(min(r[x][y] + s[y][z] for y in range(2)), 4)
                assert got[(x, z)] == want


class TestMonoidality:
    def test_disjoint_union_against_separate_evaluation(self):
        ctx = LabelledFinSet.of("w", "v")
        w1 = identity_diagram(LabelledFinSet.of("w"))
        w2 = UwdDiagram(
            ctx, ctx, LabelledFinSet.of("v"),
            FinFn.identity(ctx.base),
            FinFn(FinSet(1), ctx.base, (1,)),
        )
        s1 = System(w1.inner, rel_pred([(1,)], w1.inner, TYPES))
        s2 = System(ctx, rel_pred([(0, 2), (1, 1)], ctx, TYPES))
        joint = evaluate(
            disjoint_union(w1, w2), tensor_systems(s1, s2, D_REL, TYPES),
            D_REL, TYPES,
        )
        separate = tensor_systems(
            evaluate(w1, s1, D_REL, TYPES),
            evaluate(w2, s2, D_REL, TYPES),
            D_REL, TYPES,
        )
        assert joint.context == separate.context
        assert joint.predicate == separate.predicate


# a monotone, commutative, non-associative tensor on the 4-chain 0 < 1 < 2 < 3:
# unit 3, 0 absorbing, 1⊗1 = 0, 1⊗2 = 1 and 2⊗2 = 1, so (1⊗2)⊗2 = 1 but
# 1⊗(2⊗2) = 0
CHAIN4 = (
    0, 0, 0, 0,
    0, 0, 1, 1,
    0, 1, 1, 2,
    0, 1, 2, 3,
)
D_CHAIN4 = Doctrine(trivial_triple(3), MonoPoset.tabulated(chain(4), CHAIN4, 3))
# max on the 3-chain keeps no bottom: 2 ⊗ ⊥ = 2
MAX3 = MonoPoset.tabulated(chain(3), [max(x, y) for x in range(3) for y in range(3)], 0)
# x ⊗ y = x where y is not ⊥: associative, it keeps ⊥ and distributes
# over joins, but 1 ⊗ 2 = 1 and 2 ⊗ 1 = 2 (its unit is unused)
LEFT3 = MonoPoset.tabulated(chain(3), [x if y else 0 for x in range(3) for y in range(3)], 2)
# the doctrines whose tensors of systems ``evaluate`` factorises, by name
QUALIFIED = {
    "powerset": D_REL,
    "min-plus": D_TROP,
    **{f"min-plus-cap{cap}": Doctrine(trivial_triple(3), min_plus(cap)) for cap in (1, 2, 4)},
    "2x2-meet": Doctrine(trivial_triple(3), meet_monoid(power_poset(chain(2), 2))),
}
# and those it evaluates through the joint, each for one failed condition
REFUSED = {
    "4-chain": D_CHAIN4,  # not associative
    "max-3-chain": Doctrine(trivial_triple(3), MAX3),  # no bottom kept
    "N5-meet": Doctrine(trivial_triple(3), meet_monoid(N5)),  # not distributive
    "M3-meet": Doctrine(trivial_triple(3), meet_monoid(M3)),  # not distributive
    "union": Doctrine(trivial_triple(3), MonoPoset(chain(2), operator.or_, 0)),  # no bottom
    "left-3-chain": Doctrine(trivial_triple(3), LEFT3),  # not commutative
    "powerset-surj": powerset_doctrine(surjection_triple(3)),  # R is not all maps
    "dropped-apex": DroppedApexDoctrine(trivial_triple(3)),  # its own _legs
}
FACTORISED = {**QUALIFIED, **REFUSED}


def bracketed(boxes, d, types):
    """The tensor of ``boxes`` in the bracketing they are nested in: a
    system is a leaf, a pair is the tensor of its two sides."""
    if isinstance(boxes, System):
        return boxes
    left, right = (bracketed(b, d, types) for b in boxes)
    return tensor_systems(left, right, d, types)


@st.composite
def tensor_queries(draw, d):
    """A diagram of at most 4 junctions over domains 0 to 3, and a random
    bracketing of 3 or 4 boxes of arity 0 to 3 into its inner boundary
    (three, so that bracketings can differ): a junction may be on no box
    and no outer port."""
    values = d.values.carrier.size
    domains = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    types = TypeAssignment({f"t{i}": n for i, n in enumerate(domains)})
    labels = draw(st.lists(st.sampled_from(sorted(types.domains)), max_size=4))
    junctions = LabelledFinSet.of(*labels)
    touch = st.integers(0, len(labels) - 1) if labels else st.nothing()
    arity = st.integers(0, 3) if labels else st.just(0)
    boxes = []
    for _ in range(draw(st.integers(3, 4))):
        ports = tuple(draw(touch) for _ in range(draw(arity)))
        ctx = LabelledFinSet.of(*(labels[j] for j in ports))
        pred = draw(st.lists(
            st.integers(0, values - 1),
            min_size=denote(ctx, types).size, max_size=denote(ctx, types).size,
        ))
        boxes.append((ports, System(ctx, tuple(pred))))

    def bracket(leaves):
        if len(leaves) == 1:
            return leaves[0][1]
        cut = draw(st.integers(1, len(leaves) - 1))
        return bracket(leaves[:cut]), bracket(leaves[cut:])

    tree = bracketed(bracket(boxes), d, types)
    outer_ports = draw(st.lists(touch, max_size=3)) if labels else []
    outer = LabelledFinSet.of(*(labels[j] for j in outer_ports))
    w = UwdDiagram(
        tree.context, junctions, outer,
        FinFn(tree.context.base, junctions.base, tuple(j for p, _ in boxes for j in p)),
        FinFn(outer.base, junctions.base, tuple(outer_ports)),
    )
    return w, tree, types


def outcome(evaluation, w, tree, d, types):
    """What ``evaluation`` gives, or the type of the ``ClassViolation`` it
    raises: an outer leg outside R has no quantifier."""
    try:
        return evaluation(w, tree, d, types)
    except ClassViolation as e:
        return type(e)


def joint_evaluation(w, tree, d, types):
    """``evaluate`` on the tensor's joint predicate, as one system."""
    return evaluate(w, System(tree.context, tree.predicate), d, types)


class TestFactorisedEvaluation:
    """``evaluate`` on a tensor of systems pulls each part back to the
    junctions on its own; it must give the joint predicate's answer."""

    @pytest.mark.parametrize("name", sorted(FACTORISED))
    @given(data=st.data())
    def test_equals_the_joint_path(self, name, data):
        d = FACTORISED[name]
        w, tree, types = data.draw(tensor_queries(d))
        # and with every junction exposed, so that no join over a hidden
        # junction masks a wrong entry
        opened = UwdDiagram(
            w.inner, w.junctions, w.junctions, w.f, FinFn.identity(w.junctions.base)
        )
        with warnings.catch_warnings():
            # a dangling junction may have an empty domain
            warnings.simplefilter("ignore", UserWarning)
            for v in (w, opened):
                got = outcome(evaluate, v, tree, d, types)
                assert got == outcome(joint_evaluation, v, tree, d, types)

    @pytest.mark.parametrize("name", sorted(QUALIFIED) + sorted(REFUSED))
    def test_the_guard(self, name):
        d = QUALIFIED.get(name) or REFUSED[name]
        assert d.factorises == (name in QUALIFIED)
        # V's tables pass every qualified doctrine, and the two that R
        # and ``_legs`` refuse
        kept = name in QUALIFIED or name in ("powerset-surj", "dropped-apex")
        assert is_commutative_quantale(d.values) == kept

    def test_the_bracketing_is_kept(self):
        # three unary boxes 1, 2 and 2 on one junction of the 4-chain:
        # (1⊗2)⊗2 = 1 and 1⊗(2⊗2) = 0, so a path that flattened the
        # parts into one fold would get one bracketing wrong
        types = TypeAssignment({"u": 1})
        one = LabelledFinSet.of("u")
        a, b, c = (System(one, (v,)) for v in (1, 2, 2))
        inner = LabelledFinSet.of("u", "u", "u")
        w = UwdDiagram(
            inner, one, one,
            FinFn(inner.base, one.base, (0, 0, 0)),
            FinFn.identity(one.base),
        )
        got = []
        for shape in (((a, b), c), (a, (b, c))):
            tree = bracketed(shape, D_CHAIN4, types)
            got.append(evaluate(w, tree, D_CHAIN4, types))
            assert got[-1] == joint_evaluation(w, tree, D_CHAIN4, types)
            # a doctrine that factorises reads a tensor that another one
            # made at its joint: 2x2-meet would give 1 ∧ 2 ∧ 2 = 0 both ways
            assert evaluate(w, tree, QUALIFIED["2x2-meet"], types) == got[-1]
        assert [s.predicate for s in got] == [(1,), (0,)]

    def test_no_joint_on_the_evaluation_path(self, monkeypatch):
        pair_predicate = Doctrine.pair_predicate
        calls = []

        def counting(self, *args):
            calls.append(args)
            return pair_predicate(self, *args)

        monkeypatch.setattr(Doctrine, "pair_predicate", counting)
        types = TypeAssignment({"v": 3})
        pair = LabelledFinSet.of("v", "v")
        rng = random.Random(4)
        boxes = [System(pair, tuple(rng.randint(0, 4) for _ in range(9))) for _ in range(4)]
        tree = bracketed(((boxes[0], boxes[1]), (boxes[2], boxes[3])), D_TROP, types)
        junctions = LabelledFinSet.of(*["v"] * 5)
        outer = LabelledFinSet.of("v", "v")
        w = UwdDiagram(
            tree.context, junctions, outer,
            FinFn(tree.context.base, junctions.base, (0, 1, 1, 2, 2, 3, 3, 4)),
            FinFn(outer.base, junctions.base, (0, 4)),
        )
        got = evaluate(w, tree, D_TROP, types)
        assert calls == []
        # reading the joint builds it once per tensor node, pairwise, and
        # keeps it
        joint = tree.predicate
        assert len(calls) == 3 and tree.predicate is joint
        nine = denote(pair, types)
        left, right = (
            pair_predicate(D_TROP, nine, nine, boxes[i].predicate, boxes[i + 1].predicate)
            for i in (0, 2)
        )
        assert joint == pair_predicate(D_TROP, FinSet(81), FinSet(81), left, right)
        assert got == evaluate(w, System(tree.context, joint), D_TROP, types)

    @pytest.mark.parametrize("d, bottom", [(D_REL, 0), (D_TROP, 4)])
    def test_empty_domain_warning(self, d, bottom):
        # as for a single system: a junction of domain 0 on no box and
        # no outer port still collapses the result of a tensor
        types = TypeAssignment({"w": 2, "z": 0})
        junctions = LabelledFinSet.of("w", "w", "z")
        one = LabelledFinSet.of("w")
        tree = tensor_systems(System(one, (1, 0)), System(one, (0, 1)), d, types)
        outer = LabelledFinSet.of("w", "w")
        w = UwdDiagram(
            tree.context, junctions, outer,
            FinFn(tree.context.base, junctions.base, (0, 1)),
            FinFn(outer.base, junctions.base, (0, 1)),
        )
        with pytest.warns(UserWarning):
            out = evaluate(w, tree, d, types)
        assert out.predicate == (bottom,) * 4


class TestLazyContext:
    """A tensor's context is built on first read, from its leaves; under
    a doctrine that factorises, ``evaluate`` builds none."""

    @staticmethod
    def left_fold(d):
        pair = LabelledFinSet.of("w", "v")
        boxes = [System(pair, (1, 0, 1, 1, 1, 0)), System(LabelledFinSet.of("v"), (1, 0, 1)),
                 System(pair, (0,) * 6), System(LabelledFinSet.of("w"), (1, 1))]
        tree, nodes = boxes[0], []
        for box in boxes[1:]:
            tree = tensor_systems(tree, box, d, TYPES)
            nodes.append(tree)
        return tree, nodes

    @staticmethod
    def diagram(inner, table):
        # onto junctions (w, v, v), the first and last exposed
        junctions = LabelledFinSet.of("w", "v", "v")
        inner = LabelledFinSet.of(*inner)
        outer = LabelledFinSet.of("w", "v")
        return UwdDiagram(
            inner, junctions, outer,
            FinFn(inner.base, junctions.base, table),
            FinFn(outer.base, junctions.base, (0, 2)),
        )

    @pytest.mark.parametrize("d", [D_REL, D_TROP], ids=["relational", "min-plus"])
    def test_inner_nodes_build_no_context(self, d):
        tree, nodes = self.left_fold(d)
        w = self.diagram(("w", "v", "v", "w", "v", "w"), (0, 1, 1, 0, 2, 0))
        got = evaluate(w, tree, d, TYPES)
        assert all("context" not in vars(node) for node in nodes)
        # the root's context, read, is its leaves', and builds no other
        assert tree.context == w.inner
        assert all("context" not in vars(node) for node in nodes[:-1])
        assert got.predicate == evaluate(w, System(w.inner, tree.predicate), d, TYPES).predicate

    @pytest.mark.parametrize("inner", [
        ("w", "v", "v", "w", "w", "w"),  # a label differs inside a leaf
        ("w", "v", "v", "w", "v"),  # one port short
        ("w", "v", "v", "w", "v", "w", "w"),  # one port over
    ], ids=["label", "short", "long"])
    def test_a_mismatch_names_the_context(self, inner):
        tree, _ = self.left_fold(D_TROP)
        w = self.diagram(inner, tuple({"w": 0, "v": 1}[lab] for lab in inner))
        with pytest.raises(ContextMismatch) as exc:
            evaluate(w, tree, D_TROP, TYPES)
        assert str(exc.value) == (
            f"system context {tree.context} is not the diagram's inner boundary"
        )


class BoxMembers:
    """The joint of binary boxes, by the box: an inner tuple is a member
    when each box holds its pair (``relational_oracle`` asks ``in``), and
    costs the saturating sum of its boxes' costs (``tropical_oracle``
    asks ``get``), so the oracles need no joint predicate."""

    def __init__(self, boxes, inf):
        self.boxes, self.inf = boxes, inf

    def get(self, t, default=None):
        cost = sum(box.get(t[2 * b:2 * b + 2], self.inf) for b, box in enumerate(self.boxes))
        return min(cost, self.inf)

    def __contains__(self, t):
        return all(t[2 * b:2 * b + 2] in box for b, box in enumerate(self.boxes))


@st.composite
def shaped_queries(draw):
    """A path, star or cycle of binary boxes on 2 to 8 junctions of
    domains 0 to 2, with box data and 0 to 3 outer ports, repeats
    allowed."""
    shape = draw(st.sampled_from(["path", "star", "cycle"]))
    k = draw(st.integers(2, 8))
    edges = {
        "path": [(j, j + 1) for j in range(k - 1)],
        "star": [(0, j) for j in range(1, k)],
        "cycle": [(j, (j + 1) % k) for j in range(k)],
    }[shape]
    sizes = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    types = TypeAssignment({f"d{n}": n for n in range(3)})
    labels = [f"d{n}" for n in sizes]
    tables = [
        {t: draw(st.integers(0, 4)) for t in itertools.product(range(sizes[a]), range(sizes[b]))}
        for a, b in edges
    ]
    outer = draw(st.lists(st.integers(0, k - 1), max_size=3))
    return edges, labels, tables, outer, types


class TestEliminationBeyondTheJoint:
    """Queries whose joint predicate ``evaluate`` would not build in
    time: against the oracles, which read the boxes, and in closed
    form."""

    @given(query=shaped_queries())
    def test_shapes_against_the_oracles(self, query):
        edges, labels, tables, outer, types = query
        junctions = LabelledFinSet.of(*labels)
        out = LabelledFinSet.of(*(labels[j] for j in outer))
        for d, cap in ((D_REL, None), (D_TROP, 3)):
            inf = cap + 1 if cap else 0
            systems = []
            for (a, b), costs in zip(edges, tables):
                ctx = LabelledFinSet.of(labels[a], labels[b])
                # a relation holds the pairs of cost below 2
                pred = trop_pred(costs, ctx, types, cap) if cap else rel_pred(
                    [t for t, c in costs.items() if c < 2], ctx, types
                )
                systems.append(System(ctx, pred))
            tree = systems[0]
            for box in systems[1:]:
                tree = tensor_systems(tree, box, d, types)
            w = UwdDiagram(
                tree.context, junctions, out,
                FinFn(tree.context.base, junctions.base, tuple(j for e in edges for j in e)),
                FinFn(out.base, junctions.base, tuple(outer)),
            )
            got = evaluate(w, tree, d, types)
            if cap:
                want = tropical_oracle(w, BoxMembers(tables, inf), types, cap)
                assert trop_costs(got.predicate, out, types) == want
            else:
                members = BoxMembers([{t for t, c in costs.items() if c < 2} for costs in tables], 0)
                want = relational_oracle(w, members, types)
                assert rel_tuples(got.predicate, out, types) == want

    @pytest.mark.parametrize(
        "d, equal, unequal", [(D_REL, 1, 0), (D_TROP, 0, 4)], ids=["relational", "min-plus"]
    )
    def test_a_path_of_48_junctions(self, d, equal, unequal):
        # 47 equality boxes on a path of 48 junctions of domain 3, both
        # ends exposed and the first twice: the joint would have 3**94
        # entries, the answer holds where all three outer values agree
        k, types = 48, TypeAssignment({"v": 3})
        pair = LabelledFinSet.of("v", "v")
        box = System(pair, tuple(equal if x == y else unequal for x in range(3) for y in range(3)))
        tree = box
        for _ in range(k - 2):
            tree = tensor_systems(tree, box, d, types)
        junctions = LabelledFinSet.of(*["v"] * k)
        outer = LabelledFinSet.of("v", "v", "v")
        f = tuple(j for b in range(k - 1) for j in (b, b + 1))
        w = UwdDiagram(
            tree.context, junctions, outer,
            FinFn(tree.context.base, junctions.base, f),
            FinFn(outer.base, junctions.base, (0, k - 1, 0)),
        )
        got = evaluate(w, tree, d, types)
        assert got.predicate == tuple(
            equal if x == y == z else unequal for x, y, z in itertools.product(range(3), repeat=3)
        )
        # every step joins a junction out of 3 junctions' values, 27
        # entries, and the last reads the 27 outer assignments off 9
        plan = elimination_plan(
            tuple(f[i:i + 2] for i in range(0, len(f), 2)), (3,) * k, (0, k - 1, 0)
        )
        assert [len(s.fibres) for s in plan] == [27] * (k - 2) + [9]


def reference_plan(tables, sizes, outer):
    """``elimination_plan`` as first written, which recomputes every
    hidden junction's union in every round: the plans the incremental
    one must give, step for step."""

    def onto(ports, union):
        return reindex_map(
            tuple(map(union.index, ports)),
            tuple(sizes[j] for j in ports),
            tuple(sizes[j] for j in union),
        )

    def step(used, union, ports):
        return Step(
            tuple(slot for slot, _ in used),
            tuple(None if p == union else reader(onto(p, union)) for _, p in used),
            None if ports == union else onto(ports, union).table,
            prod(sizes[j] for j in ports),
        )

    factors = list(enumerate(tables))
    touched = {j for t in tables for j in t}
    hidden = sorted(touched.difference(outer))
    steps = []

    def union_at(j):
        return tuple(dict.fromkeys(k for _, p in factors if j in p for k in p))

    while hidden:
        j = min(hidden, key=lambda j: prod(sizes[k] for k in union_at(j)))
        hidden.remove(j)
        union = union_at(j)
        rest = tuple(k for k in union if k != j)
        steps.append(step([f for f in factors if j in f[1]], union, rest))
        factors = [f for f in factors if j not in f[1]]
        factors.append((len(tables) + len(steps) - 1, rest))
    empty = tuple(
        j for j, n in enumerate(sizes) if n == 0 and j not in touched and j not in outer
    )
    steps.append(step(factors, tuple(dict.fromkeys(outer)) + empty, outer))
    return tuple(steps)


def load_evalstream():
    """``perfbench/evalstream.py``, the eval-stream workload's query
    generator, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "evalstream.py"
    spec = importlib.util.spec_from_file_location("evalstream", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def evalstream_shapes(seed: int) -> set:
    """The (tables, sizes, outer) of every query of the eval-stream
    workload's 75-block stream for ``seed``, as ``evaluate`` hands them
    to ``elimination_plan``."""
    evalstream = load_evalstream()
    shapes = set()
    for q in evalstream.make_stream(seed, 75):
        corpus = load_corpus(json.loads(q.doc), cap=evalstream.CAP)
        if q.nested:
            w = compose_diagrams(corpus.diagrams["host"], corpus.diagrams["fill"])
        else:
            w = corpus.diagrams["query"]
        tables, start = [], 0
        for b in range(len(q.boxes)):
            end = start + corpus.systems[f"b{b}"][0].context.base.size
            tables.append(w.f.table[start:end])
            start = end
        sizes = tuple(map(corpus.types.size, w.junctions.labels))
        shapes.add((tuple(tables), sizes, w.g.table))
    return shapes


@st.composite
def plan_shapes(draw):
    """Up to 6 junctions of domain 0 to 3, up to 6 factors of up to 3
    ports each (ports may repeat a junction), and up to 3 outer ports."""
    k = draw(st.integers(1, 6))
    sizes = tuple(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)))
    junction = st.integers(0, k - 1)
    tables = tuple(
        tuple(draw(st.lists(junction, max_size=3))) for _ in range(draw(st.integers(1, 6)))
    )
    return tables, sizes, tuple(draw(st.lists(junction, max_size=3)))


class TestIncrementalPlan:
    """``elimination_plan`` updates only the unions of the junctions an
    elimination touches; its plans are the reference's, step for step."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_evalstream_shape(self, seed):
        shapes = evalstream_shapes(seed)
        assert len(shapes) > 100
        for shape in shapes:
            assert elimination_plan.__wrapped__(*shape) == reference_plan(*shape)

    @pytest.mark.parametrize("outer", [(0, 47, 0), (0, 47), ()])
    def test_the_48_path(self, outer):
        shape = (tuple((b, b + 1) for b in range(47)), (3,) * 48, outer)
        assert elimination_plan.__wrapped__(*shape) == reference_plan(*shape)

    @given(shape=plan_shapes())
    def test_random_shapes(self, shape):
        assert elimination_plan.__wrapped__(*shape) == reference_plan(*shape)


class TestReindexMemo:
    def test_leaves_of_two_diagrams_share_a_map(self):
        # the box on junctions (0, 1) has one port table and the same
        # sizes in both diagrams; their other box and outer port differ
        types = TypeAssignment({"v": 3})
        pair = LabelledFinSet.of("v", "v")
        junctions = LabelledFinSet.of("v", "v", "v")
        outer = LabelledFinSet.of("v")
        tree = tensor_systems(
            System(pair, (0,) * 9), System(pair, (1,) * 9), D_REL, types
        )

        def diagram(f, g):
            return UwdDiagram(
                tree.context, junctions, outer,
                FinFn(tree.context.base, junctions.base, f),
                FinFn(outer.base, junctions.base, g),
            )

        reindex_map.cache_clear()
        elimination_plan.cache_clear()
        evaluate(diagram((0, 1, 1, 2), (0,)), tree, D_REL, types)
        # junction 2 goes first (a union of 9 entries against 27): the
        # second box is joined onto junction 1 through one map.  Then
        # junction 1: the first box is read as it is, the new factor onto
        # junctions (0, 1) through a second map, and the join onto
        # junction 0 reuses the first
        info = reindex_map.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 2, 2)
        evaluate(diagram((0, 1, 2, 1), (2,)), tree, D_REL, types)
        # a plan of its own, built from the same two maps: three hits
        info = reindex_map.cache_info()
        assert (info.hits, info.misses, info.currsize) == (4, 2, 2)
        # and the plan is kept: a third query reads no map at all
        evaluate(diagram((0, 1, 2, 1), (2,)), tree, D_REL, types)
        assert reindex_map.cache_info() == info
        plans = elimination_plan.cache_info()
        assert (plans.hits, plans.misses, plans.currsize) == (1, 2, 2)

    def test_a_shape_is_built_once(self):
        types = TypeAssignment({"w": 2, "v": 3})
        dst = LabelledFinSet.of("v", "w", "v")
        src = LabelledFinSet.of("w", "v", "w")
        case = (FinFn(src.base, dst.base, (1, 2, 1)), src, dst, types)
        got = reindex(*case)
        assert reindex(*case) is got
        # another label with the same domain size is the same shape
        same = TypeAssignment({"w": 2, "v": 3, "x": 3})
        relabelled = LabelledFinSet.of("w", "x", "w")
        assert reindex(FinFn(src.base, dst.base, (1, 2, 1)), relabelled, dst, same) is got

    @pytest.mark.parametrize("table", [(), (2,), (0, 2, 1)])
    def test_reader_reads_every_entry(self, table):
        # an itemgetter of one entry gives no tuple: the reader does
        values = (7, 8, 9)
        m = FinFn(FinSet(len(table)), FinSet(3), table)
        assert reader(m)(values) == tuple(values[i] for i in table)


class TestShapeMemos:
    def test_every_memo_is_bounded(self):
        # no memo of ``uwd`` grows without bound
        memos = {
            name: fn for name, fn in vars(uwd).items()
            if hasattr(fn, "cache_info") and fn.__module__ == uwd.__name__
        }
        assert set(memos) == {
            "reindex_map", "reader", "elimination_plan", "compose_diagrams",
            "_context", "_diagram",
        }
        for fn in memos.values():
            assert fn.cache_parameters()["maxsize"] == uwd.REINDEX_MEMO

    def test_a_repeated_nesting_runs_no_pushout(self, monkeypatch):
        host = join_diagram()
        fill = identity_diagram(host.inner)
        compose_diagrams.cache_clear()
        first = compose_diagrams(host, fill)
        pushouts = []
        monkeypatch.setattr(uwd, "pushout", lambda *a, **k: pushouts.append(a))
        # equal diagrams, not the same objects, are the same key
        assert compose_diagrams(join_diagram(), identity_diagram(host.inner)) is first
        assert not pushouts
        info = compose_diagrams.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_a_failed_nesting_is_not_kept(self):
        w = join_diagram()
        compose_diagrams.cache_clear()
        for _ in range(2):
            with pytest.raises(BoundaryMismatch):
                compose_diagrams(w, w)
        assert compose_diagrams.cache_info().currsize == 0


def reindex_by_entry(ports, src, dst, types) -> FinFn:
    """``reindex`` by its definition: decode each dst assignment, read the
    value of every src port's junction, encode."""
    table = []
    for j in range(denote(dst, types).size):
        vals = index_tuple(j, dst, types)
        table.append(tuple_index([vals[k] for k in ports.table], src, types))
    return FinFn(denote(dst, types), denote(src, types), tuple(table))


@st.composite
def port_maps(draw):
    """A label-preserving port map src -> dst over domains 0..3: ports may
    share a junction, and junctions may be hit by no port."""
    domains = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    types = TypeAssignment({f"t{i}": n for i, n in enumerate(domains)})
    dst = draw(st.lists(st.sampled_from(sorted(types.domains)), max_size=4))
    table = draw(st.lists(st.integers(0, len(dst) - 1), max_size=5)) if dst else []
    src = LabelledFinSet.of(*(dst[j] for j in table))
    dst = LabelledFinSet.of(*dst)
    return FinFn(src.base, dst.base, tuple(table)), src, dst, types


class TestReindex:
    @given(case=port_maps())
    def test_strides_match_entry_definition(self, case):
        assert reindex(*case) == reindex_by_entry(*case)

    def test_repeated_and_unhit_junctions(self):
        # ports 0 and 2 share junction 1; junction 0 (domain 3) is unhit
        types = TypeAssignment({"w": 2, "v": 3})
        dst = LabelledFinSet.of("v", "w", "v")
        src = LabelledFinSet.of("w", "v", "w")
        case = (FinFn(src.base, dst.base, (1, 2, 1)), src, dst, types)
        got = reindex(*case)
        assert got == reindex_by_entry(*case)
        assert got.table == (0, 2, 4, 7, 9, 11) * 3  # junction 0 changes nothing


class TestOracleAgreement:
    def test_corpus_relational_and_tropical(self):
        single, nested = build_corpus(singles=12, pairs=6)
        for types, w, rel_sys, trop_sys in single:
            d_rel = powerset_doctrine(trivial_triple(3))
            d_trop = tropical_doctrine(trivial_triple(3), 3)
            got = evaluate(w, rel_sys, d_rel, types)
            want = relational_oracle(
                w, rel_tuples(rel_sys.predicate, w.inner, types), types
            )
            assert rel_tuples(got.predicate, got.context, types) == want
            got_t = evaluate(w, trop_sys, d_trop, types)
            want_t = tropical_oracle(
                w, trop_costs(trop_sys.predicate, w.inner, types), types, 3
            )
            assert trop_costs(got_t.predicate, got_t.context, types) == want_t
        for types, host, filler, rel_sys, trop_sys in nested:
            d_rel = powerset_doctrine(trivial_triple(3))
            d_trop = tropical_doctrine(trivial_triple(3), 3)
            assert functoriality_check(host, filler, rel_sys, d_rel, types)
            assert functoriality_check(host, filler, trop_sys, d_trop, types)


class TestTropCosts:
    def test_a_view_over_the_cost_vector(self):
        ctx = LabelledFinSet.of("w", "v")
        costs = trop_costs(tuple(range(6)), ctx, TYPES)
        # read entry by entry, never copied into a dict
        assert not isinstance(costs, dict)
        assert costs == dict(zip(itertools.product(range(2), range(3)), range(6)))
        assert repr(costs) == repr(dict(costs))
        assert costs[(1, 2)] == 5
        for outside in [(2, 0), (0, 3), (-1, 0), (0,), (0, 0, 0)]:
            with pytest.raises(KeyError):
                costs[outside]
        for n in (5, 7):
            with pytest.raises(ValueError):
                trop_costs(tuple(range(n)), ctx, TYPES)


class TestLargeQuery:
    def test_tropical_path_query_against_oracle(self):
        # k = 5 binary boxes on a path of 6 junctions of domain 3: the
        # joint predicate has 3**10 = 59,049 entries
        k, cap = 5, 3
        types = TypeAssignment({"v": 3})
        rng = random.Random(5)
        pair = LabelledFinSet.of("v", "v")
        boxes = [
            {t: rng.choice((0, 0, 1, 2, 3, 4)) for t in itertools.product(range(3), repeat=2)}
            for _ in range(k)
        ]
        joint = System(pair, trop_pred(boxes[0], pair, types, cap))
        for costs in boxes[1:]:
            box = System(pair, trop_pred(costs, pair, types, cap))
            joint = tensor_systems(joint, box, D_TROP, types)
        junctions = LabelledFinSet.of(*["v"] * (k + 1))
        outer = LabelledFinSet.of("v", "v")
        w = UwdDiagram(
            joint.context, junctions, outer,
            FinFn(joint.context.base, junctions.base,
                  tuple(j for b in range(k) for j in (b, b + 1))),
            FinFn(outer.base, junctions.base, (0, k)),
        )
        got = evaluate(w, joint, D_TROP, types)
        # the oracle's joint costs come from the box dicts, not the codec
        joint_costs = {
            t: min(sum(boxes[b][t[2 * b:2 * b + 2]] for b in range(k)), cap + 1)
            for t in itertools.product(range(3), repeat=2 * k)
        }
        want = tropical_oracle(w, joint_costs, types, cap)
        assert trop_costs(got.predicate, outer, types) == want
        assert len(set(want.values())) > 1


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 9),
    st.floats(-2, 9, allow_nan=False, allow_infinity=False),
    st.just("inf"),
    st.text("0123456789abcdefx-", max_size=3),
)
DOMAINS = {"w": 2, "v": 3}


@st.composite
def system_specs(draw):
    """A system spec whose data is, half the time, a mask or a cost array
    sized for its context (masks may overflow), and any JSON value or
    array otherwise."""
    context = draw(st.lists(st.sampled_from(sorted(DOMAINS)), max_size=2))
    n = 1
    for lab in context:
        n *= DOMAINS[lab]
    semantics = draw(st.sampled_from(["rel", "trop"]))
    if not draw(st.booleans()):
        data = draw(st.one_of(JSON_VALUES, st.lists(JSON_VALUES, max_size=9)))
    elif semantics == "rel":
        data = format(draw(st.integers(0, 2**n + 1)), "x")
    else:
        data = draw(st.lists(st.one_of(st.integers(0, 6), st.just("inf")),
                             min_size=n, max_size=n))
    return {"context": context, "semantics": semantics, "data": data}


class TestFileFormat:
    @given(spec=system_specs())
    def test_load_corpus_rejects_or_roundtrips(self, spec):
        def doc(data):
            return {
                "labels": sorted(DOMAINS), "domains": DOMAINS, "diagrams": {},
                "systems": {"x": dict(spec, data=data)},
            }

        try:
            corpus = load_corpus(doc(spec["data"]), cap=3)
        except ValueError:
            return
        sys, semantics = corpus.systems["x"]
        text = format_predicate(sys, semantics, corpus.types, 3)
        again = load_corpus(doc(text if semantics == "rel" else json.loads(text)), cap=3)
        assert again.systems["x"][0].predicate == sys.predicate

    def test_load_corpus_file(self):
        import pathlib

        path = pathlib.Path(__file__).parent / "data" / "uwd_corpus.json"
        corpus = load_corpus_file(str(path))
        assert "relational-composition" in corpus.diagrams
        sys, semantics = corpus.systems["join-input"]
        assert semantics == "rel"
        # "40": bit 6 of the 16 tuples over four binary ports
        assert sys.predicate == rel_pred([(0, 1, 1, 0)], sys.context, corpus.types)

    def test_unknown_semantics_rejected(self):
        doc = {
            "labels": ["w"], "domains": {"w": 2}, "diagrams": {},
            "systems": {"x": {"context": ["w"], "semantics": "huh", "data": "0"}},
        }
        with pytest.raises(ValueError):
            load_corpus(doc)

    def test_missing_domain_rejected(self):
        with pytest.raises(ValueError):
            load_corpus({"labels": ["w"], "domains": {}})

    @pytest.mark.parametrize("field", ["context", "inner", "junctions", "outer"])
    def test_label_string_rejected(self, field):
        # "wv" must not load as the labels w, v
        doc = {
            "labels": ["w", "v"], "domains": {"w": 2, "v": 3},
            "diagrams": {"d": {"inner": ["w", "v"], "junctions": ["w", "v"],
                               "outer": ["w", "v"], "f": [0, 1], "g": [0, 1]}},
            "systems": {"x": {"context": ["w", "v"], "semantics": "rel", "data": "1"}},
        }
        load_corpus(doc)
        spec = doc["systems"]["x"] if field == "context" else doc["diagrams"]["d"]
        spec[field] = "wv"
        with pytest.raises(ValueError, match="not a list of labels"):
            load_corpus(doc)

    @pytest.mark.parametrize(
        "field, table", [("f", "01"), ("g", [0.0]), ("f", None)],
        ids=["string-f", "float-g", "null-f"],
    )
    def test_port_map_not_int_list_rejected(self, field, table):
        doc = {
            "labels": ["w"], "domains": {"w": 2},
            "diagrams": {"d": {"inner": ["w", "w"], "junctions": ["w", "w"],
                               "outer": ["w"], "f": [0, 1], "g": [0]}},
        }
        load_corpus(doc)
        doc["diagrams"]["d"][field] = table
        with pytest.raises(ValueError, match="not a list of junctions"):
            load_corpus(doc)

    @staticmethod
    def _named_doc():
        return {
            "labels": ["w", "v"], "domains": {"w": 2, "v": 3},
            "diagrams": {"d": {"inner": ["w", "v"], "junctions": ["w", "v"],
                               "outer": ["v"], "f": [0, 1], "g": [1]}},
            "systems": {"x": {"context": ["w"], "semantics": "rel", "data": "1"}},
        }

    @pytest.mark.parametrize("entry, key", [
        *(("diagrams", key) for key in ("inner", "junctions", "outer", "f", "g")),
        *(("systems", key) for key in ("context", "semantics", "data")),
    ])
    def test_missing_key_names_entry_and_key(self, entry, key):
        # a missing key was a bare KeyError, printed as "error: 'g'"
        doc = self._named_doc()
        load_corpus(doc)
        name = "d" if entry == "diagrams" else "x"
        del doc[entry][name][key]
        what = "diagram d" if entry == "diagrams" else "system x"
        with pytest.raises(ValueError) as exc:
            load_corpus(doc)
        assert str(exc.value) == f'{what}: missing key "{key}"'

    @pytest.mark.parametrize("field, value, message", [
        ("f", [0, 2], "f sends inner port 1 to junction 2, outside the 2 junctions"),
        ("g", [-1], "g sends outer port 0 to junction -1, outside the 2 junctions"),
        ("f", [0], "f has length 1, not the number of inner ports (2)"),
        ("g", [1, 1], "g has length 2, not the number of outer ports (1)"),
        ("f", [1, 0], "inner port 0 (w) on junction 1 (v)"),
        ("inner", ["w", "q"], 'inner: no domain for label "q"'),
    ], ids=["f-outside", "g-negative", "f-short", "g-long", "label-clash", "unknown-label"])
    def test_bad_leg_names_diagram_and_leg(self, field, value, message):
        # a leg table out of range or of the wrong length named neither
        # the diagram nor the leg
        doc = self._named_doc()
        load_corpus(doc)
        doc["diagrams"]["d"][field] = value
        with pytest.raises((ValueError, LabelClash)) as exc:
            load_corpus(doc)
        assert str(exc.value) == f"diagram d: {message}"

    @pytest.mark.parametrize("labels, message", [
        (["w", "q"], 'inner: no domain for label "q"'),
        (["w", 1], 'inner ["w", 1] is not a list of labels'),
        (["w", ["v"]], 'inner ["w", ["v"]] is not a list of labels'),
    ], ids=["unknown-label", "not-a-label", "unhashable"])
    def test_a_bad_label_list_is_named_at_its_first_entry(self, labels, message):
        # a label list is checked once per document; a bad one repeated
        # over the sides of a diagram and a system is still reported
        # where it first appears, with the same message
        doc = self._named_doc()
        d, x = doc["diagrams"]["d"], doc["systems"]["x"]
        for side in ("inner", "junctions", "outer"):
            d[side] = labels
        x["context"] = labels
        with pytest.raises(ValueError) as exc:
            load_corpus(doc)
        assert str(exc.value) == f"diagram d: {message}"
        del doc["diagrams"]
        with pytest.raises(ValueError) as exc:
            load_corpus(doc)
        assert str(exc.value) == f"system x: {message.replace('inner', 'context')}"

    def test_a_label_list_is_checked_once(self):
        doc = self._named_doc()
        doc["systems"]["x"]["context"] = ["w", "v"]
        doc["systems"]["x"]["data"] = "3f"
        corpus = load_corpus(doc)
        # one context for every entry that carries the list
        inner = corpus.diagrams["d"].inner
        assert corpus.diagrams["d"].junctions is inner
        assert corpus.systems["x"][0].context is inner

    @pytest.mark.parametrize("change, message", [
        (lambda doc: doc["diagrams"]["d"].update(f=[0, True]),
         "diagram d: f [0, true] is not a list of junctions"),
        (lambda doc: doc["diagrams"]["d"].update(f=[0, 1.0]),
         "diagram d: f [0, 1.0] is not a list of junctions"),
        (lambda doc: doc["diagrams"]["d"].update(g=[True]),
         "diagram d: g [true] is not a list of junctions"),
        (lambda doc: doc["diagrams"]["d"].update(inner="wv"),
         'diagram d: inner "wv" is not a list of labels'),
        (lambda doc: doc["diagrams"]["d"].update(junctions="wv"),
         'diagram d: junctions "wv" is not a list of labels'),
        (lambda doc: doc["systems"]["x"].update(context="w"),
         'system x: context "w" is not a list of labels'),
        (lambda doc: doc["diagrams"].update(e=doc["diagrams"]["d"] | {"g": [0]}),
         "diagram e: outer port 0 (v) on junction 0 (w)"),
        (lambda doc: doc["domains"].update(v=4),
         "diagram d: inner denotes more than 6 tuples, above the size guard; "
         "rerun with --force"),
    ], ids=["true-in-f", "float-in-f", "true-in-g", "string-inner", "string-junctions",
            "string-context", "another-name", "other-domains"])
    def test_a_loaded_diagram_is_no_key_for_a_bad_one(self, change, message):
        # the memo key is exact: after the diagram has loaded, a value
        # that equals or hashes like one of its own still fails, with the
        # message of a first load
        doc = self._named_doc()
        first = load_corpus(copy.deepcopy(doc), max_size=6).diagrams["d"]
        change(doc)
        with pytest.raises((ValueError, LabelClash)) as exc:
            load_corpus(doc, max_size=6)
        assert str(exc.value) == message
        # and a failure is not kept: it fails again, and the good diagram
        # is still found
        with pytest.raises((ValueError, LabelClash)):
            load_corpus(doc, max_size=6)
        assert load_corpus(self._named_doc(), max_size=6).diagrams["d"] is first

    def test_the_size_guard_is_in_the_key(self):
        doc = self._named_doc()
        load_corpus(doc)
        with pytest.raises(ValueError) as exc:
            load_corpus(doc, max_size=5)
        assert str(exc.value) == (
            "diagram d: inner denotes more than 5 tuples, above the size guard; "
            "rerun with --force"
        )

    def test_a_repeated_diagram_is_one_object(self):
        first = load_corpus(self._named_doc())
        again = load_corpus(self._named_doc())
        assert again.diagrams["d"] is first.diagrams["d"]
        assert again.systems["x"][0].context is first.systems["x"][0].context
        # the same labels with other domains are another key, and another
        # context
        other = self._named_doc()
        other["domains"] = {"w": 2, "v": 4}
        corpus = load_corpus(other)
        assert corpus.diagrams["d"] == first.diagrams["d"]
        assert corpus.diagrams["d"] is not first.diagrams["d"]
        assert corpus.diagrams["d"].inner is not first.diagrams["d"].inner
        # and the label list is still one context within the document
        assert corpus.diagrams["d"].junctions is corpus.diagrams["d"].inner

    def test_a_diagram_is_kept_under_any_name(self):
        doc = self._named_doc()
        first = load_corpus(doc).diagrams["d"]
        doc["diagrams"] = {"e": doc["diagrams"]["d"]}
        assert load_corpus(doc).diagrams["e"] is first
        # a failing one is named where it fails, each time
        doc["diagrams"]["e"]["g"] = [0]
        for name in ("e", "d", "e"):
            doc["diagrams"] = {name: doc["diagrams"].popitem()[1]}
            with pytest.raises(LabelClash) as exc:
                load_corpus(doc)
            assert str(exc.value) == f"diagram {name}: outer port 0 (v) on junction 0 (w)"

    def test_cost_array_length_checked(self):
        doc = {
            "labels": ["w"], "domains": {"w": 2}, "diagrams": {},
            "systems": {
                "x": {"context": ["w"], "semantics": "trop", "data": [1, 2, 3]}
            },
        }
        with pytest.raises(ValueError):
            load_corpus(doc)

    @pytest.mark.parametrize(
        "semantics, data",
        [
            ("rel", "-1"),  # int(..., 16) would read predicate -1
            ("rel", "ff"),  # bits beyond the 2-tuple product
            ("rel", "0x3"),
            ("rel", ""),
            ("trop", [-3, 1]),  # would wrap round to [2, 1]
            ("trop", [1.5, 1]),  # would truncate to [1, 1]
            ("trop", [True, 1]),
            ("trop", ["1", 1]),
            ("trop", 5),  # iterating a non-array would raise TypeError
            ("trop", None),
        ],
        ids=["negative-mask", "mask-overflow", "hex-prefix", "empty-mask",
             "negative-cost", "fractional-cost", "boolean-cost", "string-cost",
             "scalar-costs", "null-costs"],
    )
    def test_malformed_data_rejected(self, semantics, data):
        doc = {
            "labels": ["w"], "domains": {"w": 2}, "diagrams": {},
            "systems": {"x": {"context": ["w"], "semantics": semantics, "data": data}},
        }
        with pytest.raises(ValueError):
            load_corpus(doc)

    def test_boundary_data_accepted(self):
        doc = {
            "labels": ["w", "z"], "domains": {"w": 2, "z": 0}, "diagrams": {},
            "systems": {
                "full": {"context": ["w"], "semantics": "rel", "data": "3"},
                "big": {"context": ["w"], "semantics": "trop", "data": [0, 7]},
            },
        }
        corpus = load_corpus(doc, cap=3)
        full, _ = corpus.systems["full"]
        big, _ = corpus.systems["big"]
        assert full.predicate == (1, 1)
        assert corpus.types.size("z") == 0  # an empty domain is a size
        # costs above the cap saturate to infinity
        assert format_predicate(big, "trop", corpus.types, 3) == '[0, "inf"]'

    @pytest.mark.parametrize("context, data, pred", [
        (["w"], "0", (0, 0, 0)),
        (["w"], "7", (1, 1, 1)),
        (["w"], "6", (0, 1, 1)),
        (["w", "w", "w"], "7ffffff", (1,) * 27),
        (["z"], "0", ()),
    ], ids=["zero", "full", "bit-order", "full-27", "zero-size"])
    def test_mask_codec_roundtrips(self, context, data, pred):
        # a hex mask loads as the 0/1 tuple of its bits, bit i entry i,
        # and prints back as the same mask
        doc = {
            "labels": ["w", "z"], "domains": {"w": 3, "z": 0}, "diagrams": {},
            "systems": {"x": {"context": context, "semantics": "rel", "data": data}},
        }
        corpus = load_corpus(doc)
        sys, _ = corpus.systems["x"]
        assert sys.predicate == pred
        assert format_predicate(sys, "rel", corpus.types, 3) == data

    @pytest.mark.parametrize("context, data", [
        (["w"], "8"), (["w"], "f"), (["z"], "1"),
    ], ids=["one-bit-beyond", "full-byte", "zero-size"])
    def test_mask_bits_beyond_product_refused(self, context, data):
        doc = {
            "labels": ["w", "z"], "domains": {"w": 3, "z": 0}, "diagrams": {},
            "systems": {"x": {"context": context, "semantics": "rel", "data": data}},
        }
        with pytest.raises(ValueError, match="has bits beyond"):
            load_corpus(doc)

    def test_format_predicate_roundtrip(self):
        ctx = LabelledFinSet.of("w")
        sys = System(ctx, trop_pred({(0,): 2, (1,): 4}, ctx, TYPES, 3))
        assert json.loads(format_predicate(sys, "trop", TYPES, 3)) == [2, "inf"]
