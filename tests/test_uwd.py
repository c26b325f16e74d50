import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from doctrina.errors import BoundaryMismatch, ContextMismatch, LabelClash
from doctrina.finset import FinFn, FinSet, LabelledFinSet, trivial_triple
from doctrina.doctrine import powerset_doctrine, tropical_doctrine
from doctrina.uwd import (
    System,
    TypeAssignment,
    UwdDiagram,
    compose_diagrams,
    denote,
    disjoint_union,
    evaluate,
    format_predicate,
    functoriality_check,
    identity_diagram,
    index_tuple,
    load_corpus,
    load_corpus_file,
    reindex,
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
