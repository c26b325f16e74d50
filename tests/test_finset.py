import copy
import itertools
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from doctrina.errors import CodMismatch, DomMismatch, LabelClash
from doctrina.finset import (
    AdequateTriple,
    FinFn,
    FinSet,
    LabelledFinSet,
    MorClass,
    Universe,
    bang,
    check_adequate_triple,
    compose,
    diagonal,
    finsets,
    fn_product,
    functions,
    injection_right_triple,
    product,
    product_table,
    pullback,
    pushout,
    surjection_triple,
    swap_fn,
    swap_table,
    terminal,
    trivial_triple,
)
from doctrina.uwd import TypeAssignment, denote


def brute_pullback_pairs(x, y):
    """Independent oracle: matching pairs in lexicographic order."""
    return [
        (a, b)
        for a in range(x.dom.size)
        for b in range(y.dom.size)
        if x.table[a] == y.table[b]
    ]


def quotient_oracle(f, g):
    """Independent pushout oracle: repeatedly merge overlapping blocks."""
    n1, n2 = f.cod.size, g.cod.size
    blocks = [{i} for i in range(n1 + n2)]
    for x in range(f.dom.size):
        u, v = f.table[x], n1 + g.table[x]
        bu = next(b for b in blocks if u in b)
        bv = next(b for b in blocks if v in b)
        if bu is not bv:
            blocks.remove(bu)
            blocks.remove(bv)
            blocks.append(bu | bv)
    return [frozenset(b) for b in blocks]


class TestValueSemantics:
    def test_equal_functions_built_apart_hash_equal(self):
        for f in Universe(trivial_triple(2), 2).maps:
            g = FinFn(FinSet(f.dom.size), FinSet(f.cod.size), tuple(list(f.table)))
            assert g is not f and g == f and hash(g) == hash(f)
            assert {f, g} == {f}

    def test_cached_hash_is_the_field_hash(self):
        # the hash a frozen dataclass would compute, so set and dict
        # orders, and the reports built from them, are unchanged
        f = FinFn(FinSet(2), FinSet(3), (2, 0))
        assert hash(f) == hash((f.dom, f.cod, f.table))

    def test_frozen_and_slotted(self):
        f = FinFn.identity(FinSet(2))
        for attr in ("table", "_hash"):
            with pytest.raises(FrozenInstanceError):
                setattr(f, attr, ())
        assert not hasattr(f, "__dict__")


class TestOneFinSetPerSize:
    """A finite set is fixed by its size, and is one object per size."""

    def test_one_object_per_size(self):
        for n in range(6):
            assert FinSet(n) is FinSet(n)
            assert FinSet(n) == FinSet(n) and FinSet(n) != FinSet(n + 1)
        assert LabelledFinSet.of("w", "v", "w").base is FinSet(3)
        assert product(FinSet(2), FinSet(3)).prod is FinSet(6)
        assert fn_product(FinFn.identity(FinSet(2)), bang(FinSet(2))).cod is FinSet(2)
        ctx = LabelledFinSet.of("w", "v")
        assert denote(ctx, TypeAssignment({"w": 2, "v": 3})) is FinSet(6)
        assert pullback(bang(FinSet(2)), bang(FinSet(3))).apex is FinSet(6)

    def test_immutable(self):
        a = FinSet(2)
        for attr in ("size", "_hash", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(a, attr, 3)
            with pytest.raises(FrozenInstanceError):
                delattr(a, attr)
        assert a.size == 2 and not hasattr(a, "__dict__")

    def test_copy_and_pickle_return_the_interned_object(self):
        a = FinSet(4)
        assert copy.copy(a) is a and copy.deepcopy(a) is a
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(a, protocol)) is a
        f = FinFn(FinSet(2), FinSet(3), (2, 0))
        for g in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g == f and g.dom is f.dom and g.cod is f.cod

    def test_hash_is_the_dataclass_hash(self):
        # the hash the former frozen dataclass gave, so every FinFn and
        # Span hash, and every hash-ordered container, is unchanged
        # (the FinFn figure is that of a 64-bit build)
        for n in range(6):
            assert hash(FinSet(n)) == hash((n,))
        assert hash(FinFn(FinSet(2), FinSet(3), (2, 0))) == -1575861588701281296

    @pytest.mark.parametrize("size", [2.5, 2.0, "2", None])
    def test_non_integer_size_refused(self, size):
        with pytest.raises(TypeError):
            FinSet(size)

    def test_negative_size_refused(self):
        with pytest.raises(ValueError, match="negative size -1"):
            FinSet(-1)


class TestCompose:
    def test_identity(self):
        i = FinFn.identity(FinSet(2))
        assert compose(i, i) == i

    def test_constant_then_point(self):
        f = FinFn(FinSet(2), FinSet(1), (0, 0))
        g = FinFn(FinSet(1), FinSet(2), (1,))
        assert compose(f, g).table == (1, 1)

    def test_swap_involution(self):
        swap = FinFn(FinSet(2), FinSet(2), (1, 0))
        assert compose(swap, swap) == FinFn.identity(FinSet(2))

    def test_cod_mismatch(self):
        f = FinFn(FinSet(1), FinSet(2), (0,))
        with pytest.raises(CodMismatch):
            compose(f, f)

    @given(
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
        st.integers(1, 3), st.data(),
    )
    def test_associative(self, na, nb, nc, nd, data):
        def draw_fn(m, n):
            return FinFn(
                FinSet(m), FinSet(n),
                tuple(data.draw(st.integers(0, n - 1)) for _ in range(m)),
            )

        f, g, h = draw_fn(na, nb), draw_fn(nb, nc), draw_fn(nc, nd)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


class TestPullback:
    def test_along_identity_verbatim(self):
        x = FinFn(FinSet(2), FinSet(1), (0, 0))
        apex, p, q = pullback(x, FinFn.identity(FinSet(1)))
        assert (apex, p, q) == (x.dom, FinFn.identity(x.dom), x)

    def test_identity_first_leg(self):
        x = FinFn.identity(FinSet(2))
        y = FinFn(FinSet(1), FinSet(2), (1,))
        apex, p, q = pullback(x, y)
        assert apex.size == 1
        assert (p.table[0], q.table[0]) == (1, 0)

    def test_constant_both(self):
        x = FinFn(FinSet(2), FinSet(1), (0, 0))
        apex, p, q = pullback(x, x)
        assert apex.size == 4
        assert list(zip(p.table, q.table)) == brute_pullback_pairs(x, x)

    def test_matches_pair_oracle(self):
        z = FinSet(2)
        for a in finsets(3):
            for b in finsets(3):
                for x in functions(a, z):
                    for y in functions(b, z):
                        apex, p, q = pullback(x, y)
                        pairs = sorted(zip(p.table, q.table))
                        assert pairs == sorted(brute_pullback_pairs(x, y))
                        assert apex.size == len(pairs)

    def test_universal_property(self):
        # every competitor cone factors uniquely, sets <= 3
        z = FinSet(2)
        for a in finsets(2):
            for b in finsets(2):
                for x in functions(a, z):
                    for y in functions(b, z):
                        apex, p, q = pullback(x, y)
                        index = {
                            (p.table[k], q.table[k]): k for k in range(apex.size)
                        }
                        for w in finsets(3):
                            for z1 in functions(w, a):
                                for z2 in functions(w, b):
                                    if compose(z1, x) != compose(z2, y):
                                        continue
                                    mediators = [
                                        m
                                        for m in functions(w, apex)
                                        if compose(m, p) == z1 and compose(m, q) == z2
                                    ]
                                    assert len(mediators) == 1
                                    want = tuple(
                                        index[(z1.table[i], z2.table[i])]
                                        for i in range(w.size)
                                    )
                                    assert mediators[0].table == want


class TestPushout:
    def test_identities(self):
        i = FinFn.identity(FinSet(1))
        po = pushout(i, i)
        assert po.apex.size == 1

    def test_glued_endpoint(self):
        f = FinFn(FinSet(1), FinSet(2), (0,))
        g = FinFn(FinSet(1), FinSet(2), (1,))
        po = pushout(f, g)
        assert po.apex.size == 3
        # the glued class contains left-0 and right-1
        assert po.i1.table[0] == po.i2.table[1]

    def test_empty_gluing_disjoint_union(self):
        f = FinFn(FinSet(0), FinSet(2), ())
        g = FinFn(FinSet(0), FinSet(3), ())
        po = pushout(f, g)
        assert po.apex.size == 5

    @given(
        st.integers(1, 3), st.integers(1, 3), st.integers(0, 3), st.data()
    )
    def test_matches_quotient_oracle(self, n1, n2, k, data):
        dom = FinSet(k)
        f = FinFn(dom, FinSet(n1), tuple(data.draw(st.integers(0, n1 - 1)) for _ in range(k)))
        g = FinFn(dom, FinSet(n2), tuple(data.draw(st.integers(0, n2 - 1)) for _ in range(k)))
        po = pushout(f, g)
        blocks = quotient_oracle(f, g)
        assert po.apex.size == len(blocks)
        # classes agree: elements mapped together iff in the same block
        for i in range(n1):
            for j in range(n2):
                same = po.i1.table[i] == po.i2.table[j]
                block_same = any(i in b and (n1 + j) in b for b in blocks)
                assert same == block_same

    def test_couniversal_property(self):
        f = FinFn(FinSet(1), FinSet(2), (0,))
        g = FinFn(FinSet(1), FinSet(2), (1,))
        po = pushout(f, g)
        for w in finsets(3):
            for u in functions(f.cod, w):
                for v in functions(g.cod, w):
                    if compose(f, u) != compose(g, v):
                        continue
                    mediators = [
                        m
                        for m in functions(po.apex, w)
                        if compose(po.i1, m) == u and compose(po.i2, m) == v
                    ]
                    assert len(mediators) == 1

    def test_label_inheritance_and_clash(self):
        f = FinFn(FinSet(1), FinSet(2), (0,))
        g = FinFn(FinSet(1), FinSet(2), (1,))
        po = pushout(f, g, labels=(("a", "b"), ("c", "a")))
        assert po.labels == ("a", "b", "c")
        with pytest.raises(LabelClash):
            pushout(f, g, labels=(("a", "b"), ("c", "d")))

    def test_label_clash_messages(self):
        # labels merge left block first, so a clash inside the left block
        # names its two left labels, and a clash across the blocks names
        # the left label against the right one
        f = FinFn(FinSet(2), FinSet(2), (0, 1))
        g = FinFn(FinSet(2), FinSet(1), (0, 0))
        with pytest.raises(LabelClash, match=r"^class 0: 'a' vs 'b'$"):
            pushout(f, g, labels=(("a", "b"), ("a",)))
        f = FinFn(FinSet(1), FinSet(2), (1,))
        g = FinFn(FinSet(1), FinSet(1), (0,))
        with pytest.raises(LabelClash, match=r"^class 1: 'b' vs 'c'$"):
            pushout(f, g, labels=(("a", "b"), ("c",)))

    def test_labels_must_match_the_codomains(self):
        f = FinFn(FinSet(1), FinSet(2), (0,))
        g = FinFn(FinSet(1), FinSet(2), (1,))
        with pytest.raises(ValueError):
            pushout(f, g, labels=(("a",), ("c", "a")))

    def test_dom_mismatch(self):
        f = FinFn(FinSet(1), FinSet(2), (0,))
        g = FinFn(FinSet(2), FinSet(2), (0, 1))
        with pytest.raises(DomMismatch):
            pushout(f, g)


class TestProducts:
    def test_row_major(self):
        prod, pa, pb = product(FinSet(2), FinSet(3))
        assert prod.size == 6
        assert pa.table == (0, 0, 0, 1, 1, 1)
        assert pb.table == (0, 1, 2, 0, 1, 2)

    def test_diagonal(self):
        assert diagonal(FinSet(2)).table == (0, 3)

    def test_terminal_and_bang(self):
        assert terminal().size == 1
        assert bang(FinSet(3)).table == (0, 0, 0)

    def test_projection_after_diagonal(self):
        for n in range(4):
            a = FinSet(n)
            d = diagonal(a)
            _, pa, pb = product(a, a)
            assert compose(d, pa) == FinFn.identity(a)
            assert compose(d, pb) == FinFn.identity(a)

    def test_swap_after_diagonal(self):
        for n in range(4):
            a = FinSet(n)
            assert compose(diagonal(a), swap_fn(a, a)) == diagonal(a)

    def test_fn_product_commutes_with_projections(self):
        f = FinFn(FinSet(2), FinSet(3), (2, 0))
        g = FinFn(FinSet(3), FinSet(2), (1, 1, 0))
        fg = fn_product(f, g)
        _, pa, pb = product(f.dom, g.dom)
        _, qa, qb = product(f.cod, g.cod)
        assert compose(fg, qa) == compose(pa, f)
        assert compose(fg, qb) == compose(pb, g)


def divmod_product_table(ft, gt, gc):
    """Reference: the table of f x g read off each product index by divmod,
    as fn_product and map_product computed it before ``product_table``."""
    nb = len(gt)
    return tuple(ft[k // nb] * gc + gt[k % nb] for k in range(len(ft) * nb))


def divmod_swap_table(na, nb):
    """Reference: the symmetry a x b -> b x a read off each index by divmod."""
    return tuple((k % nb) * na + k // nb for k in range(na * nb))


class TestProductTables:
    SIZES = range(5)

    def test_product_table_is_the_divmod_formula(self):
        # one table per pair of sizes, spread over its codomain
        def table(n, c):
            return tuple((3 * i + 1) % c for i in range(n)) if c else ()

        for na, fc, nb, gc in itertools.product(self.SIZES, repeat=4):
            if (na and not fc) or (nb and not gc):
                continue
            ft, gt = table(na, fc), table(nb, gc)
            assert product_table(ft, gt, gc) == divmod_product_table(ft, gt, gc)

    def test_swap_table_is_the_divmod_formula(self):
        for na, nb in itertools.product(self.SIZES, repeat=2):
            assert swap_table(na, nb) == divmod_swap_table(na, nb)


class TestAdequateTriples:
    def test_trivial_passes(self):
        assert check_adequate_triple(trivial_triple(3)).passed

    def test_surjection_triple_passes(self):
        rep = check_adequate_triple(surjection_triple(3))
        assert rep.passed
        assert rep.find("triple.projections").notes

    def test_injection_right_fails_exactly_projections(self):
        rep = check_adequate_triple(injection_right_triple(3))
        failing = [c.clause for c in rep.clauses if not c.passed]
        assert failing == ["triple.projections"]
        assert "1x2->1 not in R" in rep.find("triple.projections").witnesses[0]

    def test_explicit_class_closure_is_verified(self):
        id0 = FinFn.identity(FinSet(0))
        id1 = FinFn.identity(FinSet(1))
        empty_to_1 = FinFn(FinSet(0), FinSet(1), ())
        # {id, id} misses the projection 0x1 -> 1 of the empty product
        short = AdequateTriple(1, MorClass.explicit([id0, id1]), MorClass.all())
        rep = check_adequate_triple(short)
        assert not rep.find("triple.projections").passed
        # closing up under that projection makes the triple adequate
        full = AdequateTriple(
            1, MorClass.explicit([id0, id1, empty_to_1]), MorClass.all()
        )
        assert check_adequate_triple(full).passed

    def test_universe_bound_guard(self):
        with pytest.raises(ValueError):
            check_adequate_triple(AdequateTriple(0, MorClass.all(), MorClass.all()))


def test_table_membership_is_the_map_membership():
    # ``MorClass.has`` decides membership on a table and a codomain
    # size, and ``contains`` reads it; both must agree with the class's
    # definition on every map between sets of at most 3 elements
    maps = [f for a in finsets(3) for b in finsets(3) for f in functions(a, b)]
    members = frozenset(f for f in maps if f.dom.size == f.cod.size or f.cod.size == 1)
    defined = {
        "all": lambda f: True,
        "inj": lambda f: f.is_injective,
        "surj": lambda f: f.is_surjective,
        "explicit": lambda f: f in members,
    }
    classes = {
        "all": MorClass.all(), "inj": MorClass.injections(),
        "surj": MorClass.surjections(), "explicit": MorClass.explicit(members),
    }
    for kind, cls in classes.items():
        verdicts = [defined[kind](f) for f in maps]
        assert [cls.has(f.table, f.cod.size) for f in maps] == verdicts, kind
        assert [cls.contains(f) for f in maps] == verdicts, kind
        if kind != "all":
            assert any(verdicts) and not all(verdicts), kind
