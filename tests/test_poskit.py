import itertools
import random
from dataclasses import FrozenInstanceError
from functools import reduce

import pytest

from doctrina.errors import ShapeMismatch
from doctrina.finset import FinFn, FinSet
from doctrina.poskit import (
    MonoPoset,
    MonotoneMap,
    Poset,
    boolean_meet,
    bottom_element,
    chain,
    check_mono_poset,
    iso_maps,
    join_column,
    join_table,
    leq_maps,
    map_product,
    min_plus,
    monotone_map,
    power_fiber,
    power_poset,
    product_poset,
    span_table,
    swap_map,
    trop_index,
    trop_value_poset,
    trop_values,
    tropical_fiber,
    value_index,
    value_tuples,
)
from doctrina.doctrine import powerset_doctrine
from doctrina.finset import trivial_triple


class TestPoset:
    def test_rejects_non_reflexive(self):
        with pytest.raises(ValueError):
            Poset(2, (0b01, 0b00))

    def test_rejects_non_transitive(self):
        # 0<=1, 1<=2, but not 0<=2
        with pytest.raises(ValueError):
            Poset(3, (0b011, 0b110, 0b100))

    def test_rejects_non_transitivity_two_steps_up(self):
        # 0<=1<=2 and 0<=2 close up, but 2<=3 and not 0<=3: from 0 the gap
        # shows only at 2, which is not a cover of 0, so a check along
        # covers alone would first report it at 1 <= 2
        with pytest.raises(ValueError, match=r"^not transitive through 0 <= 2$"):
            Poset(4, (0b0111, 0b0110, 0b1100, 0b1000))

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError):
            Poset(2, (0b11, 0b11))

    def test_chain_order(self):
        c = chain(3)
        assert c.le(0, 2) and not c.le(2, 0)

    def test_subset_lattice_is_inclusion(self):
        for n in range(4):
            p = power_poset(chain(2), n)
            assert p.size == 1 << n
            for s in range(p.size):
                for t in range(p.size):
                    assert p.le(s, t) == (s & ~t == 0)

    @pytest.mark.parametrize("n, cap", itertools.product(range(4), range(3)))
    def test_trop_carrier_is_pointwise_ge(self, n, cap):
        p = power_poset(trop_value_poset(cap), n)
        values = value_tuples(n, cap + 2)
        assert p.size == len(values)
        for s, x in enumerate(values):
            for t, y in enumerate(values):
                assert p.le(s, t) == all(a >= b for a, b in zip(x, y))

    def test_cover_pairs_generate_order(self):
        p = power_poset(chain(2), 3)
        covers = set(p.covers)
        # covers of the subset lattice add exactly one element
        assert all(bin(j & ~i).count("1") == 1 for i, j in covers)
        assert len(covers) == 3 * 4  # n * 2^(n-1)


class TestMonotoneMap:
    def test_monotone_validation(self):
        c = chain(2)
        with pytest.raises(ValueError):
            monotone_map(c, c, (1, 0))

    def test_composite_of_monotones_is_monotone(self):
        p = power_poset(chain(2), 2)
        f = monotone_map(p, p, tuple(s & 0b01 for s in range(4)))
        g = monotone_map(p, p, tuple(s | 0b10 for s in range(4)))
        assert f.then(g).is_monotone()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            MonotoneMap.identity(chain(2)).then(MonotoneMap.identity(chain(3)))

    @pytest.mark.parametrize("table", [(0, 2), (-1, 0), (0,)])
    def test_table_outside_codomain_or_short(self, table):
        with pytest.raises(ValueError):
            MonotoneMap(chain(2), chain(2), table)

    def test_frozen_and_slotted(self):
        m = MonotoneMap.identity(chain(2))
        with pytest.raises(FrozenInstanceError):
            m.table = (0, 0)
        assert not hasattr(m, "__dict__")


class TestCell2:
    def test_equal_maps_hold_both_ways(self):
        f = MonotoneMap.identity(chain(2))
        assert leq_maps(f, f)
        assert iso_maps(f, f)

    def test_constants_on_chain(self):
        c = chain(2)
        lo = monotone_map(c, c, (0, 0))
        hi = monotone_map(c, c, (1, 1))
        assert leq_maps(lo, hi)
        assert not leq_maps(hi, lo)

    def test_image_preimage_direction(self):
        # image of preimage is below the identity on a 2-element powerset
        f = FinFn(FinSet(2), FinSet(2), (0, 0))
        d = powerset_doctrine(trivial_triple(2))
        img_pre = d.subst(f).then(d.exists(f))
        assert img_pre.table == (0, 1, 0, 1)
        assert leq_maps(img_pre, MonotoneMap.identity(power_poset(chain(2), 2)))

    def test_iso_iff_equal_tables(self):
        # antisymmetry meta-test
        p = power_poset(chain(2), 2)
        maps = [
            MonotoneMap(p, p, t)
            for t in itertools.product(range(4), repeat=4)
            if MonotoneMap(p, p, t).is_monotone()
        ]
        for f in maps:
            for g in maps:
                assert iso_maps(f, g) == (f.table == g.table)


def rows(*ups):
    """``leq`` rows from the up-set of each element, as lists."""
    return tuple(sum(1 << j for j in up) for up in ups)


# non-modular N5 and non-distributive M3, labelled against any linear
# extension so that no construction may assume i <= j implies i < j
N5 = Poset(5, rows([0, 3, 4], [1, 3], [0, 1, 2, 3, 4], [3], [3, 4]))
M3 = Poset(5, rows([0, 1], [1], [1, 2], [1, 3], [0, 1, 2, 3, 4]))
ANTICHAIN = Poset(2, rows([0], [1]))
POSETS = (
    chain(0), chain(1), chain(2), chain(3),
    trop_value_poset(1), power_poset(chain(2), 2), N5, M3, ANTICHAIN,
)


def brute_covers(p):
    """i < j with no k strictly between, ascending in i then j."""
    return tuple(
        (i, j)
        for i in range(p.size)
        for j in range(p.size)
        if i != j and p.le(i, j)
        and not any(k not in (i, j) and p.le(i, k) and p.le(k, j) for k in range(p.size))
    )


def brute_join(p, i, j):
    """The least upper bound of i and j by search over all elements."""
    ubs = [k for k in range(p.size) if p.le(i, k) and p.le(j, k)]
    (least,) = [k for k in ubs if all(p.le(k, u) for u in ubs)]
    return least


def brute_meet(p, i, j):
    """The greatest lower bound of i and j by search over all elements."""
    lbs = [k for k in range(p.size) if p.le(k, i) and p.le(k, j)]
    (greatest,) = [k for k in lbs if all(p.le(u, k) for u in lbs)]
    return greatest


def meet_monoid(p):
    """The lattice p under meet, unit its top element."""
    (top,) = [k for k in range(p.size) if all(p.le(j, k) for j in range(p.size))]
    table = [brute_meet(p, i, j) for i in range(p.size) for j in range(p.size)]
    return MonoPoset.tabulated(p, table, top)


class TestValueLattices:
    @pytest.mark.parametrize("p", [
        chain(1), chain(2), chain(3), trop_value_poset(1), trop_value_poset(3),
        power_poset(chain(2), 2), M3, N5,
    ])
    def test_join_table_is_the_least_upper_bound(self, p):
        join = join_table(p)
        assert join == tuple(
            tuple(brute_join(p, i, j) for j in range(p.size)) for i in range(p.size)
        )
        (least,) = [k for k in range(p.size) if all(p.le(k, j) for j in range(p.size))]
        assert bottom_element(p) == least

    def test_non_lattices_rejected(self):
        # a bottom below two maximal elements with no join
        vee = Poset(3, rows([0, 1, 2], [1], [2]))
        with pytest.raises(ValueError, match="no join"):
            join_table(vee)
        assert bottom_element(vee) == 0
        with pytest.raises(ValueError, match="no join"):
            join_table(ANTICHAIN)
        with pytest.raises(ValueError, match="no least element"):
            bottom_element(ANTICHAIN)

    def test_value_structures(self):
        b = boolean_meet()
        assert (join_table(b.carrier), bottom_element(b.carrier)) == (((0, 1), (1, 1)), 0)
        assert b.tensor_rows() == ((0, 0), (0, 1)) and b.unit == 1
        m = min_plus(2)
        # the join on the >=-chain is the minimum, infinity the bottom
        assert join_table(m.carrier) == tuple(
            tuple(min(x, y) for y in range(4)) for x in range(4)
        )
        assert bottom_element(m.carrier) == 3
        assert m.tensor_rows() == tuple(
            tuple(min(x + y, 3) for y in range(4)) for x in range(4)
        )
        assert check_mono_poset(b).passed and check_mono_poset(m).passed
        with pytest.raises(ValueError):
            min_plus(0)


class TestProductPoset:
    @pytest.mark.parametrize("a, b", itertools.product(POSETS, repeat=2))
    def test_product_is_componentwise(self, a, b):
        p = product_poset(a, b)
        assert p.size == a.size * b.size
        for (i, j), (i2, j2) in itertools.product(
            itertools.product(range(a.size), range(b.size)), repeat=2
        ):
            assert p.le(i * b.size + j, i2 * b.size + j2) == (a.le(i, i2) and b.le(j, j2))

    @pytest.mark.parametrize("a", POSETS)
    def test_covers_are_the_covering_relation(self, a):
        assert a.covers == brute_covers(a)
        for b in POSETS:
            p = product_poset(a, b)
            assert p.covers == brute_covers(p)

    def test_power_is_iterated_product(self):
        v = trop_value_poset(2)
        assert power_poset(v, 0) == chain(1)
        assert power_poset(v, 1) == v
        assert power_poset(v, 3) == product_poset(product_poset(v, v), v)

    @pytest.mark.parametrize(
        "make", [lambda: chain(2), lambda: trop_value_poset(3)], ids=["2-chain", "trop3"]
    )
    @pytest.mark.parametrize("k, m", [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)])
    def test_product_of_halves_is_the_cached_power(self, make, k, m):
        # the domain of the (k, m) external tensor is the fiber over k + m
        v = make()
        assert product_poset(power_poset(v, k), power_poset(v, m)) is power_poset(v, k + m)

    @pytest.mark.parametrize("p", [p for p in POSETS if p.size != 1])
    def test_one_element_factor_is_the_other_factor(self, p):
        # uncached: the cache answers an equal key with the object it holds
        product = product_poset.__wrapped__
        assert product(chain(1), p) is p
        assert product(p, chain(1)) is p

    def test_row_major_pairs(self):
        a, b = chain(2), chain(3)
        p = product_poset(a, b)
        assert p.size == 6
        assert p.le(0 * 3 + 1, 1 * 3 + 2)
        assert not p.le(1 * 3 + 0, 0 * 3 + 2)

    def test_map_product_indexing(self):
        f = MonotoneMap.identity(chain(2))
        g = monotone_map(chain(2), chain(2), (0, 0))
        fg = map_product(f, g)
        assert fg.table == (0, 0, 2, 2)

    def test_swap_is_an_involution(self):
        a, b = chain(2), chain(3)
        assert swap_map(a, b).then(swap_map(b, a)) == MonotoneMap.identity(
            product_poset(a, b)
        )

    def test_swap_is_natural(self):
        # every monotone map among a chain and a non-chain of another size,
        # so a slip between the two factors' sizes or orders shows
        posets = (chain(2), power_poset(chain(2), 2))
        maps = [
            m
            for p in posets
            for q in posets
            for table in itertools.product(range(q.size), repeat=p.size)
            if (m := MonotoneMap(p, q, table)).is_monotone()
        ]
        assert len(maps) == 3 + 9 + 6 + 36
        for f in maps:
            for g in maps:
                assert map_product(f, g).then(swap_map(f.cod, g.cod)) == swap_map(
                    f.dom, g.dom
                ).then(map_product(g, f))


class TestMonoPosets:
    def test_powerset_fiber_laws(self):
        assert check_mono_poset(power_fiber(boolean_meet(), 3)).passed

    def test_tropical_fiber_laws(self):
        fib = tropical_fiber(2, 3)
        assert fib.carrier.size == 25
        assert check_mono_poset(fib).passed

    def test_broken_tensor_reported_with_witness(self):
        good = power_fiber(boolean_meet(), 1)
        # non-monotone tensor: swap the order on the second argument
        bad = MonoPoset.tabulated(good.carrier, (1, 0, 0, 1), good.unit)
        rep = check_mono_poset(bad)
        assert not rep.passed
        assert any(c.witnesses for c in rep.clauses if not c.passed)

    def test_powerset_tensor_idempotent_tropical_not(self):
        pf = power_fiber(boolean_meet(), 2)
        assert all(pf.mul(s, s) == s for s in range(4))
        tf = tropical_fiber(1, 3)
        assert any(tf.mul(v, v) != v for v in range(tf.carrier.size))

    def test_tensor_map_is_monotone(self):
        assert power_fiber(boolean_meet(), 2).tensor_map().is_monotone()
        assert tropical_fiber(1, 2).tensor_map().is_monotone()

    def test_tensor_entry_computed_once_on_first_mul(self):
        calls = []

        def meet(i, j):
            calls.append((i, j))
            return i & j

        m = MonoPoset(power_poset(chain(2), 2), meet, 3)
        assert m.mul(1, 2) == 0 and m.mul(1, 2) == 0
        assert calls == [(1, 2)]
        # the whole table is still there to see, each entry computed once;
        # the power of the 2-chain under meet is this fiber, masks and all
        assert m.tensor_table == power_fiber(boolean_meet(), 2).tensor_table
        assert len(calls) == 16

    def test_tensor_entry_outside_carrier_rejected_on_mul(self):
        m = MonoPoset(chain(2), lambda i, j: i + j, 0)
        assert m.mul(0, 1) == 1
        with pytest.raises(ValueError):
            m.mul(1, 1)

    def test_tabulated_shape_checked(self):
        with pytest.raises(ShapeMismatch):
            MonoPoset.tabulated(chain(2), (0, 0, 0), 0)

    def test_tropical_tensor_is_pointwise_saturating_sum(self):
        cap = 3
        fib = tropical_fiber(2, cap)
        decode = value_tuples(2, cap + 2)
        expect = tuple(
            trop_index(tuple(min(x + y, cap + 1) for x, y in zip(a, b)), cap)
            for a in decode for b in decode
        )
        assert fib.tensor_table == expect


def digit_loop_index(values, cap):
    """The codec's reference: one multiply-add per value, last slot first."""
    idx = 0
    for v in values[::-1]:
        idx = idx * (cap + 2) + v
    return idx


def digit_loop_values(idx, n, cap):
    """The codec's reference: one divmod per value, slot 0 first."""
    out = []
    for _ in range(n):
        idx, v = divmod(idx, cap + 2)
        out.append(v)
    return tuple(out)


class TestTropical:
    def test_value_chain_zero_is_top(self):
        p = trop_value_poset(3)
        assert all(p.le(i, 0) for i in range(p.size))
        assert all(p.le(p.size - 1, i) for i in range(p.size))

    def test_saturation_collapses_to_infinity(self):
        v = min_plus(3)
        assert v.mul(2, 2) == 4  # 4 > cap means infinity
        assert v.mul(4, 0) == 4
        assert v.mul(1, 2) == 3

    def test_distributes_over_min(self):
        v = min_plus(3)
        vals = range(v.carrier.size)
        for x, y, z in itertools.product(vals, repeat=3):
            assert v.mul(x, min(y, z)) == min(v.mul(x, y), v.mul(x, z))

    def test_index_roundtrip(self):
        # every length across the leaf, split and encode-loop thresholds,
        # as a tuple, a list and an iterator
        for cap in range(1, 7):
            rng = random.Random(cap)
            for n in range(301):
                vals = tuple(rng.randrange(cap + 2) for _ in range(n))
                idx = digit_loop_index(vals, cap)
                assert trop_index(vals, cap) == idx
                assert trop_index(list(vals), cap) == idx
                assert trop_index(iter(vals), cap) == idx
                assert trop_values(idx, n, cap) == vals
                top = (cap + 2) ** n - 1
                assert trop_values(top, n, cap) == digit_loop_values(top, n, cap)

    @pytest.mark.parametrize("n", [3**8, 3**9])
    def test_long_vectors_match_digit_loop(self, n):
        rng = random.Random(n)
        vals = tuple(rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(n))
        idx = digit_loop_index(vals, 3)
        assert trop_index(vals, 3) == idx
        assert trop_values(idx, n, 3) == vals

    @pytest.mark.parametrize(
        "idx, n", [(-1, 2), (25, 2), (-1, 40), (5**40, 40)],
        ids=["negative", "past-end", "negative-split", "past-end-split"],
    )
    def test_values_reject_index_out_of_range(self, idx, n):
        # a per-digit loop would wrap: (4, 4) for -1, (0, 0) for 25
        with pytest.raises(ValueError):
            trop_values(idx, n, 3)

    def test_all_values_table(self):
        # slot 0 varies fastest, and the index table inverts the list
        assert value_tuples(2, 3)[:4] == ((0, 0), (1, 0), (2, 0), (0, 1))
        assert len(value_tuples(2, 3)) == 9
        for n in range(4):
            for k, vals in enumerate(value_tuples(n, 3)):
                assert value_index(n, 3)[vals] == k == trop_index(vals, 1)

    def test_subset_index_is_its_mask(self):
        for n in range(5):
            for mask in range(1 << n):
                assert value_tuples(n, 2)[mask] == tuple(
                    (mask >> a) & 1 for a in range(n)
                )


def min_plus_table(n, m, cap, fibres):
    """The reference span action: one minimum per output slot per value."""
    return [
        trop_index([min((v[a] for a in fib), default=cap + 1) for fib in fibres], cap)
        for v in value_tuples(n, cap + 2)
    ]


def brute_join_table(p, n, fibres):
    """The reference action of a relation over any lattice: one join by
    search per output slot per value, the least element over an empty
    fibre."""
    (least,) = [k for k in range(p.size) if all(p.le(k, j) for j in range(p.size))]
    index = value_index(len(fibres), p.size)
    return tuple(
        index[tuple(
            reduce(lambda x, y: brute_join(p, x, y), (v[a] for a in fib), least)
            for fib in fibres
        )]
        for v in value_tuples(n, p.size)
    )


def relations(n, m):
    """Every relation from n source slots to m target slots, as the
    sorted fibre of each target slot."""
    subsets = [
        tuple(a for a in range(n) if (mask >> a) & 1) for mask in range(1 << n)
    ]
    return itertools.product(subsets, repeat=m)


class TestPackedColumns:
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (3, 2), (4, 4), (0, 2), (2, 0)])
    def test_packed_monotone_check_agrees_with_is_monotone(self, n, m):
        # the relation tables of min-plus are the per-value minima, and are
        # monotone; random fibres, empty ones included
        rng = random.Random(100 * n + m)
        for trial in range(40):
            cap = rng.choice((1, 2, 3))
            fibres = tuple(
                tuple(a for a in range(n) if rng.random() < 0.5) for _ in range(m)
            )
            table = span_table(trop_value_poset(cap), n, fibres)
            assert list(table) == min_plus_table(n, m, cap, fibres)
            v = trop_value_poset(cap)
            assert MonotoneMap(power_poset(v, n), power_poset(v, m), table).is_monotone()

    @pytest.mark.parametrize("p", [M3, N5, power_poset(chain(2), 2)], ids=["M3", "N5", "2x2"])
    def test_relation_table_is_the_brute_force_join(self, p):
        # every relation between up to 3 source and 2 target slots; the
        # same fibres recur at every n, and M3 and N5 have their least
        # element last, so neither n nor the empty fibre can be assumed
        for n, m in [(0, 1), (1, 1), (2, 1), (3, 1), (0, 2), (1, 2), (2, 2), (3, 2)]:
            for fibres in relations(n, m):
                assert span_table(p, n, fibres) == brute_join_table(p, n, fibres)
                for j, fib in enumerate(fibres):
                    assert join_column(p, n, fib) == brute_join_table(p, n, (fib,))

    def test_a_non_monotone_column_is_refused(self, monkeypatch):
        # a column is checked on every cover pair as it is built: a join
        # table that reverses the 2-chain makes the column of a slot
        # order-reversing.  The columns are built uncached, so the
        # session's cache neither answers for them nor keeps them
        monkeypatch.setattr(
            "doctrina.poskit.join_table", lambda p: ((1, 0), (0, 0))
        )
        monkeypatch.setattr("doctrina.poskit.join_column", join_column.__wrapped__)
        with pytest.raises(ValueError, match="^map is not order-preserving$"):
            join_column.__wrapped__(chain(2), 1, (0,))
        with pytest.raises(ValueError, match="^map is not order-preserving$"):
            span_table(chain(2), 2, ((), (1,)))
