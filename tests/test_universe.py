"""``Universe`` and ``matching`` enumerate exactly what the nested loops
they replaced enumerated, element for element and in the same order:
byte-identical reports depend on that order.  The reference definitions
below are those loops, kept verbatim apart from their names."""

from operator import attrgetter

import pytest

from doctrina.doctrine import (
    check_doctrine,
    generated_pullbacks,
    is_clr_pullback,
    powerset_doctrine,
    square_from_cospan,
)
from doctrina.doubling import PDot, verify_pdot
from doctrina.extraction import roundtrip
from doctrina.finset import (
    AdequateTriple,
    MorClass,
    Universe,
    check_adequate_triple,
    cospans,
    finsets,
    functions,
    injection_right_triple,
    matching,
    surjection_triple,
    trivial_triple,
)
from doctrina.spancat import Span, SpanCategory


def ref_maps(t, max_size):
    for a in finsets(max_size, t.nonempty_only):
        for b in finsets(max_size, t.nonempty_only):
            yield from functions(a, b)


def ref_spans(t, max_size):
    objects = lambda: finsets(max_size, t.nonempty_only)  # noqa: E731
    for apex in objects():
        for s in objects():
            for left in functions(apex, s):
                if not t.left.contains(left):
                    continue
                for tt in objects():
                    for right in functions(apex, tt):
                        if t.right.contains(right):
                            yield Span(left, right)


def ref_composable(fns):
    by_dom = {}
    for g in fns:
        by_dom.setdefault(g.dom, []).append(g)
    return ((f, g) for f in fns for g in by_dom.get(f.cod, ()))


def ref_lr_cospans(t, max_size):
    objs = list(finsets(max_size, t.nonempty_only))
    for z in objs:
        for a in objs:
            for x in functions(a, z):
                if not t.left.contains(x):
                    continue
                for b in objs:
                    for y in functions(b, z):
                        if t.right.contains(y):
                            yield x, y


def ref_generated_pullbacks(triple, max_size):
    objs = list(finsets(max_size, triple.nonempty_only))
    for j in objs:
        for b in objs:
            for f in functions(b, j):
                for i in objs:
                    for g in functions(i, j):
                        sq = square_from_cospan(f, g)
                        if is_clr_pullback(sq, triple):
                            yield sq


TRIPLES = {
    "all-all": trivial_triple,
    "surj-right": surjection_triple,
    "inj-right": injection_right_triple,
    "inj-left": lambda n: AdequateTriple(n, MorClass.injections(), MorClass.all()),
}

CASES = [(name, bound) for name in TRIPLES for bound in range(4)]


@pytest.fixture(params=CASES, ids=[f"{n}-{b}" for n, b in CASES])
def case(request):
    name, bound = request.param
    t = TRIPLES[name](max(bound, 1))
    return t, bound, Universe(t, bound)


def test_objects_and_maps(case):
    t, bound, u = case
    assert u.objects == list(finsets(bound, t.nonempty_only))
    assert u.maps == list(ref_maps(t, bound))
    assert u.hom == {(a, b): list(functions(a, b)) for a in u.objects for b in u.objects}


def test_class_members(case):
    t, bound, u = case
    assert u.left == [f for f in ref_maps(t, bound) if t.left.contains(f)]
    assert u.right == [f for f in ref_maps(t, bound) if t.right.contains(f)]


def test_spans(case):
    t, bound, _ = case
    assert list(SpanCategory(t).enumerate_spans(bound)) == list(ref_spans(t, bound))


def test_composable_pairs(case):
    _, _, u = case
    cod, dom = attrgetter("cod"), attrgetter("dom")
    for fns in (u.maps, u.left, u.right):
        assert list(matching(fns, fns, cod, dom)) == list(ref_composable(fns))


def test_lr_cospans(case):
    t, bound, u = case
    assert list(cospans(u.left, u.right)) == list(ref_lr_cospans(t, bound))


def test_generated_pullback_squares(case):
    t, bound, _ = case
    assert list(generated_pullbacks(t, bound)) == list(
        ref_generated_pullbacks(t, bound)
    )


def test_matching_keeps_both_orders():
    xs = ["b1", "a1", "b2"]
    ys = ["a9", "b8", "a7", "c6"]
    first = lambda s: s[0]  # noqa: E731
    assert list(matching(xs, ys, first, first)) == [
        ("b1", "b8"), ("a1", "a9"), ("a1", "a7"), ("b2", "b8"),
    ]


def test_one_universe_per_triple_and_bound():
    # built once and shared, as a FinSet is: equal triples with equal
    # bounds give the one object, so every suite meets the same maps
    t = trivial_triple(2)
    assert Universe(t, 2) is Universe(t, 2) is Universe(trivial_triple(2), 2)
    assert Universe(t, 1) is not Universe(t, 2)
    assert Universe(surjection_triple(2), 2) is not Universe(t, 2)


def _contents(u):
    return u.objects[:], {k: v[:] for k, v in u.hom.items()}, u.maps[:], u.left[:], u.right[:]


@pytest.mark.parametrize("name", ["all-all", "surj-right"])
def test_suites_leave_the_shared_lists_alone(name):
    # every suite reads the shared lists and none may change them: after
    # the suites they still hold what they were built with, and a second
    # round of the suites leaves them as the first did
    t = TRIPLES[name](2)
    d = powerset_doctrine(t)

    def suites():
        check_adequate_triple(t)
        check_doctrine(d, 2)
        SpanCategory(t).check_triangles(2)
        verify_pdot(PDot(d), 2)
        roundtrip(d, 2)

    suites()
    shared = {bound: u for (triple, bound), u in Universe._built.items() if triple == t}
    assert 2 in shared
    before = {bound: _contents(u) for bound, u in shared.items()}
    suites()
    for bound, u in shared.items():
        assert _contents(u) == before[bound]
        assert u.objects == list(finsets(bound, t.nonempty_only))
        assert u.hom == {(a, b): list(functions(a, b)) for a in u.objects for b in u.objects}
        assert u.maps == list(ref_maps(t, bound))
        assert u.left == [f for f in u.maps if t.left.contains(f)]
        assert u.right == [f for f in u.maps if t.right.contains(f)]
