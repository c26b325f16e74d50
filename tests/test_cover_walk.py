"""``Poset`` validates its order by walking covers; these tests hold the
walk to the pairwise scan it replaced (``reference`` below): the same
accept or refuse, the same ``ValueError`` message and the same covers,
and covers equal to the Hasse diagram read off its definition."""

import itertools
import random
import re

import pytest

from doctrina import poskit
from doctrina.poskit import Poset, bits, chain, power_poset, trop_value_poset


def reference(size, leq):
    """The pairwise validator the walk replaced: every pair i <= j,
    ascending in i and then j, with the covers found along the way."""
    if len(leq) != size:
        raise ValueError("leq row count does not match size")
    full = (1 << size) - 1
    for i, row in enumerate(leq):
        if row & ~full:
            raise ValueError("leq row mentions nonexistent elements")
        if not (row >> i) & 1:
            raise ValueError(f"not reflexive at {i}")
    ups = [row & ~(1 << i) for i, row in enumerate(leq)]
    covers = []
    for i in range(size):
        above = 0
        for j in bits(ups[i]):
            if leq[j] & ~leq[i]:
                raise ValueError(f"not transitive through {i} <= {j}")
            if (leq[j] >> i) & 1:
                raise ValueError(f"not antisymmetric at {i}, {j}")
            above |= ups[j]
        covers.extend([(i, j) for j in bits(ups[i] & ~above)])
    return tuple(covers)


def outcome(validate, size, leq):
    """The covers ``validate`` finds, or the message it refuses with."""
    try:
        got = validate(size, leq)
    except ValueError as e:
        return "refused", str(e)
    return "accepted", got if isinstance(got, tuple) else got.covers


def assert_agrees(size, leq):
    assert outcome(Poset, size, leq) == outcome(reference, size, leq), leq


def reflexive_relations(n):
    """Every relation on n elements that holds on the diagonal."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for chosen in itertools.product((0, 1), repeat=len(off)):
        leq = [1 << i for i in range(n)]
        for (i, j), c in zip(off, chosen):
            leq[i] |= c << j
        yield tuple(leq)


def closure(leq):
    """The reflexive-transitive closure of a relation given by rows."""
    leq = list(leq)
    for k in range(len(leq)):
        for i in range(len(leq)):
            if (leq[i] >> k) & 1:
                leq[i] |= leq[k]
    return tuple(leq)


def flips(p):
    """Every relation one off-diagonal bit away from the order of p."""
    for i in range(p.size):
        for j in range(p.size):
            if i != j:
                yield tuple(row ^ (1 << j) if k == i else row for k, row in enumerate(p.leq))


def reversed_indices(p):
    """The order of p with element i renamed size - 1 - i."""
    last = p.size - 1
    rows = [sum(1 << last - j for j in bits(p.leq[last - i])) for i in range(p.size)]
    return Poset(p.size, tuple(rows))


@pytest.mark.parametrize("n", range(5))
def test_every_reflexive_relation(n):
    relations = list(reflexive_relations(n))
    assert len(relations) == 2 ** (n * (n - 1))
    for leq in relations:
        assert_agrees(n, leq)


@pytest.mark.parametrize("n", range(5, 9))
def test_seeded_random_relations(n):
    rng = random.Random(n)
    for _ in range(300):
        density = rng.choice((0.1, 0.2, 0.35, 0.6))
        leq = tuple(
            (1 << i) | sum(1 << j for j in range(n) if j != i and rng.random() < density)
            for i in range(n)
        )
        assert_agrees(n, leq)
        assert_agrees(n, closure(leq))


@pytest.mark.parametrize("n, sample", [(2, None), (3, 800)])
def test_one_bit_perturbations_of_min_plus(n, sample, monkeypatch):
    """One-bit perturbations of the 25-element order (all of them) and of
    the 125-element one (a seeded sample) are judged as the scan judges
    them, with the indices as built (descending with the order) and
    reversed.  In the ascending orientation some are refused only after
    the walk has passed the row the scan names: a failure that row's
    covers do not reach."""
    walked = []

    def spy(leq, row):
        walked.append(row)
        refuse(leq, row)

    refuse = poskit._refuse
    monkeypatch.setattr(poskit, "_refuse", spy)
    later = set()
    built = power_poset(trop_value_poset(3), n)
    for p in (built, reversed_indices(built)):
        relations = list(flips(p))
        if sample:
            relations = random.Random(n).sample(relations, sample)
        for leq in relations:
            walked.clear()
            got, want = outcome(Poset, p.size, leq), outcome(reference, p.size, leq)
            assert got == want, leq
            if want[0] == "refused":
                kind, scan_row = want[1].split()[1], int(re.search(r"\d+", want[1])[0])
                assert walked[0] >= scan_row
                if walked[0] > scan_row:
                    later.add(kind)
    assert later == {"transitive", "antisymmetric"}


def test_scan_is_not_run_on_an_order(monkeypatch):
    monkeypatch.setattr(poskit, "_refuse", None)
    p = power_poset(trop_value_poset(3), 2)
    assert Poset(p.size, p.leq).covers == p.covers


def hasse(p):
    """The covers by definition: i < j with nothing else between them."""
    down = [sum(1 << k for k in range(p.size) if p.le(k, j)) for j in range(p.size)]
    return tuple(
        (i, j)
        for i in range(p.size)
        for j in bits(p.leq[i])
        if p.leq[i] & down[j] == (1 << i) | (1 << j) and i != j
    )


M3 = (0b11111, 0b10010, 0b10100, 0b11000, 0b10000)
N5 = (0b11111, 0b10110, 0b10100, 0b11000, 0b10000)


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize(
    "factor",
    [lambda: chain(5), lambda: trop_value_poset(3), lambda: Poset(5, M3), lambda: Poset(5, N5)],
    ids=["chain5", "min-plus", "M3", "N5"],
)
def test_covers_are_the_hasse_diagram(factor, n):
    p = power_poset(factor(), n)
    assert p.covers == hasse(p)
