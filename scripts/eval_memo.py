"""Measure what the shape memos give the eval-stream queries, and how a
path query scales with its length.

``uwd.evaluate`` evaluates a tensor of systems by joining its junctions
out one at a time, following a plan kept per diagram shape
(``uwd.elimination_plan``), whose steps read factors through reindexing
maps that are memoised on their shape too (``uwd.reindex_map``, with
its readers ``uwd.reader``).  This script runs the queries of
``perfbench/evalstream.py`` in process, the way the benchmark's child
does (load the corpus document, tensor the boxes, nest a quarter of the
queries, evaluate, print), twice:

* ``reuse``: the memos start empty and fill as the stream runs, as in
  the benchmark; it prints the lookups, hits, misses and entries kept
  of every memo: the checked diagrams and contexts of
  ``uwd.load_corpus``, the nestings of ``uwd.compose_diagrams``, and
  the plans, maps and readers;
* ``no-reuse``: every ``uwd`` memo is cleared before every query, so
  every diagram is checked and nested, and every plan and map built,
  again: the same stream without the property the memos need.

Per pass it prints the median and 90th percentile latency in ms (wall
time on this machine, not the benchmark's reference speed), the queries
per second, and the median over the queries whose diagram the stream
has not sent before: those gain from the memos only through the parts
they share with earlier diagrams.  Every answer is checked with
``evalstream.check``, and the two passes must print the same answers.

Then it times a min-plus path query (domain 3, cap 3, seeded box costs)
on k = 4, 7, 12, 24 and 48 junctions, with k - 1 binary boxes and both
ends exposed: the first evaluation, which builds the plan, and the
median of 200 warm ones.  Each answer is checked against the
min-plus product of the box matrices.  The script exits 1 on any wrong
answer.

    PYTHONPATH=src python3 scripts/eval_memo.py [--seed 1] [--blocks 75]

75 blocks of 40 queries is the stream of a 25-second benchmark run.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import evalstream  # noqa: E402
from doctrina import uwd  # noqa: E402
from doctrina.doctrine import powerset_doctrine, tropical_doctrine  # noqa: E402
from doctrina.finset import FinFn, LabelledFinSet, trivial_triple  # noqa: E402

CAP = evalstream.CAP
DOCTRINES = {
    "rel": powerset_doctrine(trivial_triple(3)),
    "trop": tropical_doctrine(trivial_triple(3), CAP),
}


def answer(q: evalstream.Query) -> str:
    corpus = uwd.load_corpus(json.loads(q.doc), cap=CAP)
    d = DOCTRINES[q.semantics]
    joint = corpus.systems["b0"][0]
    for b in range(1, len(q.boxes)):
        joint = uwd.tensor_systems(joint, corpus.systems[f"b{b}"][0], d, corpus.types)
    if q.nested:
        w = uwd.compose_diagrams(corpus.diagrams["host"], corpus.diagrams["fill"])
    else:
        w = corpus.diagrams["query"]
    result = uwd.evaluate(w, joint, d, corpus.types)
    return uwd.format_predicate(result, q.semantics, corpus.types, CAP)


MEMOS = (
    (uwd._diagram, "diagrams"),
    (uwd._context, "contexts"),
    (uwd.compose_diagrams, "nestings"),
    (uwd.elimination_plan, "plans"),
    (uwd.reindex_map, "maps"),
    (uwd.reader, "readers"),
)


def clear() -> None:
    """Empty every memo of ``uwd``."""
    for memo, _ in MEMOS:
        memo.cache_clear()


def run(queries, clear_each: bool) -> tuple[list[float], list[str], float]:
    clear()
    latencies, printed = [], []
    start = time.perf_counter()
    for q in queries:
        if clear_each:
            clear()
        t0 = time.perf_counter()
        printed.append(answer(q))
        latencies.append(time.perf_counter() - t0)
    return latencies, printed, time.perf_counter() - start


def path_query(k: int, rng: random.Random):
    """A min-plus path on ``k`` junctions of domain 3 with seeded box
    costs, both ends exposed, and its answer as the min-plus product of
    the box matrices, saturated at infinity."""
    types = uwd.TypeAssignment({"v": 3})
    pair = LabelledFinSet.of("v", "v")
    costs = [[rng.choice(evalstream.COSTS) for _ in range(9)] for _ in range(k - 1)]
    d = DOCTRINES["trop"]
    tree = uwd.System(pair, tuple(costs[0]))
    for box in costs[1:]:
        tree = uwd.tensor_systems(tree, uwd.System(pair, tuple(box)), d, types)
    junctions = LabelledFinSet.of(*["v"] * k)
    outer = LabelledFinSet.of("v", "v")
    w = uwd.UwdDiagram(
        tree.context, junctions, outer,
        FinFn(tree.context.base, junctions.base, tuple(j for b in range(k - 1) for j in (b, b + 1))),
        FinFn(outer.base, junctions.base, (0, k - 1)),
    )
    want = costs[0]
    for box in costs[1:]:
        want = [
            min(min(want[3 * x + y] + box[3 * y + z] for y in range(3)), evalstream.INF)
            for x in range(3) for z in range(3)
        ]
    return w, tree, types, tuple(want)


def path_series(seed: int, repeat: int = 200) -> bool:
    rng, ok = random.Random(seed), True
    d = DOCTRINES["trop"]
    for k in (4, 7, 12, 24, 48):
        w, tree, types, want = path_query(k, rng)
        clear()
        t0 = time.perf_counter()
        got = uwd.evaluate(w, tree, d, types).predicate
        first = time.perf_counter() - t0
        warm = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            uwd.evaluate(w, tree, d, types)
            warm.append(time.perf_counter() - t0)
        ok &= got == want
        print(f"path k = {k}: {k - 1} boxes, first {first * 1e3:.3f} ms, "
              f"warm p50 {statistics.median(warm) * 1e3:.3f} ms, "
              f"{'right' if got == want else 'WRONG'}")
    return ok


def quantile(xs: list[float], p: float) -> float:
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(p * len(xs)))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--blocks", type=int, default=75)
    args = ap.parse_args(argv)
    queries = evalstream.make_stream(args.seed, args.blocks)
    seen: set[str] = set()
    first = []
    for i, q in enumerate(queries):
        if q.diagram_key not in seen:
            seen.add(q.diagram_key)
            first.append(i)
    ok = True
    answers = {}
    for name, clear_each in (("reuse", False), ("no-reuse", True)):
        latencies, printed, elapsed = run(queries, clear_each)
        answers[name] = printed
        wrong = sum(not evalstream.check(q, text) for q, text in zip(queries, printed))
        ok &= wrong == 0
        print(f"{name}: {len(queries)} queries, p50 {quantile(latencies, 0.5) * 1e3:.3f} ms, "
              f"p90 {quantile(latencies, 0.9) * 1e3:.3f} ms, "
              f"{len(queries) / elapsed:.0f} queries/s, {wrong} wrong")
        print(f"  first-seen diagrams: {len(first)} queries, "
              f"p50 {quantile([latencies[i] for i in first], 0.5) * 1e3:.3f} ms")
        if not clear_each:
            for memo, built in MEMOS:
                info = memo.cache_info()
                lookups = info.hits + info.misses
                print(f"  {built}: {lookups} lookups, {info.hits} hits, "
                      f"{info.misses} misses ({info.hits / lookups:.3f}), "
                      f"{info.currsize} kept")
    same = answers["reuse"] == answers["no-reuse"]
    ok &= same
    print(f"answers equal across passes: {same}")
    ok &= path_series(args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
