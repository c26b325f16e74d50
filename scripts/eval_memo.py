"""Measure what the reindex memo gives the eval-stream queries.

``uwd.evaluate`` reads every part of a tensored system at a reindexing
map over the junction assignments.  The maps are memoised on their shape
(``uwd.reindex_map``, with its readers ``uwd.reader``), so a stream whose
diagrams repeat shapes builds few of them.  This script runs the
queries of ``perfbench/evalstream.py`` in process, the way the
benchmark's child does (load the corpus document, tensor the boxes,
nest a quarter of the queries, evaluate, print), twice:

* ``reuse``: the memo starts empty and fills as the stream runs, as in
  the benchmark; it prints the memo's lookups, hits and distinct maps;
* ``no-reuse``: the memo is cleared before every query, so every map is
  built again: the same stream without the property the memo needs.

Per pass it prints the median and 90th percentile latency in ms (wall
time on this machine, not the benchmark's reference speed), the queries
per second, and the median over the queries whose diagram the stream
has not sent before: those gain from the memo only through the parts
they share with earlier diagrams.  Every answer is checked with
``evalstream.check``, and the two passes must print the same answers;
the script exits 1 otherwise.

    PYTHONPATH=src python3 scripts/eval_memo.py [--seed 1] [--blocks 75]

75 blocks of 40 queries is the stream of a 25-second benchmark run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import evalstream  # noqa: E402
from doctrina import uwd  # noqa: E402
from doctrina.doctrine import powerset_doctrine, tropical_doctrine  # noqa: E402
from doctrina.finset import trivial_triple  # noqa: E402

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


def run(queries, clear: bool) -> tuple[list[float], list[str], float]:
    uwd.reindex_map.cache_clear()
    uwd.reader.cache_clear()
    latencies, printed = [], []
    start = time.perf_counter()
    for q in queries:
        if clear:
            uwd.reindex_map.cache_clear()
            uwd.reader.cache_clear()
        t0 = time.perf_counter()
        printed.append(answer(q))
        latencies.append(time.perf_counter() - t0)
    return latencies, printed, time.perf_counter() - start


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
    for name, clear in (("reuse", False), ("no-reuse", True)):
        latencies, printed, elapsed = run(queries, clear)
        answers[name] = printed
        wrong = sum(not evalstream.check(q, text) for q, text in zip(queries, printed))
        ok &= wrong == 0
        print(f"{name}: {len(queries)} queries, p50 {quantile(latencies, 0.5) * 1e3:.3f} ms, "
              f"p90 {quantile(latencies, 0.9) * 1e3:.3f} ms, "
              f"{len(queries) / elapsed:.0f} queries/s, {wrong} wrong")
        print(f"  first-seen diagrams: {len(first)} queries, "
              f"p50 {quantile([latencies[i] for i in first], 0.5) * 1e3:.3f} ms")
        if not clear:
            info = uwd.reindex_map.cache_info()
            lookups = info.hits + info.misses
            print(f"  memo: {lookups} lookups, {info.hits} hits "
                  f"({info.hits / lookups:.3f}), {info.currsize} maps built")
    same = answers["reuse"] == answers["no-reuse"]
    ok &= same
    print(f"answers equal across passes: {same}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
