"""One fresh process of the benchmark: set doctrina up, then run one task.

``python3 perfbench/child.py TASK`` with ``TASK`` a JSON object:

* ``{"kind": "setup"}`` only sets up;
* ``{"kind": "cli", "argv": [...]}`` times ``doctrina.cli.main(argv)``;
* ``{"kind": "stream", "queries": PATH, "seconds": S}`` runs the
  closed-loop query stream of ``eval-stream`` for ``S`` seconds, or
  through the whole file without ``seconds``;

plus ``"trace": true`` to time calls into every layer.  The result is
one JSON line on standard output.  ``elapsed`` is wall time, ``ref_s``
and the stream's ``latencies`` are times at reference speed
(``speed.py``).  ``ready`` is the ``time.monotonic()``
reading once doctrina is imported and the doctrines are built; the
parent subtracts its own reading from just before the spawn.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from doctrina import cli, uwd
from doctrina.doctrine import powerset_doctrine, tropical_doctrine
from doctrina.finset import trivial_triple

# the doctrines ``doctrina eval`` builds for the stream: triple bound 3,
# cap 3 (``evalstream.CAP``)
DOCTRINES = {
    "rel": powerset_doctrine(trivial_triple(3)),
    "trop": tropical_doctrine(trivial_triple(3), 3),
}
READY = time.monotonic()

# the benchmark's own modules load after set-up is measured
from evalstream import CAP  # noqa: E402
from speed import SpeedSampler  # noqa: E402


def _arg(i):
    return lambda args: args[i]


def _count(field, measure):
    def after(stat, args, result):
        stat.extra[field] = stat.extra.get(field, 0) + measure(args, result)
    return after


def _count_digits(trop_index, stat):
    def counted(values, cap):
        values = tuple(values)
        stat.extra["digits"] = stat.extra.get("digits", 0) + len(values)
        return trop_index(values, cap)
    return counted


# (target, metric prefix, options): every public function the per-layer
# metrics name, in the module that defines it
TARGETS = [
    ("doctrina.finset:pullback", "finset.pullback", {}),
    ("doctrina.finset:compose", "finset.compose", {}),
    ("doctrina.finset:pushout", "finset.pushout", {}),
    ("doctrina.finset:FinFn.__repr__", "finset.repr", {}),
    ("doctrina.spancat:Span.__repr__", "finset.repr", {}),
    ("doctrina.spancat:SpanCell.__repr__", "finset.repr", {}),
    ("doctrina.spancat:SpanCategory.loose_compose", "spancat.loose_compose",
     {"key": lambda a: (a[1], a[2])}),
    ("doctrina.spancat:SpanCategory.enumerate_cells", "spancat.enumerate_cells", {}),
    ("doctrina.spancat:SpanCategory.cell_vcompose", "spancat.cell_vcompose", {}),
    ("doctrina.spancat:SpanCategory.cell_hcompose", "spancat.cell_hcompose", {}),
    ("doctrina.poskit:MonotoneMap.then", "poskit.then", {}),
    ("doctrina.poskit:leq_maps", "poskit.leq_maps", {}),
    ("doctrina.poskit:iso_maps", "poskit.iso_maps", {}),
    ("doctrina.poskit:map_product", "poskit.map_product", {}),
    ("doctrina.poskit:monotone_map", "poskit.monotone_map", {}),
    ("doctrina.poskit:tropical_fiber", "poskit.tropical_fiber", {}),
    ("doctrina.poskit:trop_index", "poskit.trop_codec", {"shim": _count_digits}),
    ("doctrina.poskit:trop_values", "poskit.trop_codec",
     {"after": _count("digits", lambda a, r: len(r))}),
    ("doctrina.doctrine:Doctrine.subst", "doctrine.subst", {"key": _arg(1)}),
    ("doctrina.doctrine:Doctrine.exists", "doctrine.exists", {"key": _arg(1)}),
    ("doctrina.doctrine:Doctrine.span_action", "doctrine.span_action", {}),
    ("doctrina.doctrine:Doctrine.act", "doctrine.act", {}),
    ("doctrina.doctrine:Doctrine.pair_predicate", "doctrine.pair_predicate", {}),
    ("doctrina.doctrine:external_laxator", "doctrine.external_laxator", {}),
    ("doctrina.doctrine:check_doctrine", "doctrine.check_doctrine", {}),
    ("doctrina.doubling:verify_pdot", "doubling.verify_pdot", {}),
    ("doctrina.doubling:PDot.loose_image", "doubling.loose_image", {"key": _arg(1)}),
    ("doctrina.doubling:PDot.compositor", "doubling.compositor", {}),
    ("doctrina.doubling:PDot.cell_image", "doubling.cell_image", {}),
    ("doctrina.doubling:PDot.laxator_cell", "doubling.laxator_cell", {}),
    ("doctrina.doubling:PDot.symmetry_cell", "doubling.symmetry_cell", {}),
    ("doctrina.extraction:roundtrip", "extraction.roundtrip", {}),
    ("doctrina.extraction:frobenius_via_Bhat", "extraction.frobenius_via_Bhat", {}),
    ("doctrina.uwd:load_corpus", "uwd.load_corpus", {}),
    ("doctrina.uwd:tensor_systems", "uwd.tensor_systems", {}),
    ("doctrina.uwd:compose_diagrams", "uwd.compose_diagrams", {}),
    ("doctrina.uwd:evaluate", "uwd.evaluate", {}),
    ("doctrina.uwd:reindex", "uwd.reindex",
     {"after": _count("entries", lambda a, r: len(r.table))}),
    ("doctrina.uwd:format_predicate", "uwd.format_predicate", {}),
    ("doctrina.report:Clause.check", "report.check", {}),
    ("doctrina.report:Report.to_jsonl", "report.to_jsonl", {}),
    ("doctrina.cli:main", "cli.main", {}),
]


def start_trace():
    from doctrina.report import Report
    from tracing import ClauseClock, Tracer, sampled_total

    tracer = Tracer()
    clauses = ClauseClock("pdot.")
    pdot_clauses = []
    for target, name, opts in TARGETS:
        if name == "doubling.verify_pdot":
            # snapshot at return: the CLI renames clauses afterwards
            def after(stat, args, report):
                clauses.close(report)
                pdot_clauses.extend(
                    (c.clause, c.instances, sampled_total(c)) for c in report.clauses
                )
            opts = {"after": after}
        tracer.install(target, name, **opts)

    opened = Report.clause

    def clause(self, clause_id, law):
        c = opened(self, clause_id, law)
        clauses.opened(self, c)
        return c

    tracer.patch(Report, "clause", clause)
    return tracer, clauses, pdot_clauses


def trace_result(tracer, clauses, pdot_clauses) -> dict:
    from doctrina import finset

    stats = {}
    for name, s in tracer.stats.items():
        rec = {"calls": s.calls, "self_s": s.self_s, "busy_s": s.busy_s}
        if s.keys is not None:
            rec["distinct"] = len(s.keys)
        rec.update(s.extra)
        stats[name] = rec
    caches = {}
    for name in ("product", "fn_product"):
        info = getattr(finset, name).cache_info()
        caches[name] = {"hits": info.hits, "misses": info.misses}
    clause_recs = {}
    for cid, instances, st in pdot_clauses:
        rec = {"busy_s": clauses.busy.get(cid, 0.0), "instances": instances}
        if st is not None:
            rec["sampled"], rec["total"] = st
        clause_recs[cid] = rec
    return {
        "stats": stats,
        "caches": caches,
        "clauses": clause_recs,
        "groups": [list(g) for g in clauses.groups],
        "root_s": tracer.root_s,
    }


def run_stream(task, tracer) -> dict:
    with open(task["queries"], encoding="utf-8") as fh:
        queries = json.load(fh)
    deadline = time.monotonic() + task["seconds"] if task.get("seconds") else None
    codec = tracer.stat("poskit.trop_codec") if tracer else None
    rel_codec_calls = 0
    spans, printed = [], []
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        for q in queries:
            if deadline is not None and time.monotonic() >= deadline:
                break
            before = codec.calls if codec is not None else 0
            t0 = time.perf_counter()
            corpus = uwd.load_corpus(json.loads(q["doc"]), cap=CAP)
            d = DOCTRINES[q["sem"]]
            joint = corpus.systems["b0"][0]
            for b in range(1, q["boxes"]):
                joint = uwd.tensor_systems(joint, corpus.systems[f"b{b}"][0], d, corpus.types)
            if q["nested"]:
                w = uwd.compose_diagrams(corpus.diagrams["host"], corpus.diagrams["fill"])
            else:
                w = corpus.diagrams["query"]
            result = uwd.evaluate(w, joint, d, corpus.types)
            text = uwd.format_predicate(result, q["sem"], corpus.types, CAP)
            spans.append((t0, time.perf_counter()))
            printed.append(text)
            if codec is not None and q["sem"] == "rel":
                rel_codec_calls += codec.calls - before
        end = time.perf_counter()
    return {
        "elapsed": end - start,
        "ref_s": sampler.reference_time(start, end),
        "latencies": [sampler.reference_time(a, b) for a, b in spans],
        "printed": printed,
        "rel_codec_calls": rel_codec_calls,
    }


def main() -> int:
    task = json.loads(sys.argv[1])
    out: dict = {"ready": READY}
    traced = start_trace() if task.get("trace") else None
    tracer = traced[0] if traced else None
    if task["kind"] == "cli":
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            out["rc"] = cli.main(task["argv"])
            t1 = time.perf_counter()
        out["elapsed"] = t1 - t0
        out["ref_s"] = sampler.reference_time(t0, t1)
    elif task["kind"] == "stream":
        out.update(run_stream(task, tracer))
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if traced:
        tracer.uninstall()
        out["trace"] = trace_result(*traced)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
