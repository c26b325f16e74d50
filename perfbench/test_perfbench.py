"""Tests of the benchmark's own machinery: span arithmetic, patching,
clause intervals, the eval-stream oracle.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import evalstream
from evalstream import INF, Query
from tracing import ClauseClock, Tracer

HERE = Path(__file__).resolve().parent


def ticking(*readings):
    it = iter(readings)
    return lambda: next(it)


def test_self_time_excludes_traced_children():
    tracer = Tracer(clock=ticking(0.0, 1.0, 3.0, 4.0, 6.0, 10.0))
    inner = tracer.wrap("m.inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("m.outer", body)()
    outer, inn = tracer.stats["m.outer"], tracer.stats["m.inner"]
    assert (outer.calls, outer.busy_s, outer.self_s) == (1, 10.0, 6.0)
    assert (inn.calls, inn.busy_s, inn.self_s) == (2, 4.0, 4.0)
    assert tracer.root_s == 10.0


def test_recursion_counts_busy_time_once():
    tracer = Tracer(clock=ticking(0.0, 2.0, 5.0, 9.0))

    def f(depth):
        if depth:
            traced(depth - 1)

    traced = tracer.wrap("m.f", f)
    traced(1)
    st = tracer.stats["m.f"]
    assert (st.calls, st.busy_s, st.self_s) == (2, 9.0, 9.0)


def test_generator_is_charged_per_step():
    tracer = Tracer(clock=ticking(0.0, 1.0, 5.0, 7.0, 20.0, 21.0))

    def gen():
        yield 1
        yield 2

    assert list(tracer.wrap("m.gen", gen)()) == [1, 2]
    st = tracer.stats["m.gen"]
    assert (st.calls, st.busy_s) == (1, 4.0)


def test_install_patches_every_binding_and_uninstall_restores():
    import doctrina  # noqa: F401  (loads every module)
    from doctrina import doctrine, doubling, finset, spancat, uwd

    original = finset.compose
    tracer = Tracer()
    tracer.install("doctrina.finset:compose", "finset.compose")
    try:
        for mod in (finset, doctrine, doubling, spancat, uwd):
            assert mod.compose is not original
            assert mod.compose is finset.compose
        f = finset.FinFn.identity(finset.FinSet(2))
        f.then(f)  # FinFn.then reaches compose through finset's binding
        assert tracer.stats["finset.compose"].calls == 1
    finally:
        tracer.uninstall()
    for mod in (finset, doctrine, doubling, spancat, uwd):
        assert mod.compose is original


def test_clauses_opened_together_share_an_interval():
    from doctrina.report import Report

    clock = ClauseClock("pdot.", clock=ticking(0.0, 2.0, 3.0, 7.0))
    rep = Report()
    a = rep.clause("pdot.a", "")
    clock.opened(rep, a)
    a.check(True)
    clock.opened(rep, rep.clause("other.x", ""))  # not timed
    clock.opened(rep, rep.clause("pdot.b", ""))
    c = rep.clause("pdot.c", "")
    clock.opened(rep, c)
    c.check(True)
    clock.close(rep)
    assert clock.busy == {"pdot.a": 2.0, "pdot.b": 5.0, "pdot.c": 5.0}
    assert clock.groups == [("pdot.b", "pdot.c")]


def readme_query(semantics, data):
    # README's relational-composition diagram: inner (w,w,w,w) on
    # junctions (0,1,1,2), outer on junctions (0,2), |w| = 2
    return Query(semantics, "S", "path", (2, 2, 2), ((0, 1, 1, 2),), (data,),
                 (0, 2), False, "")


def test_oracle_on_readme_relational_composition():
    q = readme_query("rel", frozenset({(0, 1, 1, 0)}))
    assert evalstream.expected(q) == {(0, 0)}
    assert evalstream.check(q, "1")
    assert not evalstream.check(q, "2")
    assert not evalstream.check(q, "10")  # a bit beyond the outer product


def test_oracle_on_readme_chain_costs():
    q = readme_query("trop", {(0, 1, 1, 0): 3})
    assert evalstream.expected(q) == {(0, 0): 3, (0, 1): INF, (1, 0): INF, (1, 1): INF}
    assert evalstream.check(q, json.dumps([3, "inf", "inf", "inf"]))
    assert not evalstream.check(q, json.dumps([2, "inf", "inf", "inf"]))


def test_stream_is_seeded_and_agrees_with_the_program(tmp_path):
    import child
    import run

    queries = evalstream.make_stream(7, 1)
    assert [q.doc for q in queries] == [q.doc for q in evalstream.make_stream(7, 1)]
    assert [q.doc for q in queries] != [q.doc for q in evalstream.make_stream(8, 1)]
    assert len(queries) == evalstream.BLOCK
    assert sum(q.nested for q in queries) == 2 * evalstream.NESTED_PER_BLOCK
    assert max(q.entries for q in queries if q.semantics == "trop") == 3 ** 9

    path = tmp_path / "queries.json"
    run.write_queries(queries, path)
    res = child.run_stream({"queries": str(path)}, None)
    assert len(res["printed"]) == len(queries)
    for q, text in zip(queries, res["printed"]):
        assert evalstream.check(q, text), (q.semantics, q.shape, q.doc)


def test_metric_names_match_benchmark_json():
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    got = {"setups": [0.1], "main": [1.0], "aux": [0.5], "ops_per_s": 2.0,
           "children": [{"maxrss_kb": 1024}]}
    e2e = run.end_to_end_metrics(got)
    assert [(k, u) for k, (_, u) in e2e.items()] == [
        (m["name"], m["unit"]) for m in bench["end_to_end"]]
    empty = {"stats": {}, "caches": {"product": {"hits": 0, "misses": 0},
                                     "fn_product": {"hits": 0, "misses": 0}},
             "clauses": {}, "root_s": 0.0}
    layers = run.layer_metrics([empty], 0, 1.0, 2.0)
    assert [(k, u) for k, (_, u) in layers.items()] == [
        (m["name"], m["unit"]) for m in bench["per_layer"]]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "eval-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
