"""The doctrina benchmark: verdict time and query latency end to end,
with a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; doctrina is imported from
``src/``, nothing is installed.  Every command or query stream runs in a
fresh child process (``child.py``), one at a time, so the program's
module-level caches start cold as they do for a user, and the benchmark
never keeps more than one core busy.  Children get no ``--jobs`` and no
``DOCTRINA_JOBS``.

Workloads (see README.md for why these three):

* ``verify-powerset`` / ``verify-tropical``: ``doctrina verify`` and
  ``doctrina roundtrip`` at CLI defaults for one fiber, plus the
  ``--triple inj-right`` control, repeated until ``S`` seconds have
  passed (at least twice).  The inputs are fixed configurations; the
  seed orders the three commands within each repetition.
* ``eval-stream``: a closed loop with one client sending the seeded
  query stream of ``evalstream.py`` for ``S`` seconds.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs a fixed amount of work twice, untraced and then
traced, and prints the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import evalstream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("verify-powerset", "verify-tropical", "eval-stream")
SETUP_PROBES = 4  # setup-only children before and after the query stream
ROUNDTRIPS = 5  # roundtrip commands per repetition, for enough samples
CHILD_TIMEOUT_S = 170
MIN_REPS = 2
TRACE_BLOCKS = 4  # eval-stream queries per traced pass: 4 blocks of 40
LAYERS = ("finset", "poskit", "spancat", "doctrine", "doubling",
          "extraction", "uwd", "report", "cli")

# sha256 of each command's JSONL report at the commit that defined the
# benchmark; a different hash is reported, not failed (instance counts
# may legitimately change)
KNOWN_REPORTS = {
    "verify-powerset": {
        "verify": "d8af73ed052c854a3a917fe52bd07e4f5e8361f623d6943387d9aafeed329ecd",
        "roundtrip": "64e5827abd451edf88297ff859e896aaa39e4140c0bdcd4428c0481a28c609b6",
        "control": "237205251b1276241ad40eb223252c1f91adfaa6577b4eac2a9be20d08d6cb40",
    },
    "verify-tropical": {
        "verify": "0d40c528585e9feabca785490ee8e6c261a767081bcc7cf136f064b782d5eb8e",
        "roundtrip": "b2a1ab8e71d84c7f1bf31cdc0df43ccb9ad9f2c858fcee8e4d207150fe887ac4",
        "control": "237205251b1276241ad40eb223252c1f91adfaa6577b4eac2a9be20d08d6cb40",
    },
}

PDOT_CLAUSES = (
    "tight-identity", "tight-compose", "unitor", "compositor",
    "double-assoc", "double-unital", "cell-existence", "cell-vertical",
    "cell-horizontal", "laxator-cell", "laxator-commuter",
    "laxator-naturality", "laxator-unital", "laxator-compositional",
    "laxator-bc-squares", "unit-cell", "symmetry-cell", "symmetry-naturality",
)
SAMPLED_CLAUSES = ("cell-vertical", "cell-horizontal", "laxator-compositional")


class ChildFailed(Exception):
    pass


def spawn(task: dict) -> dict:
    """Run one child to completion and return its result, with the
    set-up time measured from just before the spawn."""
    env = {k: v for k, v in os.environ.items() if k != "DOCTRINA_JOBS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(task)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        raise ChildFailed(f"{task['kind']} child timed out") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(
            f"{task['kind']} child exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - t0
    res["wall_s"] = time.monotonic() - t0
    return res


def p50(xs):
    return statistics.median(xs)


def p90(xs):
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


class Run:
    """Counts operations and failures, and collects what to print."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.lines: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def say(self, text: str) -> None:
        self.lines.append(text)


# ---------------------------------------------------------------------------
# verify workloads


def commands(workload: str, out_dir: Path, tag: str, roundtrips: int):
    """The (name, argv) pairs of one repetition, unordered."""
    fiber = ["--fiber", "powerset"] if workload == "verify-powerset" else [
        "--fiber", "tropical", "--k", "3"]
    out = [("verify", ["verify", *fiber, "--out", str(out_dir / f"verify-{tag}.jsonl")]),
           ("control", ["verify", "--triple", "inj-right",
                        "--out", str(out_dir / f"control-{tag}.jsonl")])]
    out += [("roundtrip", ["roundtrip", *fiber,
                           "--out", str(out_dir / f"roundtrip-{tag}-{i}.jsonl")])
            for i in range(roundtrips)]
    return out


def report_ok(name: str, rc: int, text: str) -> bool:
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not records:
        return False
    if name == "control":
        proj = [r for r in records if r["clause"] == "triple.projections"]
        return rc == 1 and len(proj) == 1 and proj[0]["failures"] > 0
    return rc == 0 and all(r["failures"] == 0 for r in records)


def verify_pass(run: Run, workload: str, rng: random.Random, out_dir: Path,
                tag: str, trace: bool, roundtrips: int, results: dict,
                reports: dict) -> None:
    """One repetition: each command, in a seeded order."""
    cmds = commands(workload, out_dir, tag, roundtrips)
    rng.shuffle(cmds)
    for name, argv in cmds:
        try:
            res = spawn({"kind": "cli", "argv": argv, "trace": trace})
            text = Path(argv[-1]).read_text(encoding="utf-8")
        except (ChildFailed, OSError) as e:
            run.op(False, f"{name}: {e}")
            continue
        run.op(report_ok(name, res["rc"], text), f"{name} {tag}: wrong verdict")
        results.setdefault(name, []).append(res)
        reports.setdefault(name, []).append(text)


def check_reports(run: Run, workload: str, reports: dict) -> bool:
    """Every repetition of a command wrote the same bytes; say whether
    the bytes are the recorded ones."""
    same = True
    for name, texts in sorted(reports.items()):
        digest = hashlib.sha256(texts[0].encode()).hexdigest()
        if any(t != texts[0] for t in texts):
            same = False
            run.problems.append(f"{name}: report differs between repetitions")
        known = KNOWN_REPORTS.get(workload, {}).get(name)
        status = "as recorded" if digest == known else "CHANGED from the recorded hash"
        run.say(f"  report {name:<9} sha256 {digest[:16]}  x{len(texts)}  {status}")
    return same


def verify_workload(run: Run, workload: str, seed: int, seconds: float,
                    out_dir: Path) -> dict:
    rng = random.Random(seed)
    results: dict = {}
    reports: dict = {}
    start = time.monotonic()
    reps = 0
    while reps < MIN_REPS or time.monotonic() - start < seconds:
        verify_pass(run, workload, rng, out_dir, str(reps), False, ROUNDTRIPS,
                    results, reports)
        reps += 1
    consistent = check_reports(run, workload, reports)
    children = [r for v in results.values() for r in v]
    if not ("verify" in results and "roundtrip" in results):
        raise ChildFailed("no verify or roundtrip command completed")
    for name in ("verify", "roundtrip"):
        rs = results.get(name, [])
        run.say(f"  {name + '_s':<15} {p50([r['ref_s'] for r in rs]):10.3f} s    "
                f"median of {len(rs)}; wall {p50([r['elapsed'] for r in rs]):.3f} s")
    busy = sum(r["ref_s"] for r in children)
    run.say(f"  commands/s      {len(children) / busy:10.4f} 1/s  "
            f"{len(children)} commands in {busy:.1f} s")
    return {
        "consistent": consistent,
        "main": [r["ref_s"] for r in results.get("verify", [])],
        "aux": [r["ref_s"] for r in results.get("roundtrip", [])],
        "ops_per_s": len(children) / busy,
        "setups": [r["setup_s"] for r in children],
        "children": children,
    }


# ---------------------------------------------------------------------------
# eval-stream


def write_queries(queries, path: Path) -> None:
    rows = [
        {"doc": q.doc, "sem": q.semantics, "boxes": len(q.boxes), "nested": q.nested}
        for q in queries
    ]
    path.write_text(json.dumps(rows), encoding="utf-8")


def check_stream(run: Run, queries, res: dict) -> None:
    for q, text in zip(queries, res["printed"]):
        run.op(evalstream.check(q, text), f"{q.semantics} {q.shape} query: wrong answer")


def describe_stream(run: Run, queries, latencies) -> None:
    """Shares of the query properties, and the size class each
    percentile lands in."""
    n = len(queries)
    seen = set()
    repeats = 0
    for q in queries:
        key = q.diagram_key
        repeats += key in seen
        seen.add(key)

    def share(pred) -> str:
        return f"{sum(1 for q in queries if pred(q)) / n:.3f}"

    run.say(f"  queries {n}: nested {share(lambda q: q.nested)}, "
            f"diagram repeats an earlier one {repeats / n:.3f}")
    for field in ("shape", "size_class"):
        values = sorted({getattr(q, field) for q in queries})
        run.say(f"  {field}: " + ", ".join(
            f"{v} {share(lambda q, v=v: getattr(q, field) == v)}" for v in values))
    for sem in ("rel", "trop"):
        rows = sorted((t, q.size_class) for q, t in zip(queries, latencies)
                      if q.semantics == sem)
        if not rows:
            continue
        at = [rows[min(len(rows) - 1, int(p * len(rows)))][1] for p in (0.5, 0.9)]
        by_class = ", ".join(
            f"{c} {p50([t for t, k in rows if k == c]) * 1e3:.2f}"
            for c in sorted({k for _, k in rows}))
        run.say(f"  {sem}: p50 in class {at[0]}, p90 in class {at[1]}; "
                f"median ms by class: {by_class}")


def stream_queries(seed: int, blocks: int, out_dir: Path):
    queries = evalstream.make_stream(seed, blocks)
    path = out_dir / "queries.json"
    write_queries(queries, path)
    return queries, path


def eval_workload(run: Run, seed: int, seconds: float, out_dir: Path) -> dict:
    # enough blocks that the stream cannot run dry before the deadline
    queries, path = stream_queries(seed, max(4, int(seconds * 3)), out_dir)
    setups = setup_probes()
    res = spawn({"kind": "stream", "queries": str(path), "seconds": seconds})
    setups += setup_probes() + [res["setup_s"]]
    done = queries[:len(res["printed"])]
    if len(done) == len(queries):
        run.problems.append("stream ran dry before the deadline")
    check_stream(run, done, res)
    describe_stream(run, done, res["latencies"])
    lat = {sem: [t for q, t in zip(done, res["latencies"]) if q.semantics == sem]
           for sem in ("rel", "trop")}
    for sem in ("rel", "trop"):
        run.say(f"  {sem}_p50_ms      {p50(lat[sem]) * 1e3:10.3f} ms   "
                f"{sem}_p90_ms {p90(lat[sem]) * 1e3:.3f} ms, {len(lat[sem])} queries")
    qps = len(done) / res["ref_s"]
    run.say(f"  queries_per_s   {qps:10.3f} 1/s  wall {len(done) / res['elapsed']:.3f} 1/s")
    return {
        "consistent": True,
        "main": lat["trop"],
        "aux": lat["rel"],
        "ops_per_s": qps,
        "setups": setups,
        "children": [res],
    }


# ---------------------------------------------------------------------------
# metrics


def setup_probes() -> list[float]:
    return [spawn({"kind": "setup"})["setup_s"] for _ in range(SETUP_PROBES)]


def end_to_end(run: Run, workload: str, seed: int, seconds: float, out_dir: Path):
    if workload == "eval-stream":
        got = eval_workload(run, seed, seconds, out_dir)
    else:
        got = verify_workload(run, workload, seed, seconds, out_dir)
    metrics = end_to_end_metrics(got)
    run.say(f"  setup_s         {metrics['setup_s'][0]:10.4f} s    "
            f"median of {len(got['setups'])}")
    run.say(f"  peak_rss_mb     {metrics['peak_rss_mb'][0]:10.2f} MB")
    run.say(f"  failed_share    {run.failed / max(run.attempted, 1):10.4f}      "
            f"{run.failed} of {run.attempted}")
    return metrics, got["consistent"]


def end_to_end_metrics(got: dict) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of BENCHMARK.json; see README.md for what
    main and aux stand for on each workload."""
    return {
        "setup_s": (p50(got["setups"]), "s"),
        "main_p50_ms": (p50(got["main"]) * 1e3, "ms"),
        "main_p90_ms": (p90(got["main"]) * 1e3, "ms"),
        "aux_p50_ms": (p50(got["aux"]) * 1e3, "ms"),
        "aux_p90_ms": (p90(got["aux"]) * 1e3, "ms"),
        "ops_per_s": (got["ops_per_s"], "1/s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in got["children"]) / 1024, "MB"),
    }


def layer_metrics(traces: list[dict], rel_codec_calls: int, untraced_s: float,
                  traced_s: float) -> dict[str, tuple[float, str]]:
    """Sum the children's traces into the per-layer metrics."""
    stats: dict[str, dict] = {}
    for tr in traces:
        for name, rec in tr["stats"].items():
            acc = stats.setdefault(name, {})
            for k, v in rec.items():
                acc[k] = acc.get(k, 0) + v
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, measure: str) -> None:
        unit = "s" if measure.endswith("_s") else "count"
        out[f"{name}.{measure}"] = (stats.get(name, {}).get(measure, 0), unit)

    for name, measures in LAYER_STATS:
        for m in measures:
            put(name, m)
    for name in ("product", "fn_product"):
        hits = sum(tr["caches"][name]["hits"] for tr in traces)
        misses = sum(tr["caches"][name]["misses"] for tr in traces)
        out[f"finset.{name}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    clauses: dict[str, dict] = {}
    for tr in traces:
        for cid, rec in tr["clauses"].items():
            clauses[cid] = rec
    for cid in PDOT_CLAUSES:
        rec = clauses.get(f"pdot.{cid}", {})
        out[f"doubling.clause.pdot.{cid}.busy_s"] = (rec.get("busy_s", 0.0), "s")
        out[f"doubling.clause.pdot.{cid}.instances"] = (rec.get("instances", 0), "count")
    for cid in SAMPLED_CLAUSES:
        rec = clauses.get(f"pdot.{cid}", {})
        out[f"doubling.clause.pdot.{cid}.sampled"] = (rec.get("sampled", 0), "count")
        out[f"doubling.clause.pdot.{cid}.total"] = (rec.get("total", 0), "count")
    root = sum(tr["root_s"] for tr in traces)
    for layer in LAYERS:
        own = sum(rec.get("self_s", 0) for name, rec in stats.items()
                  if name.split(".")[0] == layer)
        out[f"{layer}.self_share"] = (own / root if root else 0.0, "ratio")
    out["poskit.trop_codec.rel_calls"] = (rel_codec_calls, "count")
    out["trace.untraced_s"] = (untraced_s, "s")
    out["trace.traced_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out


# (span name, measures) in the order the per-layer metrics are listed
LAYER_STATS = (
    ("finset.pullback", ("calls", "self_s")),
    ("finset.compose", ("calls", "self_s")),
    ("finset.repr", ("calls",)),
    ("finset.pushout", ("calls", "self_s")),
    ("spancat.loose_compose", ("calls", "distinct", "self_s")),
    ("spancat.enumerate_cells", ("busy_s",)),
    ("spancat.cell_vcompose", ("calls",)),
    ("spancat.cell_hcompose", ("calls",)),
    ("poskit.then", ("calls", "self_s")),
    ("poskit.leq_maps", ("calls", "self_s")),
    ("poskit.iso_maps", ("calls",)),
    ("poskit.map_product", ("self_s",)),
    ("poskit.monotone_map", ("self_s",)),
    ("poskit.tropical_fiber", ("busy_s",)),
    ("poskit.trop_codec", ("calls", "self_s", "digits")),
    ("doctrine.subst", ("calls", "distinct", "busy_s")),
    ("doctrine.exists", ("calls", "distinct", "busy_s")),
    ("doctrine.span_action", ("calls", "busy_s")),
    ("doctrine.external_laxator", ("busy_s",)),
    ("doctrine.check_doctrine", ("busy_s",)),
    ("doctrine.act", ("calls", "busy_s")),
    ("doctrine.pair_predicate", ("calls", "busy_s")),
    ("doubling.verify_pdot", ("busy_s", "self_s")),
    ("doubling.loose_image", ("calls", "distinct")),
    ("doubling.compositor", ("busy_s",)),
    ("doubling.cell_image", ("busy_s",)),
    ("doubling.laxator_cell", ("busy_s",)),
    ("doubling.symmetry_cell", ("busy_s",)),
    ("extraction.roundtrip", ("busy_s",)),
    ("extraction.frobenius_via_Bhat", ("busy_s",)),
    ("uwd.load_corpus", ("busy_s",)),
    ("uwd.tensor_systems", ("busy_s",)),
    ("uwd.compose_diagrams", ("busy_s",)),
    ("uwd.evaluate", ("busy_s",)),
    ("uwd.reindex", ("busy_s", "entries")),
    ("uwd.format_predicate", ("busy_s",)),
    ("report.check", ("calls",)),
    ("report.to_jsonl", ("busy_s",)),
    ("cli.main", ("busy_s",)),
)


def predictions(workload: str, traces: list[dict], metrics: dict):
    """The per-layer predictions of README.md that one run can decide."""
    if workload == "eval-stream":
        calls = sum(rec["calls"] for tr in traces for name, rec in tr["stats"].items()
                    if name.split(".")[0] in ("doubling", "spancat"))
        yield "no doubling or spancat calls", calls == 0
        yield ("no tropical codec calls on relational queries",
               metrics["poskit.trop_codec.rel_calls"][0] == 0)
    if workload == "verify-powerset":
        yield "no tropical codec calls", metrics["poskit.trop_codec.calls"][0] == 0


def traced(run: Run, workload: str, seed: int, out_dir: Path):
    """The same fixed work untraced, then traced; per-layer metrics
    come from the traced half, the overhead from the difference."""
    if workload == "eval-stream":
        queries, path = stream_queries(seed, TRACE_BLOCKS, out_dir)
        halves = []
        for trace in (False, True):
            res = spawn({"kind": "stream", "queries": str(path), "trace": trace})
            check_stream(run, queries, res)
            halves.append(res)
        plain, tr = halves
        same = plain["printed"] == tr["printed"]
        describe_stream(run, queries, tr["latencies"])
        traces = [tr["trace"]]
        rel_codec = tr["rel_codec_calls"]
        untraced_s, traced_s = plain["ref_s"], tr["ref_s"]
    else:
        rng = random.Random(seed)
        plain, tr, reports = {}, {}, {}
        verify_pass(run, workload, rng, out_dir, "plain", False, 1, plain, reports)
        verify_pass(run, workload, rng, out_dir, "traced", True, 1, tr, reports)
        same = check_reports(run, workload, reports)
        traces = [r["trace"] for v in tr.values() for r in v]
        rel_codec = 0
        untraced_s = sum(r["ref_s"] for v in plain.values() for r in v)
        traced_s = sum(r["ref_s"] for v in tr.values() for r in v)
        groups = {tuple(g) for t in traces for g in t["groups"]}
        for g in sorted(groups):
            run.say("  clauses sharing one interval: " + " + ".join(g))
    metrics = layer_metrics(traces, rel_codec, untraced_s, traced_s)
    for claim, held in predictions(workload, traces, metrics):
        run.say(f"  prediction {'held' if held else 'FAILED'}: {claim}")
    return metrics, same


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "doctrina" / "__init__.py").is_file():
        print(f"error: no doctrina sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = SCRATCH / str(os.getpid())
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    run = Run()
    try:
        if args.trace:
            metrics, consistent = traced(run, args.workload, args.seed, out_dir)
        else:
            metrics, consistent = end_to_end(
                run, args.workload, args.seed, args.seconds, out_dir)
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for line in run.lines + [f"  problem: {p}" for p in run.problems]:
        print(line)
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<52} {value:14.6g} {unit}")
    result = {
        "correct": run.failed == 0 and consistent,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
