"""Command-line entry point: run the law suites, evaluate diagrams,
run the round trip.

Reports are line-delimited JSON records so CI can diff them; --summary
prints a human table instead.  Exit codes: 0 all clauses pass, 1 law
failure, 2 configuration or parse error, 3 oracle mismatch under
``eval --check``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import doctrine as doctrine_mod
from . import extraction, uwd
from .doubling import PDot, verify_pdot
from .errors import DoctrinaError
from .finset import (
    AdequateTriple,
    FinFn,
    FinSet,
    MorClass,
    check_adequate_triple,
    injection_right_triple,
    surjection_triple,
    trivial_triple,
)
from .report import Report
from .spancat import SpanCategory

MAX_UNGUARDED_SIZE = 4
# the largest fiber the suites may build unforced: the external tensor
# reaches the fiber over max-size x max-size slots
MAX_FIBER_SIZE = 4096

TRIPLES = {
    "all-all": trivial_triple,
    "surj-right": surjection_triple,
    "inj-right": injection_right_triple,
}


def _json_int(value, what: str) -> int:
    """A JSON integer; ``true``, ``2.9`` and ``"2"`` are not sizes."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _json_map(m) -> FinFn:
    if not isinstance(m, dict) or not isinstance(m.get("table"), list):
        raise ValueError(f"explicit map needs dom, cod and a table list: {json.dumps(m)}")
    uwd.json_keys(m, ("dom", "cod", "table"), "explicit map")
    return FinFn(
        FinSet(_json_int(m.get("dom"), "explicit map dom")),
        FinSet(_json_int(m.get("cod"), "explicit map cod")),
        tuple(_json_int(v, "explicit map table entry") for v in m["table"]),
    )


def _class_from_spec(spec) -> MorClass:
    # a bare kind names its class; an explicit class needs its members
    if spec != "explicit" and spec in MorClass.ALL_KINDS:
        return MorClass(spec)
    if isinstance(spec, dict) and isinstance(spec.get("explicit"), list):
        uwd.json_keys(spec, ("explicit",), "class spec")
        return MorClass.explicit(_json_map(m) for m in spec["explicit"])
    raise ValueError(f"bad class spec {spec!r}")


def load_triple_file(path: str) -> AdequateTriple:
    """Decode a triple file; a value of the wrong JSON type is an error,
    never coerced."""
    doc = uwd.load_json_file(path)
    if not isinstance(doc, dict):
        raise ValueError("triple file must hold a JSON object")
    uwd.json_keys(doc, ("universe", "left", "right", "nonempty_only"), "triple file")
    nonempty_only = doc.get("nonempty_only", False)
    if not isinstance(nonempty_only, bool):
        raise ValueError(
            f"nonempty_only must be true or false, got {json.dumps(nonempty_only)}"
        )
    return AdequateTriple(
        universe=_json_int(doc.get("universe", 3), "universe"),
        left=_class_from_spec(doc.get("left", "all")),
        right=_class_from_spec(doc.get("right", "all")),
        nonempty_only=nonempty_only,
    )


def _resolve_triple(args) -> AdequateTriple:
    if getattr(args, "triple_file", None):
        triple = load_triple_file(args.triple_file)
        # the adequacy check enumerates up to the file's own universe
        if triple.universe > MAX_UNGUARDED_SIZE and not args.force:
            raise ValueError(
                f"triple-file universe {triple.universe} above the cost guard "
                f"({MAX_UNGUARDED_SIZE}); rerun with --force"
            )
        if triple.universe < 1:
            raise ValueError("universe bound must be at least 1")
        if args.max_size > triple.universe:
            raise ValueError(
                f"--max-size {args.max_size} exceeds the triple file's universe "
                f"{triple.universe}, the bound its adequacy is checked up to"
            )
        return triple
    return TRIPLES[args.triple](max(args.max_size, 1))


def _doctrines(args, triple):
    out = []
    if args.fiber in ("powerset", "both"):
        out.append(("powerset", doctrine_mod.powerset_doctrine(triple)))
    if args.fiber in ("tropical", "both"):
        out.append(("tropical", doctrine_mod.tropical_doctrine(triple, args.k)))
    return out


def _prefix(report: Report, tag: str) -> Report:
    for c in report.clauses:
        c.clause = f"{tag}.{c.clause}"
    return report


def _emit(report: Report, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_jsonl() + "\n")
    if args.summary or not args.out:
        print(report.summary() if args.summary else report.to_jsonl())


def _guard_size(args) -> None:
    if args.max_size < 1:
        raise ValueError("max-size must be at least 1")
    # |V| is 2 for powerset and cap + 2 for min-plus (a cap below 1 is
    # refused later); comparing logarithms never builds an absurd power
    slots = args.max_size**2
    for name, size in (("powerset", 2), ("tropical", max(args.k, 1) + 2)):
        if args.fiber in (name, "both") and not args.force and (
            slots * math.log2(size) > math.log2(MAX_FIBER_SIZE)
        ):
            raise ValueError(
                f"the {name} fiber over {args.max_size} x {args.max_size} slots has "
                f"{size}**{slots} elements, above the cost guard ({MAX_FIBER_SIZE}); "
                "rerun with --force"
            )
    if args.fiber in ("tropical", "both"):
        _guard_cap(args)


def _guard_cap(args) -> None:
    # a min-plus doctrine tabulates V's join and tensor, and the external
    # tensor orders P(1) x P(1): (k + 2)**2 entries each, whatever the
    # number of slots
    size = max(args.k, 1) + 2
    if not args.force and size * size > MAX_FIBER_SIZE:
        raise ValueError(
            f"the min-plus tables for --k {args.k} have {size}**2 entries, "
            f"above the cost guard ({MAX_FIBER_SIZE}); rerun with --force"
        )


def _adequacy(triple: AdequateTriple) -> Report:
    adequacy = check_adequate_triple(triple)
    if not adequacy.passed:
        adequacy.clauses[0].note(
            "triple failed adequacy; fiber suites skipped on this configuration"
        )
    return adequacy


def cmd_verify(args) -> int:
    _guard_size(args)
    triple = _resolve_triple(args)

    adequacy = _adequacy(triple)
    report = Report().extend(adequacy)
    report.extend(SpanCategory(triple).check_triangles(args.max_size))
    if adequacy.passed:
        for name, d in _doctrines(args, triple):
            report.extend(_prefix(doctrine_mod.check_doctrine(d, args.max_size), name))
            report.extend(_prefix(verify_pdot(PDot(d), args.max_size), f"{name}.double"))
    _emit(report, args)
    return 0 if report.passed else 1


def cmd_roundtrip(args) -> int:
    _guard_size(args)
    triple = _resolve_triple(args)
    adequacy = _adequacy(triple)
    if not adequacy.passed:
        _emit(adequacy, args)
        return 1
    report = Report()
    for name, d in _doctrines(args, triple):
        report.extend(_prefix(extraction.roundtrip(d, args.max_size), name))
    _emit(report, args)
    return 0 if report.passed else 1


def cmd_eval(args) -> int:
    corpus = uwd.load_corpus_file(args.input, cap=args.k)
    if args.diagram not in corpus.diagrams:
        raise ValueError(f"no diagram named {args.diagram!r}")
    if args.system not in corpus.systems:
        raise ValueError(f"no system named {args.system!r}")
    w = corpus.diagrams[args.diagram]
    system, semantics = corpus.systems[args.system]
    triple = trivial_triple()
    if semantics == "rel":
        d = doctrine_mod.powerset_doctrine(triple)
    else:
        _guard_cap(args)
        d = doctrine_mod.tropical_doctrine(triple, args.k)
    result = uwd.evaluate(w, system, d, corpus.types)
    print(uwd.format_predicate(result, semantics, corpus.types, args.k))

    if args.check:
        if semantics == "rel":
            members = uwd.rel_tuples(system.predicate, system.context, corpus.types)
            expect = uwd.relational_oracle(w, members, corpus.types)
            got = uwd.rel_tuples(result.predicate, result.context, corpus.types)
        else:
            costs = uwd.trop_costs(system.predicate, system.context, corpus.types)
            expect = uwd.tropical_oracle(w, costs, corpus.types, args.k)
            got = uwd.trop_costs(result.predicate, result.context, corpus.types)
        if got != expect:
            print(f"oracle mismatch: expected {expect!r}, got {got!r}", file=sys.stderr)
            return 3
        print("oracle: match", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doctrina",
        description="machine-checked span doctrines and wiring-diagram evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max-size", type=int, default=2,
                       help="enumeration bound on set sizes (default 2)")
        p.add_argument("--k", type=int, default=3,
                       help="cost cap for the tropical fiber (default 3)")
        p.add_argument("--fiber", choices=["powerset", "tropical", "both"],
                       default="both")
        triple = p.add_mutually_exclusive_group()
        triple.add_argument("--triple", choices=sorted(TRIPLES), default="all-all")
        triple.add_argument("--triple-file", help="JSON file describing a custom triple")
        p.add_argument("--out", help="write the JSONL report to this path")
        p.add_argument("--summary", action="store_true",
                       help="print a human table instead of JSONL")
        p.add_argument("--force", action="store_true",
                       help="allow a fiber or a triple-file universe "
                            "beyond the cost guard")

    pv = sub.add_parser("verify", help="run the law suites")
    common(pv)
    pv.set_defaults(fn=cmd_verify)

    pr = sub.add_parser("roundtrip", help="extract the double data back")
    common(pr)
    pr.set_defaults(fn=cmd_roundtrip)

    pe = sub.add_parser("eval", help="evaluate a wiring diagram on a system")
    pe.add_argument("--input", required=True, help="diagram/system JSON file")
    pe.add_argument("--diagram", required=True)
    pe.add_argument("--system", required=True)
    pe.add_argument("--k", type=int, default=3)
    pe.add_argument("--check", action="store_true",
                    help="compare against the brute-force oracle")
    pe.add_argument("--force", action="store_true",
                    help="allow a cost cap beyond the cost guard")
    pe.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DoctrinaError, ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
