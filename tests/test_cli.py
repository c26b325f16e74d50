import collections
import dataclasses
import hashlib
import itertools
import json
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, strategies as st

from doctrina import doctrine, finset, poskit, uwd
from doctrina.cli import load_triple_file, main
from doctrina.errors import DoctrinaError
from doctrina.finset import AdequateTriple, FinFn, FinSet, MorClass
from doctrina.report import Report

DATA = pathlib.Path(__file__).parent / "data"
CORPUS = str(DATA / "uwd_corpus.json")


def run_main(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


# the stdout and exit code of ``eval --check`` on every (diagram, system)
# pair of the corpus; a system whose context is not the diagram's inner
# boundary exits 2
MISMATCH = 2, ""
CORPUS_EVAL = {
    ("relational-composition", "join-input"): (0, "1\n"),
    ("relational-composition", "chain-costs"): (0, '[3, "inf", "inf", "inf"]\n'),
    ("relational-composition", "diagonal-pair"): MISMATCH,
    ("identity-pair", "join-input"): MISMATCH,
    ("identity-pair", "chain-costs"): MISMATCH,
    ("identity-pair", "diagonal-pair"): (0, "9\n"),
    ("close-loop", "join-input"): MISMATCH,
    ("close-loop", "chain-costs"): MISMATCH,
    ("close-loop", "diagonal-pair"): (0, "1\n"),
}


class TestEval:
    @pytest.mark.parametrize("diagram, system", list(CORPUS_EVAL))
    def test_corpus_pair_output(self, capsys, diagram, system):
        rc, out, err = run_main(
            ["eval", "--input", CORPUS, "--diagram", diagram, "--system", system,
             "--check"],
            capsys,
        )
        assert (rc, out) == CORPUS_EVAL[diagram, system]
        assert err.startswith("oracle: match" if rc == 0 else "error: system context")

    def test_relational_composition_hex(self, capsys):
        rc, out, _ = run_main(
            ["eval", "--input", CORPUS, "--diagram", "relational-composition",
             "--system", "join-input", "--check"],
            capsys,
        )
        assert rc == 0
        assert out.strip() == "1"

    def test_identity_echoes_input(self, capsys):
        rc, out, _ = run_main(
            ["eval", "--input", CORPUS, "--diagram", "identity-pair",
             "--system", "diagonal-pair"],
            capsys,
        )
        assert rc == 0
        assert out.strip() == "9"

    def test_tropical_chain_cost(self, capsys):
        rc, out, _ = run_main(
            ["eval", "--input", CORPUS, "--diagram", "relational-composition",
             "--system", "chain-costs", "--check"],
            capsys,
        )
        assert rc == 0
        assert json.loads(out) == [3, "inf", "inf", "inf"]

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _, err = run_main(
            ["eval", "--input", str(bad), "--diagram", "x", "--system", "y"],
            capsys,
        )
        assert rc == 2
        assert "error" in err

    def test_deeply_nested_input_exit_2(self, capsys, tmp_path):
        # past the decoder's recursion limit: an input error, not a crash
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        rc, out, err = run_main(
            ["eval", "--input", str(deep), "--diagram", "x", "--system", "y"],
            capsys,
        )
        assert (rc, out) == (2, "")
        assert err == f"error: {deep}: JSON nested too deeply to decode\n"

    def test_negative_mask_exit_2(self, capsys, tmp_path):
        doc = json.loads((DATA / "uwd_corpus.json").read_text())
        doc["systems"]["join-input"]["data"] = "-1"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc, out, err = run_main(
            ["eval", "--input", str(bad), "--diagram", "relational-composition",
             "--system", "join-input"],
            capsys,
        )
        assert rc == 2
        assert out == ""
        assert "not a hex mask" in err

    def test_context_string_exit_2(self, capsys, tmp_path):
        doc = json.loads((DATA / "uwd_corpus.json").read_text())
        doc["systems"]["diagonal-pair"]["context"] = "ww"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc, out, err = run_main(
            ["eval", "--input", str(bad), "--diagram", "identity-pair",
             "--system", "diagonal-pair"],
            capsys,
        )
        assert rc == 2
        assert out == ""
        assert "not a list of labels" in err

    @pytest.mark.parametrize("edit", [
        lambda d: d["domains"].update(w=2.9),
        lambda d: d["domains"].update(w="2"),
        lambda d: d["domains"].update(w=True),
        lambda d: d["domains"].update(w=-1),
        lambda d: d.update(domains=["w"]),
        lambda d: d.update(labels="w"),
        lambda d: d.update(labels=[["w"]]),
        lambda d: d.update(diagrams=[]),
        lambda d: d.update(systems=[]),
        lambda d: d["diagrams"].update({"relational-composition": []}),
        lambda d: d["systems"].update({"join-input": ["w", "rel", "40"]}),
        lambda d: d["diagrams"]["relational-composition"].update(
            inner=[["w"], "w", "w", "w"]),
        lambda d: [],
    ], ids=[
        "domain-float", "domain-string", "domain-bool", "domain-negative",
        "domains-list", "labels-string", "labels-nested", "diagrams-list",
        "systems-list", "diagram-list", "system-list", "port-label-nested",
        "document-list",
    ])
    def test_malformed_document_exit_2(self, capsys, tmp_path, edit):
        # each of these was once decoded (2.9 read as 2, "w" as its
        # characters) or crashed with a traceback
        doc = json.loads((DATA / "uwd_corpus.json").read_text())
        edited = edit(doc)
        doc = doc if edited is None else edited
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc, out, err = run_main(
            ["eval", "--input", str(bad), "--diagram", "relational-composition",
             "--system", "join-input", "--check"],
            capsys,
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("edit, key", [
        (lambda d: d.update(sytems=d.pop("systems")), "sytems"),
        (lambda d: d["diagrams"]["relational-composition"].update(h=[0]), "h"),
        (lambda d: d["systems"]["join-input"].update(cap=9), "cap"),
    ], ids=["top-level", "diagram", "system"])
    def test_unknown_corpus_key_exit_2(self, capsys, tmp_path, edit, key):
        # a misspelt or stray key would otherwise be read as absent or
        # ignored, and the oracle would still match
        doc = json.loads((DATA / "uwd_corpus.json").read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc, out, err = run_main(
            ["eval", "--input", str(bad), "--diagram", "relational-composition",
             "--system", "join-input", "--check"],
            capsys,
        )
        assert rc == 2
        assert out == ""
        assert f'unknown key "{key}"' in err

    def test_costs_above_254_pass_through(self, capsys, tmp_path):
        # cost vectors carry plain ints: a cap of 300 is no bound; output
        # recorded from the integer-index implementation
        doc = {
            "labels": ["w"], "domains": {"w": 2},
            "diagrams": {"swap": {"inner": ["w", "w"], "junctions": ["w", "w"],
                                  "outer": ["w", "w"], "f": [0, 1], "g": [1, 0]}},
            "systems": {"costs": {"context": ["w", "w"], "semantics": "trop",
                                  "data": [280, 299, 260, 500]}},
        }
        path = tmp_path / "cap300.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run_main(
            ["eval", "--input", str(path), "--diagram", "swap", "--system", "costs",
             "--k", "300", "--check", "--force"],
            capsys,
        )
        assert rc == 0
        assert json.loads(out) == [280, 260, 299, "inf"]
        assert "oracle: match" in err

    @pytest.mark.parametrize("k, force, rc", [
        (62, False, 0), (63, False, 2), (63, True, 0),
    ])
    def test_cap_guard(self, capsys, k, force, rc):
        # a min-plus evaluation tabulates V's join and tensor, (k + 2)**2
        # entries each: 4,096 at k = 62 is the most the guard lets through
        argv = ["eval", "--input", CORPUS, "--diagram", "relational-composition",
                "--system", "chain-costs", "--k", str(k), "--check"]
        got, out, err = run_main(argv + ["--force"] * force, capsys)
        assert got == rc
        if rc:
            assert out == ""
            assert err == (
                f"error: the min-plus tables for --k {k} have {k + 2}**2 entries, "
                "above the cost guard (4096); rerun with --force\n"
            )
        else:
            assert json.loads(out) == [3, "inf", "inf", "inf"]
            assert err == "oracle: match\n"

    def test_cap_guard_spares_relational_systems(self, capsys):
        # a relational evaluation builds no min-plus table
        rc, out, _ = run_main(
            ["eval", "--input", CORPUS, "--diagram", "relational-composition",
             "--system", "join-input", "--k", "1000", "--check"],
            capsys,
        )
        assert (rc, out) == (0, "1\n")

    def test_unknown_diagram_exit_2(self, capsys):
        rc, _, _ = run_main(
            ["eval", "--input", CORPUS, "--diagram", "nope", "--system",
             "join-input"],
            capsys,
        )
        assert rc == 2


def path_query_doc(k: int, cap: int = 3, seed: int = 5) -> dict:
    """k binary min-plus boxes on a path of k + 1 junctions of domain 3,
    given as their joint cost array, read back at the two ends."""
    rng = random.Random(seed)
    boxes = [
        {t: rng.choice((0, 0, 1, 2, 3, 4)) for t in itertools.product(range(3), repeat=2)}
        for _ in range(k)
    ]
    costs = [
        sum(boxes[b][t[2 * b:2 * b + 2]] for b in range(k))
        for t in itertools.product(range(3), repeat=2 * k)
    ]
    return {
        "labels": ["v"],
        "domains": {"v": 3},
        "diagrams": {"path": {
            "inner": ["v"] * (2 * k),
            "junctions": ["v"] * (k + 1),
            "outer": ["v", "v"],
            "f": [j for b in range(k) for j in (b, b + 1)],
            "g": [0, k],
        }},
        "systems": {"boxes": {
            "context": ["v"] * (2 * k),
            "semantics": "trop",
            "data": ["inf" if c > cap else c for c in costs],
        }},
    }


class TestEvalCheckPathQuery:
    @pytest.fixture(scope="class")
    def path5(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("path") / "path5.json"
        path.write_text(json.dumps(path_query_doc(5)))
        return str(path)

    def test_oracle_match(self, capsys, path5):
        rc, out, err = run_main(
            ["eval", "--input", path5, "--diagram", "path", "--system", "boxes",
             "--check"],
            capsys,
        )
        assert rc == 0
        assert err == "oracle: match\n"
        assert len(set(json.loads(out))) > 1

    def test_perturbed_result_exit_3(self, capsys, monkeypatch, path5):
        evaluate = uwd.evaluate

        def perturbed(*args):
            got = evaluate(*args)
            first = (got.predicate[0] + 1) % 5
            return dataclasses.replace(got, predicate=(first,) + got.predicate[1:])

        monkeypatch.setattr(uwd, "evaluate", perturbed)
        rc, _, err = run_main(
            ["eval", "--input", path5, "--diagram", "path", "--system", "boxes",
             "--check"],
            capsys,
        )
        assert rc == 3
        assert err.startswith("oracle mismatch")


class TestVerify:
    def test_powerset_size_2_report_bytes(self, capsys):
        # pinned bytes: caching composites and formatting witnesses only
        # on failure must leave the report as it was
        rc, out, _ = run_main(
            ["verify", "--fiber", "powerset", "--max-size", "2"], capsys
        )
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "dfee1ecc29ca42599b18cea4679c8fc829a035348014901cf83b2a86b6a9c8eb"
        )

    @pytest.mark.parametrize("argv, digest", [
        (["verify"],
         "c01d7916ccfb06c87b98640205b86199b41e07836631d604281ba760c7e5836c"),
        (["roundtrip"],
         "142b318e3c10da63308e55d9b8a0d6b0eac9bde7c1a7313e1851965890bef487"),
        (["roundtrip", "--fiber", "powerset"],
         "b533a80e405365cc102d20241093ccaea03df178f98ca743fa67bdf134d80e80"),
        (["verify", "--max-size", "3", "--fiber", "powerset"],
         "d0ff07a21ed482a34bb1e078db69cef3d19f5f83d01f1ee69bddea2fd0998fd4"),
    ], ids=["verify", "roundtrip", "roundtrip-powerset", "verify-powerset-size-3"])
    def test_default_report_bytes(self, capsys, argv, digest):
        # pinned bytes of the CLI defaults, of the powerset round trip and
        # of powerset at bound 3: the powerset doctrine is the stock one
        # over the 2-chain, and its reports are what the bitmask doctrine
        # printed; bound 3 is the one pinned report whose Galois and
        # Frobenius clauses range over maps between 3-element sets
        rc, out, _ = run_main(argv, capsys)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", [
        (["verify", "--fiber", "tropical"],
         "aff906fd3643a11c360e5e7144aad941ecc0eae7217a8a7c60fe7957931d55df"),
        (["roundtrip", "--fiber", "tropical"],
         "61204ccc12ce52b8ee3569bf5298fd36d22e18b46b857986ac5c14f6a1691871"),
    ], ids=["verify", "roundtrip"])
    def test_tropical_report_bytes(self, capsys, argv, digest):
        # pinned bytes of the benchmark's tropical commands (cap 3): the
        # whole-table span action must leave both reports as they were
        rc, out, _ = run_main(argv, capsys)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_powerset_size_2_passes(self, capsys):
        rc, out, _ = run_main(
            ["verify", "--fiber", "powerset", "--max-size", "2", "--summary"],
            capsys,
        )
        assert rc == 0
        assert "OK" in out

    def test_tropical_k2_passes(self, capsys):
        rc, out, _ = run_main(
            ["verify", "--fiber", "tropical", "--k", "2", "--max-size", "2"],
            capsys,
        )
        assert rc == 0

    def test_inj_right_fails_with_projection_witness(self, capsys):
        rc, out, _ = run_main(
            ["verify", "--triple", "inj-right", "--max-size", "2"],
            capsys,
        )
        assert rc == 1
        records = [json.loads(line) for line in out.splitlines()]
        bad = [r for r in records if r["failures"]]
        assert len(bad) == 1
        assert bad[0]["clause"] == "triple.projections"
        assert "not in R" in bad[0]["witnesses"][0]

    def test_roundtrip_refuses_an_inadequate_triple(self, capsys):
        # the round trip runs the adequacy check first, as verify does, and
        # on a failure prints that report alone, noted, and exits 1
        rc, out, err = run_main(["roundtrip", "--triple", "inj-right"], capsys)
        assert (rc, err) == (1, "")
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["clause"] for r in records] == [
            "triple.identities", "triple.composition", "triple.pullbacks",
            "triple.products", "triple.projections",
        ]
        assert [r["clause"] for r in records if r["failures"]] == ["triple.projections"]
        assert records[0]["notes"] == [
            "triple failed adequacy; fiber suites skipped on this configuration"
        ]

    def test_size_guard_exit_2(self, capsys):
        rc, _, err = run_main(["verify", "--max-size", "5"], capsys)
        assert rc == 2
        assert "force" in err

    @pytest.mark.parametrize("command", ["verify", "roundtrip"])
    def test_cap_guard_at_one_slot(self, capsys, command):
        # at --max-size 1 the fibers have k + 2 elements, but V's tables
        # and the order of P(1) x P(1) still have (k + 2)**2
        rc, out, err = run_main(
            [command, "--max-size", "1", "--fiber", "tropical", "--k", "63"], capsys
        )
        assert rc == 2
        assert out == ""
        assert "min-plus tables for --k 63 have 65**2 entries" in err
        rc, _, _ = run_main(
            [command, "--max-size", "1", "--fiber", "powerset", "--k", "63"], capsys
        )
        assert rc == 0

    @pytest.mark.parametrize("command", ["verify", "roundtrip"])
    def test_fiber_size_guard_exit_2(self, capsys, command):
        # the external tensor reaches the fiber over 3 x 3 slots: 5**9
        # min-plus values, far more than the suites can build
        rc, out, err = run_main([command, "--max-size", "3"], capsys)
        assert rc == 2
        assert out == ""
        assert "tropical fiber over 3 x 3 slots has 5**9 elements" in err
        assert "force" in err

    @pytest.mark.parametrize("command", ["verify", "roundtrip"])
    def test_triple_file_universe_guarded(self, capsys, tmp_path, command):
        # the adequacy check would enumerate up to the file's universe,
        # whatever --max-size says
        path = tmp_path / "triple.json"
        path.write_text(json.dumps({"universe": 5}))
        rc, out, err = run_main(
            [command, "--max-size", "1", "--triple-file", str(path)], capsys
        )
        assert rc == 2
        assert out == ""
        assert "triple-file universe 5 above the cost guard" in err
        assert "force" in err

    @pytest.mark.parametrize("command", ["verify", "roundtrip"])
    @pytest.mark.parametrize("universe", [0, -1])
    def test_triple_file_universe_below_one_exit_2(
        self, capsys, tmp_path, command, universe
    ):
        path = tmp_path / "triple.json"
        path.write_text(json.dumps({"universe": universe}))
        rc, out, err = run_main(
            [command, "--max-size", "1", "--triple-file", str(path)], capsys
        )
        assert rc == 2
        assert out == ""
        assert err == "error: universe bound must be at least 1\n"

    @pytest.mark.parametrize("command", ["verify", "roundtrip"])
    @pytest.mark.parametrize("left, right", [("all", "inj"), ("inj", "all")])
    def test_max_size_above_triple_file_universe_exit_2(
        self, capsys, tmp_path, command, left, right
    ):
        # adequacy is checked only up to the file's universe, so the suites
        # may not run above it: with universe 1 and --max-size 2, all-inj
        # passed everything although its built-in twin fails
        # triple.projections, and inj-all crashed verify on a square
        path = tmp_path / "triple.json"
        path.write_text(json.dumps({"universe": 1, "left": left, "right": right}))
        rc, out, err = run_main(
            [command, "--max-size", "2", "--triple-file", str(path)], capsys
        )
        assert rc == 2
        assert out == ""
        assert err == (
            "error: --max-size 2 exceeds the triple file's universe 1, "
            "the bound its adequacy is checked up to\n"
        )

    @pytest.mark.parametrize("left, witness", [
        ("all", "f=FinFn(0->0:[]): composite legs escaped their classes"),
        ({"explicit": [{"dom": 0, "cod": 1, "table": []},
                       {"dom": 1, "cod": 1, "table": [0]}]},
         "f=FinFn(0->1:[]): composite legs escaped their classes"),
    ], ids=["left-all", "left-without-identities"])
    def test_triple_without_identities_reports(self, capsys, tmp_path, left, witness):
        # a companion's snake pastes through a span whose legs leave the
        # classes: a failed triangle instance, not a crash
        spec = {"universe": 1, "left": left,
                "right": {"explicit": [{"dom": 1, "cod": 1, "table": [0]}]}}
        path = tmp_path / "triple.json"
        path.write_text(json.dumps(spec))
        rc, out, err = run_main(
            ["verify", "--max-size", "1", "--triple-file", str(path)], capsys
        )
        assert rc == 1
        assert err == ""
        records = {r["clause"]: r for r in map(json.loads, out.splitlines())}
        assert records["triple.identities"]["failures"] > 0
        assert records["spancat.companion-triangles"]["witnesses"][0] == witness

    def test_report_bytes_deterministic(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (out1, out2):
            rc, _, _ = run_main(
                ["verify", "--fiber", "powerset", "--max-size", "1",
                 "--out", str(path)],
                capsys,
            )
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("summary", [[], ["--summary"]])
    def test_out_serialises_the_report_once(self, capsys, monkeypatch, tmp_path, summary):
        # the file holds what stdout holds without --out, and stdout holds
        # the summary or nothing
        argv = ["verify", "--fiber", "powerset", "--max-size", "1"]
        _, plain, _ = run_main(argv, capsys)
        _, shown, _ = run_main(argv + summary, capsys)
        calls = []
        to_jsonl = Report.to_jsonl
        monkeypatch.setattr(
            Report, "to_jsonl", lambda report: calls.append(1) or to_jsonl(report)
        )
        path = tmp_path / "report.jsonl"
        rc, out, _ = run_main(argv + summary + ["--out", str(path)], capsys)
        assert rc == 0 and len(calls) == 1
        assert path.read_text(encoding="utf-8") == plain
        assert out == (shown if summary else "")

    def test_custom_triple_file(self, capsys, tmp_path):
        spec = {"universe": 2, "left": "all", "right": "surj",
                "nonempty_only": True}
        path = tmp_path / "triple.json"
        path.write_text(json.dumps(spec))
        t = load_triple_file(str(path))
        assert t.nonempty_only and t.right.kind == "surj"
        rc, _, _ = run_main(
            ["verify", "--fiber", "powerset", "--max-size", "2",
             "--triple-file", str(path)],
            capsys,
        )
        assert rc == 0

    def test_explicit_triple_file(self, tmp_path):
        spec = {"universe": 1, "right": {"explicit": [
            {"dom": 0, "cod": 0, "table": []},
            {"dom": 1, "cod": 1, "table": [0]},
        ]}}
        path = tmp_path / "triple.json"
        path.write_text(json.dumps(spec))
        t = load_triple_file(str(path))
        assert t.left.kind == "all"
        assert t.right.members == {
            FinFn(FinSet(0), FinSet(0), ()), FinFn(FinSet(1), FinSet(1), (0,)),
        }

    @pytest.mark.parametrize("spec, key", [
        ({"universe": 2, "left": "all", "right": "surj", "nonempty": True},
         "nonempty"),
        ({"universe": 1, "right": {"explicit": [], "other": 1}}, "other"),
        ({"universe": 1, "left": {"explicit": [
            {"dom": 1, "cod": 1, "table": [0], "codomain": 1}]}}, "codomain"),
    ], ids=["top-level", "class", "map"])
    def test_unknown_triple_file_key_exit_2(self, capsys, tmp_path, spec, key):
        # a misspelt key would otherwise be dropped for its default
        path = tmp_path / "triple.json"
        path.write_text(json.dumps(spec))
        rc, out, err = run_main(
            ["verify", "--fiber", "powerset", "--max-size", "1",
             "--triple-file", str(path)],
            capsys,
        )
        assert rc == 2
        assert out == ""
        assert f'unknown key "{key}"' in err

    @pytest.mark.parametrize("command", ["verify", "roundtrip"])
    def test_deeply_nested_triple_file_exit_2(self, capsys, tmp_path, command):
        # past the decoder's recursion limit: an input error, not a crash
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        rc, out, err = run_main(
            [command, "--fiber", "powerset", "--max-size", "1", "--triple-file", str(deep)],
            capsys,
        )
        assert (rc, out) == (2, "")
        assert err == f"error: {deep}: JSON nested too deeply to decode\n"

    @pytest.mark.parametrize("command", ["verify", "roundtrip"])
    def test_triple_and_triple_file_exclusive(self, capsys, tmp_path, command):
        # --triple was silently dropped for the file's triple
        path = tmp_path / "triple.json"
        path.write_text(json.dumps({"universe": 2, "left": "all", "right": "all"}))
        with pytest.raises(SystemExit) as exc:
            main([command, "--triple", "inj-right", "--triple-file", str(path),
                  "--fiber", "powerset"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "not allowed with argument" in out.err

    @pytest.mark.parametrize("spec, message", [
        ({"universe": 1, "nonempty_only": "false"},
         'nonempty_only must be true or false, got "false"'),
        ({"universe": 2.9}, "universe must be an integer, got 2.9"),
        ({"universe": True}, "universe must be an integer, got true"),
        ({"universe": 1, "left": {"explicit": [{"dom": 1, "cod": 1, "table": [0.0]}]}},
         "explicit map table entry must be an integer, got 0.0"),
    ], ids=["nonempty-string", "universe-float", "universe-bool", "table-float"])
    def test_mistyped_triple_file_exit_2(self, capsys, tmp_path, spec, message):
        path = tmp_path / "triple.json"
        path.write_text(json.dumps(spec))
        rc, out, err = run_main(
            ["verify", "--fiber", "powerset", "--max-size", "1",
             "--triple-file", str(path)],
            capsys,
        )
        assert rc == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("kind", ["all", "inj", "surj"])
    def test_bare_class_kind(self, tmp_path, kind):
        path = tmp_path / "triple.json"
        path.write_text(json.dumps({"universe": 1, "left": kind, "right": kind}))
        t = load_triple_file(str(path))
        assert t.left == t.right == MorClass(kind)

    @pytest.mark.parametrize("spec", [
        "explicit", "injections", "ALL", "", 0, None, ["all"], {"explicit": "all"}, {},
    ])
    def test_bad_class_spec_exit_2(self, capsys, tmp_path, spec):
        # only the three bare kinds name a class; an explicit one needs
        # its member list
        path = tmp_path / "triple.json"
        path.write_text(json.dumps({"universe": 1, "left": spec}))
        rc, out, err = run_main(
            ["verify", "--fiber", "powerset", "--max-size", "1", "--triple-file", str(path)],
            capsys,
        )
        assert (rc, out) == (2, "")
        assert err == f"error: bad class spec {spec!r}\n"


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.integers(),
    st.floats(),
    st.sampled_from(["all", "inj", "surj", "explicit", "2"]),
    st.text(max_size=3),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)
SIZES = st.integers(-1, 3) | JSON_VALUES
# a well-typed map, which its table may still make ill-formed, or not
EXPLICIT_MAPS = st.fixed_dictionaries({
    "dom": st.integers(0, 2),
    "cod": st.integers(0, 2),
    "table": st.lists(st.integers(-1, 2), max_size=2),
}) | st.fixed_dictionaries({
    "dom": SIZES,
    "cod": SIZES,
    "table": st.lists(st.integers(-1, 3), max_size=3) | JSON_VALUES,
}) | JSON_VALUES
CLASS_SPECS = (
    st.sampled_from(["all", "inj", "surj"])
    | st.fixed_dictionaries({"explicit": st.lists(EXPLICIT_MAPS, max_size=3)})
    | JSON_VALUES
)
TRIPLE_OBJECTS = st.fixed_dictionaries({}, optional={
    "universe": SIZES,
    "left": CLASS_SPECS,
    "right": CLASS_SPECS,
    "nonempty_only": st.booleans() | JSON_VALUES,
})
# documents shaped like a triple file three times in four, any JSON otherwise
TRIPLE_DOCS = st.one_of(TRIPLE_OBJECTS, TRIPLE_OBJECTS, TRIPLE_OBJECTS, JSON_VALUES)


@pytest.fixture(scope="module")
def triple_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "triple.json"


@given(doc=TRIPLE_DOCS)
def test_load_triple_file_loads_or_rejects(doc, triple_path):
    """Any JSON document either loads as a well-typed triple or is
    rejected with the errors the CLI turns into exit 2."""
    triple_path.write_text(json.dumps(doc))
    try:
        t = load_triple_file(str(triple_path))
    except (ValueError, DoctrinaError):
        return
    assert isinstance(t, AdequateTriple)
    assert type(t.universe) is int and type(t.nonempty_only) is bool
    assert isinstance(t.left, MorClass) and isinstance(t.right, MorClass)


class TestRoundtripCommand:
    def test_both_fibers(self, capsys):
        rc, out, _ = run_main(
            ["roundtrip", "--max-size", "2", "--k", "2", "--summary"], capsys
        )
        assert rc == 0
        assert "roundtrip.fibers" in out


    @pytest.mark.parametrize("spec, failing, witnesses", [
        ({"universe": 1, "left": "all",
          "right": {"explicit": [{"dom": 1, "cod": 1, "table": [0]}]}},
         {"triple.identities", "triple.pullbacks", "triple.projections"},
         {"triple.identities": "id_0 not in R"}),
        ({"universe": 2, "left": "surj", "right": "all", "nonempty_only": True},
         {"powerset.roundtrip.frobenius", "tropical.roundtrip.frobenius"},
         dict.fromkeys(["powerset.roundtrip.frobenius", "tropical.roundtrip.frobenius"],
                       "f=FinFn(1->2:[0]): left class must contain diagonals")),
    ], ids=["right-without-identities", "left-without-diagonals"])
    def test_refusal_is_a_failed_instance(self, capsys, tmp_path, spec, failing, witnesses):
        # what the triple refuses fails the clause that needed it, with the
        # reason, and the report is still printed: a missing identity fails
        # adequacy, which the round trip checks first; a square the recipe
        # needs, its Frobenius clause
        path = tmp_path / "triple.json"
        path.write_text(json.dumps(spec))
        rc, out, err = run_main(
            ["roundtrip", "--max-size", str(spec["universe"]),
             "--triple-file", str(path)],
            capsys,
        )
        assert rc == 1
        assert err == ""
        records = {r["clause"]: r for r in map(json.loads, out.splitlines())}
        assert {name for name, r in records.items() if r["failures"]} == failing
        for name, witness in witnesses.items():
            assert records[name]["witnesses"][0] == witness


def run_in_child(setup: str, argv: list[str], result: str) -> list:
    """``[exit code, result]`` of ``main(argv)`` run in a fresh
    interpreter after the statements ``setup``, ``result`` being an
    expression evaluated there and read back as JSON.  Counts of what
    the module-level caches build are taken in the child, where every
    cache starts empty, so no test clears a cache of this session."""
    code = "\n".join([
        "import collections, contextlib, io, json",
        "from doctrina import doctrine, poskit",
        "from doctrina.cli import main",
        textwrap.dedent(setup),
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    rc = main({argv!r})",
        f"print(json.dumps([rc, {result}]))",
    ])
    root = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestOrdersBuiltOnce:
    @pytest.mark.parametrize("command", ["verify", "roundtrip"])
    def test_each_tropical_order_is_validated_once(self, command):
        # every product of two fiber orders is a cached power, so no order
        # is built twice; the one exception is the unbalanced product
        # P(2) x P(1), whose 125 elements order like P(3) = P(1) x P(2)
        rc, validated = run_in_child(
            """
            validated = collections.Counter()
            validate = poskit.Poset.__post_init__

            def counting(p):
                validate(p)
                validated[p.size, p.leq] += 1

            poskit.Poset.__post_init__ = counting
            """,
            [command, "--fiber", "tropical", "--max-size", "2"],
            "[[size, n] for (size, _), n in validated.items()]",
        )
        assert rc == 0
        sizes = collections.Counter()
        for size, n in validated:
            sizes[size] += n
        assert sizes == {1: 1, 5: 1, 25: 1, 125: 2, 625: 1}
        assert [size for size, n in validated if n > 1] == [125]


class TestOneTablePerRelation:
    def test_span_actions_share_relation_tables(self):
        # a span acts through the relation it traces, so the 1,795 span
        # actions of the tropical extension build one table per distinct
        # relation and one column per distinct set of joined slots.
        # pdot.laxator-compositional builds no right side for a key whose
        # σ is the identity (1,936 actions and 251 tables when it did),
        # and pdot.double-assoc images no triple composite whose two
        # bracketings have one span id (1,799 actions when it did); every
        # column is still built
        rc, (calls, tables, columns, maps) = run_in_child(
            """
            calls = collections.Counter()
            doctrines = set()
            # every map returned, kept alive so that distinct maps keep
            # distinct ids
            actions = []
            span_action, span_table = doctrine.Doctrine.span_action, doctrine.span_table

            def counting(self, left, right):
                calls["span_action"] += 1
                doctrines.add(self)
                actions.append(span_action(self, left, right))
                return actions[-1]

            def counting_table(*args):
                calls["span_table"] += 1
                return span_table(*args)

            doctrine.Doctrine.span_action = counting
            doctrine.span_table = counting_table
            """,
            ["verify", "--fiber", "tropical", "--max-size", "2"],
            "[calls, [len(d._tables) for d in doctrines],"
            " poskit.join_column.cache_info().misses,"
            " len({id(m) for m in actions})]",
        )
        assert rc == 0
        assert calls["span_action"] == 1795
        # the doctrine keeps the map of each table it builds, and builds
        # each table once
        assert tables == [calls["span_table"]] == [250]
        assert columns == 17
        # one map object per relation, returned to every span tracing
        # it; each action built a map of its own (1,795) when the
        # doctrine kept bare tables
        assert maps == 250

    def test_spans_of_one_relation_share_one_map(self):
        # apexes of 2 and 3 points, both tracing the relation that sends
        # both source slots to the one target slot
        d = doctrine.tropical_doctrine(finset.trivial_triple(2))
        two, three = FinSet(2), FinSet(3)
        x = d.span_action(FinFn(two, two, (0, 1)), finset.bang(two))
        y = d.span_action(FinFn(three, two, (1, 0, 1)), finset.bang(three))
        z = d.span_action(FinFn(two, two, (0, 0)), finset.bang(two))
        assert x is y
        assert z is not x and z.table != x.table

    def test_laxator_squares_build_no_product_map(self):
        # laxator squares are decided on the factor tables of their top,
        # so in a passing run the doubling binding of map_product builds
        # only the tops that the nine laxator_cell reads of
        # pdot.laxator-unital return (685 calls when every decided
        # square built its top, 676 of them for pdot.laxator-commuter)
        rc, products = run_in_child(
            """
            from doctrina import doubling, report

            products = collections.Counter()
            opened = [None]
            clause, map_product = report.Report.clause, doubling.map_product

            def opening(self, clause_id, law):
                opened[0] = clause_id
                return clause(self, clause_id, law)

            def counting(f, g):
                products[opened[0]] += 1
                return map_product(f, g)

            report.Report.clause = opening
            doubling.map_product = counting
            """,
            ["verify", "--fiber", "tropical", "--max-size", "2"],
            "products",
        )
        assert rc == 0
        assert products == {"pdot.laxator-unital": 9}


class TestWitnessesFormattedOnFailureOnly:
    @pytest.mark.parametrize("command", ["verify", "roundtrip"])
    def test_passing_tropical_run_formats_no_witness(self, capsys, monkeypatch, command):
        # every witness naming a map, span or cell is a callable that a
        # passing instance never calls, so a passing run prints none
        from doctrina import finset, spancat

        calls = collections.Counter()
        for cls in (finset.FinFn, spancat.Span, spancat.SpanCell):
            def counting(self, _repr=cls.__repr__, _name=cls.__name__):
                calls[_name] += 1
                return _repr(self)

            monkeypatch.setattr(cls, "__repr__", counting)
        rc, _, _ = run_main([command, "--fiber", "tropical"], capsys)
        assert rc == 0
        assert calls == {}


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "doctrina", "eval", "--input", CORPUS,
             "--diagram", "close-loop", "--system", "diagonal-pair"],
            capture_output=True, text=True,
            cwd=str(pathlib.Path(__file__).parent.parent),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1"
