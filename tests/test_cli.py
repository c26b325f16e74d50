import json
import pathlib
import subprocess
import sys

from doctrina.cli import load_triple_file, main

DATA = pathlib.Path(__file__).parent / "data"
CORPUS = str(DATA / "uwd_corpus.json")


def run_main(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestEval:
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

    def test_unknown_diagram_exit_2(self, capsys):
        rc, _, _ = run_main(
            ["eval", "--input", CORPUS, "--diagram", "nope", "--system",
             "join-input"],
            capsys,
        )
        assert rc == 2


class TestVerify:
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

    def test_size_guard_exit_2(self, capsys):
        rc, _, err = run_main(["verify", "--max-size", "5"], capsys)
        assert rc == 2
        assert "force" in err

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


class TestRoundtripCommand:
    def test_both_fibers(self, capsys):
        rc, out, _ = run_main(
            ["roundtrip", "--max-size", "2", "--k", "2", "--summary"], capsys
        )
        assert rc == 0
        assert "roundtrip.fibers" in out


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
