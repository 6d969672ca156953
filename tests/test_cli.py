"""Command line surface: verbs, formats, exit codes, golden output."""

import io
import json
import contextlib
import pathlib

import pytest

from wpline import cli, verify
from wpline.grading import make_line


GOLDEN = pathlib.Path(__file__).parent / "golden" / "poset_w2.dot"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def test_classify_text():
    code, out, _ = run_cli(["classify", "--weights", "2"])
    assert code == 0
    assert out == "domestic, delta(omega)=-3\n"


def test_classify_json_fields():
    code, out, _ = run_cli(["classify", "--weights", "2,3,7", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["type"] == "wild"
    assert doc["delta_omega"] == 1
    assert doc["weights"] == [2, 3, 7]


def test_json_is_sorted_and_indented():
    code, out, _ = run_cli(["classify", "--weights", "2", "--format", "json"])
    keys = [line.split('"')[1] for line in out.splitlines() if line.startswith('  "')]
    assert keys == sorted(keys)
    assert out.endswith("\n")


def test_hom_and_ext_text():
    code, out, _ = run_cli(["hom", "--weights", "2", "--from", "O", "--to", "S(inf,0)"])
    assert code == 0
    assert out == "dim Hom(O(0,0;0), S(inf,0)) = 1\n"
    code, out, _ = run_cli(["ext", "--weights", "2", "--from", "S(inf,0)", "--to", "S(inf,1)"])
    assert code == 0
    assert out == "dim Ext1(S(inf,0), S(inf,1)) = 1\n"


def test_hom_parses_degree_forms():
    code, out, _ = run_cli(["hom", "--weights", "2", "--from", "O(-2)", "--to", "O(3)"])
    assert code == 0
    assert out.endswith("= 3\n")
    code2, out2, _ = run_cli(["hom", "--weights", "2",
                              "--from", "O(0,0;-1)", "--to", "O(1,0;1)"])
    assert code2 == 0
    assert out2.endswith("= 3\n")


def test_tube_enum_json():
    code, out, _ = run_cli(["tube-enum", "--rank", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 6
    assert len(doc["subcategories"]) == 6
    kinds = [s["exc"] for s in doc["subcategories"]]
    assert kinds.count(True) == 3 and kinds.count(False) == 3


def test_tube_enum_deterministic():
    a = run_cli(["tube-enum", "--rank", "3", "--format", "json"])
    b = run_cli(["tube-enum", "--rank", "3", "--format", "json"])
    assert a == b


@pytest.mark.parametrize("rank", [3, 4])
def test_tube_enum_dot_matches_golden(rank):
    """The Hasse diagram of the tube lattice, pinned byte for byte."""
    code, out, _ = run_cli(["tube-enum", "--rank", str(rank), "--format", "dot"])
    assert code == 0
    assert out == (GOLDEN.parent / f"tube_r{rank}.dot").read_text()


def test_cox_default_element():
    code, out, _ = run_cli(["cox", "--weights", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["abs_length"] == 3
    assert doc["matrix"] == [[3, 2, -1], [-2, -1, 1], [1, 1, -1]]


def test_cox_of_sheaf_sequence():
    code, out, _ = run_cli(["cox", "--weights", "2", "--sheaves", "O;O(1)"])
    assert code == 0
    doc = json.loads(out)
    assert doc["abs_length"] == 2


def test_perp_members():
    code, out, _ = run_cli(["perp", "--weights", "2", "--sheaves", "S(inf,0)",
                            "--window", "-2..3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["members"] == ["O(0,0;-1)", "O(0,0;0)", "O(0,0;1)", "S[2](inf,0)"]
    assert doc["decomposition"]["reduced_weights"] == [1, 1]
    assert doc["decomposition"]["cross_orthogonal"] is True


def test_poset_dot_matches_golden_bytes():
    code, out, _ = run_cli(["poset", "--weights", "2"])
    assert code == 0
    assert out == GOLDEN.read_text()
    assert out == verify.GOLDEN_DOT_W2


def test_poset_explicit_window_same_golden():
    code, out, _ = run_cli(["poset", "--weights", "2", "--window", "-2..3",
                            "--format", "dot"])
    assert code == 0
    assert out == verify.GOLDEN_DOT_W2


def test_poset_json_counts():
    code, out, _ = run_cli(["poset", "--weights", "1,1", "--universe", "0,1",
                            "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nodes"]) == 11
    assert doc["undecidable"] == []


def test_poset_undecidable_exit_code(monkeypatch):
    real = cli.build_poset

    def tampered(line, lo, hi, universe_ids=()):
        poset = real(line, lo, hi, universe_ids)
        poset.undecidable = ("window too small for a pair",)
        return poset

    monkeypatch.setattr(cli, "build_poset", tampered)
    code, out, err = run_cli(["poset", "--weights", "2"])
    assert code == 3
    assert "window too small" in err


def test_verify_passes():
    code, out, _ = run_cli(["verify"])
    assert code == 0
    assert "13/13 criteria passed" in out


CANNED_REPORTS = [
    {"name": "first check", "ok": True, "seconds": 0.5, "detail": "fine"},
    {"name": "second check", "ok": False, "seconds": 1.25, "detail": "off by one"},
]


@pytest.mark.parametrize("reports, code, text", [
    (CANNED_REPORTS[:1], 0, "[ 1] PASS first check (0.5s) fine\n1/1 criteria passed\n"),
    (CANNED_REPORTS, 1, "[ 1] PASS first check (0.5s) fine\n"
                        "[ 2] FAIL second check (1.25s) off by one\n1/2 criteria passed\n"),
])
def test_verify_text_and_json_formats(monkeypatch, reports, code, text):
    monkeypatch.setattr(verify, "run_all", lambda: [dict(r) for r in reports])
    assert run_cli(["verify"])[:2] == (code, text)
    json_code, out, _ = run_cli(["verify", "--format", "json"])
    assert json_code == code
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert doc == {"schema": 1, "criteria": reports, "passed": 1, "total": len(reports)}


def test_usage_errors_exit_2():
    assert run_cli(["no-such-verb"])[0] == 2
    assert run_cli(["hom", "--weights", "2", "--from", "O"])[0] == 2
    assert run_cli(["hom", "--weights", "2", "--from", "O", "--to", "what(4"])[0] == 2
    assert run_cli(["tube-enum", "--rank", "0"])[0] == 2
    assert run_cli(["poset", "--weights", "2", "--window", "3..-2"])[0] == 2
    assert run_cli(["classify", "--weights", "2,x"])[0] == 2


def test_parse_sheaf_rejects_unknown_point():
    line = make_line((2,))
    with pytest.raises(ValueError):
        cli.parse_sheaf(line, "S(nowhere,0)")


def test_parse_sheaf_accepts_stack_and_ordinary():
    line = make_line((2,))
    s = cli.parse_sheaf(line, "S[2](inf,1)")
    from wpline import sheaves as sh
    assert s == sh.stack_at(line, 0, 1, 2)
    t = cli.parse_sheaf(line, "ord(q,2)")
    assert t == sh.OrdinaryTorsion(line, "q", 2)
