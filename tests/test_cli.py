"""Command line surface: verbs, formats, exit codes, golden output."""

import io
import json
import contextlib
import hashlib
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from wpline import cli, tube, verify, widposet
from wpline.grading import make_line, parse_weights
from wpline.widposet import build_poset

from test_widposet import ref_order_messages, thin_inclusion_order


GOLDEN = pathlib.Path(__file__).parent / "golden" / "poset_w2.dot"
HELP_GOLDEN = GOLDEN.parent / "cli_help_usage.json"


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


@pytest.mark.parametrize("weights, to", [("2,3", "O(1,0;0)"), ("1,1", "O(0,0;1)")])
def test_line_bundle_shorthand_counts_first_weighted_generator(weights, to):
    """O(k) is k times the generator of the first weighted point, or k*c
    when no point is weighted: on 2,3, O(1) has degree 3, though the
    finest generator degree is 2."""
    code, out, _ = run_cli(["hom", "--weights", weights, "--from", "O", "--to", "O(1)",
                            "--format", "json"])
    assert code == 0
    assert f'"to": "{to}"' in out


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


@pytest.mark.parametrize("weights", ["2", "2,3", "3,3", "4", "2,2"])
def test_cox_sequence_feeds_back_through_sheaves(weights):
    """The `;` inside O(l1,..,ln;c) does not split the list, so the
    sequence cox prints is accepted back and gives the same document."""
    code, out, _ = run_cli(["cox", "--weights", weights, "--format", "json"])
    assert code == 0
    listed = ";".join(json.loads(out)["sequence"])
    assert run_cli(["cox", "--weights", weights, "--format", "json",
                    "--sheaves", listed]) == (0, out, "")


@pytest.mark.parametrize("verb", ["cox", "perp"])
def test_empty_sheaf_list_exits_2(verb):
    """An explicitly empty --sheaves is a parse error on both verbs, as a
    blank one is; cox does not fall back to the canonical sequence."""
    for listed in ("", " "):
        assert run_cli([verb, "--weights", "2", "--sheaves", listed]) == \
            (2, "", f"error: cannot parse sheaf {listed!r}\n")


def test_perp_accepts_normal_form_bundles():
    for forms in (("O(1,0;0)", "O(1)"), ("O(1,0;0);S(inf,1)", "O(1);S(inf,1)")):
        normal, short = (run_cli(["perp", "--weights", "2", "--sheaves", s]) for s in forms)
        assert normal[0] == 0
        assert normal == short, forms
    assert json.loads(normal[1])["generators"] == ["O(1,0;0)", "S(inf,1)"]


def test_perp_members():
    code, out, _ = run_cli(["perp", "--weights", "2", "--sheaves", "S(inf,0)",
                            "--window", "-2..3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["members"] == ["O(0,0;-1)", "O(0,0;0)", "O(0,0;1)", "S[2](inf,0)"]
    assert doc["decomposition"]["reduced_weights"] == [1, 1]
    assert doc["decomposition"]["cross_orthogonal"] is True


# text output of the verbs whose default format is not text, and of
# tube-enum, pinned byte for byte
TEXT_OUTPUTS = [
    (["tube-enum", "--rank", "2"],
     "{} exc\n{(0,1)} exc\n{(0,2)} non-exc\n{(1,1)} exc\n{(1,2)} non-exc\n"
     "{(0,1),(0,2),(1,1),(1,2)} non-exc\ntotal 6\n"),
    (["cox", "--weights", "2", "--format", "text"],
     "sequence: O(0,0;0); O(1,0;0); O(0,0;1)\n"
     "     3    2   -1\n    -2   -1    1\n     1    1   -1\nabs_length = 3\n"),
    (["perp", "--weights", "2", "--sheaves", "S(inf,0)", "--window", "-2..3", "--format", "text"],
     "O(0,0;-1)\nO(0,0;0)\nO(0,0;1)\nS[2](inf,0)\n"),
]


@pytest.mark.parametrize("argv, text", TEXT_OUTPUTS, ids=["tube-enum", "cox", "perp"])
def test_text_output_matches_pinned_bytes(argv, text):
    assert run_cli(argv) == (0, text, "")


def test_poset_text_matches_golden_and_dot_names():
    """The text listing of 2 @ -2..3 is pinned byte for byte, the empty
    node's line with its trailing space, and names the nodes and covers of
    the golden DOT in its order."""
    code, out, err = run_cli(["poset", "--weights", "2", "--format", "text"])
    assert (code, err) == (0, "")
    assert out == (GOLDEN.parent / "poset_w2.txt").read_text()
    assert out.startswith("0: \n")
    dot = GOLDEN.read_text()
    lines = out.splitlines()
    assert [x.split(": ")[0] for x in lines if ": " in x] == re.findall(r'^  "([^"]+)";$', dot, re.M)
    assert [tuple(x.split(" < ")) for x in lines if " < " in x] == \
        re.findall(r'^  "([^"]+)" -> "([^"]+)";$', dot, re.M)


def test_poset_dot_matches_golden_bytes():
    code, out, _ = run_cli(["poset", "--weights", "2"])
    assert code == 0
    assert out == GOLDEN.read_text()
    assert hashlib.sha256(out.encode()).hexdigest() == verify.GOLDEN_DOT_W2_SHA256


def test_poset_explicit_window_same_golden():
    code, out, _ = run_cli(["poset", "--weights", "2", "--window", "-2..3",
                            "--format", "dot"])
    assert code == 0
    assert out == GOLDEN.read_text()
    assert hashlib.sha256(out.encode()).hexdigest() == verify.GOLDEN_DOT_W2_SHA256


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


def test_poset_disagreement_exits_3(monkeypatch):
    """An order check that disagrees with the mechanisms: exit 3, nothing
    on stdout, and the pairwise messages on stderr as schema-1 JSON."""
    dropped = thin_inclusion_order(monkeypatch)
    code, out, err = run_cli(["poset", "--weights", "2"])
    expected = ref_order_messages(build_poset(make_line((2,)), -2, 3), dropped)
    assert expected
    assert (code, out) == (3, "")
    assert err == json.dumps({"schema": 1, "undecidable": expected}, sort_keys=True,
                             indent=2) + "\n"


@pytest.mark.parametrize("argv", [["--weights", w] for w in ("2,3", "4", "2,4", "5", "6")]
                         + [["--weights", "4", "--window", "-4..2"]])
def test_poset_decides_default_windows(argv):
    """Lines whose default window left pairs undecided at window scale
    before the generators certified every node."""
    code, out, err = run_cli(["poset", *argv])
    assert (code, err) == (0, "")
    assert out.startswith("digraph wid {")


def test_poset_process_loads_no_fractions_or_verify():
    """A fresh process that runs `poset` never imports fractions (nor
    decimal, which it pulls in), the acceptance criteria or the
    Grothendieck group, which only `cox` reads."""
    script = ("import contextlib, io, sys\n"
              "before = set(sys.modules)\n"
              "from wpline import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = cli.run(['poset', '--weights', '3,3', '--window', '-2..3'])\n"
              "print(code, sorted({'fractions', 'decimal', 'wpline.verify', 'wpline.ktheory'}\n"
              "                   & set(sys.modules) - before))\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 []\n", "")


def test_cli_import_builds_no_translate_table_or_enum():
    """`import wpline.cli` builds neither the byte-digit tables of
    tube.holders, which its first call builds, nor an Enum class, so a
    fresh process pays for neither before its request."""
    script = ("import contextlib, enum, io, sys\n"
              "from wpline import cli, tube\n"
              "built = tube._bit_digits.cache_info().currsize\n"
              "enums = [name for name, module in sys.modules.items() if name.startswith('wpline')\n"
              "         for value in vars(module).values() if isinstance(value, enum.EnumMeta)]\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = cli.run(['poset', '--weights', '2', '--window', '-2..3'])\n"
              "print(built, enums, code, tube._bit_digits.cache_info().currsize)\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 [] 0 1\n", "")


def run_entry_point(argv):
    """Exit code, stdout and stderr of a fresh `python -m wpline.cli`
    process, which ends through main()."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]), COLUMNS="80")
    done = subprocess.run([sys.executable, "-m", "wpline.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_entry_point_keeps_bytes_streams_and_exit_codes():
    """main() frees nothing at exit, yet the process writes what run()
    writes: the golden DOT with exit 0, argparse's usage error with
    exit 2, and the undecidable pairs of a window one degree narrower
    than delta(c) as JSON on stderr with exit 3."""
    assert run_entry_point(["poset", "--weights", "2", "--window", "-2..3"]) == \
        (0, GOLDEN.read_text(), "")
    usage = next(case for case in json.loads(HELP_GOLDEN.read_text()) if case["code"] == 2)
    assert run_entry_point(usage["argv"]) == (usage["code"], usage["stdout"], usage["stderr"])
    narrow = ["poset", "--weights", "2", "--window", "-2..-2"]
    code, out, err = run_entry_point(narrow)
    assert (code, out, err) == run_cli(narrow)
    assert (code, out) == (3, "")
    report = json.loads(err)
    assert report["schema"] == 1
    assert report["undecidable"] and all(m.startswith("window cannot separate ")
                                         for m in report["undecidable"])


VERB_ARGVS = [
    ["classify", "--weights", "2,3"],
    ["hom", "--weights", "2", "--from", "O", "--to", "S(inf,0)"],
    ["ext", "--weights", "2", "--from", "S(inf,0)", "--to", "S(inf,1)"],
    ["cox", "--weights", "2,2"],
    ["perp", "--weights", "2", "--sheaves", "S(inf,0)"],
    ["tube-enum", "--rank", "3", "--format", "dot"],
    ["poset", "--weights", "2,3", "--window", "-6..6"],
]


# requests with no JSON output: DOT for poset and tube-enum, text for classify
NO_JSON_ARGVS = [
    ["poset", "--weights", "2,3", "--window", "-6..6"],
    ["tube-enum", "--rank", "3", "--format", "dot"],
    ["classify", "--weights", "2,3"],
]


def test_requests_other_than_cox_load_no_ktheory():
    """A fresh process that runs hom, ext, classify, perp and poset
    requests never imports the Grothendieck group, and the first read of
    a line's K0 record, `line._k0`, does."""
    argvs = [argv for argv in VERB_ARGVS if argv[0] in {"hom", "ext", "classify", "perp", "poset"}]
    assert len(argvs) == 5
    script = ("import contextlib, io, sys\n"
              "from wpline import cli\n"
              "from wpline.grading import make_line\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    codes = [cli.run(argv) for argv in {argvs!r}]\n"
              "before = 'wpline.ktheory' in sys.modules\n"
              "record = make_line((2, 3))._k0\n"
              "print(codes, before, 'wpline.ktheory' in sys.modules, type(record).__name__)\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == \
        (0, f"{[0] * len(argvs)} False True _LineTable\n", "")


def test_only_verify_loads_the_oracle():
    """`import wpline.cli` loads seven wpline modules, and a fresh process
    that runs every VERB_ARGVS request loads neither the linear-algebra
    oracle, nilpotent and linalg, nor fractions.  A first oracle call
    loads the oracle, and so does `verify`; neither loads fractions."""
    loaded = ("sorted({'wpline.nilpotent', 'wpline.linalg', 'fractions'}"
              " & set(sys.modules) - before)")
    head = ("import contextlib, io, sys\n"
            "before = set(sys.modules)\n"
            "from wpline import cli, tube\n"
            "from wpline.tube import Arc\n"
            "print(sorted(m for m in sys.modules if m.startswith('wpline')))\n")
    verbs = head + ("with contextlib.redirect_stdout(io.StringIO()):\n"
                    f"    codes = [cli.run(argv) for argv in {VERB_ARGVS!r}]\n"
                    f"print(codes, {loaded})\n"
                    "dim = tube.ext_dim_via_presentation(Arc(2, 0, 1), Arc(2, 1, 1))\n"
                    f"print(dim, {loaded})\n")
    run_verify = head + ("with contextlib.redirect_stdout(io.StringIO()):\n"
                         "    code = cli.run(['verify'])\n"
                         f"print(code, {loaded})\n")
    modules = ("['wpline', 'wpline._record', 'wpline.cli', 'wpline.grading', 'wpline.sheaves', "
               "'wpline.tube', 'wpline.widposet']\n")
    oracle = "['wpline.linalg', 'wpline.nilpotent']"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    for script, want in ((verbs, f"{modules}{[0] * len(VERB_ARGVS)} []\n1 {oracle}\n"),
                         (run_verify, f"{modules}0 {oracle}\n")):
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, want, "")


def test_processes_load_no_dataclasses_or_inspect():
    """A fresh process that runs a well-formed request of every verb, and
    one that imports the tube layer alone as a closure request does,
    loads neither dataclasses nor inspect (with its ast, dis and
    tokenize); the first reads its argvs off the verb table, so it loads
    neither argparse nor the gettext that argparse pulls in.  A fresh
    process whose requests print no JSON loads no json."""
    def verbs(argvs, watched):
        return ("import contextlib, io, sys\n"
                "before = set(sys.modules)\n"
                "from wpline import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    codes = [cli.run(argv) for argv in {argvs!r}]\n"
                f"print(codes, sorted({watched} & set(sys.modules) - before))\n")

    watched = "{'dataclasses', 'inspect'}"
    every_verb = [*VERB_ARGVS, ["verify"]]
    tube = ("import sys\n"
            "before = set(sys.modules)\n"
            "import wpline.tube\n"
            f"print(sorted({watched} & set(sys.modules) - before))\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    for script, want in ((verbs(every_verb, "{'dataclasses', 'inspect', 'argparse', 'gettext'}"),
                          f"{[0] * len(every_verb)} []\n"),
                         (tube, "[]\n"),
                         (verbs(NO_JSON_ARGVS, "{'json'}"), f"{[0] * len(NO_JSON_ARGVS)} []\n")):
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, want, "")


def test_verify_passes():
    code, out, _ = run_cli(["verify"])
    assert code == 0
    assert "13/13 criteria passed" in out


def test_verify_reports_a_raising_criterion_as_failed(monkeypatch):
    """A criterion that raises fails alone: criteria 8 and 12 report under
    their function names with the exception, criterion 13 counts the
    error as a problem, and the verb prints all thirteen lines and exits
    1."""
    def refuse(*args):
        raise ValueError("set admits no exceptional ordering")

    monkeypatch.setattr(tube, "order_exc_sequence", refuse)
    code, out, err = run_cli(["verify"])
    lines = out.splitlines()
    assert (code, err, len(lines), lines[-1]) == (1, "", 14, "10/13 criteria passed")
    for i in (7, 11):
        assert lines[i].startswith(f"[{i + 1:2d}] FAIL criterion_{i + 1} (")
        assert lines[i].endswith(") ValueError: set admits no exceptional ordering")
    assert lines[12].startswith("[13] FAIL completion and ordering ranks 1..4 (")
    assert lines[12].endswith(": set admits no exceptional ordering")


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


# a well-formed request of each verb that offers no DOT output
NO_DOT_ARGVS = [["classify", "--weights", "2"],
                ["hom", "--weights", "2", "--from", "O", "--to", "O"],
                ["ext", "--weights", "2", "--from", "O", "--to", "O"],
                ["cox", "--weights", "2"],
                ["perp", "--weights", "2", "--sheaves", "S(inf,0)"],
                ["verify"]]


def test_usage_errors_exit_2():
    assert run_cli(["no-such-verb"])[0] == 2
    assert run_cli(["hom", "--weights", "2", "--from", "O"])[0] == 2
    assert run_cli(["hom", "--weights", "2", "--from", "O", "--to", "what(4"])[0] == 2
    assert run_cli(["tube-enum", "--rank", "0"])[0] == 2
    assert run_cli(["tube-enum", "--rank", "7"]) == \
        (2, "", "error: rank 7 above the configured bound 6\n")
    # the tube lattice checks the bound for the poset too
    for weights in ("7", "2,7"):
        assert run_cli(["poset", "--weights", weights]) == \
            (2, "", "error: rank 7 above the configured bound 6\n"), weights
    assert run_cli(["poset", "--weights", "2", "--window", "3..-2"])[0] == 2
    assert run_cli(["classify", "--weights", "2,x"])[0] == 2
    # dot is offered only by the verbs that emit it
    for argv in NO_DOT_ARGVS:
        rc, out, err = run_cli(argv + ["--format", "dot"])
        assert (rc, out) == (2, ""), argv
        assert "invalid choice: 'dot'" in err, argv


@pytest.mark.parametrize("argv", [["poset"], ["perp", "--sheaves", "S(inf,0)"]],
                         ids=["poset", "perp"])
def test_duplicate_universe_ids_exit_2(argv):
    """An ordinary point declared twice in --universe is a usage error on
    both verbs that take one, with nothing on stdout."""
    assert run_cli([*argv, "--weights", "2", "--universe", "q,q"]) == \
        (2, "", "error: ordinary point ids must be distinct\n")


def test_rank_bound_precedes_the_window_universe(monkeypatch):
    """A point weight above the bound is rejected before build_poset
    builds the universe of its margin window."""
    def no_universe(*args):
        raise AssertionError("window universe built before the rank bound")

    monkeypatch.setattr(widposet, "window_universe", no_universe)
    for weights in ("7", "2,7"):
        assert run_cli(["poset", "--weights", weights]) == \
            (2, "", "error: rank 7 above the configured bound 6\n"), weights


def test_help_and_usage_errors_match_golden(monkeypatch):
    """`wpline --help`, each verb's --help and three usage errors (a
    missing required option, a format the verb does not offer, a rank
    that is no int) give the bytes and exit codes the argparse-only
    front end gave at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    cases = json.loads(HELP_GOLDEN.read_text())
    assert len(cases) == 1 + len(cli._VERBS) + 3
    for case in cases:
        assert run_cli(case["argv"]) == (case["code"], case["stdout"], case["stderr"]), case["argv"]


FLAGS = sorted({flag for _, _, options, _, _ in cli._VERBS.values() for flag, _, _ in options})
VALUES = {"--format": ["text", "json", "dot", "pdf"], "--rank": ["3", "0", " 4", "1_0", "x", "-3"]}
WORDS = ["2", "2,3", "x", "", "-", "-2..3", "--weights", "S(inf,0)", "O;O(1)", "q", "a=b"]


@st.composite
def argvs(draw):
    """A verb (or a stray word), then its options in any order, each kept
    with odds 3 in 4, and now and then a noise token: another verb's
    option, an abbreviation, a repeat, -h, "--" or a positional.  Values
    come from small vocabularies, apart or joined by "="."""
    verb = draw(st.sampled_from([*cli._VERBS, "nope"]))
    own = [flag for flag, _, _ in cli._VERBS.get(verb, (None, None, ()))[2]] + ["--format"]
    flags = [flag for flag in draw(st.permutations(own)) if draw(st.integers(0, 3))]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        noise = [*FLAGS, *own, "--weigh", "-h", "--help", "--", "stray"]
        flags.insert(draw(st.integers(0, len(flags))), draw(st.sampled_from(noise)))
    argv = [verb]
    for flag in flags:
        value = draw(st.sampled_from(VALUES.get(flag, WORDS)))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


def table_agrees_with_argparse(argv) -> bool:
    """Whether the verb table accepts argv, asserting that argparse then
    gives the same namespace, handler included."""
    args = cli._read_argv(argv)
    if args is not None:
        assert vars(args) == vars(cli._build_parser().parse_args(argv)), argv
    return args is not None


@settings(max_examples=300)
@given(argvs())
def test_verb_table_reads_argv_as_argparse_does(argv):
    table_agrees_with_argparse(argv)


@pytest.mark.parametrize("argv", [*VERB_ARGVS, ["verify"], ["verify", "--format=json"],
                                  ["tube-enum", "--format=json", "--rank=4"],
                                  ["perp", "--weights=2", "--sheaves", "S(inf,0)", "--universe",
                                   "q", "--window", "-2..3", "--format", "text"]])
def test_verb_table_accepts_well_formed_requests(argv):
    """Well-formed requests of every verb, options apart or joined by
    "=", are read off the table, with argparse's namespace."""
    assert table_agrees_with_argparse(cli._join_windows(argv))


@pytest.mark.parametrize("argv", [
    ["poset", "-h"], ["poset", "--weights", "2", "--help"], ["--help"], [],
    ["poset", "--weigh", "2"], ["poset", "--weights", "2", "--weights", "3"],
    ["poset", "--weights", "2", "--format", "json", "--format", "dot"],
    *([*argv, "--format=dot"] for argv in NO_DOT_ARGVS),
    ["tube-enum", "--rank", "x"], ["tube-enum", "--rank", "-3"],
    ["poset", "--weights", "2", "stray"], ["poset", "stray", "--weights", "2"],
    ["poset", "--window", "-2..3"], ["hom", "--weights", "2", "--from", "O"],
    ["poset", "--weights", "2", "--window"], ["poset", "--weights", "2", "--", "--window=1..2"]])
def test_verb_table_declines_what_argparse_must_answer(argv):
    """Help, abbreviations, repeats, a format or rank the verb does not
    take, stray positionals, missing options and values: the table
    declines them all, so argparse answers with its own bytes."""
    assert cli._read_argv(cli._join_windows(argv)) is None


@pytest.mark.parametrize("weights, text, same", [
    ("2", "arc(inf,1,2)", "S[2](inf,0)"),
], ids=["arc"])
def test_parse_sheaf_forms_name_the_same_sheaf(weights, text, same):
    """An arc names its point, socle and length."""
    line = make_line(parse_weights(weights))
    assert cli.parse_sheaf(line, text) == cli.parse_sheaf(line, same)


@pytest.mark.parametrize("argv, message", [
    (["hom", "--weights", "2", "--from", "O(1,0,0;0)", "--to", "O"],
     "coefficient count must match the point count"),
    (["hom", "--weights", "2", "--from", "S(5,0)", "--to", "O"], "unknown point '5'"),
    # a point is named by its label, never by its index: 1 is no label on 2,3
    (["hom", "--weights", "2,3", "--from", "S(1,0)", "--to", "O"], "unknown point '1'"),
    (["perp", "--weights", "2", "--sheaves", "S(inf,0)", "--window", "3"],
     "window must look like -2..3"),
], ids=["coefficients", "point", "point-index", "window"])
def test_malformed_sheaf_or_window_exits_2(argv, message):
    assert run_cli(argv) == (2, "", f"error: {message}\n")


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
