import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

from order_helpers import counting_reads
from shuflat import cli, identities, triangles, words
from shuflat.poset import NotGraded

GOLDEN_M11 = "q^2*t^2 - 3*q*t^2 + 2*t^2 + 3*q*t - 3*t + 1"
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mtriangle_formula_golden(capsys):
    code, out, _ = run_cli(capsys, "mtriangle", "1", "1", "--method", "formula")
    assert code == 0
    assert out == GOLDEN_M11 + "\n"


def test_mtriangle_all_methods_agree(capsys):
    outputs = {}
    for kind, method in triangles.ROUTES:
        code, out, _ = run_cli(capsys, kind, "1", "2", "--method", method)
        assert code == 0
        outputs.setdefault(kind, set()).add(out)
    assert list(outputs) == ["mtriangle", "htriangle", "chpoly"]
    assert all(len(texts) == 1 for texts in outputs.values())


def test_enumerate_golden(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "1", "1")
    assert code == 0
    assert out.splitlines() == ["e", "x1", "y1", "x1y1", "y1x1"]


def test_enumerate_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "1", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["count"] == 5
    assert payload["words"][0] == "e"


def test_hasse_dot_node_count(capsys):
    code, out, _ = run_cli(capsys, "hasse", "1", "2", "--order", "shuf", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph hasse {")
    assert sum(1 for line in out.splitlines() if "[rank=" in line) == 12


def test_hasse_bub_annotations(capsys):
    code, out, _ = run_cli(capsys, "hasse", "1", "1", "--order", "bub", "--format", "dot")
    assert code == 0
    assert '"x1y1" -> "y1x1" [kind=transpose];' in out
    code, out, _ = run_cli(capsys, "hasse", "1", "1", "--order", "bub", "--format", "json")
    payload = json.loads(out)
    assert payload["schema"] == 1
    kinds = {edge.get("kind") for edge in payload["edges"]}
    assert kinds == {"indel", "transpose"}


@pytest.mark.parametrize("order", ["shuf", "bub"])
@pytest.mark.parametrize("fmt", ["dot", "text", "json"])
def test_hasse_golden(capsys, order, fmt):
    code, out, _ = run_cli(capsys, "hasse", "1", "2", "--order", order, "--format", fmt)
    assert code == 0
    with open(os.path.join(GOLDEN_DIR, f"hasse_1_2_{order}.{fmt}")) as fh:
        assert out == fh.read()


def _golden(name):
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        return fh.read()


JSON_GOLDEN = [
    (("enumerate", "1", "1", "--json"), "enumerate_1_1.json"),
    (("mtriangle", "1", "1", "--method", "formula", "--json"), "mtriangle_1_1_formula.json"),
    (("series", "1", "1", "--json"), "series_1_1.json"),
]


@pytest.mark.parametrize("argv, name", JSON_GOLDEN, ids=[name for _, name in JSON_GOLDEN])
def test_json_golden(capsys, tmp_path, argv, name):
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, _golden(name))
    # -o writes the same bytes and leaves stdout empty
    target = tmp_path / name
    code, out, _ = run_cli(capsys, *argv, "-o", str(target))
    assert (code, out) == (0, "")
    assert target.read_text() == _golden(name)


def test_verify_report_golden(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "relations", "--max-m", "1", "--max-n", "1",
        "--json", str(report),
    )
    assert (code, out) == (0, _golden("verify_relations_1_1.out"))
    assert report.read_text() == _golden("verify_relations_1_1.report.json")


def test_only_the_written_form_is_rendered(capsys, monkeypatch):
    from shuflat.polyalg import BivarPoly

    def refuse(self):
        raise RuntimeError("rendered a form that is not written")

    monkeypatch.setattr(BivarPoly, "__str__", refuse)
    code, out, _ = run_cli(capsys, "mtriangle", "1", "1", "--json")
    assert (code, out) == (0, _golden("mtriangle_1_1_formula.json"))
    monkeypatch.undo()
    monkeypatch.setattr(BivarPoly, "to_json_terms", refuse)
    code, out, _ = run_cli(capsys, "mtriangle", "1", "1")
    assert (code, out) == (0, GOLDEN_M11 + "\n")


def test_htriangle_and_chpoly(capsys):
    code, out, _ = run_cli(capsys, "htriangle", "1", "1", "--method", "brute")
    assert code == 0
    assert out.strip() == "q^2*t^2 + 2*q*t + q + 1"
    code, out, _ = run_cli(capsys, "chpoly", "1", "1", "--method", "formula")
    assert out.strip() == "2*q^2 - 3*q + 1"


def test_series_command(capsys):
    code, out, _ = run_cli(capsys, "series", "1", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(0,0): 1"
    assert lines[-1] == f"(1,1): {GOLDEN_M11}"


def test_series_renders_each_mirror_pair_once(capsys, monkeypatch):
    from shuflat import polyalg

    def refused(*args):
        raise AssertionError("a series cell went through a BivarPoly")

    # each cell is written straight from its packed int, never from a
    # BivarPoly and its sorted terms
    reads = {reader: counting_reads(monkeypatch, reader) for reader in ("text", "json")}
    for name in ("__str__", "to_json_terms"):
        monkeypatch.setattr(polyalg.BivarPoly, name, refused)
    monkeypatch.setattr(polyalg, "_ordered", refused)
    # (M + 1)(N + 1) cells, less the k(k - 1)/2 mirror cells of the
    # k x k square, k = min(M, N) + 1
    for m, n, distinct in ((4, 2, 12), (2, 4, 12), (3, 3, 10)):
        for extra, reader, other in (((), "text", "json"), (("--json",), "json", "text")):
            for boxes in reads.values():
                boxes.clear()
            assert run_cli(capsys, "series", str(m), str(n), *extra)[0] == 0
            # only the written form is read, each mirror pair once
            assert len(reads[reader]) == distinct and not reads[other]


def _series_oracle(m, n, as_json):
    """`series M N` as one line per cell, each formatted on its own."""
    series = triangles.m_series(m, n)
    cells = [(i, j) for i in range(m + 1) for j in range(n + 1)]
    if as_json:
        return json.dumps({
            "schema": cli.SCHEMA_VERSION,
            "max_m": m,
            "max_n": n,
            "coefficients": [
                {"m": i, "n": j, "terms": series.coefficient(i, j).to_json_terms()}
                for i, j in cells
            ],
        }, indent=2) + "\n"
    return "\n".join(f"({i},{j}): {series.coefficient(i, j)}" for i, j in cells) + "\n"


@pytest.mark.parametrize("m, n", [(5, 2), (8, 3), (20, 5)])
def test_tall_series_requests_equal_the_formula(capsys, m, n):
    # a tall series is inverted through its transpose
    formula = triangles.m_triangle_formula
    code, out, _ = run_cli(capsys, "mtriangle", str(m), str(n), "--method", "series")
    assert (code, out) == (0, f"{formula(m, n)}\n")
    code, out, _ = run_cli(capsys, "series", str(m), str(n))
    cells = [f"({i},{j}): {formula(i, j)}" for i in range(m + 1) for j in range(n + 1)]
    assert (code, out.splitlines()) == (0, cells)


def test_series_output_matches_the_per_line_oracle(capsys):
    for m in range(7):
        for n in range(7):
            assert run_cli(capsys, "series", str(m), str(n))[1] == _series_oracle(m, n, False)
            out = run_cli(capsys, "series", str(m), str(n), "--json")[1]
            assert out == _series_oracle(m, n, True)


def test_usage_errors(capsys):
    assert run_cli(capsys, "unknown-command")[0] == 2
    assert run_cli(capsys, "mtriangle", "1")[0] == 2
    assert run_cli(capsys, "mtriangle", "-1", "2")[0] == 2
    assert run_cli(capsys, "mtriangle", "1", "1", "--method", "bogus")[0] == 2


def test_size_cap_refusal(capsys):
    code, _, err = run_cli(capsys, "mtriangle", "5", "5", "--method", "brute")
    assert code == 3
    assert "15525" in err  # names the predicted cardinality
    # --force lifts the brute cap (interval method keeps it fast)
    code, out, _ = run_cli(capsys, "mtriangle", "5", "5", "--method", "interval", "--force")
    assert code == 0


def test_huge_enumeration_is_refused_before_any_work(capsys, monkeypatch):
    # the size check comes before the letter tables are built
    def refuse(family, count):
        raise AssertionError("letter table built")

    monkeypatch.setattr(words, "singles", refuse)
    code, out, err = run_cli(capsys, "enumerate", "99999999", "1")
    assert (code, out) == (3, "")
    assert "above the cap" in err


def test_size_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SHUF_SIZE_CAP", "3")
    code, _, err = run_cli(capsys, "enumerate", "1", "1")
    assert code == 3
    monkeypatch.setenv("SHUF_SIZE_CAP", "not-a-number")
    assert run_cli(capsys, "enumerate", "1", "1")[0] == 2


def test_size_cap_env_read_only_by_sized_routes(capsys, monkeypatch):
    monkeypatch.setenv("SHUF_SIZE_CAP", "abc")
    code, out, _ = run_cli(capsys, "mtriangle", "1", "1", "--method", "formula")
    assert (code, out) == (0, GOLDEN_M11 + "\n")
    code, out, err = run_cli(capsys, "mtriangle", "1", "1", "--method", "brute")
    assert (code, out) == (2, "")
    assert "SHUF_SIZE_CAP" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, "mtriangle", "1", "1", "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == GOLDEN_M11 + "\n"


def test_unwritable_output_exits_2(capsys, tmp_path):
    missing = str(tmp_path / "no-such-dir" / "x")
    code, out, err = run_cli(capsys, "mtriangle", "1", "1", "-o", missing)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    code, _, err = run_cli(
        capsys, "verify", "--suite", "relations", "--max-m", "1", "--max-n", "1",
        "--json", missing,
    )
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_negative_verify_bounds_rejected(capsys):
    # used to print "0/0 checks passed" and exit 0
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "relations", "--max-m", "-3", "--max-n", "-3"
    )
    assert (code, out) == (2, "")


def test_negative_series_max_rejected(capsys):
    # used to end in an IndexError traceback
    code, out, _ = run_cli(capsys, "verify", "--suite", "methods", "--series-max", "-1")
    assert (code, out) == (2, "")


def test_negative_size_cap_rejected(capsys):
    # used to refuse every input with exit 3
    code, out, _ = run_cli(capsys, "mtriangle", "1", "1", "--method", "brute", "--size-cap", "-5")
    assert (code, out) == (2, "")


def test_negative_size_cap_env_rejected(capsys, monkeypatch):
    monkeypatch.setenv("SHUF_SIZE_CAP", "-1")
    code, out, err = run_cli(capsys, "enumerate", "1", "1")
    assert (code, out) == (2, "")
    assert "SHUF_SIZE_CAP" in err


def test_oversized_brute_bounds_refused_before_any_suite(capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a suite ran before the size check")

    for runner in ("run_identities_suite", "run_relations_suite", "run_methods_suite"):
        monkeypatch.setattr(identities, runner, must_not_run)
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--max-m", "5", "--max-n", "5")
    assert (code, out) == (3, "")
    assert err.startswith("refused: ") and "15525" in err


def test_verify_relations(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--suite",
        "relations",
        "--max-m",
        "2",
        "--max-n",
        "2",
        "--json",
        str(report),
    )
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out
    payload = json.loads(report.read_text())
    assert payload["schema"] == 1
    assert payload["passed"] is True
    assert len(payload["verdicts"]) == 18


def test_verify_methods_prints_adjudication(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--suite",
        "methods",
        "--max-m",
        "1",
        "--max-n",
        "1",
        "--series-max",
        "2",
    )
    assert code == 0
    assert "NOTE" in out
    assert "-t(1-t)(q-1)xy" in out
    assert "+t(1-t)(q+1)xy" in out


def test_verify_methods_report_notes_are_the_adjudication_detail(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "methods", "--max-m", "1", "--max-n", "1",
        "--series-max", "2", "--json", str(report),
    )
    assert code == 0
    payload = json.loads(report.read_text())
    (adjudication,) = [
        v for v in payload["verdicts"] if v["name"] == "series-cross-term-adjudication"
    ]
    assert adjudication["detail"]
    assert payload["notes"] == [adjudication["detail"]]
    assert [line for line in out.splitlines() if line.startswith("NOTE ")] == [
        f"NOTE {adjudication['detail']}"
    ]


def test_verify_deterministic(capsys):
    first = run_cli(capsys, "verify", "--suite", "relations", "--max-m", "1", "--max-n", "1")
    second = run_cli(capsys, "verify", "--suite", "relations", "--max-m", "1", "--max-n", "1")
    assert first == second


def test_verify_outputs_match_pinned_references(capsys):
    # every identities and relations request the benchmark pins, checked
    # as its client checks it: exit 0, the n/n verdict line, the digest
    with open(os.path.join(os.path.dirname(__file__), "..", "perfbench", "reference.json")) as fh:
        entries = json.load(fh)["entries"]
    checked = []
    for key, entry in entries.items():
        parts = key.split(" ")
        if parts[0] != "verify" or parts[1] not in ("identities", "relations"):
            continue
        _, suite, max_m, max_n, _ = parts
        code, out, _ = run_cli(
            capsys, "verify", "--suite", suite, "--max-m", max_m, "--max-n", max_n
        )
        n = entry["verdicts"]
        assert code == 0, key
        assert out.rstrip("\n").rsplit("\n", 1)[-1] == f"{n}/{n} checks passed", key
        assert hashlib.sha256(out.encode()).hexdigest() == entry["sha256"], key
        checked.append(key)
    assert len(checked) == 34


def test_verify_full_default_suite(capsys, tmp_path):
    # the flagship run: all suites at their default bounds
    report = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--json", str(report))
    assert code == 0
    assert "FAIL" not in out
    assert "NOTE" in out
    payload = json.loads(report.read_text())
    assert payload["passed"] is True
    assert payload["schema"] == 1
    assert payload["suites"] == ["identities", "relations", "methods"]
    assert any(v["name"] == "composition-identity" for v in payload["verdicts"])


def test_emit_report_failure_path(capsys, monkeypatch):
    from shuflat.cli import emit_report
    from shuflat.identities import IdentityVerdict
    from shuflat.polyalg import Q, T

    good = IdentityVerdict("demo", (1, 1), True)
    bad = IdentityVerdict("demo", (2, 1), False, Q * T, Q + T, "at q=2, t=3")
    text, failed = emit_report([bad, good], ["a note"])
    assert failed == 1
    assert "PASS demo (1, 1)" in text
    assert "FAIL demo (2, 1)" in text
    assert "lhs: q*t" in text and "rhs: t + q" in text
    assert "NOTE a note" in text
    assert "1/2 checks passed" in text

    text, failed = emit_report([])
    assert failed == 0
    assert text == "0/0 checks passed\n"

    # a failing verdict must surface as exit code 1
    monkeypatch.setattr(
        "shuflat.identities.run_suites", lambda *a, **k: [bad]
    )
    code, out, _ = run_cli(capsys, "verify", "--suite", "relations")
    assert code == 1
    assert "FAIL" in out


def test_remaining_doc_examples(capsys):
    code, out, _ = run_cli(capsys, "mtriangle", "2", "2", "--method", "brute")
    assert code == 0 and out.strip()
    code, out2, _ = run_cli(capsys, "mtriangle", "2", "2", "--method", "formula")
    assert out == out2
    code, out, _ = run_cli(capsys, "chpoly", "4", "3", "--method", "formula")
    assert code == 0
    code, out, _ = run_cli(capsys, "series", "3", "3")
    assert code == 0
    assert len(out.splitlines()) == 16


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "shuflat.cli", "mtriangle", "1", "1", "--method", "formula"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == GOLDEN_M11


def test_unwritable_verify_json_leaves_stdout_empty(capsys, tmp_path):
    # used to print a passing report before the report file failed to open
    missing = str(tmp_path / "no-such-dir" / "x")
    code, out, err = run_cli(
        capsys, "verify", "--suite", "relations", "--max-m", "1", "--max-n", "1",
        "--json", missing,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("order", ["shuf", "bub"])
def test_hasse_enumerates_once(capsys, monkeypatch, order):
    from shuflat import lattices, words

    original = words.enumerate_shuffle_words
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (words, lattices, triangles):
        monkeypatch.setattr(module, "enumerate_shuffle_words", counting)
    code, out, _ = run_cli(capsys, "hasse", "2", "2", "--order", order)
    assert code == 0 and out.startswith("digraph hasse {")
    assert len(calls) == 1


def test_hasse_builds_no_poset(capsys, monkeypatch):
    from shuflat import lattices, poset

    def refuse(*args, **kwargs):
        raise AssertionError("hasse built a Poset")

    monkeypatch.setattr(lattices, "build_shuffle_lattice", refuse)
    monkeypatch.setattr(lattices, "build_poset", refuse)
    monkeypatch.setattr(poset, "build_poset", refuse)
    monkeypatch.setattr(poset.Poset, "__init__", refuse)
    for order in ("shuf", "bub"):
        code, out, err = run_cli(capsys, "hasse", "3", "2", "--order", order, "--format", "json")
        assert (code, err) == (0, ""), order
        assert len(json.loads(out)["nodes"]) == words.shuffle_word_count(3, 2)


@pytest.mark.parametrize("order", ["shuf", "bub"])
def test_hasse_json_matches_the_lattice_and_bubble_covers(capsys, order):
    from shuflat import lattices

    for m in range(5):
        for n in range(5):
            code, out, _ = run_cli(capsys, "hasse", str(m), str(n), "--order", order, "--format", "json")
            assert code == 0
            lattice = lattices.build_shuffle_lattice(m, n)
            name = [words.format_word(w) for w in lattice.labels]
            if order == "shuf":
                edges = [{"lower": name[a], "upper": name[b]} for a, b in lattice.covers]
            else:
                edges = [
                    {"lower": words.format_word(lo), "upper": words.format_word(hi), "kind": kind}
                    for lo, hi, kind in lattices.bubble_covers(m, n)
                ]
            assert json.loads(out) == {
                "schema": 1,
                "m": m,
                "n": n,
                "order": order,
                "nodes": [{"word": w, "rank": r} for w, r in zip(name, lattice.ranks)],
                "edges": edges,
            }, (m, n)


@pytest.mark.parametrize(
    "fault",
    [RuntimeError("boom"), NotGraded("cover (0,1) does not raise rank by one")],
    ids=["RuntimeError", "NotGraded"],
)
def test_internal_fault_exits_4(capsys, monkeypatch, fault):
    # a ValueError subclass raised inside a route is not a usage error
    def broken(m, n):
        raise fault

    monkeypatch.setattr(triangles, "m_triangle_formula", broken)
    code, out, err = run_cli(capsys, "mtriangle", "1", "1", "--method", "formula")
    assert (code, out) == (4, "")
    assert err.startswith(f"internal error: {type(fault).__name__}(")
    assert err.count("\n") == 1


def test_huge_size_cap_is_an_internal_error_not_a_traceback(capsys):
    # used to end in a RecursionError traceback with exit 1, the code of a
    # verification failure, then in an internal error (exit 4); brute M and
    # brute ch began the cover pass.  A cap counts as sys.maxsize at most,
    # so each command is refused before any work.
    huge = "9" * 401
    for argv in (
        ("enumerate", "1200", "0", "--size-cap", huge),
        ("hasse", "1200", "0", "--size-cap", huge),
        ("mtriangle", "1200", "0", "--method", "brute", "--size-cap", huge),
        ("chpoly", "1200", "0", "--method", "brute", "--size-cap", huge),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err == (
            "refused: enumeration would produce at least 2^1200 words,"
            f" above the cap of {sys.maxsize}\n"
        ), argv



def run_fresh(capsys, monkeypatch, *argv):
    """run_cli with a parser built anew for the call, as before the reuse."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parser", cli._parser.__wrapped__)
        return run_cli(capsys, *argv)


def _all_parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _all_parsers(sub)


def test_parser_built_once(capsys):
    cli._parser.cache_clear()
    for _ in range(10):
        assert run_cli(capsys, "mtriangle", "1", "1")[0] == 0
        assert run_cli(capsys, "series", "1", "1", "--json")[0] == 0
        assert run_cli(capsys, "mtriangle", "1")[0] == 2
    assert cli._parser.cache_info().misses == 1
    # nothing a request can change is kept in the parser
    for parser in _all_parsers(cli._parser()):
        for action in parser._actions:
            assert isinstance(action.default, (type(None), bool, int, str))
        assert all(callable(value) for value in parser._defaults.values())


def test_no_state_leaks_between_calls(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "mtriangle", "2", "2", "--json")
    assert code == 0 and out.startswith("{")
    code, out2, _ = run_cli(capsys, "mtriangle", "2", "2")
    assert code == 0 and not out2.startswith("{")
    assert out2 == run_cli(capsys, "mtriangle", "2", "2", "--method", "brute")[1]

    target = tmp_path / "out.txt"
    assert run_cli(capsys, "mtriangle", "1", "1", "-o", str(target)) == (0, "", "")
    assert run_cli(capsys, "mtriangle", "1", "1") == (0, GOLDEN_M11 + "\n", "")

    brute = ("mtriangle", "2", "2", "--method", "brute")
    assert run_cli(capsys, *brute, "--size-cap", "3")[0] == 3
    code, out, _ = run_cli(capsys, *brute)
    assert (code, out) == (0, out2)
    # an option of one command is not seen by the next command
    assert run_cli(capsys, *brute, "--force")[0] == 0
    assert run_cli(capsys, "enumerate", "2", "2", "--size-cap", "3")[0] == 3

    report = tmp_path / "report.json"
    verify = ("verify", "--suite", "relations", "--max-m", "1", "--max-n", "1")
    code, out, _ = run_cli(capsys, *verify, "--json", str(report))
    assert code == 0 and report.exists()
    report.unlink()
    assert run_cli(capsys, *verify) == (0, out, "")
    assert not report.exists()


PARSER_CASES = [
    ("--help",),
    *[(command, "--help") for command in
      ("enumerate", "hasse", *triangles.METHODS, "series", "verify")],
    ("mtriangle", "1"),
    ("mtriangle", "-1", "2"),
    ("mtriangle", "1", "1", "--method", "bogus"),
    ("verify", "--suite", "bogus"),
    ("unknown-command",),
    (),
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=[" ".join(a) or "empty" for a in PARSER_CASES])
def test_reused_parser_matches_a_fresh_one(capsys, monkeypatch, argv):
    expected = run_fresh(capsys, monkeypatch, *argv)
    assert expected[0] in (0, 2) and (expected[1] or expected[2])
    assert run_cli(capsys, *argv) == expected
    assert run_cli(capsys, *argv) == expected


@pytest.mark.parametrize("argv", [("--help",), ("verify", "--help")], ids=["top", "verify"])
def test_help_wraps_to_the_width_at_call_time(capsys, monkeypatch, argv):
    cli._parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "160")
    wide = run_cli(capsys, *argv)
    monkeypatch.setenv("COLUMNS", "40")
    narrow = run_cli(capsys, *argv)
    assert cli._parser.cache_info().misses == 1
    assert narrow != wide
    assert narrow == run_fresh(capsys, monkeypatch, *argv)
    monkeypatch.setenv("COLUMNS", "160")
    assert wide == run_fresh(capsys, monkeypatch, *argv)
    assert run_cli(capsys, *argv) == wide
