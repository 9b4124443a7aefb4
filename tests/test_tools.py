"""tools/src_lines.py, which counts the lines and code lines of src/shuflat,
and tools/output_digest.py, which hashes the command line's outputs."""

import argparse
import importlib.util
from itertools import product
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
DIGEST = TOOL.with_name("output_digest.py")


def load(path):
    """The tool script at ``path``, imported as a module."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


SAMPLE = '''"""A module docstring,
over two lines."""

# a comment alone


def f():
    """A function docstring."""
    return 1
'''


def test_src_lines_counts_code_lines_and_sums_the_module_rows(tmp_path, capsys):
    tool = load(TOOL)

    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # nine lines, of which only `def f():` and `return 1` are code
    assert tool.count(path) == (9, 2)

    tool.main(["src_lines.py"])
    header, *rows, total = (line.split() for line in capsys.readouterr().out.splitlines())
    assert header == ["module", "lines", "code"]
    assert rows and all(name.endswith(".py") for name, _, _ in rows)
    assert total == ["total", str(sum(int(r[1]) for r in rows)), str(sum(int(r[2]) for r in rows))]


def test_output_digest_is_stable_and_sees_a_changed_rendering(monkeypatch):
    tool = load(DIGEST)
    from shuflat.polyalg import BivarPoly

    requests = [
        ["mtriangle", "2", "1", "--method", "formula"],
        ["verify", "--suite", "relations", "--max-m", "1", "--max-n", "1", "--json", tool.REPORT],
        ["enumerate", "4", "4", "--size-cap", "1"],
    ]
    first = tool.digests(requests)
    assert [text for text, _ in first] == [" ".join(r) for r in requests] + ["total (3 requests)"]
    assert tool.digests(requests) == first

    monkeypatch.setattr(BivarPoly, "__str__", lambda self: "changed")
    changed = tool.digests(requests)
    assert changed[0][1] != first[0][1] and changed[-1][1] != first[-1][1]
    assert changed[2] == first[2]  # the refusal renders no polynomial


def test_output_digest_requests_every_verify_suite():
    tool = load(DIGEST)
    from shuflat import identities

    named = {argv[2] for argv in tool.requests() if argv[:2] == ["verify", "--suite"]}
    assert set(identities.SUITES) <= named


def test_output_digest_requests_a_refusal_of_each_capped_command(monkeypatch, capsys):
    tool = load(DIGEST)
    from shuflat import cli, triangles

    monkeypatch.delenv("SHUF_SIZE_CAP", raising=False)
    capped = {"enumerate", "hasse"} | {
        f"{kind} --method {method}" for (kind, method), (cap, _) in triangles.ROUTES.items() if cap
    }
    refused = set()
    for argv in tool.requests():
        name = argv[0] if argv[0] in capped else " ".join([argv[0], *argv[3:5]])
        # the routes at small sizes run with --force, so they are no refusals
        if name in capped and "--force" not in argv and tool.REPORT not in argv and cli.run(argv) == 3:
            refused.add(name)
    capsys.readouterr()
    assert refused == capped


def given(argv, action):
    """The value that ``argv`` gives the option ``action``, else its default."""
    for option in action.option_strings:
        if option in argv:
            return argv[argv.index(option) + 1]
    return action.default


def test_output_digest_requests_every_command_in_every_form():
    # read off the parser, so that a new command, choice or --json flag
    # cannot skip the byte-identity check
    tool = load(DIGEST)
    from shuflat import cli

    (commands,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    sent = tool.requests()
    for command, parser in commands.choices.items():
        mine = [argv for argv in sent if argv[0] == command]
        options = [a for a in parser._actions if a.option_strings]
        # every combination of the choices, e.g. each hasse --order x --format pair
        chosen = [a for a in options if a.choices]
        seen = {tuple(given(argv, a) for a in chosen) for argv in mine}
        assert seen >= set(product(*(a.choices for a in chosen))), command
        if any("--json" in a.option_strings for a in options):
            assert {"--json" in argv for argv in mine} == {True, False}, command
