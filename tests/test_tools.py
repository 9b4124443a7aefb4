"""tools/src_lines.py, which counts the lines and code lines of src/shuflat."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

SAMPLE = '''"""A module docstring,
over two lines."""

# a comment alone


def f():
    """A function docstring."""
    return 1
'''


def test_src_lines_counts_code_lines_and_sums_the_module_rows(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # nine lines, of which only `def f():` and `return 1` are code
    assert tool.count(path) == (9, 2)

    tool.main(["src_lines.py"])
    header, *rows, total = (line.split() for line in capsys.readouterr().out.splitlines())
    assert header == ["module", "lines", "code"]
    assert rows and all(name.endswith(".py") for name, _, _ in rows)
    assert total == ["total", str(sum(int(r[1]) for r in rows)), str(sum(int(r[2]) for r in rows))]


DIGEST = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def test_output_digest_is_stable_and_sees_a_changed_rendering(monkeypatch):
    spec = importlib.util.spec_from_file_location("output_digest", DIGEST)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
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
    spec = importlib.util.spec_from_file_location("output_digest", DIGEST)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    from shuflat import identities

    named = {argv[2] for argv in tool.requests() if argv[:2] == ["verify", "--suite"]}
    assert set(identities.SUITES) <= named
