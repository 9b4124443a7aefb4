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
