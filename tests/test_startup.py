"""What a shuflat process loads before its first command.

Every CLI invocation pays for its imports, so ``import shuflat`` and
``import shuflat.cli`` must not pull in stdlib modules that only some
commands need, or that the records do not need: typing, dataclasses (and
its inspect chain) and json.  The check is a denylist, not an exact module
list, so that it holds on other Python versions too.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "mtriangle_1_1_formula.json")
DENIED = ("typing", "dataclasses", "inspect", "json")

# argv: src, module to import, then the CLI arguments to run (if any).
# Exits 1 with the denied modules on stderr, else with the CLI's exit code.
CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
module = __import__(sys.argv[2])
loaded = [name for name in {denied!r} if name in sys.modules]
if loaded:
    sys.exit("loaded at import: " + " ".join(loaded))
if len(sys.argv) > 3:
    import shuflat.cli
    sys.exit(shuflat.cli.run(sys.argv[3:]))
""".format(denied=DENIED)


def _child(module, *argv):
    # -S: no site hooks, so only the standard library and src are importable
    return subprocess.run(
        [sys.executable, "-S", "-c", CHILD, SRC, module, *argv],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(SRC),
    )


@pytest.mark.parametrize("module", ["shuflat", "shuflat.cli"])
def test_import_loads_no_heavy_stdlib_module(module):
    result = _child(module)
    assert (result.returncode, result.stderr) == (0, ""), result.stderr


def test_first_json_command_after_a_lean_import():
    # json is loaded by the one command that writes JSON, and its output
    # is the pinned golden
    result = _child("shuflat.cli", "mtriangle", "1", "1", "--json")
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    with open(GOLDEN) as fh:
        assert result.stdout == fh.read()
