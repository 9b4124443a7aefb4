"""One-line mutants of the program, each of which ``verify`` must catch.

A mutant is (module, old text, new text, the verdicts it must fail).
Each case copies ``src/`` to a temporary directory, checks that the old
text occurs exactly once there (so a refactor that removes it fails
here and updates the list), applies the mutant and runs ``verify
--suite all`` in a child process.  The child must exit 1 with exactly
the named verdicts failing; any other exit, such as 4 for an internal
error, is not a catch.  A mutant must add an int, since BivarPoly
refuses a bool.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

MUTANTS = [
    # the shared builder of 1 - qt y F: every factor's t^2 term is off by
    # one, which both its users read
    (
        "polyalg.py",
        "{(1, dt + 1): -c for",
        "{(1, dt + 1): -c - int(dt == 2) for",
        {"composition-identity", "prefactor-identity", "m-brute-vs-interval"},
    ),
    # the [q^(k+1)] reader of the composition sums drops its high terms
    (
        "identities.py",
        "if dq == k + 1}",
        "if dq == k + 1 and dt < 9}",
        {"composition-identity", "prefactor-identity"},
    ),
    # brute M's level writer moves the fourth element of every run one
    # place up
    (
        "poset.py",
        "groups.get(value, 0) | 1 << i",
        "groups.get(value, 0) | 1 << i + int(i == 3)",
        {
            "m-brute-vs-interval",
            "m-brute-vs-formula",
            "m-brute-vs-compsum",
            "series-cross-term-adjudication",
        },
    ),
    # brute ch's Mobius row is off by one at element 5
    (
        "poset.py",
        "total = plane_sum(planes, down[v])",
        "total = plane_sum(planes, down[v]) + int(v == 5)",
        {"ch-brute-vs-formula"},
    ),
]


def failing_verdicts(tmp_path, module, old, new):
    """(exit code, names of the failing verdicts) of ``verify --suite
    all`` on a copy of src/ with ``old`` replaced by ``new`` in
    ``module``."""
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "shuflat" / module
    text = path.read_text()
    assert text.count(old) == 1, f"{old!r} occurs {text.count(old)} times in {module}"
    path.write_text(text.replace(old, new))
    env = {k: v for k, v in os.environ.items() if k != "SHUF_SIZE_CAP"}
    env["PYTHONPATH"] = str(src)
    result = subprocess.run(
        [sys.executable, "-m", "shuflat.cli", "verify", "--suite", "all"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    return result.returncode, set(re.findall(r"^FAIL (\S+) ", result.stdout, re.MULTILINE))


def assert_caught(tmp_path, module, old, new, verdicts):
    code, failed = failing_verdicts(tmp_path, module, old, new)
    assert (code, failed) == (1, verdicts)


@pytest.mark.parametrize("module, old, new, verdicts", MUTANTS)
def test_mutant_is_caught(tmp_path, module, old, new, verdicts):
    assert_caught(tmp_path, module, old, new, verdicts)


def test_a_mutant_that_changes_nothing_fails_the_harness(tmp_path):
    module, old, _, verdicts = MUTANTS[0]
    with pytest.raises(AssertionError):
        assert_caught(tmp_path, module, old, old.replace("-c", "-c + 0"), verdicts)
