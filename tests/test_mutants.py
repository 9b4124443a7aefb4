"""One-line mutants of the program, each of which ``verify`` must catch.

A mutant is (module, old text, new text, the verdicts it must fail).
Each case copies ``src/`` to a temporary directory, checks that the old
text occurs exactly once there (so a refactor that removes it fails
here and updates the list), applies the mutant and runs ``verify
--suite all`` in a child process.  The child must exit 1 with exactly
the named verdicts failing; any other exit, such as 4 for an internal
error, is not a catch.  A mutant must add an int, since BivarPoly
refuses a bool.

A survivor is a mutant that ``verify --suite all`` passes: it is kept
with the suite that does catch it, so that the gap stays known.
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
    # the level writer of brute M and brute ch moves the fourth element of
    # every run one place up
    (
        "poset.py",
        "groups.get(value, 0) | 1 << i",
        "groups.get(value, 0) | 1 << i + int(i == 3)",
        {
            "m-brute-vs-interval",
            "m-brute-vs-formula",
            "m-brute-vs-compsum",
            "series-cross-term-adjudication",
            "ch-brute-vs-formula",
        },
    ),
    # the Mobius walk of brute M and brute ch sums wrong at the sixth
    # element of every level, at every q-degree
    (
        "poset.py",
        "value -= (plane & mask).bit_count() * weight",
        "value -= (plane & mask).bit_count() * weight + int(len(column) == 5)",
        {
            "m-brute-vs-interval",
            "m-brute-vs-formula",
            "m-brute-vs-compsum",
            "series-cross-term-adjudication",
            "ch-brute-vs-formula",
        },
    ),
    # brute M's reader of the derived indel covers drops the first upper
    # cover of word 7 when that word is not the bottom; in every lattice
    # that verify builds, the cover's top keeps another lower cover
    (
        "triangles.py",
        "if not r], upper, m + n + 1)",
        "if not r], [up[int(v == 7 and ranks[v] > 0):] for v, up in enumerate(upper)], m + n + 1)",
        {
            "m-brute-vs-interval",
            "m-brute-vs-formula",
            "m-brute-vs-compsum",
            "series-cross-term-adjudication",
        },
    ),
    # the cover derivation, which brute M and brute ch both read, drops
    # the cover u of w = u x_2 when u has a y-letter, so that u minus that
    # letter is still a lower cover of u
    (
        "lattices.py",
        "            cw.append(ids[u])",
        "            cw += [ids[u]] * int(i != 2 or not b)",
        {
            "m-brute-vs-interval",
            "m-brute-vs-formula",
            "m-brute-vs-compsum",
            "series-cross-term-adjudication",
            "ch-brute-vs-formula",
        },
    ),
    # the closed form of M: one [s^3 t^1] coefficient is off by one
    (
        "triangles.py",
        "row[j] += ci * comb(a, j)",
        "row[j] += ci * comb(a, j) + int(i == 3 and j == 1)",
        {"m-brute-vs-formula", "series-vs-formula", "h-to-m", "specializations"},
    ),
    # the closed form of ch, which the interval route reads as its factors
    (
        "triangles.py",
        "coeffs[k] += c * comb(d - a, k - a)",
        "coeffs[k] += c * comb(d - a, k - a) + int(k == 2 and a == 1)",
        {"ch-brute-vs-formula", "m-brute-vs-interval", "char-from-h", "specializations"},
    ),
    # the composition-grouped double sum for M
    (
        "triangles.py",
        "row[d] += b * a",
        "row[d] += b * a + int(d == 2 and j == 1)",
        {"m-brute-vs-compsum"},
    ),
    # brute H counts a word with two lower covers, neither an indel, as
    # having one of indel kind
    (
        "triangles.py",
        "(triple.in_total, triple.in_indel) for",
        "(triple.in_total, triple.in_indel + int(triple.in_total == 2 and triple.in_indel == 0)) for",
        {"h-brute-vs-formula"},
    ),
    # the word enumerator, which both sides of h-rank-generating read,
    # repeats a word's first y-child in place of its second; brute H keys
    # its census by word, so the repeat collapses there and not in the
    # rank-generating polynomial
    (
        "words.py",
        "ys[yr.start : yr.stop] for xr, yr, _ in steps]",
        "(ys[yr.start : yr.start + 1] * 2 + ys[yr.start + 2 : yr.stop] if len(yr) > 1"
        " else ys[yr.start : yr.stop]) for xr, yr, _ in steps]",
        {"h-rank-generating", "h-brute-vs-formula"},
    ),
    # the series denominator's cross term -t(1-t)(q-1)xy becomes
    # -t(1-t)(q-2)xy
    (
        "triangles.py",
        "cross = -(T * (ONE - T) * (Q - 1))",
        "cross = -(T * (ONE - T) * (Q - 2))",
        {"series-vs-formula", "series-cross-term-adjudication"},
    ),
    # the closed side of the composition identity
    (
        "identities.py",
        "{(0, l): comb(m + k, l + k) * comb(n + k + l, l) for l",
        "{(0, l): comb(m + k, l + k) * comb(n + k + l, l) + int(l == 2) for l",
        {"composition-identity"},
    ),
    # the closed form of H, on a line other than its core qt + 1
    (
        "triangles.py",
        "acc = acc + c * Q**a * core_pow[m + n - 2 * a]",
        "acc = acc + (c + int(a == 1)) * Q**a * core_pow[m + n - 2 * a]",
        {"h-brute-vs-formula", "h-to-m", "char-from-h"},
    ),
    # brute ch's cover source, which the Poset gives the shared walk,
    # drops the first upper cover of element 3
    (
        "poset.py",
        "mobius_levels([a], self._upper, 1)",
        "mobius_levels([a], [up[int(u == 3):] for u, up in enumerate(self._upper)], 1)",
        {"ch-brute-vs-formula"},
    ),
    # build_poset's upper-list pass drops the first upper cover of element
    # 2, which keeps another lower cover in every lattice that verify builds
    (
        "poset.py",
        "upper[a] = up = sorted(set(up))",
        "upper[a] = up = sorted(set(up))[int(a == 2):]",
        {"ch-brute-vs-formula"},
    ),
]

# The transpose that inverts a tall series drops its last x-row.  No
# table of ``verify --suite all`` is tall, so it passes; the identities
# suite at max-n 0, whose tables are tall, fails, and so do the
# recurrence-oracle tests of tests/test_polyalg.py, such as
# test_reciprocal_matches_recurrence_oracle.
TALL_TRANSPOSE = (
    "polyalg.py",
    "[list(c) for c in zip(*self.coeff)]",
    "[list(c) for c in zip(*self.coeff[:-1], [0] * (self.max_y + 1))]",
)


def failing_verdicts(tmp_path, module, old, new, suite=("--suite", "all")):
    """(exit code, names of the failing verdicts) of ``verify`` with the
    ``suite`` arguments on a copy of src/ with ``old`` replaced by ``new``
    in ``module``."""
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "shuflat" / module
    text = path.read_text()
    assert text.count(old) == 1, f"{old!r} occurs {text.count(old)} times in {module}"
    path.write_text(text.replace(old, new))
    env = {k: v for k, v in os.environ.items() if k != "SHUF_SIZE_CAP"}
    env["PYTHONPATH"] = str(src)
    result = subprocess.run(
        [sys.executable, "-m", "shuflat.cli", "verify", *suite],
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


def test_tall_transpose_mutant_survives_all_and_fails_tall_identities(tmp_path):
    assert failing_verdicts(tmp_path / "all", *TALL_TRANSPOSE) == (0, set())
    tall = ("--suite", "identities", "--max-m", "6", "--max-n", "0")
    assert failing_verdicts(tmp_path / "tall", *TALL_TRANSPOSE, tall) == (
        1,
        {"composition-identity", "prefactor-identity"},
    )
