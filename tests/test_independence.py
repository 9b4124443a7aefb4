"""Routes that check each other must not share the maths they check.

Each case is one comparison of two routes: every pair of routes of one
kind in ``triangles.ROUTES`` (each is checked against its kind's brute
route, so all of them check each other), and the verdicts of ``verify``
whose two sides are other routes.  Both sides run at (3, 2) under
``sys.setprofile``, which records every ``src/shuflat`` function that a
side enters, as code objects (so the lambdas of ``ROUTES`` stay apart);
a comprehension is named after the function that holds it.  The two
sets may meet only in plumbing: functions that decide no coefficient
of the answer, each listed with the test or verdict that catches a fault
in it.  A side that calls the other side's route, or any maths that the
other side also calls, fails here.
"""

import sys
from functools import cache
from itertools import combinations
from pathlib import Path

import pytest

import shuflat
from shuflat import identities, triangles

SRC = str(Path(shuflat.__file__).parent)
M, N = 3, 2

ARITHMETIC = "test_oracles.py::test_bivarpoly_arithmetic_matches_sympy and test_polyalg.py's fuzz tests"

#: function -> what catches a fault in it; any two sides may share these
PLUMBING = {
    "polyalg.BivarPoly.__init__": ARITHMETIC,
    "polyalg.BivarPoly.__mul__": ARITHMETIC,
    "polyalg.BivarPoly._of": ARITHMETIC,
    "polyalg.BivarPoly.constant": "test_polyalg.py::test_constants_and_equality",
    "triangles.compute": "this test: a route dispatched for another makes its pair share that route",
    "words.check_size": "test_words.py::test_enumerate_size_cap; it refuses work and makes no coefficient",
    "words.shuffle_word_count": "test_words.py::test_enumerate_counts_match_formula",
}

ENUMERATOR = (
    "test_mutants.py's words.py mutant, which h-rank-generating catches: brute H"
    " keys its census by word, so a repeated word collapses there alone"
)
PACKED_SERIES = (
    "test_polyalg.py's recurrence-oracle tests, such as"
    " test_column_reader_matches_recurrence_oracle, and series-vs-formula"
)

#: case -> further plumbing that its two sides alone may share
PLUMBING_OF = {
    # both sides read the words of Shuf(m, n)
    "h-rank-generating": dict.fromkeys(
        ("words.enumerate_shuffle_words", "words._trie", "words.singles"), ENUMERATOR
    ),
    # both sides invert a series by the packed recurrence
    "m-interval-vs-series": {
        "polyalg.BivarPoly.__bool__": "test_polyalg.py::test_constants_and_equality",
        "polyalg.BivarPoly.__eq__": "test_polyalg.py::test_constants_and_equality",
        **dict.fromkeys(
            (
                "polyalg.TruncatedSeries2.__init__",
                "polyalg.TruncatedSeries2._packed_rows",
                "polyalg._Slots.__init__",
                "polyalg._Slots._digits",
                "polyalg._Slots._read_box",
                "polyalg._Slots.decode",
                "polyalg._Slots.shifts",
                "polyalg._extent",
                "polyalg._shift_add",
            ),
            PACKED_SERIES,
        ),
    },
}

def _route(kind, method):
    return lambda: triangles.compute(kind, M, N, method)


def _composition_lhs(k=2):
    # as run_identities_suite reads it
    powers = identities._factor_series(M, N, k, False).reciprocal()
    return identities._power_part(powers.coefficient(M, N + k + 1), k)


CASES = {
    # named as verify names its verdicts, from the library's own prefixes
    f"{identities._KIND_PREFIX[kind]}-{a}-vs-{b}": (_route(kind, a), _route(kind, b))
    for kind, methods in triangles.METHODS.items()
    for a, b in combinations(methods, 2)
}
CASES.update({
    "h-rank-generating": (
        lambda: triangles.compute("htriangle", M, N, "brute").subs_t(1),
        lambda: triangles.rank_generating_poly(M, N),
    ),
    # the relations read the H formula against the M and ch formulas
    "h-to-m": (lambda: triangles.h_triangle_formula(M, N), lambda: triangles.m_triangle_formula(M, N)),
    "char-from-h": (lambda: triangles.h_triangle_formula(M, N), lambda: triangles.char_poly_formula(M, N)),
    "series-vs-formula": (
        lambda: triangles.m_series(M, N).coefficient(M, N),
        lambda: triangles.m_triangle_formula(M, N),
    ),
    "composition-identity": (_composition_lhs, lambda: identities.inner_sum_rhs(M, N, 2)),
})


def _clear_caches():
    # a cache filled by one side would hide the functions the other enters
    for name, module in list(sys.modules.items()):
        if name.startswith("shuflat"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def entered(side):
    """The code objects of the src/shuflat functions that ``side()`` enters."""
    _clear_caches()
    codes = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        side()
    finally:
        sys.setprofile(None)
    return codes


@cache
def shared(case):
    """The functions (module.qualname) that both sides of ``case`` enter,
    each comprehension under its function's name."""
    left, right = CASES[case]
    codes = entered(left) & entered(right)
    return frozenset(Path(c.co_filename).stem + "." + c.co_qualname.split(".<locals>.")[0] for c in codes)


@pytest.mark.parametrize("case", list(CASES))
def test_two_routes_that_check_each_other_share_only_plumbing(case):
    allowed = PLUMBING | PLUMBING_OF.get(case, {})
    assert shared(case) - allowed.keys() == set()


def test_every_plumbing_entry_is_shared_where_it_is_allowed():
    # no stale entry: each name is still met by a case that allows it
    assert set(PLUMBING) <= set().union(*map(shared, CASES))
    for case, names in PLUMBING_OF.items():
        assert set(names) <= shared(case), case
