import os
import random
from math import comb

import pytest

from order_helpers import interval_shape, traced_peak
from shuflat import cli, lattices, poset, triangles
from shuflat.lattices import build_shuffle_lattice
from shuflat.identities import run_methods_suite
from shuflat.polyalg import ONE, Q, T, BivarPoly, TruncatedSeries2
from shuflat.poset import NoBottom, NotGraded, build_poset
from shuflat.triangles import (
    CROSS_TERM_Q_MINUS_1,
    CROSS_TERM_Q_PLUS_1,
    ROUTES,
    adjudicate_series_cross_term,
    char_poly_brute,
    char_poly_formula,
    compute,
    h_triangle_brute,
    h_triangle_formula,
    m_series,
    m_triangle_brute,
    m_triangle_composition_sum,
    m_triangle_formula,
    m_triangle_interval,
    rank_generating_poly,
)
from shuflat.words import SizeLimitExceeded, enumerate_shuffle_words, rank, shuffle_word_count

CORE = Q * T - T + 1  # qt - t + 1
M11 = BivarPoly({(2, 2): 1, (1, 2): -3, (0, 2): 2, (1, 1): 3, (0, 1): -3, (0, 0): 1})


def test_char_poly_brute_small_posets():
    single = build_poset(["*"], [])
    assert char_poly_brute(single) == ONE
    two_chain = build_poset([0, 1], [(0, 1)])
    assert char_poly_brute(two_chain) == ONE - Q
    assert char_poly_brute(build_shuffle_lattice(1, 1)) == 2 * Q**2 - 3 * Q + 1


def test_char_poly_brute_needs_bottom():
    antichain = build_poset([0, 1], [])
    with pytest.raises(NoBottom):
        char_poly_brute(antichain)


def test_char_poly_formula_examples():
    assert char_poly_formula(0, 0) == ONE
    assert char_poly_formula(1, 1) == 2 * Q**2 - 3 * Q + 1
    for m in range(5):
        assert char_poly_formula(m, 0) == (ONE - Q) ** m


def char_poly_product_form(m, n):
    """The ch closed form expanded as BivarPoly products and powers."""
    one_minus_q = ONE - Q
    acc = BivarPoly()
    for a in range(min(m, n) + 1):
        c = comb(m, a) * comb(n, a)
        acc = acc + c * (-Q) ** a * one_minus_q ** (m + n - a)
    return acc


def m_triangle_product_form(m, n):
    """The M closed form expanded as BivarPoly products and powers."""
    core = Q * T - T + 1
    cross = T * (ONE - T) * (Q - 1)
    acc = BivarPoly()
    for a in range(min(m, n) + 1):
        c = comb(m, a) * comb(n, a)
        acc = acc + c * cross**a * core ** (m + n - 2 * a)
    return acc


def test_binomial_sums_match_product_forms():
    sizes = [(m, n) for m in range(9) for n in range(9)] + [(15, 10), (10, 15)]
    for m, n in sizes:
        assert char_poly_formula(m, n) == char_poly_product_form(m, n), (m, n)
        assert m_triangle_formula(m, n) == m_triangle_product_form(m, n), (m, n)


def test_char_poly_methods_agree():
    for m in range(4):
        for n in range(4):
            assert char_poly_brute(build_shuffle_lattice(m, n)) == char_poly_formula(
                m, n
            )


def test_char_poly_vanishes_at_one():
    for m in range(5):
        for n in range(5):
            if m + n >= 1:
                assert char_poly_formula(m, n).evaluate(1, 0) == 0


def test_m_triangle_brute_examples():
    assert m_triangle_brute(0, 0) == ONE
    assert m_triangle_brute(1, 0) == CORE
    assert m_triangle_brute(1, 1) == M11


def m_triangle_per_source(m, n):
    """The M-triangle as one Mobius row per source: the sum over a and v
    of mu(a, v) q^rank(a) t^rank(v)."""
    p = build_shuffle_lattice(m, n)
    terms = {}
    for a in range(p.n):
        for v, mu in p._mobius_row(a):
            key = (p.ranks[a], p.ranks[v])
            terms[key] = terms.get(key, 0) + mu
    return BivarPoly(terms)


def test_m_triangle_brute_matches_per_source_rows():
    for m in range(8):
        for n in range(8 - m):
            assert m_triangle_brute(m, n) == m_triangle_per_source(m, n), (m, n)


def faulty_covers(monkeypatch, change, modules=(triangles,)):
    """Make ``indel_covers``, as the modules read it, hand out the covers
    and ranks that ``change(upper, ranks)`` returns; the returned list
    counts the calls."""
    original = lattices.indel_covers
    calls = []

    def covers(m, n, size_cap):
        calls.append((m, n))
        return change(*original(m, n, size_cap))

    for module in modules:
        monkeypatch.setattr(module, "indel_covers", covers)
    return calls


def jump_from_bottom(monkeypatch):
    """Add one cover from the bottom straight to the top, which spans
    m + n ranks, to the indel covers that brute M reads."""

    def jump(upper, ranks):
        bottom, top = ranks.index(0), ranks.index(max(ranks))
        upper[bottom] += (top,)
        return upper, ranks

    faulty_covers(monkeypatch, jump)


def test_m_triangle_brute_checks_the_grading(monkeypatch):
    jump_from_bottom(monkeypatch)
    with pytest.raises(NotGraded, match="spans ranks 0..4"):
        m_triangle_brute(2, 2)


def test_m_triangle_brute_grading_fault_exits_4(monkeypatch, capsys):
    jump_from_bottom(monkeypatch)
    code = cli.run(["mtriangle", "2", "2", "--method", "brute"])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err.startswith("internal error: NotGraded(") and err.count("\n") == 1


def test_m_triangle_brute_checks_rank_zero_at_the_bottom(monkeypatch):
    # a rank shifted by one still raises every cover by one; only the
    # element without lower covers shows it
    faulty_covers(monkeypatch, lambda upper, ranks: (upper, [r + 1 for r in ranks]))
    with pytest.raises(NotGraded, match="no lower cover but rank 1"):
        m_triangle_brute(1, 1)


def test_m_triangle_brute_refuses_a_cover_inside_a_level(monkeypatch):
    # a level reads all its sums before it writes, so a cover between two
    # words of one rank would be skipped silently if it were not checked
    def inside(upper, ranks):
        level = [v for v, r in enumerate(ranks) if r == 2]
        upper[level[0]] += (level[-1],)
        return upper, ranks

    faulty_covers(monkeypatch, inside)
    with pytest.raises(NotGraded, match=r"spans ranks 2\.\.2"):
        m_triangle_brute(2, 2)


def test_m_triangle_brute_names_a_word_that_the_walk_cannot_reach(monkeypatch):
    # with every cover into one rank-2 word dropped, the walk up from the
    # bottom misses that word, and only the count of the words reached
    # shows it
    def unreachable(upper, ranks):
        target = [v for v, r in enumerate(ranks) if r == 2][1]
        return [tuple(v for v in up if v != target) for up in upper], ranks

    faulty_covers(monkeypatch, unreachable)
    with pytest.raises(NotGraded, match="no lower cover but rank 2$"):
        m_triangle_brute(2, 2)


def test_m_triangle_brute_peak_memory_at_5_4():
    # the derived covers and two levels of down-sets peak near 1.6 MiB
    # under tracemalloc
    m_triangle, peak = traced_peak(lambda: m_triangle_brute(5, 4, size_cap=10**4))
    assert m_triangle == m_triangle_formula(5, 4)
    assert peak < 2.5 * 2**20, peak / 2**20


def test_m_series_coefficient_peak_memory_at_30_30():
    # only the rows in reach and the last cell are held: near 2 MiB under
    # tracemalloc, against about 3 MiB when the last cell of every row was
    # kept to the end
    m_triangle, peak = traced_peak(lambda: triangles.m_series_coefficient(30, 30))
    assert m_triangle == m_triangle_formula(30, 30)
    assert peak < 2.5 * 2**20, peak / 2**20


def test_m_triangle_brute_ignores_the_word_order(monkeypatch):
    # the levels are read from the ranks, not from the word numbers
    expected = {mn: m_triangle_brute(*mn) for mn in ((3, 3), (4, 3))}
    shuffler = random.Random(28)

    def renumbered(upper, ranks):
        order = list(range(len(ranks)))  # order[new number] = old number
        shuffler.shuffle(order)
        new = {old: v for v, old in enumerate(order)}
        return [tuple(new[u] for u in upper[old]) for old in order], [ranks[old] for old in order]

    calls = faulty_covers(monkeypatch, renumbered)
    for mn, m_triangle in expected.items():
        assert m_triangle_brute(*mn) == m_triangle == m_triangle_formula(*mn), mn
    assert calls == list(expected)


def test_m_triangle_brute_builds_no_poset(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("brute M built a Poset")

    for module in (triangles, lattices):
        monkeypatch.setattr(module, "build_shuffle_lattice", refuse)
    for module in (lattices, poset):
        monkeypatch.setattr(module, "build_poset", refuse)
    assert m_triangle_brute(3, 3) == m_triangle_formula(3, 3)


def test_brute_m_ignores_the_successor_order(monkeypatch, capsys):
    # nothing reads the order of each word's derived covers: reversed
    # tuples give the same M, the same covers and the same Hasse diagram
    covers = build_shuffle_lattice(2, 2).covers
    calls = faulty_covers(
        monkeypatch,
        lambda upper, ranks: ([up[::-1] for up in upper], ranks),
        (lattices, triangles),
    )
    assert m_triangle_brute(3, 3) == m_triangle_formula(3, 3)
    assert build_shuffle_lattice(2, 2).covers == covers
    golden = os.path.join(os.path.dirname(__file__), "golden", "hasse_1_2_shuf")
    for fmt in ("dot", "text", "json"):
        assert cli.run(["hasse", "1", "2", "--order", "shuf", "--format", fmt]) == 0
        with open(f"{golden}.{fmt}") as fh:
            assert capsys.readouterr().out == fh.read(), fmt
    assert calls == [(3, 3), (2, 2)] + [(1, 2)] * 3


def test_m_triangle_brute_above_default_cap():
    for m, n in ((5, 4), (4, 5)):
        assert m_triangle_brute(m, n, size_cap=10**4) == m_triangle_formula(m, n)


def test_m_triangle_formula_examples():
    for m in range(5):
        assert m_triangle_formula(m, 0) == CORE**m
    assert m_triangle_formula(1, 1) == M11
    for m, n in ((2, 2), (3, 1), (2, 4)):
        assert m_triangle_formula(m, n).subs_t(1) == Q ** (m + n)
        assert m_triangle_formula(m, n).subs_q(1) == ONE


def m_triangle_interval_per_word(m, n):
    """The interval route summed word by word: each word u adds
    (qt)^rank(u) times the product of the factors of its shape."""
    qt = Q * T
    factor_cache = {}

    def factor(e, l):
        poly = factor_cache.get((e, l))
        if poly is None:
            poly = char_poly_formula(e, l).swap_vars()
            factor_cache[(e, l)] = poly
        return poly

    acc = BivarPoly()
    for u in enumerate_shuffle_words(m, n):
        shape = interval_shape(u, m, n)
        term = qt ** rank(u, m)
        for e, l in zip(shape.x_blocks, shape.y_gaps):
            term = term * factor(e, l)
        acc = acc + term
    return acc


def test_m_triangle_interval_matches_per_word_sum():
    # every m, n <= 5, and every m + n <= 9
    sizes = {(m, n) for m in range(10) for n in range(10) if m + n <= 9 or max(m, n) <= 5}
    for m, n in sorted(sizes):
        counted = m_triangle_interval(m, n, size_cap=10**6)
        assert counted == m_triangle_interval_per_word(m, n), (m, n)


# The recurrence runs on the corner (m, n + 1) with its rows along x, and
# the route reads the last cell of each row.  The first group holds the
# tall corners (m > n + 1), more rows than columns; its name is from when
# the rows ran along the shorter side, and so along y there.
INTERVAL_SHAPES = {
    "rows along y": [(2, 0), (3, 1), (5, 2), (6, 1), (8, 3)],
    "rows along x, square corner": [(1, 0), (3, 2), (6, 5)],
    "rows along x": [(1, 1), (2, 4), (3, 7)],
    "edge (m, 0)": [(0, 0), (4, 0), (9, 0)],
    "edge (0, n)": [(0, 1), (0, 4), (0, 9)],
}


@pytest.mark.parametrize("shape", list(INTERVAL_SHAPES))
def test_m_triangle_interval_shapes(shape):
    for m, n in INTERVAL_SHAPES[shape]:
        counted = m_triangle_interval(m, n, size_cap=shuffle_word_count(m, n))
        assert counted == m_triangle_formula(m, n), (m, n)
        if m + n <= 9:
            assert counted == m_triangle_interval_per_word(m, n), (m, n)


def test_m_triangle_interval_frontier():
    # sizes that no word-by-word route reaches; the cap is lifted to the
    # word count, as the route reads no word
    for m, n in ((7, 6), (10, 10)):
        counted = m_triangle_interval(m, n, size_cap=shuffle_word_count(m, n))
        assert counted == m_triangle_formula(m, n) == m_triangle_composition_sum(m, n), (m, n)


def test_m_triangle_interval_reads_no_words(monkeypatch):
    def refuse(*args):
        raise AssertionError("the interval route enumerated words")

    monkeypatch.setattr(triangles, "enumerate_shuffle_words", refuse)
    assert m_triangle_interval(3, 3) == m_triangle_formula(3, 3)


def test_m_triangle_interval_checks_the_division(monkeypatch):
    # a constant in the j = m cell of the column is a y-power of R without
    # the factor qt, which that term cannot divide out
    original = TruncatedSeries2.reciprocal_column

    def constant_in_column(self):
        column = original(self)
        column[-1] = column[-1] + 1
        return column

    monkeypatch.setattr(TruncatedSeries2, "reciprocal_column", constant_in_column)
    with pytest.raises(ValueError, match="negative exponent"):
        m_triangle_interval(1, 1)


def test_brute_catches_a_wrong_interval_factor(monkeypatch):
    # ch(1, 1) off by one, as the interval route reads it; had the patch
    # no effect, the interval verdicts would all pass and this would fail
    original = triangles.char_poly_formula

    def wrong(m, n):
        poly = original(m, n)
        return poly + 1 if (m, n) == (1, 1) else poly

    monkeypatch.setattr(triangles, "char_poly_formula", wrong)
    verdicts = run_methods_suite(2, 2, series_max=2)
    failed = {v.params for v in verdicts if v.name == "m-brute-vs-interval" and not v.passed}
    assert failed == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_m_triangle_interval_matches_brute():
    assert m_triangle_interval(0, 0) == ONE
    for m in range(4):
        for n in range(4):
            assert m_triangle_interval(m, n) == m_triangle_brute(m, n)


def test_m_triangle_composition_sum_matches():
    assert m_triangle_composition_sum(0, 0) == ONE
    assert m_triangle_composition_sum(1, 1) == m_triangle_brute(1, 1)
    assert m_triangle_composition_sum(2, 3) == m_triangle_formula(2, 3)
    for m in range(9):
        for n in range(9):
            assert m_triangle_composition_sum(m, n) == m_triangle_formula(m, n)
    for m, n in ((12, 3), (3, 12)):
        assert m_triangle_composition_sum(m, n) == m_triangle_formula(m, n)


def test_m_series_coefficients():
    series = m_series(5, 5)
    assert series.coefficient(0, 0) == ONE
    for m in range(6):
        assert series.coefficient(m, 0) == CORE**m
        assert series.coefficient(0, m) == CORE**m
    assert series.coefficient(1, 1) == M11
    for m in range(6):
        for n in range(6):
            assert series.coefficient(m, n) == m_triangle_formula(m, n)


def test_series_route_reads_the_generating_function_alone(monkeypatch):
    def refuse(*args):
        raise AssertionError("the series route called the formula")

    monkeypatch.setattr(triangles, "m_triangle_formula", refuse)
    monkeypatch.setattr(triangles, "m_triangle_composition_sum", refuse)
    for m, n in ((0, 0), (3, 1), (4, 4)):
        assert compute("mtriangle", m, n, "series") == m_series(m, n).coefficient(m, n)


def test_series_cross_term_adjudication():
    verdicts = adjudicate_series_cross_term()
    assert verdicts[CROSS_TERM_Q_MINUS_1] is True
    assert verdicts[CROSS_TERM_Q_PLUS_1] is False


def test_h_triangle_examples():
    assert h_triangle_brute(0, 0) == ONE
    expected = (Q * T + 1) ** 2 + Q
    assert h_triangle_brute(1, 1) == expected
    assert h_triangle_formula(1, 1) == expected
    for m in range(5):
        assert h_triangle_formula(m, 0) == (Q * T + 1) ** m
    assert h_triangle_formula(1, 2).evaluate(1, 1) == 12


def test_h_triangle_counts_words():
    for m, n in ((1, 2), (2, 2), (3, 1)):
        assert h_triangle_brute(m, n).evaluate(1, 1) == shuffle_word_count(m, n)


def test_h_triangle_methods_agree():
    for m in range(6):
        for n in range(6):
            assert h_triangle_brute(m, n, size_cap=20000) == h_triangle_formula(m, n), (m, n)


def test_h_triangle_brute_reads_no_upper_covers(monkeypatch):
    # the census counts each word's own lower covers; it never walks the
    # covers above the words
    def refuse(u, m, n):
        raise AssertionError("upper covers walked")

    monkeypatch.setattr(lattices, "upper_bubble_covers", refuse)
    assert h_triangle_brute(3, 3) == h_triangle_formula(3, 3)


def test_h_rank_generating_specialization():
    for m, n in ((2, 2), (1, 3), (3, 2)):
        assert h_triangle_brute(m, n).subs_t(1) == rank_generating_poly(m, n)


def test_triangle_symmetry():
    for m, n in ((1, 2), (0, 3), (2, 3)):
        assert m_triangle_formula(m, n) == m_triangle_formula(n, m)
        assert h_triangle_formula(m, n) == h_triangle_formula(n, m)
        assert char_poly_formula(m, n) == char_poly_formula(n, m)
    assert m_triangle_brute(1, 2) == m_triangle_brute(2, 1)


def test_brute_size_cap():
    assert shuffle_word_count(5, 5) > 4000
    with pytest.raises(SizeLimitExceeded):
        m_triangle_brute(5, 5)
    with pytest.raises(SizeLimitExceeded):
        h_triangle_brute(5, 5)
    with pytest.raises(SizeLimitExceeded):
        m_triangle_interval(5, 5)
    assert m_triangle_interval(5, 5, size_cap=20000) == m_triangle_formula(5, 5)


@pytest.mark.parametrize("kind, method", list(ROUTES))
@pytest.mark.parametrize("m, n", [(-1, 2), (2, -1)])
def test_compute_rejects_negative_sizes(kind, method, m, n):
    with pytest.raises(ValueError, match="nonnegative"):
        compute(kind, m, n, method)


@pytest.mark.parametrize("kind, method", list(ROUTES))
@pytest.mark.parametrize("m, n", [(True, 1), (1, 2.0)])
def test_compute_rejects_sizes_that_are_not_ints(kind, method, m, n):
    # a bool would pass for Shuf(1, 1), and a float would fail inside a route
    with pytest.raises(ValueError, match="nonnegative ints"):
        compute(kind, m, n, method)


def test_compute_dispatch():
    assert compute("mtriangle", 1, 1, "series") == M11
    assert compute("htriangle", 2, 1, "brute") == h_triangle_formula(2, 1)
    assert compute("chpoly", 2, 2, "brute") == char_poly_formula(2, 2)
    with pytest.raises(ValueError):
        compute("mtriangle", 1, 1, "nope")
    with pytest.raises(ValueError):
        compute("unknown", 1, 1, "brute")
    # the routes that enumerate the lattice carry the brute cap in their
    # ROUTES entry, which compute applies when no cap is passed
    sized = {key for key, (cap, _) in ROUTES.items() if cap is not None}
    assert sized == {
        ("mtriangle", "brute"),
        ("mtriangle", "interval"),
        ("htriangle", "brute"),
        ("chpoly", "brute"),
    }
    assert {cap for cap, _ in ROUTES.values()} == {None, triangles.BRUTE_SIZE_CAP}
    with pytest.raises(SizeLimitExceeded):
        compute("chpoly", 5, 5, "brute")
    with pytest.raises(SizeLimitExceeded):
        compute("chpoly", 2, 2, "brute", 0)
    assert compute("chpoly", 2, 2, "formula", 0) == char_poly_formula(2, 2)
