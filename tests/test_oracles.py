"""Independent oracles, used only by the tests: sympy expands the
polynomial arithmetic and the closed forms, hypothesis round-trips the
word syntax and the word validator and draws sizes on which every route
must agree with the brute route of its kind."""

import random
from math import comb

import hypothesis
import sympy
from hypothesis import strategies as st

from order_helpers import negate_vars
from shuflat.polyalg import BivarPoly
from shuflat.triangles import (
    METHODS,
    ROUTES,
    char_poly_formula,
    compute,
    h_triangle_formula,
    m_triangle_formula,
)
from shuflat.words import enumerate_shuffle_words, format_word, parse_word, validate

q, t = sympy.symbols("q t")
SETTINGS = hypothesis.settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)


def to_sympy(poly):
    return sum((c * q**i * t**j for (i, j), c in poly.terms()), sympy.Integer(0))


def same(poly, expr):
    return sympy.expand(to_sympy(poly) - expr) == 0


def random_poly(rng):
    return BivarPoly(
        {(rng.randrange(4), rng.randrange(4)): rng.randint(-5, 5) for _ in range(rng.randrange(6))}
    )


def test_bivarpoly_arithmetic_matches_sympy():
    rng = random.Random(20240)
    for _ in range(40):
        a, b = random_poly(rng), random_poly(rng)
        sa, sb = to_sympy(a), to_sympy(b)
        k = rng.randrange(4)
        v = rng.randint(-3, 3)
        assert same(a + b, sa + sb)
        assert same(a * b, sa * sb)
        assert same(a**k, sa**k)
        assert same(negate_vars(a), sa.subs({q: -q, t: -t}, simultaneous=True))
        assert same(a.swap_vars(), sa.subs({q: t, t: q}, simultaneous=True))
        assert same(a.subs_q(v), sa.subs(q, v))
        assert same(a.subs_t(v), sa.subs(t, v))


def test_closed_forms_match_sympy():
    for m in range(5):
        for n in range(5):
            terms = [(a, comb(m, a) * comb(n, a)) for a in range(min(m, n) + 1)]
            ch = sum(c * (-q) ** a * (1 - q) ** (m + n - a) for a, c in terms)
            mt = sum(
                c * t**a * (1 - t) ** a * (q - 1) ** a * (q * t - t + 1) ** (m + n - 2 * a)
                for a, c in terms
            )
            ht = sum(c * q**a * (q * t + 1) ** (m + n - 2 * a) for a, c in terms)
            assert same(char_poly_formula(m, n), ch), (m, n)
            assert same(m_triangle_formula(m, n), mt), (m, n)
            assert same(h_triangle_formula(m, n), ht), (m, n)


def test_relations_match_sympy_substitution():
    # the rational substitutions themselves, with no cleared denominator
    sub_m = {q: t * (q - 1) / (1 - t), t: q / (q - 1)}
    sub_ch = {q: (q - 1) / q, t: (1 - 2 * q) / (q - 1)}
    for m in range(4):
        for n in range(4):
            d = m + n
            h = to_sympy(h_triangle_formula(m, n))
            m_expr = sympy.cancel((1 - t) ** d * h.subs(sub_m, simultaneous=True))
            ch_expr = sympy.cancel(q**d * h.subs(sub_ch, simultaneous=True))
            assert same(m_triangle_formula(m, n), m_expr), (m, n)
            assert same(char_poly_formula(m, n), ch_expr), (m, n)


@st.composite
def enumerated_words(draw):
    m = draw(st.integers(0, 4))
    n = draw(st.integers(0, 4))
    return m, n, draw(st.sampled_from(enumerate_shuffle_words(m, n)))


@SETTINGS
@hypothesis.given(enumerated_words())
def test_enumerated_words_round_trip_and_validate(case):
    m, n, word = case
    assert parse_word(format_word(word)) == word
    assert validate(word, m, n) == word


@SETTINGS
@hypothesis.given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.lists(st.tuples(st.sampled_from("xy"), st.integers(0, 4)), max_size=5),
)
def test_validate_accepts_exactly_the_enumerated_words(m, n, letters):
    word = tuple(letters)
    try:
        validate(word, m, n)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == (word in set(enumerate_shuffle_words(m, n)))


@hypothesis.settings(SETTINGS, max_examples=20)
@hypothesis.given(st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda mn: sum(mn) <= 6))
def test_every_route_agrees_with_brute(size):
    m, n = size
    brute = {kind: compute(kind, m, n, "brute") for kind in METHODS}
    for kind, method in ROUTES:
        if method != "brute":
            assert compute(kind, m, n, method) == brute[kind], (kind, method, m, n)
