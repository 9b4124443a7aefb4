import random
from fractions import Fraction
from math import comb

import pytest

from shuflat.polyalg import (
    ONE,
    Q,
    T,
    ZERO,
    BivarPoly,
    NonUnitConstantTerm,
    TruncatedSeries2,
    series_reciprocal,
)


def test_constants_and_equality():
    assert ZERO == BivarPoly({})
    assert ONE == 1
    assert BivarPoly({(1, 1): 0}) == ZERO
    assert Q != T


def test_pow_examples():
    a = Q * T - T + 1
    assert a**0 == ONE
    assert (Q * T + 1) ** 2 == BivarPoly({(2, 2): 1, (1, 1): 2, (0, 0): 1})
    assert a**2 == BivarPoly(
        {(2, 2): 1, (1, 2): -2, (0, 2): 1, (1, 1): 2, (0, 1): -2, (0, 0): 1}
    )


def test_negate_vars():
    assert ONE.negate_vars() == ONE
    assert (Q * T).negate_vars() == Q * T
    assert (Q + T).negate_vars() == -(Q + T)
    p = (Q * T - T + 1) ** 3 - 5 * Q
    assert p.negate_vars().negate_vars() == p


def test_swap_vars():
    p = Q**2 * T - 3 * Q
    assert p.swap_vars() == T**2 * Q - 3 * T
    assert p.swap_vars().swap_vars() == p


def test_evaluate():
    assert ((Q * T + 1) ** 2).evaluate(1, 1) == 4
    assert (Q**3 + 7).evaluate(0, 0) == 7
    assert (Q * T - T + 1).evaluate(2, Fraction(1, 2)) == Fraction(3, 2)


def test_substitutions():
    p = Q**2 * T - 3 * Q * T + T**2 + 2
    assert p.subs_q(1) == T - 3 * T + T**2 + 2
    assert p.subs_t(0) == BivarPoly.constant(2)
    assert p.subs_q(2).subs_t(3) == BivarPoly.constant(p.evaluate(2, 3))


def test_rendering_golden():
    m11 = BivarPoly(
        {(2, 2): 1, (1, 2): -3, (0, 2): 2, (1, 1): 3, (0, 1): -3, (0, 0): 1}
    )
    assert str(m11) == "q^2*t^2 - 3*q*t^2 + 2*t^2 + 3*q*t - 3*t + 1"
    assert str(ZERO) == "0"
    assert str(-Q) == "-q"
    assert str(T - 1) == "t - 1"
    assert m11.to_json_terms() == [
        [2, 2, "1"],
        [1, 2, "-3"],
        [0, 2, "2"],
        [1, 1, "3"],
        [0, 1, "-3"],
        [0, 0, "1"],
    ]


def random_poly(rng, max_terms=8):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[(rng.randint(0, 4), rng.randint(0, 4))] = rng.randint(-9, 9)
    return BivarPoly(terms)


def test_ring_axioms_fuzz():
    rng = random.Random(20240817)
    for _ in range(150):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO


def test_negate_vars_is_ring_homomorphism_fuzz():
    rng = random.Random(99)
    for _ in range(80):
        a, b = random_poly(rng), random_poly(rng)
        assert (a + b).negate_vars() == a.negate_vars() + b.negate_vars()
        assert (a * b).negate_vars() == a.negate_vars() * b.negate_vars()


def test_evaluation_commutes_with_arithmetic_fuzz():
    rng = random.Random(4)
    points = [(2, 3), (-1, 5), (Fraction(1, 2), Fraction(-2, 3))]
    for _ in range(60):
        a, b = random_poly(rng), random_poly(rng)
        for q0, t0 in points:
            assert (a * b).evaluate(q0, t0) == a.evaluate(q0, t0) * b.evaluate(q0, t0)
            assert (a + b).evaluate(q0, t0) == a.evaluate(q0, t0) + b.evaluate(q0, t0)


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        Q**-1


def test_series_geometric():
    s = series_reciprocal({(0, 0): ONE, (1, 0): -ONE}, 4, 2)
    for i in range(5):
        for j in range(3):
            assert s.coefficient(i, j) == (ONE if j == 0 else ZERO)


def test_series_binomial():
    s = series_reciprocal({(0, 0): ONE, (1, 0): -ONE, (0, 1): -ONE}, 5, 5)
    for i in range(6):
        for j in range(6):
            assert s.coefficient(i, j) == BivarPoly.constant(comb(i + j, i))


def test_series_reciprocal_multiplies_back_to_one():
    core = Q * T - T + 1
    terms = {
        (0, 0): ONE,
        (1, 0): -core,
        (0, 1): -core,
        (1, 1): core * core - T * (ONE - T) * (Q - 1),
    }
    d = TruncatedSeries2.from_terms(terms, 4, 4)
    product = d * d.reciprocal()
    for i in range(5):
        for j in range(5):
            assert product.coefficient(i, j) == (ONE if i == j == 0 else ZERO)


def test_series_rejects_misshaped_coefficients():
    # a ValueError, not an assert, so that python -O keeps the check
    with pytest.raises(ValueError):
        TruncatedSeries2(1, 1, [[ONE, ONE]])
    with pytest.raises(ValueError):
        TruncatedSeries2(1, 1, [[ONE, ONE], [ONE]])


def test_series_requires_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        series_reciprocal({(0, 0): BivarPoly.constant(2)}, 1, 1)
    with pytest.raises(NonUnitConstantTerm):
        series_reciprocal({(1, 0): ONE}, 1, 1)
