import random
from fractions import Fraction
from math import comb

import hypothesis
import pytest
from hypothesis import strategies as st

from order_helpers import corner, counting_reads, negate_vars, series_product
from shuflat import cli, identities, polyalg
from shuflat.polyalg import (
    ONE,
    Q,
    T,
    ZERO,
    BivarPoly,
    NonUnitConstantTerm,
    TruncatedSeries2,
)
from shuflat.triangles import (
    CROSS_TERM_Q_MINUS_1,
    CROSS_TERM_Q_PLUS_1,
    series_denominator_terms,
)

SETTINGS = hypothesis.settings(
    max_examples=150, deadline=None, derandomize=True, database=None
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
    assert negate_vars(ONE) == ONE
    assert negate_vars(Q * T) == Q * T
    assert negate_vars(Q + T) == -(Q + T)
    p = (Q * T - T + 1) ** 3 - 5 * Q
    assert negate_vars(negate_vars(p)) == p


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


def render_oracle(poly):
    """The term-by-term renderer that BivarPoly.__str__ replaced, kept as
    a test-only oracle."""
    items = sorted(poly._terms.items(), key=lambda item: (-sum(item[0]), -item[0][1]))
    if not items:
        return "0"
    pieces = []
    for (dq, dt), coeff in items:
        mono = []
        if dq:
            mono.append("q" if dq == 1 else f"q^{dq}")
        if dt:
            mono.append("t" if dt == 1 else f"t^{dt}")
        mag = abs(coeff)
        if mag != 1 or not mono:
            mono.insert(0, str(mag))
        body = "*".join(mono)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def json_terms_oracle(poly):
    """The JSON rows that BivarPoly.to_json_terms wrote before it shared
    the renderer's ordering, kept as a test-only oracle."""
    items = sorted(poly._terms.items(), key=lambda item: (-sum(item[0]), -item[0][1]))
    return [[dq, dt, str(coeff)] for (dq, dt), coeff in items]


render_coefficients = st.one_of(
    st.sampled_from([1, -1, 2, -2, 10, -10, 2**64 + 1, -(2**64) - 1, 3**90, -(3**90)]),
    st.integers(-(2**70), 2**70),
)
render_polys = st.dictionaries(
    st.tuples(st.integers(0, 14), st.integers(0, 14)), render_coefficients, max_size=12
).map(BivarPoly)


@SETTINGS
@hypothesis.given(render_polys)
@hypothesis.example(ZERO)
@hypothesis.example(ONE)
@hypothesis.example(-ONE)
@hypothesis.example(-Q * T + T**12 - 1)
@hypothesis.example(BivarPoly({(10, 0): -1, (0, 11): 1, (3, 9): 2**65}))
def test_rendering_matches_term_by_term_oracle(poly):
    assert str(poly) == render_oracle(poly)
    assert poly.to_json_terms() == json_terms_oracle(poly)
    assert poly.terms() == [((dq, dt), int(c)) for dq, dt, c in json_terms_oracle(poly)]


def test_equal_polynomials_hash_equal():
    assert len({5, BivarPoly.constant(5)}) == 1
    assert hash(BivarPoly.constant(-7)) == hash(-7)
    assert hash(ZERO) == hash(0) == hash(BivarPoly({(0, 0): 0}))
    assert hash(ONE) == hash(1)
    p = Q**2 * T - 3 * Q + 2
    assert hash(p) == hash(BivarPoly({(0, 0): 2, (1, 0): -3, (2, 1): 1}))
    assert hash(Q - Q + 4) == hash(4)
    assert {ZERO: "zero"}[0] == "zero"


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
        assert negate_vars(a + b) == negate_vars(a) + negate_vars(b)
        assert negate_vars(a * b) == negate_vars(a) * negate_vars(b)


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


def inverse(terms, max_x, max_y):
    return TruncatedSeries2.from_terms(terms, max_x, max_y).reciprocal()


def test_series_geometric():
    s = inverse({(0, 0): ONE, (1, 0): -ONE}, 4, 2)
    for i in range(5):
        for j in range(3):
            assert s.coefficient(i, j) == (ONE if j == 0 else ZERO)


def test_series_binomial():
    s = inverse({(0, 0): ONE, (1, 0): -ONE, (0, 1): -ONE}, 5, 5)
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
    product = series_product(d, d.reciprocal())
    for i in range(5):
        for j in range(5):
            assert product.coefficient(i, j) == (ONE if i == j == 0 else ZERO)


def test_series_rejects_misshaped_coefficients():
    # a ValueError, not an assert, so that python -O keeps the check
    with pytest.raises(ValueError):
        TruncatedSeries2(1, 1, [[ONE, ONE]])
    with pytest.raises(ValueError):
        TruncatedSeries2(1, 1, [[ONE, ONE], [ONE]])


def test_series_rejects_negative_truncation_orders():
    with pytest.raises(ValueError, match="nonnegative"):
        inverse({(0, 0): ONE}, -1, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        inverse({(0, 0): ONE}, 2, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        TruncatedSeries2(-1, 0, [])


def test_series_requires_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        inverse({(0, 0): BivarPoly.constant(2)}, 1, 1)
    with pytest.raises(NonUnitConstantTerm):
        inverse({(1, 0): ONE}, 1, 1)


def grid(series):
    """A series's shape and cells, for comparing two series."""
    return series.max_x, series.max_y, series.coeff


def reciprocal_oracle(series):
    """The triangular recurrence on BivarPoly products, kept as a
    test-only oracle for the packed-integer reciprocal."""
    nonconstant = [
        (i, j, series.coeff[i][j])
        for i in range(series.max_x + 1)
        for j in range(series.max_y + 1)
        if (i, j) != (0, 0) and series.coeff[i][j]
    ]
    out = [[ZERO for _ in range(series.max_y + 1)] for _ in range(series.max_x + 1)]
    out[0][0] = ONE
    for m in range(series.max_x + 1):
        for n in range(series.max_y + 1):
            if (m, n) == (0, 0):
                continue
            acc = ZERO
            for i, j, d in nonconstant:
                if i <= m and j <= n:
                    s = out[m - i][n - j]
                    if s:
                        acc = acc + d * s
            out[m][n] = -acc
    return TruncatedSeries2(series.max_x, series.max_y, out)


coefficients = st.one_of(
    st.sampled_from([1, -1, 2**100, -(2**100)]),
    st.sampled_from([8, 64, 100]).flatmap(lambda bits: st.integers(-(2**bits), 2**bits)),
)
sparse_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), coefficients, max_size=3
).map(BivarPoly)


@st.composite
def denominators(draw):
    """A unit constant term and up to four other cells, each a sparse
    BivarPoly (possibly zero) or a raw int; the grid is at most 6 x 6."""
    max_x = draw(st.integers(0, 5))
    max_y = draw(st.integers(0, 5))
    coeff = [[ZERO] * (max_y + 1) for _ in range(max_x + 1)]
    coeff[0][0] = draw(st.sampled_from([ONE, 1]))
    cells = st.tuples(st.integers(0, max_x), st.integers(0, max_y))
    terms = draw(
        st.dictionaries(
            cells.filter(lambda ij: ij != (0, 0)),
            st.one_of(sparse_polys, st.integers(-3, 3)),
            max_size=4,
        )
    )
    for (i, j), value in terms.items():
        coeff[i][j] = value
    return TruncatedSeries2(max_x, max_y, coeff)


@SETTINGS
@hypothesis.given(denominators())
def test_reciprocal_matches_recurrence_oracle(d):
    assert grid(d.reciprocal()) == grid(reciprocal_oracle(d))


@pytest.mark.parametrize("variant", [CROSS_TERM_Q_MINUS_1, CROSS_TERM_Q_PLUS_1])
def test_series_denominators_match_recurrence_oracle(variant):
    d = TruncatedSeries2.from_terms(series_denominator_terms(variant), 12, 12)
    assert grid(d.reciprocal()) == grid(reciprocal_oracle(d))


def test_negated_variable_denominator_matches_recurrence_oracle():
    # the negated-variable denominator of demos/03_series_extraction.py
    core = Q * T + T + 1
    terms = {
        (0, 0): ONE,
        (1, 0): -core,
        (0, 1): -core,
        (1, 1): core * core - T * (T + 1) * (Q + 1),
    }
    d = TruncatedSeries2.from_terms(terms, 8, 8)
    assert grid(d.reciprocal()) == grid(reciprocal_oracle(d))


def test_reciprocal_reads_raw_int_cells_as_constants():
    s = TruncatedSeries2(2, 0, [[1], [-1], [0]]).reciprocal()
    assert s.coeff == [[ONE], [ONE], [ONE]]
    s = TruncatedSeries2(1, 1, [[1, -2], [0, 3]]).reciprocal()
    assert s.coeff == [[ONE, BivarPoly.constant(2)], [ZERO, BivarPoly.constant(-3)]]


def test_reciprocal_refuses_raw_bool_cells():
    # a bool is no int cell, as from_terms refuses it too
    for cell in (True, False):
        with pytest.raises(ValueError, match="coefficients must be ints"):
            TruncatedSeries2(2, 0, [[ONE], [cell], [ZERO]]).reciprocal()
        with pytest.raises(ValueError, match="coefficients must be ints"):
            TruncatedSeries2.from_terms({(0, 0): ONE, (1, 0): cell}, 2, 0)


def test_reciprocal_rejects_negative_exponents():
    with pytest.raises(ValueError, match="negative exponent"):
        inverse({(0, 0): ONE, (1, 0): BivarPoly({(-1, 0): -1})}, 3, 0)
    with pytest.raises(ValueError, match="negative exponent"):
        inverse({(0, 0): ONE, (1, 1): BivarPoly({(2, -1): 5})}, 1, 1)


@st.composite
def symmetric_denominators(draw):
    """A denominator symmetric on the square where both (i, j) and (j, i)
    are cells, tall or wide.  One that is not square also has a nonzero
    cell off the square, so the band (the largest j - i, with j along the
    longer side) can exceed the reach (the largest i, along the shorter
    side): D[0][3] with max_x = 2 has band 3."""
    d = draw(denominators())
    side = min(d.max_x, d.max_y) + 1
    for i in range(side):
        for j in range(i):
            d.coeff[i][j] = d.coeff[j][i]
    longer = max(d.max_x, d.max_y)
    if longer >= side:
        i, k = draw(st.integers(0, side - 1)), draw(st.integers(side, longer))
        value = draw(st.one_of(sparse_polys.filter(bool), st.sampled_from([-2, -1, 1, 3])))
        if d.max_x < d.max_y:
            d.coeff[i][k] = value
        else:
            d.coeff[k][i] = value
    return d


BAND_ABOVE_REACH = {(0, 0): ONE, (1, 0): -ONE, (0, 1): -ONE, (0, 3): Q + T}


@SETTINGS
@hypothesis.given(symmetric_denominators())
@hypothesis.example(TruncatedSeries2.from_terms(BAND_ABOVE_REACH, 2, 4))
@hypothesis.example(
    TruncatedSeries2.from_terms({(j, i): v for (i, j), v in BAND_ABOVE_REACH.items()}, 4, 2)
)
def test_symmetric_denominator_reciprocal_matches_recurrence_oracle(d):
    # the recurrence computes a symmetric denominator's cells on one side
    # of the diagonal only; the oracle computes every cell
    oracle = reciprocal_oracle(d)
    assert grid(d.reciprocal()) == grid(oracle)
    for m in range(d.max_x + 1):
        for n in range(d.max_y + 1):
            assert corner(d, m, n).reciprocal_coefficient() == oracle.coefficient(m, n)


def test_mirror_cells_are_made_once():
    d = TruncatedSeries2.from_terms(series_denominator_terms(), 8, 8)
    _, mirror, rows = d._packed_rows()
    assert mirror
    band = 1  # D[1][0], D[0][1] and D[1][1]
    made = []
    for m, (values, _) in enumerate(rows):
        made.append(values)
        for n in range(m):
            if m - n > band:
                assert values[n] is None
            else:
                assert values[n] is made[n][m]
        assert all(isinstance(v, int) for v in values[m:])
    assert len(made) == 9


def test_rows_run_along_x():
    # a tall series too: 5 rows of 3 cells, with no mirror
    d = TruncatedSeries2.from_terms(series_denominator_terms(), 4, 2)
    _, mirror, rows = d._packed_rows()
    assert not mirror
    assert [len(values) for values, _ in rows] == [3] * 5


def test_symmetric_reciprocal_shares_mirror_cells_only_on_the_square():
    d = TruncatedSeries2.from_terms(series_denominator_terms(), 4, 2)
    s = d.reciprocal()
    assert s.coefficient(1, 0) is s.coefficient(0, 1)
    assert s.coefficient(2, 1) is s.coefficient(1, 2)
    # the cells (3, n) and (4, n) lie outside the square and are computed
    assert grid(s) == grid(reciprocal_oracle(d))
    lopsided = TruncatedSeries2.from_terms({(0, 0): ONE, (1, 0): -ONE, (0, 1): -Q}, 2, 2)
    r = lopsided.reciprocal()
    assert r.coefficient(1, 0) == ONE and r.coefficient(0, 1) == Q
    assert grid(r) == grid(reciprocal_oracle(lopsided))


def assert_boxes_symmetric_on_the_square(d):
    # every cell is bounded by one rule; on the square a cell reads the
    # transposes of what its mirror reads, so its box is its mirror's.
    # The rows run along x, so a tall series gets no mirror of its own.
    _, mirror, rows = d._packed_rows()
    assert mirror == (d.max_x <= d.max_y)
    boxes = [list(row_boxes) for _, row_boxes in rows]
    side = min(d.max_x, d.max_y) + 1
    for m in range(side):
        for n in range(side):
            assert boxes[m][n] == boxes[n][m], (m, n)


@pytest.mark.parametrize("variant", [CROSS_TERM_Q_MINUS_1, CROSS_TERM_Q_PLUS_1])
@pytest.mark.parametrize("shape", [(9, 4), (8, 8), (4, 9)])
def test_series_denominator_bounds_are_symmetric_on_the_square(variant, shape):
    assert_boxes_symmetric_on_the_square(
        TruncatedSeries2.from_terms(series_denominator_terms(variant), *shape)
    )


@SETTINGS
@hypothesis.given(symmetric_denominators())
@hypothesis.example(TruncatedSeries2.from_terms(BAND_ABOVE_REACH, 2, 4))
@hypothesis.example(
    TruncatedSeries2.from_terms({(j, i): v for (i, j), v in BAND_ABOVE_REACH.items()}, 4, 2)
)
def test_symmetric_denominator_bounds_are_symmetric_on_the_square(d):
    assert_boxes_symmetric_on_the_square(d)


@pytest.mark.parametrize("shape", [(4, 2), (2, 4), (3, 3)])
def test_reciprocal_reads_cells_as_text_or_json_terms(shape):
    d = TruncatedSeries2.from_terms(series_denominator_terms(), *shape)
    polys = d.reciprocal()
    text, terms = d.reciprocal("text"), d.reciprocal("json")
    for m in range(shape[0] + 1):
        for n in range(shape[1] + 1):
            assert text.coefficient(m, n) == str(polys.coefficient(m, n))
            assert terms.coefficient(m, n) == polys.coefficient(m, n).to_json_terms()
    # a mirror cell is the same text, or term list, as its pair
    assert text.coefficient(2, 1) is text.coefficient(1, 2)
    assert terms.coefficient(2, 1) is terms.coefficient(1, 2)
    with pytest.raises(ValueError, match="unknown cell reader"):
        d.reciprocal("pack")


@pytest.mark.parametrize("variant", [CROSS_TERM_Q_MINUS_1, CROSS_TERM_Q_PLUS_1])
def test_one_cell_reader_matches_reciprocal(variant):
    d = TruncatedSeries2.from_terms(series_denominator_terms(variant), 8, 8)
    full = d.reciprocal()
    for m in range(9):
        for n in range(9):
            assert corner(d, m, n).reciprocal_coefficient() == full.coefficient(m, n)


@SETTINGS
@hypothesis.given(denominators())
def test_one_cell_reader_matches_recurrence_oracle(d):
    oracle = reciprocal_oracle(d)
    for m in range(d.max_x + 1):
        for n in range(d.max_y + 1):
            assert corner(d, m, n).reciprocal_coefficient() == oracle.coefficient(m, n)


@pytest.mark.parametrize("shape", [(6, 2), (2, 6), (4, 4)])
def test_column_reader_matches_reciprocal(shape):
    # symmetric: a corner no taller than wide reads the last cell of each
    # row under the mirror, a tall one with no mirror
    d = TruncatedSeries2.from_terms(series_denominator_terms(), *shape)
    full = d.reciprocal()
    for n in range(shape[1] + 1):
        column = corner(d, shape[0], n).reciprocal_column()
        assert column == [full.coefficient(m, n) for m in range(shape[0] + 1)]


@SETTINGS
@hypothesis.given(st.one_of(denominators(), symmetric_denominators()))
def test_column_reader_matches_recurrence_oracle(d):
    oracle = reciprocal_oracle(d)
    for n in range(d.max_y + 1):
        column = corner(d, d.max_x, n).reciprocal_column()
        assert column == [oracle.coefficient(m, n) for m in range(d.max_x + 1)]


def test_series_route_unpacks_one_cell(monkeypatch, capsys):
    calls = counting_reads(monkeypatch, "decode")
    assert cli.run(["mtriangle", "6", "6", "--method", "series"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.startswith("q^12*t^12 - ")


def test_series_command_unpacks_each_mirror_pair_once(monkeypatch, capsys):
    calls = counting_reads(monkeypatch, "text")
    decoded = counting_reads(monkeypatch, "decode")
    assert cli.run(["series", "3", "2"]) == 0
    # the tall series runs through its transpose: 3 rows of 4 cells, of
    # which the 3 left of the diagonal are mirror cells; each of the
    # others is written as text, and none is decoded
    assert len(calls) == 12 - 3
    assert decoded == []
    capsys.readouterr()


# -- the packed-evaluation codec ------------------------------------------

BOUNDARY = [127, 128, 255, 256, 2**63, 2**64, 2**64 - 1]
codec_coefficients = st.one_of(
    st.sampled_from(BOUNDARY + [-c for c in BOUNDARY] + [1, -1]),
    st.integers(-(2**70), 2**70),
)
codec_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), codec_coefficients, max_size=4
).map(BivarPoly)


def exact_slots(*polys):
    """The tightest layout holding every one of ``polys``: its largest
    q-degree, t-degree and coefficient."""
    terms = [term for p in polys for term in p._terms.items()]
    return polyalg._Slots(
        max((abs(c) for _, c in terms), default=0),
        max((dq for (dq, _), _ in terms), default=0),
        max((dt for (_, dt), _ in terms), default=0),
    )


def full_box(slots):
    return (slots.width - 1, slots.count // slots.width - 1, slots.width - 1)


@SETTINGS
@hypothesis.given(codec_polys)
@hypothesis.example(ZERO)
@hypothesis.example(BivarPoly.constant(127))
@hypothesis.example(BivarPoly.constant(-128))
@hypothesis.example(BivarPoly({(0, 0): 128, (1, 0): -127}))
@hypothesis.example(BivarPoly({(1, 1): 2**63, (0, 1): -(2**64)}))
@hypothesis.example(BivarPoly({(2, 0): -(2**63), (0, 2): 2**64}))
def test_packed_polynomial_decodes_to_itself(p):
    # the tightest layout: one bit more than the largest coefficient needs
    slots = exact_slots(p)
    assert slots.decode(slots.pack(p._terms), full_box(slots)) == p
    # the value of the packed digits is the evaluation at q = 2^B, t = 2^(B*W)
    assert slots.pack(p._terms) == p.evaluate(1 << slots.bits, 1 << slots.bits * slots.width)


def assert_readers_match_decode(slots, value, box):
    poly = slots.decode(value, box)
    assert slots.text(value, box) == str(poly)
    assert slots.json(value, box) == poly.to_json_terms()
    return poly


@SETTINGS
@hypothesis.given(
    codec_polys, st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2**66))
)
@hypothesis.example(ZERO, (0, 0, 0))
@hypothesis.example(ONE, (0, 0, 0))
@hypothesis.example(BivarPoly.constant(-1), (1, 1, 0))
@hypothesis.example(
    BivarPoly({(0, 0): 1, (1, 0): -1, (1, 1): 1, (0, 1): -1, (2, 2): -2}), (0, 0, 0)
)
@hypothesis.example(BivarPoly({(0, 2): 1, (0, 0): -128}), (0, 0, 0))
@hypothesis.example(BivarPoly({(1, 1): 2**63, (0, 1): -1, (0, 0): 1}), (0, 0, 0))
def test_cell_readers_match_the_decoded_polynomial(p, slack):
    # the tightest layout, and one with room to spare in every direction
    extra_q, extra_t, extra_norm = slack
    tight = exact_slots(p)
    deg_q, deg_t, lead, _ = polyalg._extent(p._terms)
    loose = polyalg._Slots(
        max(map(abs, p._terms.values()), default=0) + extra_norm, deg_q + extra_q, deg_t + extra_t
    )
    for slots in (tight, loose):
        value = slots.pack(p._terms)
        # the whole layout, and the polynomial's own box, which is partial
        # when its lead is below its q-degree
        for box in (full_box(slots), (deg_q, deg_t, lead)):
            assert assert_readers_match_decode(slots, value, box) == p


def test_a_partial_box_leaves_out_slots():
    # lead 0 < deg_q 2: q^2 and q^2*t lie outside the box and are not read
    p = BivarPoly({(2, 2): 5, (1, 1): -1, (0, 1): 1, (0, 0): -1})
    slots = exact_slots(p)
    box = (2, 2, 0)
    assert len(slots._read_box(box)[0]) == slots.count - 3
    assert assert_readers_match_decode(slots, slots.pack(p._terms), box) == p
    assert slots.text(slots.pack(p._terms), box) == "5*q^2*t^2 - q*t + t - 1"


def test_slot_size_keeps_a_sign_bit():
    # 127 fits a signed byte and 128 does not: the byte count changes there
    assert [polyalg._Slots(c, 0, 0).size for c in (127, 128, 2**63 - 1, 2**63)] == [1, 2, 8, 9]
    assert polyalg._Slots(0, 0, 0).size == 1


@SETTINGS
@hypothesis.given(codec_polys, codec_polys)
@hypothesis.example(ONE, BivarPoly.constant(-128))
@hypothesis.example(BivarPoly.constant(-1), BivarPoly({(0, 0): 127, (3, 1): 128}))
@hypothesis.example(Q - 1, BivarPoly({(1, 0): 2**64, (0, 2): -(2**63)}))
def test_shift_add_is_the_product_of_packed_values(m, p):
    product = m * p
    slots = exact_slots(m, p, product)
    packed = polyalg._shift_add(0, slots.pack(p._terms), slots.shifts(m._terms))
    assert packed == slots.pack(product._terms)
    assert slots.decode(packed, full_box(slots)) == product
    # the shift-add accumulates onto what it is given
    assert polyalg._shift_add(7, slots.pack(p._terms), slots.shifts(m._terms)) == packed + 7


@SETTINGS
@hypothesis.given(codec_polys, st.sampled_from([0, 1, -1, 7, 2**70, -(2**70)]))
@hypothesis.example(ZERO, 7)
@hypothesis.example(Q - 1, 0)
def test_scalar_product_is_the_product_with_a_constant(p, c):
    assert p * c == c * p == p * BivarPoly.constant(c)


def test_bool_operand_is_refused():
    # a bool is not taken for the int it subclasses, in + as in *
    for operation in (
        lambda: Q * True,
        lambda: False * Q,
        lambda: Q + True,
        lambda: True + Q,
    ):
        with pytest.raises(ValueError, match="coefficients must be ints"):
            operation()


def test_pow_takes_a_nonnegative_int_only():
    # a bool is refused here too, not taken for 0 or 1
    for exponent in (-1, 1.0, True):
        with pytest.raises(ValueError, match="exponent must be a nonnegative integer"):
            Q**exponent


def test_bool_compares_unequal():
    # == takes an int for a constant, but a bool is not one: it compares
    # unequal instead of raising, as the arithmetic above refuses it
    assert (Q * T + 1 == True) is False
    assert (ONE == True) is False and (ZERO == False) is False
    assert ONE != True and ZERO != False
    assert ONE == 1 and ZERO == 0


def test_substitutions_take_ints_only():
    p = Q * T - T + 1
    assert p.subs_q(2) == T + 1 and p.subs_t(-1) == 2 - Q
    for substitute in (p.subs_q, p.subs_t):
        with pytest.raises(ValueError, match="coefficients must be ints"):
            substitute(Fraction(1, 2))
        for value in (True, False):
            with pytest.raises(ValueError, match="coefficients must be ints"):
                substitute(value)
    # a negative power of the substituted variable is refused by name,
    # where 0 would divide by zero and 2 would leave a fraction
    for poly, name in ((BivarPoly({(-1, 0): 1}), "subs_q"), (BivarPoly({(0, -1): 1}), "subs_t")):
        for value in (0, 2):
            with pytest.raises(ValueError, match="negative exponent, got -1"):
                getattr(poly, name)(value)
    # a negative power of the other variable stays
    assert BivarPoly({(1, -1): 2}).subs_q(3) == BivarPoly({(0, -1): 6})


def test_passing_relation_builds_no_decode_tables(monkeypatch):
    made = []

    class Recording(polyalg._Slots):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(identities, "_Slots", Recording)
    assert identities.verify_h_to_m(3, 2).passed
    assert identities.verify_char_from_h(3, 2).passed
    assert len(made) == 2 and all(s.slices is None and not s.boxes for s in made)


def test_from_terms_refuses_a_negative_degree():
    # unrefused, Python's end-relative indexing would put q in cell (2, 0),
    # or over the constant term
    for key, max_x, max_y in (((-1, 0), 2, 0), ((0, -2), 1, 1)):
        with pytest.raises(ValueError, match=rf"nonnegative, got \({key[0]}, {key[1]}\)"):
            TruncatedSeries2.from_terms({(0, 0): ONE, key: Q}, max_x, max_y)


def test_series_refuses_a_truncation_order_that_is_not_an_int():
    # a bool order would make and invert a series, and a float one would
    # fail inside range; both constructors go through the one check
    for max_x, max_y in ((True, 1), (1, False), (1.0, 1), (1, "1")):
        with pytest.raises(ValueError, match="nonnegative ints"):
            TruncatedSeries2.from_terms({(0, 0): ONE, (1, 0): -Q}, max_x, max_y)
        with pytest.raises(ValueError, match="nonnegative ints"):
            TruncatedSeries2(max_x, max_y, [[ONE, ZERO], [ZERO, ZERO]])


def test_exponents_must_be_ints():
    for key in ((1.5, 0), ("2", 0), (0, 1.0), (True, 0), (0, None)):
        with pytest.raises(ValueError, match="exponents must be ints"):
            BivarPoly({key: 1})
    # negative exponents stay allowed, and the keys are kept as given
    p = BivarPoly({(-1, 2): 3})
    assert p.terms() == [((-1, 2), 3)]


def test_coefficients_must_be_ints():
    for coeff in (1.5, True, False, 0.0, "1", None):
        with pytest.raises(ValueError, match="coefficients must be ints"):
            BivarPoly({(1, 0): 1, (0, 0): coeff})
    with pytest.raises(ValueError, match="coefficients must be ints"):
        BivarPoly.constant(True)
    # a series cell with a fractional constant is refused when it is made,
    # before any reciprocal
    with pytest.raises(ValueError, match="coefficients must be ints"):
        inverse({(0, 0): ONE, (1, 0): BivarPoly({(0, 0): 0.5})}, 2, 2)
    assert BivarPoly({(1, 0): 2, (0, 0): 0}).terms() == [((1, 0), 2)]
