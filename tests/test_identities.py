from math import comb

import hypothesis
import pytest
from hypothesis import strategies as st

from order_helpers import compositions, substitution_sides
from shuflat import identities, triangles
from shuflat.identities import (
    inner_sum_lhs,
    inner_sum_lhs_full_exponent,
    inner_sum_rhs,
    r_sum_sides,
    run_identities_suite,
    run_methods_suite,
    run_relations_suite,
    vandermonde_step,
    verify_char_from_h,
    verify_h_to_m,
)
from shuflat.polyalg import ONE, Q, T, BivarPoly


def test_compositions_examples():
    assert compositions(0, 3) == [(0, 0, 0)]
    assert compositions(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert len(compositions(4, 3)) == 15
    for total, parts in ((3, 2), (5, 4), (0, 1)):
        out = compositions(total, parts)
        assert len(out) == comb(total + parts - 1, parts - 1)
        assert all(sum(c) == total and len(c) == parts for c in out)
        assert out == sorted(out, reverse=True)


def test_inner_sums_examples():
    for k in range(4):
        assert inner_sum_lhs(0, 0, k) == ONE
        assert inner_sum_rhs(0, 0, k) == ONE
    assert inner_sum_lhs(1, 0, 0) == T + 1
    assert inner_sum_rhs(1, 0, 0) == 1 + T
    assert inner_sum_lhs(1, 1, 0) == inner_sum_rhs(1, 1, 0)
    assert inner_sum_lhs(3, 2, 2) == inner_sum_rhs(3, 2, 2)


def test_composition_identity_range():
    for m in range(5):
        for n in range(5):
            for k in range(4):
                assert inner_sum_lhs(m, n, k) == inner_sum_rhs(m, n, k), (m, n, k)


def _literal_composition_pair_sum(m, n, k, factor):
    # the identity's left side as written: every pair of weak compositions
    # of m and n into k+1 parts, the product of the factors of its parts
    acc = BivarPoly()
    for eta in compositions(m, k + 1):
        for lam in compositions(n, k + 1):
            term = ONE
            for e, l in zip(eta, lam):
                term = term * factor(e, l)
            acc = acc + term
    return acc


def test_composition_sums_match_literal_pair_sum():
    # every sum of one suite-sized reciprocal, for both factor variants,
    # and the one-cell reads of the same sums
    for full, one_cell in ((False, inner_sum_lhs), (True, inner_sum_lhs_full_exponent)):
        table = identities._factor_series(4, 4, 3, full).reciprocal()

        def factor(e, l):
            return identities._factor(e, l, l if full else 0)

        for m in range(5):
            for n in range(5):
                for k in range(4):
                    literal = _literal_composition_pair_sum(m, n, k, factor)
                    cell = table.coefficient(m, n + k + 1)
                    assert identities._power_part(cell, k) == literal, (full, m, n, k)
                    assert one_cell(m, n, k) == literal, (full, m, n, k)


def test_wrong_last_factor_column_fails_exactly_where_it_is_read(monkeypatch):
    # F gains 1 at (1, max_n): [x^m y^n] F^(k+1) moves only at n = max_n,
    # m >= 1, and at k = 0 only at m = 1.  A table that dropped F's last
    # column would fail at m = 0 too, and one that ignored it nowhere.
    max_m, max_n, max_k = 3, 2, 2
    original = identities._factor

    def faulty(e, l, extra):
        value = original(e, l, extra)
        return value + 1 if (e, l, extra) == (1, max_n, 0) else value

    monkeypatch.setattr(identities, "_factor", faulty)
    failed = {
        v.params
        for v in run_identities_suite(max_m, max_n, max_k)
        if v.name == "composition-identity" and not v.passed
    }
    expected = {(1, max_n, 0)} | {
        (m, max_n, k) for m in range(1, max_m + 1) for k in range(1, max_k + 1)
    }
    assert failed == expected
    assert (max_m, max_n, max_k) in failed


def test_identities_suite_verdict_labels():
    def labels(*bounds):
        return [(v.name, v.params) for v in run_identities_suite(*bounds)]

    assert labels(0, 0) == [
        *(("composition-identity", (0, 0, k)) for k in range(5)),
        ("vandermonde-factor", (8, 8)),
        ("three-binomial-sum", (0, 0, 4)),
        ("prefactor-identity", (5, 5, 3)),
    ]
    assert labels(2, 1, 0) == [
        *(("composition-identity", (m, n, 0)) for m in range(3) for n in range(2)),
        ("vandermonde-factor", (8, 8)),
        ("three-binomial-sum", (2, 1, 0)),
        ("prefactor-identity", (5, 5, 3)),
    ]


def test_vandermonde_step():
    lhs, rhs = vandermonde_step(0, 0)
    assert lhs == rhs == ONE
    lhs, rhs = vandermonde_step(1, 0)
    assert lhs == T + 1 and rhs == 1 + T
    lhs, rhs = vandermonde_step(2, 3)
    assert lhs == rhs
    for e in range(9):
        for l in range(9):
            lhs, rhs = vandermonde_step(e, l)
            assert lhs == rhs, (e, l)


def test_r_sum_identity():
    for m in range(7):
        for n in range(7):
            for k in range(5):
                for l in range(m + 1):
                    lhs, rhs = r_sum_sides(m, n, k, l)
                    assert lhs == rhs, (m, n, k, l)


def test_prefactor_identity():
    for m in range(6):
        for n in range(6):
            for k in range(4):
                assert inner_sum_lhs_full_exponent(m, n, k) == (
                    T + 1
                ) ** n * inner_sum_lhs(m, n, k)


def test_verify_h_to_m():
    for params in ((0, 0), (1, 1), (3, 2)):
        verdict = verify_h_to_m(*params)
        assert verdict.passed, verdict
        assert verdict.name == "h-to-m"
        assert verdict.lhs is None and verdict.rhs is None


def test_verify_char_from_h():
    for params in ((0, 0), (1, 1), (4, 3)):
        verdict = verify_char_from_h(*params)
        assert verdict.passed, verdict


def test_relations_fail_on_a_wrong_h(monkeypatch):
    original = triangles.h_triangle_formula
    # a coefficient of 2^70 needs slots of more than one machine word
    for coeff in (1, 2**70):
        monkeypatch.setattr(
            triangles, "h_triangle_formula", lambda m, n: original(m, n) + coeff * Q * T
        )
        for verify in (verify_h_to_m, verify_char_from_h):
            verdict = verify(2, 2)
            assert not verdict.passed, verify
            assert isinstance(verdict.lhs, BivarPoly) and isinstance(verdict.rhs, BivarPoly)
        # the extra term q*t (i = j = 1, d = 4) adds t (q-1)^4 (1-t)^3 q to the right side
        verdict = verify_h_to_m(2, 2)
        assert verdict.rhs - verdict.lhs == coeff * T * (Q - 1) ** 4 * (1 - T) ** 3 * Q
        assert verdict.lhs == (Q - 1) ** 4 * triangles.m_triangle_formula(2, 2)


def test_relations_check_the_h_they_are_given():
    # the substitution reads H from its argument: one coefficient off by
    # one fails both relations, and the formula's own H passes both
    m, n = 2, 1
    h = triangles.h_triangle_formula(m, n)
    (i, j), c = h.terms()[1]
    wrong = h + BivarPoly({(i, j): 1})
    assert wrong.coefficient(i, j) == c + 1
    cases = (
        ("h-to-m", triangles.m_triangle_formula(m, n), (T, Q, 1 - T)),
        ("char-from-h", triangles.char_poly_formula(m, n), (ONE, 1 - 2 * Q, Q)),
    )
    for name, target, subs in cases:
        assert identities._substitution_verdict(name, m, n, h, target, *subs).passed
        verdict = identities._substitution_verdict(name, m, n, wrong, target, *subs)
        assert not verdict.passed, name


def test_relations_take_the_exponents_a_power_takes(monkeypatch):
    # at (1, 1), d = 2: a term of H needs i <= d and j <= d + i
    original = triangles.h_triangle_formula

    def add_to_h(extra):
        monkeypatch.setattr(triangles, "h_triangle_formula", lambda m, n: original(m, n) + extra)

    add_to_h(Q**2 * T**3)
    verdict = verify_h_to_m(1, 1)
    assert not verdict.passed
    assert verdict.rhs - verdict.lhs == Q**4 * T**2 - Q**3 * T**2
    verdict = verify_char_from_h(1, 1)
    assert not verdict.passed
    assert verdict.rhs - verdict.lhs == (Q - 1) * (1 - 2 * Q) ** 3
    # i > d, j > d + i, and negative exponents would need a negative power
    for extra in (Q**3, T**3, BivarPoly({(0, -1): 1}), BivarPoly({(-1, 0): 1})):
        add_to_h(extra)
        for verify in (verify_h_to_m, verify_char_from_h):
            with pytest.raises(ValueError):
                verify(1, 1)


RELATIONS = (
    ("h-to-m", triangles.m_triangle_formula, (T, Q, 1 - T)),
    ("char-from-h", triangles.char_poly_formula, (ONE, 1 - 2 * Q, Q)),
)


@st.composite
def perturbed_relation_inputs(draw):
    # (m, n) with m + n <= 8, whether H and the target start from their
    # formulas or from zero, and terms with coefficients up to 2^100 to add
    # to H (inside i <= d, j <= d + i) and to the target
    m = draw(st.integers(0, 8))
    n = draw(st.integers(0, 8 - m))
    d = m + n
    coeff = st.integers(-(2**100), 2**100)

    def h_term(i):
        return st.tuples(st.just(i), st.integers(0, d + i), coeff)

    h_extra = draw(st.lists(st.integers(0, d).flatmap(h_term), max_size=3))
    target_extra = draw(
        st.lists(st.tuples(st.integers(0, 2 * d), st.integers(0, d), coeff), max_size=2)
    )
    return m, n, draw(st.booleans()), draw(st.booleans()), h_extra, target_extra


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
@hypothesis.given(perturbed_relation_inputs())
def test_packed_relations_match_the_product_oracle(case):
    m, n, h_formula, target_formula, h_extra, target_extra = case
    h = triangles.h_triangle_formula(m, n) if h_formula else BivarPoly()
    for i, j, c in h_extra:
        h = h + BivarPoly.monomial(i, j, c)
    for name, formula, subs in RELATIONS:
        target = formula(m, n) if target_formula else BivarPoly()
        for i, j, c in target_extra:
            target = target + BivarPoly.monomial(i, j, c)
        lhs, rhs = substitution_sides(m, n, h, target, *subs)
        verdict = identities._substitution_verdict(name, m, n, h, target, *subs)
        assert verdict.passed == (lhs == rhs), name
        if not verdict.passed:
            assert (verdict.lhs, verdict.rhs) == (lhs, rhs), name


def test_relations_hold_at_larger_sizes():
    # d = 23 or 24: several bytes per slot, and q-strides of 47 slots and more
    for params in ((12, 12), (20, 3), (3, 20)):
        for verify in (verify_h_to_m, verify_char_from_h):
            verdict = verify(*params)
            assert verdict.passed, (verify, params)


def test_relations_refuse_a_target_with_a_negative_exponent():
    h = triangles.h_triangle_formula(1, 1)
    for name, formula, subs in RELATIONS:
        target = formula(1, 1) + BivarPoly({(0, -1): 1})
        with pytest.raises(ValueError):
            identities._substitution_verdict(name, 1, 1, h, target, *subs)


def test_verdict_json_shape():
    verdict = verify_h_to_m(1, 1)
    payload = verdict.to_json()
    assert payload["name"] == "h-to-m"
    assert payload["params"] == [1, 1]
    assert payload["passed"] is True


def test_identities_suite_small():
    verdicts = run_identities_suite(2, 2, 2)
    assert verdicts and all(v.passed for v in verdicts)
    names = {v.name for v in verdicts}
    assert "composition-identity" in names
    assert "vandermonde-factor" in names
    assert "three-binomial-sum" in names
    assert "prefactor-identity" in names


def test_relations_suite_small():
    verdicts = run_relations_suite(2, 2)
    assert len(verdicts) == 2 * 9
    assert all(v.passed for v in verdicts)


def test_relations_suite_reads_one_h_per_pair(monkeypatch):
    original = triangles.h_triangle_formula
    calls = []

    def counted(m, n):
        calls.append((m, n))
        return original(m, n)

    monkeypatch.setattr(triangles, "h_triangle_formula", counted)
    verdicts = run_relations_suite(2, 1)
    assert calls == [(m, n) for m in range(3) for n in range(2)]
    assert len(verdicts) == 2 * 6 and all(v.passed for v in verdicts)
    # a wrong H read once fails both relations of every pair
    monkeypatch.setattr(triangles, "h_triangle_formula", lambda m, n: original(m, n) + 1)
    assert not any(v.passed for v in run_relations_suite(2, 1))


def test_relations_take_h_as_an_argument():
    h = triangles.h_triangle_formula(2, 1)
    for verify in (verify_h_to_m, verify_char_from_h):
        assert verify(2, 1, h) == verify(2, 1)
        assert verify(2, 1, h).passed
        assert not verify(2, 1, h + Q * T).passed, verify


def test_methods_suite_small():
    verdicts = run_methods_suite(2, 2, series_max=3)
    assert all(v.passed for v in verdicts), [v for v in verdicts if not v.passed]
    names = {v.name for v in verdicts}
    assert "m-brute-vs-interval" in names
    assert "series-cross-term-adjudication" in names
    note = next(v for v in verdicts if v.name == "series-cross-term-adjudication")
    assert "-t(1-t)(q-1)xy" in note.detail


def test_prefactor_identity_reports_first_failure(monkeypatch):
    original = identities._factor_series
    expected = inner_sum_lhs_full_exponent(1, 0, 0) + 1

    def faulty(max_m, max_n, max_k, full_exponent):
        # in the full-exponent series only, F gains 1 at (1, 0) and (3, 2):
        # cells (1, 1) and (3, 3) of 1 - qt y F lose qt
        series = original(max_m, max_n, max_k, full_exponent)
        if full_exponent:
            for e, l in ((1, 0), (3, 2)):
                series.coeff[e][l + 1] = series.coeff[e][l + 1] - Q * T
        return series

    monkeypatch.setattr(identities, "_factor_series", faulty)
    verdicts = run_identities_suite(3, 2, 1)
    verdict = next(v for v in verdicts if v.name == "prefactor-identity")
    assert not verdict.passed
    assert verdict.detail == "at (1, 0, 0)"
    assert verdict.lhs == expected
    assert all(v.passed for v in verdicts if v.name == "composition-identity")


def test_specializations_report_first_failure(monkeypatch):
    original = triangles.m_triangle_formula

    def faulty(m, n):
        value = original(m, n)
        return value + 1 if (m, n) in ((1, 0), (3, 2)) else value

    monkeypatch.setattr(triangles, "m_triangle_formula", faulty)
    verdict = next(
        v for v in run_methods_suite(0, 0, series_max=3) if v.name == "specializations"
    )
    assert not verdict.passed
    assert verdict.detail == "M(1,t) at (1, 0)"


@pytest.mark.parametrize(
    "names, bounds",
    [
        ([], {}),
        (["relations"], {"max_m": True, "max_n": 0}),
        (["relations"], {"max_m": 1.0}),
        (["identities"], {"max_n": "2"}),
        (["methods"], {"max_n": -1}),
        (["methods"], {"series_max": 2.5}),
        (["methods"], {"series_max": True}),
    ],
    ids=["no_suite", "bool_max_m", "float_max_m", "str_max_n", "negative_max_n", "float_series", "bool_series"],
)
def test_run_suites_refuses_a_vacuous_or_malformed_request(monkeypatch, names, bounds):
    # no suite would print "0/0 checks passed", a bool bound would run as
    # 1, and a float one would fail in the middle of a suite
    def refuse(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(identities, "SUITES", dict.fromkeys(identities.SUITES, refuse))
    with pytest.raises(ValueError, match="no suite named|must be None or a nonnegative int"):
        identities.run_suites(names, **bounds)


def test_run_suites_takes_none_for_a_default_bound(monkeypatch):
    # an omitted series bound and a None one reach the suite as SERIES_BOUND
    seen = []
    monkeypatch.setattr(identities, "SUITES", {"methods": lambda bounds, s: seen.append(s) or []})
    identities.run_suites(["methods"], 0, 0)
    identities.run_suites(["methods"], 0, 0, series_max=None)
    assert seen == [identities.SERIES_BOUND] * 2
