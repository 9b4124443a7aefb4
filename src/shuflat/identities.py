"""Binomial-composition identities and the relations between triangles.

The central identity equates a sum over pairs of weak compositions
(eta into k+1 parts summing to m, lambda into k+1 parts summing to n)
of products of the factors f(eta_i, lambda_i) =

    sum_a C(lambda_i, a) C(eta_i, a) t^a (t+1)^(eta_i - a)

with the closed form C(n+k, k) sum_l C(m+k, l+k) C(n+k+l, l) t^l.
A suite reads every sum [x^m y^n] F^(k+1), F = sum f(e, l) x^e y^l,
off one reciprocal 1/(1 - qt y F), q marking the power of F, as in the
interval route (polyalg.geometric_denominator); the Vandermonde rewrite
of the factor and the three-binomial sum that the double-counting proof
reduces to ride along.

The two substitution relations tie the triangles together:

    M(q,t)  = (1-t)^(m+n) H(t(q-1)/(1-t), q/(q-1))
    ch(q)   = q^(m+n) H((q-1)/q, (1-2q)/(q-1))

Multiplied by (q-1)^(m+n), both sides of each relation are polynomials,
and one function checks each as an exact polynomial equality: both
sides are evaluated in one polyalg._Slots layout, set from degree and
norm bounds on both sides before any product, so equal ints mean equal
polynomials, and a mismatch decodes back to both sides.  The check
reads the evaluation and the bounds only, never a formula, so the
routes it compares stay independent.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb

from . import triangles
from .polyalg import ONE, Q, T, BivarPoly, _extent, _powers, _shift_add, _Slots, geometric_denominator
from .words import check_size

#: Default bounds: of the identity and relation checks, of the
#: brute-force comparisons in the methods suite, and of its series checks.
FORMULA_BOUND = 6
BRUTE_BOUND = 4
SERIES_BOUND = 8
#: The methods verdict whose detail says which denominator cross term is
#: the real one; the command line prints that detail as a note.
ADJUDICATION = "series-cross-term-adjudication"


@lru_cache(maxsize=None)
def _factor(eta_i, lambda_i, extra):
    # sum_a C(lambda_i, a) C(eta_i, a) t^a (t+1)^(eta_i + extra - a); the
    # identity takes extra = 0, the prefactor variant extra = lambda_i
    acc = BivarPoly()
    for a in range(min(eta_i, lambda_i) + 1):
        c = comb(lambda_i, a) * comb(eta_i, a)
        acc = acc + c * T**a * (T + 1) ** (eta_i + extra - a)
    return acc


def _factor_series(max_m, max_n, max_k, full_exponent):
    """1 - qt y F truncated at (max_m, max_n + max_k + 1), F = sum f(e, l)
    x^e y^l over l <= max_n, extra = l if ``full_exponent`` else 0.  The
    sum at (m, n, k) is the _power_part of the last cell (m, n+k+1) of
    its reciprocal; that part reads no cell of F with y-degree above n."""
    factors = [[_factor(e, l, l if full_exponent else 0) for l in range(max_n + 1)]
               for e in range(max_m + 1)]
    return geometric_denominator(factors, max_n + max_k + 1)


def _power_part(cell, k) -> BivarPoly:
    """[x^m y^n] F^(k+1) from cell (m, n+k+1) of 1/(1 - qt y F): its
    q^(k+1) part, (qt)^(k+1) times that sum, with t shifted down by k+1."""
    return BivarPoly._of({(0, dt - k - 1): c for (dq, dt), c in cell._terms.items() if dq == k + 1})


def inner_sum_lhs(m, n, k) -> BivarPoly:
    """Composition-pair sum of factor products (polynomial in t), as the
    coefficient [x^m y^n] F^(k+1) with F = sum f(e, l) x^e y^l."""
    return _power_part(_factor_series(m, n, k, False).reciprocal_coefficient(), k)


def inner_sum_lhs_full_exponent(m, n, k) -> BivarPoly:
    """Same sum with the (t+1)^(eta_i + lambda_i - a) factor variant."""
    return _power_part(_factor_series(m, n, k, True).reciprocal_coefficient(), k)


def inner_sum_rhs(m, n, k) -> BivarPoly:
    """Closed form C(n+k,k) sum_l C(m+k, l+k) C(n+k+l, l) t^l."""
    inner = BivarPoly(
        {(0, l): comb(m + k, l + k) * comb(n + k + l, l) for l in range(m + 1)}
    )
    return comb(n + k, k) * inner


def vandermonde_step(eta_i, lambda_i):
    """The factor written both ways; returns (sum form, rewritten form).

    The rewrite expands (t+1)^(eta_i - a) and collects powers of t:
    sum_j C(eta_i, eta_i - j) C(lambda_i + j, j) t^j.
    """
    lhs = _factor(eta_i, lambda_i, 0)
    rhs = BivarPoly(
        {
            (0, j): comb(eta_i, eta_i - j) * comb(lambda_i + j, j)
            for j in range(eta_i + 1)
        }
    )
    return lhs, rhs


def r_sum_sides(m, n, k, l):
    """Both sides of sum_r C(n,r) C(m+k, r+k) C(m-r, l-r) =
    C(m+k, l+k) C(n+k+l, l), as plain integers."""
    lhs = sum(
        comb(n, r) * comb(m + k, r + k) * comb(m - r, l - r)
        for r in range(min(n, l) + 1)
    )
    rhs = comb(m + k, l + k) * comb(n + k + l, l)
    return lhs, rhs


class IdentityVerdict(
    namedtuple(
        "IdentityVerdict",
        "name params passed lhs rhs detail",
        defaults=(None, None, ""),
    )
):
    """Outcome of one identity check; lhs/rhs carry evidence on failure."""

    __slots__ = ()

    def to_json(self):
        return {
            "name": self.name,
            "params": list(self.params),
            "passed": self.passed,
            "lhs": None if self.lhs is None else str(self.lhs),
            "rhs": None if self.rhs is None else str(self.rhs),
            "detail": self.detail,
        }


def _first_failure(name, params, cases):
    """One verdict over a lazy iterable of (detail, lhs, rhs) cases: it
    fails with the evidence of the first case whose sides differ."""
    for detail, lhs, rhs in cases:
        if lhs != rhs:
            return IdentityVerdict(name, params, False, lhs, rhs, detail)
    return IdentityVerdict(name, params, True)


def _substitution_verdict(name, m, n, h, target, a, b, c):
    """(q-1)^d target against sum_ij [q^i t^j]h a^i b^j (q-1)^(d+i-j) c^(d-i), d = m+n,
    for the H-triangle ``h`` of Shuf(m, n), by default (None) the formula's;
    a term of h outside i <= d, j <= d+i, or a negative exponent in target,
    a, b or c, raises ValueError.

    Both sides are compared as their ints in one _Slots layout, whose
    bounds are taken before any product.  The q-degree of a side is at
    most that of its largest term: i*deg_q(a) + j*deg_q(b) + d+i-j +
    (d-i)*deg_q(c) on the right, d + deg_q(target) on the left, and
    likewise for the t-degree without the (q-1) powers.  Its
    coefficients are at most its l1 norm, at most sum |h_ij| |a|^i |b|^j
    2^(d+i-j) |c|^(d-i) on the right and 2^d |target| on the left.
    """
    if h is None:
        h = triangles.h_triangle_formula(m, n)
    d = m + n
    terms = h._terms.items()  # the bounds and rows below need no term order
    for (i, j), _ in terms:
        if not (0 <= i <= d and 0 <= j <= d + i):
            raise ValueError(f"H term q^{i}*t^{j} needs a negative power at d = {d}")
    (aq, at, _, a1), (bq, bt, _, b1), (cq, ct, _, c1), (tq, tt, _, t1) = (
        _extent(p._terms) for p in (a, b, c, target)
    )
    top_q = max([d + tq] + [i * aq + j * bq + d + i - j + (d - i) * cq for (i, j), _ in terms])
    top_t = max([tt] + [i * at + j * bt + (d - i) * ct for (i, j), _ in terms])
    norm = max(
        t1 << d,
        sum(abs(k) * a1**i * b1**j * c1 ** (d - i) << d + i - j for (i, j), k in terms),
    )
    slots = _Slots(norm, top_q, top_t)

    b_value = _shift_add(0, 1, slots.shifts(b._terms))
    q1_pow = _powers(1, _shift_add(-1, 1, slots.shifts(Q._terms)), 2 * d)  # powers of q - 1
    a_pow, c_shifts = [slots.shifts(p._terms) for p in _powers(ONE, a, d)], slots.shifts(c._terms)
    rows = [{} for _ in range(d + 1)]  # rows[i][j] = [q^i t^j]h
    for (i, j), k in terms:
        rows[i][j] = k
    # sum_i a^i c^(d-i) sum_j [q^i t^j]h b^j (q-1)^(d+i-j), by Horner in c
    # over i and in b over j
    rhs = 0
    for i, row in enumerate(rows):
        acc = 0
        for j in range(max(row, default=0), -1, -1):
            acc = acc * b_value + row.get(j, 0) * q1_pow[d + i - j]
        rhs = _shift_add(_shift_add(0, rhs, c_shifts), acc, a_pow[i])
    lhs = q1_pow[d] * slots.pack(target._terms)
    if lhs == rhs:
        return IdentityVerdict(name, (m, n), True)
    box = (top_q, top_t, top_q)
    return IdentityVerdict(name, (m, n), False, slots.decode(lhs, box), slots.decode(rhs, box))


def verify_h_to_m(m, n, h=None) -> IdentityVerdict:
    """M(q,t) = (1-t)^d H(t(q-1)/(1-t), q/(q-1)), d = m+n, times (q-1)^d:
    (q-1)^d M = sum_ij [q^i t^j]H t^i (q-1)^(d+i-j) (1-t)^(d-i) q^j.
    ``h`` is H(m, n), by default the formula's."""
    target = triangles.m_triangle_formula(m, n)
    return _substitution_verdict("h-to-m", m, n, h, target, T, Q, 1 - T)


def verify_char_from_h(m, n, h=None) -> IdentityVerdict:
    """ch(q) = q^d H((q-1)/q, (1-2q)/(q-1)), d = m+n, times (q-1)^d:
    (q-1)^d ch = sum_ij [q^i t^j]H (q-1)^(d+i-j) q^(d-i) (1-2q)^j.
    ``h`` is H(m, n), by default the formula's."""
    target = triangles.char_poly_formula(m, n)
    return _substitution_verdict("char-from-h", m, n, h, target, ONE, 1 - 2 * Q, Q)


# -- verification suites ------------------------------------------------


def run_identities_suite(max_m=FORMULA_BOUND, max_n=FORMULA_BOUND, max_k=4):
    """The composition identity on its stated ranges, plus the
    Vandermonde factor rewrite, the three-binomial sum, and the
    prefactor variant."""
    powers = _factor_series(max_m, max_n, max_k, False).reciprocal()
    full = _factor_series(min(max_m, 5), min(max_n, 5), min(max_k, 3), True).reciprocal()
    verdicts = [
        _first_failure(
            "composition-identity",
            (m, n, k),
            [("", _power_part(powers.coefficient(m, n + k + 1), k), inner_sum_rhs(m, n, k))],
        )
        for m in range(max_m + 1)
        for n in range(max_n + 1)
        for k in range(max_k + 1)
    ]
    return verdicts + [
        _first_failure(
            "vandermonde-factor",
            (8, 8),
            ((f"at {(e, l)}", *vandermonde_step(e, l)) for e in range(9) for l in range(9)),
        ),
        _first_failure(
            "three-binomial-sum",
            (max_m, max_n, max_k),
            (
                (f"at {(m, n, k, l)}", *r_sum_sides(m, n, k, l))
                for m in range(max_m + 1)
                for n in range(max_n + 1)
                for k in range(max_k + 1)
                for l in range(m + 1)
            ),
        ),
        _first_failure(
            "prefactor-identity",
            (5, 5, 3),
            (
                (
                    f"at {(m, n, k)}",
                    _power_part(full.coefficient(m, n + k + 1), k),
                    (T + 1) ** n * _power_part(powers.coefficient(m, n + k + 1), k),
                )
                for m in range(min(max_m, 5) + 1)
                for n in range(min(max_n, 5) + 1)
                for k in range(min(max_k, 3) + 1)
            ),
        ),
    ]


def run_relations_suite(max_m=FORMULA_BOUND, max_n=FORMULA_BOUND):
    """Both triangle substitution relations for every (m, n) up to the
    bounds; both read one H formula per (m, n)."""
    verdicts = []
    for m in range(max_m + 1):
        for n in range(max_n + 1):
            h = triangles.h_triangle_formula(m, n)
            verdicts.append(verify_h_to_m(m, n, h))
            verdicts.append(verify_char_from_h(m, n, h))
    return verdicts


_KIND_PREFIX = {"mtriangle": "m", "htriangle": "h", "chpoly": "ch"}


def _specialization_cases(formula):
    """(detail, lhs, rhs) for the specializations of each M-triangle in
    ``formula``, and ch(1) = 0 alongside."""
    core = Q * T - T + 1
    for (m, n), poly in formula.items():
        yield f"M(1,t) at {(m, n)}", poly.subs_q(1), BivarPoly.constant(1)
        yield f"M(q,1) at {(m, n)}", poly.subs_t(1), Q ** (m + n)
        if n == 0:
            yield f"M(q,t) at n=0 at {(m, n)}", poly, core**m
        if m + n >= 1:
            yield (
                f"ch(1) at {(m, n)}",
                triangles.char_poly_formula(m, n).subs_q(1),
                BivarPoly(),
            )


def run_methods_suite(max_m=BRUTE_BOUND, max_n=BRUTE_BOUND, series_max=SERIES_BOUND):
    """Cross-validate every computation route against the brute-force
    route of its kind, then the series and the specializations."""
    # refuse before any work when the largest lattice is above the cap
    check_size(max_m, max_n, triangles.BRUTE_SIZE_CAP)
    verdicts = []
    for m in range(max_m + 1):
        for n in range(max_n + 1):
            brute = {
                kind: triangles.compute(kind, m, n, "brute")
                for kind in triangles.METHODS
            }
            for kind, method in triangles.ROUTES:
                # The series route gets its own verdict, series-vs-formula,
                # over the larger series_max square.
                if method == "brute" or (kind, method) == ("mtriangle", "series"):
                    continue
                verdicts.append(
                    _first_failure(
                        f"{_KIND_PREFIX[kind]}-brute-vs-{method}",
                        (m, n),
                        [("", brute[kind], triangles.compute(kind, m, n, method))],
                    )
                )
            verdicts.append(
                _first_failure(
                    "h-rank-generating",
                    (m, n),
                    [("", brute["htriangle"].subs_t(1), triangles.rank_generating_poly(m, n))],
                )
            )

    series = triangles.m_series(series_max, series_max)
    formula = {
        (m, n): triangles.m_triangle_formula(m, n)
        for m in range(series_max + 1)
        for n in range(series_max + 1)
    }
    square = (series_max, series_max)
    verdicts.append(
        _first_failure(
            "series-vs-formula",
            square,
            ((f"at {mn}", series.coefficient(*mn), poly) for mn, poly in formula.items()),
        )
    )
    verdicts.append(_first_failure("specializations", square, _specialization_cases(formula)))

    # which denominator cross term gives the brute-force M-triangle
    adjudication = triangles.adjudicate_series_cross_term()
    minus = adjudication[triangles.CROSS_TERM_Q_MINUS_1]
    plus = adjudication[triangles.CROSS_TERM_Q_PLUS_1]
    detail = (
        f"generating-function denominator cross term: -t(1-t)(q-1)xy matches "
        f"the brute-force M-triangle: {minus}; +t(1-t)(q+1)xy matches: {plus}"
    )
    square = triangles._ADJUDICATION_SQUARE
    verdicts.append(IdentityVerdict(ADJUDICATION, square, minus and not plus, detail=detail))
    return verdicts


# Each runner takes the bounds that were set and the series bound; an
# unset bound takes the runner's own default.
SUITES = {
    "identities": lambda bounds, series_max: run_identities_suite(**bounds),
    "relations": lambda bounds, series_max: run_relations_suite(**bounds),
    "methods": lambda bounds, series_max: run_methods_suite(
        **bounds, series_max=series_max
    ),
}


def run_suites(names, max_m=None, max_n=None, series_max=None):
    """Run the named suites; returns their verdicts, suite by suite.

    An unset (None) bound takes the suite's default: BRUTE_BOUND for the
    brute-force comparisons, FORMULA_BOUND for the identity and relation
    checks, SERIES_BOUND for the series checks.  No name, an unknown name,
    a bound that is neither None nor a nonnegative int (a bool is not
    one), or a methods suite whose largest brute-force lattice is above
    the cap, is refused before any suite runs: no request passes vacuously.
    """
    if not names:
        raise ValueError("no suite named")
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
    given = {"max_m": max_m, "max_n": max_n, "series_max": series_max}
    for key, value in given.items():
        if value is not None and (type(value) is not int or value < 0):
            raise ValueError(f"{key} must be None or a nonnegative int, got {value!r}")
    bounds = {key: value for key, value in given.items() if value is not None}
    series_max = bounds.pop("series_max", SERIES_BOUND)
    if "methods" in names:
        check_size(
            bounds.get("max_m", BRUTE_BOUND),
            bounds.get("max_n", BRUTE_BOUND),
            triangles.BRUTE_SIZE_CAP,
        )
    return [v for name in names for v in SUITES[name](bounds, series_max)]
