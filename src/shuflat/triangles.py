"""Characteristic polynomials, M-triangles, and H-triangles of shuffle
lattices, each computed by independent routes that cross-validate.

For a graded poset with a unique minimum, the reverse characteristic
polynomial is the sum of mu(min, v) q^rank(v) over all v, and the
M-triangle is the bivariate refinement sum of mu(u, v) q^rank(u)
t^rank(v) over all comparable pairs.  The H-triangle is the census of
q^in(u) t^in_indel(u) over all words, where the exponents count bubble
lower covers (total and of indel kind).

Routes implemented:

* brute force over the lattice: the Mobius recursion summed one rank
  level at a time by one walk, ``poset.mobius_levels``, up the indel
  covers that ``lattices.indel_covers`` derives.  Its degree-0 plane from
  the bottom of the Poset that ``build_shuffle_lattice`` makes of them is
  the Mobius row for ch, and its every degree, walked without a Poset,
  gives M (m_triangle_brute checks the grading with build_poset's check); and
  for H the census of bubble lower covers, which each word's letters
  give by kind;
* the interval decomposition: M(q,t) = sum over words u of
  (qt)^rank(u) times the product of the factor characteristic
  polynomials in t of the interval shape of u, the words counted per
  shape by a generating function instead of one by one:
  M = sum_j C(m,j) (qt)^(m-j-1) [x^j y^(n+1)] R, one column of the
  series R = 1/(1 - qt y F), F = sum of ch(b,g)(t) x^b y^g, whose
  denominator polyalg.geometric_denominator builds;
* closed formulas: ch(q) = sum_a C(m,a) C(n,a) (-q)^a (1-q)^(m+n-a),
  M(q,t) = sum_a C(m,a) C(n,a) t^a (1-t)^a (q-1)^a (qt-t+1)^(m+n-2a),
  H(q,t) = sum_a C(m,a) C(n,a) q^a (qt+1)^(m+n-2a);
  the ch and M routes write these as integer binomial sums,
  [q^k] ch = (-1)^k sum_a C(m,a) C(n,a) C(m+n-a, k-a) and, with
  s = t(q-1), [s^i t^j] M = (-1)^j sum_a C(m,a) C(n,a) C(m+n-2a, i-a) C(a,j),
  so they multiply no polynomials;
* a composition-grouped double sum for M (via binomial identities);
* coefficient extraction from the rational generating function
  1 / ((1 - x(qt-t+1))(1 - y(qt-t+1)) - t(1-t)(q-1)xy).

The denominator's cross term is easy to get wrong by a sign slip when
moving between the plain and negated variable conventions;
``adjudicate_series_cross_term`` confirms against the brute-force
oracle that -t(1-t)(q-1)xy is the correct term and that the
tempting +t(1-t)(q+1)xy variant is not.
"""

from __future__ import annotations

from collections import Counter
from math import comb

from .lattices import build_shuffle_lattice, degree_statistics, indel_covers
from .poset import NoBottom, NotGraded, Poset, check_covers_raise_rank, mobius_levels
from .polyalg import ONE, Q, T, BivarPoly, TruncatedSeries2, _powers, geometric_denominator
from .words import check_size, enumerate_shuffle_words, rank

#: Brute-force routes refuse lattices larger than this unless forced.
BRUTE_SIZE_CAP = 4000

CROSS_TERM_Q_MINUS_1 = "q_minus_1"  # cross term -t(1-t)(q-1)xy
CROSS_TERM_Q_PLUS_1 = "q_plus_1"  # cross term +t(1-t)(q+1)xy


# -- reverse characteristic polynomial --------------------------------


def char_poly_brute(p: Poset) -> BivarPoly:
    """sum of mu(bottom, v) q^rank(v); requires a unique minimum."""
    if p.bottom is None:
        raise NoBottom("characteristic polynomial needs a unique minimum")
    terms = {}
    for v, mu in p._mobius_row(p.bottom):
        key = (p.ranks[v], 0)
        terms[key] = terms.get(key, 0) + mu
    return BivarPoly(terms)


def char_poly_formula(m: int, n: int) -> BivarPoly:
    """Closed form sum_a C(m,a) C(n,a) (-q)^a (1-q)^(m+n-a).

    Expanding (1-q)^(m+n-a) binomially gives each coefficient as an
    integer sum, [q^k] ch = (-1)^k sum_a C(m,a) C(n,a) C(m+n-a, k-a),
    so no polynomial is multiplied.
    """
    d = m + n
    coeffs = [0] * (d + 1)
    for a in range(min(m, n) + 1):
        c = comb(m, a) * comb(n, a)
        for k in range(a, d + 1):
            coeffs[k] += c * comb(d - a, k - a)
    return BivarPoly({(k, 0): -c if k & 1 else c for k, c in enumerate(coeffs)})


# -- M-triangle --------------------------------------------------------


def m_triangle_brute(m, n, size_cap=BRUTE_SIZE_CAP) -> BivarPoly:
    """Mobius sum over all comparable pairs of the shuffle lattice.

    With g(v) = sum over u <= v of mu(u, v) q^rank(u), the M-triangle is
    the sum of g(v) t^rank(v).  ``poset.mobius_levels`` gives g one rank
    level at a time, at every q-degree, walking from the words of rank 0
    up the indel covers and reading the ranks that ``indel_covers``
    derives, by word number; brute ch walks the same way at degree 0
    alone.

    No Poset is built, and only the order relation is read, not the
    interval factorization.  The rank order is trusted only as far as it
    is checked: every element of walk level r must have rank r, and the
    walk must reach every word.  Else NotGraded names the first cover
    that does not raise the rank by one (poset.check_covers_raise_rank),
    or failing that an element of nonzero rank without lower covers.
    """
    upper, ranks = indel_covers(m, n, size_cap)
    terms = {}
    reached = 0
    walk = mobius_levels([v for v, r in enumerate(ranks) if not r], upper, m + n + 1)
    for r, (level, values) in enumerate(walk):
        if set(map(ranks.__getitem__, level)) != {r}:
            break
        reached += len(level)
        for d, column in enumerate(values):
            terms[(d, r)] = sum(column)
    else:
        if reached == len(ranks):
            return BivarPoly(terms)
    # if every cover raises the rank by one, a missed word of least rank
    # has no lower cover, so one of the two raises below
    check_covers_raise_rank(upper, ranks)
    covered = set().union(*upper)
    v = next(v for v, r in enumerate(ranks) if r and v not in covered)
    raise NotGraded(f"element {v} has no lower cover but rank {ranks[v]}")


def m_triangle_interval(m, n, size_cap=BRUTE_SIZE_CAP) -> BivarPoly:
    """M-triangle via the interval decomposition of [u, top], with the
    words counted by a generating function instead of one by one.

    A word u with j x-letters (C(m, j) choices) and k y-letters has rank
    m + k - j, and [u, top] is the product of the lattices
    Shuf(b_i, g_i) over its x-blocks b_0..b_k, which sum to j, and its
    y-gaps g_0..g_k, which sum to n - k; so u adds (qt)^(m+k-j) times
    the product of the factor characteristic polynomials in t.  With
    F = sum of ch(b, g)(t) x^b y^g over b <= m and g <= n, the words of
    given (j, k) add C(m, j) (qt)^(m+k-j) [x^j y^(n-k)] F^(k+1), and the
    sum over k is M = sum_j C(m, j) (qt)^(m-j-1) [x^j y^(n+1)] R with
    R = 1 / (1 - qt y F).  Every y-power of R carries a factor qt, so the
    j = m term divides exactly; a term that would not raises ValueError.

    The composition identity's builder, polyalg.geometric_denominator,
    makes 1 - qt y F; column n + 1 of R is one run of the packed series
    recurrence (TruncatedSeries2.reciprocal_column).  The route shares that
    plumbing with the series route, and no M formula: besides it, the
    route reads only the decomposition and the factors ch(b, g), from
    char_poly_formula.  It reads no words, but keeps the word cap of its
    ROUTES entry.
    """
    check_size(m, n, size_cap)
    factors = [[char_poly_formula(b, g).swap_vars() for g in range(n + 1)] for b in range(m + 1)]
    column = geometric_denominator(factors, n + 1).reciprocal_column()
    terms = {}
    for j, cell in enumerate(column):
        c, shift = comb(m, j), m - j - 1
        for (dq, dt), value in cell._terms.items():
            key = (dq + shift, dt + shift)
            if key[0] < 0 or key[1] < 0:
                raise ValueError(f"(qt)^{shift} times q^{dq}*t^{dt} leaves a negative exponent")
            terms[key] = terms.get(key, 0) + c * value
    return BivarPoly(terms)


def m_triangle_formula(m: int, n: int) -> BivarPoly:
    """Closed form sum_a C(m,a) C(n,a) t^a (1-t)^a (q-1)^a (qt-t+1)^(m+n-2a).

    With s = t(q-1) the summand is C(m,a) C(n,a) s^a (1-t)^a (1+s)^(m+n-2a),
    so [s^i t^j] M = (-1)^j sum_a C(m,a) C(n,a) C(m+n-2a, i-a) C(a,j), and
    s^i t^j = sum_k C(i,k) (-1)^(i-k) q^k t^(i+j).  The coefficients are
    integer sums; no polynomial is multiplied.
    """
    d = m + n
    # by_s[i][j] = [s^i t^j] M
    by_s = [[0] * (min(m, n) + 1) for _ in range(d + 1)]
    for a in range(min(m, n) + 1):
        c = comb(m, a) * comb(n, a)
        for i in range(a, d - a + 1):
            ci = c * comb(d - 2 * a, i - a)
            row = by_s[i]
            for j in range(a + 1):
                row[j] += ci * comb(a, j)
    terms = {}
    for i, row in enumerate(by_s):
        # the coefficients of (q-1)^i
        expand = [-comb(i, k) if (i - k) & 1 else comb(i, k) for k in range(i + 1)]
        for j, c in enumerate(row):
            if not c:
                continue
            if j & 1:
                c = -c
            for k, e in enumerate(expand):
                key = (k, i + j)
                terms[key] = terms.get(key, 0) + c * e
    return BivarPoly(terms)


def m_triangle_composition_sum(m: int, n: int) -> BivarPoly:
    """M-triangle from the composition-grouped double sum.

    N(q,t) = sum over j <= m, k <= n of
    C(n,k) C(m,j) (qt)^(k+j) (t+1)^(n-k) *
    sum_l C(m-j+k, l+k) C(n+l, l) t^l
    equals the M-triangle with both variables negated.  Expanding
    (t+1)^(n-k) binomially, each (j, k, e, l) adds
    C(n,k) C(m,j) C(n-k,e) C(m-j+k, l+k) C(n+l, l) at q^(j+k) t^(j+k+e+l),
    so the coefficients are integer sums; negating the variables back
    multiplies [q^s t^(s+d)] by (-1)^d.
    """
    # acc[s][d]: [q^s t^(s+d)] N
    acc = [[0] * (m + n + 1) for _ in range(m + n + 1)]
    for k in range(n + 1):
        t_plus_1 = [comb(n - k, e) for e in range(n - k + 1)]
        for j in range(m + 1):
            c = comb(n, k) * comb(m, j)
            inner = [c * comb(m - j + k, l + k) * comb(n + l, l) for l in range(m - j + 1)]
            row = acc[j + k]
            for e, b in enumerate(t_plus_1):
                for d, a in enumerate(inner, e):  # d = e + l
                    row[d] += b * a
    return BivarPoly({
        (s, s + d): -c if d & 1 else c
        for s, row in enumerate(acc)
        for d, c in enumerate(row)
    })


def series_denominator_terms(cross_term=CROSS_TERM_Q_MINUS_1):
    """Sparse (x,y)-term map of the generating-function denominator.

    With A = qt - t + 1 the denominator is (1 - xA)(1 - yA) + cross*xy,
    where the cross term is -t(1-t)(q-1) or +t(1-t)(q+1) depending on
    the requested rendering.
    """
    core = Q * T - T + 1
    if cross_term == CROSS_TERM_Q_MINUS_1:
        cross = -(T * (ONE - T) * (Q - 1))
    elif cross_term == CROSS_TERM_Q_PLUS_1:
        cross = T * (ONE - T) * (Q + 1)
    else:
        raise ValueError(f"unknown cross term variant {cross_term!r}")
    return {
        (0, 0): ONE,
        (1, 0): -core,
        (0, 1): -core,
        (1, 1): core * core + cross,
    }


def m_series(max_m, max_n, cross_term=CROSS_TERM_Q_MINUS_1, reader="decode") -> TruncatedSeries2:
    """Truncated series whose (m, n) coefficient is the M-triangle of
    Shuf(m, n), extracted from the rational generating function; each
    cell as ``reader`` reads it (see TruncatedSeries2.reciprocal)."""
    return TruncatedSeries2.from_terms(series_denominator_terms(cross_term), max_m, max_n).reciprocal(reader)


def m_series_coefficient(m, n) -> BivarPoly:
    """m_series(m, n).coefficient(m, n), with only that cell unpacked."""
    return TruncatedSeries2.from_terms(series_denominator_terms(), m, n).reciprocal_coefficient()


#: (max_m, max_n) of the square that adjudicate_series_cross_term checks
_ADJUDICATION_SQUARE = (2, 2)


def adjudicate_series_cross_term():
    """Which denominator cross term reproduces the brute-force M-triangle.

    Returns {variant: bool} after comparing every series coefficient up
    to _ADJUDICATION_SQUARE with m_triangle_brute.
    """
    max_m, max_n = _ADJUDICATION_SQUARE
    brute = {
        (i, j): m_triangle_brute(i, j)
        for i in range(max_m + 1)
        for j in range(max_n + 1)
    }
    verdicts = {}
    for variant in (CROSS_TERM_Q_MINUS_1, CROSS_TERM_Q_PLUS_1):
        series = m_series(max_m, max_n, variant)
        verdicts[variant] = all(
            series.coefficient(i, j) == brute[(i, j)]
            for i in range(max_m + 1)
            for j in range(max_n + 1)
        )
    return verdicts


# -- H-triangle --------------------------------------------------------


def h_triangle_brute(m, n, size_cap=BRUTE_SIZE_CAP) -> BivarPoly:
    """Census sum of q^in(u) t^in_indel(u) over the words, the exponents
    read from each word's bubble lower covers (``degree_statistics``)."""
    return BivarPoly(Counter(
        (triple.in_total, triple.in_indel) for triple in degree_statistics(m, n, size_cap).values()
    ))


def h_triangle_formula(m: int, n: int) -> BivarPoly:
    """Closed form sum_a C(m,a) C(n,a) q^a (qt+1)^(m+n-2a), the powers of
    qt+1 read from one table made by successive products."""
    core = Q * T + 1
    core_pow = _powers(ONE, core, m + n)
    acc = BivarPoly()
    for a in range(min(m, n) + 1):
        c = comb(m, a) * comb(n, a)
        acc = acc + c * Q**a * core_pow[m + n - 2 * a]
    return acc


def rank_generating_poly(m, n, size_cap=BRUTE_SIZE_CAP) -> BivarPoly:
    """sum of q^rank(u) over all shuffle words."""
    return BivarPoly(Counter((rank(u, m), 0) for u in enumerate_shuffle_words(m, n, size_cap)))


# -- dispatch ----------------------------------------------------------

# Every route, keyed by (kind, method) in the order the command line lists
# them.  Each entry is (cap, route): route takes (m, n, size_cap), and cap
# is the default word cap of a route that enumerates the lattice, and of
# interval, which reads no words but keeps it, None for a route that reads
# no cap.  The routes name the route functions instead of holding them, so
# a function replaced on this module (patched in a test, wrapped by a
# tracer) is the one that runs.
ROUTES = {
    ("mtriangle", "brute"): (BRUTE_SIZE_CAP, lambda m, n, cap: m_triangle_brute(m, n, cap)),
    ("mtriangle", "interval"): (BRUTE_SIZE_CAP, lambda m, n, cap: m_triangle_interval(m, n, cap)),
    ("mtriangle", "formula"): (None, lambda m, n, cap: m_triangle_formula(m, n)),
    ("mtriangle", "compsum"): (None, lambda m, n, cap: m_triangle_composition_sum(m, n)),
    ("mtriangle", "series"): (None, lambda m, n, cap: m_series_coefficient(m, n)),
    ("htriangle", "brute"): (BRUTE_SIZE_CAP, lambda m, n, cap: h_triangle_brute(m, n, cap)),
    ("htriangle", "formula"): (None, lambda m, n, cap: h_triangle_formula(m, n)),
    ("chpoly", "brute"): (BRUTE_SIZE_CAP, lambda m, n, cap: char_poly_brute(build_shuffle_lattice(m, n, cap))),
    ("chpoly", "formula"): (None, lambda m, n, cap: char_poly_formula(m, n)),
}

#: kind -> its methods, in table order
METHODS = {kind: tuple(meth for k, meth in ROUTES if k == kind) for kind, _ in ROUTES}
M_METHODS = METHODS["mtriangle"]
H_METHODS = METHODS["htriangle"]
CH_METHODS = METHODS["chpoly"]


def compute(kind, m, n, method, size_cap=None) -> BivarPoly:
    """The ``kind`` polynomial of Shuf(m, n) by the route ``method``.

    A ``size_cap`` of None gives the route the cap of its ROUTES entry.
    Unknown kinds and methods and sizes that are not nonnegative ints (a
    bool too) raise ValueError before any route runs: all see valid input.
    """
    if kind not in METHODS:
        raise ValueError(f"unknown kind {kind!r}")
    if (kind, method) not in ROUTES:
        raise ValueError(f"unknown {kind} method {method!r}")
    if type(m) is not int or type(n) is not int or m < 0 or n < 0:
        raise ValueError(f"sizes must be nonnegative ints, got ({m!r}, {n!r})")
    cap, route = ROUTES[(kind, method)]
    return route(m, n, cap if size_cap is None else size_cap)
