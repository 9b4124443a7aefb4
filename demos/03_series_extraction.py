#!/usr/bin/env python3
# Extracting the whole M-triangle family from one rational function.
#
# The two-variable generating function of the M-triangles is the
# reciprocal of
#
#     (1 - x(qt-t+1)) (1 - y(qt-t+1)) - t(1-t)(q-1) xy
#
# so a truncated series reciprocal recovers every M_{m,n} at once.

from shuflat.polyalg import ONE, Q, T, BivarPoly, TruncatedSeries2
from shuflat.triangles import (
    adjudicate_series_cross_term,
    m_series,
    m_triangle_formula,
)

core = Q * T - T + 1

series = m_series(4, 4)
print("series coefficients up to (2, 2):")
for i in range(3):
    for j in range(3):
        print(f"  x^{i} y^{j}: {series.coefficient(i, j)}")

ok = all(
    series.coefficient(i, j) == m_triangle_formula(i, j)
    for i in range(5)
    for j in range(5)
)
print("\ncoefficients match the closed formula up to (4,4):", ok)

# The x-margin is a plain geometric series in the core polynomial.
print("\nrow (m, 0) is core^m, core =", core)
for i in range(4):
    assert series.coefficient(i, 0) == core**i
print("checked through m = 3")

# The cross term invites a sign slip when switching between the plain
# and negated variable conventions; only one candidate survives contact
# with the brute-force Mobius computation.
verdicts = adjudicate_series_cross_term()
print("\ncross-term adjudication against the brute-force oracle:")
for variant, matches in verdicts.items():
    print(f"  {variant}: matches = {matches}")

# The negated-variable family has its own rational form with core
# qt + t + 1, recovered the same way.
neg_core = Q * T + T + 1
neg_terms = {
    (0, 0): ONE,
    (1, 0): -neg_core,
    (0, 1): -neg_core,
    (1, 1): neg_core * neg_core - T * (T + 1) * (Q + 1),
}
neg_series = TruncatedSeries2.from_terms(neg_terms, 3, 3).reciprocal()


def negated(p):
    """p(-q, -t): the sign of each term flips with its total degree."""
    return BivarPoly({(dq, dt): -c if (dq + dt) & 1 else c for (dq, dt), c in p.terms()})


ok = all(
    neg_series.coefficient(i, j) == negated(m_triangle_formula(i, j))
    for i in range(4)
    for j in range(4)
)
print("\nnegated-variable series matches M(-q,-t) up to (3,3):", ok)
