#!/usr/bin/env python3
# Exact verification of the composition identity and of the
# substitution relations between the triangles.

from fractions import Fraction
from math import comb

from shuflat.identities import (
    inner_sum_lhs,
    inner_sum_rhs,
    r_sum_sides,
    vandermonde_step,
    verify_char_from_h,
    verify_h_to_m,
)
from shuflat.triangles import h_triangle_formula, m_triangle_formula

# Weak compositions are the summation index of the identity's hard side.
# By stars and bars there are C(total + parts - 1, parts - 1) of them.
print("weak compositions of 4 into 3 parts: comb(4 + 2, 2) =", comb(4 + 2, 2))

# The identity: a sum over pairs of compositions of products of small
# binomial factors collapses to a single closed form.  The sum is the
# coefficient [x^m y^n] F^(k+1) of a series power, F = sum f(e,l) x^e y^l,
# and is computed that way.
m, n, k = 4, 3, 2
lhs = inner_sum_lhs(m, n, k)
rhs = inner_sum_rhs(m, n, k)
print(f"\ncomposition identity at (m,n,k)=({m},{n},{k}):")
print("  sum over composition pairs:", lhs)
print("  closed form              :", rhs)
print("  equal:", lhs == rhs)

# Its two sub-steps: the Vandermonde rewrite of one factor, and the
# three-binomial sum the double count reduces to.
f_lhs, f_rhs = vandermonde_step(3, 2)
print("\nVandermonde factor rewrite at (3,2):", f_lhs == f_rhs, "->", f_lhs)
s_lhs, s_rhs = r_sum_sides(5, 4, 2, 3)
print("three-binomial sum at (5,4,2,3):", s_lhs, "=", s_rhs)

# Substitution relations: multiplied by (q-1)^(m+n), both sides of each
# relation are polynomials, so each is checked as one exact polynomial
# equality.
print("\nsubstitution relations:")
for mm, nn in ((2, 2), (3, 1), (4, 3)):
    a = verify_h_to_m(mm, nn)
    b = verify_char_from_h(mm, nn)
    print(f"  (m,n)=({mm},{nn}): M from H: {a.passed}, ch from H: {b.passed}")

# The first relation at one rational point, worked in the open:
mm, nn, q0, t0 = 2, 1, 3, 2
m_val = m_triangle_formula(mm, nn).evaluate(q0, t0)
h_val = h_triangle_formula(mm, nn).evaluate(
    Fraction(t0 * (q0 - 1), 1 - t0), Fraction(q0, q0 - 1)
)
print(f"\nat (q,t)=({q0},{t0}) with (m,n)=({mm},{nn}):")
print("  M(q,t)                        =", m_val)
print("  (1-t)^(m+n) H(t(q-1)/(1-t), q/(q-1)) =", (1 - t0) ** (mm + nn) * h_val)
