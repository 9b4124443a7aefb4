"""Exact sparse polynomials in (q, t) and truncated power series in (x, y).

Coefficients are Python ints throughout, so nothing ever overflows;
rational evaluation uses :class:`fractions.Fraction`.  A BivarPoly is a
canonical term map (no zero coefficients) and compares by exact term
equality.  Rendering and JSON export list terms by falling total
degree, then falling t-degree, e.g.::

    q^2*t^2 - 3*q*t^2 + 2*t^2 + 3*q*t - 3*t + 1

A TruncatedSeries2 is a rectangular array of BivarPoly coefficients
indexed by the (x, y) degrees.  Its reciprocal is computed by the
triangular recurrence and is the workhorse for extracting polynomial
families from rational generating functions.
"""

from __future__ import annotations


class NonUnitConstantTerm(ValueError):
    """Series reciprocal needs constant coefficient exactly 1."""


def _term_key(item):
    (dq, dt), _ = item
    return (-(dq + dt), -dt)


class BivarPoly:
    """Sparse polynomial in q and t with exact integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (dq, dt), coeff in terms.items():
                if coeff:
                    clean[(int(dq), int(dt))] = coeff
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, dq, dt, coeff=1):
        return cls({(dq, dt): coeff})

    # -- structure ----------------------------------------------------

    def terms(self):
        """Term list [((deg_q, deg_t), coeff)] in canonical order."""
        return sorted(self._terms.items(), key=_term_key)

    def is_zero(self):
        return not self._terms

    def coefficient(self, dq, dt):
        return self._terms.get((dq, dt), 0)

    def __eq__(self, other):
        if isinstance(other, int):
            other = BivarPoly.constant(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = BivarPoly.constant(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            new = terms.get(key, 0) + coeff
            if new:
                terms[key] = new
            elif key in terms:
                del terms[key]
        out = BivarPoly.__new__(BivarPoly)
        out._terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = BivarPoly.__new__(BivarPoly)
        out._terms = {key: -coeff for key, coeff in self._terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            other = BivarPoly.constant(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return BivarPoly()
            out = BivarPoly.__new__(BivarPoly)
            out._terms = {k: other * c for k, c in self._terms.items()}
            return out
        if not isinstance(other, BivarPoly):
            return NotImplemented
        terms = {}
        for (aq, at), ac in self._terms.items():
            for (bq, bt), bc in other._terms.items():
                key = (aq + bq, at + bt)
                new = terms.get(key, 0) + ac * bc
                if new:
                    terms[key] = new
                elif key in terms:
                    del terms[key]
        out = BivarPoly.__new__(BivarPoly)
        out._terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = BivarPoly.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- substitutions and evaluation -----------------------------------

    def negate_vars(self):
        """Substitute q -> -q and t -> -t (an involution)."""
        out = BivarPoly.__new__(BivarPoly)
        out._terms = {
            key: (-coeff if (key[0] + key[1]) & 1 else coeff)
            for key, coeff in self._terms.items()
        }
        return out

    def swap_vars(self):
        """Exchange the roles of q and t."""
        out = BivarPoly.__new__(BivarPoly)
        out._terms = {(dt, dq): coeff for (dq, dt), coeff in self._terms.items()}
        return out

    def subs_q(self, value):
        """Substitute an exact value for q, leaving a polynomial in t."""
        terms = {}
        for (dq, dt), coeff in self._terms.items():
            key = (0, dt)
            terms[key] = terms.get(key, 0) + coeff * value**dq
        return BivarPoly(terms)

    def subs_t(self, value):
        terms = {}
        for (dq, dt), coeff in self._terms.items():
            key = (dq, 0)
            terms[key] = terms.get(key, 0) + coeff * value**dt
        return BivarPoly(terms)

    def evaluate(self, q_value, t_value):
        """Exact value at (q_value, t_value); Fractions stay Fractions."""
        total = 0
        for (dq, dt), coeff in self._terms.items():
            total += coeff * q_value**dq * t_value**dt
        return total

    # -- rendering ------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for (dq, dt), coeff in self.terms():
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

    def __repr__(self):
        return f"BivarPoly({self})"

    def to_json_terms(self):
        """Canonical JSON form: [deg_q, deg_t, coefficient-as-string] rows."""
        return [[dq, dt, str(coeff)] for (dq, dt), coeff in self.terms()]


ZERO = BivarPoly()
ONE = BivarPoly.constant(1)
Q = BivarPoly.monomial(1, 0)
T = BivarPoly.monomial(0, 1)


class TruncatedSeries2:
    """Power series in x and y truncated to a (max_x, max_y) rectangle,
    with BivarPoly coefficients."""

    __slots__ = ("max_x", "max_y", "coeff")

    def __init__(self, max_x, max_y, coeff):
        self.max_x = max_x
        self.max_y = max_y
        self.coeff = coeff
        if len(coeff) != max_x + 1 or any(len(row) != max_y + 1 for row in coeff):
            raise ValueError(f"coefficients must form a {max_x + 1} x {max_y + 1} grid")

    @classmethod
    def from_terms(cls, terms, max_x, max_y):
        """Series from a sparse {(x_deg, y_deg): BivarPoly or int} map."""
        coeff = [[ZERO for _ in range(max_y + 1)] for _ in range(max_x + 1)]
        for (i, j), value in terms.items():
            if i <= max_x and j <= max_y:
                if isinstance(value, int):
                    value = BivarPoly.constant(value)
                coeff[i][j] = value
        return cls(max_x, max_y, coeff)

    def coefficient(self, i, j) -> BivarPoly:
        return self.coeff[i][j]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries2):
            return NotImplemented
        return (
            self.max_x == other.max_x
            and self.max_y == other.max_y
            and self.coeff == other.coeff
        )

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries2):
            return NotImplemented
        max_x = min(self.max_x, other.max_x)
        max_y = min(self.max_y, other.max_y)
        coeff = []
        for i in range(max_x + 1):
            row = []
            for j in range(max_y + 1):
                acc = ZERO
                for a in range(i + 1):
                    for b in range(j + 1):
                        part = self.coeff[a][b]
                        other_part = other.coeff[i - a][j - b]
                        if part and other_part:
                            acc = acc + part * other_part
                row.append(acc)
            coeff.append(row)
        return TruncatedSeries2(max_x, max_y, coeff)

    def reciprocal(self) -> "TruncatedSeries2":
        """The series S with self * S = 1 up to the truncation order.

        Uses the triangular recurrence S[m][n] = [m = n = 0] minus the
        sum of D[i][j] * S[m-i][n-j] over (i, j) != (0, 0).  Requires
        the constant coefficient to be exactly 1.
        """
        if self.coeff[0][0] != ONE:
            raise NonUnitConstantTerm(
                f"constant coefficient is {self.coeff[0][0]}, expected 1"
            )
        nonconstant = [
            (i, j, self.coeff[i][j])
            for i in range(self.max_x + 1)
            for j in range(self.max_y + 1)
            if (i, j) != (0, 0) and self.coeff[i][j]
        ]
        out = [[ZERO for _ in range(self.max_y + 1)] for _ in range(self.max_x + 1)]
        out[0][0] = ONE
        for m in range(self.max_x + 1):
            for n in range(self.max_y + 1):
                if (m, n) == (0, 0):
                    continue
                acc = ZERO
                for i, j, d in nonconstant:
                    if i <= m and j <= n:
                        s = out[m - i][n - j]
                        if s:
                            acc = acc + d * s
                out[m][n] = -acc
        return TruncatedSeries2(self.max_x, self.max_y, out)


def series_reciprocal(terms, max_x, max_y) -> TruncatedSeries2:
    """Reciprocal of the series given by a sparse term map; see
    :meth:`TruncatedSeries2.reciprocal`."""
    return TruncatedSeries2.from_terms(terms, max_x, max_y).reciprocal()
