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

The reciprocal runs that recurrence on plain ints.  Evaluation at
q = 2^B, t = 2^(B*W) is a ring homomorphism from Z[q, t] to Z, so the
values of the cells obey the same recurrence, and multiplying a value
by the term c*q^a*t^b is one shift-add, c * (v << B*(a + b*W)).  The
map is injective on the polynomials whose q-degrees are below W and
whose coefficients are below 2^(B-1) in absolute value: after adding
2^(B-1) to every B-bit slot, slot a + b*W holds the coefficient of
q^a t^b plus 2^(B-1), with no carry between slots.  Both conditions are
met by bounds taken before the recurrence: the q-degree of a cell is at
most the largest q-degree of D[i][j] plus that of S[m-i][n-j] over the
terms of the recurrence, and likewise for t, and its l1 norm is at most
the sum of |D[i][j]|_1 * |S[m-i][n-j]|_1.  W is the largest q-degree
bound plus 1, and B is bit_length(largest norm bound) + 1 rounded up to
whole bytes, so each cell is unpacked with one to_bytes call.
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

        S[m][n] is [m = n = 0] minus the sum of D[i][j] * S[m-i][n-j]
        over the nonconstant coefficients D[i][j] of self.  It runs on
        the values at q = 2^B, t = 2^(B*W), a ring homomorphism that the
        module docstring explains.  A first pass bounds, for every cell,
        the q-degree, the t-degree and the l1 norm, the last by the sum
        of |D[i][j]|_1 * |S[m-i][n-j]|_1.  The q-stride W is the largest
        q-degree bound plus 1, and the slot width B is
        8 * ceil((bit_length(largest norm bound) + 1) / 8) bits, so every
        coefficient is below 2^(B-1) in absolute value.  Each D[i][j] * S
        is one shift-add per term of D[i][j], and each cell is unpacked
        once, inside its degree box.

        Input contract: the constant coefficient must be exactly 1
        (else NonUnitConstantTerm).  The other cells are BivarPoly with
        integer coefficients or plain ints, which stand for constants.
        A coefficient with a negative exponent raises ValueError before
        any work.
        """
        if self.coeff[0][0] != ONE:
            raise NonUnitConstantTerm(
                f"constant coefficient is {self.coeff[0][0]}, expected 1"
            )
        rows, cols = self.max_x + 1, self.max_y + 1
        nonconstant = []  # (i, j, terms, q-degree, t-degree, l1 norm)
        for i in range(rows):
            for j in range(cols):
                cell = self.coeff[i][j]
                if (i, j) == (0, 0) or not cell:
                    continue
                terms = {(0, 0): cell} if isinstance(cell, int) else cell._terms
                if any(dq < 0 or dt < 0 for dq, dt in terms):
                    raise ValueError(
                        f"coefficient of x^{i} y^{j} has a negative exponent: {cell}"
                    )
                nonconstant.append((
                    i, j, terms,
                    max(dq for dq, _ in terms),
                    max(dt for _, dt in terms),
                    sum(abs(c) for c in terms.values()),
                ))

        # Bounds; a cell with norm bound 0 is zero.
        deg_q = [[0] * cols for _ in range(rows)]
        deg_t = [[0] * cols for _ in range(rows)]
        norm = [[0] * cols for _ in range(rows)]
        norm[0][0] = 1
        for m in range(rows):
            for n in range(cols):
                if m == n == 0:
                    continue
                bq = bt = l1 = 0
                for i, j, _, dq, dt, d_norm in nonconstant:
                    if i <= m and j <= n and norm[m - i][n - j]:
                        l1 += d_norm * norm[m - i][n - j]
                        bq = max(bq, dq + deg_q[m - i][n - j])
                        bt = max(bt, dt + deg_t[m - i][n - j])
                deg_q[m][n], deg_t[m][n], norm[m][n] = bq, bt, l1
        width = max(map(max, deg_q)) + 1
        size = (max(map(max, norm)).bit_length() + 8) // 8  # bytes per slot
        bits = 8 * size

        # Unpacking: biasing every slot by 2^(bits-1) makes each one an
        # unsigned digit, read back inside the cell's degree box.
        half = 1 << (bits - 1)
        empty = bytes(size - 1) + b"\x80"  # the biased slot of a zero coefficient
        top_t = max(map(max, deg_t))
        slots = (top_t + 1) * width
        bias = int.from_bytes(empty * slots, "little")
        keys = [[(dq, dt) for dq in range(width)] for dt in range(top_t + 1)]
        from_bytes = int.from_bytes
        packed = [[0] * cols for _ in range(rows)]
        packed[0][0] = 1
        out = [[ZERO] * cols for _ in range(rows)]

        def unpack(m):
            row = packed[m]
            for n in range(cols):
                value, row[n] = row[n], 0
                if not value:
                    continue
                cell_slots = (deg_t[m][n] + 1) * width
                buf = (value + (bias >> bits * (slots - cell_slots))).to_bytes(
                    cell_slots * size, "little"
                )
                box = (deg_q[m][n] + 1) * size
                terms = {}
                for dt in range(deg_t[m][n] + 1):
                    start = dt * width * size
                    chunks = [buf[k : k + size] for k in range(start, start + box, size)]
                    for key, chunk in zip(keys[dt], chunks):
                        if chunk != empty:
                            terms[key] = from_bytes(chunk, "little") - half
                poly = BivarPoly.__new__(BivarPoly)
                poly._terms = terms
                out[m][n] = poly

        # The recurrence on the values at q = 2^bits, t = 2^(bits*width).
        # Row m - reach is unpacked, and its ints freed, as soon as row m
        # is done, since no later row reads it.
        shifts = [
            (i, j, [(bits * (dq + dt * width), -c) for (dq, dt), c in terms.items()])
            for i, j, terms, _, _, _ in nonconstant
        ]
        reach = max((i for i, _, _ in shifts), default=0)
        for m in range(rows):
            for n in range(cols):
                if not norm[m][n] or m == n == 0:
                    continue
                acc = 0
                for i, j, pairs in shifts:
                    if i <= m and j <= n:
                        s = packed[m - i][n - j]
                        if s:
                            for shift, c in pairs:
                                if c == 1:
                                    acc += s << shift
                                elif c == -1:
                                    acc -= s << shift
                                else:
                                    acc += c * (s << shift)
                packed[m][n] = acc
            if m >= reach:
                unpack(m - reach)
        for m in range(max(rows - reach, 0), rows):
            unpack(m)
        return TruncatedSeries2(self.max_x, self.max_y, out)


def series_reciprocal(terms, max_x, max_y) -> TruncatedSeries2:
    """Reciprocal of the series given by a sparse term map; see
    :meth:`TruncatedSeries2.reciprocal`."""
    return TruncatedSeries2.from_terms(terms, max_x, max_y).reciprocal()
