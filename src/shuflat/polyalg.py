"""Exact sparse polynomials in (q, t) and truncated power series in (x, y).

Coefficients are Python ints throughout, so nothing ever overflows;
rational evaluation uses :class:`fractions.Fraction`.  A BivarPoly is a
canonical term map (no zero coefficients, and no coefficient or
exponent that is not an int) and compares by exact term equality.
Rendering and JSON export list terms by falling total degree, then
falling t-degree, e.g.::

    q^2*t^2 - 3*q*t^2 + 2*t^2 + 3*q*t - 3*t + 1

A TruncatedSeries2 is a rectangular array of BivarPoly coefficients
indexed by the (x, y) degrees.  Its reciprocal is computed by the
triangular recurrence and is the workhorse for extracting polynomial
families from rational generating functions.

The reciprocal runs that recurrence on plain ints, every cell replaced
by its value at one evaluation point, its rows along x; a tall series
goes through its transpose.  TruncatedSeries2._packed_rows states how
the cells are bounded, and which cells a denominator symmetric on the
square leaves out when the rows are no longer than the columns; _Slots
states the slot layout that the bounds set.

One recurrence serves every reader.  reciprocal() reads every row as
it is done, a mirror pair once, with the cell reader it is given: a
BivarPoly by default, or the cell's text or JSON terms written
straight from its packed int, with no BivarPoly and no sort (shuflat
series).  The text reader and str() share one term formatter.  Rows
are dropped as soon as no later row reads them: reciprocal_coefficient()
holds no cell beyond those rows and decodes the final row's last cell,
and reciprocal_column() keeps the last cell of each row and decodes
those.  geometric_denominator() builds the 1 - qt y F that the interval
route and the composition identity invert; identities checks the M<->H
substitution relations in the same layout.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import sub


class NonUnitConstantTerm(ValueError):
    """Series reciprocal needs constant coefficient exactly 1."""


class _Monomials(dict):
    """(deg_q, deg_t) -> "*q^a*t^b", "" for the constant.  An entry is made
    on first use and depends on its key alone, so one table serves every
    polynomial."""

    def __missing__(self, key):
        dq, dt = key
        name = ""
        if dq:
            name += "*q" if dq == 1 else f"*q^{dq}"
        if dt:
            name += "*t" if dt == 1 else f"*t^{dt}"
        self[key] = name
        return name


_MONOMIALS = _Monomials()


def _ordered(terms):
    """(total degree, deg_t, deg_q, coeff) rows of a term map in canonical
    order: falling total degree, then falling t-degree.  The first two
    fields fix the term, so the sort never compares coefficients."""
    return sorted([(dq + dt, dt, dq, c) for (dq, dt), c in terms.items()], reverse=True)


def _render(rows):
    """The text of (coefficient, monomial name) rows in output order, each
    coefficient nonzero; "0" for no rows.  str() of a BivarPoly and the
    series text reader both write their terms here."""
    out = "".join([
        f" + {c}{name}" if c > 1
        else f" - {-c}{name}" if c < -1
        else (" + " if c > 0 else " - ") + (name[1:] or "1")
        for c, name in rows
    ])
    if not out:
        return "0"
    return out[3:] if out[1] == "+" else "-" + out[3:]


class BivarPoly:
    """Sparse polynomial in q and t with exact integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (dq, dt), coeff in terms.items():
                if type(dq) is not int or type(dt) is not int:
                    raise ValueError(f"exponents must be ints, got {(dq, dt)!r}")
                if type(coeff) is not int:
                    raise ValueError(f"coefficients must be ints, got {coeff!r}")
                if coeff:
                    clean[dq, dt] = coeff
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, dq, dt, coeff=1):
        return cls({(dq, dt): coeff})

    @classmethod
    def _of(cls, terms):
        """The polynomial of a term map that is already canonical, taken
        as it is, unchecked and uncopied."""
        poly = cls.__new__(cls)
        poly._terms = terms
        return poly

    # -- structure ----------------------------------------------------

    def terms(self):
        """Term list [((deg_q, deg_t), coeff)] in canonical order."""
        return [((dq, dt), c) for _, dt, dq, c in _ordered(self._terms)]

    def coefficient(self, dq, dt):
        return self._terms.get((dq, dt), 0)

    def __eq__(self, other):
        # a bool is no int here (BivarPoly refuses it), so it compares unequal
        if type(other) is int:
            other = BivarPoly.constant(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant (zero included) equals its int, so it hashes like it
        constant = self._terms.get((0, 0), 0)
        if len(self._terms) == (1 if constant else 0):
            return hash(constant)
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
        return BivarPoly._of(terms)

    __radd__ = __add__

    def __neg__(self):
        return BivarPoly._of({key: -coeff for key, coeff in self._terms.items()})

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
            other = BivarPoly.constant(other)
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
        return BivarPoly._of(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if type(exponent) is not int or exponent < 0:
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

    def swap_vars(self):
        """Exchange the roles of q and t."""
        return BivarPoly._of({(dt, dq): coeff for (dq, dt), coeff in self._terms.items()})

    def subs_q(self, value):
        """Substitute an int for q, leaving a polynomial in t.  Any other
        value, a Fraction or a bool, raises ValueError, as a coefficient
        that is no int does, and so does a negative power of q."""
        if type(value) is not int:
            raise ValueError(f"coefficients must be ints, got {value!r}")
        if any(dq < 0 for dq, _ in self._terms):
            raise ValueError(f"cannot substitute into a negative exponent, got {min(self._terms)[0]}")
        terms = {}
        for (dq, dt), coeff in self._terms.items():
            key = (0, dt)
            terms[key] = terms.get(key, 0) + coeff * value**dq
        return BivarPoly(terms)

    def subs_t(self, value):
        """Substitute an int for t, leaving a polynomial in q, as subs_q."""
        return self.swap_vars().subs_q(value).swap_vars()

    def evaluate(self, q_value, t_value):
        """Exact value at (q_value, t_value); Fractions stay Fractions."""
        total = 0
        for (dq, dt), coeff in self._terms.items():
            total += coeff * q_value**dq * t_value**dt
        return total

    # -- rendering ------------------------------------------------------

    def __str__(self):
        names = _MONOMIALS
        return _render([(c, names[dq, dt]) for _, dt, dq, c in _ordered(self._terms)])

    def __repr__(self):
        return f"BivarPoly({self})"

    def to_json_terms(self):
        """Canonical JSON form: [deg_q, deg_t, coefficient-as-string] rows."""
        return [[dq, dt, str(c)] for _, dt, dq, c in _ordered(self._terms)]


ZERO = BivarPoly()
ONE = BivarPoly.constant(1)
Q = BivarPoly.monomial(1, 0)
T = BivarPoly.monomial(0, 1)


class TruncatedSeries2:
    """Power series in x and y truncated to a (max_x, max_y) rectangle,
    with BivarPoly coefficients: the grid ``coeff``, by default all zero.
    A truncation order that is not a nonnegative int (a bool is not one)
    raises ValueError."""

    __slots__ = ("max_x", "max_y", "coeff")

    def __init__(self, max_x, max_y, coeff=None):
        if type(max_x) is not int or type(max_y) is not int or max_x < 0 or max_y < 0:
            raise ValueError(f"truncation orders must be nonnegative ints, got {max_x!r}, {max_y!r}")
        if coeff is None:
            coeff = [[ZERO] * (max_y + 1) for _ in range(max_x + 1)]
        if len(coeff) != max_x + 1 or any(len(row) != max_y + 1 for row in coeff):
            raise ValueError(f"coefficients must form a {max_x + 1} x {max_y + 1} grid")
        self.max_x = max_x
        self.max_y = max_y
        self.coeff = coeff

    @classmethod
    def from_terms(cls, terms, max_x, max_y):
        """Series from a sparse {(x_deg, y_deg): BivarPoly or int} map; keys
        beyond the order are dropped, and a negative degree raises ValueError."""
        for key in terms:
            if min(key) < 0:
                raise ValueError(f"series degrees must be nonnegative, got {key!r}")
        series = cls(max_x, max_y)
        for (i, j), value in terms.items():
            if i <= max_x and j <= max_y:
                if isinstance(value, int):
                    value = BivarPoly.constant(value)
                series.coeff[i][j] = value
        return series

    def coefficient(self, i, j) -> BivarPoly:
        return self.coeff[i][j]

    def reciprocal(self, reader="decode") -> "TruncatedSeries2":
        """The series S with self * S = 1 up to the truncation order.

        S[m][n] is [m = n = 0] minus the sum of D[i][j] * S[m-i][n-j]
        over the nonconstant coefficients D[i][j] of self.  The recurrence
        runs on packed ints (see _packed_rows and _Slots), and each row is
        read as soon as it is done; the packed ints of a row are dropped
        once no later row reads them.  A tall series (max_x > max_y) is
        inverted as the transpose of the reciprocal of its transpose, as
        swapping x and y is a ring map.

        ``reader`` names the _Slots method that reads each cell: "decode"
        makes the BivarPoly, "text" its str() and "json" its
        to_json_terms(), each straight from the packed int.

        Input contract: the constant coefficient must be exactly 1
        (else NonUnitConstantTerm).  The other cells are BivarPoly with
        integer coefficients or plain ints, which stand for constants.
        A bool cell, or a coefficient with a negative exponent, raises
        ValueError before any work.
        """
        if reader not in _Slots.READERS:
            raise ValueError(f"unknown cell reader {reader!r}")
        tall = self.max_x > self.max_y
        slots, mirror, rows = (self._transpose() if tall else self)._packed_rows()
        read = getattr(slots, reader)
        coeff = []
        for m, (values, boxes) in enumerate(rows):
            # under a mirror, a cell left of the diagonal is its mirror
            # cell, read in an earlier row
            coeff.append([
                coeff[n][m] if mirror and n < m else read(v, box)
                for n, (v, box) in enumerate(zip(values, boxes))
            ])
        if tall:
            coeff = [list(column) for column in zip(*coeff)]
        return TruncatedSeries2(self.max_x, self.max_y, coeff)

    def reciprocal_coefficient(self) -> BivarPoly:
        """reciprocal().coefficient(max_x, max_y), with only that cell
        decoded, the series transposed as in reciprocal() if tall."""
        tall = self.max_x > self.max_y
        slots, _, rows = (self._transpose() if tall else self)._packed_rows()
        for values, boxes in rows:
            pass  # run the rows to the last, holding only those in reach
        return slots.decode(values[-1], boxes[-1])

    def reciprocal_column(self) -> list:
        """[reciprocal().coefficient(i, max_y) for i in 0..max_x], with
        only those cells decoded: the last cell of each row, the rows
        along x even if self is tall, which only loses the mirror."""
        slots, _, rows = self._packed_rows()
        column = [(values[-1], boxes[-1]) for values, boxes in rows]
        # one box that holds every cell's box, so its slots are listed once
        box = tuple(map(max, zip(*[box for _, box in column])))
        return [slots.decode(value, box) for value, _ in column]

    def _transpose(self) -> "TruncatedSeries2":
        return TruncatedSeries2(self.max_y, self.max_x, [list(c) for c in zip(*self.coeff)])

    def _packed_rows(self):
        """The reciprocal's recurrence on packed ints, one row at a time.

        Returns (slots, mirror, rows).  The rows run along x: ``rows``
        yields, for each row m in turn, (values, boxes): values[n] is
        S[m][n] packed in one _Slots layout, and boxes[n] the (q-degree,
        t-degree, q-degree minus t-degree) bounds of that cell.
        ``slots`` is the _Slots layout: ``slots.decode(values[n],
        boxes[n])`` is the cell as a BivarPoly, and its other readers
        write the cell's text or JSON terms.  The input is checked, and
        the bounds taken, before this returns.

        ``mirror`` says that self is no taller than wide (max_x <= max_y)
        and symmetric on the square where both (i, j) and (j, i) are
        cells.  Then so is S, and every row being at least as long as the
        square, a cell (m, n) with n < m is never computed.  Let band be
        the largest j - i over the nonconstant D[i][j]: a cell within the
        band (m - n <= band) is the int of its mirror (n, m), and the
        cells further left are None, as no cell reads them (S[m][n] with
        n >= m reads S[m-i][n-j], and (m - i) - (n - j) <= j - i).  Rows
        are kept back to the larger of band and reach, the largest i over
        the nonconstant D[i][j].  A tall symmetric series gets its mirror
        through its transpose (see reciprocal()).

        A first pass bounds every cell by one rule.  Its q-degree, its
        t-degree and the largest q-degree minus t-degree of its terms are
        each at most the largest, over the terms of the recurrence, of
        that of D[i][j] plus that of S[m-i][n-j]; its l1 norm is at most
        the sum of |D[i][j]|_1 * |S[m-i][n-j]|_1.  The largest of each
        bound sets the layout, and each D[i][j] * S is one shift-add per
        term of D[i][j].  Under ``mirror`` a cell (m, n) of the square
        reads only cells of the square, the transposes of those that (n,
        m) reads, so it is bounded by the same rule and comes out equal
        to its mirror; the bounds of the cells left of the diagonal are
        taken even where the cells are not computed.
        """
        if self.coeff[0][0] != ONE:
            raise NonUnitConstantTerm(
                f"constant coefficient is {self.coeff[0][0]}, expected 1"
            )
        rows, cols = self.max_x + 1, self.max_y + 1
        # (i, j, terms, q-degree, t-degree, q minus t, l1 norm)
        nonconstant = []
        for i, line in enumerate(self.coeff):
            for j, cell in enumerate(line):
                if isinstance(cell, int):
                    cell = BivarPoly.constant(cell)  # refuses a bool, as from_terms does
                if (i, j) != (0, 0) and cell:
                    nonconstant.append((i, j, cell._terms, *_extent(cell._terms)))
        mirror = rows <= cols and all(
            self.coeff[i][j] == self.coeff[j][i] for i in range(rows) for j in range(i)
        )

        # Bounds; a cell with norm bound 0 is zero, and its box is unread.
        boxes = [[(0, 0, 0)] * cols for _ in range(rows)]
        norm = [[0] * cols for _ in range(rows)]
        norm[0][0] = 1
        for m in range(rows):
            for n in range(cols):
                if m == n == 0:
                    continue
                l1 = 0
                reads = []
                for i, j, _, dq, dt, lead, d_norm in nonconstant:
                    if i <= m and j <= n and norm[m - i][n - j]:
                        l1 += d_norm * norm[m - i][n - j]
                        bq, bt, blead = boxes[m - i][n - j]
                        reads.append((dq + bq, dt + bt, lead + blead))
                if reads:
                    boxes[m][n] = tuple(map(max, zip(*reads)))
                norm[m][n] = l1
        deg_q, deg_t, _ = map(max, zip(*[box for row in boxes for box in row]))
        slots = _Slots(max(map(max, norm)), deg_q, deg_t)

        shifts = [
            (i, j, slots.shifts({key: -c for key, c in terms.items()}))
            for i, j, terms, *_ in nonconstant
        ]
        reach = max((i for i, _, _ in shifts), default=0)
        band = max((j - i for i, j, _ in shifts), default=0) if mirror else 0
        keep = max(reach, band)

        def packed_rows():
            packed = []
            for m in range(rows):
                first = m if mirror else 0  # the first cell computed
                low = max(0, first - band)
                row = [None] * low + [packed[n][m] for n in range(low, first)]
                row += [0] * (cols - first)
                packed.append(row)
                for n in range(first, cols):
                    if not norm[m][n]:
                        continue
                    if m == n == 0:
                        row[n] = 1
                        continue
                    acc = 0
                    for i, j, pairs in shifts:
                        if i <= m and j <= n:
                            s = packed[m - i][n - j]
                            if s:
                                acc = _shift_add(acc, s, pairs)
                    row[n] = acc
                if m >= keep:
                    packed[m - keep] = None  # no later row reads it
                yield row, boxes[m]

        return slots, mirror, packed_rows()


def _extent(terms):
    """(q-degree, t-degree, largest q-degree minus t-degree, l1 norm) of a
    term map, zeros for the zero polynomial; a negative exponent raises
    ValueError."""
    for dq, dt in terms:
        if dq < 0 or dt < 0:
            raise ValueError(f"term q^{dq}*t^{dt} has a negative exponent")
    return (
        max((dq for dq, _ in terms), default=0),
        max((dt for _, dt in terms), default=0),
        max((dq - dt for dq, dt in terms), default=0),
        sum(map(abs, terms.values())),
    )


def _powers(first, base, count):
    """[first, first*base, ..., first*base^count] by repeated products."""
    out = [first]
    for _ in range(count):
        out.append(out[-1] * base)
    return out


def _shift_add(acc, value, shifts):
    """acc plus value times the polynomial of ``shifts`` (_Slots.shifts):
    one shift-add per term, linear in the size of value, where an int
    product with a wide factor is not."""
    for shift, c in shifts:
        if c == 1:
            acc += value << shift
        elif c == -1:
            acc -= value << shift
        else:
            acc += c * (value << shift)
    return acc


class _Slots:
    """The slot layout of the evaluation q = 2^B, t = 2^(B*W), for the
    polynomials of q-degree at most deg_q, t-degree at most deg_t and
    coefficients at most norm in absolute value.

    Evaluation at that point is a ring homomorphism from Z[q, t] to Z, so
    equal polynomials have equal values, and multiplying a value by the
    term c*q^a*t^b is one shift-add, c * (v << B*(a + b*W)): ``shifts``
    lists those shifts for a term map, and _shift_add adds them.  W =
    deg_q + 1, and B = 8*size bits with size =
    ceil((bit_length(norm) + 1) / 8) bytes: one bit more than the norm
    needs, for the sign, rounded up to whole bytes.  The map is injective
    on these polynomials.  After adding 2^(B-1) to every B-bit slot, slot
    dq + dt*W holds the coefficient of q^dq t^dt plus 2^(B-1), which lies
    in [0, 2^B), so no slot carries into the next, and every digit is one
    unsigned little-endian int of size bytes.  ``pack`` writes those
    digits and ``decode`` reads them back.

    Three cell readers share one digit reader, which reads only the
    slots inside box = (deg_q, deg_t, lead): dt <= deg_t and dq <=
    min(deg_q, dt + lead), in canonical term order.  ``decode(value,
    box)`` makes the BivarPoly; ``text`` writes its str(), through the
    formatter that str() uses, and ``json`` its to_json_terms(), both
    straight from the digits, with no term map and no sort.  The slices,
    keys and monomial names of a box's slots are listed once per box.
    The slice and key objects themselves are made on the first read,
    once per layout, and shared by every box; a layout that is never
    read makes none.
    """

    READERS = ("decode", "text", "json")

    def __init__(self, norm, deg_q, deg_t):
        self.size = (norm.bit_length() + 8) // 8  # bytes per slot
        self.bits = 8 * self.size
        self.width = deg_q + 1
        self.count = (deg_t + 1) * self.width
        self.zero = bytes(self.size - 1) + b"\x80"  # the digit of a zero coefficient
        self.boxes = {}  # box -> (slices, keys, names, end): its slots in canonical order
        self.slices = self.keys = None

    def shifts(self, terms):
        """[(shift, coeff)] of a term map: the product of a value with it
        is _shift_add(0, value, shifts)."""
        bits, width = self.bits, self.width
        return [(bits * (dq + dt * width), c) for (dq, dt), c in terms.items()]

    def pack(self, terms):
        """The value of a term map in this layout, in one pass over its
        slot digits; the bias is taken off at the end, since shift-adds
        would copy the growing sum once per term."""
        size, width, offset = self.size, self.width, 1 << self.bits - 1
        slots = bytearray(self.zero * self.count)
        bias = int.from_bytes(slots, "little")
        for (dq, dt), c in terms.items():
            start = (dq + dt * width) * size
            slots[start : start + size] = (c + offset).to_bytes(size, "little")
        return int.from_bytes(slots, "little") - bias

    def decode(self, value, box) -> BivarPoly:
        coeffs, (_, keys, _, _) = self._digits(value, box)
        return BivarPoly._of(dict(compress(zip(keys, coeffs), coeffs)))

    def text(self, value, box) -> str:
        """str(self.decode(value, box)), written from the digits."""
        coeffs, (_, _, names, _) = self._digits(value, box)
        return _render(compress(zip(coeffs, names), coeffs))

    def json(self, value, box) -> list:
        """self.decode(value, box).to_json_terms(), written from the digits."""
        coeffs, (_, keys, _, _) = self._digits(value, box)
        return [[dq, dt, str(c)] for (dq, dt), c in compress(zip(keys, coeffs), coeffs)]

    def _digits(self, value, box):
        """The coefficients in the slots of box, in canonical order, and
        the box's (slices, keys, names, end)."""
        read = self.boxes.get(box) or self._read_box(box)
        slices, _, _, end = read
        bias = int.from_bytes(self.zero * end, "little")
        buf = (value + bias).to_bytes(end * self.size, "little")
        digits = map(int.from_bytes, map(buf.__getitem__, slices), repeat("little"))
        return list(map(sub, digits, repeat(1 << (self.bits - 1)))), read

    def _read_box(self, box):
        deg_q, deg_t, lead = box
        size, width = self.size, self.width
        if self.slices is None:
            # slot -> the slice of its bytes, and its (deg_q, deg_t).  Made
            # cell by cell instead, these scattered among the cells' terms
            # and raised the peak RSS of `series 20 20` by about 2 MiB.
            self.slices = [slice(k, k + size) for k in range(0, self.count * size, size)]
            self.keys = [(slot % width, slot // width) for slot in range(self.count)]
        # Falling total degree, then falling t-degree, as _ordered sorts;
        # generated in that order, since sorting here left temporary rows
        # among the cells' terms, which raised the peak RSS as the keys did.
        slots = [
            total - dt + dt * width
            for total in range(deg_q + deg_t, -1, -1)
            # dq = total - dt must lie in [0, min(deg_q, dt + lead)]
            for dt in range(min(deg_t, total), max(0, total - deg_q, (total - lead + 1) // 2) - 1, -1)
        ]
        keys = [self.keys[slot] for slot in slots]
        read = self.boxes[box] = (
            [self.slices[slot] for slot in slots],
            keys,
            [_MONOMIALS[key] for key in keys],
            max(slots) + 1,  # the slot after the last one read
        )
        return read


def geometric_denominator(factors, max_y) -> TruncatedSeries2:
    """1 - qt y F truncated at (len(factors) - 1, max_y), F = sum
    factors[b][g] x^b y^g over rows at most max_y long, each factor a
    polynomial in t alone; cell (b, g + 1), -qt factors[b][g], is made in
    one pass.  The reciprocal is sum_j (qt y F)^j, so the q-degree of a
    term is the power of F it comes from."""
    grid = []
    for b, row in enumerate(factors):
        cells = [ZERO if b else ONE]
        for factor in row:
            cells.append(BivarPoly._of({(1, dt + 1): -c for (_, dt), c in factor._terms.items()}))
        grid.append(cells + [ZERO] * (max_y - len(row)))
    return TruncatedSeries2(len(factors) - 1, max_y, grid)

