"""Order-theoretic checks that only the tests need.

They check Greene's factorization of an upper interval of the shuffle
lattice, [u, top] ~= prod Shuf(x_block, y_gap), structurally: the
interval and the direct product are built as posets, and the
block-splitting map between them is checked to be an order isomorphism.
Each function takes the Poset it reads as its first argument, and so
do the order closures they read (``up_set`` and ``down_mask``), which
no route needs.

They also keep the product form of the M<->H substitution, the oracle of
the packed-int check in ``shuflat.identities._substitution_verdict``,
the upper-cover census of the bubble order, the oracle of the per-word
lower-cover counts in ``shuflat.lattices.degree_statistics``, and the
product of two truncated series, which checks that a reciprocal
multiplies back to one, the corner of a series, through which the tests
read any cell and column of a reciprocal with the readers of its last
ones, and the substitution q -> -q, t -> -t.

``interval_shape`` reads the shape of [u, top] off one word: the oracle
of the counting step of ``shuflat.triangles.m_triangle_interval``, which
counts the words per shape by a generating function and reads no word.
The word helpers below it (``x_letters``, ``y_letters``, ``bottom_word``
and ``top_word``) serve only the tests.  So does ``indel_successors``,
which makes the indel covers of one word by their definition: the
reference for ``shuflat.lattices.indel_covers``, which derives the covers
of every word at once.  ``traced_peak``, which the peak-memory tests
read, and ``counting_reads``, which counts the cells a ``_Slots`` reader
reads, serve only the tests too.
"""

import tracemalloc
from collections import namedtuple
from functools import lru_cache

from shuflat.lattices import (
    KIND_INDEL,
    DegreeTriple,
    build_shuffle_lattice,
    upper_bubble_covers,
)
from shuflat.polyalg import ONE, Q, BivarPoly, TruncatedSeries2, _Slots
from shuflat.poset import Poset, build_poset
from shuflat.words import FAMILY_X, FAMILY_Y, Letter, Word, enumerate_shuffle_words, singles


class IntervalShape(namedtuple("IntervalShape", "y_count x_blocks y_gaps")):
    """How a word splits the alphabets for the interval up to the top word.

    ``y_count`` is the number of y-letters in the word.  Those letters cut
    the full y-word into ``y_count + 1`` gaps; ``y_gaps[i]`` counts the
    absent y-letters in gap ``i``.  They likewise cut the word's own
    x-letters into blocks; ``x_blocks[i]`` is the size of block ``i``.
    """

    __slots__ = ()


def interval_shape(u: Word, m: int, n: int) -> IntervalShape:
    """Shape data (y_count, x_blocks, y_gaps) of the interval [u, top].

    The y-letters of u, say y_{i_1} < ... < y_{i_k}, split the absent
    y-indices into gaps counted by ``y_gaps`` (a gap is the run of
    indices strictly between consecutive chosen ones, with 0 and n+1 as
    virtual endpoints) and split the x-letters of u, in the order they
    sit inside u, into blocks counted by ``x_blocks``.
    """
    x_blocks = []
    y_gaps = []
    block = below = 0
    for letter in u:
        if letter.family == FAMILY_Y:
            x_blocks.append(block)
            y_gaps.append(letter.index - below - 1)
            block = 0
            below = letter.index
        else:
            block += 1
    x_blocks.append(block)
    y_gaps.append(n - below)
    return IntervalShape(len(y_gaps) - 1, tuple(x_blocks), tuple(y_gaps))


def x_letters(word: Word) -> Word:
    return tuple(letter for letter in word if letter.family == FAMILY_X)


def y_letters(word: Word) -> Word:
    return tuple(letter for letter in word if letter.family == FAMILY_Y)


def bottom_word(m: int) -> Word:
    """The minimum element x1 x2 ... xm."""
    return tuple(Letter(FAMILY_X, i) for i in range(1, m + 1))


def top_word(n: int) -> Word:
    """The maximum element y1 y2 ... yn."""
    return tuple(Letter(FAMILY_Y, j) for j in range(1, n + 1))


def indel_successors(u, m, n):
    """All words one indel above u: delete any x-letter, or insert an
    absent y-letter at any position that keeps the word valid.  The
    order of the list is unspecified."""
    out = []
    ys = singles(FAMILY_Y, n)
    # each y-letter of u (and y_(n+1) past the end) closes a gap: the
    # absent indices below it go into the slots lo..hi before it
    lo = below = 0
    for hi, letter in enumerate(u + ys[n + 1]):
        if letter.family == FAMILY_X:
            out.append(u[:hi] + u[hi + 1 :])
            continue
        for y in ys[below + 1 : letter.index]:
            for pos in range(lo, hi + 1):
                out.append(u[:pos] + y + u[pos:])
        lo = hi + 1
        below = letter.index
    return out


def bucket_sum(buckets, mask: int) -> int:
    """sum of c * |members & mask| over the value buckets {c: members}:
    the Mobius sum as one popcount per distinct value, the oracle for
    the signed bit planes that ``shuflat.poset.plane_put_run`` writes."""
    total = 0
    for c, members in buckets.items():
        total += c * (members & mask).bit_count()
    return total


class NotComparable(ValueError):
    """interval(p, a, b) requires a <= b."""


def bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def leq(p: Poset, a: int, b: int) -> bool:
    """True iff b is reachable from a along covers (or a == b)."""
    return bool(p._up[a] >> b & 1)


def up_set(p: Poset, a: int):
    """Indices of the elements >= a, in rank order."""
    members = bits(p._up[a])
    members.sort(key=p.ranks.__getitem__)
    return members


def down_mask(p: Poset, v: int) -> int:
    """Bitset of the elements <= v: those whose up-set holds v."""
    return sum(1 << u for u in range(p.n) if p._up[u] >> v & 1)


def mobius(p: Poset, a: int) -> dict:
    """{v: mu(a, v)} over the up-set of a, zero entries included."""
    values = dict.fromkeys(bits(p._up[a]), 0)
    values.update(p._mobius_row(a))
    return values


def interval(p: Poset, a: int, b: int) -> Poset:
    """The induced sub-poset on {r : a <= r <= b}, ranks re-based at a.

    Materialized as an independent Poset, from the members of a's up-set
    whose up-set holds b and their upper-cover lists, so the covers come
    in the order of ``p.covers``; raises NotComparable when a is not
    below b.
    """
    if not leq(p, a, b):
        raise NotComparable(f"elements {a} and {b} are not comparable")
    members = [v for v in bits(p._up[a]) if p._up[v] >> b & 1]
    position = {v: i for i, v in enumerate(members)}
    labels = [p.labels[v] for v in members]
    covers = [
        (position[lo], position[hi])
        for lo in members
        for hi in p._upper[lo]
        if hi in position
    ]
    return build_poset(labels, covers)


def direct_product(p: Poset, q: Poset) -> Poset:
    """Direct product: pairs ordered componentwise, ranks add.

    Labels are (label_p, label_q) pairs; covers change one coordinate
    by a cover and fix the other.
    """
    labels = [(lp, lq) for lp in p.labels for lq in q.labels]

    def idx(i, j):
        return i * q.n + j

    covers = []
    for a, b in p.covers:
        for j in range(q.n):
            covers.append((idx(a, j), idx(b, j)))
    for i in range(p.n):
        for a, b in q.covers:
            covers.append((idx(i, a), idx(i, b)))
    return build_poset(labels, covers)


def check_order_isomorphism(p: Poset, q: Poset, mapping) -> bool:
    """True iff mapping is a bijection with a <= b exactly when f(a) <= f(b).

    ``mapping`` maps p-indices to q-indices (list or dict, total on p).
    """
    if p.n != q.n:
        return False
    image = [None] * p.n
    seen = set()
    for a in range(p.n):
        fa = mapping[a]
        if fa is None or not 0 <= fa < q.n or fa in seen:
            return False
        seen.add(fa)
        image[a] = fa
    for a in range(p.n):
        mapped = 0
        for b in bits(p._up[a]):
            mapped |= 1 << image[b]
        if mapped != q._up[image[a]]:
            return False
    return True


def interval_decomposition_map(u, m, n):
    """The block-splitting bijection behind the interval factorization.

    Returns (factors, split) where ``factors`` are the (x_block, y_gap)
    parameter pairs and ``split(w)`` maps a word in [u, top] to the
    tuple of factor words: the y-letters of u act as separators, each
    surviving x-letter is renumbered by its position among u's
    x-letters minus the block offset, and each inserted y-letter is
    shifted down by the separator index on its left.
    """
    shape = interval_shape(u, m, n)
    factors = list(zip(shape.x_blocks, shape.y_gaps))
    chosen = [letter.index for letter in u if letter.family == FAMILY_Y]
    chosen_set = set(chosen)
    x_position = {letter.index: s for s, letter in enumerate(x_letters(u), start=1)}
    x_offsets = [0]
    for size, _ in factors[:-1]:
        x_offsets.append(x_offsets[-1] + size)
    y_offsets = [0] + chosen

    def split(w):
        blocks = [[] for _ in range(len(factors))]
        block = 0
        for letter in w:
            if letter.family == FAMILY_Y and letter.index in chosen_set:
                block += 1
            elif letter.family == FAMILY_X:
                blocks[block].append(
                    Letter(FAMILY_X, x_position[letter.index] - x_offsets[block])
                )
            else:
                blocks[block].append(
                    Letter(FAMILY_Y, letter.index - y_offsets[block])
                )
        return tuple(tuple(b) for b in blocks)

    return factors, split


@lru_cache(maxsize=None)
def _lattice(m, n):
    return build_shuffle_lattice(m, n)


def interval_is_product(m, n, u) -> bool:
    """True iff the block-splitting map is an order isomorphism from
    [u, top] in Shuf(m, n) onto the direct product of the factor
    lattices Shuf(x_block, y_gap), taken left to right."""
    lat = _lattice(m, n)
    sub = interval(lat, lat.labels.index(u), lat.top)
    factors, split = interval_decomposition_map(u, m, n)
    product = _lattice(*factors[0])
    for e, l in factors[1:]:
        product = direct_product(product, _lattice(e, l))

    def nested(blocks):
        label = blocks[0]
        for block in blocks[1:]:
            label = (label, block)
        return label

    mapping = [product.labels.index(nested(split(label))) for label in sub.labels]
    return check_order_isomorphism(sub, product, mapping)


def compositions(total, parts):
    """All weak compositions of ``total`` into ``parts`` parts, in
    reverse-lexicographic order (first part descending)."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def substitution_sides(m, n, h, target, a, b, c):
    """Both sides of a substitution relation by BivarPoly products, powers
    read from tables: (q-1)^d target and
    sum_ij [q^i t^j]h a^i b^j (q-1)^(d+i-j) c^(d-i), d = m+n."""
    d = m + n

    def powers(base, count):
        out = [ONE]
        for _ in range(count):
            out.append(out[-1] * base)
        return out

    a_pow, c_pow = powers(a, d), powers(c, d)
    b_pow, q1_pow = powers(b, 2 * d), powers(Q - 1, 2 * d)
    rhs = BivarPoly()
    for (i, j), coeff in h.terms():
        rhs = rhs + coeff * a_pow[i] * b_pow[j] * q1_pow[d + i - j] * c_pow[d - i]
    return q1_pow[d] * target, rhs


def series_product(a, b):
    """a * b truncated at the smaller of their orders, cell by cell as
    the sum of a[i][j] * b[m-i][n-j]."""
    product = TruncatedSeries2(min(a.max_x, b.max_x), min(a.max_y, b.max_y))
    coeff = product.coeff
    for m in range(product.max_x + 1):
        for n in range(product.max_y + 1):
            for i in range(m + 1):
                for j in range(n + 1):
                    coeff[m][n] = coeff[m][n] + a.coeff[i][j] * b.coeff[m - i][n - j]
    return product


def corner(series, i, j):
    """``series`` truncated at (i, j): its reciprocal's last cell is cell
    (i, j) of the reciprocal of ``series``, and its last column is column
    j of that reciprocal down to row i, since a cell reads only the cells
    up to it."""
    return TruncatedSeries2(i, j, [row[: j + 1] for row in series.coeff[: i + 1]])


def negate_vars(p):
    """p(-q, -t): a term's sign flips with the parity of its total degree."""
    return BivarPoly({(dq, dt): -c if (dq + dt) & 1 else c for (dq, dt), c in p.terms()})


def upper_cover_census(m, n):
    """{word: DegreeTriple} in enumeration order, tallied by pushing every
    word's bubble upper covers into a dict keyed by the upper word: each
    word's lower covers counted from the covers above the other words."""
    listing = enumerate_shuffle_words(m, n)
    counts = {w: [0, 0] for w in listing}
    for u in listing:
        for upper, kind in upper_bubble_covers(u, m, n):
            counts[upper][0 if kind == KIND_INDEL else 1] += 1
    return {
        w: DegreeTriple(indel + transpose, indel, transpose)
        for w, (indel, transpose) in counts.items()
    }


def traced_peak(fn):
    """(fn(), the peak bytes that tracemalloc saw allocated during the call
    beyond what was held before it).  Tracing is started for the call and
    stopped after it, unless it was already on."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


def counting_reads(monkeypatch, reader):
    """The list of the boxes that the ``_Slots`` method ``reader`` reads
    from now on, one per cell read: the method is wrapped on the class
    through ``monkeypatch``, which puts it back after the test."""
    boxes = []
    read = getattr(_Slots, reader)

    def counted(self, value, box):
        boxes.append(box)
        return read(self, value, box)

    monkeypatch.setattr(_Slots, reader, counted)
    return boxes
