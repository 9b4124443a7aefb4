"""The shuffle lattice and the bubble cover relation on shuffle words.

Going up in the shuffle lattice means deleting an x-letter or inserting
a y-letter (an indel); each indel raises rank by one, so indel edges
are exactly the covers.

The bubble order on the same words is finer.  Its covers split into
two kinds:

* a forward transposition swaps an adjacent pair x_i y_j into y_j x_i;
* a right indel is an indel whose affected letter, in the longer word,
  is not immediately followed by a letter of the other family: delete
  an x-letter that is last or followed by another x-letter, or insert a
  y-letter so that it is last or immediately precedes another y-letter.

Only the covers are computed here, never the bubble order itself.  The
H-triangle needs only each word's count of lower covers by kind, which
``degree_statistics`` reads off the word.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .poset import Poset, build_poset
from .words import (
    FAMILY_X,
    FAMILY_Y,
    DEFAULT_SIZE_CAP,
    enumerate_shuffle_words,
    letters,
)

KIND_INDEL = "indel"
KIND_TRANSPOSE = "transpose"


BubbleCover = namedtuple("BubbleCover", "lower upper kind")


class DegreeTriple(namedtuple("DegreeTriple", "in_total in_indel in_transpose")):
    """Lower-cover counts in the bubble order, split by cover kind."""

    __slots__ = ()


@lru_cache(maxsize=16)
def _y_words(n):
    """The one-letter words (y_j,) at index j, for j = 0..n+1, holding the
    shared letters of ``words.letters``.  y_(n+1) closes the last gap of
    absent y-indices; nothing inserts it or y_0."""
    return tuple((y,) for y in letters(FAMILY_Y, n))


def indel_successors(u, m, n):
    """All words one indel above u: delete any x-letter, or insert an
    absent y-letter at any position that keeps the word valid.  The
    order of the list is unspecified."""
    out = []
    singles = _y_words(n)
    # each y-letter of u (and y_(n+1) past the end) closes a gap: the
    # absent indices below it go into the slots lo..hi before it
    lo = below = 0
    for hi, letter in enumerate(u + singles[n + 1]):
        if letter.family == FAMILY_X:
            out.append(u[:hi] + u[hi + 1 :])
            continue
        for y in singles[below + 1 : letter.index]:
            for pos in range(lo, hi + 1):
                out.append(u[:pos] + y + u[pos:])
        lo = hi + 1
        below = letter.index
    return out


def build_shuffle_lattice(m, n, size_cap=DEFAULT_SIZE_CAP) -> Poset:
    """The shuffle lattice as a graded Poset labelled by the words.

    Bottom is x1..xm, top is y1..yn; covers are the single indels, fed to
    ``build_poset`` one pair at a time, so no list of the pairs is made.
    """
    labels = enumerate_shuffle_words(m, n, size_cap)
    index = {w: i for i, w in enumerate(labels)}
    return build_poset(
        labels,
        ((i, index[v]) for i, w in enumerate(labels) for v in indel_successors(w, m, n)),
    )


def _bubble_covers_above(u, m, n):
    """(upper, kind) for every bubble cover directly above u, unsorted."""
    last = len(u) - 1
    for pos, letter in enumerate(u):
        if letter.family == FAMILY_X:
            if pos == last or u[pos + 1].family == FAMILY_X:
                yield u[:pos] + u[pos + 1 :], KIND_INDEL
            else:
                yield u[:pos] + (u[pos + 1], letter) + u[pos + 2 :], KIND_TRANSPOSE
    # right insertion: the new y-letter is last or precedes a y-letter.
    # Within a gap of absent y-indices only the last slot qualifies: it
    # faces the y-letter that closes the gap (or the end), and every
    # earlier slot faces an x-letter.
    singles = _y_words(n)
    below = 0
    for hi, letter in enumerate(u + singles[n + 1]):
        if letter.family == FAMILY_Y:
            for y in singles[below + 1 : letter.index]:
                yield u[:hi] + y + u[hi:], KIND_INDEL
            below = letter.index


def bubble_covers(m, n, size_cap=DEFAULT_SIZE_CAP):
    """Every bubble cover pair for (m, n), sorted by lower word, then by
    upper word, both in enumeration order (length, then lexicographic)."""
    return [
        BubbleCover(u, upper, kind)
        for u in enumerate_shuffle_words(m, n, size_cap)
        for upper, kind in sorted(
            _bubble_covers_above(u, m, n), key=lambda c: (len(c[0]), c[0])
        )
    ]


def degree_statistics(m, n, size_cap=DEFAULT_SIZE_CAP):
    """Per-word lower-cover counts in the bubble order, split by kind, in
    enumeration order.  One scan of each word counts its lower covers:

    * a transposition below w for each adjacent pair y_j x_i: swapping it
      back gives the lower word, with x_i y_j in its place;
    * a right deletion below w for each of the m - #x(w) absent x-letters:
      x_i goes back between the present x-letters below and above i, and
      of those slots only the last, directly before the smallest present
      x-letter above i (or at the end), is not followed by a y-letter;
    * a right insertion below w for each y-letter of w that is last or
      directly followed by a y-letter: deleting it undoes the insertion.
    """
    out = {}
    for w in enumerate_shuffle_words(m, n, size_cap):
        n_x = transpose = insert = 0
        follower = FAMILY_Y  # the family after the letter; the end acts as y
        for letter in reversed(w):
            if letter.family == FAMILY_X:
                n_x += 1
            elif follower == FAMILY_X:
                transpose += 1
            else:
                insert += 1
            follower = letter.family
        indel = m - n_x + insert
        out[w] = DegreeTriple(indel + transpose, indel, transpose)
    return out
