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

Only the cover set is materialized here; the H-triangle needs nothing
else of the bubble order.
"""

from __future__ import annotations

from typing import NamedTuple

from .poset import Poset, build_poset
from .words import (
    FAMILY_X,
    FAMILY_Y,
    DEFAULT_SIZE_CAP,
    Letter,
    enumerate_shuffle_words,
)

KIND_INDEL = "indel"
KIND_TRANSPOSE = "transpose"


class BubbleCover(NamedTuple):
    lower: tuple
    upper: tuple
    kind: str


class DegreeTriple(NamedTuple):
    """Lower-cover counts in the bubble order, split by cover kind."""

    in_total: int
    in_indel: int
    in_transpose: int


def indel_successors(u, m, n):
    """All words one indel above u: delete any x-letter, or insert an
    absent y-letter at any position that keeps the word valid.  The
    order of the list is unspecified."""
    out = []
    for pos, letter in enumerate(u):
        if letter.family == FAMILY_X:
            out.append(u[:pos] + u[pos + 1 :])
    for pos, letter in _y_insertions(u, n):
        out.append(u[:pos] + (letter,) + u[pos:])
    return out


def _y_insertions(u, n):
    """(pos, y_j) for every absent y_j and every pos where inserting it
    keeps the y-indices of u increasing."""
    # each y-letter of u (and a sentinel past the end) bounds the slots
    # of the absent indices below it
    bounds = [(pos, letter.index) for pos, letter in enumerate(u) if letter.family == FAMILY_Y]
    bounds.append((len(u), n + 1))
    lo = below = 0
    for hi, above in bounds:
        for j in range(below + 1, above):
            letter = Letter(FAMILY_Y, j)
            for pos in range(lo, hi + 1):
                yield pos, letter
        lo = hi + 1
        below = above


def build_shuffle_lattice(m, n, size_cap=DEFAULT_SIZE_CAP) -> Poset:
    """The shuffle lattice as a graded Poset labelled by the words.

    Bottom is x1..xm, top is y1..yn; covers are the single indels.
    """
    labels = enumerate_shuffle_words(m, n, size_cap)
    index = {w: i for i, w in enumerate(labels)}
    covers = []
    for w in labels:
        i = index[w]
        for v in indel_successors(w, m, n):
            covers.append((i, index[v]))
    return build_poset(labels, covers)


def _bubble_upper_covers(u, m, n):
    """(upper, kind) pairs for the bubble covers directly above u, sorted
    by upper word (shorter first), then kind."""
    out = []
    last = len(u) - 1
    for pos, letter in enumerate(u):
        if letter.family == FAMILY_X:
            if pos == last or u[pos + 1].family == FAMILY_X:
                out.append((u[:pos] + u[pos + 1 :], KIND_INDEL))
            else:
                swapped = u[:pos] + (u[pos + 1], letter) + u[pos + 2 :]
                out.append((swapped, KIND_TRANSPOSE))
    for pos, letter in _y_insertions(u, n):
        # right insertion: the new letter is last or precedes a y
        if pos == len(u) or u[pos].family == FAMILY_Y:
            out.append((u[:pos] + (letter,) + u[pos:], KIND_INDEL))
    out.sort(key=lambda c: (len(c[0]), c))
    return out


def bubble_covers(m, n, size_cap=DEFAULT_SIZE_CAP):
    """Every bubble cover pair for (m, n), sorted by lower word in
    enumeration order, then as ``_bubble_upper_covers`` sorts them."""
    return [
        BubbleCover(u, upper, kind)
        for u in enumerate_shuffle_words(m, n, size_cap)
        for upper, kind in _bubble_upper_covers(u, m, n)
    ]


def degree_statistics(m, n, size_cap=DEFAULT_SIZE_CAP):
    """Per-word lower-cover counts in the bubble order, split by kind."""
    listing = enumerate_shuffle_words(m, n, size_cap)
    counts = {w: [0, 0] for w in listing}
    for u in listing:
        for upper, kind in _bubble_upper_covers(u, m, n):
            counts[upper][0 if kind == KIND_INDEL else 1] += 1
    return {
        w: DegreeTriple(indel + transpose, indel, transpose)
        for w, (indel, transpose) in counts.items()
    }
