"""The shuffle lattice and the bubble cover relation on shuffle words.

Going up in the shuffle lattice means deleting an x-letter or inserting
a y-letter (an indel); each indel raises rank by one, so indel edges
are exactly the covers.  ``indel_covers`` derives the covers of every
word from the covers of its prefix, by word number, and makes no word
to do so (see there); the brute routes and ``shuflat hasse`` read it,
and the tests check it against covers made one word at a time by the
definition.

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
from itertools import accumulate
from operator import add

from .poset import Poset, build_poset
from .words import (
    FAMILY_X,
    FAMILY_Y,
    DEFAULT_SIZE_CAP,
    _trie,
    enumerate_shuffle_words,
    singles,
)

KIND_INDEL = "indel"
KIND_TRANSPOSE = "transpose"


BubbleCover = namedtuple("BubbleCover", "lower upper kind")


class DegreeTriple(namedtuple("DegreeTriple", "in_total in_indel in_transpose")):
    """Lower-cover counts in the bubble order, split by cover kind."""

    __slots__ = ()


def indel_covers(m, n, size_cap=DEFAULT_SIZE_CAP):
    """The indel covers of Shuf(m, n), the words numbered in the order of
    ``enumerate_shuffle_words``: (upper, ranks), where upper[v] is the
    tuple of the upper covers of word v, in no set order, and ranks[v] is
    its rank.  Raises SizeLimitExceeded when there are more than
    ``size_cap`` words.

    The words come from the breadth-first walk of their prefix trie
    (``words._trie``), so the children of a word get consecutive numbers,
    and child_l(v), the number of v l, is the number of v's first child
    plus an offset that v's state (a, b) and the letter l fix.  The upper
    covers of a word w = u l are then
    * child_l(v) for each upper cover v of u such that v l is a word: the
      indels of w away from its last place;
    * u, when l is an x-letter: the deletion of l;
    * the children w y of w: the insertions at the end.
    One pass over the words, parents before children, derives each
    word's covers from its parent's, and makes or hashes no word to do
    so.  The covers hold one shared int object per number, so the tuples
    cost a pointer per cover.
    """
    states, steps = _trie(m, n, size_cap)
    span = n + 1
    # per state: the number of children, the offsets of child_x_i and
    # child_y_j from the first child, and b; lists, which index faster
    # through map than tuples do
    rows = zip(*[(len(x) + len(y), -x.start, m - b, b) for x, y, b in steps])
    sizes, x_off, y_gap, tops = map(list, rows)
    first = accumulate(map(sizes.__getitem__, states), initial=1)
    # child_x_i(v) = x_base[v] + i and child_y_j(v) = y_base[v] + j
    x_base = list(map(add, first, map(x_off.__getitem__, states)))
    y_base = list(map(add, x_base, map(y_gap.__getitem__, states)))
    y_top = list(map(tops.__getitem__, states))
    ids = list(range(len(states)))  # the covers share these int objects
    upper = [tuple(ids[y_base[0] + 1 : y_base[0] + span])]
    ranks = [m]
    for u, (up, (xr, yr, b)) in enumerate(zip(upper, map(steps.__getitem__, states))):
        r = ranks[u]
        w = len(upper)
        for i in xr:
            cw = [ids[x_base[v] + i] for v in up]
            cw.append(ids[u])
            cw += ids[y_base[w] + b + 1 : y_base[w] + span]
            upper.append(tuple(cw))
            ranks.append(r - 1)
            w += 1
        for j in yr:
            cw = [ids[y_base[v] + j] for v in up if y_top[v] < j]
            cw += ids[y_base[w] + j + 1 : y_base[w] + span]
            upper.append(tuple(cw))
            ranks.append(r + 1)
            w += 1
    return upper, ranks


def build_shuffle_lattice(m, n, size_cap=DEFAULT_SIZE_CAP) -> Poset:
    """The shuffle lattice as a graded Poset labelled by the words.

    Bottom is x1..xm, top is y1..yn; covers are the single indels, which
    ``indel_covers`` derives, numbered as the words are listed, and
    ``build_poset`` takes one pair at a time, so no list of the pairs is
    made.
    """
    labels = enumerate_shuffle_words(m, n, size_cap)
    upper, _ = indel_covers(m, n, size_cap)
    return build_poset(labels, ((a, b) for a, up in enumerate(upper) for b in up))


def upper_bubble_covers(u, m, n):
    """(upper, kind) for every bubble cover directly above u, the upper
    words in enumeration order (length, then lexicographic)."""
    out = []
    last = len(u) - 1
    for pos, letter in enumerate(u):
        if letter.family == FAMILY_X:
            if pos == last or u[pos + 1].family == FAMILY_X:
                out.append((u[:pos] + u[pos + 1 :], KIND_INDEL))
            else:
                out.append((u[:pos] + (u[pos + 1], letter) + u[pos + 2 :], KIND_TRANSPOSE))
    # right insertion: the new y-letter is last or precedes a y-letter.
    # Within a gap of absent y-indices only the last slot qualifies: it
    # faces the y-letter that closes the gap (or the end), and every
    # earlier slot faces an x-letter.
    ys = singles(FAMILY_Y, n)
    below = 0
    for hi, letter in enumerate(u + ys[n + 1]):
        if letter.family == FAMILY_Y:
            out += [(u[:hi] + y + u[hi:], KIND_INDEL) for y in ys[below + 1 : letter.index]]
            below = letter.index
    return sorted(out, key=lambda c: (len(c[0]), c[0]))


def bubble_covers(m, n, size_cap=DEFAULT_SIZE_CAP):
    """Every bubble cover pair for (m, n), sorted by lower word, then by
    upper word, both in enumeration order."""
    return [
        BubbleCover(u, upper, kind)
        for u in enumerate_shuffle_words(m, n, size_cap)
        for upper, kind in upper_bubble_covers(u, m, n)
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
