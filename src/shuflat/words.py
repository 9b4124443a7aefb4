"""Shuffle words over two indexed alphabets.

A shuffle word over the alphabets x1..xm and y1..yn is a word that uses
each letter at most once (simple) and whose x-indices, read left to
right, are strictly increasing, likewise its y-indices (order
preserving).  Shuf(m, n) is the set of all such words; it carries the
lattice structures built in :mod:`shuflat.lattices`.

Words are plain tuples of :class:`Letter`, hashable and immutable, and
every function here is pure.  The text syntax is ``x3``/``y2``
concatenated, e.g. ``y1y2x2y3x5x6``; the empty word renders as ``e``.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache
from math import comb

FAMILY_X = "x"
FAMILY_Y = "y"

#: Refuse enumeration above this predicted cardinality unless overridden.
DEFAULT_SIZE_CAP = 10**6


class DuplicateLetter(ValueError):
    """A letter occurs twice; the message names the offending position."""


class OrderViolation(ValueError):
    """Indices of one family do not increase left to right."""


class IndexOutOfRange(ValueError):
    """A letter index is outside 1..m (for x) or 1..n (for y)."""


class SizeLimitExceeded(ValueError):
    """Predicted enumeration size exceeds the configured cap.

    ``predicted`` is the word count, or None when a lower bound refused
    the size; ``count_text`` then says what the bound is."""

    def __init__(self, predicted, cap, count_text=None):
        self.predicted = predicted
        self.cap = cap
        super().__init__(
            f"enumeration would produce {count_text or predicted} words,"
            f" above the cap of {cap}"
        )


class Letter(namedtuple("Letter", "family index")):
    """One tagged letter: family 'x' or 'y' plus a 1-based index.

    Tuple comparison gives the canonical letter order
    x1 < x2 < ... < y1 < y2 < ...
    """

    __slots__ = ()

    def __str__(self):
        return f"{self.family}{self.index}"


Word = tuple  # a shuffle word is a tuple of Letter


@lru_cache(maxsize=16)
def singles(family, count):
    """The shared one-letter words of a family of ``count`` letters, at
    their index: ``singles(family, count)[i]`` is ``(Letter(family, i),)``
    for i = 0..count+1.  Index 0 and count+1 are not letters of any word;
    they bound the gaps of absent indices.  Words built from these tuples
    hold the same letter objects, so tuple comparison of such words meets
    identical letters."""
    return tuple((Letter(family, i),) for i in range(count + 2))


def validate(letters: Iterable, m: int, n: int) -> Word:
    """Check a raw letter sequence and return it as a shuffle word.

    Raises DuplicateLetter, OrderViolation, or IndexOutOfRange, each
    naming the first offending 1-based position.  IndexOutOfRange also
    covers an unknown family and an index that is not an int (a bool is
    refused too).
    """
    word = tuple(Letter(fam, idx) for fam, idx in letters)
    seen = set()
    last_index = {FAMILY_X: 0, FAMILY_Y: 0}
    for pos, letter in enumerate(word, start=1):
        if letter.family not in (FAMILY_X, FAMILY_Y):
            raise IndexOutOfRange(f"position {pos}: unknown family {letter.family!r}")
        if type(letter.index) is not int:
            raise IndexOutOfRange(f"position {pos}: index {letter.index!r} is not an int")
        bound = m if letter.family == FAMILY_X else n
        if not 1 <= letter.index <= bound:
            raise IndexOutOfRange(
                f"position {pos}: {letter} outside 1..{bound} for ({m},{n})"
            )
        if letter in seen:
            raise DuplicateLetter(f"position {pos}: {letter} occurs twice")
        seen.add(letter)
        if letter.index <= last_index[letter.family]:
            raise OrderViolation(
                f"position {pos}: {letter} does not increase within its family"
            )
        last_index[letter.family] = letter.index
    return word


def shuffle_word_count(m: int, n: int) -> int:
    """Number of shuffle words: sum over a of C(m,a) C(n,a) 2^(m+n-2a)."""
    return sum(
        comb(m, a) * comb(n, a) * 2 ** (m + n - 2 * a) for a in range(min(m, n) + 1)
    )


def check_size(m, n, cap):
    """Raise SizeLimitExceeded when Shuf(m, n) has more than ``cap`` words,
    and ValueError, before any count, when m, n or the cap is not a
    nonnegative int (a bool is not one).

    A cap counts as sys.maxsize at most, since no list holds more items.
    The a = 0 term of the count alone is 2^(m+n).  When that is more than
    2^64 times the cap, the size is refused on the bound: the exact count
    costs time and digits that grow with m + n (at (99999999, 1) it takes
    a second and has more digits than ``str`` of an int may print)."""
    if type(m) is not int or type(n) is not int or m < 0 or n < 0:
        raise ValueError(f"sizes must be nonnegative ints, got ({m!r}, {n!r})")
    if type(cap) is not int or cap < 0:
        raise ValueError(f"a size cap must be a nonnegative int, got {cap!r}")
    cap = min(cap, sys.maxsize)
    if m + n > cap.bit_length() + 64:
        raise SizeLimitExceeded(None, cap, f"at least 2^{m + n}")
    predicted = shuffle_word_count(m, n)
    if predicted > cap:
        raise SizeLimitExceeded(predicted, cap)


def _trie(m, n, size_cap):
    """The prefix trie of Shuf(m, n), walked breadth first: (states, steps).

    A word is in state (a, b) when a and b are its largest x- and y-index
    (0 if it has none); its children are w x_i for a < i <= m, then w y_j
    for b < j <= n.  Level by level, each word's children in that order,
    the walk gives the words by length and each length in lexicographic
    order.  states[v] = a * (n + 1) + b is the state of the v-th word, and
    steps[s] = (xr, yr, b) holds the ranges of the i and the j that a child
    of a word in state s may append, and the state's b.  ``check_size``
    refuses an oversized Shuf(m, n) first: the layer's one size refusal."""
    check_size(m, n, size_cap)
    span = n + 1
    steps = [
        (range(a + 1, m + 1), range(b + 1, span), b) for a in range(m + 1) for b in range(span)
    ]
    kids = [[i * span + b for i in x] + [s - b + j for j in y] for s, (x, y, b) in enumerate(steps)]
    states = [0]
    for s in states:  # the list grows as it is read
        states += kids[s]
    return states, steps


def enumerate_shuffle_words(m, n, size_cap=DEFAULT_SIZE_CAP):
    """All shuffle words for (m, n) in the order of the trie walk: by
    length, then lexicographic, with x1 < ... < xm < y1 < ... < yn.

    Each word is its parent plus a shared one-letter tuple, so every
    letter is the shared object of ``singles``.  Raises SizeLimitExceeded
    when the predicted count is above ``size_cap``.
    """
    states, steps = _trie(m, n, size_cap)
    xs, ys = singles(FAMILY_X, m), singles(FAMILY_Y, n)
    tails = [xs[xr.start : xr.stop] + ys[yr.start : yr.stop] for xr, yr, _ in steps]
    out = [()]
    for u, tail in zip(out, map(tails.__getitem__, states)):
        out += map(u.__add__, tail)
    return out


def rank(word: Word, m: int) -> int:
    """Lattice rank: (number of y-letters) + m - (number of x-letters)."""
    n_x = 0
    for letter in word:
        if letter.family == FAMILY_X:
            n_x += 1
    return (len(word) - n_x) + m - n_x


_TOKEN = re.compile(r"([xy])(\d+)")
_SEPARATORS = re.compile(r"[\s,;]+")


def parse_word(text: str) -> Word:
    """Parse the text syntax, e.g. 'y1y2x2y3x5x6'; 'e' or '' is the empty word."""
    compact = _SEPARATORS.sub("", text)
    if compact in ("", "e"):
        return ()
    letters = []
    pos = 0
    while pos < len(compact):
        match = _TOKEN.match(compact, pos)
        if match is None:
            raise ValueError(f"cannot parse word text {text!r} at {compact[pos:]!r}")
        letters.append(Letter(match.group(1), int(match.group(2))))
        pos = match.end()
    return tuple(letters)


def format_word(word: Word) -> str:
    """Render a word in the text syntax; the empty word is 'e'."""
    if not word:
        return "e"
    return "".join(str(letter) for letter in word)
