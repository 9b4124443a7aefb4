"""Finite graded posets: covers, rank, Mobius function, order closure.

A Poset is built once from labels and cover pairs, then frozen; it
keeps each element's upper covers and its rank, not the pairs.
``build_poset`` ranks each element as Kahn's sort releases it; its
grading check, ``check_covers_raise_rank``, is brute M's too.  The pair
tuple ``covers`` and the order closure ``_up`` (bit v of the int
``_up[a]`` says a <= v) are built only when first read, which the tests,
the demos and the layer tracer do and no route does.

A Mobius row mu(a, .) follows the standard recursion mu(a, a) = 1,
mu(a, v) = -sum of mu(a, r) over a <= r < v.  ``mobius_levels`` walks an
up-set one rank level at a time along upper-cover lists and sums this
recursion against q^rank(u) at every q-degree: brute M reads all the
degrees of the walk from the bottom word up the lists of
``indel_covers``, and ``Poset._mobius_row`` (brute ch) degree 0 alone
of the walk from one element up the Poset's own lists.  Each sum is read
from signed bit planes: a dict that maps the weight 2^b (-2^b) to the
plane whose bit i says that element i carries a positive (negative)
value with bit b set in its magnitude.  Only nonzero planes are held.
The sum of the values under a mask is then the sum of
weight * |plane & mask| over the planes, one popcount per plane, however
many distinct values there are.  A level is written into the planes
with ``plane_put_run``.  As the two brute routes share this walk, each
is checked against its own formula, never against the other.
"""

from __future__ import annotations

from functools import cached_property


class CycleDetected(ValueError):
    """The cover relation has a directed cycle."""


class NotGraded(ValueError):
    """Some cover jumps more than one rank level."""


class NoBottom(ValueError):
    """The poset has no unique minimum element."""


class Poset:
    """Immutable finite graded poset on elements 0..n-1 with opaque labels."""

    def __init__(self, labels, ranks, upper, bottom, top):
        self.labels = list(labels)
        self.n = len(self.labels)
        self.ranks = ranks
        self._upper = upper  # upper[a]: the upper covers of a, ascending
        self.bottom = bottom
        self.top = top

    def __repr__(self):
        return f"Poset(n={self.n}, covers={sum(map(len, self._upper))})"

    @cached_property
    def covers(self):
        """Sorted tuple of the (lower, upper) index pairs; built on first read."""
        return tuple((a, b) for a, up in enumerate(self._upper) for b in up)

    @cached_property
    def _up(self):
        """Bitset of the elements >= a, for every a; built on first read,
        by falling rank, as every cover raises the rank by one."""
        up = [1 << v for v in range(self.n)]
        for v in sorted(range(self.n), key=self.ranks.__getitem__, reverse=True):
            for w in self._upper[v]:
                up[v] |= up[w]
        return up

    def _mobius_row(self, a: int):
        """Nonzero (v, mu(a, v)) pairs over the up-set of a, in rank order
        and by index within a rank: degree 0 of ``mobius_levels`` from a."""
        out = []
        for level, (row,) in mobius_levels([a], self._upper, 1):
            out += [(v, value) for v, value in zip(level, row) if value]
        return out


def mobius_levels(first, upper, degrees: int):
    """Walk the up-set of the minimal elements ``first`` one level at a
    time, and yield each level, sorted, with ``values``: values[d][i] is
    [q^d] g(v) for the i-th element v of level r, where g(v) is the sum
    of mu(u, v) q^level(u) over the walked u <= v.  values holds the
    degrees d below ``degrees`` and up to r; the others are 0 at level r.
    upper[v] lists the upper covers of v.

    By the Mobius recursion g(v) = q^level(v) - sum of g(w) over w < v.
    The elements are numbered in walk order, so that each level is a run.
    For each degree the values of the levels done so far sit in signed
    bit planes, and the sum under a mask costs one popcount per plane.
    Only levels d and up carry [q^d] g, so degree d's planes start at
    level d, and each mask is shifted to that window when it does not
    start at 0, as a shift by 0 copies the int.  [first, v) is the
    union of [first, u] over the lower covers u of v, which all lie in
    the level before if the walk is graded; each [first, u] is popped
    as it is pushed up, so the level below goes as this one comes.  A
    level reads all of its sums before ``plane_put_run`` writes it.
    """
    level = sorted(first)
    masks = [0] * len(level)
    # planes[d]: [q^d] g, bit i for the element starts[d] + i
    planes, starts, end = [], [], 0
    while level:
        values = []
        for d, held in enumerate(planes):
            offset = starts[d]
            weights = list(held.items())
            column = []
            for mask in masks:
                if offset:
                    mask >>= offset
                value = 0
                for weight, plane in weights:
                    value -= (plane & mask).bit_count() * weight
                column.append(value)
            plane_put_run(held, column, end - offset)
            values.append(column)
        if len(planes) < degrees:
            planes.append({1: (1 << len(level)) - 1})
            starts.append(end)
            values.append([1] * len(level))
        yield level, values
        # last element first, so that the masks are freed in the reverse
        # order of their making, which keeps the peak RSS down
        below = {}
        for covers in map(upper.__getitem__, reversed(level)):
            closed = masks.pop() | 1 << end + len(masks)
            for v in covers:
                below[v] = below.get(v, 0) | closed
        end += len(level)
        level = sorted(below)
        masks = list(map(below.pop, level))


def plane_put_run(planes, values, shift: int) -> None:
    """Record values[i] at the element i + shift, for every i, in the
    signed bit planes; the elements must hold no value yet.

    The run is transposed first: its elements are grouped by value, each
    group joins the row of every bit of its value, and each row is ORed
    into its plane once, so the cost follows the run's nonzero bits."""
    groups = {}
    for i, value in enumerate(values):
        if value:
            groups[value] = groups.get(value, 0) | 1 << i
    rows = {}
    for value, members in groups.items():
        weight = 1 if value > 0 else -1
        magnitude = abs(value)
        while magnitude:
            if magnitude & 1:
                rows[weight] = rows.get(weight, 0) | members
            magnitude >>= 1
            weight <<= 1
    for weight, row in rows.items():
        planes[weight] = planes.get(weight, 0) | row << shift


def check_covers_raise_rank(upper, ranks) -> None:
    """Raise NotGraded for the first cover (a, b) of the upper-cover lists,
    in list order, that does not raise the rank by one: the one check."""
    for a, up in enumerate(upper):
        for b in up:
            if ranks[b] != ranks[a] + 1:
                raise NotGraded(f"cover ({a},{b}) spans ranks {ranks[a]}..{ranks[b]}")


def build_poset(labels, covers) -> Poset:
    """Build a graded poset from labels and an iterable of cover pairs.

    Rank is the longest-path distance from the minimal elements, set as
    Kahn's sort releases each element; every cover must then raise rank
    by exactly one (NotGraded otherwise, from check_covers_raise_rank).
    Raises CycleDetected if the cover digraph is not a DAG.  Each pair is
    checked as it comes and filed under its lower element.  The Poset
    keeps those upper-cover lists, sorted and deduped, and the ranks, but
    no pair: ``covers`` and ``_up`` come on first read.
    """
    n = len(labels)
    upper = [[] for _ in range(n)]
    for a, b in covers:
        if not (type(a) is int and type(b) is int and 0 <= a < n and 0 <= b < n):
            raise ValueError(f"cover ({a!r},{b!r}) references a missing element")
        if a == b:
            raise CycleDetected(f"self-cover at element {a}")
        upper[a].append(b)
    indegree = [0] * n
    for a, up in enumerate(upper):
        if len(up) > 1:
            upper[a] = up = sorted(set(up))
        for b in up:
            indegree[b] += 1

    # Kahn's sort from the minimal elements; a rank is final on release,
    # as all the lower covers came first.  A shortfall means a cycle.
    order = [v for v in range(n) if not indegree[v]]
    bottom = order[0] if len(order) == 1 else None
    ranks = [0] * n
    for v in order:
        for w in upper[v]:
            if ranks[w] <= ranks[v]:
                ranks[w] = ranks[v] + 1
            indegree[w] -= 1
            if not indegree[w]:
                order.append(w)
    if len(order) != n:
        raise CycleDetected("cover relation contains a directed cycle")
    check_covers_raise_rank(upper, ranks)

    maximal = [v for v in range(n) if not upper[v]]
    top = maximal[0] if len(maximal) == 1 else None
    return Poset(labels, tuple(ranks), upper, bottom, top)
