"""Finite graded posets: covers, order closure, rank, Mobius function.

A Poset is built once from labels and cover pairs, then frozen.  The
order closure is kept as one Python int per element used as a bitset
(bit v of ``up[a]`` says a <= v), which makes comparability O(1) and
up-set iteration cheap even for a few thousand elements.

A Mobius row mu(a, .) follows the standard recursion mu(a, a) = 1,
mu(a, v) = -sum of mu(a, r) over a <= r < v, taken over the up-set of a
in rank order.  Each sum is read from signed bit planes: a dict that maps
the weight 2^b (-2^b) to the plane whose bit i says that element i
carries a positive (negative) value with bit b set in its magnitude.
Only nonzero planes are held.  The sum of the values under a mask is
then the sum of weight * |plane & mask| over the planes, one popcount
per plane, however many distinct values there are (``plane_sum``).
"""

from __future__ import annotations


class CycleDetected(ValueError):
    """The cover relation has a directed cycle."""


class NotGraded(ValueError):
    """Some cover jumps more than one rank level."""


class NoBottom(ValueError):
    """The poset has no unique minimum element."""


class Poset:
    """Immutable finite graded poset on elements 0..n-1 with opaque labels."""

    def __init__(self, labels, covers, ranks, up, down, bottom, top):
        self.labels = list(labels)
        self.n = len(self.labels)
        self.covers = covers  # sorted tuple of (lower, upper) index pairs
        self.ranks = ranks
        self._up = up
        self._down = down
        self.bottom = bottom
        self.top = top

    def __repr__(self):
        return f"Poset(n={self.n}, covers={len(self.covers)})"

    def up_set(self, a: int):
        """Indices of elements >= a, in rank order."""
        members = _bits(self._up[a])
        members.sort(key=self.ranks.__getitem__)
        return members

    def _mobius_row(self, a: int):
        """Nonzero (v, mu(a, v)) pairs over the up-set of a, in rank order."""
        down = self._down
        planes = {1: 1 << a}
        out = [(a, 1)]
        for v in self.up_set(a):
            if v == a:
                continue
            total = plane_sum(planes, down[v])
            if total:
                plane_put(planes, -total, 1 << v)
                out.append((v, -total))
        return out


def plane_sum(planes, mask: int) -> int:
    """Sum of the values held in the signed bit planes over the elements
    in ``mask``."""
    total = 0
    for weight, plane in planes.items():
        total += (plane & mask).bit_count() * weight
    return total


def plane_put(planes, value: int, bit: int) -> None:
    """Record ``value`` at the element ``bit`` (a one-bit mask) in the
    signed bit planes; the element must hold no value yet."""
    weight = 1 if value > 0 else -1
    magnitude = abs(value)
    while magnitude:
        if magnitude & 1:
            planes[weight] = planes.get(weight, 0) | bit
        magnitude >>= 1
        weight <<= 1


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


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def build_poset(labels, covers) -> Poset:
    """Build a graded poset from labels and cover pairs.

    Rank is the longest-path distance from the minimal elements; every
    cover must then raise rank by exactly one (NotGraded otherwise).
    Raises CycleDetected if the cover digraph is not a DAG.
    """
    n = len(labels)
    # dict.fromkeys dedupes in order, so sorted input sorts in one pass;
    # the pairs are checked first, as a str among ints would not sort
    covers = dict.fromkeys(covers)
    for a, b in covers:
        if not (isinstance(a, int) and isinstance(b, int) and 0 <= a < n and 0 <= b < n):
            raise ValueError(f"cover ({a!r},{b!r}) references a missing element")
        if a == b:
            raise CycleDetected(f"self-cover at element {a}")
    covers = sorted(covers)

    upper = [[] for _ in range(n)]
    indegree = [0] * n
    for a, b in covers:
        upper[a].append(b)
        indegree[b] += 1

    # Kahn topological sort; shortfall means a cycle.
    order = [v for v in range(n) if indegree[v] == 0]
    remaining = indegree[:]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for w in upper[v]:
            remaining[w] -= 1
            if remaining[w] == 0:
                order.append(w)
    if len(order) != n:
        raise CycleDetected("cover relation contains a directed cycle")

    ranks = [0] * n
    for v in order:
        for w in upper[v]:
            if ranks[v] + 1 > ranks[w]:
                ranks[w] = ranks[v] + 1
    for a, b in covers:
        if ranks[b] != ranks[a] + 1:
            raise NotGraded(
                f"cover ({a},{b}) spans ranks {ranks[a]}..{ranks[b]}"
            )

    up = [1 << v for v in range(n)]
    for v in reversed(order):
        acc = up[v]
        for w in upper[v]:
            acc |= up[w]
        up[v] = acc
    lower = [[] for _ in range(n)]
    for a, b in covers:
        lower[b].append(a)
    down = [0] * n
    for v in order:
        acc = 1 << v
        for u in lower[v]:
            acc |= down[u]
        down[v] = acc

    minimal = [v for v in range(n) if not lower[v]]
    maximal = [v for v in range(n) if not upper[v]]
    bottom = minimal[0] if len(minimal) == 1 else None
    top = maximal[0] if len(maximal) == 1 else None
    return Poset(labels, tuple(covers), tuple(ranks), up, down, bottom, top)
