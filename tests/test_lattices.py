from math import comb

import pytest

from order_helpers import (
    bottom_word,
    indel_successors,
    interval_decomposition_map,
    interval_is_product,
    mobius,
    top_word,
    upper_cover_census,
)
from shuflat.lattices import (
    KIND_INDEL,
    KIND_TRANSPOSE,
    BubbleCover,
    bubble_covers,
    build_shuffle_lattice,
    degree_statistics,
    indel_covers,
)
from shuflat.words import (
    SizeLimitExceeded,
    enumerate_shuffle_words,
    parse_word,
    rank,
    validate,
)


def w(text):
    return parse_word(text)


def test_indel_successors_examples():
    assert set(indel_successors(w("x1"), 1, 1)) == {(), w("x1y1"), w("y1x1")}
    assert indel_successors(top_word(3), 2, 3) == []
    assert indel_successors((), 0, 1) == [w("y1")]


def test_indel_successors_raise_rank_by_one():
    # exhaustively over every word for all m, n <= 5
    for m in range(6):
        for n in range(6):
            for u in enumerate_shuffle_words(m, n):
                for v in indel_successors(u, m, n):
                    assert rank(v, m) == rank(u, m) + 1


def one_indel_above(u, m, n):
    """The words one indel above u, from the definition: delete each
    x-letter, or insert each absent y-letter at every position, keeping
    what the validator accepts."""
    out = {u[:pos] + u[pos + 1 :] for pos, letter in enumerate(u) if letter.family == "x"}
    present = {letter.index for letter in u if letter.family == "y"}
    for j in range(1, n + 1):
        if j in present:
            continue
        for pos in range(len(u) + 1):
            candidate = u[:pos] + (("y", j),) + u[pos:]
            try:
                out.add(validate(candidate, m, n))
            except ValueError:
                pass
    return out


def test_indel_successors_match_the_definition():
    for m in range(7):
        for n in range(7 - m):
            for u in enumerate_shuffle_words(m, n):
                successors = indel_successors(u, m, n)
                assert len(successors) == len(set(successors)), u
                assert set(successors) == one_indel_above(u, m, n), (m, n, u)


def test_indel_covers_match_the_successors():
    # every (m, n) with m + n <= 8, the one-sided lattices included
    for m in range(9):
        for n in range(9 - m):
            listing = enumerate_shuffle_words(m, n)
            upper, ranks = indel_covers(m, n)
            assert len(upper) == len(listing)
            assert ranks == [rank(u, m) for u in listing], (m, n)
            for u, up in zip(listing, upper):
                assert len(up) == len(set(up)), (m, n, u)
                assert {listing[v] for v in up} == set(indel_successors(u, m, n)), (m, n, u)


def test_shuffle_lattice_from_the_successors():
    # the lattice built from the derived covers is the one built from
    # indel_successors and an index of the enumerated words
    for m in range(9):
        for n in range(9 - m):
            listing = enumerate_shuffle_words(m, n)
            index = {u: i for i, u in enumerate(listing)}
            pairs = {(index[u], index[v]) for u in listing for v in indel_successors(u, m, n)}
            p = build_shuffle_lattice(m, n)
            assert p.labels == listing, (m, n)
            assert p.covers == tuple(sorted(pairs)), (m, n)
            assert p.ranks == tuple(rank(u, m) for u in listing), (m, n)


def test_indel_covers_size_cap():
    with pytest.raises(SizeLimitExceeded):
        indel_covers(3, 3, size_cap=10)


def test_shuffle_lattice_boolean_case():
    for n in range(5):
        p = build_shuffle_lattice(0, n)
        assert p.n == 2**n
        by_rank = {}
        for r in p.ranks:
            by_rank[r] = by_rank.get(r, 0) + 1
        assert by_rank == {r: comb(n, r) for r in range(n + 1)}
        if n >= 1:
            assert mobius(p, p.bottom)[p.top] == (-1) ** n


def test_shuffle_lattice_shape():
    p = build_shuffle_lattice(1, 2)
    assert p.n == 12
    assert p.labels[p.bottom] == bottom_word(1)
    assert p.labels[p.top] == top_word(2)

    small = build_shuffle_lattice(1, 1)
    assert sorted(small.ranks) == [0, 1, 1, 1, 2]


def test_shuffle_lattice_size_cap():
    with pytest.raises(SizeLimitExceeded):
        build_shuffle_lattice(3, 3, size_cap=10)


def test_bubble_covers_1_1():
    covers = bubble_covers(1, 1)
    assert BubbleCover(w("x1y1"), w("y1x1"), KIND_TRANSPOSE) in covers
    assert BubbleCover(w("x1"), (), KIND_INDEL) in covers
    assert BubbleCover(w("x1"), w("x1y1"), KIND_INDEL) in covers
    assert BubbleCover((), w("y1"), KIND_INDEL) in covers
    assert BubbleCover(w("y1x1"), w("y1"), KIND_INDEL) in covers
    assert len(covers) == 5


def test_bubble_covers_right_indel_cases():
    # deletion of a final x-letter
    assert BubbleCover(w("x1"), (), KIND_INDEL) in bubble_covers(1, 0)
    covers_02 = bubble_covers(0, 2)
    # insertion immediately before a y-letter, and at the very end
    assert BubbleCover(w("y2"), w("y1y2"), KIND_INDEL) in covers_02
    assert BubbleCover((), w("y2"), KIND_INDEL) in covers_02
    # Bub(0, n) is the Boolean lattice: 4 covers in total
    assert len(covers_02) == 4

    # deleting an x directly followed by a y is not a right indel
    assert BubbleCover(w("x1y1"), w("y1"), KIND_INDEL) not in bubble_covers(1, 1)
    # inserting a y directly before an x is not a right indel
    assert BubbleCover(w("x1"), w("y1x1"), KIND_INDEL) not in bubble_covers(1, 1)


def test_degree_statistics_1_1():
    stats = degree_statistics(1, 1)
    assert stats[w("x1")] == (0, 0, 0)
    assert stats[w("y1x1")] == (1, 0, 1)
    assert stats[w("x1y1")] == (1, 1, 0)
    assert stats[()] == (1, 1, 0)
    assert stats[w("y1")] == (2, 2, 0)


def test_degree_statistics_consistency():
    for m, n in ((2, 2), (1, 3), (3, 0)):
        covers = bubble_covers(m, n)
        stats = degree_statistics(m, n)
        assert sum(t.in_total for t in stats.values()) == len(covers)
        for triple in stats.values():
            assert triple.in_total == triple.in_indel + triple.in_transpose
        transpositions = sum(1 for c in covers if c.kind == KIND_TRANSPOSE)
        assert transpositions == sum(t.in_transpose for t in stats.values())


def test_degree_statistics_word_by_word():
    # each word's in-degrees, tallied from the bubble cover list
    for m, n in ((2, 2), (1, 3), (3, 0), (3, 3), (4, 2)):
        tally = {u: [0, 0, 0] for u in enumerate_shuffle_words(m, n)}
        for cover in bubble_covers(m, n):
            counts = tally[cover.upper]
            counts[0] += 1
            counts[1 if cover.kind == KIND_INDEL else 2] += 1
        stats = degree_statistics(m, n)
        assert stats.keys() == tally.keys()
        for u, counts in tally.items():
            assert stats[u] == tuple(counts), (m, n, u)


def test_degree_statistics_matches_the_upper_cover_census():
    # each word's own lower covers against the covers pushed up from the
    # words below it, word by word and in enumeration order
    for m in range(9):
        for n in range(9 - m):
            stats = degree_statistics(m, n)
            census = upper_cover_census(m, n)
            assert list(stats) == list(census), (m, n)
            for u, triple in census.items():
                assert stats[u] == triple, (m, n, u)


def test_in_degree_equals_rank_census():
    # the multiset of bubble in-degrees matches the multiset of ranks
    for m, n in ((2, 2), (1, 3), (3, 1)):
        stats = degree_statistics(m, n)
        degrees = sorted(t.in_total for t in stats.values())
        ranks = sorted(rank(u, m) for u in stats)
        assert degrees == ranks


def test_interval_factors_examples():
    def factors(u, m, n):
        return interval_decomposition_map(u, m, n)[0]

    assert factors(w("x7y2"), 7, 3) == [(1, 1), (0, 1)]
    assert factors(bottom_word(3), 3, 2) == [(3, 2)]
    assert factors(top_word(2), 4, 2) == [(0, 0), (0, 0), (0, 0)]


def test_interval_decomposition_is_isomorphism():
    # the last two leave x-letters in two blocks, so the map must shift
    # each block's letters by that block's x-offset
    for text in ("x2y1", "x1x3", "y1y2", "e", "x1x2x3", "x1y1x2", "x2y1x3y2"):
        assert interval_is_product(3, 2, w(text)), text
