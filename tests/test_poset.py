import random

import hypothesis
import pytest
from hypothesis import strategies as st

from order_helpers import (
    NotComparable,
    bits,
    bucket_sum,
    check_order_isomorphism,
    direct_product,
    down_mask,
    indel_successors,
    interval,
    leq,
    mobius,
    traced_peak,
    up_set,
)
from shuflat.lattices import build_shuffle_lattice
from shuflat.poset import CycleDetected, NotGraded, build_poset, mobius_levels, plane_put_run
from shuflat.triangles import char_poly_brute, char_poly_formula
from shuflat.words import enumerate_shuffle_words


def chain(length):
    return build_poset(list(range(length + 1)), [(i, i + 1) for i in range(length)])


def boolean_2():
    # product of two 2-chains
    return direct_product(chain(1), chain(1))


def test_build_chain_and_singleton():
    p = chain(1)
    assert p.ranks == (0, 1)
    assert p.bottom == 0 and p.top == 1
    single = build_poset(["only"], [])
    assert single.n == 1 and single.ranks == (0,)
    assert single.bottom == single.top == 0


def test_build_cycle_detected():
    with pytest.raises(CycleDetected):
        build_poset([0, 1], [(0, 1), (1, 0)])
    with pytest.raises(CycleDetected):
        build_poset([0], [(0, 0)])
    with pytest.raises(CycleDetected, match="^cover relation contains a directed cycle$"):
        build_poset([0, 1, 2], (pair for pair in [(1, 2), (0, 1), (2, 0)]))


def test_build_not_graded():
    # 0 < 1 < 2 plus a cover jumping from 0 straight to 2
    with pytest.raises(NotGraded):
        build_poset([0, 1, 2], [(0, 1), (1, 2), (0, 2)])


def test_build_refuses_covers_that_are_not_int_pairs():
    # (0, 1.0) and (0, True) equal (0, 1), but they are refused, not
    # dropped as repeats
    for covers in (
        [("0", 1)],
        [(0, 1.0)],
        [(0, 1), ("0", 1)],
        [(0, 2)],
        [(0, 1), (0, 1.0)],
        [(0, True)],
        [(False, 1)],
        [(0, 1), (0, True)],
    ):
        with pytest.raises(ValueError, match="references a missing element"):
            build_poset([0, 1], covers)
    with pytest.raises(ValueError, match=r"^cover \(0,True\) references a missing element$"):
        build_poset(list("abc"), [(0, True), (True, 2)])
    # repeated covers are dropped, and the rest sorted
    p = build_poset([0, 1, 2], [(1, 2), (0, 1), (1, 2)])
    assert p.covers == ((0, 1), (1, 2))


# 0 < 1, 2 < 3 < 4, unsorted and with repeats
DIAMOND_TAIL = [(3, 4), (1, 3), (0, 2), (0, 1), (3, 4), (2, 3), (0, 1)]


def test_build_from_a_one_shot_generator_matches_a_list():
    listed = build_poset(list("abcde"), DIAMOND_TAIL)
    streamed = build_poset(list("abcde"), (pair for pair in DIAMOND_TAIL))
    for p in (listed, streamed):
        assert p.covers == ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4))
        assert p.ranks == (0, 1, 1, 2, 3)
        assert (p.bottom, p.top) == (0, 4)
        assert repr(p) == "Poset(n=5, covers=5)"


@pytest.mark.parametrize(
    "bad, error, message",
    [
        (("0", 1), ValueError, "cover ('0',1) references a missing element"),
        ((0, 3.0), ValueError, "cover (0,3.0) references a missing element"),
        ((0, 5), ValueError, "cover (0,5) references a missing element"),
        ((2, 2), CycleDetected, "self-cover at element 2"),
    ],
)
def test_generator_with_a_late_bad_pair_raises_as_a_list_does(bad, error, message):
    pairs = DIAMOND_TAIL + [bad, (0, 7)]
    for covers in (pairs[:-1], (pair for pair in pairs[:-1])):
        with pytest.raises(error) as info:
            build_poset(list("abcde"), covers)
        assert type(info.value) is error and str(info.value) == message
    # the first bad pair in input order is the one named
    with pytest.raises(error) as info:
        build_poset(list("abcde"), (pair for pair in pairs))
    assert type(info.value) is error and str(info.value) == message


def test_not_graded_names_the_first_bad_cover_in_sorted_order():
    # 0 < 1 < 2 < 3 < 4 with jumps 1 -> 3, 0 -> 3 and 0 -> 2, given in that order
    pairs = [(3, 4), (1, 3), (2, 3), (0, 3), (1, 2), (0, 2), (0, 1)]
    for covers in (pairs, (pair for pair in pairs)):
        with pytest.raises(NotGraded, match=r"^cover \(0,2\) spans ranks 0\.\.2$"):
            build_poset(list(range(5)), covers)


def test_leq():
    p = chain(1)
    assert leq(p, 0, 1)
    assert not leq(p, 1, 0)
    assert leq(p, 0, 0)
    anti = build_poset([0, 1], [])
    assert not leq(anti, 0, 1)


def test_mobius_small():
    p = chain(1)
    assert mobius(p, 0) == {0: 1, 1: -1}
    b2 = boolean_2()
    table = mobius(b2, b2.bottom)
    assert table[b2.bottom] == 1
    assert table[b2.top] == 1
    assert sorted(table.values()) == [-1, -1, 1, 1]
    for a in range(b2.n):
        assert mobius(b2, a)[a] == 1


def test_mobius_row_sums_vanish():
    p = build_shuffle_lattice(2, 2)
    for a in range(p.n):
        table = mobius(p, a)
        for b in up_set(p, a):
            total = sum(
                table[r] for r in up_set(p, a) if leq(p, r, b)
            )
            assert total == (1 if b == a else 0), (a, b)


def test_mobius_dual_recursion():
    # mu(a, v) = -sum of mu(r, v) over a < r <= v, checked independently
    p = build_shuffle_lattice(1, 2)
    rows = {a: mobius(p, a) for a in range(p.n)}
    for a in range(p.n):
        for v in up_set(p, a):
            if v == a:
                continue
            total = sum(rows[r][v] for r in up_set(p, a) if leq(p, r, v) and r != a)
            assert rows[a][v] == -total


def naive_mobius_row(p, a):
    """(v, mu(a, v)) for nonzero mu over the up-set of a in rank order,
    from mu(a, a) = 1 and mu(a, v) = -sum of mu(a, r) over a <= r < v."""
    mu = {}
    for v in sorted(range(p.n), key=lambda v: (p.ranks[v], v)):
        if not leq(p, a, v):
            continue
        mu[v] = 1 if v == a else -sum(
            value for r, value in mu.items() if r != v and leq(p, r, v)
        )
    return [(v, value) for v, value in mu.items() if value]


def test_mobius_row_matches_naive_recursion():
    b3 = direct_product(boolean_2(), chain(1))
    grid = direct_product(chain(2), chain(3))
    for p in (b3, grid, build_shuffle_lattice(2, 2)):
        for a in range(p.n):
            assert p._mobius_row(a) == naive_mobius_row(p, a), a


def test_brute_ch_builds_no_order_closure():
    p = build_shuffle_lattice(4, 4)
    assert char_poly_brute(p) == char_poly_formula(4, 4)
    assert "_up" not in vars(p)
    assert len(up_set(p, p.bottom)) == p.n
    assert "_up" in vars(p)
    # nor the cover pairs, which a repr counts without building them
    words = enumerate_shuffle_words(4, 4)
    index = {w: i for i, w in enumerate(words)}
    pairs = sorted({(index[w], index[v]) for w in words for v in indel_successors(w, 4, 4)})
    assert repr(p) == f"Poset(n={p.n}, covers={len(pairs)})"
    assert "covers" not in vars(p)
    assert p.covers == tuple(pairs)
    assert "covers" in vars(p)


def test_brute_ch_peak_memory_at_5_4():
    # the lattice and the row of Shuf(5,4) peak near 2.5 MiB; a list of
    # the 25k cover pairs beside the upper lists takes it past 4.5 MiB
    ch, peak = traced_peak(lambda: char_poly_brute(build_shuffle_lattice(5, 4)))
    assert ch == char_poly_formula(5, 4)
    assert peak < 3.5 * 2**20, peak / 2**20


@st.composite
def graded_posets(draw):
    """A graded poset drawn level by level: every element above the first
    level covers one or more elements of the level below it.  The first
    level may hold several minimal elements, and the indices are shuffled,
    so that no level need be a run of consecutive indices."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    shuffled = draw(st.permutations(range(sum(sizes))))
    levels = []
    for size in sizes:
        levels.append(shuffled[:size])
        shuffled = shuffled[size:]
    covers = []
    for below, level in zip(levels, levels[1:]):
        for v in level:
            lower = draw(st.lists(st.sampled_from(below), min_size=1, unique=True))
            covers += [(u, v) for u in lower]
    p = build_poset(list(range(sum(sizes))), covers)
    assert all(p.ranks[v] == r for r, level in enumerate(levels) for v in level)
    return p


def cover_walk(steps, a):
    """The elements reached from a along the lists ``steps``, a included."""
    seen, stack = {a}, [a]
    while stack:
        for v in steps.get(stack.pop(), ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return sorted(seen)


# two minima under two maxima, each level's indices apart: not a lattice
BOWTIE = build_poset(list(range(4)), [(1, 0), (1, 2), (3, 0), (3, 2)])


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(graded_posets())
@hypothesis.example(BOWTIE)
def test_mobius_rows_and_closures_on_random_graded_posets(p):
    upper, lower = {}, {}
    for u, v in p.covers:
        upper.setdefault(u, []).append(v)
        lower.setdefault(v, []).append(u)
    for a in range(p.n):
        assert bits(p._up[a]) == cover_walk(upper, a), a
        assert bits(down_mask(p, a)) == cover_walk(lower, a), a
    for a in range(p.n):
        assert p._mobius_row(a) == naive_mobius_row(p, a), a


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(graded_posets())
@hypothesis.example(BOWTIE)
def test_mobius_levels_from_the_minima_sum_the_m_triangle(p):
    # sum of mu(u, v) q^rank(u) t^rank(v) over u <= v, from the naive rows
    expected = {}
    for u in range(p.n):
        for v, mu in naive_mobius_row(p, u):
            key = (p.ranks[u], p.ranks[v])
            expected[key] = expected.get(key, 0) + mu
    upper = [[] for _ in range(p.n)]
    for u, v in p.covers:
        upper[u].append(v)
    minima = [v for v in range(p.n) if p.ranks[v] == 0]
    top = max(p.ranks)
    for degrees in (1, top + 1):
        walk = mobius_levels(minima, upper, degrees)
        terms = {}
        for r, (level, values) in enumerate(walk):
            assert level == sorted(v for v in range(p.n) if p.ranks[v] == r)
            assert len(values) == min(r + 1, degrees)
            for d, column in enumerate(values):
                assert len(column) == len(level)
                terms[(d, r)] = sum(column)
        assert r == top
        nonzero = {k: c for k, c in terms.items() if c}
        assert nonzero == {k: c for k, c in expected.items() if c and k[0] < degrees}, degrees


def test_interval():
    p = chain(2)
    assert interval(p, 0, 0).n == 1
    full = interval(p, 0, 2)
    assert full.n == 3 and full.ranks == (0, 1, 2)
    with pytest.raises(NotComparable):
        interval(build_poset([0, 1], []), 0, 1)


def test_interval_rebased_ranks():
    p = build_shuffle_lattice(1, 2)
    bottom_label = p.labels[p.bottom]
    top_label = p.labels[p.top]
    sub = interval(p, p.bottom, p.top)
    assert sub.n == p.n
    assert sorted(sub.ranks) == sorted(p.ranks)
    mid = interval(p, p.labels.index(()), p.top)  # the empty word has rank 1
    assert min(mid.ranks) == 0
    assert max(mid.ranks) == max(p.ranks) - 1
    assert bottom_label not in mid.labels
    assert top_label in mid.labels


def test_direct_product_counts_and_ranks():
    p = build_shuffle_lattice(1, 1)
    q = build_shuffle_lattice(0, 1)
    prod = direct_product(p, q)
    assert prod.n == 5 * 2
    for i, (lp, lq) in enumerate(prod.labels):
        assert prod.ranks[i] == p.ranks[p.labels.index(lp)] + q.ranks[q.labels.index(lq)]

    b2 = boolean_2()
    assert sorted(b2.ranks) == [0, 1, 1, 2]

    single = build_poset(["*"], [])
    same = direct_product(single, p)
    mapping = [same.labels.index(("*", lbl)) for lbl in p.labels]
    assert check_order_isomorphism(p, same, mapping)


def test_direct_product_mobius_multiplicative():
    # random small lattice pairs, all comparable pairs of the product
    rng = random.Random(7)
    small = [(m, n) for m in range(3) for n in range(3)]
    pairs = [(rng.choice(small), rng.choice(small)) for _ in range(4)]
    pairs.append(((1, 2), (1, 1)))
    for (m1, n1), (m2, n2) in pairs:
        p = build_shuffle_lattice(m1, n1)
        q = build_shuffle_lattice(m2, n2)
        prod = direct_product(p, q)
        for s in range(prod.n):
            sp, sq = divmod(s, q.n)
            table = mobius(prod, s)
            p_table = mobius(p, sp)
            q_table = mobius(q, sq)
            for v, mu in table.items():
                vp, vq = divmod(v, q.n)
                assert mu == p_table.get(vp, 0) * q_table.get(vq, 0)


def test_check_order_isomorphism():
    p = chain(2)
    assert check_order_isomorphism(p, p, [0, 1, 2])
    anti = build_poset(["a", "b", "c"], [])
    assert not check_order_isomorphism(p, anti, [0, 1, 2])
    assert not check_order_isomorphism(p, p, [0, 0, 2])  # not a bijection
    b2 = boolean_2()
    assert not check_order_isomorphism(p, b2, [0, 1, 2])  # size mismatch


# values around the plane boundaries: 0, +-1, powers of two and their
# neighbours, and magnitudes above 2^64
plane_values = st.one_of(
    st.sampled_from([0, 1, -1, 2, -2, 3, -3, 2**64, -(2**64), 2**64 + 1, -(2**65) + 1]),
    st.integers(-(2**70), 2**70),
)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    st.lists(plane_values, max_size=20),
    st.lists(plane_values, max_size=40),
    st.integers(0, 3),
    st.integers(0, 2**70 - 1),
)
def test_plane_put_run_matches_bucket_sum(held, run, gap, mask):
    # the planes already hold ``held`` at elements 0.., and the run is
    # written ``gap`` elements past them, as a rank level is written past
    # the levels below it
    buckets = {}
    planes = {}
    plane_put_run(planes, held, 0)
    plane_put_run(planes, run, len(held) + gap)
    for i, value in enumerate(held + [0] * gap + run):
        if value:
            buckets[value] = buckets.get(value, 0) | 1 << i
    total = sum((plane & mask).bit_count() * weight for weight, plane in planes.items())
    assert total == bucket_sum(buckets, mask)
    assert all(planes.values())  # no zero value makes a plane
