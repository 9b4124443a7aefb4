import sys
from itertools import combinations, permutations

import pytest

from order_helpers import (
    bottom_word,
    indel_successors,
    interval_shape,
    top_word,
    x_letters,
    y_letters,
)
from shuflat.lattices import bubble_covers, build_shuffle_lattice, indel_covers
from shuflat.triangles import (
    ROUTES,
    compute,
    h_triangle_brute,
    m_triangle_brute,
    m_triangle_interval,
)
from shuflat.words import (
    DuplicateLetter,
    IndexOutOfRange,
    Letter,
    OrderViolation,
    SizeLimitExceeded,
    check_size,
    enumerate_shuffle_words,
    format_word,
    parse_word,
    rank,
    shuffle_word_count,
    singles,
    validate,
)


def w(text):
    return parse_word(text)


def test_parse_and_format_roundtrip():
    for text in ("e", "x1", "y1", "x1y1", "y1y2x2y3x5x6", "x12y3"):
        assert format_word(parse_word(text)) == text
    assert parse_word("") == ()
    assert parse_word("y1, y2 x2") == w("y1y2x2")
    with pytest.raises(ValueError):
        parse_word("x1z2")


def test_validate_accepts_valid_word():
    word = validate(w("y1y2x2y3x5x6"), 6, 3)
    assert word == w("y1y2x2y3x5x6")


def test_validate_rejects_duplicate():
    with pytest.raises(DuplicateLetter) as err:
        validate(w("y1y1x2y3x5x6"), 6, 3)
    assert "position 2" in str(err.value)


def test_validate_rejects_order_violation():
    with pytest.raises(OrderViolation) as err:
        validate(w("y1y2x2y3x6x5"), 6, 3)
    assert "position 6" in str(err.value)


def test_validate_rejects_out_of_range():
    with pytest.raises(IndexOutOfRange):
        validate(w("x7"), 6, 3)
    with pytest.raises(IndexOutOfRange):
        validate(w("y4"), 6, 3)
    with pytest.raises(IndexOutOfRange):
        validate([("z", 1)], 6, 3)
    # an index that is not an int, a bool included
    for index in (1.5, True, "1", None):
        with pytest.raises(IndexOutOfRange) as err:
            validate([("y", 1), ("x", index)], 2, 2)
        assert "position 2" in str(err.value)


def brute_words(m, n):
    # independent oracle: every injective letter sequence, filtered
    alphabet = [Letter("x", i) for i in range(1, m + 1)]
    alphabet += [Letter("y", j) for j in range(1, n + 1)]
    found = set()
    for size in range(len(alphabet) + 1):
        for perm in permutations(alphabet, size):
            try:
                validate(perm, m, n)
            except ValueError:
                continue
            found.add(perm)
    return found


def interleaving_words(m, n):
    # second oracle: subset pairs interleaved by choosing x positions
    out = set()
    xs = list(range(1, m + 1))
    ys = list(range(1, n + 1))
    for sx in range(m + 1):
        for sub_x in combinations(xs, sx):
            for sy in range(n + 1):
                for sub_y in combinations(ys, sy):
                    total = sx + sy
                    for x_slots in combinations(range(total), sx):
                        word = []
                        xi = iter(sub_x)
                        yi = iter(sub_y)
                        slots = set(x_slots)
                        for pos in range(total):
                            if pos in slots:
                                word.append(Letter("x", next(xi)))
                            else:
                                word.append(Letter("y", next(yi)))
                        out.add(tuple(word))
    return out


def test_enumerate_matches_brute_oracle():
    for m in range(3):
        for n in range(3):
            assert set(enumerate_shuffle_words(m, n)) == brute_words(m, n)


def test_enumerate_matches_interleaving_oracle():
    for m in range(4):
        for n in range(4):
            listing = enumerate_shuffle_words(m, n)
            assert len(set(listing)) == len(listing)
            assert set(listing) == interleaving_words(m, n)


def order_oracle(listing):
    """The sort the enumeration once made: by length, then by word."""
    return sorted(listing, key=lambda u: (len(u), u))


def test_enumerate_counts_match_formula():
    # also checks the order, to enumerate these lattices only once
    for m in range(7):
        for n in range(7):
            listing = enumerate_shuffle_words(m, n)
            assert len(listing) == shuffle_word_count(m, n)
            assert listing == order_oracle(listing)
            for a, b in zip(listing, listing[1:]):
                # lengths never fall, and each length block strictly increases
                assert len(a) < len(b) or (len(a) == len(b) and a < b)


def test_enumerate_canonical_order():
    assert [format_word(u) for u in enumerate_shuffle_words(1, 1)] == [
        "e",
        "x1",
        "y1",
        "x1y1",
        "y1x1",
    ]
    assert enumerate_shuffle_words(0, 0) == [()]
    assert len(enumerate_shuffle_words(1, 2)) == 12


def test_enumerate_size_cap():
    with pytest.raises(SizeLimitExceeded) as err:
        enumerate_shuffle_words(3, 3, size_cap=100)
    assert err.value.predicted == shuffle_word_count(3, 3)
    assert "245" in str(err.value)
    # 2^(m+n) words at least; far above the cap the exact count, with its
    # millions of digits, is never made
    with pytest.raises(SizeLimitExceeded) as err:
        enumerate_shuffle_words(99999999, 1)
    assert err.value.predicted is None
    assert str(err.value) == (
        "enumeration would produce at least 2^100000000 words, above the cap of 1000000"
    )
    # within 64 bits of the cap the refusal still names the exact count
    with pytest.raises(SizeLimitExceeded) as err:
        enumerate_shuffle_words(40, 44, size_cap=2**20)
    assert err.value.predicted == shuffle_word_count(40, 44)


def test_a_cap_above_sys_maxsize_counts_as_sys_maxsize():
    # 2^1200 words fit under 10^401, but no list holds that many
    with pytest.raises(SizeLimitExceeded) as err:
        check_size(1200, 0, 10**401)
    assert err.value.predicted is None and err.value.cap == sys.maxsize
    with pytest.raises(SizeLimitExceeded) as err:
        check_size(64, 0, 10**30)
    assert err.value.predicted == 2**64 and err.value.cap == sys.maxsize
    check_size(3, 3, 10**30)


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_shuffle_words(-1, 2),
        lambda: indel_covers(2, -1),
        lambda: build_shuffle_lattice(-1, 2),
        lambda: bubble_covers(-1, 2),
        lambda: m_triangle_brute(-1, 2),
        lambda: h_triangle_brute(-1, 2),
        lambda: m_triangle_interval(-1, 2),
        # a bool size would pass for 1 or 0, and a float one fail in a count
        lambda: enumerate_shuffle_words(True, 1),
        lambda: enumerate_shuffle_words(2.0, 1),
        lambda: indel_covers(1, False),
        lambda: build_shuffle_lattice(1, 1.0),
        lambda: bubble_covers(True, 0),
        lambda: m_triangle_brute(1.0, 1),
        lambda: h_triangle_brute(1, True),
        lambda: m_triangle_interval(2.0, 1),
    ],
    ids=[
        "enumerate",
        "indel_covers",
        "lattice",
        "bubble",
        "brute_m",
        "brute_h",
        "interval",
        "enumerate_bool",
        "enumerate_float",
        "indel_covers_bool",
        "lattice_float",
        "bubble_bool",
        "brute_m_float",
        "brute_h_bool",
        "interval_float",
    ],
)
def test_a_negative_size_is_refused_by_the_size_check(call):
    # each of these calls check_size before any other work
    with pytest.raises(ValueError, match="sizes must be nonnegative"):
        call()


@pytest.mark.parametrize("cap", [2.5, "9", True, -1])
def test_a_size_cap_that_is_not_a_nonnegative_int_is_refused(cap):
    # a float cap failed inside the count, and a bool or negative one
    # refused every size as "above the cap"
    calls = [
        lambda: enumerate_shuffle_words(1, 1, size_cap=cap),
        lambda: indel_covers(1, 1, size_cap=cap),
    ]
    calls += [
        lambda kind=kind, method=method: compute(kind, 1, 1, method, size_cap=cap)
        for (kind, method), (default, _) in ROUTES.items()
        if default is not None
    ]
    for call in calls:
        with pytest.raises(ValueError, match="size cap must be a nonnegative int") as err:
            call()
        assert type(err.value) is ValueError and repr(cap) in str(err.value)


def test_words_share_one_letter_object_per_letter():
    # the enumeration and the successor words hold the objects of the
    # letter tables, so equal letters compare by identity
    m, n = 3, 2
    tables = {family: [s for (s,) in singles(family, k)] for family, k in (("x", m), ("y", n))}
    assert [str(x) for x in tables["x"]] == ["x0", "x1", "x2", "x3", "x4"]
    assert [str(y) for y in tables["y"]] == ["y0", "y1", "y2", "y3"]
    listing = enumerate_shuffle_words(m, n)
    successors = [v for u in listing for v in indel_successors(u, m, n)]
    for word in listing + successors:
        for letter in word:
            assert letter is tables[letter.family][letter.index], word


def test_everything_enumerated_validates():
    for m, n in ((2, 3), (3, 2)):
        for u in enumerate_shuffle_words(m, n):
            assert validate(u, m, n) == u


def test_x_and_y_letters():
    u = w("y1y2x2y3x5x6")
    assert x_letters(u) == w("x2x5x6")
    assert y_letters(u) == w("y1y2y3")


def test_rank():
    assert rank(bottom_word(6), 6) == 0
    assert rank(top_word(3), 6) == 9
    assert rank(w("y1y2x2y3x5x6"), 6) == 6
    for m, n in ((2, 2), (3, 1)):
        for u in enumerate_shuffle_words(m, n):
            assert 0 <= rank(u, m) <= m + n


def test_interval_shape_examples():
    shape = interval_shape(w("x7y2"), 7, 3)
    assert shape.y_count == 1
    assert shape.y_gaps == (1, 1)
    assert shape.x_blocks == (1, 0)

    shape = interval_shape(bottom_word(4), 4, 2)
    assert shape == (0, (4,), (2,))

    shape = interval_shape(top_word(3), 5, 3)
    assert shape.y_count == 3
    assert shape.x_blocks == (0, 0, 0, 0)
    assert shape.y_gaps == (0, 0, 0, 0)


def test_interval_shape_sums():
    for m, n in ((2, 2), (3, 2), (1, 3)):
        for u in enumerate_shuffle_words(m, n):
            shape = interval_shape(u, m, n)
            assert sum(shape.y_gaps) == n - shape.y_count
            assert sum(shape.x_blocks) == len(x_letters(u))
            assert shape.y_count == len(y_letters(u))


def interval_shape_by_comprehension(u, m, n):
    """interval_shape as first written: the chosen y-indices bound the
    gaps, and a second walk counts the x-letters of each block."""
    chosen = [letter.index for letter in u if letter.family == "y"]
    k = len(chosen)
    boundaries = [0] + chosen + [n + 1]
    y_gaps = tuple(boundaries[j + 1] - boundaries[j] - 1 for j in range(k + 1))
    x_blocks = [0] * (k + 1)
    block = 0
    for letter in u:
        if letter.family == "y":
            block += 1
        else:
            x_blocks[block] += 1
    return (k, tuple(x_blocks), y_gaps)


def test_interval_shape_matches_the_comprehension_form():
    for m in range(5):
        for n in range(5):
            for u in enumerate_shuffle_words(m, n):
                assert interval_shape(u, m, n) == interval_shape_by_comprehension(u, m, n), u
