"""The record types: immutable named tuples with stable fields, reprs,
order and JSON.  IntervalShape is the tests' own record, kept to the same
rules."""

import pytest

from order_helpers import IntervalShape
from shuflat.identities import IdentityVerdict
from shuflat.lattices import KIND_INDEL, BubbleCover, DegreeTriple
from shuflat.polyalg import Q, T
from shuflat.words import Letter, parse_word

RECORDS = [
    (Letter("x", 1), ("family", "index")),
    (IntervalShape(1, (0, 1), (0, 0)), ("y_count", "x_blocks", "y_gaps")),
    (BubbleCover((), parse_word("y1"), KIND_INDEL), ("lower", "upper", "kind")),
    (DegreeTriple(3, 2, 1), ("in_total", "in_indel", "in_transpose")),
    (
        IdentityVerdict("demo", (1, 1), True),
        ("name", "params", "passed", "lhs", "rhs", "detail"),
    ),
]


@pytest.mark.parametrize("record, fields", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_fields_and_immutability(record, fields):
    assert type(record)._fields == fields
    assert tuple(getattr(record, f) for f in fields) == tuple(record)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    # no instance dict: an unknown attribute cannot be added either
    with pytest.raises(AttributeError):
        record.extra = None


def test_letter_text_and_order():
    assert repr(Letter("x", 1)) == "Letter(family='x', index=1)"
    assert str(Letter("y", 3)) == "y3"
    assert Letter("x", 1) < Letter("x", 2) < Letter("y", 1)
    assert sorted([Letter("y", 1), Letter("x", 2), Letter("x", 1)]) == [
        Letter("x", 1),
        Letter("x", 2),
        Letter("y", 1),
    ]


def test_verdict_defaults_and_repr():
    verdict = IdentityVerdict("demo", (1, 1), True)
    assert (verdict.lhs, verdict.rhs, verdict.detail) == (None, None, "")
    assert repr(verdict) == (
        "IdentityVerdict(name='demo', params=(1, 1), passed=True, "
        "lhs=None, rhs=None, detail='')"
    )
    assert IdentityVerdict("demo", (1, 1), False, detail="why").detail == "why"


def test_verdict_json_is_unchanged():
    good = IdentityVerdict("demo", (1, 1), True)
    assert good.to_json() == {
        "name": "demo",
        "params": [1, 1],
        "passed": True,
        "lhs": None,
        "rhs": None,
        "detail": "",
    }
    bad = IdentityVerdict("demo", (2, 1), False, Q * T, Q + T, "at q=2, t=3")
    assert bad.to_json() == {
        "name": "demo",
        "params": [2, 1],
        "passed": False,
        "lhs": "q*t",
        "rhs": "t + q",
        "detail": "at q=2, t=3",
    }


def test_verdict_with_polynomial_evidence_hashes():
    bad = IdentityVerdict("demo", (2, 1), False, Q * T, Q + T, "at q=2, t=3")
    same = IdentityVerdict("demo", (2, 1), False, T * Q, T + Q, "at q=2, t=3")
    assert bad == same and hash(bad) == hash(same)
    assert len({bad, same, IdentityVerdict("demo", (1, 1), True)}) == 2
