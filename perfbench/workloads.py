"""Seeded request streams for the three benchmark workloads.

A workload is a fixed set of requests.  A pass sends every one of them
once, in an order drawn from the seed: requests are drawn without
replacement, so a result cache inside the program cannot turn a pass
into lookups.  Every seed sends the same work in a different order, so
the figures of different seeds compare; (m, n) and (n, m) are both
sent because most routes cost differently in the two orientations.

The program only ever sees the generated argv lists.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

LAYERS = ("cli", "triangles", "identities", "lattices", "poset", "words", "polyalg")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    requests: tuple  # argv tuples, each sent once per pass
    active: tuple  # layers the traced run must see called
    idle: tuple  # layers predicted to do nothing
    pass_seconds: float  # nominal time of one pass at the defining commit


def _grid(argv_of, sizes, keep=lambda m, n: True):
    return [argv_of(m, n) for m in sizes for n in sizes if keep(m, n)]


def _triangle(kind, method, force=False):
    extra = ("--force",) if force else ()

    def argv_of(m, n):
        return (kind, str(m), str(n), "--method", method) + extra

    return argv_of


def _series(m, n):
    return ("series", str(m), str(n))


def _verify(suite, series_max=None):
    def argv_of(a, b):
        argv = ("verify", "--suite", suite, "--max-m", str(a), "--max-n", str(b))
        if series_max is not None:
            argv += ("--series-max", str(series_max))
        return argv

    return argv_of


# Lattice routes on Shuf(m, n) for m, n <= 5.  The brute routes stay at
# m + n <= 9: (5,5) has 14k words, and its Mobius recursion runs for minutes.
_SMALL = range(6)
_BRUTE = lambda m, n: m + n <= 9  # noqa: E731
_ORACLE = (
    _grid(_triangle("mtriangle", "brute", True), _SMALL, _BRUTE)
    + _grid(_triangle("mtriangle", "interval", True), _SMALL)
    + _grid(_triangle("htriangle", "brute", True), _SMALL, _BRUTE)
    + _grid(_triangle("chpoly", "brute", True), _SMALL, _BRUTE)
)

# Closed forms and series extraction up to (20, 20).
_LARGE = (5, 10, 15, 20)
_CLOSED = (
    _grid(_triangle("mtriangle", "formula"), _LARGE)
    + _grid(_triangle("mtriangle", "compsum"), _LARGE)
    + _grid(_triangle("mtriangle", "series"), _LARGE)
    + _grid(_triangle("htriangle", "formula"), _LARGE)
    + _grid(_triangle("chpoly", "formula"), _LARGE)
    + _grid(_series, _LARGE)
)

# The verify suites up to their default bounds, with enough mid-sized
# requests that the median request is not alone in its cost range.
_VERIFY = (
    _grid(_verify("identities"), (1, 3))
    + [_verify("identities")(6, 6)]
    + _grid(_verify("relations"), (0, 2, 4, 6))
    + _grid(_verify("relations"), (1, 3, 5))
    + [argv for s in (2, 5, 8) for argv in _grid(_verify("methods", s), (0, 2, 4))]
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "oracle",
            "lattice routes up to (5,5), brute M, H and ch at m+n<=9: "
            "time goes to words, lattices and poset, almost none to polyalg",
            tuple(_ORACLE),
            active=("cli", "triangles", "words", "lattices", "poset", "polyalg"),
            idle=("identities",),
            pass_seconds=9,
        ),
        Workload(
            "closed",
            "closed forms, composition sum and series up to (20,20): large "
            "polyalg products and series reciprocals, no lattice is built",
            tuple(_CLOSED),
            active=("cli", "triangles", "polyalg"),
            idle=("identities", "lattices", "poset", "words"),
            pass_seconds=5.5,
        ),
        Workload(
            "verify",
            "verify suites up to their default bounds: many small lattices and "
            "over a million tiny polyalg products, so per-call overhead shows",
            tuple(_VERIFY),
            active=LAYERS,
            idle=(),
            pass_seconds=10,
        ),
    )
}


def requests(workload, seed):
    """The argv lists of one pass: every request once, in seeded order."""
    picked = [list(argv) for argv in WORKLOADS[workload].requests]
    random.Random(f"{workload}:{seed}").shuffle(picked)
    return picked


def request_key(argv):
    """Reference-table key of a request; triangle methods share one key,
    since every route must print the same polynomial."""
    head = argv[0]
    if head in ("mtriangle", "htriangle", "chpoly", "series"):
        return f"{head} {argv[1]} {argv[2]}"
    if head == "verify":
        opts = dict(zip(argv[1::2], argv[2::2]))
        return (
            f"verify {opts['--suite']} {opts['--max-m']} {opts['--max-n']} "
            f"{opts.get('--series-max', '-')}"
        )
    raise ValueError(f"no reference key for {argv!r}")


def stream_hash(stream):
    """sha256 of a request stream, to show two runs sent identical inputs."""
    blob = json.dumps(stream, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
