"""Command line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error (also a
negative bound or cap, and an output file that cannot be written, in
which case stdout stays empty), 3 size-cap refusal, 4 internal error
(any other exception: one ``internal error:`` line, no traceback).  The
environment variable SHUF_SIZE_CAP overrides the default size cap of
enumerate, hasse and the triangle routes that read a cap (those whose
triangles.ROUTES entry carries one); an explicit --size-cap wins over
both, and --force wins over all three.  verify and series read neither.
All output is deterministic: repeated runs are byte-identical.

``run`` may be called any number of times in one process.  The argparse
tree is built once, on the first call, and reused: every default in it
is immutable and each call parses into a fresh namespace, so no call
leaves state for the next, and help text still wraps to the terminal
width at the time of the call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import identities, lattices, triangles, words
from .words import SizeLimitExceeded

SCHEMA_VERSION = 1


class UsageError(Exception):
    """A bad argument or environment setting: exit 2."""


def _nonneg(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _size_cap(args, fallback):
    """The size cap of a command: --force lifts it to the enumeration
    cap, else --size-cap, else SHUF_SIZE_CAP, else ``fallback``."""
    if getattr(args, "force", False):
        return words.DEFAULT_SIZE_CAP
    if args.size_cap is not None:
        return args.size_cap
    env = os.environ.get("SHUF_SIZE_CAP")
    if env is None:
        return fallback
    try:
        cap = int(env)
    except ValueError:
        raise UsageError("SHUF_SIZE_CAP must be an integer") from None
    if cap < 0:
        raise UsageError("SHUF_SIZE_CAP must be nonnegative")
    return cap


def _add_mn(parser):
    parser.add_argument("m", type=_nonneg)
    parser.add_argument("n", type=_nonneg)


@functools.cache
def _parser():
    parser = argparse.ArgumentParser(
        prog="shuflat",
        description="Shuffle and bubble lattices: triangles, series, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all shuffle words in canonical order")
    _add_mn(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.add_argument("--size-cap", type=_nonneg, default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("hasse", help="export the cover digraph")
    _add_mn(p)
    p.add_argument("--order", choices=("shuf", "bub"), default="shuf")
    p.add_argument("--format", choices=("dot", "text", "json"), default="dot")
    p.add_argument("-o", "--output")
    p.add_argument("--size-cap", type=_nonneg, default=None)
    p.set_defaults(func=_cmd_hasse)

    for kind, methods in triangles.METHODS.items():
        p = sub.add_parser(kind, help=f"compute the {kind} of Shuf(m,n)")
        _add_mn(p)
        p.add_argument("--method", choices=methods, default="formula")
        p.add_argument("--json", action="store_true")
        p.add_argument("-o", "--output")
        p.add_argument("--size-cap", type=_nonneg, default=None)
        p.add_argument(
            "--force",
            action="store_true",
            help="lift the brute-force size cap to the enumeration cap",
        )
        p.set_defaults(func=_cmd_triangle)

    p = sub.add_parser("series", help="generating-series coefficients up to (M, N)")
    p.add_argument("max_m", type=_nonneg, metavar="M")
    p.add_argument("max_n", type=_nonneg, metavar="N")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument(
        "--suite",
        choices=(*identities.SUITES, "all"),
        default="all",
    )
    p.add_argument("--max-m", type=_nonneg, default=None)
    p.add_argument("--max-n", type=_nonneg, default=None)
    p.add_argument("--series-max", type=_nonneg, default=identities.SERIES_BOUND)
    p.add_argument("--json", metavar="REPORT", help="also write a JSON report")
    p.set_defaults(func=_cmd_verify)
    return parser


def _emit(text, output):
    if not text.endswith("\n"):
        text += "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _envelope(payload):
    """The JSON text of a payload: every JSON output carries the schema.
    json is imported here, the one place that uses it, so that commands
    writing text do not load it."""
    import json

    return json.dumps({"schema": SCHEMA_VERSION, **payload}, indent=2)


def _cmd_enumerate(args):
    cap = _size_cap(args, words.DEFAULT_SIZE_CAP)
    listing = words.enumerate_shuffle_words(args.m, args.n, cap)
    rendered = [words.format_word(w) for w in listing]
    _emit(
        _envelope({"m": args.m, "n": args.n, "count": len(rendered), "words": rendered})
        if args.json else "\n".join(rendered),
        args.output,
    )
    return 0


def _cmd_hasse(args):
    cap = _size_cap(args, words.DEFAULT_SIZE_CAP)
    m, n, bub = args.m, args.n, args.order == "bub"
    # nodes are (word, rank), edges (lower, upper, kind or None); every
    # format renders these two lists.  Each word's covers are in
    # enumeration order, length then lexicographic, as in
    # lattices.bubble_covers: upper_bubble_covers sorts them so, and
    # indel_covers numbers the words in that order, so its numbers sort
    # as they are.  The words are enumerated once, for both lists.
    listing = words.enumerate_shuffle_words(m, n, cap)
    names = [words.format_word(w) for w in listing]
    nodes = [(name, words.rank(w, m)) for name, w in zip(names, listing)]
    if bub:
        name = dict(zip(listing, names))
        edges = [
            (name[u], name[upper], kind)
            for u in listing
            for upper, kind in lattices.upper_bubble_covers(u, m, n)
        ]
    else:
        upper, _ = lattices.indel_covers(m, n, cap)
        edges = []
        for u, up in enumerate(upper):
            upper[u] = None  # the edges reuse the memory of the covers
            edges += [(names[u], names[v], None) for v in sorted(up)]

    def text():
        if args.format == "text":
            return "\n".join(
                f"{lo} -> {hi}" + (f" [{kind}]" if kind else "")
                for lo, hi, kind in edges
            )
        lines = ["digraph hasse {"]
        lines += [f'  "{w}" [rank={r}];' for w, r in nodes]
        lines += [
            f'  "{lo}" -> "{hi}"' + (f" [kind={kind}]" if kind else "") + ";"
            for lo, hi, kind in edges
        ]
        lines.append("}")
        return "\n".join(lines)

    _emit(
        _envelope({
            "m": args.m,
            "n": args.n,
            "order": args.order,
            "nodes": [{"word": w, "rank": r} for w, r in nodes],
            "edges": [
                {"lower": lo, "upper": hi, **({"kind": kind} if kind else {})}
                for lo, hi, kind in edges
            ],
        }) if args.format == "json" else text(),
        args.output,
    )
    return 0


def _cmd_triangle(args):
    cap, _ = triangles.ROUTES[(args.command, args.method)]
    # a route that reads no cap leaves --size-cap and SHUF_SIZE_CAP unread
    if cap is not None:
        cap = _size_cap(args, cap)
    value = triangles.compute(args.command, args.m, args.n, args.method, cap)
    _emit(
        _envelope({
            "kind": args.command,
            "m": args.m,
            "n": args.n,
            "method": args.method,
            "terms": value.to_json_terms(),
        }) if args.json else str(value),
        args.output,
    )
    return 0


def _cmd_series(args):
    # each cell is read straight into the form that is written, and a
    # mirror cell is the same text or term list as its pair
    series = triangles.m_series(args.max_m, args.max_n, reader="json" if args.json else "text")
    cells = [
        (i, j, series.coefficient(i, j))
        for i in range(args.max_m + 1)
        for j in range(args.max_n + 1)
    ]
    # the text's pieces are joined in place: a line formatted around a
    # shared text would copy it once per mirror cell
    _emit(
        _envelope({
            "max_m": args.max_m,
            "max_n": args.max_n,
            "coefficients": [{"m": i, "n": j, "terms": terms} for i, j, terms in cells],
        }) if args.json else "".join(
            [piece for i, j, text in cells for piece in (f"({i},{j}): ", text, "\n")]
        ),
        args.output,
    )
    return 0


def emit_report(verdicts, notes=()):
    """Human report of the verdicts in the order they are given, then the
    notes; returns (text, number_of_failures)."""
    lines = []
    for v in verdicts:
        status = "PASS" if v.passed else "FAIL"
        line = f"{status} {v.name} {v.params}"
        if not v.passed:
            line += f"\n  lhs: {v.lhs}\n  rhs: {v.rhs}"
            if v.detail:
                line += f"\n  {v.detail}"
        lines.append(line)
    for note in notes:
        lines.append(f"NOTE {note}")
    failed = sum(1 for v in verdicts if not v.passed)
    lines.append(f"{len(verdicts) - failed}/{len(verdicts)} checks passed")
    return "\n".join(lines) + "\n", failed


def _cmd_verify(args):
    names = list(identities.SUITES) if args.suite == "all" else [args.suite]
    verdicts = identities.run_suites(names, args.max_m, args.max_n, args.series_max)
    notes = [v.detail for v in verdicts if v.name == identities.ADJUDICATION]
    # one order, by (name, params), for the text and the JSON report
    verdicts.sort(key=lambda v: (v.name, v.params))
    text, failed = emit_report(verdicts, notes)
    # the report file first: a path that cannot be written leaves stdout empty
    if args.json:
        report = {
            "suites": names,
            "passed": failed == 0,
            "notes": notes,
            "verdicts": [v.to_json() for v in verdicts],
        }
        _emit(_envelope(report), args.json)
    _emit(text, None)
    return 0 if failed == 0 else 1


def run(argv=None) -> int:
    """Parse and execute; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except SizeLimitExceeded as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return 3
    except (UsageError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"internal error: {exc!r}\n")
        return 4


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
