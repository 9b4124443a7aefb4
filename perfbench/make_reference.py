"""Build reference.json: the stdout digest of every request any seed can send.

    python3 perfbench/make_reference.py

A digest is recorded only after two independent routes agree:

* mtriangle: every route the workloads draw for that (m, n), plus the
  closed formula and the composition sum, print the same bytes; brute
  force and the interval decomposition join in up to (5,5);
* htriangle: formula equals brute force up to (5,5); beyond, the
  substitution relation M(q,t) = (1-t)^(m+n) H(t(q-1)/(1-t), q/(q-1))
  holds at sample points, with M from the composition sum;
* chpoly: formula equals brute force up to (5,5), and always equals
  M(0, q) with M from the composition sum;
* series M N: every printed coefficient equals the composition sum;
* verify: the report passes every check (exit 0, "N/N checks passed"),
  and N is stored with the digest.

Takes about a minute; rerun it whenever a workload's request set changes.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from shuflat import cli, triangles  # noqa: E402
from workloads import WORKLOADS, request_key  # noqa: E402

ORACLE_MAX = 5
SAMPLE_POINTS = ((2, 3), (5, 7), (11, 4))


def stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return out.getvalue()


_compsum = {}


def compsum(m, n):
    if (m, n) not in _compsum:
        _compsum[(m, n)] = triangles.m_triangle_composition_sum(m, n)
    return _compsum[(m, n)]


def agree(key, outputs):
    texts = set(outputs.values())
    if len(outputs) < 2 or len(texts) != 1:
        raise SystemExit(f"{key}: routes disagree or too few: {sorted(outputs)}")
    return texts.pop()


def h_relation_holds(m, n):
    """M(q,t) = (1-t)^(m+n) H(t(q-1)/(1-t), q/(q-1)) at sample points,
    with M from the composition sum and H from the closed formula."""
    h = triangles.h_triangle_formula(m, n)
    return all(
        compsum(m, n).evaluate(q0, t0)
        == (1 - t0) ** (m + n)
        * h.evaluate(Fraction(t0 * (q0 - 1), 1 - t0), Fraction(q0, q0 - 1))
        for q0, t0 in SAMPLE_POINTS
    )


def triangle_text(kind, m, n, drawn):
    methods = set(drawn) | {"formula"}
    if m <= ORACLE_MAX and n <= ORACLE_MAX:
        methods.add("interval" if kind == "mtriangle" else "brute")
        if kind == "mtriangle" and m + n <= 9:
            methods.add("brute")
    outputs = {
        method: stdout_of([kind, str(m), str(n), "--method", method, "--force"])
        for method in sorted(methods)
    }
    if kind == "mtriangle":
        outputs["compsum-direct"] = str(compsum(m, n)) + "\n"
    elif kind == "chpoly":
        outputs["M(0,q)"] = str(compsum(m, n).subs_q(0).swap_vars()) + "\n"
    elif not h_relation_holds(m, n):
        raise SystemExit(f"htriangle {m} {n}: substitution relation fails")
    elif "brute" not in outputs:
        # beyond brute range the relation above is the second route
        outputs["relation"] = outputs["formula"]
    return agree((kind, m, n), outputs)


def series_text(max_m, max_n):
    expected = "\n".join(
        f"({i},{j}): {compsum(i, j)}" for i in range(max_m + 1) for j in range(max_n + 1)
    ) + "\n"
    return agree(("series", max_m, max_n), {
        "series": stdout_of(["series", str(max_m), str(max_n)]),
        "compsum": expected,
    })


def main():
    drawn = {}
    for workload in WORKLOADS.values():
        for argv in workload.requests:
            entry = drawn.setdefault(request_key(argv), [argv, set()])
            if argv[0] in ("mtriangle", "htriangle", "chpoly"):
                entry[1].add(argv[4])
    entries = {}
    for key in sorted(drawn):
        argv, methods = drawn[key]
        head = argv[0]
        if head in ("mtriangle", "htriangle", "chpoly"):
            text = triangle_text(head, int(argv[1]), int(argv[2]), methods)
            entries[key] = {"sha256": hashlib.sha256(text.encode()).hexdigest()}
        elif head == "series":
            text = series_text(int(argv[1]), int(argv[2]))
            entries[key] = {"sha256": hashlib.sha256(text.encode()).hexdigest()}
        else:
            text = stdout_of(argv)
            last = text.rstrip("\n").rsplit("\n", 1)[-1]
            passed, total = last.split()[0].split("/")
            if passed != total or int(total) == 0:
                raise SystemExit(f"{key}: {last}")
            entries[key] = {
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "verdicts": int(total),
            }
        print(key, file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"schema": 1, "entries": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(entries)} entries", file=sys.stderr)


if __name__ == "__main__":
    main()
