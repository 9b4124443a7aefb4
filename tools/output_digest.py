"""Hash the command line's outputs over a fixed list of requests.

Two checkouts that print the same total give byte-identical outputs on
every request of the list.  Each request runs in process through
``shuflat.cli.run``; its exit code, stdout and stderr, and the report
file that ``verify --json`` or ``-o`` writes, are hashed together.  Each
command that has a size cap is also asked once for more than its cap
allows, so its refusal (exit 3) is hashed too.  One sha256 is printed
per request, then one over them all:

    python tools/output_digest.py [--src DIR]

``--src`` names the directory that holds the ``shuflat`` package to
import, by default ``src`` beside this script's parent; the first line
printed says which package was imported.  Standard library only.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

#: stands for the path of the report file in a request
REPORT = "REPORT"


def requests():
    """The fixed request list, each an argv list."""
    from shuflat import triangles

    small = [(m, n) for m in range(5) for n in range(5)]
    out = [["verify", "--suite", "all"], ["verify", "--suite", "all", "--json", REPORT]]
    # each suite at bounds that are not its defaults, text and report
    for suite, *bounds in (
        ("identities", "--max-m", "0", "--max-n", "0"),
        ("identities", "--max-m", "2", "--max-n", "1"),
        ("identities", "--max-m", "6", "--max-n", "0"),  # tall tables
        ("relations", "--max-m", "2", "--max-n", "1"),
        ("methods", "--max-m", "1", "--max-n", "2", "--series-max", "3"),
    ):
        argv = ["verify", "--suite", suite, *bounds]
        out += [argv, argv + ["--json", REPORT]]
    out.append(["verify", "--suite", "methods", "--max-m", "5", "--max-n", "5"])  # a refusal: exit 3
    for kind, method in triangles.ROUTES:
        for m, n in small:
            argv = [kind, str(m), str(n), "--method", method, "--force"]
            out += [argv, argv + ["--json"]]
    for m in range(7):
        for n in range(7):
            argv = ["series", str(m), str(n)]
            out += [argv, argv + ["--json"]]
    for m in range(4):
        for n in range(4):
            for order in ("shuf", "bub"):
                for form in ("dot", "text", "json"):
                    out.append(["hasse", str(m), str(n), "--order", order, "--format", form])
            out += [["enumerate", str(m), str(n)], ["enumerate", str(m), str(n), "--json"]]
    out.append(["chpoly", "1", "x"])  # a usage error: exit 2
    # refusals, exit 3: at a cap given, and at each capped route's default
    out.append(["enumerate", "4", "4", "--size-cap", "1"])
    out += [["hasse", "4", "4", "--order", order, "--size-cap", "1"] for order in ("shuf", "bub")]
    out += [
        ["mtriangle", "5", "4", "--method", "brute"],
        ["htriangle", "5", "4", "--method", "brute"],
        ["chpoly", "5", "4", "--method", "brute"],
        ["mtriangle", "6", "6", "--method", "interval"],
    ]
    out += [["series", "3", "2", "-o", REPORT], ["mtriangle", "2", "2", "--method", "formula", "-o", REPORT]]
    return out


def digest(argv, workdir):
    """The sha256 of one request's exit code, stdout, stderr and report file."""
    from shuflat import cli

    report = Path(workdir) / "report.json"
    writes_report = REPORT in argv
    argv = [str(report) if arg == REPORT else arg for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(argv)
    parts = [str(code).encode(), stdout.getvalue().encode(), stderr.getvalue().encode()]
    if writes_report:
        parts.append(report.read_bytes() if report.exists() else b"")
        report.unlink(missing_ok=True)
    h = hashlib.sha256()
    for part in parts:
        h.update(b"%d:" % len(part) + part)  # length-framed, so parts cannot run together
    return h.hexdigest()


def digests(argvs):
    """[(request text, sha256)] of each request, then ("total", sha256 of
    those).  Help and usage text wrap at 80 columns and no size cap comes
    from the environment, whatever the caller's settings."""
    with mock.patch.dict(os.environ, COLUMNS="80"), tempfile.TemporaryDirectory() as workdir:
        os.environ.pop("SHUF_SIZE_CAP", None)  # patch.dict puts it back
        rows = [(" ".join(argv), digest(argv, workdir)) for argv in argvs]
    total = hashlib.sha256("".join(h for _, h in rows).encode()).hexdigest()
    return rows + [(f"total ({len(rows)} requests)", total)]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args(argv[1:])
    sys.path.insert(0, str(Path(args.src).resolve()))
    import shuflat

    print(f"shuflat from {Path(shuflat.__file__).parent}")
    for text, h in digests(requests()):
        print(f"{h}  {text}")


if __name__ == "__main__":
    main(sys.argv)
