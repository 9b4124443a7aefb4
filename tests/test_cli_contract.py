"""The exit-code contract of ``shuflat.cli.run`` on bounded requests.

Every command, method and flag is drawn, at sizes whose work is small:
m, n <= 3 (plus -1), verify bounds <= 1 and --series-max <= 2.  Every
request must end in exit 0, 1, 2 or 3 with no traceback; a refusal or a
usage error writes nothing to stdout; JSON output and the verify report
parse and carry the schema; and -o writes exactly the bytes that stdout
would, leaving stdout empty.  The unbounded sizes (a huge m, or a cap
that lets a huge enumeration run) are not drawn here.
"""

import contextlib
import io
import json
import os
import tempfile

import hypothesis
from hypothesis import strategies as st

from shuflat import cli, identities, triangles

# Repeated entries weight the draws towards requests that get past the
# parser, so that exits 0 and 3 are drawn about as often as exit 2.
SIDES = st.sampled_from(["0", "1", "2", "3"] * 2 + ["-1"])
VERIFY_BOUNDS = st.sampled_from(["0", "1"] * 2 + ["-1"])
SERIES_MAX = st.sampled_from(["0", "1", "2"] * 2 + ["-1"])
SIZE_CAPS = st.sampled_from(["-1", "0", "1", str(10**6)])
ENV_CAPS = st.sampled_from([None] * 3 + ["5", "abc", "-1"])
# where -o or the verify report goes: nowhere, a file, or a missing directory
TARGETS = st.sampled_from([None, "out", "out", "missing/out"])


def maybe(flag, values):
    """[] or [flag, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def switch(flag):
    return st.sampled_from([[], [flag]])


def requests():
    """(argv without -o or a report, -o target, verify report target)."""
    mn = st.tuples(SIDES, SIDES).map(list)
    cap = maybe("--size-cap", SIZE_CAPS)
    commands = [
        st.tuples(st.just(["enumerate"]), mn, switch("--json"), cap),
        st.tuples(
            st.just(["hasse"]),
            mn,
            maybe("--order", st.sampled_from(["shuf", "bub"])),
            maybe("--format", st.sampled_from(["dot", "text", "json"])),
            cap,
        ),
        st.tuples(st.just(["series"]), mn, switch("--json")),
    ]
    commands += [
        st.tuples(
            st.just([kind]),
            mn,
            maybe("--method", st.sampled_from([*methods, "nosuch"])),
            switch("--json"),
            cap,
            switch("--force"),
        )
        for kind, methods in triangles.METHODS.items()
    ]
    # every command but verify takes -o
    with_output = st.tuples(st.one_of(commands).map(lambda parts: sum(parts, [])), TARGETS)
    verify = st.tuples(
        maybe("--suite", st.sampled_from([*identities.SUITES, "all"])),
        VERIFY_BOUNDS,
        VERIFY_BOUNDS,
        SERIES_MAX,
    ).map(
        lambda p: ["verify", *p[0], "--max-m", p[1], "--max-n", p[2], "--series-max", p[3]]
    )
    return st.one_of(
        with_output.map(lambda p: (p[0], p[1], None)),
        st.tuples(verify, TARGETS).map(lambda p: (p[0], None, p[1])),
    )


def call(argv, env_cap):
    """(exit code, stdout, stderr) of one in-process run with SHUF_SIZE_CAP
    set to env_cap, or unset for None."""
    saved = os.environ.pop("SHUF_SIZE_CAP", None)
    if env_cap is not None:
        os.environ["SHUF_SIZE_CAP"] = env_cap
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    finally:
        os.environ.pop("SHUF_SIZE_CAP", None)
        if saved is not None:
            os.environ["SHUF_SIZE_CAP"] = saved
    return code, out.getvalue(), err.getvalue()


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@hypothesis.seed(15)
@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(requests(), ENV_CAPS)
@hypothesis.example((["enumerate", "3", "3", "--json"], "out", None), "5")
@hypothesis.example((["hasse", "2", "2", "--format", "json"], "out", None), None)
@hypothesis.example((["series", "1", "2"], "missing/out", None), None)
@hypothesis.example((["mtriangle", "1", "1", "--method", "nosuch"], None, None), None)
@hypothesis.example((["chpoly", "3", "3", "--method", "brute", "--json"], "out", None), "5")
@hypothesis.example(
    (["verify", "--suite", "methods", "--max-m", "1", "--max-n", "0", "--series-max", "2"],
     None, "out"),
    "abc",
)
@hypothesis.example(
    (["verify", "--max-m", "0", "--max-n", "0", "--series-max", "0"], None, "missing/out"), None
)
def test_every_bounded_request_keeps_the_exit_code_contract(request, env_cap):
    argv, target, report = request
    # hasse's --format json is the one JSON output not asked for by --json
    wants_json = "--json" in argv or "json" in argv
    with tempfile.TemporaryDirectory() as tmp:
        full = list(argv)
        if target is not None:
            out_path = os.path.join(tmp, target)
            full += ["-o", out_path]
        if report is not None:
            report_path = os.path.join(tmp, report)
            full += ["--json", report_path]
        code, out, err = call(full, env_cap)

        assert code in (0, 1, 2, 3), (full, code, err)
        assert "Traceback" not in err
        if code not in (0, 1):
            assert out == ""
        if target is not None:
            assert out == ""
            if code == 0:
                # the same request without -o writes the same bytes to stdout
                ref_code, ref_out, _ = call(argv, env_cap)
                assert ref_code == 0
                assert read(out_path) == ref_out.encode()
                out = ref_out
        if code == 0 and wants_json:
            assert json.loads(out)["schema"] == 1
        if report is not None and code in (0, 1):
            assert json.loads(read(report_path))["schema"] == 1
