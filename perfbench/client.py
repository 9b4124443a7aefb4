"""One closed-loop client: a fresh interpreter that sends one pass of
requests through ``shuflat.cli.run`` in-process, one after another.

Reads a JSON job from stdin and prints one JSON line to stdout.  The job
is either ``{"setup_only": true}`` (import and exit, for a set-up time
sample) or ``{"requests": [...], "trace": bool}``.  Each request's
stdout is captured in memory and checked against the reference table
after its timer has stopped.

Run by ``perfbench/run.py``; not meant to be started by hand.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
sys.path.insert(0, _SRC)
import shuflat.cli  # noqa: E402  (set-up ends once this import is done)

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import request_key  # noqa: E402

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# glibc keeps freed heap pages; returning them between requests makes the
# peak RSS of a pass independent of the order its requests came in.
_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None)


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)["entries"]


def check(argv, code, text, reference):
    """None when the output is right, else what is wrong with it."""
    entry = reference.get(request_key(argv))
    if entry is None:
        return "request outside the reference table"
    if code != 0:
        return f"exit code {code}"
    if "verdicts" in entry:
        n = entry["verdicts"]
        last = text.rstrip("\n").rsplit("\n", 1)[-1]
        if last != f"{n}/{n} checks passed":
            return f"verdict line {last!r}, expected {n}/{n}"
    if hashlib.sha256(text.encode()).hexdigest() != entry["sha256"]:
        return "stdout digest differs from the reference"
    return None


def _calibration_slice():
    start = time.perf_counter_ns()
    terms = {}
    mask = 0
    for i in range(3000):
        key = (i & 15, i >> 4)
        terms[key] = terms.get(key, 0) + i * i
        mask |= (mask >> 3) ^ (1 << (i % 1500))
    return time.perf_counter_ns() - start


def calibrate():
    """Time a fixed slice of interpreter work: dict and tuple traffic with
    small-int arithmetic, as in polynomial products, and big-int bit
    operations, as in the poset bitsets.  Run next to every request, it
    gives the shared CPU's speed at that moment; the median of three
    slices ignores an interrupt that hits one of them."""
    return sorted(_calibration_slice() for _ in range(3))[1]


def run_stream(requests, reference):
    """Send each request after the previous one returned.

    Returns (latencies_ns, calibrations_ns, failures).  Only the
    ``cli.run`` call is timed; the output check, a garbage collection, a
    heap trim and a calibration between requests are not.
    ``calibrations_ns`` has one more entry than there are requests: the
    ones before and after each.  A request that raises is a failure.
    """
    latencies = []
    calibrations = [calibrate()]
    failures = []
    for argv in requests:
        gc.collect()
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)
        out, err = io.StringIO(), io.StringIO()
        crash = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                code = shuflat.cli.run(list(argv))
            except Exception as exc:  # the run goes on; the request failed
                crash = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter_ns() - start
        latencies.append(elapsed)
        calibrations.append(calibrate())
        problem = crash or check(argv, code, out.getvalue(), reference)
        if problem is not None:
            failures.append([list(argv), problem])
    return latencies, calibrations, failures


def _owned_by_checkout():
    return os.path.dirname(os.path.abspath(shuflat.cli.__file__)) == os.path.join(
        _SRC, "shuflat"
    )


def main():
    if not _owned_by_checkout():
        sys.stderr.write(f"shuflat was imported from {shuflat.cli.__file__}, not {_SRC}\n")
        return 2
    job = json.load(sys.stdin)
    if job.get("setup_only"):
        print(json.dumps({"ready": READY, "calibration_ns": calibrate()}))
        return 0
    reference = load_reference()
    tracer = None
    if job["trace"]:
        from trace_layers import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        latencies, calibrations, failures = run_stream(job["requests"], reference)
    finally:
        if tracer is not None:
            tracer.restore()
    result = {
        "ready": READY,
        "latencies_ns": latencies,
        "calibrations_ns": calibrations,
        "failures": failures,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layer_calls"] = tracer.layer_calls()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
