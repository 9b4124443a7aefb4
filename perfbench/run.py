"""The shuflat benchmark: one command that prints every metric and checks
every output.

    python3 perfbench/run.py --workload oracle|closed|verify --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
A run sends the workload's seeded request stream several times, each
pass from a fresh interpreter (perfbench/client.py) acting as a single
closed-loop client through ``shuflat.cli.run``, so no in-process cache
survives from one pass to the next.  The number of passes is fixed by
--seconds and the workload's nominal pass time, so a given (workload,
seed, seconds) always sends the same requests.  Times are in reference
seconds (see CALIBRATION_NS).

--trace 0 prints the end-to-end metrics; --trace 1 sends each pass once
untraced and once traced and prints the per-layer metrics.  The last
line of stdout is the JSON result; the exit code is 0 only when every
output matched the reference table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, requests, stream_hash  # noqa: E402

CLIENT = os.path.join(HERE, "client.py")
SETUP_SAMPLES = 9  # set-up-only interpreters per run, besides the passes
# Median time of client.calibrate() on the reference machine (Intel Xeon
# at 2.0 GHz, Python 3.11.7).  Times are reported in reference seconds:
# measured time scaled by CALIBRATION_NS over the calibration measured
# next to it, which cancels the speed changes of a shared CPU.
CALIBRATION_NS = 1_100_000
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "case_p50_ms": "ms",
    "case_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class PassFailed(RuntimeError):
    pass


def _child_env():
    """Clients run with -S (no site hooks of the host Python) and cached
    bytecode, so set-up time is the program's own import, as for an
    installed package; the untimed warm-up start writes the caches."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"  # same set/dict layout in every pass
    return env


def _spawn(job, deadline):
    """Run one client; returns (seconds from spawn to import done, result)."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, "-S", CLIENT],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=_child_env(),
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise PassFailed("client did not finish before the run deadline") from None
    if proc.returncode != 0:
        raise PassFailed(f"client exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    first_calibration = result.get("calibration_ns") or result["calibrations_ns"][0]
    return (result["ready"] - spawned) * CALIBRATION_NS / first_calibration, result


def reference_ms(result):
    """Request times in reference milliseconds: each scaled by the mean of
    the calibrations just before and just after it."""
    cal = result["calibrations_ns"]
    return [
        t * 2e-6 * CALIBRATION_NS / (cal[i] + cal[i + 1])
        for i, t in enumerate(result["latencies_ns"])
    ]


def tail(sorted_values):
    """(value, percentile, beyond): the highest percentile that leaves at
    least ten values beyond it, i.e. the 11th largest value."""
    beyond = min(10, len(sorted_values) - 1)
    count = len(sorted_values)
    return sorted_values[count - 1 - beyond], 100 * (count - beyond) / count, beyond


def _environment():
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _print_table(metrics):
    for name, entry in metrics.items():
        print(f"{name:<34} {entry['value']:>14.6g} {entry['unit']}")


def measure(workload, seed, seconds, trace):
    """Run the passes; returns (metrics, attempted, failures, detail)."""
    spec = WORKLOADS[workload]
    deadline = time.monotonic() + DEADLINE_S
    passes = max(1, round(seconds / spec.pass_seconds))
    if trace:
        passes = max(1, passes // 2)
    stream = requests(workload, seed)
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "passes": passes,
        "requests_per_pass": len(stream),
        "request_hash": stream_hash(stream),
        **_environment(),
    }
    failures = []
    attempted = 0
    _spawn({"setup_only": True}, deadline)  # compiles bytecode; not timed

    untraced = []
    traced = []
    setups = []
    for _ in range(passes):
        attempted += len(stream)
        try:
            setup, result = _spawn({"requests": stream, "trace": False}, deadline)
            setups.append(setup)
            untraced.append(result)
            failures += result["failures"]
            if trace:
                attempted += len(stream)
                _, result = _spawn({"requests": stream, "trace": True}, deadline)
                traced.append(result)
                failures += result["failures"]
        except PassFailed as exc:
            failures.append([None, str(exc)])
            return None, attempted, failures, detail

    walls = [sum(reference_ms(r)) * 1e-3 for r in untraced]
    detail["measured_wall_s"] = [sum(r["latencies_ns"]) * 1e-9 for r in untraced]
    if trace:
        traced_walls = [sum(reference_ms(r)) * 1e-3 for r in traced]
        calls = {}
        for r in traced:
            for layer, n in r["layer_calls"].items():
                calls[layer] = calls.get(layer, 0) + n
        detail["layer_calls"] = calls
        detail["silent_layers"] = [layer for layer in spec.active if not calls.get(layer)]
        metrics = {}
        for name in traced[0]["layers"]:
            value = sum(r["layers"][name] for r in traced) / len(traced)
            metrics[name] = {"value": value, "unit": layer_unit(name)}
        metrics["trace.overhead_frac"] = {
            "value": sum(traced_walls) / sum(walls) - 1,
            "unit": "fraction",
        }
        return metrics, attempted, failures, detail

    for _ in range(SETUP_SAMPLES):
        setups.append(_spawn({"setup_only": True}, deadline)[0])
    latencies = sorted(ms for r in untraced for ms in reference_ms(r))
    tail_ms, detail["tail_percentile"], detail["tail_requests_beyond"] = tail(latencies)
    detail["setup_samples"] = len(setups)
    values = {
        "wall_s": statistics.median(walls),
        "case_p50_ms": statistics.median(latencies),
        "case_tail_ms": tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["maxrss_kib"] for r in untraced) / 1024,
    }
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    return metrics, attempted, failures, detail


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "shuflat", "cli.py")):
        sys.stderr.write(f"no shuflat sources under {os.path.join(ROOT, 'src')}\n")
        return 2

    metrics, attempted, failures, detail = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    error_rate = len(failures) / attempted
    detail["error_rate"] = error_rate
    detail["failures"] = failures[:20]
    if metrics is None:
        sys.stderr.write(f"run aborted: {failures[-1][1]}\n")
        return 1
    if detail.get("silent_layers"):
        sys.stderr.write(f"layers predicted active recorded no calls: {detail['silent_layers']}\n")
    _print_table(metrics)
    print(f"{'error_rate':<34} {error_rate:>14.6g} fraction")
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": not failures and not detail.get("silent_layers"),
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if not failures and not detail.get("silent_layers") else 1


if __name__ == "__main__":
    sys.exit(main())
