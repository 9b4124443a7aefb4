"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these out of the repository's own test run: the
count checks trace whole passes and take about a minute.
"""

import contextlib
import io
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import client  # noqa: E402  (puts ./src on sys.path)
import run  # noqa: E402
import shuflat  # noqa: E402
from shuflat import triangles  # noqa: E402
from trace_layers import Tracer  # noqa: E402
from workloads import WORKLOADS, request_key, requests, stream_hash  # noqa: E402

REFERENCE = client.load_reference()


def outputs_of(stream):
    texts = []
    for argv in stream:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            shuflat.cli.run(list(argv))
        texts.append(out.getvalue())
    return texts


def bindings():
    """Every module-level and class-level binding inside shuflat."""
    seen = {}
    for name, module in sys.modules.items():
        if name == "shuflat" or name.startswith("shuflat."):
            for key, value in vars(module).items():
                seen[(name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("shuflat"):
                    for attr, member in vars(value).items():
                        seen[(name, key, attr)] = member
                elif isinstance(value, dict) and key != "__builtins__":
                    for k, v in value.items():
                        seen[(name, key, "[]", k)] = v
    return seen


def traced_pass(workload, seed=1):
    tracer = Tracer()
    tracer.install()
    try:
        _, _, failures = client.run_stream(requests(workload, seed), REFERENCE)
    finally:
        tracer.restore()
    assert failures == []
    return tracer


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_requests(workload):
    first, again, other = requests(workload, 11), requests(workload, 11), requests(workload, 12)
    assert first == again and stream_hash(first) == stream_hash(again)
    assert first != other and stream_hash(first) != stream_hash(other)
    # every request of the workload once, drawn without replacement
    assert sorted(map(tuple, first)) == sorted(WORKLOADS[workload].requests)
    assert len(set(WORKLOADS[workload].requests)) == len(first)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_covers_every_request(workload):
    missing = [argv for argv in WORKLOADS[workload].requests if request_key(argv) not in REFERENCE]
    assert missing == []


def test_wrong_output_is_caught(monkeypatch):
    stream = [argv for argv in requests("closed", 3) if argv[0] == "htriangle"]
    stream += [["mtriangle", "5", "5", "--method", "formula"]]
    _, _, failures = client.run_stream(stream, REFERENCE)
    assert failures == []
    original = triangles.h_triangle_formula
    monkeypatch.setattr(triangles, "h_triangle_formula", lambda m, n: original(m, n) + 1)
    _, _, failures = client.run_stream(stream, REFERENCE)
    assert len(failures) == len(stream) - 1
    assert all("digest" in problem for _, problem in failures)


def test_wrong_output_fails_the_command(tmp_path):
    """A broken program copy: the command reports the failures and exits 1."""
    root = os.path.dirname(HERE)
    shutil.copytree(os.path.join(root, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    source = tmp_path / "src" / "shuflat" / "triangles.py"
    text = source.read_text()
    assert "core = Q * T + 1" in text
    source.write_text(text.replace("core = Q * T + 1", "core = Q * T + 2"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed", "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 1
    result = run.json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


def test_command_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_tracing_restores_everything_and_changes_no_output():
    stream = requests("verify", 5)[:6] + requests("oracle", 5)[:12]
    before = bindings()
    plain = outputs_of(stream)
    tracer = Tracer()
    tracer.install()
    try:
        assert bindings() != before
        traced = outputs_of(stream)
    finally:
        tracer.restore()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert traced == plain
    assert outputs_of(stream) == plain


def test_tail_leaves_ten_beyond():
    values = list(range(1, 184))
    value, percentile, beyond = run.tail(values)
    assert (value, beyond) == (173, 10)
    assert sum(v > value for v in values) == 10
    assert abs(percentile - 100 * 173 / 183) < 1e-9


def test_count_predictions():
    by_workload = {name: traced_pass(name) for name in WORKLOADS}
    for name, tracer in by_workload.items():
        calls = tracer.layer_calls()
        spec = WORKLOADS[name]
        assert all(calls.get(layer) for layer in spec.active), (name, calls)
        assert not any(calls.get(layer) for layer in spec.idle), (name, calls)
    closed = by_workload["closed"].metrics()
    verify = by_workload["verify"].metrics()
    assert closed["poset.mobius_rows"] == 0
    assert by_workload["oracle"].metrics()["poset.mobius_rows"] > 0

    def pairs_per_call(m):
        return m["polyalg.mul_term_pairs"] / m["polyalg.mul_calls"]

    # Whole workloads: the composition sum and the series reciprocal put many
    # small products into closed, so the gap is about 25x, not 100x.
    assert pairs_per_call(closed) > 20 * pairs_per_call(verify)

    def route_pairs_per_call(tracer, parent):
        calls = sum(rec[0] for (p, n), rec in tracer.spans.items()
                    if p == parent and n == "polyalg.mul")
        return tracer.counts[("polyalg.mul_term_pairs", parent)] / calls

    # The products of the closed formula against those of the composition sums.
    assert route_pairs_per_call(by_workload["closed"], "triangles.mtriangle.formula") > 100 * (
        route_pairs_per_call(by_workload["verify"], "identities.composition_sum")
    )
