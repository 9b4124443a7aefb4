"""The benchmark's tracer (perfbench/trace_layers.py) re-binds named
functions of shuflat; this checks that every name it needs still exists,
that a traced run records the route, word, closed-form, series,
rendering, lattice, poset, Mobius and verify spans, and that restore() puts the
originals back."""

import os

from shuflat import cli, lattices, poset, triangles

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def test_tracer_installs_records_and_restores(capsys, monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    from trace_layers import Tracer

    originals = (cli.run, triangles.m_triangle_brute, poset.Poset._mobius_row)
    elements = lattices.build_shuffle_lattice(1, 1).n
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.run(["mtriangle", "1", "1", "--method", "brute"]) == 0
        # brute M and brute ch share one Mobius walk, which only brute ch
        # enters through the traced Poset._mobius_row
        assert cli.run(["chpoly", "1", "1", "--method", "brute"]) == 0
        # the row from the bottom visits every element; the hook counts
        # them from the up-set closure, which it builds outside the span
        assert tracer.counts["poset.mobius_visited"] == elements
        # brute H takes the bubble covers, brute ch builds the lattice
        # and its Poset: the oracle workload's lattices and poset layers
        assert cli.run(["htriangle", "2", "2", "--method", "brute"]) == 0
        # the interval route reads no words and builds no lattice: it
        # records its own span alone
        assert cli.run(["mtriangle", "2", "2", "--method", "interval"]) == 0
        # the closed-form routes carry the closed workload's layer metrics
        assert cli.run(["mtriangle", "2", "2", "--method", "formula"]) == 0
        assert cli.run(["chpoly", "2", "2", "--method", "formula"]) == 0
        # the series reciprocal, the one-cell series route, the composition
        # sum and rendering carry the closed workload's polyalg layer
        assert cli.run(["series", "2", "2"]) == 0
        # the wrapped reciprocal and m_series pass the cell reader through
        capsys.readouterr()
        assert cli.run(["series", "2", "2", "--json"]) == 0
        traced_json = capsys.readouterr().out
        assert cli.run(["mtriangle", "2", "2", "--method", "series"]) == 0
        assert cli.run(["mtriangle", "2", "2", "--method", "compsum"]) == 0
        # the suite runners and the relation checks carry the verify spans
        for suite in ("identities", "relations"):
            assert cli.run(["verify", "--suite", suite, "--max-m", "1", "--max-n", "1"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    recorded = {name for _, name in tracer.spans}
    assert {
        "triangles.mtriangle.brute",
        "triangles.mtriangle.interval",
        "words.enumerate",
        "poset.mobius_row",
        "lattices.bubble",
        "lattices.shuffle_build",
        "poset.build",
        "triangles.mtriangle.formula",
        "triangles.chpoly.formula",
        "polyalg.reciprocal",
        "polyalg.render",
        "triangles.mtriangle.series",
        "triangles.mtriangle.compsum",
        "identities.suite.identities",
        "identities.suite.relations",
        "identities.grid_eval",
    } <= recorded
    assert (cli.run, triangles.m_triangle_brute, poset.Poset._mobius_row) == originals
    assert cli.run(["series", "2", "2", "--json"]) == 0
    assert capsys.readouterr().out == traced_json
