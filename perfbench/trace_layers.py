"""Layer timing from outside the program.

A Tracer wraps the public calls at each layer boundary of shuflat and
keeps aggregated spans in memory: one record per (parent, name) with
call count, inclusive time and self time (span time minus the time of
its child spans).  Hot leaf calls (BivarPoly multiplication) are
aggregated the same way without a stack frame of their own.

Wrapping a function means re-binding every name that refers to it:
``from .poset import build_poset`` in lattices.py makes a second
binding that patching poset.py alone would miss.  ``install`` scans
every shuflat module (and the dicts at module level) for the original
object and re-binds each hit; ``restore`` puts every one back.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

import shuflat.cli
from shuflat import identities, lattices, poset, polyalg, triangles, words

ROOT = "<root>"


class _Frame:
    __slots__ = ("name", "child_ns")

    def __init__(self, name):
        self.name = name
        self.child_ns = 0


def _route_name(args, kwargs):
    kind = args[0] if args else kwargs["kind"]
    method = args[3] if len(args) > 3 else kwargs["method"]
    return f"triangles.{kind}.{method}"


def _term_pairs(args, result):
    a, b = args
    return len(a._terms) * (len(b._terms) if isinstance(b, polyalg.BivarPoly) else 1)


class Tracer:
    """Aggregated spans plus counters; ``install`` and ``restore`` wrap
    and unwrap the layer boundaries."""

    def __init__(self):
        self.stack = [_Frame(ROOT)]
        self.active = {}  # span name -> nesting depth, for inclusive time
        self.spans = {}  # (parent, name) -> [calls, inclusive_ns, self_ns]
        self.counts = {}
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _count(self, name, k):
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, name, fn, on_result=None):
        """A span around fn.  ``name`` is a string or a function of the
        call's (args, kwargs).  ``on_result(args, result)`` runs after
        the span has closed, so counting costs no span time."""
        stack, active, spans = self.stack, self.active, self.spans

        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            frame = _Frame(span)
            stack.append(frame)
            depth = active.get(span, 0)
            active[span] = depth + 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                active[span] = depth
                parent = stack[-1]
                parent.child_ns += elapsed
                rec = spans.get((parent.name, span))
                if rec is None:
                    rec = spans[(parent.name, span)] = [0, 0, 0]
                rec[0] += 1
                if depth == 0:
                    rec[1] += elapsed
                rec[2] += elapsed - frame.child_ns
            if on_result is not None:
                mark = perf_counter_ns()
                on_result(args, result)
                parent.child_ns += perf_counter_ns() - mark
            return result

        return traced

    def wrap_leaf(self, name, fn, pairs_name, pairs):
        """A hot call that calls no wrapped code: aggregated per parent,
        with ``pairs(args, result)`` added to the counter ``pairs_name``
        and to ``(pairs_name, parent)``."""
        stack, spans, counts = self.stack, self.spans, self.counts

        def traced(*args):
            start = perf_counter_ns()
            result = fn(*args)
            elapsed = perf_counter_ns() - start
            if result is NotImplemented:
                return result
            parent = stack[-1]
            parent.child_ns += elapsed
            rec = spans.get((parent.name, name))
            if rec is None:
                rec = spans[(parent.name, name)] = [0, 0, 0]
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += elapsed
            n = pairs(args, result)
            counts[pairs_name] = counts.get(pairs_name, 0) + n
            per_parent = (pairs_name, parent.name)
            counts[per_parent] = counts.get(per_parent, 0) + n
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _rebind(self, owner, attr, make):
        """Replace ``owner.attr`` and every other binding of the same object."""
        original = getattr(owner, attr)
        wrapped = make(original)
        if isinstance(owner, type):
            containers = [owner]
        else:
            containers = [
                module
                for key, module in sorted(sys.modules.items())
                if key == "shuflat" or key.startswith("shuflat.")
            ]
        hits = 0
        for container in containers:
            namespace = vars(container)
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(container, key, wrapped)
                    self._undo.append((setattr, container, key, original))
                    hits += 1
                elif isinstance(value, dict) and not isinstance(container, type):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapped
                            self._undo.append((dict.__setitem__, value, k, original))
                            hits += 1
        if hits == 0:
            raise RuntimeError(f"nothing bound to {owner!r}.{attr}")

    def install(self):
        def span(name, on_result=None):
            return lambda fn: self.wrap(name, fn, on_result)

        def counted(counter, measure):
            return lambda args, result: self._count(counter, measure(args, result))

        def mobius_rows(args, result):
            # outside the span: entries kept versus up-set elements visited
            p, a = args
            self._count("poset.mobius_rows", 1)
            self._count("poset.mobius_nonzero", len(result))
            self._count("poset.mobius_visited", p._up[a].bit_count())

        def verdicts(args, result):
            self._count("identities.verdicts", len(result))

        targets = [
            (words, "enumerate_shuffle_words",
             span("words.enumerate", counted("words.words_out", lambda a, r: len(r)))),
            (lattices, "build_shuffle_lattice",
             span("lattices.shuffle_build",
                  counted("lattices.covers_out", lambda a, r: len(r.covers)))),
            (lattices, "bubble_covers",
             span("lattices.bubble",
                  counted("lattices.bubble_covers_out", lambda a, r: len(r)))),
            (lattices, "degree_statistics", span("lattices.bubble")),
            (poset, "build_poset",
             span("poset.build", counted("poset.elements_out", lambda a, r: r.n))),
            (poset.Poset, "_mobius_row", span("poset.mobius_row", mobius_rows)),
            (polyalg.BivarPoly, "__mul__",
             lambda fn: self.wrap_leaf("polyalg.mul", fn, "polyalg.mul_term_pairs", _term_pairs)),
            (polyalg.TruncatedSeries2, "reciprocal", span("polyalg.reciprocal")),
            (polyalg.BivarPoly, "__str__", span("polyalg.render")),
            (polyalg.BivarPoly, "to_json_terms", span("polyalg.render")),
            (triangles, "compute", span(_route_name)),
            (triangles, "m_triangle_brute", span("triangles.mtriangle.brute")),
            (triangles, "m_triangle_interval", span("triangles.mtriangle.interval")),
            (triangles, "m_triangle_formula", span("triangles.mtriangle.formula")),
            (triangles, "m_triangle_composition_sum", span("triangles.mtriangle.compsum")),
            (triangles, "m_series", span("triangles.mtriangle.series")),
            (triangles, "h_triangle_brute", span("triangles.htriangle.brute")),
            (triangles, "h_triangle_formula", span("triangles.htriangle.formula")),
            (triangles, "char_poly_brute", span("triangles.chpoly.brute")),
            (triangles, "char_poly_formula", span("triangles.chpoly.formula")),
            (triangles, "adjudicate_series_cross_term", span("triangles.adjudicate")),
            (triangles, "rank_generating_poly", span("triangles.rank_poly")),
            (identities, "run_suites", span("identities.run_suites")),
            (identities, "run_identities_suite", span("identities.suite.identities", verdicts)),
            (identities, "run_relations_suite", span("identities.suite.relations", verdicts)),
            (identities, "run_methods_suite", span("identities.suite.methods", verdicts)),
            (identities, "inner_sum_lhs", span("identities.composition_sum")),
            (identities, "inner_sum_lhs_full_exponent", span("identities.composition_sum")),
            (identities, "verify_h_to_m", span("identities.grid_eval")),
            (identities, "verify_char_from_h", span("identities.grid_eval")),
            (shuflat.cli, "run", span("cli.run")),
            (shuflat.cli, "emit_report", span("cli.report")),
        ]
        try:
            for owner, attr, make in targets:
                self._rebind(owner, attr, make)
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._undo:
            put, container, key, original = self._undo.pop()
            put(container, key, original)

    # -- results -----------------------------------------------------------

    def _sum(self, field, names):
        return sum(rec[field] for (_, name), rec in self.spans.items() if name in names)

    def layer_calls(self):
        calls = {}
        for (_, name), rec in self.spans.items():
            layer = name.split(".")[0]
            calls[layer] = calls.get(layer, 0) + rec[0]
        return calls

    def metrics(self):
        """Per-layer figures: times in seconds, counts as totals."""
        ns = 1e-9
        incl = lambda *names: self._sum(1, names) * ns  # noqa: E731
        own = lambda *names: self._sum(2, names) * ns  # noqa: E731
        layer_self = {}
        for (_, name), rec in self.spans.items():
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0) + rec[2] * ns
        count = self.counts.get
        visited = count("poset.mobius_visited", 0)
        out = {
            "words.enumerate_s": incl("words.enumerate"),
            "words.words_out": count("words.words_out", 0),
            "lattices.shuffle_build_s": own("lattices.shuffle_build"),
            "lattices.covers_out": count("lattices.covers_out", 0),
            "lattices.bubble_s": own("lattices.bubble"),
            "lattices.bubble_covers_out": count("lattices.bubble_covers_out", 0),
            "poset.build_s": incl("poset.build"),
            "poset.elements_out": count("poset.elements_out", 0),
            "poset.mobius_s": incl("poset.mobius_row"),
            "poset.mobius_rows": count("poset.mobius_rows", 0),
            "poset.mobius_nonzero_frac": (
                count("poset.mobius_nonzero", 0) / visited if visited else 0.0
            ),
            "polyalg.mul_s": incl("polyalg.mul"),
            "polyalg.mul_calls": self._sum(0, ("polyalg.mul",)),
            "polyalg.mul_term_pairs": count("polyalg.mul_term_pairs", 0),
            "polyalg.reciprocal_s": incl("polyalg.reciprocal"),
            "polyalg.render_s": incl("polyalg.render"),
            "triangles.self_s": layer_self.get("triangles", 0.0),
        }
        for kind, methods in (
            ("mtriangle", triangles.M_METHODS),
            ("htriangle", triangles.H_METHODS),
            ("chpoly", triangles.CH_METHODS),
        ):
            for method in methods:
                out[f"triangles.{kind}.{method}_s"] = incl(f"triangles.{kind}.{method}")
        for suite in ("identities", "relations", "methods"):
            out[f"identities.suite.{suite}_s"] = incl(f"identities.suite.{suite}")
        out["identities.composition_sum_s"] = incl("identities.composition_sum")
        out["identities.grid_eval_s"] = incl("identities.grid_eval")
        out["identities.verdicts"] = count("identities.verdicts", 0)
        out["cli.self_s"] = layer_self.get("cli", 0.0)
        out["cli.report_s"] = incl("cli.report")
        return out
