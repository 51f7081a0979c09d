"""Outside-in tracing of catdks for the benchmark's per-layer metrics.

Nothing under src/ knows about this module. While a Tracer is installed it
replaces each traced public function with a wrapper in every catdks module
namespace that binds it (the package binds names with ``from .x import y``,
so ``catdks.solvers.dks_local`` and ``catdks.cli.approximate`` are the
objects callers actually look up). A wrapper records a span (name, start,
end, parent span, op id) in memory; spans are written out only when the run
ends. ``uninstall`` puts every original object back, so an untraced op runs
the unmodified program.
"""
from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from functools import cached_property

from catdks import caterpillar, cli, graphs, lp, models, reductions, solvers

_now = time.perf_counter

# (span name, defining module, attribute): every binding of the attribute's
# function object in any catdks module is wrapped.
FUNCTIONS = (
    ("graphs.load_graph", graphs, "load_graph"),
    ("graphs.density_report", graphs, "density_report"),
    ("graphs.induced_subgraph", graphs, "induced_subgraph"),
    ("models.gen_gnp", models, "gen_gnp"),
    ("models.plant", models, "plant"),
    ("models.lambda2_estimate", models, "lambda2_estimate"),
    ("models.sdp_dual_certificate", models, "sdp_dual_certificate"),
    ("caterpillar.count_caterpillars", caterpillar, "count_caterpillars"),
    ("caterpillar.max_witness_count", caterpillar, "max_witness_count"),
    ("reductions.greedy_core", reductions, "greedy_core"),
    ("reductions.bipartite_double_cover", reductions, "bipartite_double_cover"),
    ("reductions.prune_to_size", reductions, "prune_to_size"),
    ("reductions.union_until_k", reductions, "union_until_k"),
    ("solvers.approximate", solvers, "approximate"),
    ("solvers.dks_local", solvers, "dks_local"),
    ("solvers.resize_to_k", solvers, "resize_to_k"),
    ("lp.build_lp", lp, "build_lp"),
    ("lp.indicator_solution", lp, "indicator_solution"),
    ("lp.check_feasible", lp, "check_feasible"),
    ("cli.main", cli, "main"),
)

# lazily built Graph caches, charged to the graphs layer
CACHED_PROPERTIES = (("graphs.adj", "adj"), ("graphs.degrees", "degrees"))

# per-layer metrics: (name, unit, better). "<span>.s" is inclusive time,
# "<span>.self_s" excludes wrapped children and "<span>.calls" counts spans,
# each per traced op; the rest are computed in Tracer.layer_metrics.
LAYER_METRICS = (
    ("graphs.from_edges.self_s", "s/op", "lower"),
    ("graphs.from_edges.calls", "calls/op", "lower"),
    ("graphs.edges_built", "edges/op", "lower"),
    ("graphs.adj.s", "s/op", "lower"),
    ("graphs.degrees.s", "s/op", "lower"),
    ("graphs.load_graph.s", "s/op", "lower"),
    ("graphs.density_report.s", "s/op", "lower"),
    ("graphs.density_report.calls", "calls/op", "lower"),
    ("graphs.induced_subgraph.s", "s/op", "lower"),
    ("models.gen_gnp.self_s", "s/op", "lower"),
    ("models.plant.self_s", "s/op", "lower"),
    ("models.lambda2_estimate.s", "s/op", "lower"),
    ("models.lambda2_nonconverged", "count/op", "lower"),
    ("models.sdp_dual_certificate.s", "s/op", "lower"),
    ("caterpillar.count_caterpillars.s", "s/op", "lower"),
    ("caterpillar.count_caterpillars.calls", "calls/op", "lower"),
    ("caterpillar.count_nonzero_ratio", "ratio", "higher"),
    ("caterpillar.max_witness_count.self_s", "s/op", "lower"),
    ("reductions.greedy_core.s", "s/op", "lower"),
    ("reductions.bipartite_double_cover.s", "s/op", "lower"),
    ("reductions.prune_to_size.s", "s/op", "lower"),
    ("reductions.union_until_k.self_s", "s/op", "lower"),
    ("reductions.union_rounds", "rounds/op", "lower"),
    ("solvers.approximate.s", "s/op", "lower"),
    ("solvers.dks_local.s", "s/op", "lower"),
    ("solvers.dks_local.calls", "calls/op", "lower"),
    ("solvers.branch_search.self_s", "s/op", "lower"),
    ("solvers.resize_to_k.s", "s/op", "lower"),
    ("solvers.caterpillar_win_ratio", "ratio", "higher"),
    ("lp.build_lp.s", "s/op", "lower"),
    ("lp.variables", "count/op", "lower"),
    ("lp.constraints", "count/op", "lower"),
    ("lp.indicator_solution.s", "s/op", "lower"),
    ("lp.check_feasible.s", "s/op", "lower"),
    ("lp.check_rate", "1/s", "higher"),
    ("cli.self_s", "s/op", "lower"),
    ("trace.spans", "spans/op", "lower"),
    ("trace.ops_per_s_ratio", "ratio", "higher"),
)


def _catdks_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "catdks" or name.startswith("catdks."))]


class Tracer:
    """Span recorder that patches catdks while installed."""

    def __init__(self):
        # One column per span field. Arrays hold no Python objects, so the
        # garbage collector never walks them and a long traced run does not
        # slow the program's own collections.
        self.names: list[str] = []     # span name by name id
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")       # index of the enclosing span, or -1
        self.op = array("l")
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, start, end, parent, op = (self.name_id, self.start, self.end,
                                           self.parent, self.op)
        stack = self._stack

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(_now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = _now()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        hooks = {
            "reductions.union_until_k": {"before": self._wrap_inner},
            "caterpillar.count_caterpillars": {"after": self._count_nonzero},
            "lp.build_lp": {"after": self._count_lp},
            "lp.check_feasible": {"after": self._count_checked},
        }
        modules = _catdks_modules()
        for name, home, attr in FUNCTIONS:
            orig = getattr(home, attr)
            wrapped = self._wrap(name, orig, **hooks.get(name, {}))
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    self._set(mod, attr, wrapped)
        G = graphs.Graph
        self._set(G, "from_edges", staticmethod(self._wrap(
            "graphs.from_edges", G.__dict__["from_edges"].__func__,
            after=self._count_edges)))
        for name, attr in CACHED_PROPERTIES:
            prop = cached_property(self._wrap(name, G.__dict__[attr].func))
            prop.__set_name__(G, attr)
            self._set(G, attr, prop)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- hooks ------------------------------------------------------------

    def _wrap_inner(self, args, kwargs):
        """Span union_until_k's inner callback, the branch search; one call
        per union round."""
        if "inner" in kwargs:
            kwargs = dict(kwargs, inner=self._wrap("solvers.branch_search",
                                                   kwargs["inner"]))
        else:
            args = args[:2] + (self._wrap("solvers.branch_search", args[2]),) \
                + args[3:]
        return args, kwargs

    def _count_nonzero(self, args, result):
        self.counts["caterpillar.nonzero"] += result > 0

    def _count_lp(self, args, result):
        self.counts["lp.variables"] += len(result.variables)
        self.counts["lp.constraints"] += len(result.constraints)

    def _count_checked(self, args, result):
        self.counts["lp.checked"] += len(args[0].constraints)

    def _count_edges(self, args, result):
        self.counts["graphs.edges_built"] += result.m

    # -- results ----------------------------------------------------------

    def span_times(self):
        """Per span name: (inclusive seconds, self seconds, calls).

        Self time is the span's duration minus its wrapped children's;
        inclusive time skips spans nested inside a span of the same name.
        """
        nid, parent = self.name_id, self.parent
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
        incl: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for i, d in enumerate(dur):
            name = self.names[nid[i]]
            calls[name] += 1
            own[name] += d - child[i]
            p = parent[i]
            while p >= 0 and nid[p] != nid[i]:
                p = parent[p]
            if p < 0:
                incl[name] += d
        return incl, own, calls

    def layer_metrics(self, traced_ops: int, op_values: list[dict],
                      untraced_s: float, traced_s: float) -> dict:
        """Every LAYER_METRICS value, per traced op where the unit says so.

        op_values holds the workload's per-op values for the traced ops;
        untraced_s and traced_s are the summed op times of the same inputs
        run without and with tracing.
        """
        incl, own, calls = self.span_times()
        per = 1.0 / traced_ops
        c = self.counts
        count_calls = calls["caterpillar.count_caterpillars"]
        solves = [v["provenance"] for v in op_values if "provenance" in v]
        special = {
            "graphs.edges_built": c["graphs.edges_built"] * per,
            "models.lambda2_nonconverged":
                sum(v.get("nonconverged", 0) for v in op_values) * per,
            "caterpillar.count_nonzero_ratio":
                c["caterpillar.nonzero"] / count_calls if count_calls else 0.0,
            "reductions.union_rounds": calls["solvers.branch_search"] * per,
            "solvers.caterpillar_win_ratio":
                sum(p.startswith("caterpillar") for p in solves) / len(solves)
                if solves else 0.0,
            "lp.variables": c["lp.variables"] * per,
            "lp.constraints": c["lp.constraints"] * per,
            "lp.check_rate": c["lp.checked"] / incl["lp.check_feasible"]
                if incl["lp.check_feasible"] else 0.0,
            "cli.self_s": own["cli.main"] * per,
            "trace.spans": len(self.start) * per,
            "trace.ops_per_s_ratio": untraced_s / traced_s,
        }
        out = {}
        for name, unit, _ in LAYER_METRICS:
            if name in special:
                value = special[name]
            elif name.endswith(".self_s"):
                value = own[name[:-len(".self_s")]] * per
            elif name.endswith(".calls"):
                value = calls[name[:-len(".calls")]] * per
            else:
                value = incl[name[:-len(".s")]] * per
            out[name] = {"value": float(value), "unit": unit}
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("span\top\tparent\tname\tstart_s\tend_s\n")
            for i, (nid, start, end, parent, op) in enumerate(zip(
                    self.name_id, self.start, self.end, self.parent, self.op)):
                f.write(f"{i}\t{op}\t{parent}\t{self.names[nid]}\t"
                        f"{start!r}\t{end!r}\n")
