"""Command-line front end: generators, solver, distinguishers, LP export, bench.

Subcommands: gen, plant, solve, distinguish, lp-export, bench.
Global flags: --seed, --out, --config <json>, --budget.
Exit codes: 0 ok, 1 usage, 2 runtime, 3 budget-exceeded.

Reports are byte-deterministic for a fixed (config, seed): per-trial data goes
to CSV, summaries to JSON, and wall-clock timings to a separate
<out>.timing.json that is excluded from determinism comparisons. JSON is
strict: a value with no JSON form (NaN, infinity) is an error, never written.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction
from typing import Callable, Optional

from .graphs import (BudgetExceededError, Graph, GraphFormatError,
                     brute_force_dks, density_report, load_graph, save_graph)
from .lp import build_lp, export_lp
from .models import (DistinguishVerdict, caterpillar_distinguisher,
                     degree_distinguisher, gen_gnp, intersection_distinguisher,
                     null_instance, plant, sdp_dual_distinguisher,
                     spectral_distinguisher)
from .solvers import SolverConfig, approximate

CONFIG_SCHEMA_VERSION = 1

# keys accepted from a --config file, per subcommand
_CONFIG_KEYS = {
    "gen": {"n", "p", "alpha"},
    "plant": {"n", "alpha", "k", "beta"},
    "solve": {"input", "k", "s_max", "leaf_budget"},
    "distinguish": {"test", "n", "alpha", "k", "beta", "trials", "c",
                    "r", "s", "rho"},
    "lp-export": {"input", "k", "d", "t"},
    "bench": {"n", "alphas", "trials"},
}


class UsageError(ValueError):
    pass


def _load_config(path: Optional[str], subcommand: str) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as f:
        cfg = json.load(f)
    if cfg.get("schema_version") != CONFIG_SCHEMA_VERSION:
        raise UsageError(
            f"config schema_version must be {CONFIG_SCHEMA_VERSION}, "
            f"got {cfg.get('schema_version')!r}")
    allowed = _CONFIG_KEYS[subcommand] | {"schema_version"}
    unknown = set(cfg) - allowed
    if unknown:
        raise UsageError(f"unknown config keys for {subcommand}: {sorted(unknown)}")
    cfg.pop("schema_version")
    return cfg


def _merge(args: argparse.Namespace, cfg: dict, key: str, default=None):
    """CLI flag wins over config file, which wins over the default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return default


def _require(value, name: str):
    if value is None:
        raise UsageError(f"missing required parameter: {name}")
    return value


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _write_json(path: str, obj) -> None:
    # serialize first, so an unencodable value leaves no partial file behind
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")


def _write_timing(out: str, timings: dict) -> None:
    _write_json(out + ".timing.json", timings)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args, cfg) -> int:
    n = int(_require(_merge(args, cfg, "n"), "--n"))
    alpha = _merge(args, cfg, "alpha")
    p = _merge(args, cfg, "p")
    if p is None and alpha is not None:
        p = float(n) ** (float(alpha) - 1)
    p = float(_require(p, "--p or --alpha"))
    out = _require(args.out, "--out")
    g = gen_gnp(n, p, args.seed)
    save_graph(g, out)
    _write_json(out + ".json", {"model": "gnp",
                                "params": {"n": n, "p": p, "seed": args.seed}})
    return 0


def cmd_plant(args, cfg) -> int:
    n = int(_require(_merge(args, cfg, "n"), "--n"))
    alpha = float(_require(_merge(args, cfg, "alpha"), "--alpha"))
    k = int(_require(_merge(args, cfg, "k"), "--k"))
    beta = float(_require(_merge(args, cfg, "beta"), "--beta"))
    out = _require(args.out, "--out")
    inst = plant(n, alpha, k, beta, args.seed)
    save_graph(inst.graph, out)
    _write_json(out + ".json", {"model": inst.model, "params": inst.params,
                                "planted": list(inst.planted),
                                "ground_truth_density": inst.ground_truth_density})
    return 0


def cmd_solve(args, cfg) -> int:
    path = _require(_merge(args, cfg, "input"), "--input")
    k = int(_require(_merge(args, cfg, "k"), "--k"))
    out = _require(args.out, "--out")
    g = load_graph(path)
    config = SolverConfig(s_max=int(_merge(args, cfg, "s_max", 4)),
                          leaf_budget=int(_merge(args, cfg, "leaf_budget",
                                                 args.budget or 2000)),
                          seed=args.seed)
    t0 = time.perf_counter()
    res = approximate(g, k, config)
    elapsed = time.perf_counter() - t0

    record = {"vertices": list(res.vertices), "density": res.density,
              "provenance": res.provenance, "gamma": res.gamma,
              "k": k, "n": g.n, "seed": args.seed}
    # ratio vs planted ground truth (sidecar) or brute force at desk scale;
    # brute_force_dks counts edges, so weighted input gets no brute-force ratio
    try:
        with open(path + ".json", "r", encoding="utf-8") as f:
            sidecar = json.load(f)
    except OSError:
        sidecar = None
    if sidecar and sidecar.get("ground_truth_density"):
        gt = float(sidecar["ground_truth_density"])
        record["ratio"] = gt / res.density if res.density > 0 else None
        record["ratio_vs"] = "planted"
    elif g.n <= 18 and g.weight_array is None:
        opt = brute_force_dks(g, k)
        record["ratio"] = opt.density / res.density if res.density > 0 else None
        record["ratio_vs"] = "brute-force"
    _write_json(out, record)
    _write_timing(out, {"solve_seconds": elapsed})
    return 0


_DISTINGUISHERS = {"degree", "intersection", "spectral", "sdp", "caterpillar"}


def _run_distinguisher(test: str, g: Graph, params: dict,
                       seed: int) -> DistinguishVerdict:
    if test == "degree":
        return degree_distinguisher(g, params["k"], params["null_degree"],
                                    c=params["c"])
    if test == "intersection":
        return intersection_distinguisher(g, params["pair_budget"], seed=seed,
                                          c=params["c"])
    if test == "spectral":
        return spectral_distinguisher(g, params["k"], params["rho"],
                                      c=params["c"], seed=seed)
    if test == "sdp":
        return sdp_dual_distinguisher(g, params["k"], c=params["c"])
    if test == "caterpillar":
        return caterpillar_distinguisher(g, params["r"], params["s"],
                                         params["budget"], seed=seed,
                                         c=params["c"])
    raise UsageError(f"unknown test {test!r}")


def cmd_distinguish(args, cfg) -> int:
    test = _require(_merge(args, cfg, "test"), "--test")
    if test not in _DISTINGUISHERS:
        raise UsageError(f"--test must be one of {sorted(_DISTINGUISHERS)}")
    n = int(_merge(args, cfg, "n", 400))
    alpha = float(_merge(args, cfg, "alpha", 0.5))
    k = int(_merge(args, cfg, "k", 20))
    beta = float(_merge(args, cfg, "beta", 1.0))
    trials = int(_merge(args, cfg, "trials", 20))
    c = _merge(args, cfg, "c")
    out = _require(args.out, "--out")
    budget = args.budget or 2000
    params = {"k": k, "null_degree": n ** alpha, "pair_budget": budget,
              "rho": float(_merge(args, cfg, "rho", alpha)),
              "r": int(_merge(args, cfg, "r", 2)),
              "s": int(_merge(args, cfg, "s", 3)),
              "budget": budget,
              "c": float(c) if c is not None else
              {"degree": 1.0, "intersection": 3.0, "spectral": 2.0,
               "sdp": 1.0, "caterpillar": 4.0}[test]}

    jobs = []
    for i in range(trials):
        jobs.append(("null", args.seed + 2 * i))
        jobs.append(("planted", args.seed + 2 * i + 1))

    t0 = time.perf_counter()

    def run(job):
        truth, seed = job
        if truth == "null":
            inst = null_instance(n, alpha, seed)
        else:
            inst = plant(n, alpha, k, beta, seed)
        v = _run_distinguisher(test, inst.graph, params, seed)
        return [inst.model, n, alpha, k, beta, seed, v.statistic,
                repr(v.value), repr(v.threshold), v.decision, truth]

    rows = [run(j) for j in jobs]
    elapsed = time.perf_counter() - t0

    header = ["model", "n", "alpha", "k", "beta", "seed", "statistic",
              "value", "threshold", "decision", "truth"]
    _write_csv(out, header, rows)
    correct = sum(1 for r in rows
                  if (r[-1] == "planted") == (r[-2] == "planted"))
    _write_json(out + ".summary.json",
                {"test": test, "trials": len(rows),
                 "accuracy": correct / len(rows), "params": {
                     kk: params[kk] for kk in sorted(params)}})
    _write_timing(out, {"distinguish_seconds": elapsed})
    return 0


def cmd_lp_export(args, cfg) -> int:
    path = _require(_merge(args, cfg, "input"), "--input")
    k = int(_require(_merge(args, cfg, "k"), "--k"))
    d = _require(_merge(args, cfg, "d"), "--d")
    t = int(_merge(args, cfg, "t", 1))
    out = _require(args.out, "--out")
    g = load_graph(path)
    inst = build_lp(g, k, Fraction(str(d)), t,
                    budget=args.budget or 2_000_000)
    export_lp(inst, out)
    return 0


def cmd_bench(args, cfg) -> int:
    """Sweep alpha: empirical planted-vs-null density ratio per grid point.

    For each alpha, k = round(n^alpha); the planted density is the clique
    density k-1 and the null density is what approximate() finds on
    G(n, n^(alpha-1)). The ratio curve peaks near alpha = 1/2.
    """
    n = int(_merge(args, cfg, "n", 60))
    alphas_raw = _merge(args, cfg, "alphas", "0.4,0.5,0.6")
    if isinstance(alphas_raw, str):
        alphas = [float(x) for x in alphas_raw.split(",")]
    else:
        alphas = [float(x) for x in alphas_raw]
    trials = int(_merge(args, cfg, "trials", 5))
    out = _require(args.out, "--out")

    jobs = [(gi, a, args.seed + ti)
            for gi, a in enumerate(alphas) for ti in range(trials)]

    t0 = time.perf_counter()

    def run(job):
        gi, a, seed = job
        k = max(2, round(n ** a))
        g = null_instance(n, a, seed).graph
        res = approximate(g, k, SolverConfig(seed=seed,
                                             leaf_budget=args.budget or 500))
        null_d = max(res.density, 1.0)
        ratio = (k - 1) / null_d
        return [gi, a, n, k, seed, repr(res.density), repr(ratio)]

    rows = [run(j) for j in jobs]
    elapsed = time.perf_counter() - t0

    _write_csv(out, ["grid", "alpha", "n", "k", "seed", "null_density",
                     "ratio"], rows)
    summary = []
    for gi, a in enumerate(alphas):
        rs = [float(r[6]) for r in rows if r[0] == gi]
        summary.append({"alpha": a, "mean_ratio": sum(rs) / len(rs),
                        "trials": len(rs)})
    _write_json(out + ".summary.json", {"n": n, "grid": summary})
    _write_timing(out, {"bench_seconds": elapsed})
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 by default; usage errors are exit code 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_global_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--config", type=str, default=None,
                   help="JSON config file (schema_version %d)" % CONFIG_SCHEMA_VERSION)
    p.add_argument("--budget", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="catdks",
                description="caterpillar-based densest-k-subgraph toolkit")
    sub = p.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    sp = sub.add_parser("gen", help="write a G(n,p) edge-list file")
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--alpha", type=float, help="use p = n^(alpha-1)")
    _add_global_flags(sp)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("plant", help="planted instance + ground-truth sidecar")
    sp.add_argument("--n", type=int)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--k", type=int)
    sp.add_argument("--beta", type=float)
    _add_global_flags(sp)
    sp.set_defaults(func=cmd_plant)

    sp = sub.add_parser("solve", help="approximate densest k-subgraph")
    sp.add_argument("--input", type=str)
    sp.add_argument("--k", type=int)
    sp.add_argument("--s-max", type=int, dest="s_max")
    sp.add_argument("--leaf-budget", type=int, dest="leaf_budget")
    _add_global_flags(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("distinguish", help="planted-vs-null test battery")
    sp.add_argument("--test", type=str,
                    choices=sorted(_DISTINGUISHERS))
    sp.add_argument("--n", type=int)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--k", type=int)
    sp.add_argument("--beta", type=float)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--c", type=float, help="threshold constant override")
    sp.add_argument("--r", type=int)
    sp.add_argument("--s", type=int)
    sp.add_argument("--rho", type=float)
    _add_global_flags(sp)
    sp.set_defaults(func=cmd_distinguish)

    sp = sub.add_parser("lp-export", help="write the depth-t LP in LP format")
    sp.add_argument("--input", type=str)
    sp.add_argument("--k", type=int)
    sp.add_argument("--d", type=str)
    sp.add_argument("--t", type=int)
    _add_global_flags(sp)
    sp.set_defaults(func=cmd_lp_export)

    sp = sub.add_parser("bench", help="alpha-grid ratio sweep")
    sp.add_argument("--n", type=int)
    sp.add_argument("--alphas", type=str)
    sp.add_argument("--trials", type=int)
    _add_global_flags(sp)
    sp.set_defaults(func=cmd_bench)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args.config, args.subcommand)
        return args.func(args, cfg)
    except UsageError as exc:
        print(f"catdks: usage error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"catdks: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (GraphFormatError, ValueError, OSError, KeyError) as exc:
        print(f"catdks: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
