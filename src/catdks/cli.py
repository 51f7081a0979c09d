"""Command-line front end: generators, solver, distinguishers, LP export, bench.

Subcommands: gen, plant, solve, distinguish, lp-export, bench.
Global flags: --seed, --out, --config <json>.
Exit codes: 0 ok, 1 usage, 2 runtime, 3 budget-exceeded.

Each parameter in _PARAMS comes from its flag, else from the --config key of
the same name (--s-max <-> s_max), else from its default; besides --config,
only --seed and --out have no config key. Bad input writes no output file: a
config that is not an object with "schema_version": 1 and its subcommand's
keys exits 1; a value of the wrong type (a JSON float for an integer, or a
bool), a --trials, --budget or --leaf-budget below 1, a --d with a zero
denominator, an integer the library rejects (an --n below 1 where p =
n^(alpha-1), a solve --s-max below 2, a negative --seed where one is used), or
a solve <input>.json sidecar that is not an object or whose ground_truth_density
is neither null nor a finite number >= 0 exits 2; solve checks the sidecar first.

Reports are byte-deterministic for a fixed (config, seed): per-trial data goes
to CSV, summaries to JSON, and wall-clock timings to a separate
<out>.timing.json that is excluded from determinism comparisons. JSON is
strict: a value with no JSON form (NaN, infinity) is an error, never written.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from fractions import Fraction
from typing import Optional

from .graphs import (BudgetExceededError, GraphFormatError, brute_force_dks, check_int,
                     load_graph, save_graph)
from .lp import build_lp, export_lp
from .models import (caterpillar_distinguisher, degree_distinguisher, gen_gnp,
                     gnp_probability, intersection_distinguisher, null_instance, plant,
                     sdp_dual_distinguisher, spectral_distinguisher)
from .solvers import SolverConfig, approximate

CONFIG_SCHEMA_VERSION = 1


class UsageError(ValueError):
    pass


def _count(value) -> int:
    n = int(value)
    check_int("count", n, 1)
    return n


def _fraction(value) -> Fraction:
    """A Fraction of str(value): JSON 0.1 reads as 1/10 and true fails."""
    try:
        return Fraction(str(value))
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None


def _floats(value) -> list[float]:
    """A list of floats (a bool is not one), or a comma-separated string."""
    items = value.split(",") if isinstance(value, str) else value
    if any(isinstance(x, bool) for x in items):
        raise ValueError("a bool is not a number")
    return [float(x) for x in items]


REQUIRED = object()

# subcommand -> parameter -> (type, default or REQUIRED); a default of None
# means "not given" and is resolved by the subcommand
_PARAMS = {
    "gen": {"n": (int, REQUIRED), "p": (float, None), "alpha": (float, None)},
    "plant": {"n": (int, REQUIRED), "alpha": (float, REQUIRED),
              "k": (int, REQUIRED), "beta": (float, REQUIRED)},
    "solve": {"input": (str, REQUIRED), "k": (int, REQUIRED),
              "s_max": (int, 4), "leaf_budget": (_count, 2000)},
    "distinguish": {"test": (str, REQUIRED), "n": (int, 400),
                    "alpha": (float, 0.5), "k": (int, 20),
                    "beta": (float, 1.0), "trials": (_count, 20),
                    "c": (float, None), "r": (int, 2), "s": (int, 3),
                    "rho": (float, None), "budget": (_count, 2000)},
    "lp-export": {"input": (str, REQUIRED), "k": (int, REQUIRED),
                  "d": (_fraction, REQUIRED), "t": (int, 1),
                  "budget": (_count, 2_000_000)},
    "bench": {"n": (int, 60), "alphas": (_floats, "0.4,0.5,0.6"),
              "trials": (_count, 5), "budget": (_count, 500)},
}
# flags parse as these types; _params runs the full check, whose failure exits 2
_FLAG_TYPE = {_count: int, _floats: str, _fraction: str}

# distinguisher -> (default threshold constant c, call(graph, params, seed))
_TESTS = {
    "degree": (1.0, lambda g, q, seed: degree_distinguisher(
        g, q["k"], q["null_degree"], c=q["c"])),
    "intersection": (3.0, lambda g, q, seed: intersection_distinguisher(
        g, q["pair_budget"], seed=seed, c=q["c"])),
    "spectral": (2.0, lambda g, q, seed: spectral_distinguisher(
        g, q["rho"], c=q["c"], seed=seed)),
    "sdp": (1.0, lambda g, q, seed: sdp_dual_distinguisher(
        g, q["k"], c=q["c"])),
    "caterpillar": (4.0, lambda g, q, seed: caterpillar_distinguisher(
        g, q["r"], q["s"], q["budget"], seed=seed, c=q["c"])),
}


def _params(args: argparse.Namespace) -> argparse.Namespace:
    """Resolve each parameter of args.subcommand in place: flag, else config
    file, else default, converted to its type. Checks --out."""
    table = _PARAMS[args.subcommand]
    cfg = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as f:
            cfg = json.load(f)
        if not isinstance(cfg, dict):
            raise UsageError("config must be a JSON object")
        version = cfg.pop("schema_version", None)
        if isinstance(version, bool) or version != CONFIG_SCHEMA_VERSION:
            raise UsageError(
                f"config schema_version must be {CONFIG_SCHEMA_VERSION}, "
                f"got {version!r}")
        unknown = set(cfg) - set(table)
        if unknown:
            raise UsageError(
                f"unknown config keys for {args.subcommand}: {sorted(unknown)}")
    for name, (typ, default) in table.items():
        flag = "--" + name.replace("_", "-")
        value = getattr(args, name)
        if value is None:
            value = cfg.get(name)
        if value is None:
            value = default
        if value is REQUIRED:
            raise UsageError(f"missing required parameter: {flag}")
        if isinstance(value, bool) or isinstance(value, float) and typ in (int, _count):
            # int() would truncate 30.9 and float() read true as 1.0
            raise ValueError(f"{flag}: {value!r}: wrong JSON type")
        if value is not None:
            try:
                value = typ(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{flag}: {value!r}: {exc}") from None
        setattr(args, name, value)
    if args.out is None:
        raise UsageError("missing required parameter: --out")
    return args


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


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(a) -> int:
    if a.p is None and a.alpha is None:
        raise UsageError("missing required parameter: --p or --alpha")
    p = a.p if a.p is not None else gnp_probability(a.n, a.alpha)
    g = gen_gnp(a.n, p, a.seed)
    save_graph(g, a.out)
    _write_json(a.out + ".json", {"model": "gnp",
                                  "params": {"n": a.n, "p": p, "seed": a.seed}})
    return 0


def cmd_plant(a) -> int:
    inst = plant(a.n, a.alpha, a.k, a.beta, a.seed)
    save_graph(inst.graph, a.out)
    _write_json(a.out + ".json", {"model": inst.model, "params": inst.params,
                                  "planted": list(inst.planted),
                                  "ground_truth_density": inst.ground_truth_density})
    return 0


def _ground_truth(path: str) -> Optional[float]:
    """The ground_truth_density of the solve input's <path>.json sidecar, or
    None when there is no sidecar or its value is null or 0; a sidecar that
    is not a JSON object, or a value that is not a finite JSON number >= 0,
    is an error."""
    try:
        with open(path + ".json", "r", encoding="utf-8") as f:
            sidecar = json.load(f)
    except OSError:
        return None
    if not isinstance(sidecar, dict):
        raise ValueError(f"{path}.json: sidecar must be a JSON object")
    gt = sidecar.get("ground_truth_density")
    if gt is None:
        return None
    try:
        # type(), not isinstance: JSON true is a bool, which is an int
        ok = type(gt) in (int, float) and 0 <= float(gt) < math.inf
    except OverflowError:                               # an int beyond float range
        ok = False
    if not ok:
        raise ValueError(f"{path}.json: ground_truth_density {gt!r} "
                         "is not a finite number >= 0")
    return float(gt) or None


def cmd_solve(a) -> int:
    g = load_graph(a.input)
    gt = _ground_truth(a.input)
    config = SolverConfig(s_max=a.s_max, leaf_budget=a.leaf_budget, seed=a.seed)
    t0 = time.perf_counter()
    res = approximate(g, a.k, config)
    elapsed = time.perf_counter() - t0

    record = {"vertices": list(res.vertices), "density": res.density,
              "provenance": res.provenance, "gamma": res.gamma,
              "k": a.k, "n": g.n, "seed": a.seed}
    # ratio vs planted ground truth (sidecar) or brute force at desk scale;
    # brute_force_dks counts edges, so weighted input gets no brute-force ratio
    if gt is not None:
        record["ratio"] = gt / res.density if res.density > 0 else None
        record["ratio_vs"] = "planted"
    elif g.n <= 18 and g.weight_array is None:
        opt = brute_force_dks(g, a.k)
        record["ratio"] = opt.density / res.density if res.density > 0 else None
        record["ratio_vs"] = "brute-force"
    _write_json(a.out, record)
    _write_json(a.out + ".timing.json", {"solve_seconds": elapsed})
    return 0


def cmd_distinguish(a) -> int:
    if a.test not in _TESTS:
        raise UsageError(f"--test must be one of {sorted(_TESTS)}")
    default_c, call = _TESTS[a.test]
    params = {"k": a.k, "null_degree": a.n ** a.alpha, "pair_budget": a.budget,
              "rho": a.rho if a.rho is not None else a.alpha,
              "r": a.r, "s": a.s, "budget": a.budget,
              "c": a.c if a.c is not None else default_c}

    t0 = time.perf_counter()
    rows = []
    for i in range(a.trials):
        for truth, seed in (("null", a.seed + 2 * i),
                            ("planted", a.seed + 2 * i + 1)):
            inst = (null_instance(a.n, a.alpha, seed) if truth == "null"
                    else plant(a.n, a.alpha, a.k, a.beta, seed))
            v = call(inst.graph, params, seed)
            rows.append([inst.model, a.n, a.alpha, a.k, a.beta, seed,
                         v.statistic, repr(v.value), repr(v.threshold),
                         v.decision, truth])
            del inst  # free this graph before the next one is built
    elapsed = time.perf_counter() - t0

    header = ["model", "n", "alpha", "k", "beta", "seed", "statistic",
              "value", "threshold", "decision", "truth"]
    _write_csv(a.out, header, rows)
    correct = sum(1 for r in rows
                  if (r[-1] == "planted") == (r[-2] == "planted"))
    _write_json(a.out + ".summary.json",
                {"test": a.test, "trials": len(rows),
                 "accuracy": correct / len(rows), "params": {
                     kk: params[kk] for kk in sorted(params)}})
    _write_json(a.out + ".timing.json", {"distinguish_seconds": elapsed})
    return 0


def cmd_lp_export(a) -> int:
    g = load_graph(a.input)
    inst = build_lp(g, a.k, a.d, a.t, budget=a.budget)
    export_lp(inst, a.out)
    return 0


def cmd_bench(a) -> int:
    """Sweep alpha: empirical planted-vs-null density ratio per grid point.

    For each alpha, k = round(n^alpha); the planted density is the clique
    density k-1 and the null density is what approximate() finds on
    G(n, n^(alpha-1)). The ratio curve peaks near alpha = 1/2.
    """
    t0 = time.perf_counter()
    rows, summary = [], []
    for gi, alpha in enumerate(a.alphas):
        k = max(2, round(a.n ** alpha))
        ratios = []
        for seed in range(a.seed, a.seed + a.trials):
            res = approximate(null_instance(a.n, alpha, seed).graph, k,
                              SolverConfig(seed=seed, leaf_budget=a.budget))
            ratios.append((k - 1) / max(res.density, 1.0))
            rows.append([gi, alpha, a.n, k, seed, repr(res.density),
                         repr(ratios[-1])])
        summary.append({"alpha": alpha, "mean_ratio": sum(ratios) / len(ratios),
                        "trials": len(ratios)})
    elapsed = time.perf_counter() - t0

    _write_csv(a.out, ["grid", "alpha", "n", "k", "seed", "null_density",
                       "ratio"], rows)
    _write_json(a.out + ".summary.json", {"n": a.n, "grid": summary})
    _write_json(a.out + ".timing.json", {"bench_seconds": elapsed})
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 by default; usage errors are exit code 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_COMMANDS = {
    "gen": (cmd_gen, "write a G(n,p) edge-list file; --alpha sets "
                     "p = n^(alpha-1)"),
    "plant": (cmd_plant, "planted instance + ground-truth sidecar"),
    "solve": (cmd_solve, "approximate densest k-subgraph"),
    "distinguish": (cmd_distinguish, "planted-vs-null test battery; --c "
                                     "overrides the threshold constant"),
    "lp-export": (cmd_lp_export, "write the depth-t LP in LP format"),
    "bench": (cmd_bench, "alpha-grid ratio sweep"),
}


@functools.cache         # parse_args leaves the parser as it was: build it once
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="catdks",
                description="caterpillar-based densest-k-subgraph toolkit")
    sub = p.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name, (func, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for param, (typ, _) in _PARAMS[name].items():
            sp.add_argument("--" + param.replace("_", "-"),
                            type=_FLAG_TYPE.get(typ, typ))
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--config", type=str, default=None,
                        help="JSON config file (schema_version %d)"
                        % CONFIG_SCHEMA_VERSION)
        sp.set_defaults(func=func)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(_params(args))
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
