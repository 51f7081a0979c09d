"""The benchmark's three workloads.

Each workload drives catdks through its public entry points, on inputs made
from the benchmark seed. ``setup(workdir)`` prepares a pool of inputs;
``op(i)`` is one timed operation on pool input i and returns its raw result;
``check(i, raw, full)`` runs outside the timed region and returns an Outcome:
the SHA-256 of the op's deterministic output bytes, the problems found (an
empty list when the output is correct) and the values the quality metric and
the per-layer metrics are taken from. ``full`` is true the first time input i
runs; a repeat is checked against the first run's digest.

Library functions are always looked up on their module (``models.gen_gnp``,
not a name imported here), so the tracer's patches see every call.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import statistics
import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import LinearOperator, eigsh

from catdks import cli, graphs, lp, models


@dataclass
class Outcome:
    digest: str
    problems: list[str]
    values: dict = field(default_factory=dict)


def _seeds(seed: int, stream: int, count: int) -> list[int]:
    """`count` seeds for one input stream, all determined by the run seed."""
    state = np.random.SeedSequence([seed, stream]).generate_state(count)
    return [int(s) for s in state]


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON literal {name}")


def _strict_json(text: str):
    """json.loads that refuses NaN and Infinity literals."""
    return json.loads(text, parse_constant=_reject_constant)


def _sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


class SolvePlanted:
    """`catdks solve` on instances written by `catdks plant`."""

    name = "solve-planted"
    pool = 24   # about one run's ops: each op draws a distinct instance
    quality = ("density_ratio", "ratio", statistics.fmean)
    N, ALPHA, K, BETA, LEAF_BUDGET = 1000, 0.5, 32, 0.8, 300

    def __init__(self, seed: int):
        self.plant_seeds = _seeds(seed, 1, self.pool)
        self.solve_seeds = _seeds(seed, 2, self.pool)
        self.inputs: list[str] = []

    def setup(self, workdir: str) -> None:
        inputs = []
        for i, s in enumerate(self.plant_seeds):
            path = os.path.join(workdir, f"planted{i}.txt")
            rc = cli.main(["plant", "--n", str(self.N), "--alpha", repr(self.ALPHA),
                           "--k", str(self.K), "--beta", repr(self.BETA),
                           "--seed", str(s), "--out", path])
            if rc != 0:
                raise RuntimeError(f"catdks plant exited {rc}")
            inputs.append(path)
        self.inputs = inputs

    def op(self, i: int):
        out = self.inputs[i] + ".solve.json"
        rc = cli.main(["solve", "--input", self.inputs[i], "--k", str(self.K),
                       "--leaf-budget", str(self.LEAF_BUDGET),
                       "--seed", str(self.solve_seeds[i]), "--out", out])
        return rc, out

    def check(self, i: int, raw, full: bool) -> Outcome:
        rc, out = raw
        if rc != 0:
            return Outcome("", [f"catdks solve exited {rc}"])
        data = _read(out)
        outcome = Outcome(_sha256(data), [])
        try:
            rec = _strict_json(data.decode("utf-8"))
        except ValueError as exc:
            outcome.problems.append(f"solve JSON: {exc}")
            return outcome
        outcome.values = {"provenance": rec.get("provenance", ""),
                          "quality": rec.get("ratio")}
        if not full:
            return outcome
        p = outcome.problems
        verts = rec.get("vertices")
        if not isinstance(verts, list) or not all(isinstance(v, int) for v in verts):
            p.append("vertices is not a list of integers")
            return outcome
        if len(verts) != self.K or len(set(verts)) != self.K:
            p.append(f"{len(set(verts))} distinct vertices, expected k={self.K}")
        if not all(0 <= v < self.N for v in verts):
            p.append("vertex out of range")
        if not p:
            host = graphs.load_graph(self.inputs[i])
            expect = graphs.density_report(host, verts).average_degree
            if rec.get("density") != expect:
                p.append(f"density {rec.get('density')!r} != recomputed {expect!r}")
        if rec.get("ratio_vs") != "planted" or not isinstance(rec.get("ratio"), float):
            p.append("no ratio against the planted density")
        return outcome


class DistinguishCaterpillar:
    """`catdks distinguish --test caterpillar`, one null and one planted graph
    per op, at n=2000, alpha=2/3, k=159."""

    name = "distinguish-caterpillar"
    pool = 32
    quality = ("accuracy", "ratio", statistics.fmean)
    HEADER = ["model", "n", "alpha", "k", "beta", "seed", "statistic",
              "value", "threshold", "decision", "truth"]

    def __init__(self, seed: int):
        # the CLI uses seed s for the null graph and s+1 for the planted one
        self.op_seeds = _seeds(seed, 3, self.pool)
        self.workdir = ""

    def setup(self, workdir: str) -> None:
        self.workdir = workdir

    def op(self, i: int):
        out = os.path.join(self.workdir, f"distinguish{i}.csv")
        rc = cli.main(["distinguish", "--test", "caterpillar", "--n", "2000",
                       "--alpha", repr(2 / 3), "--k", "159", "--beta", "1.0",
                       "--trials", "1", "--budget", "10000",
                       "--seed", str(self.op_seeds[i]), "--out", out])
        return rc, out

    def check(self, i: int, raw, full: bool) -> Outcome:
        rc, out = raw
        if rc != 0:
            return Outcome("", [f"catdks distinguish exited {rc}"])
        table, summary_bytes = _read(out), _read(out + ".summary.json")
        outcome = Outcome(_sha256(table, summary_bytes), [])
        p = outcome.problems
        rows = list(csv.reader(io.StringIO(table.decode("utf-8"))))
        if not rows or rows[0] != self.HEADER:
            p.append("CSV header differs")
            return outcome
        rows = rows[1:]
        if len(rows) != 2 or [r[-1] for r in rows] != ["null", "planted"]:
            p.append(f"expected a null and a planted row, got {len(rows)} rows")
            return outcome
        try:
            summary = _strict_json(summary_bytes.decode("utf-8"))
        except ValueError as exc:
            p.append(f"summary JSON: {exc}")
            return outcome
        correct = sum((r[-2] == "planted") == (r[-1] == "planted") for r in rows)
        if summary.get("trials") != len(rows) or \
                summary.get("accuracy") != correct / len(rows):
            p.append("summary accuracy does not match the rows")
        outcome.values = {"quality": correct / len(rows)}
        return outcome


def _edge_array(g: graphs.Graph) -> np.ndarray:
    """Edges as an (m, 2) int array: the pool stays out of the garbage
    collector's way, as a user's process holds no other graphs."""
    return np.array(sorted(g.edges), dtype=np.int64).reshape(-1, 2)


def _graph(n: int, uv: np.ndarray) -> graphs.Graph:
    """A fresh Graph, caches cold, through the public constructor."""
    return graphs.Graph.from_edges(n, uv.tolist())


def _deflated_lambda2(uv: np.ndarray, n: int, seed: int) -> float:
    """Reference: largest-magnitude eigenvalue of P A P with P = I - J/n,
    by ARPACK on an adjacency matrix built here from the edge array."""
    rows = np.concatenate([uv[:, 0], uv[:, 1]])
    cols = np.concatenate([uv[:, 1], uv[:, 0]])
    A = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()

    def matvec(x):
        x = np.ravel(x)
        y = A @ (x - x.mean())
        return y - y.mean()

    op = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    v0 = np.random.default_rng(seed).standard_normal(n)
    return float(abs(eigsh(op, k=1, which="LM", v0=v0)[0][0]))


class Certify:
    """Spectral estimate, SDP dual certificate and a depth-2 LP replay."""

    name = "certify"
    pool = 16
    quality = ("lambda2_rel_err", "ratio", max)
    K_SDP = 20
    LP_N, LP_K, LP_D, LP_T, LP_NOISE_P = 36, 6, 5, 2, 0.15

    def __init__(self, seed: int):
        self.seeds = _seeds(seed, 4, 4 * self.pool)
        self.inputs: list[dict] = []

    def setup(self, workdir: str) -> None:
        inputs = []
        clique = graphs.Graph.from_edges(self.LP_K, combinations(range(self.LP_K), 2))
        for i in range(self.pool):
            s_spec, s_sdp, s_lp, s_loc = self.seeds[4 * i: 4 * i + 4]
            rho = 0.4 if i % 2 == 0 else 0.5
            spectral = models.gen_gnp(1000, 1000 ** (rho - 1), s_spec)
            D = 5 if i % 2 == 0 else 22
            sdp = models.gen_gnp(500, D / 500, s_sdp)
            noise = models.gen_gnp(self.LP_N, self.LP_NOISE_P, s_lp)
            loc = np.random.default_rng(s_loc).choice(self.LP_N, size=self.LP_K,
                                                      replace=False)
            planted = models.plant_arbitrary(noise, clique, loc.tolist())
            inputs.append({"spectral": _edge_array(spectral),
                           "sdp": _edge_array(sdp),
                           "lp": _edge_array(planted.graph),
                           "planted": planted.planted,
                           "seed": s_spec})
        self.inputs = inputs

    def op(self, i: int):
        inp = self.inputs[i]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lam = models.lambda2_estimate(_graph(1000, inp["spectral"]),
                                          seed=inp["seed"])
        cert = models.sdp_dual_certificate(_graph(500, inp["sdp"]), self.K_SDP)
        inst = lp.build_lp(_graph(self.LP_N, inp["lp"]), self.LP_K, self.LP_D,
                           self.LP_T)
        verdict = lp.check_feasible(inst, lp.indicator_solution(inst, inp["planted"]))
        nonconverged = sum("did not converge" in str(w.message) for w in caught)
        return {"lambda2": lam, "nonconverged": nonconverged, "certificate": cert,
                "feasible": verdict.feasible, "violations": len(verdict.violations),
                "variables": len(inst.variables),
                "constraints": len(inst.constraints)}

    def check(self, i: int, raw, full: bool) -> Outcome:
        doc = dict(raw, lambda2=repr(raw["lambda2"]),
                   certificate={k: repr(v) for k, v in raw["certificate"].items()})
        outcome = Outcome(_sha256(json.dumps(doc, sort_keys=True).encode()), [],
                          {"nonconverged": raw["nonconverged"]})
        p = outcome.problems
        if not raw["feasible"] or raw["violations"]:
            p.append(f"LP indicator infeasible: {raw['violations']} violations")
        cert = raw["certificate"]
        if not all(math.isfinite(v) for v in cert.values()):
            p.append("non-finite SDP certificate")
        elif cert["psd_margin"] < -1e-6:
            p.append(f"psd_margin {cert['psd_margin']!r} < -1e-6")
        if not math.isfinite(raw["lambda2"]):
            p.append("non-finite lambda2 estimate")
        elif full:
            inp = self.inputs[i]
            ref = _deflated_lambda2(inp["spectral"], 1000, inp["seed"])
            outcome.values["quality"] = abs(raw["lambda2"] - ref) / ref
        return outcome


WORKLOADS = {w.name: w for w in (SolvePlanted, DistinguishCaterpillar, Certify)}
