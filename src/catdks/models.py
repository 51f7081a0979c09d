"""Random graph models and planted-subgraph distinguishers.

Generators are deterministic under a 64-bit seed. Distinguishers compute one
statistic each and compare against a threshold (decision is "planted" iff
statistic > threshold); the threshold constants were calibrated once on null
Monte-Carlo runs and are frozen as regression values.
"""
from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .caterpillar import _count_batch, build_schedule, max_witness_count
from .graphs import Graph, _graph, _pairs, _vertex_count, check_int, vertex_array


@dataclass(frozen=True)
class PlantedInstance:
    graph: Graph
    planted: Optional[tuple[int, ...]]
    model: str  # null | random-planted | dense-in-random
    params: dict
    ground_truth_density: Optional[float] = None


@dataclass(frozen=True)
class DistinguishVerdict:
    statistic: str
    value: float
    threshold: float
    decision: str  # "planted" | "null-model"

    @staticmethod
    def decide(statistic: str, value: float, threshold: float) -> "DistinguishVerdict":
        return DistinguishVerdict(statistic=statistic, value=float(value),
                                  threshold=float(threshold),
                                  decision="planted" if value > threshold else "null-model")


_DRAW = 1 << 16       # pairs a worker draws at once: memory is O(m) plus a block per worker


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), each pair an edge independently with probability p:
    one rng.random draw per pair of one stream, in row-major upper-triangle order."""
    n = _vertex_count(n)
    check_int("seed", seed, 0)
    if not 0 <= p <= 1:
        raise ValueError(f"p={p} out of [0,1]")
    return _graph(n, _pairs(n, _gnp_codes(n, p, seed)))


def _gnp_codes(n: int, p: float, seed: int) -> np.ndarray:
    """gen_gnp's edges (u, v) as sorted codes u * n + v, in blocks of _DRAW draws. From 8
    blocks on, min(CPUs, blocks // 4) workers each jump a default_rng(seed) of their own to
    the next block (one PCG64 output per draw), so the split never changes the codes."""
    pairs = n * (n - 1) // 2 if p else 0               # G(n, 0) draws nothing
    # pair k of the row-major upper triangle is (i, j), i < j; row i starts at
    # pair starts[i], where j = i + 1, so the pair's code is k + shift[i]
    rows = np.arange(n)
    starts = rows * (2 * n - rows - 1) // 2
    shift = rows * (n + 1) + 1 - starts
    lows = range(0, pairs, _DRAW)
    codes, todo, errors = [np.empty(0, np.int64)] * (len(lows) + 1), iter(enumerate(lows, 1)), []
    def work(helpers=()):
        try:
            for t in helpers:                          # the caller starts the other workers
                t.start()
            rng, draw, at = np.random.default_rng(seed), np.empty(min(pairs, _DRAW)), 0
            for b, lo in todo:                         # next() is atomic under the GIL
                rng.bit_generator.advance(lo - at)
                at = min(lo + _DRAW, pairs)
                k = lo + np.flatnonzero(rng.random(out=draw[:at - lo]) < p)   # sorted
                r = slice(*np.searchsorted(starts, [lo, at], side="right") - [1, 0])  # rows met
                k += np.repeat(shift[r], np.diff(np.searchsorted(k, starts[r]), append=len(k)))
                codes[b] = k
        except BaseException as e:                     # raised once every thread has ended
            errors.append(e)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = [threading.Thread(target=work) for _ in range(min(cpus or 1, len(lows) // 4) - 1)]
    work(threads)
    for t in filter(threading.Thread.is_alive, threads):
        t.join()
    if errors:
        raise errors[0]
    return np.concatenate(codes)


def gnp_probability(n: int, alpha: float) -> float:
    """p = n^(alpha - 1), the edge probability that gives G(n, p) an average
    degree of about n^alpha; n must be an integer >= 1."""
    check_int("n", n, 1)
    return float(n) ** (alpha - 1)


def _replace_induced(n: int, code: np.ndarray, loc: np.ndarray, h: Graph) -> np.ndarray:
    """The sorted edge codes u * n + v on [0, n) with those inside `loc` (sorted,
    duplicate-free) replaced by h's edges: vertex i of h is loc[i]."""
    # the codes of rows u in loc are runs of positions lo .. hi - 1
    lo, hi = np.searchsorted(code, loc * n), np.searchsorted(code, loc * n + n)
    run = hi - lo
    at = np.arange(run.sum()) + np.repeat(lo - np.cumsum(run) + run, run)
    kept = np.delete(code, at[np.isin(code[at] % n, loc)])
    new = loc[h.edge_array[:, 0]] * n + loc[h.edge_array[:, 1]]   # sorted: loc is
    return np.insert(kept, np.searchsorted(kept, new), new)


def plant(n: int, alpha: float, k: int, beta: float, seed: int) -> PlantedInstance:
    """Plant h = G(k, k^(beta-1)) on a random k-set inside G(n, n^(alpha-1));
    the set's edges are exactly h's, so ground_truth_density is 2 h.m / k."""
    n = _vertex_count(n)
    check_int("k", k, 0, n)
    check_int("seed", seed, 0)
    if not (0 < alpha < 1 and 0 < beta <= 1):
        raise ValueError("alpha in (0,1) and beta in (0,1] required")
    rng = np.random.default_rng(seed)
    code = _gnp_codes(n, gnp_probability(n, alpha), int(rng.integers(0, 2**63 - 1)))
    location = np.sort(rng.choice(n, size=k, replace=False))
    h = gen_gnp(k, k ** (beta - 1) if k else 0.0, int(rng.integers(0, 2**63 - 1)))
    code = _replace_induced(n, code, location, h)     # frees the base codes
    return PlantedInstance(graph=_graph(n, _pairs(n, code)), planted=tuple(location.tolist()),
                           model="random-planted", params={"n": n, "alpha": alpha, "k": k,
                                                           "beta": beta, "seed": seed},
                           ground_truth_density=2.0 * h.m / k if k else None)


def plant_arbitrary(g_base: Graph, h: Graph, location: Iterable[int]) -> PlantedInstance:
    """Replace the induced subgraph on `location` by an arbitrary graph h;
    ground_truth_density, the location's average degree, is 2 h.m / |location|.
    `location` may come in any order: vertex i of h lands on its i-th smallest id."""
    n, loc = g_base.n, vertex_array(g_base, location)
    if len(loc) != h.n:
        raise ValueError(f"location size {len(loc)} != |V(h)| = {h.n}")
    uv = g_base.edge_array
    code = _replace_induced(n, uv[:, 0] * n + uv[:, 1], loc, h)
    return PlantedInstance(graph=_graph(n, _pairs(n, code)), planted=tuple(loc.tolist()),
                           model="dense-in-random", params={"n": n, "k": len(loc)},
                           ground_truth_density=2.0 * h.m / len(loc) if len(loc) else None)


def null_instance(n: int, alpha: float, seed: int) -> PlantedInstance:
    g = gen_gnp(n, gnp_probability(n, alpha), seed)
    return PlantedInstance(graph=g, planted=None, model="null",
                           params={"n": n, "alpha": alpha, "seed": seed})


# ---------------------------------------------------------------------------
# distinguishers


def degree_distinguisher(g: Graph, k: int, expected_null_degree: float,
                         c: float = 1.0) -> DistinguishVerdict:
    """Mean degree of the top-k vertices vs the null expectation plus
    c*sqrt(log n) standard deviations; k must be an integer in [0, n]."""
    check_int("k", k, 0, g.n)
    if k == 0:
        return DistinguishVerdict.decide("top-k-degree", 0.0, expected_null_degree)
    deg = np.sort(g.degrees)[::-1]
    stat = float(deg[:k].mean())
    thr = expected_null_degree + c * math.sqrt(max(math.log(max(g.n, 2)), 1.0)) \
        * math.sqrt(max(expected_null_degree, 1.0))
    return DistinguishVerdict.decide("top-k-degree", stat, thr)


def intersection_distinguisher(g: Graph, pair_budget: int, seed: int = 0,
                               c: float = 3.0) -> DistinguishVerdict:
    """Max neighborhood-intersection size |Gamma(u) & Gamma(v)|, the (1,2)
    caterpillar count, over every pair u < v when there are at most
    `pair_budget`, else over `pair_budget` seeded pairs of distinct vertices.

    The null mean n*p^2 and binomial deviation are estimated from the realized
    edge density. A pair_budget below 1 or a negative seed raises ValueError.
    """
    check_int("pair_budget", pair_budget, 1)
    check_int("seed", seed, 0)
    n = g.n
    if n < 2:
        return DistinguishVerdict.decide("max-pair-intersection", 0.0, 0.0)
    p_hat = 2 * g.m / (n * (n - 1))
    mean = n * p_hat * p_hat
    sigma = math.sqrt(max(mean, 1.0))
    thr = mean + c * math.sqrt(max(math.log(n), 1.0)) * sigma
    if n * (n - 1) // 2 <= pair_budget:
        pairs = np.stack(np.triu_indices(n, 1), axis=1)
    else:
        rng = np.random.default_rng(seed)
        us = rng.integers(0, n, size=pair_budget)
        vs = rng.integers(0, n - 1, size=pair_budget)
        pairs = np.stack([us, vs + (vs >= us)], axis=1)
    best = max(_count_batch(g, build_schedule(1, 2), pairs), default=0)
    return DistinguishVerdict.decide("max-pair-intersection", float(best), thr)


def _extreme_eigenvalue(n: int, matvec: Callable[[np.ndarray], np.ndarray],
                        which: str, seed: int) -> float:
    """One extreme eigenvalue (eigsh's `which`: "LM", "LA" or "SA") of the
    symmetric operator x -> matvec(x) on R^n, by ARPACK (Lehoucq-Sorensen-Yang)
    from a start vector drawn from default_rng(seed).

    When ARPACK does not converge this warns ("did not converge") and returns
    its partial estimate: the Ritz value it returned, or the Rayleigh quotient
    of the start vector when it returned none.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    op = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        return float(eigsh(op, k=1, which=which, v0=v0, return_eigenvectors=False)[0])
    except ArpackNoConvergence as err:
        warnings.warn(f"eigsh did not converge ({err}); returning its partial estimate",
                      stacklevel=3)
        if len(err.eigenvalues):
            return float(err.eigenvalues[0])
        return float(v0 @ matvec(v0) / (v0 @ v0))


def lambda2_estimate(g: Graph, seed: int = 0) -> float:
    """Largest-magnitude eigenvalue of the adjacency operator on the
    complement of the all-ones direction, |lambda| of P A P with P = I - J/n.

    Computed matrix-free by ARPACK from a start vector seeded by `seed`; warns
    and returns the partial estimate when ARPACK does not converge.
    """
    n = g.n
    check_int("seed", seed, 0)
    if n == 0:
        raise ValueError("empty graph")
    if g.m == 0:
        return 0.0
    A = g.adjacency_matrix

    def deflated(x):
        y = A @ (x - x.mean())
        return y - y.mean()

    return abs(_extreme_eigenvalue(n, deflated, "LM", seed))


def spectral_distinguisher(g: Graph, rho: float, c: float = 2.0,
                           seed: int = 0) -> DistinguishVerdict:
    """Deflated top-magnitude eigenvalue vs c * n^(rho/2)."""
    stat = lambda2_estimate(g, seed=seed)
    thr = c * g.n ** (rho / 2)
    return DistinguishVerdict.decide("lambda2", stat, thr)


def sdp_dual_certificate(g: Graph, k: int, seed: int = 0) -> dict:
    """Dual certificate y_i = D/n, t = lambda2 + kD/n, z = 0, of value
    dual_value = k^2 D / n + k * lambda2; feasible iff psd_margin (min
    eigenvalue of (D/n)J - A + lambda2 I) is nonnegative.

    D is the realized average degree 2|E|/n. lambda2 here is the top
    eigenvalue of the centered adjacency A - (D/n)J, which makes the
    certificate matrix psd by construction; on G(n,p) it coincides with the
    deflated estimate up to lower-order terms. Both eigenvalues come from
    separate matrix-free ARPACK solves (start vectors seeded by `seed`), so
    psd_margin is a numerical check of the certificate, near 0 when it holds.
    k must be an integer in [0, n].
    """
    n = g.n
    check_int("k", k, 0, n)
    check_int("seed", seed, 0)
    if n == 0 or g.m == 0:
        return {"dual_value": 0.0, "psd_margin": 0.0, "lambda2": 0.0}
    D = 2 * g.m / n
    A = g.adjacency_matrix
    lam2 = _extreme_eigenvalue(n, lambda x: A @ x - (D / n) * x.sum(), "LA", seed)
    dual_value = k * k * D / n + k * lam2
    margin = _extreme_eigenvalue(n, lambda x: (D / n) * x.sum() - A @ x + lam2 * x,
                                 "SA", seed)
    return {"dual_value": dual_value, "psd_margin": margin, "lambda2": lam2}


def _dense_subset_heuristic(g: Graph, k: int) -> tuple[int, ...]:
    """Top-k degrees followed by four rounds of degree-into-set refinement."""
    ids = np.arange(g.n)
    current = np.sort(np.lexsort((ids, -g.degrees))[:k])   # ties by smaller id
    best, best_edges = current, g.edge_count_within(current)
    for _ in range(4):
        score = np.bincount(g.rows(current)[1], minlength=g.n)   # degree into current
        current = np.sort(np.lexsort((ids, -score))[:k])
        e = g.edge_count_within(current)
        if e > best_edges:
            best, best_edges = current, e
    return tuple(best.tolist())


def sdp_dual_distinguisher(g: Graph, k: int, c: float = 1.0) -> DistinguishVerdict:
    """Primal witness edges vs the null dual bound c * k(sqrt(D) + k^2 D / n).

    Any k-subgraph's edge count lower-bounds the SDP value, which for a random
    graph is upper-bounded by the dual certificate; a witness beating that
    bound certifies the graph is not null. The witness is the k-set of a
    greedy dense-subset heuristic; k must be an integer in [0, n].
    """
    n = g.n
    check_int("k", k, 0, n)
    if n == 0 or g.m == 0:
        return DistinguishVerdict.decide("primal-witness-edges", 0.0, 0.0)
    D = 2 * g.m / n
    thr = c * k * (math.sqrt(D) + k * k * D / n)
    stat = float(g.edge_count_within(_dense_subset_heuristic(g, k)))
    return DistinguishVerdict.decide("primal-witness-edges", stat, thr)


def caterpillar_distinguisher(g: Graph, r: int, s: int, budget: int,
                              seed: int = 0, c: float = 4.0) -> DistinguishVerdict:
    """Max caterpillar witness count vs c * (log n)^(s-r)."""
    sched = build_schedule(r, s)
    _, count = max_witness_count(g, sched, budget, seed)
    thr = c * math.log(max(g.n, 3)) ** (s - r)
    return DistinguishVerdict.decide("max-witness-count", float(count), thr)
