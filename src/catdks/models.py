"""Random graph models and planted-subgraph distinguishers.

Generators are deterministic under a 64-bit seed. Distinguishers compute one
statistic each and compare against a threshold (decision is "planted" iff
statistic > threshold); the threshold constants were calibrated once on null
Monte-Carlo runs and are frozen as regression values.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

import numpy as np

from .caterpillar import build_schedule, max_witness_count
from .graphs import Graph, density_report, vertex_array


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
    notes: str = ""

    @staticmethod
    def decide(statistic: str, value: float, threshold: float,
               notes: str = "") -> "DistinguishVerdict":
        return DistinguishVerdict(statistic=statistic, value=float(value),
                                  threshold=float(threshold),
                                  decision="planted" if value > threshold else "null-model",
                                  notes=notes)


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), each pair an edge independently with probability p."""
    if not 0 <= p <= 1:
        raise ValueError(f"p={p} out of [0,1]")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < 2 or p == 0:
        return Graph.from_edges(n, [])
    rng = np.random.default_rng(seed)
    # pair k of the row-major upper triangle is (i, j): row i starts at
    # starts[i] and holds j = i+1 .. n-1; mapping the kept k back avoids
    # materialising all n(n-1)/2 index pairs
    pairs = n * (n - 1) // 2
    k = np.arange(pairs) if p == 1 else np.flatnonzero(rng.random(pairs) < p)
    rows = np.arange(n)
    starts = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(starts, k, side="right") - 1
    return Graph.from_edges(n, np.stack([i, k - starts[i] + i + 1], axis=1))


def _replace_induced(base: Graph, location: tuple[int, ...], h: Graph) -> Graph:
    inside = np.zeros(base.n, dtype=bool)
    inside[list(location)] = True
    kept = base.edge_array[~inside[base.edge_array].all(axis=1)]
    mapped = np.asarray(location, dtype=np.int64)[h.edge_array]
    return Graph.from_edges(base.n, np.concatenate([kept, mapped]))


def plant(n: int, alpha: float, k: int, beta: float, seed: int) -> PlantedInstance:
    """Plant G(k, k^(beta-1)) on a random k-set inside G(n, n^(alpha-1))."""
    if not (0 < alpha < 1 and 0 < beta <= 1):
        raise ValueError("alpha in (0,1) and beta in (0,1] required")
    if k > n:
        raise ValueError("k > n")
    rng = np.random.default_rng(seed)
    base = gen_gnp(n, n ** (alpha - 1), int(rng.integers(0, 2**63 - 1)))
    location = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
    h = gen_gnp(k, k ** (beta - 1), int(rng.integers(0, 2**63 - 1)))
    g = _replace_induced(base, location, h)
    gt = density_report(g, location).average_degree if k else None
    return PlantedInstance(graph=g, planted=location, model="random-planted",
                           params={"n": n, "alpha": alpha, "k": k, "beta": beta,
                                   "seed": seed},
                           ground_truth_density=gt)


def plant_arbitrary(g_base: Graph, h: Graph, location: Iterable[int],
                    seed: int = 0) -> PlantedInstance:
    """Replace the induced subgraph on `location` by an arbitrary graph h."""
    loc = tuple(vertex_array(g_base, location).tolist())
    if len(loc) != h.n:
        raise ValueError(f"location size {len(loc)} != |V(h)| = {h.n}")
    g = _replace_induced(g_base, loc, h)
    gt = density_report(g, loc).average_degree if loc else None
    return PlantedInstance(graph=g, planted=loc, model="dense-in-random",
                           params={"n": g_base.n, "k": len(loc), "seed": seed},
                           ground_truth_density=gt)


def null_instance(n: int, alpha: float, seed: int) -> PlantedInstance:
    g = gen_gnp(n, n ** (alpha - 1), seed)
    return PlantedInstance(graph=g, planted=None, model="null",
                           params={"n": n, "alpha": alpha, "seed": seed})


# ---------------------------------------------------------------------------
# distinguishers


def degree_distinguisher(g: Graph, k: int, expected_null_degree: float,
                         c: float = 1.0) -> DistinguishVerdict:
    """Mean degree of the top-k vertices vs the null expectation plus
    c*sqrt(log n) standard deviations."""
    if g.n == 0 or k == 0:
        return DistinguishVerdict.decide("top-k-degree", 0.0, expected_null_degree)
    deg = np.sort(g.degrees)[::-1]
    stat = float(deg[:k].mean())
    thr = expected_null_degree + c * math.sqrt(max(math.log(max(g.n, 2)), 1.0)) \
        * math.sqrt(max(expected_null_degree, 1.0))
    return DistinguishVerdict.decide("top-k-degree", stat, thr,
                                     notes=f"c={c}")


def intersection_distinguisher(g: Graph, pair_budget: int, seed: int = 0,
                               c: float = 3.0) -> DistinguishVerdict:
    """Max neighborhood-intersection size over enumerated or sampled pairs.

    The null mean n*p^2 and binomial deviation are estimated from the realized
    edge density.
    """
    n = g.n
    if n < 2:
        return DistinguishVerdict.decide("max-pair-intersection", 0.0, 0.0)
    p_hat = 2 * g.m / (n * (n - 1))
    mean = n * p_hat * p_hat
    sigma = math.sqrt(max(mean, 1.0))
    thr = mean + c * math.sqrt(max(math.log(n), 1.0)) * sigma
    adj = g.adj
    total_pairs = n * (n - 1) // 2
    best = 0
    if total_pairs <= pair_budget:
        for u in range(n):
            for v in range(u + 1, n):
                best = max(best, len(adj[u] & adj[v]))
    else:
        rng = np.random.default_rng(seed)
        us = rng.integers(0, n, size=pair_budget)
        vs = rng.integers(0, n - 1, size=pair_budget)
        for u, v in zip(us.tolist(), vs.tolist()):
            if v >= u:
                v += 1
            best = max(best, len(adj[u] & adj[v]))
    return DistinguishVerdict.decide("max-pair-intersection", float(best), thr,
                                     notes=f"c={c}")


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
    if n == 0:
        raise ValueError("empty graph")
    if g.m == 0:
        return 0.0
    A = g.adjacency_matrix

    def deflated(x):
        y = A @ (x - x.mean())
        return y - y.mean()

    return abs(_extreme_eigenvalue(n, deflated, "LM", seed))


def planted_rayleigh(g: Graph, h_set: Iterable[int]) -> float:
    """Exact Rayleigh quotient of the +1 / -k/(n-k) test vector.

    The vector is orthogonal to all-ones by construction; this is asserted in
    exact rational arithmetic.
    """
    members = vertex_array(g, h_set)
    k, n = len(members), g.n
    if not 0 < k < n:
        raise ValueError("need 0 < |h_set| < n")
    neg = Fraction(-k, n - k)
    assert k * Fraction(1) + (n - k) * neg == 0  # x ⟂ 1 exactly
    # edges with 0, 1 and 2 endpoints in h_set contribute x_u x_v = neg^2, neg and 1
    inside = np.isin(g.edge_array, members).sum(axis=1)
    none, one, both = np.bincount(inside, minlength=3).tolist()
    num = 2 * (none * neg * neg + one * neg + both)
    den = Fraction(k) + Fraction(k * k, n - k)
    return float(num / den)


def spectral_distinguisher(g: Graph, k: int, rho: float, c: float = 2.0,
                           seed: int = 0) -> DistinguishVerdict:
    """Deflated top-magnitude eigenvalue vs c * n^(rho/2)."""
    stat = lambda2_estimate(g, seed=seed)
    thr = c * g.n ** (rho / 2)
    return DistinguishVerdict.decide("lambda2", stat, thr, notes=f"c={c}")


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
    """
    n = g.n
    if n == 0 or g.m == 0:
        return {"dual_value": 0.0, "psd_margin": 0.0, "lambda2": 0.0}
    D = 2 * g.m / n
    A = g.adjacency_matrix
    lam2 = _extreme_eigenvalue(n, lambda x: A @ x - (D / n) * x.sum(), "LA", seed)
    dual_value = k * k * D / n + k * lam2
    margin = _extreme_eigenvalue(n, lambda x: (D / n) * x.sum() - A @ x + lam2 * x,
                                 "SA", seed)
    return {"dual_value": dual_value, "psd_margin": margin, "lambda2": lam2}


def _dense_subset_heuristic(g: Graph, k: int, rounds: int = 4) -> tuple[int, ...]:
    """Top-k degrees followed by a few rounds of degree-into-set refinement."""
    ids = np.arange(g.n)
    current = np.sort(np.lexsort((ids, -g.degrees))[:k])   # ties by smaller id
    best, best_edges = current, g.edge_count_within(current)
    for _ in range(rounds):
        score = np.bincount(g.rows(current)[1], minlength=g.n)   # degree into current
        current = np.sort(np.lexsort((ids, -score))[:k])
        e = g.edge_count_within(current)
        if e > best_edges:
            best, best_edges = current, e
    return tuple(best.tolist())


def sdp_dual_distinguisher(g: Graph, k: int, c: float = 1.0,
                           witness: Optional[Iterable[int]] = None) -> DistinguishVerdict:
    """Primal witness edges vs the null dual bound c * k(sqrt(D) + k^2 D / n).

    Any k-subgraph's edge count lower-bounds the SDP value, which for a random
    graph is upper-bounded by the dual certificate; a witness beating that
    bound certifies the graph is not null. The witness defaults to a greedy
    dense-subset heuristic.
    """
    n = g.n
    if n == 0 or g.m == 0:
        return DistinguishVerdict.decide("primal-witness-edges", 0.0, 0.0)
    D = 2 * g.m / n
    thr = c * k * (math.sqrt(D) + k * k * D / n)
    verts = vertex_array(g, witness) if witness is not None \
        else _dense_subset_heuristic(g, k)
    stat = float(g.edge_count_within(verts))
    return DistinguishVerdict.decide("primal-witness-edges", stat, thr,
                                     notes=f"c={c}")


def caterpillar_distinguisher(g: Graph, r: int, s: int, budget: int,
                              seed: int = 0, c: float = 4.0) -> DistinguishVerdict:
    """Max caterpillar witness count vs c * (log n)^(s-r)."""
    sched = build_schedule(r, s)
    _, count = max_witness_count(g, sched, budget, seed)
    thr = c * math.log(max(g.n, 3)) ** (s - r)
    return DistinguishVerdict.decide("max-witness-count", float(count), thr,
                                     notes=f"c={c}")
