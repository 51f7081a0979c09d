"""The densest-k-subgraph solver family.

dks_local extracts a dense bipartite candidate from (S, Gamma(S)) by
top-degree selection over all sizes k' <= k. The branch engine enumerates (or
samples) leaf choices at each hair step of a caterpillar schedule, running
dks_local at every step; cluster mode generalizes leaves to C-subsets for the
subexponential variant. The top-level approximate() driver assembles the
preprocessing pipeline: weight buckets, greedy degree cap, bipartite double
cover, caterpillar search, collapse, and resize to exactly k.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .caterpillar import HAIR, CaterpillarSchedule, build_schedule, choose_rs, hair_step
from .graphs import (Graph, SolveResult, density_report, vertex_array,
                     weighted_average_degree)
from .reductions import (bipartite_double_cover, collapse_double_cover,
                         greedy_core, prune_to_size, union_until_k, weight_buckets)


@dataclass
class SolverConfig:
    s_max: int = 4
    leaf_budget: int = 2000
    seed: int = 0


def _edgeless(n: int, k: int) -> SolveResult:
    """The first min(k, n) vertices, for a graph with no edges to find."""
    return SolveResult(vertices=tuple(range(min(k, n))), density=0.0,
                       provenance="edgeless")


def _fold(best: Optional[SolveResult], cand: Optional[SolveResult]) -> Optional[SolveResult]:
    if cand is None:
        return best
    return cand if cand.better_than(best) else best


def dks_local(g: Graph, s_set: Iterable[int], k: int,
              universe: Optional[Iterable[int]] = None,
              provenance: str = "local") -> SolveResult:
    """Densest bipartite candidate on (S, Gamma(S)).

    Gamma(S) is ordered by degree into S, descending (ties by id), and T is
    its first k members. For each k' = 1..k the candidate pairs T_k', the
    first min(k', |Gamma(S)|) members of T, with the min(k', |S|) members of
    S that have the most neighbours in T_k' (ties by id); k' stops growing
    once neither side can. All k' are scored at once from the prefix matrix
    C, whose row t-1 counts, for each member of S, its neighbours among the
    first t members of T (the cumulative sum over T of the T x S incidence
    matrix): a candidate's cross edges are the sum of the m largest entries
    of its row. Candidates are compared by bipartite average degree (ties:
    fewer vertices, then lexicographic); the returned density is the induced
    average degree of the winning vertex set in the host graph.

    `universe`, when given, restricts Gamma(S) to that subset.
    """
    S = vertex_array(g, s_set)
    if not len(S):
        raise ValueError("dks_local requires a nonempty set")
    if k < 1:
        raise ValueError("k must be >= 1")
    owner, nbr = g.rows(S)
    deg = np.bincount(nbr, minlength=g.n)  # degree into S; Gamma(S) is deg > 0
    if universe is not None:
        keep = np.zeros(g.n, dtype=bool)
        keep[vertex_array(g, universe)] = True
        deg[~keep] = 0
    gamma = np.flatnonzero(deg)
    if not len(gamma):
        return SolveResult(vertices=tuple(S.tolist()), density=0.0,
                           provenance=provenance)
    order = gamma[np.lexsort((gamma, -deg[gamma]))]
    T = order[:k]
    rank = np.full(g.n, len(T))
    rank[T] = np.arange(len(T))
    hit = rank[nbr] < len(T)
    C = np.zeros((len(T), len(S)), dtype=np.int32)
    C[rank[nbr[hit]], owner[hit]] = 1
    np.cumsum(C, axis=0, out=C)
    # top[t-1, m-1]: cross edges of the m best members of S against T[:t]
    top = np.cumsum(np.sort(C, axis=1)[:, ::-1], axis=1)
    kp = np.arange(1, min(k, max(len(order), len(S))) + 1)
    t = np.minimum(kp, len(order))
    m = np.minimum(kp, len(S))
    avg = 2.0 * top[t - 1, m - 1] / (m + t)
    best = None
    for i in np.flatnonzero(avg == avg.max()).tolist():
        chosen = S[np.lexsort((S, -C[t[i] - 1]))[:m[i]]]
        verts = tuple(np.union1d(chosen, T[:t[i]]).tolist())
        if best is None or (len(verts), verts) < (len(best), best):
            best = verts
    dens = density_report(g, best).average_degree
    return SolveResult(vertices=best, density=dens, provenance=provenance)


def _branch_best(g: Graph, k: int, sched: CaterpillarSchedule, budget: int,
                 seed: int, cluster_size: int = 1,
                 cluster_local: bool = False) -> Optional[SolveResult]:
    """Best subgraph over enumerated or sampled branches of the schedule.

    With cluster_size 1 this is the combinatorial caterpillar solver; larger
    clusters realize the subexponential hair step. Full enumeration is used
    when the branch space fits in `budget`, otherwise `budget` branches are
    sampled deterministically from `seed`.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if g.n == 0:
        raise ValueError("empty graph")
    cands = np.flatnonzero(g.degrees).tolist()
    if not cands:
        return None
    n_hairs = sched.num_leaves
    best: Optional[SolveResult] = None

    def walk(t: int, current: np.ndarray,
             hairs: Sequence[Sequence[tuple[int, ...]]]) -> None:
        """Run steps t..s from `current` (a sorted vertex array); hairs[i]
        lists the clusters tried at the i-th hair step still ahead. Folds in
        depth-first pre-order."""
        nonlocal best
        if t > 1:
            best = _fold(best, dks_local(g, current, k, provenance=f"local@t={t}"))
        if sched.steps[t - 1] == HAIR:
            for J in hairs[0]:
                nxt = hair_step(g, current, J)
                if cluster_local and len(nxt):
                    best = _fold(best, dks_local(
                        g, J, k, universe=np.union1d(nxt, J),
                        provenance=f"cluster-local@t={t}"))
                if len(nxt) and t < sched.s:
                    walk(t + 1, nxt, hairs[1:])
        else:
            nxt = g.neighbors(current)
            if len(nxt) and t < sched.s:
                walk(t + 1, nxt, hairs)

    everyone = np.arange(g.n)
    if math.comb(len(cands), cluster_size) ** n_hairs <= budget:
        walk(1, everyone, [list(combinations(cands, cluster_size))] * n_hairs)
    else:
        rng = np.random.default_rng(seed)

        def draw() -> tuple[int, ...]:
            pick = rng.choice(len(cands), size=cluster_size, replace=False)
            return tuple(sorted(cands[i] for i in pick))

        for _ in range(budget):
            walk(1, everyone, [[draw()] for _ in range(n_hairs)])
    # walk reaches itself through its closure; breaking that cycle frees g
    # (often a whole union round's graph) now rather than at the next
    # cyclic garbage collection
    del walk
    return best


def dks_cat_combinatorial(g: Graph, k: int, r: int, s: int, leaf_budget: int,
                          seed: int = 0) -> SolveResult:
    """Combinatorial caterpillar solver: enumerate/sample leaves at hair steps,
    fold dks_local at every step, then grow the best branch output to exactly
    k vertices with union_until_k."""
    sched = build_schedule(r, s)
    if g.n == 0:
        raise ValueError("empty graph")

    prov = f"caterpillar(r={r},s={s})"

    def inner(current: Graph) -> tuple[int, ...]:
        res = _branch_best(current, k, sched, leaf_budget, seed)
        if res is not None and density_report(current, res.vertices).edge_count > 0:
            return res.vertices
        # residual has edges but no branch spans one: fall back to its first edge
        return tuple(current.edge_array[0].tolist())

    if g.m == 0:
        return _edgeless(g.n, k)
    verts = union_until_k(g, k, inner)
    dens = density_report(g, verts).average_degree
    return SolveResult(vertices=verts, density=dens, provenance=prov)


def dks_exp(g: Graph, k: int, eps: float, cluster_budget: int, seed: int = 0,
            cluster_size: Optional[int] = None, s_max: int = 5) -> SolveResult:
    """Cluster-based hair steps: intersect with Gamma(J_t) for C-subsets J_t,
    additionally running dks_local on each cluster against its candidate set.

    C defaults to round(n^(2*beta*eps/(2*beta*eps+alpha))) with beta = log_n k
    and alpha = 1 - beta. With C = 1 the cluster-local pass is skipped and the
    result matches dks_cat_combinatorial exactly.
    """
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    n = g.n
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    beta = math.log(max(k, 2)) / math.log(n)
    alpha = max(1.0 - beta, 1e-9)
    alpha_prime = min(alpha + 2 * beta * eps, 0.999)
    r, s = choose_rs(alpha_prime, s_max)
    if cluster_size is None:
        cluster_size = max(1, round(n ** (2 * beta * eps / (2 * beta * eps + alpha))))
    if cluster_size == 1:
        return dks_cat_combinatorial(g, k, r, s, cluster_budget, seed)
    sched = build_schedule(r, s)
    best = _branch_best(g, k, sched, cluster_budget, seed,
                        cluster_size=cluster_size, cluster_local=True)
    if best is None:
        return _edgeless(n, k)
    if len(best.vertices) > k:
        verts = prune_to_size(g, best.vertices, k)
        return SolveResult(vertices=verts,
                           density=density_report(g, verts).average_degree,
                           provenance=best.provenance)
    return best


def resize_to_k(g: Graph, s: Iterable[int], k: int) -> tuple[int, ...]:
    """Prune (lowest degree first) or pad a vertex set to exactly k members;
    each padding step adds the vertex with the most neighbours in the set,
    ties (also at none) by smaller id."""
    if not 0 <= k <= g.n:
        raise ValueError(f"k={k} out of range [0,{g.n}]")
    cur = vertex_array(g, s)
    if len(cur) > k:
        return prune_to_size(g, cur, k)
    indptr, indices = g.csr
    score = np.bincount(g.rows(cur)[1], minlength=g.n)   # neighbours in the set
    score[cur] = -1                                      # members
    for _ in range(k - len(cur)):
        v = int(score.argmax())
        score[v] = -1
        nbrs = indices[indptr[v]:indptr[v + 1]]
        score[nbrs[score[nbrs] >= 0]] += 1
    return tuple(np.flatnonzero(score < 0).tolist())


def approximate(g: Graph, k: int, config: Optional[SolverConfig] = None) -> SolveResult:
    """Top-level driver: weight buckets -> greedy degree cap -> bipartite
    double cover -> caterpillar search at the cap's log-density -> collapse ->
    resize to k; returns the denser of the caterpillar output and the greedy
    baseline.

    Weighted input is solved bucket by bucket, each unweighted, which loses up
    to an O(log n) factor by design: K6 at weight 1 plus a 6-edge matching at
    weight 1000, k=6, finds weighted density 667 where 1000 is attainable."""
    config = config or SolverConfig()
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range for n={g.n}")
    if g.weight_array is not None:
        # each bucket is solved unweighted; its set is scored and reported by
        # its weighted average degree in g
        best: Optional[SolveResult] = None
        for i, bucket in enumerate(weight_buckets(g)):
            res = approximate(bucket, k, config)
            res = SolveResult(vertices=res.vertices,
                              density=weighted_average_degree(g, res.vertices),
                              provenance=f"bucket{i}:{res.provenance}",
                              gamma=res.gamma)
            best = _fold(best, res)
        return best or _edgeless(g.n, k)
    if k == g.n:
        verts = tuple(range(g.n))
        return SolveResult(vertices=verts,
                           density=density_report(g, verts).average_degree,
                           provenance="whole-graph")
    if g.m == 0:
        return _edgeless(g.n, k)
    if k == 1:
        return SolveResult(vertices=(0,), density=0.0, provenance="single-vertex")

    core = greedy_core(g, k)
    greedy_verts = resize_to_k(g, core.h_prime, k)
    greedy_res = SolveResult(vertices=greedy_verts,
                             density=density_report(g, greedy_verts).average_degree,
                             provenance="greedy", gamma=core.gamma)

    cat_res: Optional[SolveResult] = None
    gp = core.g_prime
    if gp.m > 0 and gp.n > 1:
        cover = bipartite_double_cover(gp)
        cap = max(core.cap_degree, float(gp.max_degree()))
        if cap > 1.0:
            alpha = math.log(cap) / math.log(cover.n)
            alpha = min(max(alpha, 1e-6), 1 - 1e-6)
            r, s = choose_rs(alpha, config.s_max)
            k_cover = min(2 * k, cover.n)
            cov_res = dks_cat_combinatorial(cover, k_cover, r, s,
                                            config.leaf_budget, config.seed)
            collapsed = collapse_double_cover(cov_res.vertices, gp.n)
            original = [core.g_prime_vertices[v] for v in collapsed]
            verts = resize_to_k(g, original, k)
            cat_res = SolveResult(vertices=verts,
                                  density=density_report(g, verts).average_degree,
                                  provenance=f"caterpillar(r={r},s={s})",
                                  gamma=core.gamma)

    best = greedy_res if cat_res is None or greedy_res.better_than(cat_res) else cat_res
    return best
