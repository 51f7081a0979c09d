"""The densest-k-subgraph solver family.

dks_local extracts a dense bipartite candidate from (S, Gamma(S)) by
top-degree selection over all sizes k' <= k. The branch engine walks an
array of leaf choices, one per hair step of a caterpillar schedule (every
choice in lexicographic order, or a seeded sample), in blocks of rows and
scores each block with one batched dks_local (_local_block) per step; ties
go to the lowest (branch, step). Cluster mode generalizes leaves to
C-subsets. The top-level approximate() driver ranks one list of stages by
SolveResult.rank, list order breaking ties: each weight bucket, heaviest
first, or the caterpillar search (greedy degree cap, bipartite double cover,
caterpillar search, collapse, resize to exactly k), then the greedy baseline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Optional

import numpy as np

from .caterpillar import (_CELLS, HAIR, CaterpillarSchedule, build_schedule, choice_rows,
                          choose_rs, walk_step)
from .graphs import (Graph, SolveResult, check_int, sorted_unique, vertex_array,
                     weighted_average_degree)
from .reductions import (bipartite_double_cover, collapse_double_cover, greedy_core,
                         resize_to_k, union_until_k, weight_buckets)


@dataclass
class SolverConfig:
    """approximate's settings, each an integer it checks: s_max >= 2 bounds the
    schedule's s, leaf_budget >= 1 the branches walked, seed >= 0 their sample."""
    s_max: int = 4
    leaf_budget: int = 2000
    seed: int = 0


def _edgeless(k: int) -> SolveResult:
    """The first k vertices, for a graph with no edges to find."""
    return SolveResult(vertices=tuple(range(k)), density=0.0, provenance="edgeless")


def _scored(g: Graph, verts: tuple[int, ...], provenance: str,
            gamma: float = 0.0) -> SolveResult:
    """verts with their (weighted) induced average degree in g as the density."""
    return SolveResult(vertices=verts, density=weighted_average_degree(g, verts),
                       provenance=provenance, gamma=gamma)


def dks_local(g: Graph, s_set: Iterable[int], k: int,
              universe: Optional[Iterable[int]] = None) -> SolveResult:
    """Densest bipartite candidate on (S, Gamma(S)).

    Gamma(S) is ordered by degree into S, descending (ties by id), and T is
    its first k members. For each k' = 1..k the candidate pairs T_k', the
    first min(k', |Gamma(S)|) members of T, with the min(k', |S|) members of
    S that have the most neighbours in T_k' (ties by id); k' stops growing
    once neither side can. All k' are scored at once from the prefix matrix
    C, whose row t-1 counts, for each member of S, its neighbours among the
    first t members of T (the cumulative sum over T of the T x S incidence
    matrix): a candidate's cross edges are the sum of the m largest entries
    of its row, or, once m = |S|, the degrees into S of T_k' summed.
    Candidates are compared by bipartite average degree, ties to the
    smallest k'; the returned density is the induced average degree of the
    winning vertex set in the host graph. When S and Gamma(S) are disjoint,
    the smallest tied k' is also the smallest tied set.

    `universe`, when given, restricts Gamma(S) to that subset. This is the
    one-row case of _local_block.
    """
    check_int("k", k, 1)
    S = vertex_array(g, s_set)
    if not len(S):
        raise ValueError("dks_local requires a nonempty set")
    zeros = np.zeros(len(S), dtype=np.int64)
    if universe is not None:
        universe = vertex_array(g, universe)            # row 0's keys
    _, verts, dens = _local_block(g, zeros, S, 1, k, universe)
    return SolveResult(vertices=tuple(verts.tolist()), density=float(dens[0]),
                       provenance="local")


def _local_block(g: Graph, row: np.ndarray, S: np.ndarray, B: int, k: int,
                 universe: Optional[np.ndarray] = None):
    """dks_local on B nonempty sets at once, each row's set given by flat
    (row, vertex) pairs sorted by row and then vertex; `universe`, when
    given, is keys row * n + vertex in any order. Returns each row's winner
    as sorted flat (row, vertex) pairs, and its density per row.

    Per row it computes what dks_local describes: Gamma(S) and its degrees
    into S come from one bincount over B x n, which then holds ranks in T;
    one sort ranks the members at or above each row's k-th degree; the prefix
    matrices are a zero-padded B x min(|T|, |S|) x |S| cube; one argmax over
    k' picks every row's winner. When every edge joins the two _halves of g
    (a double cover, or a residual of one), a row with S in one half has
    Gamma(S) in the other, so its winner's density is its bipartite average;
    other rows count the winner's induced edges. Rows are scored in parts
    that fit _CELLS.
    """
    n = g.n
    ns = np.bincount(row, minlength=B)                  # |S| per row
    D = int(ns.max())
    step = max(1, _CELLS // max(n, min(k, n) * D))
    if B > step:
        parts = []
        for lo in range(0, B, step):
            a, b = np.searchsorted(row, [lo, lo + step])
            uni = None if universe is None else \
                universe[(universe >= lo * n) & (universe < (lo + step) * n)] - lo * n
            wrow, wv, dens = _local_block(g, row[a:b] - lo, S[a:b], min(step, B - lo), k, uni)
            parts.append((wrow + lo, wv, dens))
        return tuple(np.concatenate(part) for part in zip(*parts))
    rows = np.arange(B)
    col = np.arange(len(S)) - (np.cumsum(ns) - ns)[row]  # place within its row
    owner, nbr = g.rows(S)
    key = (row * n)[owner] + nbr
    deg = np.bincount(key, minlength=B * n)             # degree into S, per row
    if universe is not None:
        kept = deg[universe]
        deg.fill(0)
        deg[universe] = kept
    gamma = np.flatnonzero(deg > 0)                     # row * n + vertex
    dg, grow = deg[gamma], gamma // n
    # above[r, j]: row r's members of degree >= D - j; none below the k-th is in T
    above = np.bincount(grow * (D + 1) + D - dg, minlength=B * (D + 1)).reshape(B, -1).cumsum(1)
    ng = above[:, D]                                    # |Gamma(S)| per row
    # by row, then degree into S descending, then id: one sort of a packed key
    order = gamma + (D * (grow + 1) - dg) * n
    order = np.sort(order[dg >= D - (above < k).sum(axis=1)[grow]])
    order = order // ((D + 1) * n) * n + order % n
    rank = np.arange(len(order)) - np.searchsorted(order // n, order // n)
    T, Trank = order[rank < k], rank[rank < k]          # T, as row * n + vertex
    K = max(min(k, ng.max()), 1)
    # run[r, t-1]: edges between row r's S and T[:t], the cross edges once m = |S|
    run = np.bincount(T // n * K + Trank, weights=deg[T], minlength=B * K)
    run = run.reshape(B, K).cumsum(axis=1)
    deg.fill(k)                                         # deg now holds ranks in T
    deg[T] = Trank
    rk = deg[key]                                       # per pair, its neighbour's
    hit = np.flatnonzero(rk < k)                        # the pairs into T
    owner, rk = owner[hit], rk[hit]
    Kc = min(K, D)               # C's rows: only m < |S| <= D reads C, and t <= m
    C = np.zeros((B, Kc, D), dtype=np.int32)
    C.reshape(-1)[((row[owner] * Kc + rk) * D + col[owner])[rk < Kc]] = 1
    np.cumsum(C, axis=1, dtype=np.int32, out=C)
    C.sort(axis=2)
    np.cumsum(C, axis=2, dtype=np.int32, out=C)
    kp = np.arange(1, min(k, max(ng.max(), D)) + 1)
    t = np.minimum(kp, ng[:, None])
    m = np.minimum(kp, ns[:, None])
    r, ti = rows[:, None], np.minimum(np.maximum(t, 1), Kc) - 1  # the top m are the last m
    e = np.where(m < ns[:, None], C[r, ti, D - 1] - C[r, ti, D - 1 - m], run[r, t - 1])
    avg = np.where((kp <= np.maximum(ng, ns)[:, None]) & (t > 0), 2.0 * e / (m + t), -np.inf)
    best = avg.max(axis=1)
    pick = avg.argmax(axis=1)                           # ties: the smallest k'
    tw = t[rows, pick]                                  # 0 where Gamma(S) is empty
    mw = np.where(ng > 0, m[rows, pick], ns)
    # each row's members of S by neighbours in T[:t] descending, then id
    cnt = np.bincount(owner[rk < tw[row[owner]]], minlength=len(S))
    ranked = np.sort((row * (K + 1) + K - cnt) * n + S)
    chosen = ranked[col < mw[row]]                      # rows keep their places
    chosen = chosen // ((K + 1) * n) * n + chosen % n
    W = sorted_unique(np.concatenate([chosen, T[Trank < tw[T // n]]]))
    wrow, wv = W // n, W % n
    dens = np.where(ng > 0, best, 0.0)
    count = ng > 0
    if _halves(g):
        low = np.bincount(row, weights=S < n // 2, minlength=B)
        count &= (low > 0) & (low < ns)
    if count.any():
        # the winners' induced edges in the host graph
        inside = np.zeros(B * n, dtype=bool)
        inside[W] = True
        sel = count[wrow]
        owner, nbr = g.rows(wv[sel])
        orow = wrow[sel][owner]
        edges = np.bincount(orow[inside[orow * n + nbr]], minlength=B) // 2
        dens[count] = (2.0 * edges / np.bincount(wrow, minlength=B))[count]
    return wrow, wv, dens


def _halves(g: Graph) -> bool:
    """Whether every edge joins [0, n // 2) to [n // 2, n): the last sorted
    edge row has the largest u, and degrees[:n // 2] sum to m iff no v < n // 2."""
    uv, h = g.edge_array, g.n // 2
    return not len(uv) or bool(uv[-1, 0] < h and g.degrees[:h].sum() == len(uv))


def _branch_best(g: Graph, k: int, sched: CaterpillarSchedule, budget: int,
                 seed: int, cluster_size: int = 1) -> SolveResult:
    """Best subgraph over enumerated or sampled branches of the schedule.

    With cluster_size 1 this is the combinatorial caterpillar solver; larger
    clusters realize the subexponential hair step and are also scored against
    their candidate sets (cluster-local). Full enumeration is used when the
    branch space fits in `budget`, otherwise `budget` branches are sampled
    deterministically from `seed`, all before the walk. A sample can repeat a
    branch: each distinct branch is walked once, under its first copy's id.

    A branch holds one cluster per hair step walked; the last one only for
    cluster-local scoring, as S(s) is never scored otherwise. Blocks of
    branches are walked from S(1) = Gamma(J_1), one walk_step per step, and
    every row is scored by one _local_block call at each step t > 1. Ties on
    SolveResult.rank go to the lowest (branch, step, local before
    cluster-local): the depth-first pre-order, as enumerated branches are
    lexicographic.

    g must have an edge; an edgeless g has no leaf to draw and raises
    ValueError. Leaves are non-isolated, so every S(1) = Gamma(leaf) is
    nonempty, and step 2 scores a candidate pairing the top vertex of
    Gamma(S(1)) with a neighbour in S(1): the result has density > 0.
    """
    cands = np.flatnonzero(g.degrees)
    if cluster_size > len(cands):
        raise ValueError(f"cluster_size {cluster_size} exceeds the {len(cands)} "
                         "non-isolated vertices")
    n_hairs = sched.num_leaves
    hairs = n_hairs if cluster_size > 1 else n_hairs - 1
    if math.comb(len(cands), cluster_size) ** n_hairs <= budget:
        combos = list(combinations(cands.tolist(), cluster_size))
        branches = np.array(list(product(combos, repeat=hairs)), dtype=np.int64)
    else:
        draws = choice_rows(np.random.default_rng(seed), len(cands), cluster_size,
                            budget * n_hairs)
        branches = cands[np.sort(draws, axis=1)].reshape(budget, n_hairs, cluster_size)[:, :hairs]
    _, ids = np.unique(branches.reshape(len(branches), -1), axis=0, return_index=True)
    found: list[tuple] = []                             # each scored block's best
    n = g.n
    width = max(1, _CELLS // n)                         # rows per block
    for lo in range(0, len(ids), width):
        branch = ids[lo:lo + width]
        for t, kind in enumerate(sched.steps, start=1):
            if t > 1:
                found.append(_block_best(*_local_block(g, row, vert, len(branch), k),
                                         branch, t, 0, f"local@t={t}"))
            if kind != HAIR:
                # no row empties: S(t-1) is nonempty and none of its members is isolated
                row, vert = np.divmod(np.flatnonzero(walk_step(g, row, vert, len(branch))), n)
                continue
            hair = sched.steps[:t - 1].count(HAIR)      # this step's column of branches
            if hair == hairs:
                break                                   # S(s) is never scored
            J = branches[branch, hair]
            near = walk_step(g, np.repeat(np.arange(len(J)), cluster_size), J.ravel(), len(J))
            if t == 1:                                  # S(1) = Gamma(J_1)
                row, vert = np.divmod(np.flatnonzero(near), n)
            else:                                       # S(t-1) within Gamma(J_t)
                keep = near[row * n + vert]
                row, vert = row[keep], vert[keep]
            live = np.bincount(row, minlength=len(branch)) > 0  # S(t) nonempty
            row = (np.cumsum(live) - 1)[row]
            branch = branch[live]
            if not len(branch):
                break
            if cluster_size > 1:
                J = J[live]
                Jrow = np.repeat(np.arange(len(branch)), cluster_size)
                uni = np.concatenate([row * n + vert, Jrow * n + J.ravel()])
                found.append(_block_best(*_local_block(g, Jrow, J.ravel(), len(branch), k, uni),
                                         branch, t, 1, f"cluster-local@t={t}"))
    neg, _, verts, *_, prov = min(found)
    return SolveResult(vertices=verts, density=-neg, provenance=prov)


def _block_best(wrow, wv, dens, branch, t, cluster, prov) -> tuple:
    """The first of a scored block's candidates as (-density, size, vertices,
    branch, step t, 0 for local / 1 for cluster-local, provenance)."""
    size = np.bincount(wrow, minlength=len(dens))
    end = np.cumsum(size)                               # wrow is sorted
    top = np.flatnonzero(dens == dens.max())
    return min((-float(dens[r]), int(size[r]), tuple(wv[end[r] - size[r]:end[r]].tolist()),
                int(branch[r]), t, cluster, prov)
               for r in top[size[top] == size[top].min()].tolist())


def dks_cat_combinatorial(g: Graph, k: int, r: int, s: int, leaf_budget: int,
                          seed: int = 0) -> SolveResult:
    """Combinatorial caterpillar solver: enumerate/sample leaves at hair steps,
    fold dks_local at every step, then grow the best branch output to exactly
    k vertices with union_until_k."""
    check_int("k", k, 1, g.n)
    check_int("leaf_budget", leaf_budget, 1)
    check_int("seed", seed, 0)
    sched = build_schedule(r, s)
    if g.m == 0:
        return _edgeless(k)
    # each residual union_until_k passes has an edge, so the branch search
    # returns a set spanning one
    verts = union_until_k(
        g, k, lambda current: _branch_best(current, k, sched, leaf_budget, seed).vertices)
    return _scored(g, verts, f"caterpillar(r={r},s={s})")


def dks_exp(g: Graph, k: int, eps: float, cluster_budget: int, seed: int = 0,
            cluster_size: Optional[int] = None) -> SolveResult:
    """Cluster-based hair steps: intersect with Gamma(J_t) for C-subsets J_t,
    additionally running dks_local on each cluster against its candidate set.

    C defaults to round(n^(2*beta*eps/(2*beta*eps+alpha))) with beta = log_n k
    and alpha = 1 - beta, at most the non-isolated vertex count N; the schedule
    is choose_rs(alpha + 2*beta*eps, 5), capped at 0.999. With C = 1 the
    cluster-local pass is skipped and the result matches dks_cat_combinatorial
    exactly. A C passed below 1, or above N on a graph with edges, raises
    ValueError; an edgeless graph gets the edgeless result. k must lie in [1, n], and the
    result has exactly k vertices: the C > 1 pass prunes or pads its best set
    with resize_to_k, as union_until_k does on the C = 1 path.
    """
    check_int("k", k, 1, g.n)
    check_int("cluster_budget", cluster_budget, 1)
    check_int("seed", seed, 0)
    if cluster_size is not None:
        check_int("cluster_size", cluster_size, 1)
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    if g.m == 0:                                        # so n >= 2 below
        return _edgeless(k)
    beta = math.log(max(k, 2)) / math.log(g.n)
    alpha = max(1.0 - beta, 1e-9)
    alpha_prime = min(alpha + 2 * beta * eps, 0.999)
    r, s = choose_rs(alpha_prime, 5)
    if cluster_size is None:
        cluster_size = min(round(g.n ** (2 * beta * eps / (2 * beta * eps + alpha))),
                           np.count_nonzero(g.degrees))        # both >= 1
    if cluster_size == 1:
        return dks_cat_combinatorial(g, k, r, s, cluster_budget, seed)
    best = _branch_best(g, k, build_schedule(r, s), cluster_budget, seed, cluster_size)
    return _scored(g, resize_to_k(g, best.vertices, k), best.provenance)


def approximate(g: Graph, k: int, config: Optional[SolverConfig] = None) -> SolveResult:
    """Top-level driver: ranks the one stage list _stages(g, k, config) by
    SolveResult.rank and returns its best, list order breaking ties.

    Weighted input is solved bucket by bucket, each unweighted, which loses up
    to an O(log n) factor by design: K6 at weight 1 plus a 6-edge matching at
    weight 1000, k=6, finds weighted density 667 where 1000 is attainable."""
    config = config or SolverConfig()
    check_int("k", k, 1, g.n)
    check_int("s_max", config.s_max, 2)
    check_int("leaf_budget", config.leaf_budget, 1)
    check_int("seed", config.seed, 0)
    if g.weight_array is None:
        if k == g.n:
            return _scored(g, tuple(range(g.n)), "whole-graph")
        if g.m == 0:
            return _edgeless(k)
        if k == 1:
            return SolveResult(vertices=(0,), density=0.0, provenance="single-vertex")
    return min(_stages(g, k, config), key=SolveResult.rank)


def _stages(g: Graph, k: int, config: SolverConfig) -> list[SolveResult]:
    """approximate's stages, in tie order. Weighted: each bucket's answer,
    heaviest bucket first. Unweighted: greedy degree cap -> bipartite double
    cover -> caterpillar search at the cap's log-density -> collapse -> resize
    to k, when g' keeps an edge and the cap exceeds 1; then the greedy baseline."""
    if g.weight_array is not None:
        # each bucket is solved unweighted; its set is scored and reported by
        # its weighted average degree in g
        return [_scored(g, res.vertices, f"bucket{i}:{res.provenance}", res.gamma)
                for i, res in enumerate(approximate(b, k, config) for b in weight_buckets(g))]
    core = greedy_core(g, k)
    greedy = _scored(g, resize_to_k(g, core.h_prime, k), "greedy", core.gamma)
    gp, cap = core.g_prime, core.cap_degree     # U is the top half by degree: none exceeds cap
    if gp.m == 0 or cap <= 1.0:
        return [greedy]
    cover = bipartite_double_cover(gp)
    alpha = math.log(cap) / math.log(cover.n)
    r, s = choose_rs(min(max(alpha, 1e-6), 1 - 1e-6), config.s_max)
    cat = dks_cat_combinatorial(cover, min(2 * k, cover.n), r, s,
                                config.leaf_budget, config.seed)
    original = [core.g_prime_vertices[v] for v in collapse_double_cover(cat.vertices, gp.n)]
    return [_scored(g, resize_to_k(g, original, k), cat.provenance, core.gamma), greedy]
