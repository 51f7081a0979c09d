"""Preprocessing/postprocessing reductions that wrap every solver.

Covers degree-capping via a greedy core, union-until-k accumulation, resizing
a set to exactly k (greedy pruning or padding by neighbours), the bipartite
double cover and its collapse, and weight bucketing.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .graphs import (Graph, _graph, check_int, induced_degrees, induced_edge_mask,
                     induced_subgraph, vertex_array)


class StallError(RuntimeError):
    """The inner solver of union_until_k made no progress."""


@dataclass(frozen=True)
class GreedyResult:
    h_prime: tuple[int, ...]          # the k-subgraph U ∪ U'
    g_prime: Graph                    # induced on V \ U, relabeled
    g_prime_vertices: tuple[int, ...] # original ids of g_prime, by new id
    cap_degree: float                 # degree threshold D (no g_prime degree exceeds it)
    gamma: float                      # max{cap_degree * k / n, 1}
    u: tuple[int, ...]
    u_prime: tuple[int, ...]


def greedy_core(g: Graph, k: int) -> GreedyResult:
    """Degree-capping greedy: U = highest-degree half, U' = best neighbors of U.

    Produces the baseline k-subgraph h_prime = U ∪ U' with average degree at
    least max{c * cap_degree * k / n, 1} (measured c documented in tests), and
    the residual graph g_prime = G[V \\ U] with max degree <= cap_degree.

    Fallback: when g has fewer than ceil(k/2) edges, h_prime is a maximal set
    of disjoint edges padded to k vertices.
    """
    check_int("k", k, 2, g.n)
    half = (k + 1) // 2
    ids = np.arange(g.n)
    deg = g.degrees
    u = np.sort(np.lexsort((ids, -deg))[:half])   # top degrees, ties by smaller id
    cap_degree = float(deg[u].min())

    if g.m < half:
        # matching fallback: disjoint edges greedily by id, padded to k vertices
        used: set[int] = set()
        for a, b in g.edge_array.tolist():
            if a not in used and b not in used and len(used) + 2 <= k:
                used.add(a)
                used.add(b)
        pad = (v for v in range(g.n) if v not in used)
        while len(used) < k:
            used.add(next(pad))
        h_prime = np.array(sorted(used))
    else:
        into_u = np.bincount(g.rows(u)[1], minlength=g.n)
        h_prime = np.union1d(u, np.lexsort((ids, -into_u))[:half])

    g_prime, mapping = induced_subgraph(g, np.setdiff1d(ids, u))
    gamma = max(cap_degree * k / g.n, 1.0)
    return GreedyResult(h_prime=tuple(h_prime.tolist()), g_prime=g_prime,
                        g_prime_vertices=mapping, cap_degree=cap_degree, gamma=gamma,
                        u=tuple(u.tolist()),
                        u_prime=tuple(np.setdiff1d(h_prime, u).tolist()))


def union_until_k(g: Graph, k: int,
                  inner: Callable[[Graph], Iterable[int]]) -> tuple[int, ...]:
    """Accumulate inner-solver subgraphs until k vertices, removing found edges.

    inner is called on the current residual graph and must return a nonempty
    vertex set spanning at least one residual edge; otherwise a StallError is
    raised. Once k vertices are found, or the residual runs out of edges,
    resize_to_k prunes the overshoot (up to 2k) greedily by lowest degree
    back to exactly k, or pads with the smallest untouched ids: with no
    residual edge left, every vertex outside the set is isolated.
    """
    check_int("k", k, 1, g.n)
    uv = g.edge_array
    remaining = np.ones(len(uv), dtype=bool)
    accum: set[int] = set()
    while len(accum) < k and remaining.any():
        # the first residual is g itself: no copy of its edges held alongside
        # it; later ones are rows of its canonical edge array, still canonical
        current = g if remaining.all() else _graph(g.n, uv[remaining])
        found = vertex_array(g, inner(current))
        removed = remaining & induced_edge_mask(g, found)
        if not removed.any():
            raise StallError("inner solver returned an empty or edgeless subgraph")
        remaining &= ~removed
        accum.update(found.tolist())
    return resize_to_k(g, accum, k)


def prune_to_size(g: Graph, s: Iterable[int], k: int) -> tuple[int, ...]:
    """Greedily drop lowest-induced-degree vertices (ties by id) down to k:
    a heap peel that skips entries whose degree is no longer current."""
    check_int("k", k, 0, g.n)
    vs = vertex_array(g, s)
    indptr, indices = g.csr
    deg = dict(zip(vs.tolist(), induced_degrees(g, vs).tolist()))   # alive vertices
    heap = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    while len(deg) > k:
        d, v = heapq.heappop(heap)
        if deg.get(v) != d:
            continue
        del deg[v]
        for u in indices[indptr[v]:indptr[v + 1]].tolist():
            if u in deg:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return tuple(sorted(deg))


def resize_to_k(g: Graph, s: Iterable[int], k: int) -> tuple[int, ...]:
    """Prune (lowest degree first) or pad a vertex set to exactly k members;
    each padding step adds the vertex with the most neighbours in the set,
    ties (also at none) by smaller id."""
    check_int("k", k, 0, g.n)
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


def bipartite_double_cover(g: Graph) -> Graph:
    """Two vertex copies, [0, n) and [n, 2n), and every edge joins them: edge
    (u, v) becomes (u, v+n) and (v, u+n). This layout is the contract."""
    n = g.n
    u, v = g.edge_array.T
    edges = np.concatenate([np.stack([u, v + n], axis=1),
                            np.stack([v, u + n], axis=1)])
    return Graph.from_edges(2 * n, edges)


def collapse_double_cover(cover_set: Iterable[int], n: int) -> tuple[int, ...]:
    """Collapse the two cover sides: v -> v mod n, deduplicated."""
    return tuple(sorted({v % n for v in cover_set}))


def weight_buckets(g: Graph) -> list[Graph]:
    """Bucket weighted edges into powers of two from max weight down to max/n^2.

    Bucket i holds weights in (max/2^(i+1), max/2^i]; edges below the floor are
    dropped. Only nonempty buckets are returned (1 to 2*log2(n)+1: a weighted
    graph has an edge, and its heaviest is kept).
    """
    w = g.weight_array
    if w is None:
        raise ValueError("weight_buckets requires a weighted graph")
    wmax = float(w.max())
    floor = wmax / (g.n * g.n)
    n_buckets = int(2 * math.log2(g.n)) + 1 if g.n > 1 else 1
    # an edge's bucket is the largest i with w <= bound[i] = wmax / 2^i (halved stepwise)
    bound = np.cumprod(np.r_[wmax, np.full(n_buckets - 1, 0.5)])
    bucket = np.searchsorted(-bound[1:], -w, side="right")
    keep = w > floor * (1 - 1e-12)
    return [Graph.from_edges(g.n, g.edge_array[keep & (bucket == i)])
            for i in np.unique(bucket[keep])]
