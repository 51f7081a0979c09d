"""Immutable undirected graph with degree/density queries and small exact oracles.

Vertices are dense integer ids in [0, n). The edge set is a frozenset of
canonical (u, v) tuples. Validation, degrees and a sorted CSR (indptr /
indices) are computed with numpy from one sorted (m, 2) edge array; graph
walks (Gamma(S), induced degrees, peeling) read the CSR rows. The lazy
frozenset rows `adj` serve only set-at-a-time code: the brute-force injective
caterpillar count and per-pair neighbourhood intersections.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, islice, takewhile
from typing import Iterable, Iterator, Optional

import numpy as np


class GraphFormatError(ValueError):
    """Malformed edge-list input."""


class BudgetExceededError(RuntimeError):
    """An exhaustive operation was asked to exceed its configured budget."""


def normalize_vertex_set(members: Iterable[int]) -> tuple[int, ...]:
    """Sorted, duplicate-free tuple of vertex ids."""
    return tuple(sorted(set(int(v) for v in members)))


def _canon_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


_PAIR = np.dtype((np.int64, 2))


def _edge_array(edges) -> np.ndarray:
    """(m, 2) int64 array of an (m, 2) array or an iterable of (u, v) pairs."""
    if isinstance(edges, np.ndarray):
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
            raise GraphFormatError(f"edge array of shape {edges.shape}, expected (m, 2)")
        return edges.astype(np.int64, copy=False).reshape(-1, 2)
    if not isinstance(edges, (list, tuple, set, frozenset)):
        edges = list(edges)
    return np.fromiter(edges, dtype=_PAIR, count=len(edges))


def _check_endpoints(uv: np.ndarray, n: int) -> None:
    """Raise on the first edge with an endpoint outside [0, n) or a self-loop."""
    if len(uv) and (uv.min() < 0 or uv.max() >= n):
        u, v = uv[((uv < 0) | (uv >= n)).any(axis=1).argmax()].tolist()
        raise GraphFormatError(f"edge ({u},{v}) endpoint out of range [0,{n})")
    bad = uv[:, 0] == uv[:, 1]
    if bad.any():
        raise GraphFormatError(f"self-loop at vertex {int(uv[bad.argmax(), 0])}")


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices [0, n).

    edges: canonical (u, v) pairs with u < v, deduplicated, no self-loops.
    weights: optional positive, finite weight per edge (same key order as edges).
    bipartition: optional frozenset of "left" vertices; every edge must cross.

    Derived structures are built lazily and cached: `edge_array` (the edges
    as an (m, 2) array, always in lexicographic order), `csr`, `degrees`,
    `adj` and `adjacency_matrix`.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    weights: Optional[dict[tuple[int, int], float]] = None
    bipartition: Optional[frozenset[int]] = None

    def __post_init__(self):
        n = self.n
        uv = self.edge_array
        _check_endpoints(uv, n)
        bad = uv[:, 0] > uv[:, 1]
        if bad.any():
            u, v = uv[bad.argmax()].tolist()
            raise GraphFormatError(f"edge ({u},{v}) not in canonical order")
        if self.weights is not None:
            if self.weights.keys() != self.edges:
                raise GraphFormatError("weights must cover exactly the edge set")
            w = np.fromiter(self.weights.values(), dtype=np.float64,
                            count=len(self.weights))
            for bad, what in ((~(w > 0), "non-positive"),
                              (~np.isfinite(w), "non-finite")):
                if bad.any():
                    e, x = next(islice(self.weights.items(), int(bad.argmax()), None))
                    raise GraphFormatError(f"{what} weight {x} on edge {e}")
        if self.bipartition is not None:
            left = np.fromiter(self.bipartition, dtype=np.int64,
                               count=len(self.bipartition))
            side = np.isin(uv, left)
            bad = side[:, 0] == side[:, 1]
            if bad.any():
                u, v = uv[bad.argmax()].tolist()
                raise GraphFormatError(f"edge ({u},{v}) does not cross the bipartition")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]],
                   weights: Optional[dict[tuple[int, int], float]] = None,
                   bipartition: Optional[Iterable[int]] = None) -> "Graph":
        """Build a graph, canonicalizing and deduplicating edges; rejects self-loops.

        `edges` is an iterable of (u, v) pairs or an (m, 2) integer array.
        Weight keys are canonicalized too; (u, v) and (v, u) keys with
        different weights are rejected.
        """
        n = int(n)
        uv = _edge_array(edges)
        _check_endpoints(uv, n)
        key = np.sort(uv.min(axis=1) * n + uv.max(axis=1))
        key = key[np.diff(key, prepend=-1) != 0]   # sorted and deduplicated
        uv = np.stack(np.divmod(key, n), axis=1)
        # one int object per vertex, shared by every edge tuple
        ids = list(range(n))
        canon = frozenset(zip(map(ids.__getitem__, uv[:, 0].tolist()),
                              map(ids.__getitem__, uv[:, 1].tolist())))
        w = None
        if weights is not None:
            w = {}
            for (u, v), x in weights.items():
                e, x = _canon_edge(u, v), float(x)
                if e in w and w[e] != x:
                    raise GraphFormatError(
                        f"conflicting duplicate weight on edge {e}: {w[e]!r} and {x!r}")
                w[e] = x
        bp = frozenset(bipartition) if bipartition is not None else None
        g = Graph.__new__(Graph)
        # seed the edge-array cache so __post_init__ validates without a rebuild
        g.__dict__["edge_array"] = uv
        g.__init__(n=n, edges=canon, weights=w, bipartition=bp)
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as an (m, 2) int64 array in lexicographic order (from_edges
        seeds it sorted; a graph built from a frozenset sorts it here)."""
        uv = _edge_array(self.edges)
        return uv[np.lexsort((uv[:, 1], uv[:, 0]))]

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric adjacency as (indptr, indices) with each row sorted."""
        n, uv = self.n, self.edge_array
        idx = np.int32 if max(n, 2 * len(uv)) < 2 ** 31 else np.int64
        key = np.sort(np.concatenate([uv[:, 0] * n + uv[:, 1],
                                      uv[:, 1] * n + uv[:, 0]]))
        indptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
        return indptr, (key % n).astype(idx)

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        indptr, indices = self.csr
        ids = list(range(self.n))
        bounds = indptr.tolist()
        # a frozenset copied from a set gets a table sized to fit, not one
        # grown step by step (up to twice as large)
        return tuple(frozenset(set(map(ids.__getitem__, indices[a:b].tolist())))
                     for a, b in zip(bounds, bounds[1:]))

    def rows(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The CSR rows of the vertices `vs`, concatenated, as (owner, nbr):
        nbr[p] is a neighbour of vs[owner[p]], rows in the order of `vs`."""
        indptr, indices = self.csr
        start = indptr[vs]
        length = indptr[vs + 1] - start
        owner = np.repeat(np.arange(len(vs)), length)
        first = np.cumsum(length) - length   # where each row begins in the output
        return owner, indices[np.arange(len(owner)) + (start - first)[owner]]

    def neighbors(self, vs: np.ndarray) -> np.ndarray:
        """Gamma(vs): the union of the neighbours of the vertices vs (not
        excluding vs itself), as a sorted array."""
        return np.unique(self.rows(vs)[1])

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.edge_array.ravel(), minlength=self.n)
        return deg.astype(np.int64, copy=False)

    @cached_property
    def adjacency_matrix(self):
        """scipy CSR adjacency (0/1, symmetric)."""
        from scipy.sparse import csr_matrix

        indptr, indices = self.csr
        return csr_matrix((np.ones(len(indices)), indices, indptr),
                          shape=(self.n, self.n))

    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    def average_degree(self) -> float:
        return 2.0 * self.m / self.n if self.n else 0.0

    def edge_count_within(self, s: Iterable[int]) -> int:
        return int(induced_edge_mask(self, vertex_array(self, s)).sum())


@dataclass(frozen=True)
class DensityReport:
    vertex_count: int
    edge_count: int
    average_degree: float
    min_degree: int
    log_density: float


@dataclass(frozen=True)
class SolveResult:
    """A vertex subset with its density and provenance.

    density is always the average degree of the induced subgraph in the host
    graph the result refers to; in a weighted host graph it is the weighted
    average degree 2 W(S) / |S| (see weighted_average_degree).
    """
    vertices: tuple[int, ...]
    density: float
    provenance: str
    gamma: float = 0.0
    target_ratio: Optional[float] = None

    def better_than(self, other: Optional["SolveResult"]) -> bool:
        """Total order: density desc, vertex count asc, lexicographic."""
        if other is None:
            return True
        return (-self.density, len(self.vertices), self.vertices) < \
               (-other.density, len(other.vertices), other.vertices)


def load_graph(path) -> Graph:
    """Read the edge-list text format: header "n m", then "u v" or "u v w" lines.

    Lines starting with '#' are comments. Repeated edges are deduplicated;
    self-loops, non-positive or non-finite weights, repeated edges with
    different weights, and files mixing weighted and unweighted lines are
    rejected.
    """
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.strip() for ln in f]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"bad header line: {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad header line: {lines[0]!r}") from exc
    edges = []
    weights: dict[tuple[int, int], float] = {}
    weighted = unweighted = False
    for ln in lines[1:1 + m]:
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise GraphFormatError(f"malformed edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"malformed edge line: {ln!r}") from exc
        if u == v:
            raise GraphFormatError(f"self-loop: {ln!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"endpoint out of range: {ln!r}")
        edges.append((u, v))
        if len(parts) == 3:
            weighted = True
            try:
                w = float(parts[2])
            except ValueError as exc:
                raise GraphFormatError(f"malformed weight: {ln!r}") from exc
            if not w > 0:
                raise GraphFormatError(f"non-positive weight: {ln!r}")
            e = _canon_edge(u, v)
            if weights.get(e, w) != w:
                raise GraphFormatError(f"conflicting duplicate weight: {ln!r}")
            weights[e] = w
        else:
            unweighted = True
        if weighted and unweighted:
            raise GraphFormatError(f"weighted and unweighted edge lines mixed: {ln!r}")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"header declares {m} edges, file has {len(lines) - 1}")
    return Graph.from_edges(n, edges, weights if weighted else None)


def save_graph(g: Graph, path) -> None:
    """Write the edge-list format read back by load_graph."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{g.n} {g.m}\n")
        for u, v in g.edge_array.tolist():
            if g.weights is not None:
                f.write(f"{u} {v} {g.weights[(u, v)]!r}\n")
            else:
                f.write(f"{u} {v}\n")


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on s, relabeled to [0, |s|).

    Returns (subgraph, mapping) where mapping[new_id] = old_id.
    """
    vs = vertex_array(g, s)
    members = tuple(vs.tolist())
    relabel = np.full(g.n, -1, dtype=np.int64)
    relabel[vs] = np.arange(len(vs))
    edges = relabel[g.edge_array]
    edges = edges[(edges >= 0).all(axis=1)]
    weights = None
    if g.weights is not None:
        index = {old: new for new, old in enumerate(members)}
        weights = {(index[u], index[v]): w for (u, v), w in g.weights.items()
                   if u in index and v in index}
    bp = None
    if g.bipartition is not None:
        bp = [new for new, old in enumerate(members) if old in g.bipartition]
    return Graph.from_edges(len(members), edges, weights, bp), members


def vertex_array(g: Graph, s: Iterable[int]) -> np.ndarray:
    """s as a sorted, duplicate-free int64 array; raises ValueError on an id
    outside [0, n)."""
    vs = np.unique(np.asarray(s if isinstance(s, np.ndarray) else list(s), dtype=np.int64))
    bad = (vs < 0) | (vs >= g.n)
    if bad.any():
        raise ValueError(f"vertex {vs[bad.argmax()]} out of range [0,{g.n})")
    return vs


def neighborhood(g: Graph, s: Iterable[int]) -> tuple[int, ...]:
    """Gamma(s) as a sorted tuple."""
    return tuple(g.neighbors(vertex_array(g, s)).tolist())


def density_report(g: Graph, s: Iterable[int]) -> DensityReport:
    """Degree/density statistics of the subgraph induced on s.

    log_density is log(avg degree) / log(vertex count), reported as 0 when the
    average degree is at most 1 (constant-degree convention) or the set is a
    single vertex.
    """
    vs = vertex_array(g, s)
    if not len(vs):
        raise ValueError("density_report of empty vertex set")
    degs = induced_degrees(g, vs)
    edge_count = int(degs.sum()) // 2
    vc = len(vs)
    avg = 2.0 * edge_count / vc
    if vc > 1 and avg > 1.0:
        log_density = math.log(avg) / math.log(vc)
    else:
        log_density = 0.0
    return DensityReport(vertex_count=vc, edge_count=edge_count,
                         average_degree=avg, min_degree=int(degs.min()),
                         log_density=log_density)


def induced_degrees(g: Graph, vs: np.ndarray) -> np.ndarray:
    """Degree inside vs of each member of vs (a duplicate-free vertex array)."""
    inside = np.zeros(g.n, dtype=bool)
    inside[vs] = True
    owner, nbr = g.rows(vs)
    return np.bincount(owner[inside[nbr]], minlength=len(vs))


def induced_edge_mask(g: Graph, vs: np.ndarray) -> np.ndarray:
    """Boolean mask over g.edge_array of the edges induced on the vertex array vs."""
    inside = np.zeros(g.n, dtype=bool)
    inside[vs] = True
    return inside[g.edge_array].all(axis=1)


def weighted_average_degree(g: Graph, s: Iterable[int]) -> float:
    """2 W(s) / |s|, where W(s) is the total weight of the edges induced on s
    (1 per edge in an unweighted graph); s must be nonempty."""
    vs = vertex_array(g, s)
    induced = induced_edge_mask(g, vs)
    if g.weights is None:
        w = float(induced.sum())
    else:
        w = math.fsum(g.weights[e] for e in map(tuple, g.edge_array[induced].tolist()))
    return 2.0 * w / len(vs)


def _peel_order(g: Graph, vs: np.ndarray) -> Iterator[tuple[int, int]]:
    """Yield (vertex, induced degree at removal) while peeling the subgraph
    induced on the vertex array vs down to nothing, least degree first, ties
    by smaller id. Heap entries whose degree is no longer current are skipped."""
    indptr, indices = g.csr
    deg = dict(zip(vs.tolist(), induced_degrees(g, vs).tolist()))   # alive vertices
    heap = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if deg.get(v) != d:
            continue
        del deg[v]
        yield v, d
        for u in indices[indptr[v]:indptr[v + 1]].tolist():
            if u in deg:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))


def peel_to_min_degree(g: Graph, s: Iterable[int], threshold: float) -> tuple[int, ...]:
    """Maximal subset of s whose induced minimum degree is >= threshold (may
    be empty): peeling stops at the first vertex of degree >= threshold, so
    what remains is that subset, the unique one."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    vs = vertex_array(g, s)
    dropped = [v for v, _ in takewhile(lambda vd: vd[1] < threshold, _peel_order(g, vs))]
    return tuple(np.setdiff1d(vs, dropped).tolist())


def brute_force_dks(g: Graph, k: int, budget: int = 5_000_000) -> SolveResult:
    """Exact densest k-subgraph by enumeration; ties broken by lexicographically
    smallest vertex set. Intended as a test oracle at desk scale."""
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range for n={g.n}")
    if math.comb(g.n, k) > budget:
        raise BudgetExceededError(f"C({g.n},{k}) exceeds budget {budget}")
    # bitmask adjacency: popcount-based edge counting
    masks = [0] * g.n
    for (u, v) in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    best_edges = -1
    best: Optional[tuple[int, ...]] = None
    for combo in combinations(range(g.n), k):
        sel = 0
        e = 0
        for v in combo:
            e += (masks[v] & sel).bit_count()
            sel |= 1 << v
        if e > best_edges:
            best_edges = e
            best = combo
    assert best is not None
    return SolveResult(vertices=best, density=2.0 * best_edges / k,
                       provenance="brute-force")
