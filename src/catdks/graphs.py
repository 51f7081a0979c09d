"""Immutable undirected graph with degree/density queries and small exact oracles.

Vertices are dense integer ids in [0, n). A graph is stored as arrays: the
sorted (m, 2) int64 edge array, an aligned float64 weight array when
weighted, and an optional bipartition; every constructor ends in one array
path. Degrees and a sorted CSR (indptr / indices) are numpy-built from the
edge array, and graph walks (Gamma(S), induced degrees, peeling) read the CSR
rows. The tuple views `edges`, `weights` and `adj` are built only when read:
`adj` serves the brute-force injective caterpillar count and per-pair
neighbourhood intersections, and no library code reads the other two.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, takewhile
from typing import Iterable, Iterator, Optional

import numpy as np


class GraphFormatError(ValueError):
    """Malformed edge-list input."""


class BudgetExceededError(RuntimeError):
    """An exhaustive operation was asked to exceed its configured budget."""


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) of an integer array, from one sort and a mask of the
    entries that differ from their predecessor (several times faster than
    np.unique on the arrays the solvers pass)."""
    a = np.sort(a, axis=None)
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def _edge_array(edges) -> np.ndarray:
    """(m, 2) int64 array of an (m, 2) array or an iterable of (u, v) pairs."""
    if isinstance(edges, np.ndarray):
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
            raise GraphFormatError(f"edge array of shape {edges.shape}, expected (m, 2)")
        return edges.astype(np.int64, copy=False).reshape(-1, 2)
    if not isinstance(edges, (list, tuple, set, frozenset)):
        edges = list(edges)
    return np.fromiter(edges, dtype=np.dtype((np.int64, 2)), count=len(edges))


def _merge(n: int, uv: np.ndarray, w: Optional[np.ndarray] = None):
    """Orient the rows of uv (in range) as u < v, sort them and merge repeats,
    carrying w (a weight per row, or None) along. Returns (uv, w, clash):
    clash is None, or rows (i, j) where j is the first row whose weight
    differs from that of row i, the earliest row on the same edge."""
    code = uv.min(axis=1) * n + uv.max(axis=1)
    clash = None
    if w is None:
        code = sorted_unique(code)
    else:
        code, first, inverse = np.unique(code, return_index=True, return_inverse=True)
        head = first[inverse]
        bad = np.flatnonzero((w != w[head]) & (head != np.arange(len(w))))
        clash = (int(head[bad[0]]), int(bad[0])) if len(bad) else None
        w = w[first]
    return np.stack(np.divmod(code, n), axis=1), w, clash


def _canonical(n: int, edges, weights, strict: bool):
    """(uv, w): the canonical edge array of the pairs `edges`, and the weights
    dict keyed by those pairs as an array aligned to it (or None). strict,
    for Graph(): pairs and keys must already be canonical (u < v)."""
    uv = _edge_array(edges)
    if len(uv) and (uv.min() < 0 or uv.max() >= n):
        u, v = uv[((uv < 0) | (uv >= n)).any(axis=1).argmax()].tolist()
        raise GraphFormatError(f"edge ({u},{v}) endpoint out of range [0,{n})")
    bad = uv[:, 0] == uv[:, 1]
    if bad.any():
        raise GraphFormatError(f"self-loop at vertex {int(uv[bad.argmax(), 0])}")
    if strict and (uv[:, 0] > uv[:, 1]).any():
        u, v = uv[(uv[:, 0] > uv[:, 1]).argmax()].tolist()
        raise GraphFormatError(f"edge ({u},{v}) not in canonical order")
    uv = _merge(n, uv)[0]
    if weights is None:
        return uv, None
    keys = _edge_array(list(weights))
    x = np.fromiter(weights.values(), dtype=np.float64, count=len(keys))
    if not ((keys < 0) | (keys >= n) | (strict and keys[:, :1] > keys[:, 1:])).any():
        merged, w, clash = _merge(n, keys, x)
        if clash is not None:
            i, j = clash
            raise GraphFormatError(
                f"conflicting duplicate weight on edge {tuple(sorted(keys[j].tolist()))}: "
                f"{x[i].item()!r} and {x[j].item()!r}")
        if np.array_equal(merged, uv):
            return uv, w
    raise GraphFormatError("weights must cover exactly the edge set")


class Graph:
    """Immutable undirected graph on vertices [0, n).

    Stored as arrays: `edge_array`, the (m, 2) int64 edges u < v, sorted,
    deduplicated, no self-loops; `weight_array`, their positive, finite
    float64 weights, or None; `bipartition`, an optional frozenset of "left"
    vertices that every edge must cross. Graph(n, edges, weights, bipartition)
    takes canonical pairs and weights keyed by exactly them; from_edges
    canonicalizes. The views `edges` (a frozenset of (u, v) tuples), `weights`
    (a dict keyed by them), `csr`, `degrees`, `adj` and `adjacency_matrix`
    are built when first read and cached. Graphs are equal when n, edges,
    weights and bipartition are; they are not hashable.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 weights: Optional[dict[tuple[int, int], float]] = None,
                 bipartition: Optional[Iterable[int]] = None):
        n = int(n)
        self._init(n, *_canonical(n, edges, weights, strict=True), bipartition)

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
        return _graph(n, *_canonical(n, edges, weights, strict=False), bipartition)

    def _init(self, n, uv, w, bipartition) -> "Graph":
        """Check and store canonical arrays; every constructor ends here."""
        if w is not None:
            for bad, what in ((~(w > 0), "non-positive"), (~np.isfinite(w), "non-finite")):
                if bad.any():
                    i = int(bad.argmax())
                    raise GraphFormatError(
                        f"{what} weight {w[i].item()} on edge {tuple(uv[i].tolist())}")
        bp = None if bipartition is None else frozenset(bipartition)
        if bp is not None:
            side = np.isin(uv, np.fromiter(bp, dtype=np.int64, count=len(bp)))
            bad = side[:, 0] == side[:, 1]
            if bad.any():
                u, v = uv[bad.argmax()].tolist()
                raise GraphFormatError(f"edge ({u},{v}) does not cross the bipartition")
        self.__dict__.update(n=n, edge_array=uv, weight_array=w, bipartition=bp)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable: cannot set {name!r}")

    def __eq__(self, other):
        w, x = self.weight_array, getattr(other, "weight_array", None)
        return (isinstance(other, Graph) and self.n == other.n
                and self.bipartition == other.bipartition
                and np.array_equal(self.edge_array, other.edge_array)
                and (w is x or w is not None and x is not None and np.array_equal(w, x)))

    @property
    def m(self) -> int:
        return len(self.edge_array)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(*self.edge_array.T.tolist()))

    @cached_property
    def weights(self) -> Optional[dict[tuple[int, int], float]]:
        if self.weight_array is not None:
            uv = map(tuple, self.edge_array.tolist())
            return dict(zip(uv, self.weight_array.tolist()))

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
        return sorted_unique(self.rows(vs)[1])

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
    try:
        n, m = map(int, lines[0].split())
    except ValueError as exc:
        raise GraphFormatError(f"bad header line: {lines[0]!r}") from exc
    edges, weights = [], []
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
            try:
                w = float(parts[2])
            except ValueError as exc:
                raise GraphFormatError(f"malformed weight: {ln!r}") from exc
            if not w > 0:
                raise GraphFormatError(f"non-positive weight: {ln!r}")
            weights.append(w)
        if 0 < len(weights) < len(edges):
            raise GraphFormatError(f"weighted and unweighted edge lines mixed: {ln!r}")
    uv, w, clash = _merge(n, _edge_array(edges), np.array(weights) if weights else None)
    if clash is not None:
        raise GraphFormatError(f"conflicting duplicate weight: {lines[1 + clash[1]]!r}")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"header declares {m} edges, file has {len(lines) - 1}")
    return _graph(n, uv, w)


def save_graph(g: Graph, path) -> None:
    """Write the edge-list format read back by load_graph."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{g.n} {g.m}\n")
        w = g.weight_array
        w = [""] * g.m if w is None else [f" {x!r}" for x in w.tolist()]
        f.writelines(f"{u} {v}{x}\n" for (u, v), x in zip(g.edge_array.tolist(), w))


def _graph(n: int, uv: np.ndarray, w=None, bipartition=None) -> Graph:
    """A Graph on arrays that are already canonical (see _canonical)."""
    return object.__new__(Graph)._init(n, uv, w, bipartition)


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on s, relabeled to [0, |s|).

    Returns (subgraph, mapping) where mapping[new_id] = old_id.
    """
    vs = vertex_array(g, s)
    members = tuple(vs.tolist())
    relabel = np.full(g.n, -1, dtype=np.int64)
    relabel[vs] = np.arange(len(vs))
    # relabelling is increasing on s, so the kept rows stay canonical and sorted
    uv = relabel[g.edge_array]
    inside = (uv >= 0).all(axis=1)
    w = None if g.weight_array is None else g.weight_array[inside]
    bp = None if g.bipartition is None else \
        [new for new, old in enumerate(members) if old in g.bipartition]
    return _graph(len(members), uv[inside], w, bp), members


def vertex_array(g: Graph, s: Iterable[int]) -> np.ndarray:
    """s as a sorted, duplicate-free int64 array; raises ValueError on an id
    outside [0, n)."""
    vs = sorted_unique(np.asarray(s if isinstance(s, np.ndarray) else list(s), dtype=np.int64))
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
    if not len(vs):
        raise ValueError("weighted_average_degree of empty vertex set")
    induced = induced_edge_mask(g, vs)
    w = g.weight_array
    total = float(induced.sum()) if w is None else math.fsum(w[induced].tolist())
    return 2.0 * total / len(vs)


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
    for u, v in g.edge_array.tolist():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    best_edges, best = -1, None
    for combo in combinations(range(g.n), k):
        sel = e = 0
        for v in combo:
            e += (masks[v] & sel).bit_count()
            sel |= 1 << v
        if e > best_edges:
            best_edges, best = e, combo
    assert best is not None
    return SolveResult(vertices=best, density=2.0 * best_edges / k,
                       provenance="brute-force")
