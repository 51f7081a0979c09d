"""Immutable undirected graph with degree/density queries and small exact oracles.

Vertices are dense integer ids in [0, n). A graph is three fields: n, the
sorted (m, 2) int64 edge array, and an aligned float64 weight array when
weighted (else None); every constructor ends in one array path. Degrees and
a sorted CSR (indptr / indices) are numpy-built from the edge array, and
graph walks (Gamma(S), induced degrees) read the CSR rows; edge-list files
are parsed as whole byte arrays and written from one format string. The
views `edges` (tuples) and `adj` (neighbour sets) are built only when read;
no library code reads them: tests compare against them, and the benchmark
reads `edges` and times `adj`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Optional

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
    """(m, 2) int64 array of an (m, 2) integer array or an iterable of pairs
    of integers (numpy's too). Anything else raises GraphFormatError, so no
    float is truncated, no string parsed and no bool read as a vertex."""
    if isinstance(edges, np.ndarray):
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
            raise GraphFormatError(f"edge array of shape {edges.shape}, expected (m, 2)")
        if edges.size and not np.issubdtype(edges.dtype, np.integer):
            raise GraphFormatError(f"edge array of dtype {edges.dtype}, expected integers")
        return edges.astype(np.int64, copy=False).reshape(-1, 2)
    if not isinstance(edges, (list, tuple, set, frozenset)):
        edges = list(edges)
    try:
        if set(map(len, edges)) <= {2} and all(
                issubclass(t, (int, np.integer)) and t is not bool
                for t in set(map(type, chain.from_iterable(edges)))):
            return np.fromiter(chain.from_iterable(edges), dtype=np.int64,
                               count=2 * len(edges)).reshape(-1, 2)
    except (TypeError, OverflowError):      # an unsized item; an id beyond int64
        pass
    bad = next(e for e in edges if not _int64_pair(e))
    raise GraphFormatError(f"edge {bad!r} is not a pair of int64 vertex ids")


def _int64_pair(e) -> bool:
    """Whether e is two integers (not bools) that fit int64."""
    try:
        return len(e) == 2 and all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                                   and -2**63 <= v < 2**63 for v in e)
    except TypeError:
        return False


def _merge(n: int, uv: np.ndarray, w: Optional[np.ndarray] = None):
    """Orient the rows of uv (in [0, n), n from _vertex_count) as u < v, sort
    and merge repeats, carrying w (a weight per row, or None) along. Returns
    (uv, w, clash): clash is None, or rows (i, j) where j is the first row
    whose weight differs from that of row i, the earliest row on the same edge."""
    code = np.minimum(*uv.T) * n + np.maximum(*uv.T)
    clash = None
    if w is None:
        code = sorted_unique(code)
    else:
        code, first, inverse = np.unique(code, return_index=True, return_inverse=True)
        head = first[inverse]
        bad = np.flatnonzero((w != w[head]) & (head != np.arange(len(w))))
        clash = (int(head[bad[0]]), int(bad[0])) if len(bad) else None
        w = w[first]
    return _pairs(n, code), w, clash


def _pairs(n: int, code: np.ndarray) -> np.ndarray:
    """The (m, 2) int64 rows (u, v) of the edge codes u * n + v."""
    uv = np.empty((len(code), 2), dtype=np.int64)
    np.divmod(code, n, out=(uv[:, 0], uv[:, 1]))
    return uv


def _weight_array(weights) -> np.ndarray:
    """weights as float64; a string or bool weight raises GraphFormatError,
    checked entry by entry, since np.asarray([2.5, True]) is float64."""
    x = np.asarray(weights, dtype=object)
    for v in x.ravel():
        if isinstance(v, (str, bytes, bool, np.bool_)):
            raise GraphFormatError(f"weight {v!r} is not a number")
    return x.astype(np.float64)


def check_int(name: str, value, lo: int, hi: Optional[int] = None) -> None:
    """Raise ValueError unless value is an integer in [lo, hi], no upper bound
    when hi is None: numpy integers pass, bools and floats do not."""
    hi = math.inf if hi is None else hi
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or not lo <= value <= hi:
        raise ValueError(f"{name}={value!r} is not an integer in [{lo}, {hi}]")


def _vertex_count(n) -> int:
    """n as an int: an integer (a numpy one too), 0 <= n <= isqrt(2**63 - 1)."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise GraphFormatError(f"n = {n!r} is not an integer")
    if n < 0:
        raise GraphFormatError(f"n = {n} is negative")
    if n > 3_037_000_499:
        raise GraphFormatError(f"n = {n} exceeds 3037000499, the most for int64 codes u * n + v")
    return int(n)


# the faults of an edge row (u, v, weight), in the order both doors check them
_ROW_FAULTS = ("self-loop", "endpoint out of range", "non-finite weight", "non-positive weight")


def _row_faults(n: int, uv: np.ndarray, w: Optional[np.ndarray]) -> np.ndarray:
    """One bool row per _ROW_FAULTS entry over edge rows uv, weights w (None: unweighted)."""
    w = np.ones(len(uv)) if w is None else w
    return np.array([uv[:, 0] == uv[:, 1], (np.minimum(*uv.T) < 0) | (np.maximum(*uv.T) >= n),
                     ~np.isfinite(w), ~(w > 0)])


def _canonical(n: int, edges, weights):
    """(n, uv, w): _vertex_count(n), the canonical edge array of the pairs
    `edges`, and `weights` (one per pair, in the same order, or None) merged."""
    n, uv = _vertex_count(n), _edge_array(edges)
    x = None if weights is None else _weight_array(weights)
    if x is not None and x.shape != (len(uv),):
        raise GraphFormatError(f"{x.size} weights for {len(uv)} edges")
    fails = _row_faults(n, uv, x)
    if fails.any():                                     # the first faulty row, its first fault
        i = int(fails.any(axis=0).argmax())
        raise GraphFormatError(
            f"{_ROW_FAULTS[fails[:, i].argmax()]} on edge {tuple(uv[i].tolist())}")
    merged, w, clash = _merge(n, uv, x)
    if clash is not None:
        i, j = clash
        raise GraphFormatError(
            f"conflicting duplicate weight on edge {tuple(sorted(uv[j].tolist()))}: "
            f"{x[i].item()!r} and {x[j].item()!r}")
    return n, merged, w


class Graph:
    """Immutable undirected graph on vertices [0, n).

    Stored as arrays: `edge_array`, the (m, 2) int64 edges u < v, sorted,
    deduplicated, no self-loops; `weight_array`, their positive, finite
    float64 weights, or None, as it always is when there are no edges (so
    save_graph and load_graph round-trip every graph). Graph(n, edges,
    weights) takes (u, v) pairs or an (m, 2) array, in any order and with
    repeats, and one weight per pair in the same order; repeats of an edge
    must carry equal weights.
    from_edges is the same call by name. The views `edges` (a frozenset of
    (u, v) tuples), `csr`, `degrees`, `adj` (a frozenset of neighbours per
    vertex) and `adjacency_matrix` are built when first read and cached.
    Graphs are equal when n, edges and weights are; they are not hashable.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 weights: Optional[Iterable[float]] = None):
        self._init(*_canonical(n, edges, weights))

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]],
                   weights: Optional[Iterable[float]] = None) -> "Graph":
        """Graph(n, edges, weights), by name."""
        return Graph(n, edges, weights)

    def _init(self, n, uv, w) -> "Graph":
        """Store canonical arrays that their door has checked (Graph(),
        load_graph) or derived from a graph's; every constructor ends here. A
        graph with no edges is unweighted."""
        self.__dict__.update(n=n, edge_array=uv, weight_array=w if len(uv) else None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable: cannot set {name!r}")

    def __eq__(self, other):
        w, x = self.weight_array, getattr(other, "weight_array", None)
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.edge_array, other.edge_array)
                and (w is x or w is not None and x is not None and np.array_equal(w, x)))

    @property
    def m(self) -> int:
        return len(self.edge_array)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(*self.edge_array.T.tolist()))

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
        return tuple(frozenset(a.tolist()) for a in np.split(indices, indptr[1:])[:-1])

    def rows(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The CSR rows of the vertices `vs`, concatenated, as (owner, nbr):
        nbr[p] is a neighbour of vs[owner[p]], rows in the order of `vs`."""
        indptr, indices = self.csr
        start = indptr[vs]
        length = indptr[vs + 1] - start
        owner = np.repeat(np.arange(len(vs)), length)
        pos = np.repeat(start - np.cumsum(length) + length, length)  # start less output offset
        pos += np.arange(len(owner))
        return owner, indices[pos]

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

    def rank(self) -> tuple:
        """The one order on results, best first: density desc, vertex count
        asc, lexicographic. Equal ranks are ties, left to the caller's order."""
        return (-self.density, len(self.vertices), self.vertices)


# byte classes of the edge-list format: 0 in a token, 1 blank, 2 line break
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[list(b" \t\v\f")] = 1
_BYTE_CLASS[list(b"\r\n")] = 2

# load_graph's per-line checks, in the order they are applied to a line
_LINE_CHECKS = ("malformed edge line", *_ROW_FAULTS[:2], "malformed weight", *_ROW_FAULTS[2:],
                "weighted and unweighted edge lines mixed")


def load_graph(path) -> Graph:
    """Read the edge-list text format: header "n m", then m "u v" or "u v w" lines.

    The file must be UTF-8. Lines end at \\n, \\r or \\r\\n; fields are
    separated by runs of spaces, tabs, \\v or \\f. Blank lines and lines whose
    first field starts with '#' are skipped. The header's two fields are read
    with int(). A vertex id is an optional sign and ASCII decimal digits (so
    "+0" and "007" are ids; "1_0", non-ASCII digits and fields joined by
    non-ASCII whitespace are malformed lines); a weight is what float()
    accepts. Only the first m lines after the header are parsed; any further
    lines are counted, and the count must equal m.

    Repeated edges are deduplicated; a bad vertex count n, self-loops,
    out-of-range ids, non-finite or non-positive weights, repeated edges with
    different weights, and files mixing weighted and unweighted lines are
    rejected. The error names the first bad line, the header first; an edge
    line is checked for width, ids, self-loop, range, weight syntax, weight
    finiteness, weight sign and weightedness, in that order.
    """
    with open(path, "rb") as f:
        data = f.read()
    data.decode("utf-8")                                # only checks the encoding
    buf = np.frombuffer(data, dtype=np.uint8)
    start, end, head, width = _content_lines(buf)

    def text(i):                                        # content line i, outer blanks cut
        return data[start[head[i]]:end[head[i] + width[i] - 1]].decode()

    if not len(head):
        raise GraphFormatError("empty graph file")
    try:
        n, m = map(int, text(0).split())
    except ValueError as exc:
        raise GraphFormatError(f"bad header line: {text(0)!r}") from exc
    n = _vertex_count(n)
    first, w = head[1:1 + m], width[1:1 + m]            # the edge lines
    # a line of one field reads it twice; its width check fails first
    ids = (first[:, None] + np.minimum(w[:, None] - 1, [0, 1])).ravel()
    uv, is_id = _decimal(data, buf, start[ids], end[ids])
    uv, is_id = uv.reshape(-1, 2), is_id.reshape(-1, 2)
    weighted = w == 3
    wt = np.ones(len(w))
    bad_wt = np.zeros(len(w), dtype=bool)
    for i in np.flatnonzero(weighted).tolist():
        try:
            wt[i] = float(data[start[first[i] + 2]:end[first[i] + 2]].decode())
        except ValueError:
            bad_wt[i] = True
    row = _row_faults(n, uv, wt)
    fails = np.vstack([(w < 2) | (w > 3) | ~np.logical_and(*is_id.T), row[:2], bad_wt, row[2:],
                       weighted != weighted[:1]])
    if fails.any():
        i = int(fails.any(axis=0).argmax())
        raise GraphFormatError(f"{_LINE_CHECKS[fails[:, i].argmax()]}: {text(1 + i)!r}")
    uv, wt, clash = _merge(n, uv, wt if weighted.any() else None)
    if clash is not None:
        raise GraphFormatError(f"conflicting duplicate weight: {text(1 + clash[1])!r}")
    if len(head) - 1 != m:
        raise GraphFormatError(f"header declares {m} edges, file has {len(head) - 1}")
    return _graph(n, uv, wt)


def _content_lines(buf: np.ndarray):
    """Tokenize the bytes buf of an edge-list file: (start, end), the byte
    span of each token, and for each line that is neither blank nor a
    comment, head, its first token, and width, its number of tokens."""
    cls = _BYTE_CLASS[buf]
    bounds = np.flatnonzero(np.diff(cls == 0, prepend=False, append=False))
    bounds = bounds.astype(np.int32 if len(buf) < 2 ** 31 else np.int64)
    start, end = bounds[0::2], bounds[1::2]
    line = np.searchsorted(np.flatnonzero(cls == 2), start)   # line of each token
    del cls
    head = np.flatnonzero(np.diff(line, prepend=-1))
    width = np.diff(head, append=len(start))
    keep = buf[start[head]] != ord("#")
    return start, end, head[keep], width[keep]


def _decimal(data: bytes, buf: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The tokens data[a:b] read as an optional sign and ASCII decimal digits:
    (int64 values, whether each token is of that form). A magnitude of 2**62
    or more stands in as 2**62 plus the number of distinct such magnitudes
    before it, so equal ids stay equal and distinct ones differ."""
    sign = buf[a]
    neg = sign == ord("-")
    a = a + (neg | (sign == ord("+")))
    ndig = b - a
    ok = ndig > 0
    val = np.zeros(len(a), dtype=np.int64)
    at = np.empty_like(a)                               # byte j of each token
    for j in range(min(int(ndig.max(initial=0)), 18)):
        on = j < ndig
        np.minimum(np.add(a, j, out=at), len(buf) - 1, out=at)
        d = buf[at] - np.uint8(48)                      # wraps: a digit iff < 10
        ok &= (d < 10) | ~on
        np.multiply(val, 10, out=val, where=on)
        np.add(val, d, out=val, where=on)
    big = {}                                            # long magnitude: its stand-in
    for i in np.flatnonzero(ndig > 18).tolist():
        digits = data[a[i]:b[i]]
        ok[i] = digits.isdigit()                        # ASCII digits only
        v = int(digits) if ok[i] else 0
        val[i] = v if v < 2 ** 62 else big.setdefault(v, 2 ** 62 + len(big))
    return np.negative(val, out=val, where=neg), ok


def save_graph(g: Graph, path) -> None:
    """Write the edge-list format read back by load_graph: "n m", then "u v" or
    "u v repr(w)" per edge, formatted before the file opens (no partial file)."""
    uv, w = g.edge_array, g.weight_array
    if w is None:
        line, fields = "%d %d\n", tuple(uv.ravel().tolist())
    else:
        line, fields = "%d %d %r\n", tuple(chain.from_iterable(zip(*uv.T.tolist(), w.tolist())))
    body = line * g.m % fields
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.writelines([f"{g.n} {g.m}\n", body])


def _graph(n: int, uv: np.ndarray, w=None) -> Graph:
    """A Graph on arrays that are already canonical (see _canonical)."""
    return object.__new__(Graph)._init(n, uv, w)


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on s, relabeled to [0, |s|).

    Returns (subgraph, mapping) where mapping[new_id] = old_id.
    """
    vs = vertex_array(g, s)
    members = tuple(vs.tolist())
    relabel = np.zeros(g.n, dtype=np.int64)
    relabel[vs] = np.arange(len(vs))
    inside = induced_edge_mask(g, vs)
    w = None if g.weight_array is None else g.weight_array[inside]
    # relabelling is increasing on s, so the kept rows stay canonical and sorted
    return _graph(len(members), relabel[g.edge_array[inside]], w), members


def vertex_array(g: Graph, s: Iterable[int]) -> np.ndarray:
    """s as a sorted, duplicate-free int64 array; raises ValueError as in_range."""
    ids = np.asarray(s if isinstance(s, np.ndarray) else list(s))
    return in_range(g, sorted_unique(ids))


def in_range(g: Graph, vs) -> np.ndarray:
    """The ids vs, in order, as an int64 array; raises ValueError unless they
    have an integer dtype (so no float is truncated and no bool mask read as
    ids; an empty vs passes), or naming the first id outside [0, n)."""
    vs = np.asarray(vs)
    if vs.size and not np.issubdtype(vs.dtype, np.integer):
        raise ValueError(f"vertex ids must be integers, got dtype {vs.dtype}")
    bad = (vs < 0) | (vs >= g.n)
    if bad.any():
        raise ValueError(f"vertex {vs[bad.argmax()]} out of range [0,{g.n})")
    return vs.astype(np.int64, copy=False)


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
    return inside[g.edge_array[:, 0]] & inside[g.edge_array[:, 1]]


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


def brute_force_dks(g: Graph, k: int) -> SolveResult:
    """Exact densest k-subgraph by enumeration; ties broken by lexicographically
    smallest vertex set. Intended as a test oracle at desk scale: more than
    5,000,000 k-subsets raises BudgetExceededError."""
    check_int("k", k, 1, g.n)
    if math.comb(g.n, k) > 5_000_000:
        raise BudgetExceededError(f"C({g.n},{k}) exceeds budget 5000000")
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
