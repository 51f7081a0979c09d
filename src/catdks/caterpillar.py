"""Caterpillar schedules, counting with fixed leaves, and candidate-set traces.

An (r,s)-caterpillar is built in s steps from a single backbone vertex: step t
adds a length-1 hair when the interval [(t-1)r/s, tr/s] contains an integer,
and extends the backbone otherwise. It has r+1 leaves and s-r internal
vertices. Counting walks the schedule on a batch of leaf tuples at once: row
j of a sparse count matrix holds, per vertex, the number of ways to realize
the current prefix for tuple j with that vertex as the rightmost backbone
vertex. A hair step keeps the entries adjacent to the row's leaf and a
backbone step multiplies by the adjacency matrix. A schedule of hair steps
only counts common neighbours on bit-packed adjacency rows instead, on
graphs small enough. This counts homomorphisms: internal vertices may
collide with each other and with the leaves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

import numpy as np

from .graphs import Graph, check_int, in_range

HAIR = "hair"
BACKBONE = "backbone"


@dataclass(frozen=True)
class CaterpillarSchedule:
    r: int
    s: int
    steps: tuple[str, ...]

    @property
    def num_leaves(self) -> int:
        return self.r + 1

    @property
    def num_internal(self) -> int:
        return self.s - self.r


@dataclass(frozen=True)
class CandidateTrace:
    sets: tuple[tuple[int, ...], ...]          # S(0..s)
    kinds: tuple[str, ...]                     # step kind per t=1..s
    fractional_exponents: tuple[Fraction, ...] # fr(t*r/s) per t=1..s


def _interval_contains_integer(t: int, r: int, s: int) -> bool:
    # exact rational test: exists integer m with (t-1)r <= m*s <= t*r
    lo = -((-(t - 1) * r) // s)   # ceil((t-1)r/s)
    hi = (t * r) // s             # floor(tr/s)
    return lo <= hi


def build_schedule(r: int, s: int) -> CaterpillarSchedule:
    """Deterministic hair/backbone step sequence for coprime 0 < r < s."""
    check_int("r", r, 1)
    check_int("s", s, r + 1)
    if math.gcd(r, s) != 1:
        raise ValueError(f"r={r} and s={s} must be coprime")
    steps = tuple(HAIR if _interval_contains_integer(t, r, s) else BACKBONE
                  for t in range(1, s + 1))
    assert steps.count(HAIR) == r + 1
    return CaterpillarSchedule(r=r, s=s, steps=steps)


def choose_rs(alpha: float, s_max: int) -> tuple[int, int]:
    """Coprime r/s with s <= s_max minimizing |r/s - alpha|.

    Ties prefer r/s >= alpha, then the smallest s.
    """
    check_int("s_max", s_max, 2)
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    a = Fraction(alpha).limit_denominator(10**9)
    best = None
    for s in range(2, s_max + 1):
        for r in range(1, s):
            if math.gcd(r, s) != 1:
                continue
            frac = Fraction(r, s)
            key = (abs(frac - a), frac < a, s)
            if best is None or key < best[0]:
                best = (key, (r, s))
    assert best is not None
    return best[1]


def count_caterpillars(g: Graph, sched: CaterpillarSchedule,
                       leaves: Sequence[int]) -> int:
    """Number of caterpillar copies whose ordered leaf sequence is `leaves`.

    Homomorphism count by the batched walker on a single tuple: O(s * |E|).
    """
    leaves = _leaf_array(g, sched, leaves)
    return _count_batch(g, sched, leaves[None])[0]


def _leaf_array(g: Graph, sched: CaterpillarSchedule, leaves: Sequence[int]) -> np.ndarray:
    """The leaves as an int64 array, in order and with repeats; raises
    ValueError on a wrong count, or as in_range."""
    if len(leaves) != sched.num_leaves:
        raise ValueError(f"expected {sched.num_leaves} leaves, got {len(leaves)}")
    return in_range(g, leaves)


# cells in a block's B x n arrays, in its scoring cube (at most B x min(k, n) x max|S|),
# and in the CSR rows that one part of a walk_step reads
_CELLS = 1 << 16
# leaf tuples per block: the walker's count matrix is at most _BLOCK x n
_BLOCK = 256
# bytes of packed adjacency rows, and of ANDed tuple rows, held at once
_PACKED = 1 << 21


def _count_batch(g: Graph, sched: CaterpillarSchedule,
                 leaves: np.ndarray) -> list[int]:
    """Homomorphism counts for every row of a (B, r+1) array of leaf tuples.

    A schedule of hair steps only, (r, r+1), counts the common neighbours of
    each tuple's leaves on bit-packed rows (_common_neighbours) when all n
    packed adjacency rows fit _PACKED bytes. Otherwise the sparse walker
    counts, in int64 while max_degree^(s-r), which bounds every count and
    every partial count, stays below 2^63, and in exact Python ints
    otherwise.
    """
    words = max(1, -(-g.n // 64))                       # uint64 words per packed row
    if BACKBONE not in sched.steps and g.n * 8 * words <= _PACKED:
        # past the budget a row would be packed again for each block of
        # tuples, which measured slower than the walker
        return _common_neighbours(g, leaves, words)
    from scipy.sparse import csr_matrix

    indptr, indices = g.csr
    exact = g.max_degree() ** sched.num_internal >= 2 ** 63
    A = csr_matrix((np.ones(len(indices), dtype=np.int64), indices, indptr),
                   shape=(g.n, g.n))
    out: list[int] = []
    for lo in range(0, len(leaves), _BLOCK):
        out.extend(_walk(A, sched.steps, leaves[lo:lo + _BLOCK], exact))
    return out


def _common_neighbours(g: Graph, leaves: np.ndarray, words: int) -> list[int]:
    """Per row of `leaves`, the number of vertices adjacent to all of its
    leaves: the popcount of the AND of their adjacency rows. All n rows are
    packed from the edge array, no CSR, into `words` little-endian uint64
    words each (vertex v is bit v % 64 of word v // 64) by a scatter-add of
    each edge's two bits; edges are read in parts of _PACKED // 256 edges,
    and tuples ANDed in blocks of about _PACKED // 8 bytes of rows."""
    packed = np.zeros(g.n * words, dtype="<u8")
    step = max(1, _PACKED // 256)                       # edges per part: 64 KiB keys
    for lo in range(0, g.m, step):
        part = g.edge_array[lo:lo + step]               # each pair once, u < v, so each
        for a, b in (part.T, part[:, ::-1].T):          # bit is added once: sum == OR
            np.add.at(packed, a * words + (b >> 6), np.uint64(1) << (b & 63).astype(np.uint64))
    packed = packed.reshape(g.n, words)
    step = max(1, _PACKED // (64 * words))              # tuples ANDed per block
    out: list[int] = []
    for lo in range(0, len(leaves), step):
        X = packed[leaves[lo:lo + step, 0]]
        for col in leaves[lo:lo + step, 1:].T:
            X &= packed[col]
        out.extend(np.bitwise_count(X).sum(axis=1).tolist())
    return out


def _walk(A, steps: Sequence[str], block: np.ndarray,
          exact: bool = False) -> list[int]:
    """Counts for one block of tuples; A is the int64 scipy CSR adjacency.

    X holds one row per tuple and one column per vertex. It is a sparse int64
    matrix, so a backbone step X @ A costs O(nnz(X) * max degree); with
    `exact` it is a dense array of Python ints and a backbone step sums, for
    each vertex, the columns of its neighbors.
    """
    nbrs = np.split(A.indices, A.indptr[1:-1]) if exact else None
    X = None
    hair = 0
    for kind in steps:
        if kind == HAIR:
            rows = A[block[:, hair]]
            hair += 1
            if exact:
                rows = rows.toarray().astype(object)
                X = rows if X is None else X * rows
            else:
                X = rows if X is None else X.multiply(rows).tocsr()
        elif exact:
            X = np.stack([X[:, nb].sum(axis=1) for nb in nbrs], axis=1)
        else:
            X = X @ A
    return np.asarray(X.sum(axis=1)).ravel().tolist()


def walk_step(g: Graph, row: np.ndarray, vert: np.ndarray, B: int) -> np.ndarray:
    """Gamma of each of a block's B vertex sets, held as flat (row, vertex)
    pairs, as a B * n bool mask over keys row * n + vertex: a backbone step
    takes the mask's keys, a hair step keeps the members of each row that
    are set in its cluster's mask. The CSR rows of the pairs are read in
    parts of about _CELLS entries, not all at once."""
    n = g.n
    out = np.zeros(B * n, dtype=bool)
    step = max(1, _CELLS // max(g.max_degree(), 1))     # pairs whose rows fit _CELLS
    for lo in range(0, len(vert), step):
        owner, nbr = g.rows(vert[lo:lo + step])
        out[row[lo + owner] * n + nbr] = True
    return out


def candidate_trace(g: Graph, sched: CaterpillarSchedule,
                    leaves: Sequence[int]) -> CandidateTrace:
    """Replay the candidate sets S(t) of one branch: hair intersects with the
    next leaf's neighborhood, backbone expands to the full neighborhood."""
    leaf = iter(_leaf_array(g, sched, leaves).reshape(-1, 1))
    one = np.zeros(1, dtype=np.int64)                   # one row: the block is one set
    vert = np.arange(g.n)
    sets = [tuple(range(g.n))]
    exps = []
    for t, kind in enumerate(sched.steps, start=1):
        if kind == HAIR:
            vert = vert[walk_step(g, one, next(leaf), 1)[vert]]
        else:
            vert = np.flatnonzero(walk_step(g, np.zeros_like(vert), vert, 1))
        sets.append(tuple(vert.tolist()))
        x = Fraction(t * sched.r, sched.s)
        exps.append(x - (x.numerator // x.denominator))
    return CandidateTrace(sets=tuple(sets), kinds=sched.steps,
                          fractional_exponents=tuple(exps))


def choice_rows(rng: np.random.Generator, N: int, C: int, T: int) -> np.ndarray:
    """A (T, C) array whose rows are T successive rng.choice(N, C,
    replace=False) calls, leaving rng in the same state, from one
    rng.integers call.

    choice draws by Floyd's algorithm, one bounded draw in [0, j] for
    j = N-C .. N-1 (a value already taken becomes j), then shuffles with one
    bounded draw in [0, i] for i = C-1 .. 1 (swap i with the draw); integers
    with an array of bounds makes the same draws in row-major order.
    """
    if N > 10000 and C > N // 50:
        # here choice shuffles the tail of arange(N) instead, a stream that
        # integers does not reproduce
        return np.array([rng.choice(N, C, replace=False) for _ in range(T)]).reshape(T, C)
    j = np.arange(N - C, N)
    d = rng.integers(0, np.broadcast_to(np.concatenate([j + 1, np.arange(C, 1, -1)]),
                                        (T, 2 * C - 1)))
    out = d[:, :C].copy()
    for t in range(1, C):
        out[(out[:, :t] == out[:, t:t + 1]).any(axis=1), t] = j[t]
    rows = np.arange(T)
    for i, swap in zip(range(C - 1, 0, -1), d[:, C:].T):
        out[rows, i], out[rows, swap] = out[rows, swap], out[rows, i]
    return out


def max_witness_count(g: Graph, sched: CaterpillarSchedule, budget: int,
                      seed: int = 0) -> tuple[tuple[int, ...], int]:
    """Leaf tuple maximizing the caterpillar count.

    Leaves are ordered but pairwise distinct (a witness is a vertex *set*;
    repeated leaves degenerate into lower-order intersection counts), except
    when fewer than r+1 vertices are non-isolated: then no witness exists and
    the result is those vertices repeated cyclically (all 0s when there are
    none) with count 0. Full
    lexicographic enumeration when the tuple space fits in `budget`, otherwise
    `budget` seeded uniform samples, the stream of one
    rng.choice(#candidates, r+1, replace=False) call per tuple (choice_rows).
    All tuples are counted by one _count_batch call. Ties resolved by
    (count, lexicographically smallest tuple). Returns (leaves, count).
    """
    check_int("budget", budget, 1)
    check_int("seed", seed, 0)
    cands = np.flatnonzero(g.degrees)
    if not len(cands):
        return tuple([0] * sched.num_leaves), 0
    arity = sched.num_leaves
    if len(cands) < arity:
        # degenerate: not enough distinct non-isolated vertices for a witness
        return tuple((cands.tolist() * arity)[:arity]), 0
    if math.perm(len(cands), arity) <= budget:
        tuples = np.array(list(permutations(cands.tolist(), arity)), dtype=np.int64)
    else:
        tuples = cands[choice_rows(np.random.default_rng(seed), len(cands), arity, budget)]
    counts = _count_batch(g, sched, tuples)
    best_count = max(counts)
    top = tuples[np.array(counts, dtype=object) == best_count]
    return tuple(top[np.lexsort(top.T[::-1])[0]].tolist()), best_count
