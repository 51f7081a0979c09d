import math
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest

from catdks.caterpillar import (BACKBONE, HAIR, build_schedule, candidate_trace,
                                choose_rs, count_caterpillars, max_witness_count)
from catdks.caterpillar import choice_rows, walk_step
from catdks.graphs import Graph


def _realizes(adj, sched, leaves, assign):
    """Whether the internal vertices `assign`, in backbone order, and
    `leaves` realize every caterpillar edge."""
    idx = 0
    li = 0
    for kind in sched.steps:
        if kind == HAIR:
            if leaves[li] not in adj[assign[idx]]:
                return False
            li += 1
        else:
            if assign[idx + 1] not in adj[assign[idx]]:
                return False
            idx += 1
    return True


def brute_count(g, sched, leaves):
    """Independent oracle: enumerate all assignments of the s-r internal
    vertices and check every caterpillar edge."""
    return sum(_realizes(g.adj, sched, leaves, assign)
               for assign in product(range(g.n), repeat=sched.num_internal))


def injective_count(g, sched, leaves):
    """Reference injective count: brute_count over the assignments whose
    internal vertices are distinct from each other and from the leaves."""
    rest = [v for v in range(g.n) if v not in leaves]
    return sum(_realizes(g.adj, sched, leaves, assign)
               for assign in permutations(rest, sched.num_internal))


def random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    edges = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2))
             if a != b}
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# schedules


def test_schedule_claw():
    assert build_schedule(2, 3).steps == (HAIR, HAIR, HAIR)


def test_schedule_path():
    assert build_schedule(1, 2).steps == (HAIR, HAIR)


def test_schedule_3_5():
    assert build_schedule(3, 5).steps == (HAIR, HAIR, BACKBONE, HAIR, HAIR)


def test_schedule_counts_exhaustive():
    for s in range(2, 51):
        for r in range(1, s):
            if math.gcd(r, s) != 1:
                continue
            sched = build_schedule(r, s)
            assert sched.steps.count(HAIR) == r + 1
            assert sched.num_internal == s - r
            assert sched.steps.count(BACKBONE) == s - r - 1


def test_schedule_symmetry():
    # reversed step sequence keeps the leaf/internal counts
    for (r, s) in [(2, 3), (3, 5), (5, 8), (3, 7)]:
        sched = build_schedule(r, s)
        rev = tuple(reversed(sched.steps))
        assert rev.count(HAIR) == r + 1
        assert sched.steps == rev  # the construction is left-right symmetric


def test_schedule_rejects_bad_input():
    with pytest.raises(ValueError):
        build_schedule(2, 4)
    with pytest.raises(ValueError):
        build_schedule(3, 2)
    with pytest.raises(ValueError):
        build_schedule(0, 3)


# ---------------------------------------------------------------------------
# choose_rs


def test_choose_rs_exact_half():
    assert choose_rs(0.5, 10) == (1, 2)


def test_choose_rs_two_thirds():
    assert choose_rs(2 / 3, 3) == (2, 3)


def test_choose_rs_golden():
    phi = (math.sqrt(5) - 1) / 2  # 0.6180...
    assert choose_rs(phi, 8) == (5, 8)


def test_choose_rs_matches_exhaustive_scan():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = float(rng.uniform(0.05, 0.95))
        r, s = choose_rs(a, 7)
        best = min((abs(Fraction(rr, ss) - Fraction(a).limit_denominator(10 ** 9))
                    for ss in range(2, 8) for rr in range(1, ss)
                    if math.gcd(rr, ss) == 1))
        assert abs(Fraction(r, s) - Fraction(a).limit_denominator(10 ** 9)) == best


# ---------------------------------------------------------------------------
# counting


def test_count_claw_equals_common_neighbors():
    sched = build_schedule(2, 3)
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(3, 9))
        g = random_graph(n, int(rng.integers(0, 2 * n)), int(rng.integers(1 << 30)))
        leaves = tuple(int(x) for x in rng.integers(0, n, size=3))
        expected = len(g.adj[leaves[0]] & g.adj[leaves[1]] & g.adj[leaves[2]])
        assert count_caterpillars(g, sched, leaves) == expected


def test_count_zero_degree_leaf():
    g = Graph.from_edges(4, [(0, 1)])
    assert count_caterpillars(g, build_schedule(2, 3), (0, 1, 3)) == 0


def test_count_c4_path():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert count_caterpillars(g, build_schedule(1, 2), (0, 2)) == 2


def test_count_matches_brute_force():
    rng = np.random.default_rng(42)
    for (r, s) in [(1, 2), (2, 3), (1, 3), (3, 4), (2, 5), (3, 5), (4, 5)]:
        sched = build_schedule(r, s)
        for trial in range(8):
            n = int(rng.integers(3, 8))
            g = random_graph(n, int(rng.integers(2, 2 * n)), int(rng.integers(1 << 30)))
            leaves = tuple(int(x) for x in rng.integers(0, n, size=r + 1))
            assert count_caterpillars(g, sched, leaves) == brute_count(g, sched, leaves)


def test_count_monotone_in_edges():
    rng = np.random.default_rng(8)
    sched = build_schedule(3, 5)
    g = random_graph(7, 10, 1)
    leaves = (0, 1, 2, 3)
    base = count_caterpillars(g, sched, leaves)
    extra = set(g.edges)
    for (u, v) in combinations(range(7), 2):
        extra.add((u, v))
    g2 = Graph.from_edges(7, extra)
    assert count_caterpillars(g2, sched, leaves) >= base


def test_count_injective_variant():
    # star K_{1,3}: homomorphism and injective counts agree (center forced)
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    sched = build_schedule(2, 3)
    assert count_caterpillars(star, sched, (1, 2, 3)) == 1
    assert injective_count(star, sched, (1, 2, 3)) == 1
    # path 0-a-b-1 on a triangle: homomorphisms allow backtracking (a, b) =
    # (1, 0), (1, 2), (2, 0); injective internal vertices avoid both leaves,
    # and only vertex 2 does
    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    p3 = build_schedule(1, 3)  # two backbone vertices
    assert count_caterpillars(tri, p3, (0, 1)) == brute_count(tri, p3, (0, 1)) == 3
    assert injective_count(tri, p3, (0, 1)) == 0


def test_leaves_are_range_checked_in_order():
    # a leaf outside [0, n) is named, never wrapped round to n + v or left to
    # scipy; leaves keep their order and may repeat
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    sched = build_schedule(1, 2)
    for fn in (count_caterpillars, candidate_trace):
        for leaves, bad in [((-1, 1), -1), ((-4, 0), -4), ((0, 4), 4), ((5, -2), 5)]:
            with pytest.raises(ValueError, match=rf"vertex {bad} out of range \[0,4\)"):
                fn(c4, sched, leaves)
        # a float leaf is not truncated, nor a bool mask read as the ids 1, 0
        for leaves in ([0.5, 1], np.array([True, False])):
            with pytest.raises(ValueError, match="vertex ids must be integers"):
                fn(c4, sched, leaves)
    assert count_caterpillars(c4, sched, (0, 0)) == 2
    assert count_caterpillars(c4, sched, np.array([1, 1])) == 2
    assert candidate_trace(c4, sched, (1, 0)).sets[1:] == ((0, 2), ())
    assert candidate_trace(c4, sched, (0, 1)).sets[1:] == ((1, 3), ())


# ---------------------------------------------------------------------------
# candidate traces


def test_trace_claw_consistency():
    sched = build_schedule(2, 3)
    g = random_graph(10, 25, 3)
    leaves = (0, 1, 2)
    tr = candidate_trace(g, sched, leaves)
    assert len(tr.sets) == 4
    assert set(tr.sets[3]) == g.adj[0] & g.adj[1] & g.adj[2]
    assert len(tr.sets[3]) == count_caterpillars(g, sched, leaves)


def test_trace_empty_propagates():
    g = Graph.from_edges(5, [(0, 1)])
    tr = candidate_trace(g, build_schedule(3, 5), (2, 2, 2, 2))
    assert tr.sets[1] == () and all(s == () for s in tr.sets[1:])


def test_trace_kinds_and_exponents():
    tr = candidate_trace(random_graph(6, 8, 0), build_schedule(3, 5), (0, 1, 2, 3))
    assert tr.kinds == (HAIR, HAIR, BACKBONE, HAIR, HAIR)
    assert tr.fractional_exponents == (Fraction(3, 5), Fraction(1, 5),
                                       Fraction(4, 5), Fraction(2, 5),
                                       Fraction(0))


def test_trace_hair_shrinks_backbone_expands():
    g = random_graph(12, 30, 2)
    sched = build_schedule(3, 5)
    tr = candidate_trace(g, sched, (0, 1, 2, 3))
    for t, kind in enumerate(sched.steps, start=1):
        if kind == HAIR:
            assert set(tr.sets[t]) <= set(tr.sets[t - 1])
        # both kinds: S(t) within Gamma of something valid


# (random_graph args, (r, s), leaves, S(0..s)), recorded from the set-based
# version
TRACE_GOLDEN = [
    ((14, 40, 6), (3, 5), (0, 1, 2, 3),
     (tuple(range(14)), (1, 2, 8, 11), (8,), (0, 1, 2, 6, 7, 11), (0, 7), ())),
    ((14, 40, 6), (2, 5), (4, 5, 6),
     (tuple(range(14)), (7, 10), (1, 2, 4, 6, 8, 9, 11, 12, 13), (9, 13), (5, 6, 7),
      (7,))),
]


@pytest.mark.parametrize("spec,rs,leaves,sets", TRACE_GOLDEN)
def test_trace_golden(spec, rs, leaves, sets):
    assert candidate_trace(random_graph(*spec), build_schedule(*rs), leaves).sets == sets


# ---------------------------------------------------------------------------
# witness maximization


def test_witness_empty_graph():
    g = Graph.from_edges(5, [])
    _, count = max_witness_count(g, build_schedule(2, 3), budget=100)
    assert count == 0


def test_witness_fewer_candidates_than_leaves():
    # (2,3) has 3 leaves but only 2 vertices have an edge: no distinct
    # tuple exists, so the candidates repeat and the count is 0
    g = Graph(6, [(2, 4)])
    assert max_witness_count(g, build_schedule(2, 3), 10) == ((2, 4, 2), 0)


def test_witness_claw_graph():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    leaves, count = max_witness_count(star, build_schedule(2, 3), budget=1000)
    assert count == 1 and leaves == (1, 2, 3)
    assert count_caterpillars(star, build_schedule(2, 3), (1, 2, 3)) == 1


def test_witness_deterministic_sampling():
    g = random_graph(30, 120, 6)
    sched = build_schedule(2, 3)
    a = max_witness_count(g, sched, budget=50, seed=9)
    b = max_witness_count(g, sched, budget=50, seed=9)
    assert a == b


def test_witness_full_enumeration_is_argmax():
    g = random_graph(7, 14, 5)
    sched = build_schedule(1, 2)
    leaves, count = max_witness_count(g, sched, budget=10_000)
    best = max(count_caterpillars(g, sched, t)
               for t in product(range(7), repeat=2) if t[0] != t[1])
    assert count == best


# (graph, (r, s), budget, seed) -> (leaves, count), recorded from the per-tuple
# dictionary DP. The first five enumerate every distinct leaf tuple; the rest
# draw `budget` seeded samples, so they also pin the RNG stream and the
# (count, smallest tuple) tie rule.
WITNESS_GOLDEN = [
    (("rg", 8, 14, 1), (1, 2), 10000, 0, (2, 4), 2),
    (("rg", 9, 20, 2), (2, 3), 10000, 0, (0, 1, 5), 1),
    (("rg", 10, 18, 3), (1, 3), 10000, 0, (1, 7), 7),
    (("rg", 9, 22, 4), (3, 5), 10000, 0, (0, 5, 4, 8), 4),
    (("rg", 10, 25, 5), (2, 5), 10000, 0, (1, 6, 8), 50),
    (("gnp", 120, 0.08, 11), (1, 2), 400, 3, (23, 115), 5),
    (("gnp", 150, 0.06, 12), (2, 3), 400, 4, (3, 33, 140), 1),
    (("gnp", 200, 0.05, 13), (1, 3), 300, 5, (157, 193), 43),
    (("gnp", 250, 0.04, 14), (3, 5), 300, 6, (133, 35, 229, 190), 1),
    (("gnp", 300, 0.03, 15), (2, 5), 300, 7, (51, 270, 143), 17),
    (("rg", 60, 90, 16), (2, 3), 500, 8, (23, 33, 42), 1),
    (("rg", 40, 30, 17), (3, 5), 200, 9, (0, 10, 14, 25), 0),
    (("gnp", 150, 0.2, 18), (2, 3), 300, 10, (9, 120, 127), 4),
    (("gnp", 100, 0.3, 19), (3, 5), 200, 11, (77, 47, 42, 68), 80),
]


@pytest.mark.parametrize("spec,rs,budget,seed,leaves,count", WITNESS_GOLDEN)
def test_witness_golden(spec, rs, budget, seed, leaves, count):
    from catdks.models import gen_gnp
    kind, n, x, gseed = spec
    g = random_graph(n, x, gseed) if kind == "rg" else gen_gnp(n, x, gseed)
    sched = build_schedule(*rs)
    enumerate_all = math.perm(int((g.degrees > 0).sum()), sched.num_leaves) <= budget
    assert enumerate_all == (kind == "rg" and n <= 10)
    assert max_witness_count(g, sched, budget, seed) == (leaves, count)
    assert count_caterpillars(g, sched, leaves) == count


def test_count_overflows_int64_exactly():
    # closed form for walks of length L between two distinct vertices of K_n:
    # ((n-1)^L - (-1)^L) / n; with L = 13 this is (39**13 + 1) // 40 on K_40
    k40 = Graph.from_edges(40, combinations(range(40), 2))
    sched = build_schedule(1, 13)
    expected = (39 ** 13 + 1) // 40
    assert expected >= 2 ** 63
    got = count_caterpillars(k40, sched, (0, 1))
    assert type(got) is int and got == expected
    k6 = Graph.from_edges(6, combinations(range(6), 2))
    assert count_caterpillars(k6, sched, (0, 1)) == (5 ** 13 + 1) // 6


# ---------------------------------------------------------------------------
# one-call draws and bounded packing


CHOICE_CASES = [(N, C) for N in (1, 2, 7, 1968, 10000, 10**6) for C in range(1, 6) if C <= N]
# both sides of numpy's switch to a tail shuffle (N > 10000 and C > N // 50)
CHOICE_CASES += [(10001, 200), (10001, 201), (20000, 400), (20000, 401)]


@pytest.mark.parametrize("N,C", CHOICE_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_choice_rows_matches_choice_loop(N, C, seed):
    """choice_rows reproduces one rng.choice(N, C, replace=False) call per
    row from one rng.integers call. That rests on numpy internals (choice's
    Floyd draws and shuffle are the same bounded draws as integers with an
    array of bounds), and the seeded goldens rest on it, so a numpy upgrade
    that breaks it fails here."""
    T = 200 if C < 100 else 20
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    loop = np.array([a.choice(N, C, replace=False) for _ in range(T)])
    assert np.array_equal(choice_rows(b, N, C, T), loop)
    assert a.bit_generator.state == b.bit_generator.state


# tracemalloc peak of max_witness_count(g, (2,3), budget 2000, seed 1) on the
# graph below (n = 20000, 59,989 edges), measured on the per-tuple
# rng.choice loop and scipy walker that the one-call draws and the packed
# counter replaced; packing all n adjacency rows at once would take
# 20000 x 2504 bytes, about 50 MB
WITNESS_PEAK_BYTES = 1_903_278


def test_witness_search_peak_memory():
    import tracemalloc

    rng = np.random.default_rng(0)
    uv = rng.integers(0, 20000, size=(60000, 2))
    g = Graph.from_edges(20000, uv[uv[:, 0] != uv[:, 1]])
    sched = build_schedule(2, 3)
    max_witness_count(g, sched, 50, seed=1)      # warm imports and caches
    tracemalloc.start()
    try:
        got = max_witness_count(g, sched, 2000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ((7, 16361, 7745), 0)
    assert peak <= WITNESS_PEAK_BYTES


# tracemalloc peak of max_witness_count(g, (2,3), budget 10**4, seed 1) on
# gen_gnp(4096, 4096^(-1/3), 0) (524,078 edges), measured with the leaves'
# rows packed from the CSR rows; n = 4096 is the largest graph whose n packed
# rows fit _PACKED, so this is the packed counter's worst case
PACKED_PEAK_BYTES = 42_392_386


def test_packed_witness_search_peak_memory():
    import tracemalloc

    from catdks.models import gen_gnp

    g = gen_gnp(4096, 4096 ** (-1 / 3), 0)
    sched = build_schedule(2, 3)
    max_witness_count(g, sched, 50, seed=1)      # warm imports and caches
    tracemalloc.start()
    try:
        got = max_witness_count(g, sched, 10 ** 4, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ((1752, 1784, 1626), 6)
    assert peak <= PACKED_PEAK_BYTES


def reference_common_neighbours(g, leaves, words):
    """Reference: each distinct leaf's CSR row packed once into `words`
    uint64 words (vertex v is bit v % 64 of word v // 64), then per tuple the
    popcount of the AND of its leaves' rows."""
    uniq, inv = np.unique(leaves, return_inverse=True)
    inv = inv.reshape(leaves.shape)
    owner, nbr = g.rows(uniq)
    key = owner * words + (nbr >> 6)                    # sorted, as CSR rows are
    first = np.flatnonzero(np.diff(key, prepend=-1))
    packed = np.zeros((len(uniq), words), dtype=np.uint64)
    packed.reshape(-1)[key[first]] = np.bitwise_or.reduceat(
        np.left_shift(np.uint64(1), (nbr & 63).astype(np.uint64)), first)
    X = packed[inv[:, 0]]
    for col in inv[:, 1:].T:
        X &= packed[col]
    return np.bitwise_count(X).sum(axis=1).tolist()


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
@pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
def test_common_neighbours_match_csr_rows(n, density):
    # density 0 is the edgeless graph; sparse ones leave isolated vertices;
    # vertex n - 1 is always isolated, so the last word's top bit in use is
    # never set
    from catdks.caterpillar import _common_neighbours

    rng = np.random.default_rng(n)
    pairs = np.array([(u, v) for u in range(n - 1) for v in range(u + 1, n - 1)],
                     dtype=np.int64).reshape(-1, 2)
    g = Graph.from_edges(n, pairs[rng.random(len(pairs)) < density])
    assert n < 3 or g.degrees[-1] == 0
    words = max(1, -(-n // 64))
    for arity in (1, 2, 3, 4):
        leaves = rng.integers(0, n, size=(50, arity))
        assert _common_neighbours(g, leaves, words) == \
            reference_common_neighbours(g, leaves, words)


@pytest.mark.parametrize("rows", [1, 7, 64])
def test_common_neighbours_row_blocks_match_csr_rows(rows):
    # _PACKED patched to `rows` packed rows of 192 bits: the edges are read
    # in parts of max(1, 3 * rows // 4) edges (1, 5 and 48), the last part
    # short, and the tuples are ANDed `rows` at a time. Every vertex as an
    # arity-1 leaf reads back each packed row's popcount, its degree, so an
    # edge part left out or read twice shows even when random leaves miss it
    from unittest import mock

    from catdks import caterpillar

    n, words = 130, 3
    rng = np.random.default_rng(rows)
    pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)], dtype=np.int64)
    g = Graph.from_edges(n, pairs[rng.random(len(pairs)) < 0.5])
    every = np.arange(n)[:, None]
    with mock.patch.object(caterpillar, "_PACKED", rows * 64 * words):
        for leaves in (rng.integers(0, n, size=(100, 1)), rng.integers(0, n, size=(100, 3)), every):
            assert caterpillar._common_neighbours(g, leaves, words) == \
                reference_common_neighbours(g, leaves, words)
        assert caterpillar._common_neighbours(g, every, words) == g.degrees.tolist()


# tracemalloc peak of the call in test_packed_witness_search_peak_memory,
# measured at 5.10 MB with the rows packed 512 at a time: 2.1 MB of packed
# rows, a 2.1 MB bool scratch and blocks of 256 KB (it was 21.2 MB with one
# scratch for all 4096 rows); the bound is that value plus 0.5 MB
PACKED_BLOCK_PEAK_BYTES = 5_600_000


def test_packed_rows_built_by_block_peak_memory():
    import tracemalloc

    from catdks.models import gen_gnp

    g = gen_gnp(4096, 4096 ** (-1 / 3), 0)
    sched = build_schedule(2, 3)
    max_witness_count(g, sched, 50, seed=1)      # warm imports and caches
    tracemalloc.start()
    try:
        got = max_witness_count(g, sched, 10 ** 4, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ((1752, 1784, 1626), 6)
    assert peak <= PACKED_BLOCK_PEAK_BYTES


# tracemalloc peak of the call in test_packed_witness_search_peak_memory,
# measured at 2.97 MB with the rows packed by one scatter-add over parts of
# 8,192 edges: 2.1 MB of packed rows, 64 KiB keys and blocks of 256 KB (it
# was 5.10 MB with a block of rows at a time through a 2.1 MB bool scratch);
# the bound is that value plus 0.5 MB
PACKED_SCATTER_PEAK_BYTES = 3_500_000


def test_packed_rows_scatter_added_peak_memory():
    import tracemalloc

    from catdks.models import gen_gnp

    g = gen_gnp(4096, 4096 ** (-1 / 3), 0)
    sched = build_schedule(2, 3)
    max_witness_count(g, sched, 50, seed=1)      # warm imports and caches
    tracemalloc.start()
    try:
        got = max_witness_count(g, sched, 10 ** 4, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ((1752, 1784, 1626), 6)
    assert peak <= PACKED_SCATTER_PEAK_BYTES


def test_walk_step_parts_match_one_pass():
    # a step reads the CSR rows of its pairs in parts that fit _CELLS; parts
    # of one pair, and of a few pairs that cut rows apart, give the same
    # mask as one part, for a block of unequal rows and for a block of
    # cluster rows
    from unittest import mock

    from catdks import caterpillar

    rng = np.random.default_rng(3)
    uv = rng.integers(0, 40, size=(200, 2))
    g = Graph.from_edges(40, uv[uv[:, 0] != uv[:, 1]])
    row = np.repeat(np.arange(3), [40, 7, 12])
    vert = np.concatenate([np.arange(40), np.sort(rng.choice(40, 7, replace=False)),
                           np.sort(rng.choice(40, 12, replace=False))])
    clusters = rng.integers(0, 40, size=(5, 2))
    blocks = [(row, vert, 3), (np.repeat(np.arange(5), 2), clusters.ravel(), 5)]
    want = [walk_step(g, *block) for block in blocks]
    assert all(len(v) * g.max_degree() <= caterpillar._CELLS for _, v, _ in blocks)
    assert want[0].sum() > len(vert)
    for (r, v, B), mask in zip(blocks, want):           # Gamma of each row's set
        ref = np.zeros((B, g.n), dtype=bool)
        for i, x in zip(r.tolist(), v.tolist()):
            ref[i, g.rows(np.array([x]))[1]] = True
        assert mask.tolist() == ref.ravel().tolist()
    for cells in (1, 3 * g.max_degree()):
        with mock.patch.object(caterpillar, "_CELLS", cells):
            got = [walk_step(g, *block) for block in blocks]
        for mask, wmask in zip(got, want):
            assert mask.tolist() == wmask.tolist()
