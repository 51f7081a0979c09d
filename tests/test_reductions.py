import math
from itertools import combinations

import numpy as np
import pytest

from catdks.graphs import Graph, brute_force_dks, density_report
from catdks.reductions import (GreedyResult, StallError, bipartite_double_cover,
                               collapse_double_cover, greedy_core, prune_to_size,
                               union_until_k, weight_buckets)


def clique(k, n=None):
    n = n or k
    return Graph.from_edges(n, combinations(range(k), 2))


def random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    edges = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2))
             if a != b}
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# greedy_core


def test_greedy_clique_plus_isolated():
    g = clique(6, n=20)
    res = greedy_core(g, 6)
    assert set(res.u) <= set(range(6))
    assert density_report(g, res.h_prime).average_degree >= 3  # Theta(k)


def test_weight_buckets_edgeless():
    # a graph with no edges carries no weights, so it has no buckets
    with pytest.raises(ValueError, match="requires a weighted graph"):
        weight_buckets(Graph(3, [], []))


def test_greedy_matching_fallback():
    g = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    res = greedy_core(g, 4)
    assert density_report(g, res.h_prime).average_degree >= 1


def test_greedy_invariants_random():
    for seed in range(15):
        g = random_graph(40, 120, seed)
        k = 8
        res = greedy_core(g, k)
        assert len(res.u) == (k + 1) // 2
        assert len(res.h_prime) <= k
        assert res.gamma >= 1
        assert res.g_prime.max_degree() <= res.cap_degree
        # U removed from g_prime
        assert set(res.g_prime_vertices).isdisjoint(res.u)
        assert set(res.h_prime) - set(res.u) == set(res.u_prime)
        # baseline density from the spec-level guarantee, measured constant 1/4
        dens = density_report(g, res.h_prime).average_degree
        assert dens >= max(res.cap_degree * k / g.n / 4, 1.0) or g.m < (k + 1) // 2


# (graph, k, (h_prime, u, u_prime, cap_degree, g_prime_vertices)), recorded
# from the set-based version. A graph is random_graph args or (n, edges); the
# 8-cycle ties every degree, and the last two take the matching fallback
GREEDY_GOLDEN = [
    ((20, 40, 0), 6, ((0, 6, 7, 10, 13), (0, 7, 10), (6, 13), 5.0,
                      (1, 2, 3, 4, 5, 6, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18, 19))),
    ((30, 60, 1), 7, ((1, 7, 8, 12, 15, 16, 20, 25), (8, 12, 15, 25), (1, 7, 16, 20), 5.0,
                      (0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 14, 16, 17, 18, 19, 20,
                       21, 22, 23, 24, 26, 27, 28, 29))),
    ((16, 24, 5), 5, ((0, 2, 10, 12, 15), (0, 2, 10), (12, 15), 4.0,
                      (1, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15))),
    ((12, 40, 3), 4, ((2, 3, 5, 7), (2, 3), (5, 7), 6.0,
                      (0, 1, 4, 5, 6, 7, 8, 9, 10, 11))),
    ((8, tuple((i, (i + 1) % 8) for i in range(8))), 4,
     ((0, 1), (0, 1), (), 2.0, (2, 3, 4, 5, 6, 7))),
    ((9, ((5, 6), (0, 3), (7, 8))), 7,
     ((0, 1, 3, 5, 6, 7, 8), (0, 3, 5, 6), (1, 7, 8), 1.0, (1, 2, 4, 7, 8))),
    ((8, ((0, 1), (2, 3), (4, 5), (6, 7))), 4,
     ((0, 1), (0, 1), (), 1.0, (2, 3, 4, 5, 6, 7))),
]


@pytest.mark.parametrize("graph,k,expected", GREEDY_GOLDEN)
def test_greedy_core_golden(graph, k, expected):
    g = random_graph(*graph) if len(graph) == 3 else Graph.from_edges(*graph)
    res = greedy_core(g, k)
    assert (res.h_prime, res.u, res.u_prime, res.cap_degree,
            res.g_prime_vertices) == expected


def test_greedy_k_out_of_range():
    with pytest.raises(ValueError):
        greedy_core(clique(4), 1)


# ---------------------------------------------------------------------------
# union_until_k


def test_union_two_cliques():
    edges = set(combinations(range(5), 2)) | set(combinations(range(5, 10), 2))
    g = Graph.from_edges(10, edges)

    def inner(cur):
        return brute_force_dks(cur, 5).vertices

    assert union_until_k(g, 10, inner) == tuple(range(10))


def test_union_progress_after_edge_removal():
    g = Graph.from_edges(7, set(combinations(range(3), 2)) | {(3, 4), (5, 6)})
    seen = []

    def inner(cur):
        v = brute_force_dks(cur, 3).vertices
        seen.append(v)
        return v

    out = union_until_k(g, 7, inner)
    assert len(out) == 7
    assert len(set(seen)) > 1  # the triangle cannot be returned forever


def test_union_stall_error():
    g = Graph.from_edges(4, [(0, 1)])
    with pytest.raises(StallError):
        union_until_k(g, 3, lambda cur: ())


def test_union_overshoot_prune():
    # inner returns 6 vertices at once; k=4 forces a prune back down
    g = clique(6)
    out = union_until_k(g, 4, lambda cur: tuple(range(6)))
    assert len(out) == 4
    pre = density_report(g, range(6)).average_degree
    assert density_report(g, out).average_degree >= pre / 2


def test_union_pads_when_out_of_edges():
    g = Graph.from_edges(6, [(0, 1)])
    out = union_until_k(g, 4, lambda cur: (0, 1))
    assert len(out) == 4 and {0, 1} <= set(out)


def test_union_pads_with_the_smallest_untouched_ids():
    # once no residual edge is left, every vertex outside the set is
    # isolated, so padding takes the smallest ids not yet in it
    assert union_until_k(Graph.from_edges(6, [(2, 3)]), 4, lambda cur: (2, 3)) == (0, 1, 2, 3)
    assert union_until_k(Graph.from_edges(6, []), 3, lambda cur: ()) == (0, 1, 2)


def test_prune_to_size_deterministic():
    g = clique(5, n=8)
    assert prune_to_size(g, range(8), 5) == (0, 1, 2, 3, 4)
    # every degree ties on the 8-cycle: the smallest id goes first
    ring = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
    assert prune_to_size(ring, range(8), 5) == (3, 4, 5, 6, 7)
    assert prune_to_size(ring, range(8), 3) == (5, 6, 7)


# (random_graph args, s, k, kept), recorded from the set-based version
PRUNE_GOLDEN = [
    ((20, 40, 0), tuple(range(20)), 7, (7, 10, 13, 14, 16, 17, 19)),
    ((16, 24, 5), (0, 2, 3, 5, 7, 8, 11, 13, 15), 4, (0, 2, 8, 15)),
    ((12, 40, 3), tuple(range(12)), 5, (2, 3, 5, 7, 8)),
]


@pytest.mark.parametrize("spec,s,k,kept", PRUNE_GOLDEN)
def test_prune_to_size_golden(spec, s, k, kept):
    assert prune_to_size(random_graph(*spec), s, k) == kept


# ---------------------------------------------------------------------------
# double cover


def test_cover_single_edge():
    g = Graph.from_edges(2, [(0, 1)])
    cov = bipartite_double_cover(g)
    assert cov.edges == frozenset({(0, 3), (1, 2)})
    # copy one is [0, n), copy two [n, 2n); every edge row (u, v) has u < n <= v
    assert cov.n == 4
    assert (cov.edge_array[:, 0] < 2).all() and (cov.edge_array[:, 1] >= 2).all()


def test_cover_triangle_is_c6():
    cov = bipartite_double_cover(clique(3))
    assert cov.m == 6
    assert all(d == 2 for d in cov.degrees)  # 6-cycle


def test_cover_clique_is_biclique_minus_matching():
    k = 5
    cov = bipartite_double_cover(clique(k))
    assert cov.m == k * (k - 1)
    for v in range(k):
        assert (v, v + k) not in cov.edges


def test_collapse():
    assert collapse_double_cover([0, 5], 5) == (0,)
    assert collapse_double_cover([0, 1, 7], 5) == (0, 1, 2)


def test_collapse_degree_never_drops():
    g = random_graph(9, 18, 4)
    cov = bipartite_double_cover(g)
    cov_set = tuple(range(2 * g.n))
    collapsed = collapse_double_cover(cov_set, g.n)
    cov_rep = density_report(cov, cov_set)
    col_rep = density_report(g, collapsed)
    assert col_rep.min_degree >= cov_rep.min_degree


def test_cover_density_dominates_brute():
    for seed in range(5):
        g = random_graph(8, 14, seed)
        if g.m == 0:
            continue
        base = brute_force_dks(g, 4).density
        cov = bipartite_double_cover(g)
        cov_best = brute_force_dks(cov, 8).density
        assert cov_best >= base - 1e-12


# ---------------------------------------------------------------------------
# weight buckets


def test_buckets_equal_weights():
    g = Graph.from_edges(4, [(0, 1), (2, 3)], weights=[2.0, 2.0])
    out = weight_buckets(g)
    assert len(out) == 1 and out[0].m == 2


def test_buckets_powers_of_two():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)],
                         weights=[4.0, 2.0, 1.0])
    out = weight_buckets(g)
    assert [b.m for b in out] == [1, 1, 1]
    assert (0, 1) in out[0].edges and (4, 5) in out[2].edges


def test_buckets_floor_drop():
    n = 10
    g = Graph.from_edges(n, [(0, 1), (2, 3)],
                         weights=[1.0, 1.0 / n ** 3])
    out = weight_buckets(g)
    assert sum(b.m for b in out) == 1


def test_buckets_requires_weights():
    with pytest.raises(ValueError):
        weight_buckets(Graph.from_edges(2, [(0, 1)]))


def test_bucket_count_bound():
    rng = np.random.default_rng(9)
    n = 32
    edges = list(combinations(range(n), 2))[:100]
    w = [float(10 ** rng.uniform(-3, 3)) for _ in edges]
    out = weight_buckets(Graph.from_edges(n, edges, weights=w))
    assert len(out) <= 2 * math.log2(n) + 1



def halving_loop_buckets(g):
    """Reference: weight_buckets as a per-edge halving loop over (edge, weight) pairs."""
    weights = list(zip(map(tuple, g.edge_array.tolist()), g.weight_array.tolist()))
    wmax = max(w for _, w in weights)
    floor = wmax / (g.n * g.n)
    n_buckets = int(2 * math.log2(g.n)) + 1 if g.n > 1 else 1
    buckets = [[] for _ in range(n_buckets)]
    for e, w in weights:
        if w <= floor * (1 - 1e-12):
            continue
        i = 0
        bound = wmax
        while w <= bound / 2 and i < n_buckets - 1:
            bound /= 2
            i += 1
        buckets[i].append(e)
    return [Graph.from_edges(g.n, b) for b in buckets if b]


@pytest.mark.parametrize("n,wmax", [(16, 1.0), (16, 1000.0), (12, 3.0),
                                    (12, 2.0 ** -1060)])
def test_buckets_match_halving_loop_at_boundaries(n, wmax):
    # every bucket bound wmax / 2^i (the floor wmax / n^2 is one of them when n
    # is a power of two) exactly, one ulp below and one ulp above; the floor
    # itself, one ulp either side of it, and half of it
    floor = wmax / (n * n)
    ws = [floor, math.nextafter(floor, 0), math.nextafter(floor, math.inf), floor / 2]
    bound = wmax
    for _ in range(int(2 * math.log2(n)) + 2):
        ws += [bound, math.nextafter(bound, 0), math.nextafter(bound, math.inf)]
        bound /= 2
    ws = [w for w in ws if 0 < w <= wmax]
    edges = list(combinations(range(n), 2))[:len(ws)]
    g = Graph.from_edges(n, edges, weights=ws)
    expected = halving_loop_buckets(g)
    assert len(expected) >= 2 * math.log2(n) - 1
    assert weight_buckets(g) == expected
