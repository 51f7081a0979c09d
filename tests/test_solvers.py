import dataclasses
import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest

from catdks import solvers
from catdks.caterpillar import HAIR, build_schedule
from catdks.graphs import (Graph, SolveResult, brute_force_dks, density_report, load_graph,
                           save_graph)
from catdks.models import gen_gnp, plant
from catdks.reductions import bipartite_double_cover
from catdks.solvers import (SolverConfig, _branch_best, _halves, _local_block,
                            approximate, dks_cat_combinatorial, dks_exp, dks_local,
                            resize_to_k)
from test_graphs import neighborhood


def clique(k, n=None):
    n = n or k
    return Graph.from_edges(n, combinations(range(k), 2))


def random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    edges = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2))
             if a != b}
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# dks_local


def test_local_star_trace():
    # S = {0} with three neighbors: the k'=3 candidate is the full star
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
    res = dks_local(g, [0], 3)
    assert res.vertices == (0, 1, 2, 3)
    assert res.density == pytest.approx(1.5)


def test_local_no_neighbors():
    g = Graph.from_edges(3, [(1, 2)])
    res = dks_local(g, [0], 2)
    assert res.density == 0.0 and res.vertices == (0,)


def test_local_prefers_dense_pairing():
    # two S-vertices, one shared heavy neighbor set: picks the dense side
    g = Graph.from_edges(8, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
                             (5, 6)])
    res = dks_local(g, [0, 1], 3)
    assert set(res.vertices) == {0, 1, 2, 3, 4}


def test_local_density_is_true_max_over_candidates():
    # recompute: returned bipartite metric never below any single k' candidate
    for seed in range(10):
        g = random_graph(20, 50, seed)
        S = [0, 1, 2, 3]
        k = 6
        res = dks_local(g, S, k)
        adj = g.adj
        gamma = sorted(set().union(*[adj[v] for v in S]))
        if not gamma:
            continue
        deg_into = {j: len(adj[j] & set(S)) for j in gamma}
        order = sorted(gamma, key=lambda j: (-deg_into[j], j))
        best_avg = 0.0
        for kp in range(1, k + 1):
            T = order[:kp]
            cnt = {v: len(adj[v] & set(T)) for v in S}
            m = min(kp, len(S))
            chosen = sorted(S, key=lambda v: (-cnt[v], v))[:m]
            e = sum(cnt[v] for v in chosen)
            best_avg = max(best_avg, 2 * e / (m + len(T)))
        got = density_report(g, res.vertices).average_degree
        # the winning candidate's bipartite average is a lower bound on the
        # induced average degree of the returned vertex set
        assert got >= best_avg - 1e-9


def test_local_ties_go_to_the_smallest_k():
    # S is every vertex, so Gamma(S) meets S: k' = 2 pairs T = (0, 1) with
    # S's members 2, 3 and k' = 3 pairs T = (0, 1, 2) with 0, 1, 2, both at
    # bipartite average 2.0. The smaller k' wins, though its set is larger.
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4), (3, 4)])
    res = dks_local(g, range(5), 3)
    assert (res.vertices, res.density) == ((0, 1, 2, 3), 2.5)


def test_local_rejects_empty_s():
    with pytest.raises(ValueError):
        dks_local(clique(3), [], 2)


# (random_graph args, S, k, universe, vertices, density), recorded from the
# per-k' loop version. Covers S meeting Gamma(S), a universe (one equal to S),
# k > |Gamma(S)|, k < |S| and a four-way tie in the bipartite average.
LOCAL_GOLDEN = [
    ((12, 30, 0), (0, 1, 2, 3), 5, None, (0, 1, 2, 3, 6, 9, 10), 2.2857142857142856),
    ((12, 30, 1), (0, 1, 2, 3, 4, 5), 3, None, (0, 1, 3, 5, 9), 2.8),
    ((10, 12, 2), (0, 1), 20, None, (0, 1, 2, 4, 8, 9), 2.0),
    ((15, 40, 3), (2, 4, 6, 8), 6, (1, 3, 5, 7, 9, 11, 13), (2, 3, 4, 8, 9, 11), 2.6666666666666665),
    ((15, 40, 4), (0, 5, 10), 4, (0, 2, 4, 6, 8, 10, 12, 14), (4, 5, 10, 14), 2.0),
    ((20, 60, 5), (0, 1, 2, 3, 4, 5, 6, 7), 5, None, (0, 1, 2, 3, 4, 6, 13, 15, 17, 19), 3.8),
    ((8, 28, 6), (0, 1, 2), 6, None, (0, 1, 2, 4, 5, 6), 4.0),
    ((20, 50, 8), (1, 2, 3, 4, 5, 6, 7), 10, (10, 11, 12, 13, 14, 15, 16, 17, 18, 19), (1, 2, 3, 4, 5, 6, 7, 10, 12, 14, 16, 17, 18, 19), 3.5714285714285716),
    ((25, 80, 9), (0, 3, 7, 11, 19), 12, None, (0, 1, 2, 3, 7, 8, 10, 11, 14, 16, 19), 2.727272727272727),
    ((14, 22, 20), (0, 1, 2, 3), 6, None, (0, 1, 3, 7, 12), 2.4),
    ((12, 30, 0), (0, 1, 2, 3), 5, (0, 1, 2, 3), (0, 1, 3), 1.3333333333333333),
]

# ((n, edges), S, k, vertices, density): a perfect matching (every k' ties),
# equal counts in S (the smaller id wins), and an S with no neighbours
LOCAL_GOLDEN_SMALL = [
    ((6, ((0, 3), (1, 4), (2, 5))), (0, 1, 2), 3, (0, 3), 1.0),
    ((3, ((0, 2), (1, 2))), (0, 1), 1, (0, 2), 1.0),
    ((3, ((0, 2), (1, 2))), (0, 1), 2, (0, 1, 2), 1.3333333333333333),
    ((5, ((1, 2),)), (0,), 2, (0,), 0.0),
]


@pytest.mark.parametrize("spec,S,k,universe,vertices,density", LOCAL_GOLDEN)
def test_local_golden(spec, S, k, universe, vertices, density):
    uni = None if universe is None else set(universe)
    res = dks_local(random_graph(*spec), S, k, universe=uni)
    assert (res.vertices, res.density, res.provenance) == (vertices, density, "local")


@pytest.mark.parametrize("graph,S,k,vertices,density", LOCAL_GOLDEN_SMALL)
def test_local_golden_small(graph, S, k, vertices, density):
    res = dks_local(Graph.from_edges(*graph), S, k)
    assert (res.vertices, res.density, res.provenance) == (vertices, density, "local")


def test_local_block_matches_single_calls():
    # every golden set as a row of one block per k (a block shares its k):
    # ties, an empty Gamma(S) and universes side by side. Rows live on a
    # disjoint union of the golden graphs, so each row's set and universe are
    # shifted into its part. Each block is scored whole, then cut into parts
    # of about two rows and of one row by a smaller _CELLS.
    cases = [(random_graph(*spec), S, k, universe)
             for spec, S, k, universe, _, _ in LOCAL_GOLDEN]
    cases += [(Graph.from_edges(*graph), S, k, None)
              for graph, S, k, _, _ in LOCAL_GOLDEN_SMALL]
    for k in sorted({case[2] for case in cases}):
        parts = [c for c in cases if c[2] == k]
        offsets = np.cumsum([0] + [g.n for g, *_ in parts])
        union = Graph.from_edges(offsets[-1], np.concatenate(
            [g.edge_array + off for (g, *_), off in zip(parts, offsets)]))
        row = np.concatenate([np.full(len(S), r) for r, (_, S, _, _) in enumerate(parts)])
        verts = np.concatenate([np.array(S) + off for (_, S, _, _), off in zip(parts, offsets)])
        # a part without a universe takes its whole part of the union
        uni = [np.arange(g.n) if u is None else np.array(sorted(u))
               for g, _, _, u in parts]
        urow = np.concatenate([np.full(len(u), r) for r, u in enumerate(uni)])
        uvert = np.concatenate([u + off for u, off in zip(uni, offsets)])
        for cells in (solvers._CELLS, 2 * union.n, 1):
            with mock.patch.object(solvers, "_CELLS", cells):
                wrow, wv, dens = _local_block(union, row, verts, len(parts), k,
                                              urow * union.n + uvert)
            for r, (g, S, _, u) in enumerate(parts):
                single = dks_local(g, S, k, universe=u)
                assert tuple((wv[wrow == r] - offsets[r]).tolist()) == single.vertices
                assert dens[r] == single.density


def test_halves_shortcut_matches_counted_density():
    # on a double cover the winner's density is read off its bipartite score;
    # shifted by +1 into 2n + 1 vertices the halves check fails and the
    # induced edges are counted. The shift keeps id order, so ties fall alike.
    assert _halves(Graph.from_edges(4, [(0, 2), (1, 3)]))
    assert not _halves(Graph.from_edges(4, [(0, 1), (0, 3)]))   # (0, 1) in one half
    for seed in range(4):
        g = random_graph(30, 70, seed)
        g = Graph.from_edges(g.n, np.concatenate([g.edge_array, [[0, g.n - 1]]]))
        cover = bipartite_double_cover(g)
        shifted = Graph.from_edges(cover.n + 1, cover.edge_array + 1)
        assert _halves(cover) and not _halves(shifted)
        rng = np.random.default_rng(seed)
        sets = [rng.choice(g.n, 5, replace=False),           # in copy one
                rng.choice(g.n, 5, replace=False) + g.n,     # in copy two
                rng.choice(cover.n, 8, replace=False)]       # in both
        for S in sets:
            for k in (3, 10):
                a, b = dks_local(cover, S, k), dks_local(shifted, S + 1, k)
                assert b.vertices == tuple(v + 1 for v in a.vertices)
                assert b.density == a.density
        a = dks_cat_combinatorial(cover, 12, 1, 2, 50, seed)
        b = dks_cat_combinatorial(shifted, 12, 1, 2, 50, seed)
        assert (b.vertices, b.density) == (tuple(v + 1 for v in a.vertices), a.density)


# ---------------------------------------------------------------------------
# dks_cat_combinatorial


def test_cat_finds_planted_clique():
    for (r, s) in [(1, 2), (2, 3)]:
        g = clique(6, n=16)
        res = dks_cat_combinatorial(g, 6, r, s, leaf_budget=4000, seed=0)
        assert res.density >= 3  # >= k/2
        opt = brute_force_dks(g, 6)
        assert res.density <= opt.density + 1e-9


def test_cat_empty_branches_no_crash():
    g = Graph.from_edges(10, [(0, 1)])
    res = dks_cat_combinatorial(g, 4, 1, 2, leaf_budget=500, seed=0)
    assert len(res.vertices) == 4


def test_cat_edgeless():
    g = Graph.from_edges(6, [])
    res = dks_cat_combinatorial(g, 3, 1, 2, leaf_budget=10, seed=0)
    assert res.density == 0.0 and len(res.vertices) == 3


def test_exp_edgeless():
    res = dks_exp(Graph(8, []), 3, 0.25, 100, cluster_size=2)
    assert res == SolveResult(vertices=(0, 1, 2), density=0.0, provenance="edgeless")


def test_cat_deterministic():
    g = random_graph(25, 80, 3)
    a = dks_cat_combinatorial(g, 6, 2, 3, leaf_budget=100, seed=7)
    b = dks_cat_combinatorial(g, 6, 2, 3, leaf_budget=100, seed=7)
    assert a == b


def test_cat_exact_size():
    for seed in range(8):
        g = random_graph(18, 40, seed)
        res = dks_cat_combinatorial(g, 7, 1, 2, leaf_budget=2000, seed=seed)
        assert len(res.vertices) == 7


# ---------------------------------------------------------------------------
# golden outputs: exact results of the branch search, in both the enumerate
# regime (branch space <= budget) and the sampled regime


# ((n, m, graph seed, k, r, s, leaf_budget, seed), vertices, density, provenance)
CAT_GOLDEN = [
    ((8, 14, 0, 3, 1, 2, 100, 0), (0, 4, 5), 2.0, 'caterpillar(r=1,s=2)'),  # enumerate
    ((9, 16, 1, 4, 1, 2, 100, 1), (2, 3, 4, 7), 2.0, 'caterpillar(r=1,s=2)'),  # enumerate
    ((10, 18, 2, 4, 2, 3, 2000, 2), (0, 4, 7, 8), 2.5, 'caterpillar(r=2,s=3)'),  # enumerate
    ((8, 20, 3, 5, 2, 3, 1000, 3), (1, 2, 4, 5, 6), 2.8, 'caterpillar(r=2,s=3)'),  # enumerate
    ((7, 12, 4, 3, 1, 3, 500, 4), (3, 4, 6), 2.0, 'caterpillar(r=1,s=3)'),  # enumerate
    ((9, 14, 5, 3, 3, 4, 20000, 5), (2, 3, 5), 2.0, 'caterpillar(r=3,s=4)'),  # enumerate
    ((20, 50, 6, 6, 1, 2, 40, 6), (2, 9, 11, 15, 16, 17), 2.6666666666666665, 'caterpillar(r=1,s=2)'),  # sampled
    ((25, 80, 7, 6, 2, 3, 30, 7), (0, 11, 12, 20, 22, 24), 3.3333333333333335, 'caterpillar(r=2,s=3)'),  # sampled
    ((30, 90, 8, 7, 1, 3, 25, 8), (4, 5, 9, 11, 13, 14, 16), 3.7142857142857144, 'caterpillar(r=1,s=3)'),  # sampled
    ((22, 60, 9, 5, 3, 4, 20, 9), (4, 13, 15, 19, 20), 2.8, 'caterpillar(r=3,s=4)'),  # sampled
    ((18, 70, 10, 8, 2, 5, 35, 10), (1, 2, 9, 10, 13, 14, 15, 17), 4.75, 'caterpillar(r=2,s=5)'),  # sampled
    ((16, 30, 11, 4, 1, 2, 300, 11), (2, 7, 8, 13), 3.0, 'caterpillar(r=1,s=2)'),  # enumerate
]


# ((n, m, graph seed, k, eps, cluster_budget, seed), vertices, density, provenance)
EXP_GOLDEN = [
    ((6, 9, 20, 3, 0.25, 4000, 0), (1, 3, 5), 2.0, 'cluster-local@t=3'),  # enumerate
    ((7, 10, 21, 4, 0.1, 10000, 1), (0, 2, 4, 6), 2.0, 'local@t=2'),  # enumerate
    ((8, 14, 20, 3, 0.25, 2000, 0), (2, 5, 7), 2.0, 'local@t=2'),  # sampled
    ((24, 60, 22, 5, 0.25, 40, 2), (8, 10, 16, 19, 22), 2.8, 'local@t=2'),  # sampled
    ((30, 90, 23, 6, 0.3, 30, 3), (0, 2, 11, 13, 25, 28), 3.0, 'local@t=3'),  # sampled
]


# ((n, p, graph seed, r, s), vertices, density, provenance) of
# dks_cat_combinatorial(bipartite_double_cover(gen_gnp(n, p, graph seed)), 40,
# r, s, 150, 7): sampled branches with backbone steps on graphs of 600 and
# 800 vertices, well past the goldens above
CAT_SCALE_GOLDEN = [
    ((300, 0.1, 0, 1, 3),
     (16, 42, 49, 73, 77, 85, 123, 143, 146, 154, 155, 184, 194, 200, 223, 229, 263, 266,
      272, 306, 319, 320, 322, 330, 347, 363, 368, 412, 417, 428, 450, 451, 460, 470, 473,
      527, 538, 544, 554, 567),
     6.45, 'caterpillar(r=1,s=3)'),
    ((300, 0.1, 0, 2, 5),
     (4, 6, 8, 22, 47, 48, 90, 95, 128, 132, 150, 151, 170, 212, 238, 243, 254, 267, 333,
      390, 406, 414, 423, 437, 442, 471, 487, 494, 496, 523, 525, 527, 529, 547, 552, 561,
      566, 578, 583, 592),
     6.75, 'caterpillar(r=2,s=5)'),
    ((300, 0.1, 0, 1, 4),
     (16, 42, 49, 73, 77, 85, 123, 143, 146, 154, 155, 184, 194, 200, 223, 229, 263, 266,
      272, 306, 319, 320, 322, 330, 347, 363, 368, 412, 417, 428, 450, 451, 460, 470, 473,
      527, 538, 544, 554, 567),
     6.45, 'caterpillar(r=1,s=4)'),
    ((300, 0.1, 0, 3, 4),
     (5, 16, 36, 50, 73, 81, 87, 102, 113, 127, 138, 145, 146, 154, 160, 161, 223, 225,
      268, 307, 308, 320, 347, 348, 383, 388, 412, 450, 460, 483, 486, 496, 499, 500, 525,
      538, 558, 563, 587, 597),
     6.75, 'caterpillar(r=3,s=4)'),
    ((400, 0.05, 1, 1, 3),
     (25, 110, 112, 125, 147, 169, 188, 210, 215, 219, 240, 244, 264, 286, 335, 338, 350,
      383, 390, 432, 449, 461, 463, 474, 481, 486, 490, 561, 568, 613, 630, 631, 642, 647,
      678, 693, 696, 717, 718, 761),
     5.6, 'caterpillar(r=1,s=3)'),
    ((400, 0.05, 1, 2, 5),
     (0, 28, 32, 50, 91, 98, 100, 125, 158, 159, 240, 278, 290, 299, 317, 338, 350, 393,
      407, 432, 455, 462, 472, 478, 491, 494, 509, 510, 544, 561, 568, 577, 605, 630, 640,
      664, 687, 692, 729, 748),
     5.15, 'caterpillar(r=2,s=5)'),
    ((400, 0.05, 1, 1, 4),
     (25, 110, 112, 125, 147, 169, 188, 210, 215, 219, 240, 244, 264, 286, 335, 338, 350,
      383, 390, 432, 449, 461, 463, 474, 481, 486, 490, 561, 568, 613, 630, 631, 642, 647,
      678, 693, 696, 717, 718, 761),
     5.6, 'caterpillar(r=1,s=4)'),
    ((400, 0.05, 1, 3, 4),
     (8, 33, 60, 74, 97, 100, 138, 144, 154, 170, 210, 223, 274, 290, 315, 333, 354, 373,
      384, 397, 423, 436, 444, 450, 464, 489, 490, 497, 520, 544, 548, 553, 584, 670, 690,
      706, 711, 712, 717, 786),
     5.05, 'caterpillar(r=3,s=4)'),
]


@pytest.mark.parametrize("params,vertices,density,provenance", CAT_SCALE_GOLDEN)
def test_cat_golden_at_scale(params, vertices, density, provenance):
    n, p, gseed, r, s = params
    cover = bipartite_double_cover(gen_gnp(n, p, gseed))
    res = dks_cat_combinatorial(cover, 40, r, s, 150, 7)
    assert (res.vertices, res.density, res.provenance) == \
        (vertices, density, provenance)


def reference_branch_best(g, k, sched, budget, seed, cluster_size=1,
                          cluster_local=False):
    """Reference: the branch search as a recursive walk of one branch at a
    time, one dks_local call per candidate, folded in depth-first pre-order."""
    cands = np.flatnonzero(g.degrees).tolist()
    if not cands:
        return None
    n_hairs = sched.num_leaves
    best = None

    def fold(cand):
        nonlocal best
        if best is None or cand.rank() < best.rank():
            best = cand

    def walk(t, current, hairs):
        if t > 1:
            fold(dataclasses.replace(dks_local(g, current, k), provenance=f"local@t={t}"))
        if sched.steps[t - 1] == HAIR:
            for J in hairs[0]:
                nxt = sorted(set(neighborhood(g, J)).intersection(current))
                if cluster_local and nxt:
                    fold(dataclasses.replace(dks_local(g, J, k, universe=set(nxt) | set(J)),
                                             provenance=f"cluster-local@t={t}"))
                if nxt and t < sched.s:
                    walk(t + 1, nxt, hairs[1:])
        else:
            nxt = neighborhood(g, current)
            if nxt and t < sched.s:
                walk(t + 1, nxt, hairs)

    everyone = list(range(g.n))
    if math.comb(len(cands), cluster_size) ** n_hairs <= budget:
        walk(1, everyone, [list(combinations(cands, cluster_size))] * n_hairs)
    else:
        rng = np.random.default_rng(seed)

        def draw():
            pick = rng.choice(len(cands), size=cluster_size, replace=False)
            return tuple(sorted(cands[i] for i in pick))

        for _ in range(budget):
            walk(1, everyone, [[draw()] for _ in range(n_hairs)])
    return best


def test_branch_best_matches_reference_at_solve_planted_scale():
    # the solve-planted shape: the double cover of a planted instance, k=32
    # (64 on the cover), 300 sampled branches under the (1,2) schedule
    cover = bipartite_double_cover(plant(1000, 0.5, 32, 0.8, seed=5).graph)
    sched = build_schedule(1, 2)
    got = _branch_best(cover, 64, sched, 300, seed=3)
    assert got == reference_branch_best(cover, 64, sched, 300, seed=3)


def test_branch_best_scores_each_distinct_branch_once():
    # (1,2) scores one step per block, and no S(1) = Gamma(leaf) is empty, so
    # the scorer's rows are the branches it walks: 120 leaves drawn from about
    # 40 candidates repeat, and each distinct one must be scored once
    g = random_graph(40, 80, 11)
    sched = build_schedule(1, 2)
    cands = np.flatnonzero(g.degrees)
    rng = np.random.default_rng(5)                      # the reference's draws
    draws = [rng.choice(len(cands), size=1, replace=False)[0]
             for _ in range(120 * sched.num_leaves)]
    leaves = set(cands[draws[::sched.num_leaves]].tolist())  # each branch's first leaf
    assert len(cands) ** sched.num_leaves > 120          # sampled, not enumerated
    with mock.patch.object(solvers, "_local_block", wraps=solvers._local_block) as spy:
        got = _branch_best(g, 6, sched, 120, 5)
    scored = sum(call.args[3] for call in spy.call_args_list)
    assert scored == len(leaves) < 120
    assert got == reference_branch_best(g, 6, sched, 120, 5)


# tracemalloc peak of the call below: 25.3 MB when a backbone step read the
# CSR rows of its whole block at once, about 4.3 MB when it reads them in
# parts that fit _CELLS
BACKBONE_PEAK_BYTES = 8 << 20


def test_backbone_step_peak_memory():
    # (1,3) walks hair, backbone, hair: the 60 branches share one block, and
    # the backbone step expands each row's S(1), about 120 vertices of
    # degree about 120, some 860k CSR entries in all
    import tracemalloc

    cover = bipartite_double_cover(gen_gnp(400, 0.3, 0))
    sched = build_schedule(1, 3)
    _branch_best(cover, 64, sched, 1, 0)            # warm imports and caches
    tracemalloc.start()
    try:
        got = _branch_best(cover, 64, sched, 60, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == reference_branch_best(cover, 64, sched, 60, 0)
    assert (got.density, got.provenance) == (27.671875, "local@t=3")
    assert peak <= BACKBONE_PEAK_BYTES


def test_branch_best_tie_keeps_local_before_cluster_local():
    # k=1: one sampled branch's local@t=3 and cluster-local@t=3 candidates are
    # the same edge (0, 2); depth-first pre-order meets the local one first
    g = Graph.from_edges(6, [(0, 2), (1, 3), (2, 3), (2, 5), (1, 4), (4, 5)])
    sched = build_schedule(2, 3)
    got = _branch_best(g, 1, sched, 30, 0, cluster_size=2)
    assert got == reference_branch_best(g, 1, sched, 30, 0, 2, cluster_local=True)
    assert (got.vertices, got.provenance) == ((0, 2), "local@t=3")


def test_exp_rejects_bad_cluster_size():
    k5 = clique(5, n=8)
    for size in (0, -1, 6):
        with pytest.raises(ValueError, match="cluster_size"):
            dks_exp(k5, 3, 0.25, 100, cluster_size=size)
    assert dks_exp(k5, 3, 0.25, 100, cluster_size=5).density == 2.0


def test_exp_derived_cluster_size_capped_at_non_isolated():
    # n = k = 5 derives C = 5, one more than the non-isolated vertices; capped
    # at 4 it finds the optimum instead of rejecting a C the caller never passed
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 2)])
    res = dks_exp(g, 5, 0.25, 100)
    assert (res.vertices, res.density) == ((0, 1, 2, 3, 4), 1.6)
    assert res.density == brute_force_dks(g, 5).density
    with pytest.raises(ValueError, match="cluster_size 5 exceeds the 4 non-isolated"):
        dks_exp(g, 5, 0.25, 100, cluster_size=5)


@pytest.mark.parametrize("params,vertices,density,provenance", CAT_GOLDEN)
def test_cat_golden(params, vertices, density, provenance):
    n, m, gseed, k, r, s, budget, seed = params
    res = dks_cat_combinatorial(random_graph(n, m, gseed), k, r, s, budget, seed)
    assert (res.vertices, res.density, res.provenance) == \
        (vertices, density, provenance)


@pytest.mark.parametrize("params,vertices,density,provenance", EXP_GOLDEN)
def test_exp_cluster_golden(params, vertices, density, provenance):
    n, m, gseed, k, eps, budget, seed = params
    res = dks_exp(random_graph(n, m, gseed), k, eps, budget, seed=seed,
                  cluster_size=2)
    assert (res.vertices, res.density, res.provenance) == \
        (vertices, density, provenance)


# ---------------------------------------------------------------------------
# dks_exp


def test_exp_c1_matches_combinatorial():
    for seed in range(50):
        g = random_graph(16, 30, seed)
        if g.m == 0:
            continue
        # eps tiny so the derived cluster size rounds to 1
        a = dks_exp(g, 4, 0.01, 300, seed=seed)
        beta = math.log(4) / math.log(16)
        alpha = 1 - beta
        from catdks.caterpillar import choose_rs
        r, s = choose_rs(min(alpha + 2 * beta * 0.01, 0.999), 5)
        b = dks_cat_combinatorial(g, 4, r, s, 300, seed=seed)
        assert a == b


def test_exp_cluster_recovers_planted_clique():
    ok = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        noise = {(int(a), int(b)) for a, b in rng.integers(0, 40, size=(40, 2))
                 if a != b}
        g = Graph.from_edges(40, set(combinations(range(8), 2)) | noise)
        res = dks_exp(g, 8, 0.25, 400, seed=seed, cluster_size=2)
        ok += res.density >= 3.5
    assert ok >= 8


def test_exp_cluster_returns_exactly_k():
    # the cluster pass's best set is the triangle, 3 < k vertices; padded to
    # k = 8 it reaches the optimum, as the C = 1 path does
    g = Graph.from_edges(12, [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6), (7, 8)])
    res = dks_exp(g, 8, 0.25, 400, seed=1, cluster_size=2)
    assert len(res.vertices) == 8
    assert res.density == brute_force_dks(g, 8).density == 1.25
    for seed in range(20):
        g = random_graph(16, 20, seed)
        res = dks_exp(g, 6, 0.25, 100, seed=seed, cluster_size=2)
        assert len(res.vertices) == 6
        assert res.density == density_report(g, res.vertices).average_degree
    for size in (1, 2):
        with pytest.raises(ValueError, match=r"k=17 is not an integer in \[1, 16\]"):
            dks_exp(g, 17, 0.25, 100, cluster_size=size)
    with pytest.raises(ValueError, match=r"k=6 is not an integer in \[1, 5\]"):
        dks_exp(Graph(5, []), 6, 0.25, 100)


def test_exp_validates():
    with pytest.raises(ValueError):
        dks_exp(clique(6), 3, 0.9, 100)


# ---------------------------------------------------------------------------
# resize / approximate driver


def test_resize_pads_by_fringe():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    out = resize_to_k(g, [0, 1], 3)
    assert out == (0, 1, 2)
    # ties go to the smaller id; with no fringe left, the first vertex outside
    g = Graph.from_edges(10, [(0, 1), (1, 2), (0, 3), (4, 5)])
    assert resize_to_k(g, [0], 7) == (0, 1, 2, 3, 4, 5, 6)
    ring = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
    assert resize_to_k(ring, [0, 4], 6) == (0, 1, 2, 3, 4, 5)


def test_resize_prunes_lowest_degree():
    g = clique(4, n=6)
    out = resize_to_k(g, [0, 1, 2, 3, 4], 4)
    assert out == (0, 1, 2, 3)
    ring = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
    assert resize_to_k(ring, range(8), 5) == (3, 4, 5, 6, 7)
    for k in (-1, 7):
        with pytest.raises(ValueError, match=rf"k={k} is not an integer in \[0, 6\]"):
            resize_to_k(g, [0, 1], k)


# (random_graph args, s, k, resized), recorded from the set-based version
RESIZE_GOLDEN = [
    ((20, 40, 0), (0, 1), 8, (0, 1, 2, 5, 7, 10, 12, 17)),
    ((16, 24, 5), (3,), 6, (0, 2, 3, 10, 12, 15)),
    ((12, 40, 3), (0, 4, 5, 9, 10, 11), 3, (0, 10, 11)),
    ((30, 20, 2), (0, 1, 2), 9, (0, 1, 2, 5, 13, 20, 26, 28, 29)),
]


@pytest.mark.parametrize("spec,s,k,resized", RESIZE_GOLDEN)
def test_resize_to_k_golden(spec, s, k, resized):
    assert resize_to_k(random_graph(*spec), s, k) == resized


def test_approximate_whole_graph():
    g = random_graph(9, 16, 2)
    res = approximate(g, 9)
    assert res.vertices == tuple(range(9))
    assert res.provenance == "whole-graph"


def test_approximate_trivial_cases():
    g = Graph.from_edges(5, [])
    assert approximate(g, 3).density == 0.0
    # weighted with no edges: no bucket to solve
    assert approximate(Graph(3, [], []), 2) == \
        SolveResult(vertices=(0, 1), density=0.0, provenance="edgeless")
    g2 = clique(4)
    assert approximate(g2, 1).vertices == (0,)


def test_approximate_beats_gamma_and_one():
    for seed in range(10):
        g = random_graph(60, 300, seed)
        k = 10
        res = approximate(g, k)
        assert len(res.vertices) == k
        assert res.density >= 1.0  # >= k/2 edges exist in these instances
        assert res.gamma >= 1.0


def test_approximate_weighted_buckets():
    heavy = {(0, 1): 8.0, (0, 2): 8.0, (1, 2): 8.0}
    light = {(3, 4): 1.0, (4, 5): 1.0}
    g = Graph.from_edges(6, list(heavy) + list(light),
                         weights=list(heavy.values()) + list(light.values()))
    res = approximate(g, 3)
    assert set(res.vertices) == {0, 1, 2}
    assert res.provenance.startswith("bucket0")


def k6_plus_heavy_matching():
    """K6 with weight 1 on vertices 0-5 plus six disjoint edges of weight 1000."""
    weights = {e: 1.0 for e in combinations(range(6), 2)}
    weights.update({(6 + 2 * i, 7 + 2 * i): 1000.0 for i in range(6)})
    return Graph.from_edges(18, list(weights), weights=list(weights.values()))


def test_approximate_weighted_density_is_host_weighted_density():
    g = k6_plus_heavy_matching()
    res = approximate(g, 6)
    inside = set(res.vertices)
    w = sum(x for (u, v), x in zip(g.edge_array.tolist(), g.weight_array.tolist())
            if u in inside and v in inside)
    assert len(res.vertices) == 6
    assert res.density == pytest.approx(2 * w / 6)
    assert res.density >= 2 * 2000 / 6


@pytest.mark.parametrize("weighted", [False, True])
def test_approximate_leaves_tuple_views_unbuilt(tmp_path, weighted):
    # the solver path reads the stored arrays only: the frozenset of edge
    # tuples is never built
    path = tmp_path / "g.el"
    save_graph(k6_plus_heavy_matching() if weighted
               else plant(200, 0.5, 16, 0.8, seed=3).graph, path)
    g = load_graph(path)
    res = approximate(g, 6 if weighted else 16)
    assert len(res.vertices) == (6 if weighted else 16)
    assert "edges" not in g.__dict__


def test_approximate_oracle_ratio_smoke():
    # desk-scale sanity: never worse than brute force by more than n^(1/2)
    for seed in range(10):
        g = random_graph(12, 26, 100 + seed)
        k = 5
        opt = brute_force_dks(g, k)
        if opt.density == 0:
            continue
        res = approximate(g, k)
        assert res.density >= opt.density / (12 ** 0.5)


def test_approximate_deterministic():
    g = random_graph(40, 150, 9)
    cfg = SolverConfig(seed=4, leaf_budget=200)
    assert approximate(g, 8, cfg) == approximate(g, 8, cfg)


def test_approximate_keeps_the_earlier_of_tied_stages():
    # approximate returns the min of its stage list under SolveResult.rank:
    # equal ranks go to the earlier stage, whatever their provenance
    first = SolveResult(vertices=(0, 1), density=2.0, provenance="first")
    second = dataclasses.replace(first, provenance="second")
    denser = SolveResult(vertices=(2, 3, 4), density=3.0, provenance="denser")
    assert first.rank() == second.rank()
    for stages, want in (([first, second], first), ([second, first], second),
                         ([first, second, denser], denser)):
        with mock.patch.object(solvers, "_stages", return_value=stages):
            assert approximate(clique(5), 3) is want


def test_approximate_weighted_tie_goes_to_the_heavier_bucket():
    # both buckets answer (0, 1, 2), at 2 * (8 + 3) / 3 in the host graph;
    # the heaviest bucket is listed first, so it wins the tie
    g = Graph.from_edges(4, [(0, 1), (0, 2)], weights=[8.0, 3.0])
    assert [(s.vertices, s.provenance) for s in solvers._stages(g, 3, SolverConfig())] == \
        [((0, 1, 2), "bucket0:greedy"), ((0, 1, 2), "bucket1:greedy")]
    res = approximate(g, 3)
    assert (res.vertices, res.density, res.provenance) == ((0, 1, 2), 22 / 3, "bucket0:greedy")


# approximate's known worst case at desk scale: at k = 4 and seeds 0-2 it
# returns (0, 1, 2, 3) at density 1.0 from greedy (the caterpillar stage also
# finds 1.0, on (4, 5, 6, 8), and loses the tie on vertex order), where
# brute force finds (1, 4, 6, 8) at 2.5
WORST_CASE = Graph.from_edges(9, [(0, 2), (1, 4), (1, 6), (1, 7), (1, 8), (2, 3), (2, 5),
                                  (3, 5), (4, 6), (6, 8)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_approximate_known_worst_case(seed):
    opt = brute_force_dks(WORST_CASE, 4)
    assert (opt.vertices, opt.density) == ((1, 4, 6, 8), 2.5)
    # at least, not equal: a mend of the stages may do better
    assert approximate(WORST_CASE, 4, SolverConfig(seed=seed)).density >= 1.0


def test_approximate_caterpillar_stage_wins_a_tie_with_greedy():
    # The two stages tie under SolveResult.rank only on the same vertex set,
    # and no unweighted instance is known where they do (none in 24
    # plant(1000, .5, 32, .8) seeds at leaf budget 300, nor in G(n, p) at
    # n <= 40 with 3 <= k < n/2), so the rule is pinned on the stage list's
    # order, and on a forced tie: with solvers.resize_to_k answering the
    # first k vertices, both stages return the same set at the same density
    stages = solvers._stages(WORST_CASE, 4, SolverConfig())
    assert [s.provenance for s in stages] == ["caterpillar(r=1,s=3)", "greedy"]
    with mock.patch.object(solvers, "resize_to_k", lambda g, s, k: tuple(range(k))):
        res = approximate(WORST_CASE, 4)
    assert (res.vertices, res.provenance) == ((0, 1, 2, 3), "caterpillar(r=1,s=3)")


@pytest.mark.parametrize("N", [1, 2, 1968, 10**6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_integers_matches_single_choice_draws(N, seed):
    """_branch_best draws C = 1 branches with one rng.integers call where it
    once made one rng.choice(N, 1, replace=False) call per leaf. That the two
    give the same values and leave the generator in the same state rests on
    numpy internals (choice runs one Floyd step, the same bounded draw as
    integers); the seeded goldens rest on it, so a numpy upgrade that breaks
    it fails here, on the installed numpy."""
    M = 600
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    stacked = np.array([a.choice(N, 1, replace=False) for _ in range(M)])
    assert np.array_equal(b.integers(0, N, size=(M, 1)), stacked)
    assert a.bit_generator.state == b.bit_generator.state
