import math
from itertools import combinations

import numpy as np
import pytest

from catdks.graphs import (BudgetExceededError, Graph, GraphFormatError,
                           brute_force_dks, density_report, induced_subgraph,
                           load_graph, neighborhood, peel_to_min_degree, save_graph,
                           vertex_array, weighted_average_degree)
from catdks.reductions import prune_to_size
from catdks.solvers import dks_local, resize_to_k


def clique(k):
    return Graph.from_edges(k, combinations(range(k), 2))


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# construction / format


def test_load_basic(tmp_path):
    p = tmp_path / "g.el"
    p.write_text("3 2\n0 1\n1 2\n")
    g = load_graph(p)
    assert g.n == 3 and g.edges == frozenset({(0, 1), (1, 2)})


def test_load_self_loop_rejected(tmp_path):
    p = tmp_path / "g.el"
    p.write_text("2 1\n0 0\n")
    with pytest.raises(GraphFormatError):
        load_graph(p)


def test_load_dedup(tmp_path):
    p = tmp_path / "g.el"
    p.write_text("4 3\n0 1\n0 1\n2 3\n")
    assert load_graph(p).m == 2
    p.write_text("2 2\n0 1 5\n1 0 5.0\n")
    assert load_graph(p).weights == {(0, 1): 5.0}
    p.write_text("2 2\n0 1 5\n1 0 7\n")
    with pytest.raises(GraphFormatError, match="conflicting"):
        load_graph(p)


def test_load_comments_and_weights(tmp_path):
    p = tmp_path / "g.el"
    p.write_text("# header comment\n3 2\n0 1 2.5\n# mid comment\n1 2 0.5\n")
    g = load_graph(p)
    assert g.weights == {(0, 1): 2.5, (1, 2): 0.5}


def test_load_rejects_bad_weight_and_range(tmp_path):
    p = tmp_path / "g.el"
    p.write_text("3 1\n0 1 -2\n")
    with pytest.raises(GraphFormatError):
        load_graph(p)
    p.write_text("3 1\n0 5\n")
    with pytest.raises(GraphFormatError):
        load_graph(p)
    p.write_text("4 3\n0 1 inf\n1 2 1\n2 3 1\n")
    with pytest.raises(GraphFormatError, match="non-finite"):
        load_graph(p)


def test_save_load_round_trip(tmp_path):
    p = tmp_path / "g.el"
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)],
                         weights={(0, 1): 1.25, (1, 2): 2.0, (3, 4): 0.5})
    save_graph(g, p)
    back = load_graph(p)
    assert back.edges == g.edges and back.weights == g.weights
    g2 = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    save_graph(g2, p)
    assert load_graph(p).edges == g2.edges


def test_partial_weights_rejected():
    with pytest.raises(GraphFormatError):
        Graph.from_edges(3, [(0, 1), (1, 2)], weights={(0, 1): 1.0})


def test_bipartition_validation():
    with pytest.raises(GraphFormatError):
        Graph.from_edges(4, [(0, 1)], bipartition=[0, 1])
    g = Graph.from_edges(4, [(0, 2), (1, 3)], bipartition=[0, 1])
    assert g.bipartition == frozenset({0, 1})


# ---------------------------------------------------------------------------
# induced subgraph / neighborhood


def test_induced_triangle_edge():
    tri = clique(3)
    sub, mapping = induced_subgraph(tri, [0, 1])
    assert sub.m == 1 and mapping == (0, 1)


def test_induced_empty_set():
    sub, mapping = induced_subgraph(clique(4), [])
    assert sub.n == 0 and sub.m == 0 and mapping == ()


def test_induced_k4_triple():
    sub, _ = induced_subgraph(clique(4), [0, 1, 2])
    assert sub.m == 3


def test_neighborhood_star_and_path():
    star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    assert neighborhood(star, [0]) == (1, 2, 3, 4)
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert neighborhood(path, [0, 2]) == (1,)
    assert neighborhood(cycle(5), [0]) == (1, 4)


# every function that takes a vertex set rejects ids outside [0, n) instead of
# wrapping negative ids around or failing inside numpy
RANGE_CHECKED = [
    pytest.param(lambda g, v: density_report(g, [0, v]), id="density_report"),
    pytest.param(lambda g, v: weighted_average_degree(g, [v, 2]),
                 id="weighted_average_degree"),
    pytest.param(lambda g, v: neighborhood(g, [v]), id="neighborhood"),
    pytest.param(lambda g, v: peel_to_min_degree(g, [v, 0, 2], 1),
                 id="peel_to_min_degree"),
    pytest.param(lambda g, v: prune_to_size(g, [v, 0, 2], 2), id="prune_to_size"),
    pytest.param(lambda g, v: resize_to_k(g, [v], 2), id="resize_to_k"),
    pytest.param(lambda g, v: dks_local(g, [v], 2), id="dks_local"),
    pytest.param(lambda g, v: induced_subgraph(g, [0, v]), id="induced_subgraph"),
]


@pytest.mark.parametrize("bad", [-1, 4])
@pytest.mark.parametrize("call", RANGE_CHECKED)
def test_vertex_ids_range_checked(call, bad):
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match=rf"vertex {bad} out of range \[0,4\)"):
        call(path, bad)


@pytest.mark.parametrize("call", [density_report, weighted_average_degree])
def test_empty_vertex_set_rejected(call):
    with pytest.raises(ValueError, match="empty vertex set"):
        call(clique(3), [])


def test_neighborhood_monotone():
    rng = np.random.default_rng(7)
    g = Graph.from_edges(12, {(int(a), int(b)) for a, b in
                              rng.integers(0, 12, size=(30, 2)) if a != b})
    s = [1, 3]
    s2 = [1, 3, 5, 7]
    assert set(neighborhood(g, s)) <= set(neighborhood(g, s2))
    assert len(neighborhood(g, s2)) <= g.max_degree() * len(s2)


# ---------------------------------------------------------------------------
# density


def test_density_clique():
    rep = density_report(clique(6), range(6))
    assert rep.average_degree == 5
    assert rep.log_density == pytest.approx(math.log(5) / math.log(6))


def test_density_matching_log_zero():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    rep = density_report(g, range(6))
    assert rep.average_degree == 1.0 and rep.log_density == 0.0


def test_density_c5():
    rep = density_report(cycle(5), range(5))
    assert rep.average_degree == 2.0
    assert rep.log_density == pytest.approx(math.log(2) / math.log(5))


def test_density_exhaustive_small():
    # every n <= 5 graph: edge count agrees with direct recount
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
            g = Graph.from_edges(n, edges)
            rep = density_report(g, range(n))
            assert rep.edge_count == len(edges)
            assert rep.average_degree == pytest.approx(2 * len(edges) / n)
        if n >= 4:
            break  # 2^10 masks at n=5 is plenty; keep the sweep quick


# ---------------------------------------------------------------------------
# peeling


def test_peel_triangle_keeps_all():
    assert peel_to_min_degree(clique(3), range(3), 2) == (0, 1, 2)


def test_peel_star_to_empty():
    star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    assert peel_to_min_degree(star, range(6), 2) == ()


def test_peel_half_average_degree_nonempty():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = 12
        edges = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(25, 2))
                 if a != b}
        g = Graph.from_edges(n, edges)
        rep = density_report(g, range(n))
        if rep.average_degree == 0:
            continue
        out = peel_to_min_degree(g, range(n), rep.average_degree / 2)
        assert out, "peeling below half the average degree must keep something"
        assert density_report(g, out).min_degree >= rep.average_degree / 2
        assert peel_to_min_degree(g, out, rep.average_degree / 2) == out


# ---------------------------------------------------------------------------
# brute force oracle


def test_brute_k4_plus_isolated():
    g = Graph.from_edges(5, combinations(range(4), 2))
    res = brute_force_dks(g, 3)
    assert res.density == 2.0 and res.vertices == (0, 1, 2)


def test_brute_c6_path():
    res = brute_force_dks(cycle(6), 3)
    assert res.density == pytest.approx(4 / 3)  # best triple spans 2 edges
    assert res.vertices == (0, 1, 2)


def test_brute_planted_k4():
    rng = np.random.default_rng(3)
    noise = {(int(a), int(b)) for a, b in rng.integers(4, 12, size=(6, 2))
             if a != b}
    g = Graph.from_edges(12, set(combinations(range(4), 2)) | noise)
    assert brute_force_dks(g, 4).vertices == (0, 1, 2, 3)


def test_brute_dominates_any_subset():
    rng = np.random.default_rng(11)
    g = Graph.from_edges(10, {(int(a), int(b)) for a, b in
                              rng.integers(0, 10, size=(20, 2)) if a != b})
    best = brute_force_dks(g, 4)
    for combo in combinations(range(10), 4):
        assert best.density >= density_report(g, combo).average_degree


def test_brute_budget():
    with pytest.raises(BudgetExceededError):
        brute_force_dks(Graph.from_edges(30, [(0, 1)]), 15, budget=100)


def test_vertex_array():
    g = Graph.from_edges(4, [])
    assert vertex_array(g, [3, 1, 3, 2]).tolist() == [1, 2, 3]
    for bad in ([0, 4], [-1]):
        with pytest.raises(ValueError):
            vertex_array(g, bad)


# ---------------------------------------------------------------------------
# derived structures: golden values recorded from the set-based builds


def _random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    return Graph.from_edges(n, {(int(a), int(b)) for a, b in
                                rng.integers(0, n, size=(m, 2)) if a != b})


GRAPH_GOLDEN = [
    (lambda: _random_graph(9, 16, 21),
     [(0, 3), (1, 7), (1, 8), (2, 3), (2, 5), (2, 7), (3, 5), (3, 6), (4, 6),
      (4, 8), (5, 8), (6, 8), (7, 8)],
     [1, 2, 3, 4, 2, 3, 3, 3, 5],
     [[3], [7, 8], [3, 5, 7], [0, 2, 5, 6], [6, 8], [2, 3, 8], [3, 4, 8],
      [1, 2, 8], [1, 4, 5, 6, 7]],
     [0, 1, 3, 6, 10, 12, 15, 18, 21, 26],
     [3, 7, 8, 3, 5, 7, 0, 2, 5, 6, 6, 8, 2, 3, 8, 3, 4, 8, 1, 2, 8, 1, 4, 5,
      6, 7]),
    (lambda: Graph.from_edges(7, [(0, 3), (3, 1), (1, 5), (5, 0), (2, 5)]),
     [(0, 3), (0, 5), (1, 3), (1, 5), (2, 5)],
     [2, 2, 1, 2, 0, 3, 0],
     [[3, 5], [3, 5], [5], [0, 1], [], [0, 1, 2], []],
     [0, 2, 4, 5, 7, 7, 10, 10],
     [3, 5, 3, 5, 5, 0, 1, 0, 1, 2]),
]


@pytest.mark.parametrize("make,edges,degrees,adj,indptr,indices", GRAPH_GOLDEN)
def test_derived_structures_golden(make, edges, degrees, adj, indptr, indices):
    g = make()
    assert sorted(g.edges) == edges
    assert g.degrees.dtype == np.int64 and g.degrees.tolist() == degrees
    assert all(type(nb) is frozenset for nb in g.adj)
    assert [sorted(nb) for nb in g.adj] == adj
    A = g.adjacency_matrix
    assert A.format == "csr" and A.shape == (g.n, g.n)
    assert A.indptr.dtype == np.int32 and A.indptr.tolist() == indptr
    assert A.indices.dtype == np.int32 and A.indices.tolist() == indices
    assert A.data.dtype == np.float64 and A.data.tolist() == [1.0] * len(indices)


def test_from_edges_accepts_arrays():
    g = Graph.from_edges(4, np.array([[1, 0], [2, 3], [0, 1]]))
    assert g.edges == frozenset({(0, 1), (2, 3)})
    assert all(type(x) is int for e in g.edges for x in e)
    assert Graph.from_edges(3, np.empty((0, 2), dtype=np.int64)).m == 0
    with pytest.raises(GraphFormatError, match="self-loop"):
        Graph.from_edges(3, np.array([[1, 1]]))
    with pytest.raises(GraphFormatError, match="out of range"):
        Graph.from_edges(3, [(0, 3)])


def test_constructor_checks():
    with pytest.raises(GraphFormatError, match="out of range"):
        Graph(n=3, edges=frozenset({(0, 5)}))
    with pytest.raises(GraphFormatError, match="self-loop"):
        Graph(n=3, edges=frozenset({(1, 1)}))
    with pytest.raises(GraphFormatError, match="canonical"):
        Graph(n=3, edges=frozenset({(2, 1)}))
    # built straight from a frozenset, the edge array is still sorted
    edges = frozenset({(3, 4), (0, 9), (2, 3), (0, 5), (1, 2)})
    g = Graph(n=10, edges=edges)
    assert g.edge_array.tolist() == [[0, 5], [0, 9], [1, 2], [2, 3], [3, 4]]
    with pytest.raises(GraphFormatError, match="cover"):
        Graph(n=3, edges=frozenset({(0, 1)}), weights={(0, 2): 1.0})
    with pytest.raises(GraphFormatError, match="non-positive"):
        Graph(n=3, edges=frozenset({(0, 1)}), weights={(0, 1): 0.0})
    with pytest.raises(GraphFormatError, match="non-finite"):
        Graph(n=3, edges=frozenset({(0, 1)}), weights={(0, 1): math.inf})
    with pytest.raises(GraphFormatError, match="bipartition"):
        Graph(n=3, edges=frozenset({(0, 1)}), bipartition=frozenset())


def test_from_edges_rejects_conflicting_weights():
    with pytest.raises(GraphFormatError, match="conflicting duplicate weight"):
        Graph.from_edges(2, [(0, 1)], weights={(0, 1): 5.0, (1, 0): 7.0})
    g = Graph.from_edges(2, [(0, 1)], weights={(0, 1): 5.0, (1, 0): 5.0})
    assert g.weights == {(0, 1): 5.0}


def test_load_rejects_weight_on_one_duplicate_only(tmp_path):
    p = tmp_path / "g.el"
    p.write_text("2 2\n0 1 5\n1 0\n")
    with pytest.raises(GraphFormatError):
        load_graph(p)
    p.write_text("2 2\n0 1\n1 0 5\n")
    with pytest.raises(GraphFormatError):
        load_graph(p)
