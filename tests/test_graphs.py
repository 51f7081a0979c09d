import math
import os
import tempfile
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from catdks import caterpillar, lp, models, reductions, solvers
from catdks.graphs import (BudgetExceededError, Graph, GraphFormatError,
                           brute_force_dks, density_report, induced_subgraph,
                           load_graph, save_graph, vertex_array, weighted_average_degree)
from catdks.reductions import prune_to_size
from catdks.solvers import approximate, dks_local, resize_to_k


def clique(k):
    return Graph.from_edges(k, combinations(range(k), 2))


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def neighborhood(g, s):
    """Reference Gamma(s): the union of the neighbours of s (s itself not
    excluded) as a sorted tuple."""
    return tuple(sorted(set().union(*(g.adj[v] for v in s))))


def weight_dict(g):
    """The weights of g keyed by edge tuple (u, v), u < v, or None when g is
    unweighted."""
    if g.weight_array is not None:
        return dict(zip(map(tuple, g.edge_array.tolist()), g.weight_array.tolist()))


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
    assert weight_dict(load_graph(p)) == {(0, 1): 5.0}
    p.write_text("2 2\n0 1 5\n1 0 7\n")
    with pytest.raises(GraphFormatError, match="conflicting"):
        load_graph(p)


def test_load_comments_and_weights(tmp_path):
    p = tmp_path / "g.el"
    p.write_text("# header comment\n3 2\n0 1 2.5\n# mid comment\n1 2 0.5\n")
    g = load_graph(p)
    assert weight_dict(g) == {(0, 1): 2.5, (1, 2): 0.5}


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
                         weights=[1.25, 2.0, 0.5])
    save_graph(g, p)
    back = load_graph(p)
    assert back == g
    g2 = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    save_graph(g2, p)
    assert load_graph(p).edges == g2.edges


def per_edge_writer(g, path):
    """save_graph as one f-string per edge line, the form whose bytes
    save_graph's one format string must reproduce."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{g.n} {g.m}\n")
        w = g.weight_array
        w = [""] * g.m if w is None else [f" {x!r}" for x in w.tolist()]
        f.writelines(f"{u} {v}{x}\n" for (u, v), x in zip(g.edge_array.tolist(), w))


@st.composite
def graphs_to_write(draw):
    """Weighted or unweighted graphs, n from 1 to 3037000499, so that ids
    have 1 to 10 digits; weights are any positive finite float."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(1, 3_037_000_499)))
    ids = st.integers(0, n - 1)
    pair = st.tuples(ids, ids).filter(lambda e: e[0] != e[1]).map(sorted).map(tuple)
    weight = st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False)
    edges = draw(st.dictionaries(pair, weight, max_size=40)) if n > 1 else {}
    weighted = draw(st.booleans())
    return Graph(n, list(edges), list(edges.values()) if weighted else None)


@settings(deadline=None, max_examples=300)
@given(graphs_to_write())
@example(Graph(1, []))
@example(Graph(7, []))
@example(Graph(7, [], []))
@example(Graph(3_000_000_000, [(0, 2_999_999_999)]))
@example(Graph(3_000_000_000, [(0, 2_999_999_999), (9, 10)], [1e-300, 0.1]))
@example(Graph(12, [(0, 9), (9, 10), (3, 11)], [5e-324, 2.0, 1.7976931348623157e308]))
def test_save_graph_bytes_match_per_edge_writer(g):
    with tempfile.TemporaryDirectory() as d:
        ours, ref = os.path.join(d, "g.el"), os.path.join(d, "ref.el")
        save_graph(g, ours)
        per_edge_writer(g, ref)
        with open(ours, "rb") as a, open(ref, "rb") as b:
            assert a.read() == b.read()
        assert load_graph(ours) == g


def test_save_graph_failure_leaves_file_untouched(tmp_path):
    # m says two edges but the array holds one, so formatting the body fails;
    # the file is only opened (and truncated) after the body is formatted
    from types import SimpleNamespace

    p = tmp_path / "g.el"
    p.write_text("2 1\n0 1\n")
    bad = SimpleNamespace(n=3, m=2, edge_array=np.array([[0, 1]]), weight_array=None)
    with pytest.raises(TypeError):
        save_graph(bad, p)
    assert p.read_text() == "2 1\n0 1\n"


def test_weighted_edgeless_graph_round_trips_unweighted():
    # no edge carries a weight, so Graph(7, [], []) is Graph(7, []): the file
    # "7 0" reads back equal, and approximate treats both alike
    g = Graph(7, [], [])
    assert g.weight_array is None and g == Graph(7, [])
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "g.el")
        save_graph(g, path)
        assert load_graph(path) == g
    assert approximate(g, 7) == approximate(Graph(7, []), 7)
    assert approximate(g, 3) == approximate(Graph(7, []), 3)


def test_partial_weights_rejected():
    with pytest.raises(GraphFormatError):
        Graph.from_edges(3, [(0, 1), (1, 2)], weights=[1.0])


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


@pytest.mark.parametrize("ids", [[0.5, 1], np.array([1.0, 2.0]), [True, False],
                                 np.array([True, False])],
                         ids=["float-list", "float-array", "bool-list", "bool-mask"])
def test_vertex_ids_must_be_integers(ids):
    # int64 conversion would truncate 0.5 to 0 and read a mask as the ids 1, 0
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    for call in (vertex_array, density_report, weighted_average_degree, induced_subgraph):
        with pytest.raises(ValueError, match="vertex ids must be integers"):
            call(path, ids)
    assert vertex_array(path, []).dtype == np.int64        # empty: no dtype to check
    assert induced_subgraph(path, [])[1] == ()


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
        brute_force_dks(Graph.from_edges(30, [(0, 1)]), 15)


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


@pytest.mark.parametrize("edges", [
    [(0, 1.5)], [(0.0, 1)], [1, 2], [("0", "1")], [(True, 1)], [(0, np.bool_(True))],
    [(0, 2**70)], [(0, np.uint64(2**64 - 1))], [(0, 1, 2)], [(0,)], [None], [(0, None)],
    ((0, 1), (1, 2.0)), iter([(0, 1), "01"]), np.array([[0.0, 1.0]]),
    np.array([[True, False]]), np.array([["0", "1"]])])
def test_edges_that_are_not_integer_pairs_rejected(edges):
    # unchecked, numpy reads these as the edge (0, 1), a self-loop at 1, a
    # parsed string or a truncated float, or raises a bare OverflowError
    with pytest.raises(GraphFormatError, match="pair of int64 vertex ids|expected integers"):
        Graph(3, edges)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                          st.sampled_from([int, np.int64, np.int32, np.uint8]),
                          st.sampled_from([tuple, list])), max_size=30))
def test_integer_pairs_of_any_kind_build_one_graph(rows):
    pairs = [box((kind(u), kind(v))) for u, v, kind, box in rows if u != v]
    plain = [(u, v) for u, v, _, _ in rows if u != v]
    g = Graph(10, pairs)
    assert g == Graph(10, np.array(plain, dtype=np.int64).reshape(-1, 2))
    assert g == Graph(10, iter(pairs)) == Graph(10, tuple(pairs))
    assert g.edges == frozenset((min(e), max(e)) for e in plain)


@pytest.mark.parametrize("n", [3_037_000_500, 10 ** 10, 10 ** 20])
def test_too_many_vertices_for_edge_codes(tmp_path, n):
    # an edge is packed as u * n + v in an int64, which holds every edge only
    # for n <= isqrt(2**63 - 1) = 3,037,000,499; no such graph is built
    p = tmp_path / "g.el"
    for edges in ([], [(1, 2)], [(3_000_000_000, 3_000_000_001)]):
        for build in (Graph, Graph.from_edges):
            with pytest.raises(GraphFormatError, match="3037000499"):
                build(n, edges)
        p.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        with pytest.raises(GraphFormatError, match="3037000499"):
            load_graph(p)


@pytest.mark.parametrize("n", [-1, -3])
def test_negative_vertex_count_rejected(tmp_path, n):
    p = tmp_path / "g.el"
    p.write_text(f"{n} 0\n")
    for build in (lambda: Graph(n, []), lambda: Graph.from_edges(n, []),
                  lambda: load_graph(p)):
        with pytest.raises(GraphFormatError, match=f"n = {n} is negative"):
            build()


@pytest.mark.parametrize("n", [3.7, 3.0, True, False, "3"])
def test_non_integer_vertex_count_rejected(n):
    # int() would build n = 3 from 3.7 and n = 1 from True
    for build in (Graph, Graph.from_edges):
        with pytest.raises(GraphFormatError, match="is not an integer"):
            build(n, [(0, 1)] if n else [])


def test_numpy_integer_vertex_count_accepted():
    for build in (Graph, Graph.from_edges):
        g = build(np.int64(3), [(0, 1)])
        assert type(g.n) is int and g == Graph(3, [(0, 1)])


def test_largest_vertex_count_packs_its_last_edge(tmp_path):
    n = 3_037_000_499
    p = tmp_path / "g.el"
    p.write_text(f"{n} 2\n{n - 1} {n - 2}\n0 {n - 1}\n")
    for g in (Graph.from_edges(n, [(n - 1, n - 2), (0, n - 1)]), load_graph(p)):
        assert g.n == n and g.edge_array.tolist() == [[0, n - 1], [n - 2, n - 1]]


def test_constructor_checks():
    with pytest.raises(GraphFormatError, match="out of range"):
        Graph(n=3, edges=frozenset({(0, 5)}))
    with pytest.raises(GraphFormatError, match="self-loop"):
        Graph(n=3, edges=frozenset({(1, 1)}))
    # built straight from a frozenset, the edge array is still sorted
    edges = frozenset({(3, 4), (0, 9), (2, 3), (0, 5), (1, 2)})
    g = Graph(n=10, edges=edges)
    assert g.edge_array.tolist() == [[0, 5], [0, 9], [1, 2], [2, 3], [3, 4]]
    with pytest.raises(GraphFormatError, match="2 weights for 1 edges"):
        Graph(n=3, edges=frozenset({(0, 1)}), weights=[1.0, 1.0])
    with pytest.raises(GraphFormatError, match="non-positive"):
        Graph(n=3, edges=frozenset({(0, 1)}), weights=[0.0])
    with pytest.raises(GraphFormatError, match="non-finite"):
        Graph(n=3, edges=frozenset({(0, 1)}), weights=[math.inf])


@pytest.mark.parametrize("weights", [
    ["2.5", True], [2.5, True], np.array(["2.5", "1"]), np.array([True, True])],
    ids=["str-and-bool-list", "float-and-bool-list", "str-array", "bool-array"])
def test_constructor_rejects_string_or_bool_weights(weights):
    # a float64 conversion would read "2.5" as 2.5 and True as 1.0
    with pytest.raises(GraphFormatError, match="is not a number"):
        Graph(3, [(0, 1), (1, 2)], weights)


def test_from_edges_rejects_conflicting_weights():
    with pytest.raises(GraphFormatError, match="conflicting duplicate weight"):
        Graph.from_edges(2, [(0, 1), (1, 0)], weights=[5.0, 7.0])
    g = Graph.from_edges(2, [(0, 1), (1, 0)], weights=[5.0, 5.0])
    assert weight_dict(g) == {(0, 1): 5.0}


@pytest.mark.parametrize("edges, weights, row, fault", [
    ([(0, 1)], [math.nan], 0, "non-finite weight"),
    ([(0, 1), (1, 0)], [-1.0, 5.0], 0, "non-positive weight"),
    ([(5, 5)], None, 0, "self-loop"),
    ([(1, 2), (0, 1)], [math.inf, 0.0], 0, "non-finite weight"),
    ([(0, 1), (1, 2)], [1.0, -math.inf], 1, "non-finite weight"),
])
def test_constructor_names_row_fault_as_load_graph_does(tmp_path, edges, weights, row, fault):
    # both doors check a row for self-loop, range, finiteness and sign, in
    # that order, and name the first faulty row with its first fault
    lines = [f"{u} {v}" for u, v in edges]
    if weights is not None:
        lines = [f"{ln} {w!r}" for ln, w in zip(lines, weights)]
    p = tmp_path / "g.el"
    p.write_text(f"3 {len(edges)}\n" + "".join(ln + "\n" for ln in lines))
    for build, message in ((lambda: Graph(3, edges, weights), f"{fault} on edge {edges[row]}"),
                           (lambda: load_graph(p), f"{fault}: {lines[row]!r}")):
        with pytest.raises(GraphFormatError) as exc:
            build()
        assert str(exc.value) == message


def test_load_rejects_weight_on_one_duplicate_only(tmp_path):
    p = tmp_path / "g.el"
    p.write_text("2 2\n0 1 5\n1 0\n")
    with pytest.raises(GraphFormatError):
        load_graph(p)
    p.write_text("2 2\n0 1\n1 0 5\n")
    with pytest.raises(GraphFormatError):
        load_graph(p)


# each bad file's exact message: the first bad line wins, and within a line
# the checks run in the order width, ids, self-loop, range, weight syntax,
# weight finiteness, weight sign, weighted/unweighted; then duplicates, then
# the header count. The header's n is checked before any edge line
LOAD_ERRORS = [
    ("3 1\n0\n", "malformed edge line: '0'"),
    ("3 1\n0 1 2 3\n", "malformed edge line: '0 1 2 3'"),
    ("3 1\n0 x\n", "malformed edge line: '0 x'"),
    ("3 1\n  0\t\tx \r\n", "malformed edge line: '0\\t\\tx'"),
    ("3 1\n0 1 abc\n", "malformed weight: '0 1 abc'"),
    ("3 1\n1 1\n", "self-loop: '1 1'"),
    ("3 1\n0 3\n", "endpoint out of range: '0 3'"),
    ("3 1\n0 -1\n", "endpoint out of range: '0 -1'"),
    ("3 1\n0 99999999999999999999999\n",
     "endpoint out of range: '0 99999999999999999999999'"),
    ("3 1\n0 1 0\n", "non-positive weight: '0 1 0'"),
    ("3 1\n0 1 -2.5\n", "non-positive weight: '0 1 -2.5'"),
    ("3 1\n0 1 nan\n", "non-finite weight: '0 1 nan'"),
    ("3 2\n1 2 inf\n0 1 1\n", "non-finite weight: '1 2 inf'"),
    ("3 1\n0 1 -inf\n", "non-finite weight: '0 1 -inf'"),
    ("3 2\n1 2 inf\n0 1 0\n", "non-finite weight: '1 2 inf'"),
    ("-3 1\n0 1\n", "n = -3 is negative"),
    ("3 2\n0 1\n1 2 5\n", "weighted and unweighted edge lines mixed: '1 2 5'"),
    ("3 2\n0 1 5\n1 2\n", "weighted and unweighted edge lines mixed: '1 2'"),
    ("3 3\n0 1 5\n1 2 1\n1 0 7\n", "conflicting duplicate weight: '1 0 7'"),
    ("3 3\n0 1\n1 2\n", "header declares 3 edges, file has 2"),
    ("3 1\n0 1\n1 2 3 4 x\n", "header declares 1 edges, file has 2"),
    ("3 0\n# c\n0 1\n\n", "header declares 0 edges, file has 1"),
    ("3 x\n", "bad header line: '3 x'"),
    ("3 1 1\n0 1\n", "bad header line: '3 1 1'"),
    ("# nothing\n\n  \n", "empty graph file"),
    ("", "empty graph file"),
    ("3 2\n0 0\n0 9\n", "self-loop: '0 0'"),
    ("3 2\n0 9\n1 1\n", "endpoint out of range: '0 9'"),
    ("3 2\n0 1\n2 2 x\n", "self-loop: '2 2 x'"),
    ("3 2\n0 5 x\n0 1\n", "endpoint out of range: '0 5 x'"),
    ("3 3\n0 1 1\n1 2\n0 0 1\n", "weighted and unweighted edge lines mixed: '1 2'"),
    ("3 3\n0 1\n1 2 x\n1 0\n", "malformed weight: '1 2 x'"),
]


@pytest.mark.parametrize("text, message", LOAD_ERRORS)
def test_load_error_messages(tmp_path, text, message):
    p = tmp_path / "g.el"
    p.write_bytes(text.encode())
    with pytest.raises(GraphFormatError) as exc:
        load_graph(p)
    assert str(exc.value) == message


@pytest.mark.parametrize("text", [
    "3 2\r\n0 1\r\n1 2\r\n",                     # CRLF
    "3 2\r0 1\r1 2\r",                           # lone CR
    "3\t 2\n0\t1\n  1   2  \n",                  # tabs and repeated spaces
    "\n\n3 2\n\n0 1\n\n\n1 2",                   # blank lines, no final newline
    "# a\n  # b\n3 2\n# c\n0 1\n#d\n1 2\n# e\n",  # comments around the header
    "3 2\n0 1\n1 2\n# trailing comment",
])
def test_load_accepts_layout(tmp_path, text):
    p = tmp_path / "g.el"
    p.write_bytes(text.encode())
    g = load_graph(p)
    assert (g.n, g.edges, g.weight_array) == (3, frozenset({(0, 1), (1, 2)}), None)



# a vertex id is an optional sign and ASCII decimal digits; the header keeps
# int(), and a weight is what float() accepts
@pytest.mark.parametrize("text, outcome", [
    ("3 1\n+0 1\n", {(0, 1)}),
    ("3 1\n007 -0002\n", "endpoint out of range: '007 -0002'"),
    ("3 1\n-0 00000000000000000000001\n", {(0, 1)}),
    ("11 1\n1_0 1\n", "malformed edge line: '1_0 1'"),
    ("3 1\n0 \u0661\n", "malformed edge line: '0 \u0661'"),
    ("3 1\n0\u00a01\n", "malformed edge line: '0\\xa01'"),
    ("3 1\n0 1\u2003\n", "malformed edge line: '0 1\\u2003'"),
    ("3 1\n\u00a0\n", "malformed edge line: '\\xa0'"),
    ("+3 0_1\n0 1\n", {(0, 1)}),
    ("3 1\n0 1 1_5\n", {(0, 1)}),
])
def test_load_id_syntax(tmp_path, text, outcome):
    p = tmp_path / "g.el"
    p.write_bytes(text.encode())
    if isinstance(outcome, str):
        with pytest.raises(GraphFormatError) as exc:
            load_graph(p)
        assert str(exc.value) == outcome
    else:
        assert load_graph(p).edges == outcome

def test_load_weighted_layout(tmp_path):
    p = tmp_path / "g.el"
    p.write_bytes(b"# w\r\n4 3\r\n0 1 2.5\r\n1\t2  1e-3\r\n3 2 7\r\n2 1 0.001\r\n")
    with pytest.raises(GraphFormatError, match="header declares 3 edges, file has 4"):
        load_graph(p)
    p.write_bytes(b"# w\r\n4 4\r\n0 1 2.5\r\n1\t2  1e-3\r\n3 2 7\r\n2 1 0.001\r\n")
    assert weight_dict(load_graph(p)) == {(0, 1): 2.5, (1, 2): 0.001, (2, 3): 7.0}


# tracemalloc peak of load_graph on the gen_gnp(1000, 0.03, 0) file (14,845
# edges, 115,503 bytes), measured on the line-by-line parser this one replaced
LOAD_PEAK_BYTES = 3_239_255


def test_load_graph_peak_memory(tmp_path):
    from catdks.models import gen_gnp

    g = gen_gnp(1000, 0.03, 0)
    p = tmp_path / "g.el"
    save_graph(g, p)
    load_graph(p)                                # warm imports and caches
    tracemalloc.start()
    try:
        back = load_graph(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == g
    assert peak <= LOAD_PEAK_BYTES


# tracemalloc peak of save_graph on gen_gnp(2000, 2000 ** (-1/3), 1) (159,062
# edges): 14,250,646 bytes measured (Python 3.11), plus a 10% margin for other
# Pythons' object sizes; the byte-scatter writer this one replaced took 31.3 MB
SAVE_PEAK_BYTES = 15_700_000


def test_save_graph_peak_memory(tmp_path):
    from catdks.models import gen_gnp

    g = gen_gnp(2000, 2000 ** (-1 / 3), 1)
    p = tmp_path / "g.el"
    save_graph(g, p)                             # warm imports and caches
    tracemalloc.start()
    try:
        save_graph(g, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert load_graph(p) == g
    assert peak <= SAVE_PEAK_BYTES


# ---------------------------------------------------------------------------
# integer arguments of the public entry points

TRIANGLE = Graph(6, [(0, 1), (1, 2), (0, 2)])   # greedy decides approximate here
EMPTY = Graph(8, [])                            # solvers return early on no edges
PLANTED = models.plant(100, 0.5, 10, 1.0, seed=1).graph   # the caterpillar stage runs


def _config(graph, name):
    """approximate at k = 3 with the SolverConfig field `name` set to the value."""
    return lambda v: approximate(graph, 3, solvers.SolverConfig(**{name: v}))


# (call of the value under test, argument name, lo, hi or None, more bad values)
INT_ARGS = {
    "approximate.k": (lambda v: approximate(TRIANGLE, v), "k", 1, 6, (2.5,)),
    **{f"approximate.{name}@{label}": (_config(graph, name), name, lo, None, ())
       for label, graph in (("triangle", TRIANGLE), ("planted", PLANTED))
       for name, lo in (("s_max", 2), ("leaf_budget", 1), ("seed", 0))},
    "dks_cat_combinatorial.k": (lambda v: solvers.dks_cat_combinatorial(EMPTY, v, 1, 2, 10),
                                "k", 1, 8, (100,)),
    "dks_cat_combinatorial.leaf_budget": (
        lambda v: solvers.dks_cat_combinatorial(EMPTY, 2, 1, 2, v), "leaf_budget", 1, None, ()),
    "dks_cat_combinatorial.seed": (
        lambda v: solvers.dks_cat_combinatorial(EMPTY, 2, 1, 2, 10, seed=v), "seed", 0, None, ()),
    "dks_exp.k": (lambda v: solvers.dks_exp(EMPTY, v, 0.25, 10), "k", 1, 8, (100,)),
    "dks_exp.cluster_budget": (lambda v: solvers.dks_exp(EMPTY, 2, 0.25, v),
                               "cluster_budget", 1, None, ()),
    "dks_exp.seed": (lambda v: solvers.dks_exp(EMPTY, 2, 0.25, 10, seed=v), "seed", 0, None, ()),
    "dks_exp.cluster_size": (lambda v: solvers.dks_exp(EMPTY, 2, 0.25, 10, cluster_size=v),
                             "cluster_size", 1, None, ()),
    "dks_local.k": (lambda v: dks_local(TRIANGLE, [0, 1], v), "k", 1, None, (2.5,)),
    "brute_force_dks.k": (lambda v: brute_force_dks(TRIANGLE, v), "k", 1, 6, (2.0,)),
    "greedy_core.k": (lambda v: reductions.greedy_core(TRIANGLE, v), "k", 2, 6, ()),
    "union_until_k.k": (lambda v: reductions.union_until_k(TRIANGLE, v, lambda g: range(g.n)),
                        "k", 1, 6, ()),
    "resize_to_k.k": (lambda v: resize_to_k(TRIANGLE, [0, 1], v), "k", 0, 6, (2.0,)),
    "prune_to_size.k": (lambda v: prune_to_size(TRIANGLE, [0, 1, 2], v), "k", 0, 6, ()),
    "build_schedule.r": (lambda v: caterpillar.build_schedule(v, 3), "r", 1, None, ()),
    "build_schedule.s": (lambda v: caterpillar.build_schedule(1, v), "s", 2, None, ()),
    "choose_rs.s_max": (lambda v: caterpillar.choose_rs(0.5, v), "s_max", 2, None, ()),
    "max_witness_count.budget": (
        lambda v: caterpillar.max_witness_count(TRIANGLE, caterpillar.build_schedule(1, 2), v),
        "budget", 1, None, (2.5,)),
    "max_witness_count.seed": (
        lambda v: caterpillar.max_witness_count(TRIANGLE, caterpillar.build_schedule(1, 2), 10,
                                                seed=v), "seed", 0, None, ()),
    "build_lp.k": (lambda v: lp.build_lp(TRIANGLE, v, 1, 1), "k", 0, None, (2.5, True)),
    "build_lp.t": (lambda v: lp.build_lp(TRIANGLE, 2, 1, v), "t", 1, None, ()),
    "gnp_probability.n": (lambda v: models.gnp_probability(v, 0.5), "n", 1, None, ()),
    "plant.k": (lambda v: models.plant(20, 0.5, v, 1.0, 0), "k", 0, 20, ()),
    "plant.seed": (lambda v: models.plant(20, 0.5, 4, 1.0, v), "seed", 0, None, ()),
    "degree_distinguisher.k": (lambda v: models.degree_distinguisher(TRIANGLE, v, 1.0),
                               "k", 0, 6, ()),
    "intersection_distinguisher.pair_budget": (
        lambda v: models.intersection_distinguisher(TRIANGLE, v), "pair_budget", 1, None, ()),
    "intersection_distinguisher.seed": (
        lambda v: models.intersection_distinguisher(TRIANGLE, 10, seed=v), "seed", 0, None, ()),
    "sdp_dual_certificate.k": (lambda v: models.sdp_dual_certificate(TRIANGLE, v), "k", 0, 6, ()),
    "sdp_dual_distinguisher.k": (lambda v: models.sdp_dual_distinguisher(TRIANGLE, v),
                                 "k", 0, 6, ()),
    "caterpillar_distinguisher.r": (
        lambda v: models.caterpillar_distinguisher(TRIANGLE, v, 3, 10), "r", 1, None, ()),
    "caterpillar_distinguisher.s": (
        lambda v: models.caterpillar_distinguisher(TRIANGLE, 1, v, 10), "s", 2, None, ()),
    "caterpillar_distinguisher.budget": (
        lambda v: models.caterpillar_distinguisher(TRIANGLE, 1, 2, v), "budget", 1, None, ()),
    "caterpillar_distinguisher.seed": (
        lambda v: models.caterpillar_distinguisher(TRIANGLE, 1, 2, 10, seed=v), "seed", 0, None,
        ()),
    "gen_gnp.seed": (lambda v: models.gen_gnp(10, 0.0, v), "seed", 0, None, ()),
    "null_instance.seed": (lambda v: models.null_instance(10, 0.5, v), "seed", 0, None, ()),
    "lambda2_estimate.seed": (
        lambda v: models.lambda2_estimate(EMPTY, seed=v), "seed", 0, None, ()),
    "spectral_distinguisher.seed": (
        lambda v: models.spectral_distinguisher(EMPTY, 0.5, seed=v), "seed", 0, None, ()),
    "sdp_dual_certificate.seed": (
        lambda v: models.sdp_dual_certificate(EMPTY, 2, seed=v), "seed", 0, None, ()),
}


@pytest.mark.parametrize("entry", sorted(INT_ARGS))
def test_integer_arguments_checked_on_every_input(entry):
    # a float, a bool, and the integers just outside the range are each
    # named in a ValueError before any early return or sampling branch
    call, name, lo, hi, more = INT_ARGS[entry]
    bad = [float(lo), lo + 0.5, True, lo - 1, *([] if hi is None else [hi + 1]), *more]
    for value in bad:
        with pytest.raises(ValueError, match=rf"^{name}={value!r} is not an integer in "):
            call(value)


def test_numpy_integer_arguments_match_python_ints():
    i = np.int64
    config = solvers.SolverConfig(s_max=3, leaf_budget=50, seed=1)
    np_config = solvers.SolverConfig(s_max=i(3), leaf_budget=i(50), seed=i(1))
    assert approximate(PLANTED, i(10), np_config) == approximate(PLANTED, 10, config)
    assert solvers.dks_exp(PLANTED, i(10), 0.25, i(40), seed=i(2), cluster_size=i(2)) == \
        solvers.dks_exp(PLANTED, 10, 0.25, 40, seed=2, cluster_size=2)
    assert brute_force_dks(TRIANGLE, i(3)) == brute_force_dks(TRIANGLE, 3)
    assert resize_to_k(TRIANGLE, [0], i(4)) == resize_to_k(TRIANGLE, [0], 4)
    sched = caterpillar.build_schedule(i(1), i(2))
    assert caterpillar.max_witness_count(PLANTED, sched, i(30), seed=i(3)) == \
        caterpillar.max_witness_count(PLANTED, sched, 30, seed=3)
    assert models.plant(20, 0.5, i(4), 1.0, i(5)).graph == models.plant(20, 0.5, 4, 1.0, 5).graph
    assert models.gen_gnp(30, 0.3, i(5)) == models.gen_gnp(30, 0.3, 5)
    a, b = lp.build_lp(TRIANGLE, i(2), 1, i(1)), lp.build_lp(TRIANGLE, 2, 1, 1)
    assert np.array_equal(a.constraints.matrix.toarray(), b.constraints.matrix.toarray())
