"""Property tests: Graph canonical form, its lazy edge view,
derived structures, edge-list round trip, load_graph against a
line-by-line parser and against Graph() on the same rows, the batched
caterpillar walker against brute force, density_report against a plain count, the generators'
canonical output and planted ground truth, resize_to_k, union_until_k
against its pad/prune tail written out, dks_local's density
against density_report and its winner on a double cover's half against the
per-k' tie rule, as is every row of a block scored at once, the block
branch search against the recursive per-branch walk, approximate's
answer size, host density and rank against greedy, the exact LP check (int64 and Python-int sums) against a
per-row Fraction evaluation, and the float LP check against an np.add.at
evaluation, bit for bit."""
import math
import os
import random
import re
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from catdks.caterpillar import (_count_batch, _walk, build_schedule,  # noqa: E402
                                count_caterpillars)
from catdks.graphs import (Graph, GraphFormatError, density_report,  # noqa: E402
                           load_graph, save_graph, weighted_average_degree)
from catdks.lp import Assignment, build_lp, check_feasible  # noqa: E402
from catdks.models import gen_gnp, plant, plant_arbitrary  # noqa: E402
from catdks import solvers  # noqa: E402
from catdks import caterpillar  # noqa: E402
from catdks.reductions import (bipartite_double_cover, greedy_core,  # noqa: E402
                               prune_to_size, union_until_k)
from catdks.solvers import resize_to_k  # noqa: E402
from test_caterpillar import brute_count, injective_count  # noqa: E402
from test_graphs import neighborhood, weight_dict  # noqa: E402
from test_lp import reference_violations  # noqa: E402
from test_solvers import reference_branch_best  # noqa: E402

SCHEDULES = [(1, 2), (2, 3), (1, 3), (3, 4), (2, 5), (3, 5)]


@st.composite
def edge_lists(draw, max_n=9):
    """(n, distinct canonical edges)."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, edges


@settings(deadline=None)
@given(edge_lists(), st.randoms(use_true_random=False))
def test_from_edges_canonical_under_order_orientation_duplication(ne, rnd):
    n, edges = ne
    g = Graph.from_edges(n, edges)
    assert g.edges == frozenset(edges)
    messy = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in edges]
    messy += [rnd.choice(messy) for _ in range(len(messy) // 2)] if messy else []
    rnd.shuffle(messy)
    assert Graph.from_edges(n, messy) == g
    assert Graph.from_edges(n, np.array(messy, dtype=np.int64).reshape(-1, 2)) == g
    assert Graph.from_edges(n, iter(messy)) == g


@settings(deadline=None)
@given(edge_lists(), st.data())
def test_lazy_views_match_canonical_input(ne, data):
    """Graph() and from_edges give one graph from reversed, repeated pairs
    with aligned weights, and one GraphFormatError message from a repeat
    whose weight differs or a weight list of the wrong length."""
    n, edges = ne
    messy = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in edges]
    pairs = messy + [(v, u) for u, v in messy]          # each edge both ways
    weights = expected = None
    if data.draw(st.booleans()):
        pos = st.floats(min_value=1e-300, max_value=1e300,
                        allow_nan=False, allow_infinity=False)
        expected = {(min(e), max(e)): data.draw(pos) for e in messy}
        weights = [expected[min(e), max(e)] for e in pairs]
        expected = expected or None                     # a graph with no edges is unweighted
    g = Graph.from_edges(n, pairs, weights)
    assert Graph(n, pairs, weights) == g
    assert "edges" not in g.__dict__
    assert g.m == len(edges)
    assert g.edges == frozenset(edges)
    assert weight_dict(g) == expected
    es = list(g.edges)
    assert Graph(g.n, es, None if expected is None else [expected[e] for e in es]) == g
    cover = bipartite_double_cover(g)
    assert Graph(cover.n, cover.edges) == cover
    if weights and data.draw(st.booleans()):
        bad, i = list(weights), data.draw(st.integers(0, len(weights) - 1))
        fault = data.draw(st.sampled_from(["clash", "short", "long"]))
        if fault == "clash":
            bad[i] *= 2                                 # its repeat keeps the old weight
        elif fault == "short":
            del bad[i]
        else:
            bad.append(bad[i])
        messages = set()
        for make in (Graph, Graph.from_edges):
            with pytest.raises(GraphFormatError) as exc:
                make(n, pairs, bad)
            messages.add(str(exc.value))
        assert len(messages) == 1


@settings(deadline=None)
@given(edge_lists())
def test_degrees_and_adj_match_edges(ne):
    n, edges = ne
    g = Graph.from_edges(n, edges)
    count = [0] * n
    for u, v in edges:
        count[u] += 1
        count[v] += 1
    assert g.degrees.tolist() == count
    assert all(v in g.adj[u] and u in g.adj[v] for u, v in edges)
    assert {(u, v) for u in range(n) for v in g.adj[u] if u < v} == set(edges)
    assert all(u in g.adj[v] for v in range(n) for u in g.adj[v])
    assert (g.adjacency_matrix.toarray() == g.adjacency_matrix.toarray().T).all()


@settings(deadline=None)
@given(edge_lists(), st.data())
def test_save_load_round_trip(ne, data):
    n, edges = ne
    weights = None
    if edges and data.draw(st.booleans()):
        pos = st.floats(min_value=1e-300, max_value=1e300,
                        allow_nan=False, allow_infinity=False)
        weights = [data.draw(pos) for _ in edges]
    g = Graph.from_edges(n, edges, weights)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "g.el")
        save_graph(g, path)
        assert load_graph(path) == g


_ID = re.compile(r"[+-]?[0-9]+")


def reference_load(path) -> Graph:
    """load_graph's rules, one line at a time: the file must be UTF-8; lines
    end at \\r\\n, \\r or \\n and fields are split on runs of ASCII
    blanks; ids match _ID, the header uses int() and weights float()."""
    with open(path, "rb") as f:
        data = f.read()
    data.decode("utf-8")
    lines = [ln.strip(b" \t\v\f").decode() for ln in re.split(rb"\r\n|\r|\n", data)]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty graph file")
    try:
        n, m = map(int, lines[0].split())
    except ValueError as exc:
        raise GraphFormatError(f"bad header line: {lines[0]!r}") from exc
    edges = []                                   # (u, v, weight or None, line)
    for ln in lines[1:1 + m]:
        parts = re.split(r"[ \t\v\f]+", ln)
        if len(parts) not in (2, 3) or not all(map(_ID.fullmatch, parts[:2])):
            raise GraphFormatError(f"malformed edge line: {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise GraphFormatError(f"self-loop: {ln!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"endpoint out of range: {ln!r}")
        w = None
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError as exc:
                raise GraphFormatError(f"malformed weight: {ln!r}") from exc
            if not math.isfinite(w):
                raise GraphFormatError(f"non-finite weight: {ln!r}")
            if not w > 0:
                raise GraphFormatError(f"non-positive weight: {ln!r}")
        edges.append((min(u, v), max(u, v), w, ln))
        if (w is None) != (edges[0][2] is None):
            raise GraphFormatError(f"weighted and unweighted edge lines mixed: {ln!r}")
    first = {}
    for u, v, w, ln in edges:
        if first.setdefault((u, v), w) != w:
            raise GraphFormatError(f"conflicting duplicate weight: {ln!r}")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"header declares {m} edges, file has {len(lines) - 1}")
    return Graph.from_edges(n, list(first),
                            list(first.values()) if edges and edges[0][2] else None)


@st.composite
def edge_list_files(draw):
    """Edge-list file bytes, mostly well formed: header, edge lines (all
    weighted or all not, with rare exceptions), comments, blank lines, mixed
    line ends and separators, and some malformed fields."""
    ids = st.sampled_from([str(v) for v in range(6)] * 8 + [
        "+1", "-1", "007", "-0", "6", "x", "1_0", "-", "\u0661", "99999999999999999999",
        "99999999999999999998"])
    weights = st.sampled_from(["1", "2.5", "1e-3"] * 4 + ["0", "-2", "nan", "inf", "x", "1_5"])
    weighted = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 7))):
        fields = [draw(ids), draw(ids)]
        if weighted != (draw(st.integers(0, 19)) == 0):
            fields.append(draw(weights))
        fields = draw(st.sampled_from([fields] * 40 + [
            [], ["#", "x"], ["#0", "1"], fields[:1], fields + ["7"], ["0\u00a01"]]))
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t", "\v", "\f"]))
        pad = draw(st.sampled_from(["", "", " ", "\t"]))
        lines.append(pad + sep.join(fields) + pad)
    m = sum(bool(ln.strip()) and not ln.strip().startswith("#") for ln in lines)
    m += draw(st.sampled_from([0] * 6 + [-1, 1, -m - 2]))
    header = draw(st.sampled_from(["6 {}"] * 5 + ["6\t{}", "5 {}", "+6 {}", "6 {} 1", "x {}"]))
    lines = draw(st.lists(st.sampled_from(["# c", "", " #", "\t"]), max_size=2)) + \
        [header.format(m)] + lines
    ends = st.sampled_from(["\n", "\r\n", "\r", "\n\n"])
    return "".join(ln + draw(ends) for ln in lines).encode()


@settings(deadline=None, max_examples=300)
@given(edge_list_files())
@example(b"3 1\n12345678901234567890 12345678901234567891\n")
@example(b"3 1\n4611686018427387904 4611686018427387905\n")
@example(b"3 1\n+12345678901234567890 12345678901234567890\n")
def test_load_graph_matches_line_parser(data):
    outcome = []
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "g.el")
        with open(path, "wb") as f:
            f.write(data)
        for parse in (load_graph, reference_load):
            try:
                outcome.append(parse(path))
            except GraphFormatError as exc:
                outcome.append(str(exc))
    assert outcome[0] == outcome[1]


_FAULT = re.compile(r"(.+?)(?: on edge \((-?\d+), (-?\d+)\)|: '(-?\d+)[ ]+(-?\d+))")


def fault_of(message: str):
    """(fault name, sorted endpoints of the row it names) of a GraphFormatError
    from Graph() ("<fault> on edge (u, v)...") or load_graph ("<fault>: 'u v w'")."""
    found = _FAULT.match(message)
    assert found, message
    return found[1], sorted(int(x) for x in found.groups()[1:] if x is not None)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 6), st.lists(st.tuples(
    st.integers(-1, 7), st.integers(-1, 7),
    st.sampled_from([2.5, 1.0, 0.0, -1.0, math.inf, -math.inf, math.nan])), max_size=6),
    st.booleans())
def test_graph_and_load_graph_check_rows_alike(n, rows, weighted):
    """The same rows, as Graph(n, pairs, weights) and as an edge-list file,
    build equal graphs, or both fail with the same fault on a row with the
    same endpoints (ids in [-1, 7] against n <= 6, self-loops included)."""
    pairs = [(u, v) for u, v, _ in rows]
    weights = [w for _, _, w in rows] if weighted else None
    outcome = []
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "g.el")
        with open(path, "w") as f:
            f.write(f"{n} {len(rows)}\n" + "".join(
                f"{u} {v}" + (f" {w!r}" if weighted else "") + "\n" for u, v, w in rows))
        for build in (lambda: Graph(n, pairs, weights), lambda: load_graph(path)):
            try:
                outcome.append(build())
            except GraphFormatError as exc:
                outcome.append(fault_of(str(exc)))
    assert outcome[0] == outcome[1]


@settings(deadline=None)
@given(edge_lists(max_n=7), st.sampled_from(SCHEDULES), st.data())
def test_batched_counts_match_brute_force(ne, rs, data):
    n, edges = ne
    g = Graph.from_edges(n, edges)
    sched = build_schedule(*rs)
    tuples = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * (rs[0] + 1)),
                                min_size=1, max_size=12))
    leaves = np.array(tuples, dtype=np.int64)
    counts = _count_batch(g, sched, leaves)
    assert counts == [brute_count(g, sched, t) for t in tuples]
    A = g.adjacency_matrix.astype(np.int64)
    assert _walk(A, sched.steps, leaves, exact=True) == _walk(A, sched.steps, leaves)
    for t, c in zip(tuples, counts):
        assert c >= injective_count(g, sched, t)


def reference_walk(g, sched, leaves):
    """Reference: the sparse walker over every step of the schedule, one
    scipy row per leaf at each hair step, int64 counts."""
    A = g.adjacency_matrix.astype(np.int64)
    X = None
    hair = 0
    for kind in sched.steps:
        if kind == "hair":
            rows = A[leaves[:, hair]]
            hair += 1
            X = rows if X is None else X.multiply(rows).tocsr()
        else:
            X = X @ A
    return np.asarray(X.sum(axis=1)).ravel().tolist()


ALL_SCHEDULES = [(r, s) for s in range(2, 6) for r in range(1, s) if math.gcd(r, s) == 1]


@settings(deadline=None, max_examples=200)
@given(edge_lists(max_n=16), st.sampled_from(ALL_SCHEDULES),
       st.sampled_from([8, 16, 24, 64, 1 << 19]), st.data())
def test_packed_counts_match_sparse_walk(ne, rs, packed_bytes, data):
    # packed_bytes, the packing budget: small ones send the larger graphs to
    # the walker and AND one or a few tuples per block; leaves may repeat
    n, edges = ne
    g = Graph.from_edges(n, edges)
    sched = build_schedule(*rs)
    tuples = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * (rs[0] + 1)),
                                min_size=1, max_size=40))
    leaves = np.array(tuples, dtype=np.int64)
    expected = reference_walk(g, sched, leaves)
    with mock.patch.object(caterpillar, "_PACKED", packed_bytes):
        assert _count_batch(g, sched, leaves) == expected
        assert [count_caterpillars(g, sched, t) for t in tuples] == expected


@settings(deadline=None)
@given(edge_lists(max_n=12), st.data())
def test_density_report_matches_plain_count(ne, data):
    n, edges = ne
    g = Graph.from_edges(n, edges)
    s = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    degs = [sum(1 for u, v in edges if w in (u, v) and u in s and v in s)
            for w in sorted(s)]
    e = sum(degs) // 2
    rep = density_report(g, s)
    assert (rep.vertex_count, rep.edge_count, rep.min_degree) == (len(s), e, min(degs))
    assert rep.average_degree == 2.0 * e / len(s)
    assert weighted_average_degree(g, s) == rep.average_degree


@settings(deadline=None)
@given(st.integers(1, 60), st.floats(0.05, 0.95), st.floats(0.05, 1.0),
       st.integers(0, 2 ** 32), st.data())
def test_generated_graphs_are_canonical_with_exact_ground_truth(n, alpha, beta, seed, data):
    """gen_gnp, plant and plant_arbitrary return graphs that from_edges
    leaves unchanged, and ground_truth_density is the planted set's
    density_report average degree, to the bit."""
    k = data.draw(st.integers(0, n))
    inst = plant(n, alpha, k, beta, seed)
    for g in (gen_gnp(n, alpha, seed), inst.graph):
        assert Graph.from_edges(g.n, g.edge_array) == g
    if k:
        assert inst.ground_truth_density == \
            density_report(inst.graph, inst.planted).average_degree
    else:
        assert inst.ground_truth_density is None
    loc = data.draw(st.sets(st.integers(0, n - 1)))
    h = gen_gnp(len(loc), beta, seed + 1)
    arb = plant_arbitrary(inst.graph, h, loc)
    assert Graph.from_edges(n, arb.graph.edge_array) == arb.graph
    if loc:
        assert arb.ground_truth_density == \
            density_report(arb.graph, arb.planted).average_degree
    else:
        assert arb.ground_truth_density is None


@settings(deadline=None)
@given(edge_lists(max_n=12), st.data())
def test_resize_to_k_returns_exactly_k(ne, data):
    n, edges = ne
    g = Graph.from_edges(n, edges)
    s = data.draw(st.lists(st.integers(0, n - 1)))
    k = data.draw(st.integers(1, n))
    out = resize_to_k(g, s, k)
    assert len(out) == len(set(out)) == k
    assert all(0 <= v < n for v in out) and list(out) == sorted(out)
    if len(set(s)) <= k:
        assert set(s) <= set(out)
    else:
        assert set(out) <= set(s)


def reference_union_until_k(g, k, inner):
    """Reference: union_until_k with its own tail. A set that runs out of
    residual edges is padded with the smallest untouched ids, and an
    overshoot is pruned by prune_to_size."""
    remaining = set(map(tuple, g.edge_array.tolist()))
    accum = set()
    while len(accum) < k:
        if not remaining:
            accum.update([v for v in range(g.n) if v not in accum][:k - len(accum)])
            break
        found = set(inner(Graph.from_edges(g.n, remaining)))
        remaining -= {(u, v) for u, v in remaining if u in found and v in found}
        accum |= found
    if len(accum) > k:
        accum = set(prune_to_size(g, accum, k))
    return tuple(sorted(accum))


@settings(deadline=None)
@given(edge_lists(max_n=12), st.integers(0, 2 ** 32), st.data())
def test_union_until_k_matches_pad_prune_tail(ne, seed, data):
    # inner returns a random residual edge and random other vertices; a fresh
    # generator per run replays its draws
    n, edges = ne
    g = Graph.from_edges(n, edges)
    k = data.draw(st.integers(1, n))

    def inner(rnd):
        def pick(cur):
            u, v = cur.edge_array[rnd.randrange(cur.m)].tolist()
            return [u, v] + rnd.sample(range(cur.n), rnd.randint(0, cur.n))
        return pick

    assert union_until_k(g, k, inner(random.Random(seed))) == \
        reference_union_until_k(g, k, inner(random.Random(seed)))


@settings(deadline=None)
@given(edge_lists(max_n=12), st.booleans(), st.data())
def test_dks_local_density_is_induced_density(ne, cover, data):
    """dks_local's density is density_report's on its winner, also when S
    meets both sides of a double cover, where Gamma(S) can meet S."""
    n, edges = ne
    g = Graph.from_edges(n, edges)
    if cover:
        g = bipartite_double_cover(g)
    s = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    universe = data.draw(st.none() | st.sets(st.integers(0, g.n - 1)))
    res = solvers.dks_local(g, s, data.draw(st.integers(1, g.n)), universe=universe)
    gamma = set(neighborhood(g, s)) & (set(range(g.n)) if universe is None else universe)
    if gamma:
        assert res.density == density_report(g, res.vertices).average_degree
    else:
        assert (res.vertices, res.density) == (tuple(sorted(s)), 0.0)


def reference_local(g, s, k):
    """dks_local one k' at a time under the earlier tie rule: the best
    bipartite average, ties to fewer vertices, then the lexicographically
    smaller set; its density is the winner's bipartite average."""
    adj, S = g.adj, sorted(s)
    gamma = set().union(*(adj[v] for v in S))
    if not gamma:
        return tuple(S), 0.0
    order = sorted(gamma, key=lambda j: (-len(adj[j] & set(S)), j))
    keyed = []
    for kp in range(1, min(k, max(len(order), len(S))) + 1):
        T = order[:kp]
        cnt = {v: len(adj[v] & set(T)) for v in S}
        chosen = sorted(S, key=lambda v: (-cnt[v], v))[:kp]
        verts = tuple(sorted(set(chosen) | set(T)))
        keyed.append((-2.0 * sum(cnt[v] for v in chosen) / (len(chosen) + len(T)),
                      len(verts), verts))
    neg, _, verts = min(keyed)
    return verts, -neg


@settings(deadline=None)
@given(edge_lists(max_n=12), st.booleans(), st.data())
def test_dks_local_on_a_cover_half_matches_tie_reference(ne, upper, data):
    """With S inside one half of a double cover, Gamma(S) lies in the other,
    so the smallest tied k' is also the smallest tied set: dks_local's
    argmax (ties to the smallest k') picks the reference's winner."""
    n, edges = ne
    g = bipartite_double_cover(Graph.from_edges(n, edges))
    s = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    s = {v + n * upper for v in s}
    k = data.draw(st.integers(1, g.n))
    res = solvers.dks_local(g, s, k)
    assert (res.vertices, res.density) == reference_local(g, s, k)


@st.composite
def cover_half_blocks(draw):
    """(double cover, sets each inside one of its halves, k, rows per part):
    k is drawn near the sets' sizes and their Gamma(S) sizes, so that it
    lands below, at, between and above them."""
    n, edges = draw(edge_lists(max_n=12))
    g = bipartite_double_cover(Graph.from_edges(n, edges))
    sets = draw(st.lists(st.tuples(st.booleans(), st.sets(st.integers(0, n - 1), min_size=1)),
                         min_size=1, max_size=6))
    sets = [sorted(v + n * upper for v in s) for upper, s in sets]
    sizes = {len(s) for s in sets} | {len(neighborhood(g, s)) for s in sets}
    near = sorted({x + d for x in sizes for d in (-1, 0, 1)} & set(range(1, g.n + 1)))
    k = draw(st.sampled_from(near) | st.integers(1, g.n))
    return g, sets, k, draw(st.integers(1, 3))


# a 4-cycle and a path: each row's Gamma(S) degrees tie at the k-th member
TIED_CYCLE = bipartite_double_cover(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
TIED_PATH = bipartite_double_cover(Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]))


@settings(deadline=None, max_examples=200)
@given(cover_half_blocks())
@example((TIED_CYCLE, [[0, 2], [5], [4, 5, 6, 7]], 1, 3))
@example((TIED_PATH, [[0, 2, 4], [7, 9], [1, 3, 5]], 2, 1))
def test_local_block_on_cover_halves_matches_tie_reference(block):
    """Every row of a block scored at once, and in parts of `width` rows,
    against the per-k' reference: with S inside one half, the scorer ranks
    only Gamma(S)'s members at or above the k-th degree, reads the cube for
    m < |S| and the running sum of T's degrees for m = |S|, and takes the
    winner's members of S from its (member, T) pairs."""
    g, sets, k, width = block
    row = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    with mock.patch.object(solvers, "_CELLS", width * g.n):
        wrow, wv, dens = solvers._local_block(g, row, np.concatenate(sets), len(sets), k)
    for r, s in enumerate(sets):
        assert (tuple(wv[wrow == r].tolist()), dens[r]) == reference_local(g, s, k)


@settings(deadline=None, max_examples=200)
@given(edge_lists(max_n=16), st.booleans(),
       st.sampled_from([(r, s) for s in range(2, 6) for r in range(1, s)
                        if math.gcd(r, s) == 1]),
       st.integers(1, 2), st.integers(1, 4), st.data())
def test_block_branch_search_matches_recursive_walk(ne, cover, rs, cluster_size,
                                                     width, data):
    """_branch_best (block walker) == the recursive per-branch reference on
    (vertices, density, provenance), with blocks of `width` rows so that
    most budgets span several blocks; cluster size 2 scores cluster-local."""
    n, edges = ne
    g = Graph.from_edges(n, edges)
    if cover:
        g = bipartite_double_cover(g)
    sched = build_schedule(*rs)
    k = data.draw(st.integers(1, g.n))
    cands = int((g.degrees > 0).sum())
    space = math.comb(cands, cluster_size) ** sched.num_leaves
    if 0 < cands < cluster_size:
        return                                  # rejected: tested in test_solvers
    if 0 < space <= 1000 and data.draw(st.booleans()):
        budget = data.draw(st.integers(space, space + 5))   # enumerate
    else:
        budget = data.draw(st.integers(1, 40))             # sampled, when space > budget
    seed = data.draw(st.integers(0, 3))
    ref = reference_branch_best(g, k, sched, budget, seed, cluster_size,
                                cluster_local=cluster_size > 1)
    with mock.patch.object(solvers, "_CELLS", width * g.n):
        if ref is None:                         # edgeless: no leaf to draw
            with pytest.raises(ValueError, match="exceeds the 0 non-isolated"):
                solvers._branch_best(g, k, sched, budget, seed, cluster_size)
            return
        got = solvers._branch_best(g, k, sched, budget, seed, cluster_size)
    assert (got.vertices, got.density, got.provenance) == \
        (ref.vertices, ref.density, ref.provenance)


@settings(deadline=None, max_examples=100)
@given(edge_lists(max_n=16), st.booleans(), st.sampled_from(SCHEDULES),
       st.integers(1, 2), st.integers(1, 40), st.integers(0, 3), st.data())
def test_branch_search_always_spans_an_edge(ne, cover, rs, cluster_size, budget,
                                            seed, data):
    """On a graph with an edge, a double cover's included, the branch search
    returns a set of density > 0: dks_cat_combinatorial's union_until_k
    relies on it, with no fallback for a set that spans no edge."""
    n, edges = ne
    g = Graph.from_edges(n, edges)
    if cover:
        g = bipartite_double_cover(g)
    if int((g.degrees > 0).sum()) < cluster_size:
        return                                  # edgeless, or no leaf cluster to draw
    k = data.draw(st.integers(1, g.n))
    res = solvers._branch_best(g, k, build_schedule(*rs), budget, seed, cluster_size)
    assert res.density > 0
    assert g.edge_count_within(np.array(res.vertices)) > 0


@settings(deadline=None)
@given(edge_lists(max_n=16), st.data())
def test_greedy_residual_degrees_within_cap(ne, data):
    """U is the top half by degree, so no vertex of g' = G[V \\ U] has a
    degree above cap_degree; approximate reads the cap without g'."""
    n, edges = ne
    if n < 2:
        return
    g = Graph.from_edges(n, edges)
    core = greedy_core(g, data.draw(st.integers(2, n)))
    assert (core.g_prime.degrees <= core.cap_degree).all()


@settings(deadline=None)
@given(st.integers(1, 10), st.data())
def test_approximate_returns_k_vertices_at_host_density(n, data):
    """approximate answers exactly k distinct, sorted vertices of g, reported
    at their (weighted) average degree in g; on unweighted input with k >= 2
    it never ranks below the greedy stage alone, early returns included.
    Each pair is drawn as an edge or not, so that graphs are dense enough
    for the caterpillar stage to run."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    drawn = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, drawn) if keep]
    weights = data.draw(st.none() | st.lists(st.floats(0.01, 100), min_size=len(edges),
                                             max_size=len(edges)))
    g = Graph.from_edges(n, edges, weights)
    k = data.draw(st.integers(1, n))
    res = solvers.approximate(g, k)
    assert len(res.vertices) == k and list(res.vertices) == sorted(set(res.vertices))
    assert 0 <= res.vertices[0] and res.vertices[-1] < n
    assert res.density == weighted_average_degree(g, res.vertices)
    if weights is None and k >= 2:
        greedy = resize_to_k(g, greedy_core(g, k).h_prime, k)
        assert res.rank() <= (-weighted_average_degree(g, greedy), k, greedy)


@settings(deadline=None, max_examples=60)
@given(edge_lists(max_n=6), st.integers(1, 2), st.integers(0, 6),
       st.fractions(min_value=-1, max_value=6, max_denominator=12),
       st.randoms(use_true_random=False))
def test_check_feasible_matches_row_reference(nedges, t, k, d, rnd):
    """check_feasible (exact) against a per-row Fraction evaluation of the
    decoded constraints, on a random subset indicator with some entries
    replaced by random ints and Fractions."""
    n, edges = nedges
    inst = build_lp(Graph(n, frozenset(edges)), k, d, t)
    members = {v for v in range(n) if rnd.random() < 0.5}
    a = {p: int(all(v in members for v in p)) for p in inst.variables}
    for p in rnd.sample(inst.variables, rnd.randint(0, len(inst.variables))):
        a[p] = rnd.choice([rnd.randint(-2, 2),
                           Fraction(rnd.randint(-20, 20), rnd.randint(1, 9))])
    assert check_feasible(inst, a).violations == reference_violations(inst, a)


def add_at_violations(inst, vals, tol):
    """check_feasible's float evaluation as it was while the rows were five
    arrays of row or entry length, kept verbatim: one unbuffered np.add.at
    of each term, in order, into its row. The arrays are read off the
    matrix, and scale and eq tiled from one block to every row. Residuals
    are compared by their bits."""
    rows = inst.constraints
    times = (len(rows) - 2) // len(rows.scale)
    indptr, col, coef = rows.matrix.indptr, rows.matrix.indices, rows.matrix.data
    scale = np.concatenate([[1, 1], np.tile(rows.scale, times)])
    eq = np.concatenate([[False, False], np.tile(rows.eq, times)])
    x = np.append(vals.astype(np.float64), 1.0)
    owner = np.repeat(np.arange(len(rows)), np.diff(indptr))
    acc = np.zeros(len(rows))
    np.add.at(acc, owner, (coef / scale[owner]).astype(np.float64) * x[col])
    bad = np.where(eq, np.abs(acc) > float(tol), acc < -float(tol))
    return [(*rows.row(r)[:2], float(acc[r]).hex()) for r in np.flatnonzero(bad).tolist()]


@settings(deadline=None, max_examples=60)
@given(edge_lists(max_n=6), st.integers(1, 2), st.integers(0, 6),
       st.fractions(min_value=-1, max_value=6, max_denominator=12),
       st.sampled_from([0, 1e-9]), st.randoms(use_true_random=False))
def test_float_check_matches_add_at(nedges, t, k, d, tol, rnd):
    """check_feasible on float64 values (the float path, at tol 0 too)
    against add_at_violations: the same violations with the same residual
    bits, on a subset indicator with some entries replaced by random floats,
    thirds and near misses."""
    n, edges = nedges
    inst = build_lp(Graph(n, frozenset(edges)), k, d, t)
    members = {v for v in range(n) if rnd.random() < 0.5}
    vals = np.array([float(all(v in members for v in p)) for p in inst.variables])
    for i in rnd.sample(range(1, len(vals)), rnd.randint(0, len(vals) - 1)):
        vals[i] = rnd.choice([rnd.uniform(-2, 2), rnd.randint(-3, 3) / 3,
                              vals[i] + rnd.choice([-1, 1]) * 1e-10])
    got = check_feasible(inst, Assignment(inst.variables, vals), tol=tol).violations
    assert [(v["constraint"], v["family"], v["residual"].hex()) for v in got] == \
        add_at_violations(inst, vals, tol)


@settings(deadline=None, max_examples=40)
@given(edge_lists(max_n=5), st.integers(1, 2), st.integers(0, 5),
       st.fractions(min_value=-1, max_value=5, max_denominator=10**12),
       st.randoms(use_true_random=False))
def test_exact_check_beyond_int64_matches_row_reference(nedges, t, k, d, rnd):
    """check_feasible (exact) on values near 2**62 against the per-row
    Fraction evaluation. h = 2**62 and the root rows' two terms of 1 put the
    int64 bound at or above 2**63, so every sum runs over Python ints."""
    n, edges = nedges
    inst = build_lp(Graph(n, frozenset(edges)), k, d, t)
    members = {v for v in range(n) if rnd.random() < 0.5}
    a = {p: 2**62 * all(v in members for v in p) for p in inst.variables}
    for p in rnd.sample(list(inst.variables)[1:], rnd.randint(0, len(inst.variables) - 1)):
        a[p] = rnd.choice([a[p] + rnd.randint(-3, 3), -(2**62), rnd.randint(-2, 2),
                           Fraction(2**62 + rnd.randint(-9, 9), rnd.randint(1, 9))])
    assert a[()] == 2**62
    assert check_feasible(inst, a).violations == reference_violations(inst, a)
