import hashlib
import math
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catdks import models
from catdks.graphs import (Graph, GraphFormatError, _graph, _vertex_count, density_report,
                           induced_edge_mask, vertex_array)
from catdks.models import (caterpillar_distinguisher, degree_distinguisher,
                           gen_gnp, intersection_distinguisher,
                           lambda2_estimate, null_instance, plant,
                           plant_arbitrary, sdp_dual_certificate, sdp_dual_distinguisher,
                           spectral_distinguisher)


def clique(k, n=None):
    n = n or k
    return Graph.from_edges(n, combinations(range(k), 2))


# ---------------------------------------------------------------------------
# generators


def test_gnp_extremes():
    assert gen_gnp(10, 0.0, 1).m == 0
    g = gen_gnp(6, 1.0, 1)
    assert g.m == 15


def test_gnp_deterministic():
    assert gen_gnp(40, 0.3, 7).edges == gen_gnp(40, 0.3, 7).edges
    assert gen_gnp(40, 0.3, 7).edges != gen_gnp(40, 0.3, 8).edges


def test_gnp_degree_concentration():
    n = 1000
    p = n ** -0.5
    means = [gen_gnp(n, p, s).average_degree() for s in range(100)]
    expect = (n - 1) * p
    sigma = math.sqrt(2 * math.comb(n, 2) * p * (1 - p)) * 2 / n  # per-graph avg-degree sd
    assert abs(np.mean(means) - expect) <= 3 * sigma / math.sqrt(100)


def test_gnp_validates_p():
    with pytest.raises(ValueError):
        gen_gnp(5, 1.5, 0)


@pytest.mark.parametrize("n", [True, False, 3.0, 3.7])
def test_gnp_rejects_non_integer_n_before_drawing(n, monkeypatch):
    # gen_gnp builds its graph without Graph's checks, so it checks n itself
    def no_draw(*args):
        raise AssertionError("rng created before n was checked")
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(GraphFormatError, match="is not an integer"):
        gen_gnp(n, 0.5, 0)


def test_gnp_numpy_integer_n_gives_int():
    g = gen_gnp(np.int64(30), 0.3, 4)
    assert type(g.n) is int and g == gen_gnp(30, 0.3, 4)


# SHA-256 of edge_array.tobytes() (int64, little-endian) per (n, p, seed),
# with the edge count; the generators' output is part of every seeded result
GNP_PINS = [
    (2000, 2000 ** (-1 / 3), 0, 158567,
     "b14bb4eb96341d613a9edb9152e8dc1965a44d018262c9ae0ac91d06fc5230fb"),
    (2000, 2000 ** (-1 / 3), 1, 159062,
     "039f46d87ccb164c63ca91db90cdf91e10a2d4e63289928650c7927732f5d532"),
    (1000, 1000 ** (-1 / 2), 0, 15657,
     "a891e9b7304cf6ef940d918f6c48055ef83451c531ab803cbad4cf6695027cad"),
    (1000, 1000 ** (-1 / 2), 1, 15842,
     "4118af2278d1d62884522a43aae99ccc596d8ef1c8149a5e1aa7da9934d9ecf7"),
    (7, 1.0, 0, 21, "dc59c7e86713355ac567dde745362a3a68322b3b2f36c43b519fb1b5d9ae1b44"),
    (7, 1.0, 1, 21, "dc59c7e86713355ac567dde745362a3a68322b3b2f36c43b519fb1b5d9ae1b44"),
    (1, 0.5, 0, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, 0.5, 1, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (50, 0.0, 0, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (50, 0.0, 1, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]

# plant(n, alpha, k, beta, seed) -> (edge count, SHA-256 as above,
# repr(ground_truth_density))
PLANT_PINS = [
    ((2000, 2 / 3, 159, 1.0, 0), 171093,
     "f3bc5df029ccb67cc4ed4df29c93af31066931b9d038bebe3a473af66e517f13", "158.0"),
    ((2000, 2 / 3, 159, 1.0, 1), 170419,
     "72d453862444b6b46e5368f662e5bcb3764067f78b9a71bc77807d549ce3856c", "158.0"),
    ((1000, .5, 32, .8, 0), 16147,
     "7e5f90af1bf40ec1c1ae702308f600951b82193ee45f51f45520d56b81977ced", "16.25"),
    ((1000, .5, 32, .8, 1), 15946,
     "ae537080552e389e8dc45b765a5cd6ce9ccbac9c503f39fe623348ef3094f35d", "16.6875"),
]


def edge_digest(g):
    assert g.edge_array.dtype == np.dtype("<i8")
    return hashlib.sha256(g.edge_array.tobytes()).hexdigest()


@pytest.mark.parametrize("n,p,seed,m,digest", GNP_PINS)
def test_gnp_bytes_pinned(n, p, seed, m, digest):
    g = gen_gnp(n, p, seed)
    assert (g.m, edge_digest(g)) == (m, digest)


@pytest.mark.parametrize("args,m,digest,gt", PLANT_PINS)
def test_plant_bytes_pinned(args, m, digest, gt):
    inst = plant(*args)
    assert (inst.graph.m, edge_digest(inst.graph)) == (m, digest)
    assert repr(inst.ground_truth_density) == gt


def reference_gen_gnp(n, p, seed):
    """gen_gnp as one rng.random draw over every pair at once, the pair index
    array k built whole (the code the blocked draws replaced)."""
    n = _vertex_count(n)
    if not 0 <= p <= 1:
        raise ValueError(f"p={p} out of [0,1]")
    if n < 2 or p == 0:
        return _graph(n, np.empty((0, 2), dtype=np.int64))
    rng = np.random.default_rng(seed)
    pairs = n * (n - 1) // 2
    k = np.arange(pairs) if p == 1 else np.flatnonzero(rng.random(pairs) < p)
    rows = np.arange(n)
    starts = rows * (2 * n - rows - 1) // 2
    i = np.repeat(rows, np.diff(np.searchsorted(k, starts), append=len(k)))
    return _graph(n, np.stack([i, k - starts[i] + i + 1], axis=1))


def reference_replace_induced(base, location, h):
    """base with its edges inside the sorted `location` replaced by h's, on
    edge arrays (the code the edge-code path replaced)."""
    n, loc = base.n, np.asarray(location, dtype=np.int64)
    kept, new = base.edge_array[~induced_edge_mask(base, loc)], loc[h.edge_array]
    at = np.searchsorted(kept[:, 0] * n + kept[:, 1], new[:, 0] * n + new[:, 1])
    return _graph(n, np.insert(kept, at, new, axis=0))


def reference_plant(n, alpha, k, beta, seed):
    """plant on the reference generator and replace: (graph, planted,
    ground_truth_density)."""
    if not (0 < alpha < 1 and 0 < beta <= 1):
        raise ValueError("alpha in (0,1) and beta in (0,1] required")
    if k < 0:
        raise ValueError(f"k={k} < 0")
    if k > n:
        raise ValueError("k > n")
    rng = np.random.default_rng(seed)
    base = reference_gen_gnp(n, models.gnp_probability(n, alpha),
                             int(rng.integers(0, 2**63 - 1)))
    location = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
    h = reference_gen_gnp(k, k ** (beta - 1) if k else 0.0, int(rng.integers(0, 2**63 - 1)))
    g = reference_replace_induced(base, location, h)
    return g, location, 2.0 * h.m / k if k else None


PROBABILITIES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
SEEDS = st.integers(0, 2**63 - 1)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 40), PROBABILITIES, SEEDS, st.sampled_from([1, 3, 64]))
def test_blocked_gnp_matches_one_draw(n, p, seed, draw):
    # blocks of 1 and 3 draws end mid-row and, at times, exactly at a row's end
    with mock.patch.object(models, "_DRAW", draw):
        g = models.gen_gnp(n, p, seed)
    ref = reference_gen_gnp(n, p, seed)
    assert g == ref and g.edge_array.tobytes() == ref.edge_array.tobytes()


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 40), st.floats(0.01, 0.99), st.data(),
       st.sampled_from([1.0]) | st.floats(0.01, 1.0), SEEDS, st.sampled_from([1, 3, 64]))
def test_code_plant_matches_reference(n, alpha, data, beta, seed, draw):
    k = data.draw(st.sampled_from([0, n]) | st.integers(0, n))
    if n == 0:                                  # G(0, p) has no edge probability
        for call in (plant, reference_plant):
            with pytest.raises(ValueError, match="n must be >= 1"):
                call(n, alpha, k, beta, seed)
        return
    with mock.patch.object(models, "_DRAW", draw):
        inst = plant(n, alpha, k, beta, seed)
    g, location, gt = reference_plant(n, alpha, k, beta, seed)
    assert inst.graph == g and inst.graph.edge_array.tobytes() == g.edge_array.tobytes()
    assert inst.planted == location and repr(inst.ground_truth_density) == repr(gt)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 30), PROBABILITIES, SEEDS, st.data())
def test_code_plant_arbitrary_matches_reference(n, p, seed, data):
    base = gen_gnp(n, p, seed)
    location = data.draw(st.lists(st.integers(0, n - 1), unique=True) if n else st.just([]))
    h = gen_gnp(len(location), data.draw(PROBABILITIES), seed + 1)
    inst = plant_arbitrary(base, h, location)
    ref = reference_replace_induced(base, tuple(vertex_array(base, location).tolist()), h)
    assert inst.graph == ref and inst.planted == tuple(sorted(location))


@pytest.mark.parametrize("n,k,error,match", [
    (10.0, 3, GraphFormatError, "is not an integer"),
    (True, 1, GraphFormatError, "is not an integer"),
    (10, 3.0, ValueError, "k=3.0 is not an integer"),
    (10, True, ValueError, "k=True is not an integer"),
    (10, 11, ValueError, "k=11 is not an integer in"),
])
def test_plant_rejects_bad_n_and_k_before_drawing(n, k, error, match, monkeypatch):
    def no_draw(*args):
        raise AssertionError("rng created before n and k were checked")
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(error, match=match):
        plant(n, 0.5, k, 1.0, 0)


def traced_peak(call):
    """tracemalloc peak of call(), after one untraced call warms caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# tracemalloc peaks at n = 4000, alpha = 2/3 (504k edges, an 8.1 MB edge
# array). Drawing every pair at once took 72.0 MB for both calls: the float64
# draws and their bool mask. Drawn in blocks they are 12.1 MB for gen_gnp (the codes
# collected block by block, then joined, then the edge array) and 14.7 MB for
# plant (the base codes, those kept and those merged with h's); each bound is
# that value plus 1 MB
GNP_PEAK_BYTES = 13_100_000
PLANT_PEAK_BYTES = 15_700_000


def test_gnp_and_plant_peak_memory():
    n = 4000
    assert traced_peak(lambda: gen_gnp(n, n ** (-1 / 3), 0)) <= GNP_PEAK_BYTES
    assert traced_peak(lambda: plant(n, 2 / 3, 252, 1.0, 0)) <= PLANT_PEAK_BYTES


def test_plant_clique_when_beta_one():
    inst = plant(50, 0.5, 8, 1.0, seed=3)
    assert inst.planted is not None and len(inst.planted) == 8
    rep = density_report(inst.graph, inst.planted)
    assert rep.average_degree == 7  # k^(beta-1) = 1: a clique
    assert inst.ground_truth_density == 7


def test_plant_rejects_negative_k():
    # named here, not left to fail inside numpy on a negative dimension
    with pytest.raises(ValueError, match="k=-1"):
        plant(10, 0.5, -1, 0.5, seed=0)


def test_plant_replaces_induced_edges():
    # inside the planted set only planted edges remain
    inst = plant(40, 0.7, 6, 0.5, seed=5)
    loc = set(inst.planted)
    inner = [e for e in inst.graph.edges if set(e) <= loc]
    rep = density_report(inst.graph, inst.planted)
    assert rep.edge_count == len(inner)


def test_plant_arbitrary_empty_h():
    base = gen_gnp(20, 0.3, 2)
    h = Graph.from_edges(5, [])
    inst = plant_arbitrary(base, h, range(5))
    assert density_report(inst.graph, range(5)).edge_count == 0
    # edges outside the location untouched
    outside = {e for e in base.edges if not (set(e) <= set(range(5)))}
    assert outside <= inst.graph.edges


def test_plant_arbitrary_maps_h_onto_sorted_location():
    # vertex i of h lands on the i-th smallest id of the location, whatever
    # order the location is given in; a path tells the orders apart
    base = clique(6, n=10)
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    inst = plant_arbitrary(base, path, [7, 2, 9, 4])
    assert inst.planted == (2, 4, 7, 9)
    inside = {e for e in inst.graph.edges if set(e) <= {2, 4, 7, 9}}
    assert inside == {(2, 4), (4, 7), (7, 9)}
    outside = {e for e in base.edges if not set(e) <= {2, 4, 7, 9}}
    assert inst.graph == Graph(10, sorted(outside | inside))


def test_plant_arbitrary_size_mismatch():
    with pytest.raises(ValueError):
        plant_arbitrary(gen_gnp(10, 0.2, 1), clique(3), range(4))


def test_null_instance():
    inst = null_instance(30, 0.5, 0)
    assert inst.planted is None and inst.model == "null"


# ---------------------------------------------------------------------------
# degree / intersection distinguishers


def test_degree_empty_graph_null():
    g = Graph.from_edges(10, [])
    v = degree_distinguisher(g, 3, expected_null_degree=2.0)
    assert v.value == 0.0 and v.decision == "null-model"


def test_distinguishers_degenerate_inputs_score_zero():
    assert degree_distinguisher(clique(4), 0, expected_null_degree=2.0).value == 0.0
    assert intersection_distinguisher(Graph(1, []), pair_budget=10).value == 0.0
    assert sdp_dual_distinguisher(Graph(6, []), 3).value == 0.0


def test_degree_planted_clique_fires():
    inst = plant(400, 0.5, 20, 1.0, seed=1)
    v = degree_distinguisher(inst.graph, 20, expected_null_degree=400 ** 0.5)
    assert v.decision == "planted"


def test_intersection_matching_zero():
    g = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    v = intersection_distinguisher(g, pair_budget=100)
    assert v.value == 0.0


def test_intersection_shared_neighbors():
    g = Graph.from_edges(12, [(0, i) for i in range(2, 12)]
                         + [(1, i) for i in range(2, 12)])
    v = intersection_distinguisher(g, pair_budget=200)
    assert v.value == 10


@pytest.mark.parametrize("budget", [0, -3])
def test_intersection_rejects_budget_below_one(budget):
    # unchecked, 0 scores no pair and reads "null-model", and -3 fails inside numpy
    with pytest.raises(ValueError, match="pair_budget must be positive"):
        intersection_distinguisher(gen_gnp(200, 0.05, 1), budget)


def test_intersection_sampled_deterministic():
    g = gen_gnp(100, 0.2, 3)
    a = intersection_distinguisher(g, pair_budget=50, seed=4)
    b = intersection_distinguisher(g, pair_budget=50, seed=4)
    assert a == b


# ---------------------------------------------------------------------------
# spectral


def test_lambda2_complete_graph():
    assert lambda2_estimate(clique(30)) == pytest.approx(1.0, abs=1e-4)


def test_lambda2_complete_bipartite():
    m = 8
    g = Graph.from_edges(2 * m, [(i, m + j) for i in range(m) for j in range(m)])
    assert lambda2_estimate(g) == pytest.approx(m, rel=1e-4)


def test_lambda2_two_cliques():
    m = 10
    edges = set(combinations(range(m), 2)) | \
        {(a + m, b + m) for (a, b) in combinations(range(m), 2)}
    g = Graph.from_edges(2 * m, edges)
    assert lambda2_estimate(g) == pytest.approx(m - 1, rel=1e-4)


def test_lambda2_empty():
    assert lambda2_estimate(Graph.from_edges(5, [])) == 0.0
    with pytest.raises(ValueError):
        lambda2_estimate(Graph.from_edges(0, []))


def test_lambda2_matches_dense_eig():
    g = gen_gnp(80, 0.2, 9)
    A = g.adjacency_matrix.toarray()
    n = g.n
    P = np.eye(n) - np.ones((n, n)) / n
    evs = np.linalg.eigvalsh(P @ A @ P)
    exact = max(abs(evs[0]), abs(evs[-1]))
    assert lambda2_estimate(g, seed=2) == pytest.approx(exact, rel=1e-3)


@pytest.mark.parametrize("partial", [[], [3.5]])
def test_spectral_nonconvergence_warns(monkeypatch, partial):
    import scipy.sparse.linalg as sla

    def no_convergence(*args, **kwargs):
        raise sla.ArpackNoConvergence("No convergence", np.array(partial),
                                      np.zeros((0, len(partial))))

    monkeypatch.setattr(sla, "eigsh", no_convergence)
    g = gen_gnp(60, 0.2, 1)
    with pytest.warns(UserWarning, match="did not converge"):
        lam = lambda2_estimate(g)
    with pytest.warns(UserWarning, match="did not converge"):
        cert = sdp_dual_certificate(g, 5)
    assert math.isfinite(lam) and all(math.isfinite(v) for v in cert.values())
    if partial:
        assert lam == cert["lambda2"] == 3.5


def test_spectral_distinguisher_null_vs_planted():
    rho = 0.5
    n = 400
    null = null_instance(n, rho, 11).graph
    v0 = spectral_distinguisher(null, rho, c=2.0, seed=1)
    assert v0.decision == "null-model"
    # planted dense subgraph pushes an eigenvalue past 2 n^(rho/2)
    inst = plant(n, rho, 60, 1.0, seed=11)
    v1 = spectral_distinguisher(inst.graph, rho, c=2.0, seed=1)
    assert v1.decision == "planted"


# ---------------------------------------------------------------------------
# SDP dual


def test_sdp_empty():
    out = sdp_dual_certificate(Graph.from_edges(5, []), 3)
    assert out["dual_value"] == 0.0 and out["psd_margin"] >= 0


def test_sdp_margin_nonneg_by_construction():
    for seed in range(5):
        g = gen_gnp(120, 0.1, seed)
        out = sdp_dual_certificate(g, 10)
        assert out["psd_margin"] >= -1e-9


def _dense_sdp_certificate(g, k):
    """Reference: the certificate from two dense eigvalsh calls."""
    n = g.n
    D = 2 * g.m / n
    A = g.adjacency_matrix.toarray()
    J = np.ones((n, n))
    lam2 = float(np.linalg.eigvalsh(A - (D / n) * J)[-1])
    margin = float(np.linalg.eigvalsh((D / n) * J - A + lam2 * np.eye(n))[0])
    return {"dual_value": k * k * D / n + k * lam2, "psd_margin": margin,
            "lambda2": lam2}


def test_sdp_matches_dense_oracle():
    for seed in range(5):
        g = gen_gnp(120, 0.1, seed)
        out, ref = sdp_dual_certificate(g, 10, seed=seed), _dense_sdp_certificate(g, 10)
        assert out["lambda2"] == pytest.approx(ref["lambda2"], rel=1e-9)
        assert out["dual_value"] == pytest.approx(ref["dual_value"], rel=1e-9)
        assert out["psd_margin"] >= -1e-9
        assert out["psd_margin"] == pytest.approx(ref["psd_margin"], abs=1e-9)


def test_sdp_runs_at_n_2000():
    out = sdp_dual_certificate(gen_gnp(2000, 0.01, 0), 20)
    assert out["psd_margin"] >= -1e-6
    assert 0 < out["lambda2"] < 2 * math.sqrt(2000 * 0.01) + 3


def test_sdp_weak_duality_exhaustive_small():
    # dual_value upper-bounds every k-subgraph's edge count
    for seed in range(5):
        g = gen_gnp(12, 0.5, seed)
        out = sdp_dual_certificate(g, 5)
        assert out["psd_margin"] >= -1e-9
        best = max(g.edge_count_within(c) for c in combinations(range(12), 5))
        assert out["dual_value"] >= best - 1e-9


def test_sdp_distinguisher_fires_on_planted():
    # k^2 D / n small: dense plant beats the null certificate value
    inst = plant(2000, 0.365, 20, 1.0, seed=0)
    v = sdp_dual_distinguisher(inst.graph, 20)
    assert v.decision == "planted"
    null = null_instance(2000, 0.365, 0).graph
    v0 = sdp_dual_distinguisher(null, 20)
    assert v0.decision == "null-model"


# ---------------------------------------------------------------------------
# caterpillar distinguisher


def test_caterpillar_distinguisher_empty():
    g = Graph.from_edges(10, [])
    v = caterpillar_distinguisher(g, 2, 3, budget=100)
    assert v.value == 0 and v.decision == "null-model"


def test_caterpillar_distinguisher_planted_vs_null():
    n = 500
    alpha = 2 / 3
    null = null_instance(n, alpha, 3).graph
    v0 = caterpillar_distinguisher(null, 2, 3, budget=1500, seed=3)
    assert v0.decision == "null-model"
    inst = plant(n, alpha, 80, 1.0, seed=3)
    v1 = caterpillar_distinguisher(inst.graph, 2, 3, budget=1500, seed=3)
    assert v1.decision == "planted"
