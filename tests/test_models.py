import math
from itertools import combinations

import numpy as np
import pytest

from catdks.graphs import Graph, density_report
from catdks.models import (caterpillar_distinguisher, degree_distinguisher,
                           gen_gnp, intersection_distinguisher,
                           lambda2_estimate, null_instance, plant,
                           plant_arbitrary, planted_rayleigh,
                           sdp_dual_certificate, sdp_dual_distinguisher,
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


def test_plant_clique_when_beta_one():
    inst = plant(50, 0.5, 8, 1.0, seed=3)
    assert inst.planted is not None and len(inst.planted) == 8
    rep = density_report(inst.graph, inst.planted)
    assert rep.average_degree == 7  # k^(beta-1) = 1: a clique
    assert inst.ground_truth_density == 7


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


def test_planted_rayleigh_orthogonal_and_exact():
    g = gen_gnp(30, 0.3, 5)
    h = list(range(7))
    got = planted_rayleigh(g, h)
    # independent dense-matrix oracle
    n, k = 30, 7
    x = np.full(n, -k / (n - k))
    x[:k] = 1.0
    A = g.adjacency_matrix.toarray()
    assert abs(x.sum()) < 1e-12
    assert got == pytest.approx((x @ A @ x) / (x @ x))


def test_planted_rayleigh_clique_value():
    n, k = 40, 8
    g = clique(k, n=n)
    got = planted_rayleigh(g, range(k))
    expect = (k - 1) * k / (k + k * k / (n - k))
    assert got == pytest.approx(expect)


def test_planted_rayleigh_validates():
    with pytest.raises(ValueError):
        planted_rayleigh(clique(4), range(4))


def test_planted_rayleigh_rejects_out_of_range_ids():
    g = gen_gnp(10, 0.5, 1)
    for bad in ([0, 1, 99], [-1, 0, 1]):
        with pytest.raises(ValueError):
            planted_rayleigh(g, bad)


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
    v0 = spectral_distinguisher(null, 20, rho, c=2.0, seed=1)
    assert v0.decision == "null-model"
    # planted dense subgraph pushes an eigenvalue past 2 n^(rho/2)
    inst = plant(n, rho, 60, 1.0, seed=11)
    v1 = spectral_distinguisher(inst.graph, 60, rho, c=2.0, seed=1)
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


def test_sdp_distinguisher_witness_override():
    g = clique(6, n=30)
    v = sdp_dual_distinguisher(g, 6, witness=range(6))
    assert v.value == 15


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
