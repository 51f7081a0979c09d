"""Acceptance suite: one test per shipped guarantee, one printed verdict line
each (run with -s to see them). Monte-Carlo thresholds and the oracle ratio
are frozen regressions; loosening them requires a deliberate decision.
"""
import math
from fractions import Fraction
from itertools import combinations, product

import networkx as nx
import numpy as np
import pytest

from catdks.caterpillar import (build_schedule, candidate_trace, choose_rs,
                                count_caterpillars, HAIR)
from catdks.graphs import Graph, brute_force_dks, density_report
from catdks.lp import (build_lp, check_feasible, conditioned_values,
                       indicator_solution, lp_value)
from catdks.models import (caterpillar_distinguisher, degree_distinguisher,
                           gen_gnp, intersection_distinguisher,
                           lambda2_estimate, null_instance, plant,
                           plant_arbitrary, sdp_dual_certificate,
                           sdp_dual_distinguisher, spectral_distinguisher)
from catdks.solvers import (SolverConfig, approximate, dks_cat_combinatorial,
                            dks_exp, dks_local)
from catdks.cli import main as cli_main


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {num:02d}: {detail}"


def random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    edges = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2))
             if a != b}
    return Graph.from_edges(n, edges)


def planted_noise(n, kp, seed, noise_edges=None):
    """Clique on the first kp vertices plus seeded random noise."""
    rng = np.random.default_rng(seed)
    m = noise_edges if noise_edges is not None else n
    noise = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2))
             if a != b}
    return Graph.from_edges(n, set(combinations(range(kp), 2)) | noise)


# ---------------------------------------------------------------------------
# 1. schedule shape, exhaustive over all coprime (r, s) with s <= 50


def test_01_schedule_shapes_exhaustive():
    checked = 0
    for s in range(2, 51):
        for r in range(1, s):
            if math.gcd(r, s) != 1:
                continue
            sched = build_schedule(r, s)
            assert sched.steps.count(HAIR) == r + 1
            assert sched.num_internal == s - r
            assert len(sched.steps) == s
            checked += 1
    verdict(1, True, f"{checked} coprime (r,s) schedules: r+1 hairs, "
            "s-r internal vertices each")


# ---------------------------------------------------------------------------
# 2. (2,3) count == common-neighbor count, 1000 random graphs with n <= 8


def test_02_claw_count_identity():
    sched = build_schedule(2, 3)
    rng = np.random.default_rng(202)
    for trial in range(1000):
        n = int(rng.integers(3, 9))
        g = random_graph(n, int(rng.integers(0, 2 * n)),
                         int(rng.integers(1 << 30)))
        leaves = tuple(int(x) for x in rng.integers(0, n, size=3))
        expect = len(g.adj[leaves[0]] & g.adj[leaves[1]] & g.adj[leaves[2]])
        assert count_caterpillars(g, sched, leaves) == expect
    verdict(2, True, "1000 graphs n<=8: 3-hair count equals "
            "common-neighbor count exactly")


# ---------------------------------------------------------------------------
# 3. candidate sets stay within 10x of the predicted size n^{fr(tr/s)}
#    (upper bound only: at t=s the count is Poisson(1)-like, so it is 0 with
#    constant probability and no two-sided bound can hold)


def test_03_candidate_set_concentration():
    n = 2000
    rates = {}
    for (r, s) in [(1, 2), (2, 3), (3, 5)]:
        sched = build_schedule(r, s)
        p = n ** (r / s - 1)
        hits = 0
        trials = 200
        for seed in range(trials):
            g = gen_gnp(n, p, 30_000 + seed)
            rng = np.random.default_rng(60_000 + seed)
            leaves = tuple(int(v) for v in rng.choice(n, size=r + 1,
                                                      replace=False))
            tr = candidate_trace(g, sched, leaves)
            ok = all(len(tr.sets[t]) <= 10 * n ** float(fr)
                     for t, fr in enumerate(tr.fractional_exponents, start=1))
            hits += ok
        rates[(r, s)] = hits / trials
        assert hits >= 0.9 * trials, ((r, s), hits)
    verdict(3, True, "candidate sizes within 10x of n^fr in "
            + ", ".join(f"{rs}: {v:.0%}" for rs, v in rates.items()))


# ---------------------------------------------------------------------------
# 4. five distinguishers, 50 null + 50 planted seeds each, >= 90% accuracy;
#    thresholds (the c constants below) are frozen


def _accuracy(make_null, make_planted, test, seeds=50):
    correct = 0
    for seed in range(seeds):
        if test(make_null(seed)).decision == "null-model":
            correct += 1
        if test(make_planted(seed)).decision == "planted":
            correct += 1
    return correct / (2 * seeds)


def test_04_distinguisher_accuracy():
    accs = {}

    accs["degree"] = _accuracy(
        lambda s: null_instance(400, 0.5, s).graph,
        lambda s: plant(400, 0.5, 20, 1.0, 1000 + s).graph,
        lambda g: degree_distinguisher(g, 20, expected_null_degree=400 ** 0.5,
                                       c=1.3))

    accs["intersection"] = _accuracy(
        lambda s: null_instance(300, 0.5, s).graph,
        lambda s: plant(300, 0.5, 25, 1.0, 1000 + s).graph,
        lambda g: intersection_distinguisher(g, pair_budget=50_000, c=4.0))

    accs["spectral"] = _accuracy(
        lambda s: null_instance(1000, 0.5, s).graph,
        lambda s: plant(1000, 0.5, 60, 1.0, 1000 + s).graph,
        lambda g: spectral_distinguisher(g, rho=0.5, c=2.5, seed=7))

    accs["sdp-dual"] = _accuracy(
        lambda s: null_instance(2000, 0.365, s).graph,
        lambda s: plant(2000, 0.365, 20, 1.0, 1000 + s).graph,
        lambda g: sdp_dual_distinguisher(g, 20, c=1.0))

    accs["caterpillar"] = _accuracy(
        lambda s: null_instance(2000, 2 / 3, s).graph,
        lambda s: plant(2000, 2 / 3, 159, 1.0, 1000 + s).graph,
        lambda g: caterpillar_distinguisher(g, 2, 3, budget=10_000, seed=5,
                                            c=4.0))

    for name, acc in accs.items():
        assert acc >= 0.9, (name, acc)
    verdict(4, True, "accuracy on 50+50 seeds "
            + ", ".join(f"{k}={v:.0%}" for k, v in accs.items()))


# ---------------------------------------------------------------------------
# 5. planted-regular recovery: n=1000, k=floor(sqrt n)=31, planted d-regular
#    subgraph with d=ceil(k^{3/4})=14; approximate() must reach d/(8 sqrt D)


def test_05_planted_recovery_density():
    n = 1000
    k = math.isqrt(n)
    d = math.ceil(k ** 0.75)
    hits = 0
    densities = []
    for seed in range(20):
        base = gen_gnp(n, n ** -0.5, 40_000 + seed)
        hx = nx.random_regular_graph(d, k, seed=seed)
        h = Graph.from_edges(k, hx.edges())
        rng = np.random.default_rng(70_000 + seed)
        loc = sorted(int(v) for v in rng.choice(n, size=k, replace=False))
        inst = plant_arbitrary(base, h, loc)
        bar = d / (8 * math.sqrt(inst.graph.max_degree()))
        res = approximate(inst.graph, k, SolverConfig(leaf_budget=300, seed=seed))
        densities.append(res.density)
        hits += res.density >= bar
    assert hits >= 16, (hits, densities)
    verdict(5, True, f"{hits}/20 seeds reach the d/(8 sqrt D) bar; "
            f"median density {sorted(densities)[10]:.2f}")


# ---------------------------------------------------------------------------
# 6. oracle ratio regression on a fixed seeded family, n <= 14, k <= 7.
#    Frozen worst ratio R (measured 2.0); documented constant c = 0.6 in
#    R <= c * sqrt(n_max).


R_FROZEN = 2.0
RATIO_C = 0.6


def test_06_oracle_ratio_regression():
    rng = np.random.default_rng(20260824)
    worst = 0.0
    cnt = 0
    while cnt < 200:
        n = int(rng.integers(6, 15))
        k = int(rng.integers(2, min(n, 8)))
        m = int(rng.integers(0, 3 * n))
        edges = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2))
                 if a != b}
        g = Graph.from_edges(n, edges)
        opt = brute_force_dks(g, k)
        if opt.density == 0:
            continue
        res = approximate(g, k, SolverConfig(seed=cnt))
        assert res.density > 0
        worst = max(worst, opt.density / res.density)
        cnt += 1
    assert worst <= R_FROZEN + 1e-9, worst
    assert R_FROZEN <= RATIO_C * math.sqrt(14)
    verdict(6, True, f"worst oracle ratio {worst:.3f} <= frozen {R_FROZEN} "
            f"<= {RATIO_C}*sqrt(14)")


# ---------------------------------------------------------------------------
# 7. exact rational feasibility of planted indicators at depths 1..3, and
#    100 randomized replays of the expand / averaging / contract certificates


def test_07_lp_certificates():
    # depth graded with n so the variable count stays manageable
    for t, n in [(1, 60), (2, 36), (3, 18)]:
        kp = 6
        g = planted_noise(n, kp, seed=t)
        inst = build_lp(g, kp, kp - 1, t)
        a = indicator_solution(inst, range(kp))
        res = check_feasible(inst, a)
        assert res.feasible, (t, n, res.violations[:3])

    # expand: either the local extraction is rho-dense or the neighborhood's
    # LP value is at least d * LP(S) / rho
    checked = 0
    for seed in range(100):
        g = planted_noise(11, 5, 1000 + seed)
        d = 4
        a = indicator_solution(build_lp(g, 5, d, 1), range(5))
        rng = np.random.default_rng(seed)
        S = sorted(set(int(x) for x in rng.integers(0, 11, size=5)))
        lp_s = lp_value(a, S)
        if lp_s == 0:
            continue
        rho = Fraction(d) * Fraction(lp_s) / len(S)
        if rho < 1:
            continue
        checked += 1
        gamma = sorted(set().union(*[g.adj[v] for v in S]))
        assert dks_local(g, S, 5).density >= rho - 1e-9 or \
            lp_value(a, gamma) >= Fraction(d) * lp_s / rho
    assert checked >= 30

    # averaging: some index carries both P/2k mass and P/2Q rate
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(3, 30))
        k = float(rng.uniform(1, 10))
        x = rng.uniform(0, 1, size=n)
        x *= min(1.0, k / x.sum())
        P_j = rng.uniform(0, 5, size=n)
        Q_j = rng.uniform(0, 5, size=n)
        P = float(x @ P_j)
        Q = float(x @ Q_j) + 1e-9
        if P <= 0:
            continue
        assert any(P_j[j] >= P / (2 * k) - 1e-12 and
                   P_j[j] >= (P / (2 * Q)) * Q_j[j] - 1e-12
                   for j in range(n))

    # contract: a dense output or a conditioning vertex meeting both bounds
    checked = 0
    for seed in range(100):
        g = planted_noise(10, 5, 2000 + seed)
        d, k = 4, 5
        a = indicator_solution(build_lp(g, k, d, 1), range(5))
        rng = np.random.default_rng(seed)
        S = sorted(set(int(x) for x in rng.integers(0, 10, size=5)))
        lp_s = lp_value(a, S)
        if lp_s == 0:
            continue
        checked += 1
        rho = 2
        if dks_local(g, S, k).density >= rho:
            continue
        b1 = Fraction(d) * lp_s / (2 * k)
        b2 = Fraction(d) * lp_s / (2 * rho * max(k, len(S)))
        found = False
        for j in range(g.n):
            if a[(j,)] == 0:
                continue
            cond = conditioned_values(a, j, g.n)
            cut = sorted(set(S) & g.adj[j])
            if cut:
                val = sum(cond[(i,)] for i in cut)
                if val >= b1 and Fraction(val, len(cut)) >= b2:
                    found = True
                    break
        assert found
    assert checked >= 30
    verdict(7, True, "indicators exactly feasible at depths 1-3; "
            "expand/averaging/contract replays hold on 100 cases each")


# ---------------------------------------------------------------------------
# 8. dual certificate: value within 1.1x of k(sqrt D + k^2 D/n), psd margin
#    >= -1e-6, on G(n, D/n) with n=500, D in {5, 22}


def test_08_sdp_dual_bound():
    n, k = 500, 20
    rates = {}
    for D in (5, 22):
        hits = 0
        for seed in range(50):
            g = gen_gnp(n, D / n, 80_000 + seed)
            out = sdp_dual_certificate(g, k)
            bound = k * (math.sqrt(D) + k * k * D / n)
            ok = out["dual_value"] <= 1.1 * bound and out["psd_margin"] >= -1e-6
            hits += ok
        rates[D] = hits / 50
        assert hits >= 45, (D, hits)
    verdict(8, True, "dual value within 1.1x of k(sqrt D + k^2 D/n), psd "
            + ", ".join(f"D={D}: {v:.0%}" for D, v in rates.items()))


# ---------------------------------------------------------------------------
# 9. second eigenvalue of G(n, n^{rho-1}) stays below 3 n^{rho/2}


def test_09_lambda2_bound():
    n = 1000
    rates = {}
    for rho in (0.4, 0.6):
        hits = 0
        for seed in range(50):
            g = gen_gnp(n, n ** (rho - 1), 90_000 + seed)
            hits += lambda2_estimate(g, seed=seed) <= 3 * n ** (rho / 2)
        rates[rho] = hits / 50
        assert hits >= 45, (rho, hits)
    verdict(9, True, "lambda2 <= 3 n^(rho/2) in "
            + ", ".join(f"rho={r}: {v:.0%}" for r, v in rates.items()))


# ---------------------------------------------------------------------------
# 10. byte-identical CLI output across reruns (timing sidecars excluded)


def test_10_cli_determinism(tmp_path):
    jobs = [
        (["gen", "--n", "60", "--alpha", "0.5", "--seed", "4"], "g.el"),
        (["plant", "--n", "60", "--alpha", "0.5", "--k", "8", "--beta", "1.0",
          "--seed", "4"], "p.el"),
        (["distinguish", "--test", "degree", "--n", "150", "--alpha", "0.5",
          "--k", "12", "--beta", "1.0", "--trials", "4", "--seed", "5"],
         "d.csv"),
        (["bench", "--n", "40", "--alphas", "0.4,0.5,0.6", "--trials", "2",
          "--seed", "1"], "b.csv"),
    ]
    for args, name in jobs:
        blobs = []
        for i in range(3):
            out = tmp_path / f"run{i}_{name}"
            assert cli_main(args + ["--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2], name
    # solve reads the generated graph, so run it after gen
    blobs = []
    for i in range(3):
        out = tmp_path / f"run{i}_s.json"
        assert cli_main(["solve", "--input", str(tmp_path / "run0_g.el"),
                         "--k", "8", "--seed", "3", "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    verdict(10, True, "gen/plant/solve/distinguish/bench byte-identical "
            "across 3 reruns")


# ---------------------------------------------------------------------------
# 11. cluster solver: C=2 recovers a planted K8 in n=40 noise, and C=1
#     delegates exactly to the combinatorial caterpillar solver


def test_11_cluster_solver():
    hits = 0
    for seed in range(20):
        g = planted_noise(40, 8, seed)
        res = dks_exp(g, 8, 0.25, 400, seed=seed, cluster_size=2)
        hits += res.density >= 3.5
    assert hits >= 16, hits

    agree = 0
    for seed in range(50):
        g = random_graph(16, 30, seed)
        if g.m == 0:
            continue
        a = dks_exp(g, 4, 0.01, 300, seed=seed)  # derived cluster size is 1
        beta = math.log(4) / math.log(16)
        r, s = choose_rs(min(1 - beta + 2 * beta * 0.01, 0.999), 5)
        b = dks_cat_combinatorial(g, 4, r, s, 300, seed=seed)
        assert a == b
        agree += 1
    verdict(11, True, f"C=2 recovery {hits}/20 seeds; C=1 identical to the "
            f"combinatorial solver on {agree} instances")
