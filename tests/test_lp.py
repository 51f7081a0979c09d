import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections.abc import MutableMapping
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
# build_lp imports scipy.sparse on its first call; importing it here keeps
# that one-time import out of the tracemalloc pins below
import scipy.sparse  # noqa: F401

from catdks.graphs import BudgetExceededError, Graph, induced_degrees
from catdks.lp import (Assignment, Paths, build_lp, check_feasible, conditioned_values,
                       Verdict, export_lp, indicator_solution, lp_value)
from catdks.models import gen_gnp, plant_arbitrary
from catdks.solvers import dks_local

DATA = Path(__file__).parent / "data"


def clique(k, n=None):
    n = n or k
    return Graph.from_edges(n, combinations(range(k), 2))


def random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    edges = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(m, 2))
             if a != b}
    return Graph.from_edges(n, edges)


def planted(n, kp, seed):
    """Random sparse noise plus a clique on the first kp vertices."""
    rng = np.random.default_rng(seed)
    noise = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(n, 2))
             if a != b}
    return Graph.from_edges(n, set(combinations(range(kp), 2)) | noise)


# ---------------------------------------------------------------------------
# construction


def test_sizes_t1_path():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    inst = build_lp(g, 2, 1, 1)
    assert len(inst.variables) == 1 + 3 + 9
    fams = {c.family for c in inst.constraints}
    assert fams == {"root", "k-bound", "degree", "box", "symmetry"}
    # one system only (prefix = root) at t=1
    assert sum(1 for c in inst.constraints if c.family == "k-bound") == 1


def test_sizes_t2():
    n = 4
    inst = build_lp(clique(n), 3, 1, 2)
    assert len(inst.variables) == 1 + n + n ** 2 + n ** 3
    assert sum(1 for c in inst.constraints if c.family == "k-bound") == 1 + n


def test_budget():
    with pytest.raises(BudgetExceededError):
        build_lp(clique(30), 5, 1, 3, budget=10_000)


def test_depth_validation():
    with pytest.raises(ValueError):
        build_lp(clique(3), 2, 1, 0)


def test_negative_k_rejected():
    # no assignment with h = 1 meets the k-bound row k * h >= sum y(i) >= 0
    with pytest.raises(ValueError, match=r"k=-1 is not an integer in \[0, inf\]"):
        build_lp(clique(3), -1, 1, 1)
    assert build_lp(clique(3), 0, 0, 1).k == 0


# ---------------------------------------------------------------------------
# indicator solutions / feasibility


def test_indicator_clique_feasible_depths():
    g = clique(5, n=9)
    for t in (1, 2, 3):
        inst = build_lp(g, 5, 4, t)
        a = indicator_solution(inst, range(5))
        verdict = check_feasible(inst, a)
        assert verdict.feasible, verdict.violations[:3]


def test_indicator_d0_any_subset():
    g = random_graph(6, 8, 0)
    inst = build_lp(g, 3, 0, 1)
    a = indicator_solution(inst, [0, 4])
    assert check_feasible(inst, a).feasible


def test_indicator_min_degree_error_names_vertex():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    inst = build_lp(g, 4, 2, 1)
    with pytest.raises(ValueError, match="vertex 3"):
        indicator_solution(inst, [0, 1, 2, 3])


def test_indicator_size_error():
    inst = build_lp(clique(4), 2, 0, 1)
    with pytest.raises(ValueError):
        indicator_solution(inst, [0, 1, 2])


def test_all_zero_with_root_pinned_is_feasible():
    inst = build_lp(clique(3), 2, 5, 1)
    a = {p: 0 for p in inst.variables}
    a[()] = 1
    assert check_feasible(inst, a).feasible


def test_perturbation_single_box_violation():
    g = clique(4, n=6)
    inst = build_lp(g, 4, 3, 1)
    a = dict(indicator_solution(inst, range(4)))
    a[(0, 0)] = Fraction(11, 10)  # above its parent y_0 = 1
    verdict = check_feasible(inst, a)
    assert not verdict.feasible
    assert len(verdict.violations) == 1
    v = verdict.violations[0]
    assert v["family"] == "box" and v["constraint"] == "box-mid[-|0.0]"


def test_values_that_are_not_real_numbers_rejected():
    # C4 with the indicator of the edge {0, 1}, and y(2) = 0.5 breaking the
    # k-bound and deg[-|2]: a complex array of the same values must not pass
    # as the truncated integers, nor Decimals fail on a missing attribute
    inst = build_lp(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 2, 1, 1)
    a = indicator_solution(inst, [0, 1]).array.astype(np.float64)
    a[inst.variables.position((2,))] = 0.5
    verdict = check_feasible(inst, Assignment(inst.variables, a))
    assert [v["constraint"] for v in verdict.violations] == ["kbound[-]", "deg[-|2]"]
    for bad, name in [(a.astype(np.complex128), "numpy.complex128"),
                      (np.array([Decimal(str(v)) for v in a], dtype=object), "decimal.Decimal"),
                      (np.array([complex(v) for v in a], dtype=object), "builtins.complex"),
                      (a.astype(bool), "numpy.bool")]:
        with pytest.raises(TypeError, match=f"type {name}"):
            check_feasible(inst, Assignment(inst.variables, bad))
    with pytest.raises(TypeError, match="builtins.str"):
        check_feasible(inst, {p: "1" for p in inst.variables})
    # integers, Fractions and floats, numpy's included, give the same verdict
    zeros = [Fraction(0), np.int32(0), np.float32(0), False, np.uint8(0)]
    for good in [a.astype(np.float32), a.astype(np.float16),
                 np.array([Fraction(v) for v in a], dtype=object),
                 np.array([Fraction(v) if v % 1 else np.int64(v) if v else zeros[i % 5]
                           for i, v in enumerate(a)], dtype=object)]:
        assert check_feasible(inst, Assignment(inst.variables, good)) == verdict


def test_missing_variable_raises():
    inst = build_lp(clique(3), 2, 1, 1)
    a = dict(indicator_solution(inst, [0, 1]))
    del a[(0, 1)]
    with pytest.raises(KeyError):
        check_feasible(inst, a)


def test_feasibility_monotone_in_d():
    g = planted(10, 4, 1)
    a3 = indicator_solution(build_lp(g, 4, 3, 1), range(4))
    for d in (3, 2, 1, 0):
        inst = build_lp(g, 4, d, 1)
        assert check_feasible(inst, a3).feasible


def test_homogeneous_scaling():
    g = clique(4, n=7)
    inst = build_lp(g, 4, 3, 2)
    a = indicator_solution(inst, range(4))
    lam = Fraction(2, 5)
    scaled = {p: v * lam for p, v in a.items()}
    # the root pin rows break (h != 1), but every homogeneous family holds
    verdict = check_feasible(inst, scaled)
    assert all(v["family"] == "root" for v in verdict.violations)


def test_float_tolerance_mode():
    inst = build_lp(clique(3), 3, 2, 1)
    a = {p: float(v) for p, v in indicator_solution(inst, range(3)).items()}
    a[(0, 1)] += 5e-10
    assert check_feasible(inst, a, tol=1e-9).feasible
    assert not check_feasible(inst, a, tol=1e-12).feasible


@pytest.mark.parametrize("tol", [float("nan"), -1e-9, -1, Fraction(-1, 3)])
def test_bad_tol_rejected(tol):
    # a NaN tol would pass an assignment that breaks the degree rows, and a
    # negative one would fail the exact indicator
    inst = build_lp(clique(4, n=5), 4, 3, 1)
    a = indicator_solution(inst, range(4))
    broken = dict(a)
    broken[(0, 1)] = 0
    assert not check_feasible(inst, broken, tol=1e-9).feasible
    for assignment in (a, broken):
        with pytest.raises(ValueError, match="tol"):
            check_feasible(inst, assignment, tol=tol)


def reference_violations(inst, assignment):
    """check_feasible's exact violations, evaluated row by row in Fractions
    from the decoded constraint records."""
    violations = []
    for c in inst.constraints:
        acc = Fraction(0)
        for coef, p in c.terms:
            acc += Fraction(coef) * Fraction(1 if p is None else assignment[p])
        if (acc < 0) if c.sense == ">=" else (acc != 0):
            violations.append({"constraint": c.cid, "family": c.family,
                               "residual": float(acc)})
    return violations


def test_exact_check_beyond_int64():
    # values near 2**62 against degree rows scaled by a denominator near
    # 10**12: the int64 bound fails, so the sums run over Python ints
    g = clique(4, n=5)
    d = Fraction(3 * 10**12 - 37, 10**12 - 11)   # just below 3
    inst = build_lp(g, 4, d, 2)
    rows = inst.constraints
    a = {p: v * 2**62 for p, v in indicator_solution(inst, range(4)).items()}
    a[(0, 1)] -= 1
    a[(1, 2, 3)] = Fraction(2**62 + 1, 3)
    a[(4,)] = -(2**62)
    assert max(map(abs, a.values())) * int(abs(rows.matrix.data).max()) >= 2**63
    verdict = check_feasible(inst, a)
    assert verdict.violations == reference_violations(inst, a)
    assert {v["family"] for v in verdict.violations} >= {"root", "degree", "symmetry",
                                                          "box"}


# ---------------------------------------------------------------------------
# paths as an index space, assignments held as arrays


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("depth", range(4))
def test_paths_match_product_list(n, depth):
    ref = [()] + [p for length in range(1, depth + 1)
                  for p in product(range(n), repeat=length)]
    paths = Paths(n, depth)
    assert len(paths) == len(ref) and list(paths) == ref
    for i, p in enumerate(ref):
        assert paths[i] == p and paths[i - len(ref)] == p
        assert paths.position(p) == i and p in paths
    for i in (len(ref), -len(ref) - 1):
        with pytest.raises(IndexError):
            paths[i]
    for bad in [(0,) * (depth + 1), (n,) * max(depth, 1), (-1,) * max(depth, 1),
                (0,) * (depth - 1) + (n,), [0], 0]:
        assert bad not in paths
        with pytest.raises(KeyError):
            paths.position(bad)


def test_paths_equal_by_shape():
    assert Paths(4, 2) == Paths(4, 2)
    assert Paths(4, 2) != Paths(4, 3) and Paths(4, 2) != Paths(3, 2)
    g = clique(4, n=6)
    assert build_lp(g, 4, 3, 2).variables == build_lp(g, 4, 1, 2).variables


def _random_path(rnd, inst):
    """A path of the instance, or now and then one it does not have."""
    if rnd.random() < 0.2:
        return rnd.choice([(inst.graph.n,), (0,) * (inst.t + 2), (-1, 0)])
    return inst.variables[rnd.randrange(len(inst.variables))]


@pytest.mark.parametrize("seed", range(25))
def test_assignment_matches_dict_under_edits(seed):
    """An Assignment reads as the dict of its items, in the same order and
    with the same value types, and refuses every edit (take dict(a) to edit)."""
    rnd = random.Random(seed)
    n, t = rnd.randint(1, 5), rnd.randint(1, 2)
    inst = build_lp(random_graph(n, 2 * n, seed), n, 0, t)
    a = indicator_solution(inst, rnd.sample(range(n), rnd.randint(0, n)))
    ref = dict(a)
    assert isinstance(a, Assignment) and not isinstance(a, MutableMapping)
    for _ in range(rnd.randint(1, 10)):
        op, p, q = rnd.choice(["get", "set", "del", "update", "pop"]), \
            _random_path(rnd, inst), _random_path(rnd, inst)
        value = rnd.choice([0, 1, 7, -3, Fraction(1, 3), 0.5])
        if op == "get":
            outcomes = []
            for m in (a, ref):
                try:
                    outcomes.append((m[p], m.get(p, "absent"), p in m))
                except KeyError:
                    outcomes.append((KeyError, m.get(p, "absent"), p in m))
            assert outcomes[0] == outcomes[1]
        elif op == "set":
            with pytest.raises(TypeError):
                a[p] = value
        elif op == "del":
            with pytest.raises(TypeError):
                del a[p]
        elif op == "update":
            with pytest.raises(AttributeError):
                a.update({p: value, q: 2})
        else:
            with pytest.raises(AttributeError):
                a.pop(p)
        assert a == ref and ref == a and a == dict(a) and len(a) == len(ref)
        assert list(a) == list(ref) and list(a.items()) == list(ref.items())
        assert list(a.values()) == list(ref.values())
        assert all(type(v) is type(ref[key]) for key, v in a.items())


@pytest.mark.parametrize("shape", [(1, 13), (12,), (14,), (), (13, 1)])
def test_assignment_array_shape_checked(shape):
    paths = Paths(3, 2)
    assert len(paths) == 13
    Assignment(paths, np.ones(13, np.int64))
    with pytest.raises(ValueError, match="shape"):
        Assignment(paths, np.ones(shape, np.int64))


def test_assignment_reads_any_number_array():
    # Fractions in an object array and float64 read back as they are held,
    # as indicator_solution's int64 reads back Python ints
    third, half, quarter = Fraction(1, 3), Fraction(1, 2), Fraction(1, 4)
    values = [1, half, third, half, quarter, quarter, third]
    a = Assignment(Paths(2, 2), np.array(values, dtype=object))
    assert a[(0,)] == half and type(a[(0,)]) is Fraction and type(a[()]) is int
    assert list(dict(a).values()) == values
    assert lp_value(a, [0, 1]) == Fraction(5, 6)
    assert conditioned_values(a, 0, 2) == {(0,): 1, (1,): half}
    b = Assignment(Paths(2, 2), np.array(values, dtype=np.float64))
    assert list(dict(b).values()) == list(map(float, values))
    assert all(type(v) is float for v in b.values())


@pytest.mark.parametrize("seed", range(30))
def test_check_feasible_assignment_matches_dict(seed):
    rnd = random.Random(seed)
    n, t = rnd.randint(1, 8), rnd.choice([1, 2])
    g = random_graph(n, rnd.randint(0, 3 * n), seed)
    members = sorted(rnd.sample(range(n), rnd.randint(1, n)))
    low = int(induced_degrees(g, np.array(members)).min())
    d = Fraction(rnd.randint(0, 3 * low), 3)
    inst = build_lp(g, len(members), d, t)
    a = indicator_solution(inst, members)
    verdict = check_feasible(inst, a)
    assert verdict.feasible and verdict == check_feasible(inst, dict(a))
    floats = Assignment(inst.variables, a.array / 3)
    for tol in (0, 1e-9):
        assert check_feasible(inst, floats, tol=tol) == check_feasible(inst, dict(floats),
                                                                      tol=tol)
    # an Assignment is read-only: edits go to a dict copy of it
    edited = dict(a)
    for _ in range(rnd.randint(1, 3)):
        edited[_random_path(rnd, inst)] = rnd.choice([2, -1, Fraction(1, 3), Fraction(-5, 2)])
    violations = reference_violations(inst, edited)
    assert check_feasible(inst, edited) == Verdict(not violations, violations)
    edited[inst.variables[rnd.randrange(len(inst.variables))]] = 0.25
    held = Assignment(inst.variables, np.array([float(edited[p]) for p in inst.variables]))
    assert check_feasible(inst, edited, tol=1e-9) == check_feasible(inst, held, tol=1e-9)
    gone = inst.variables[rnd.randrange(len(inst.variables))]
    del edited[gone]
    with pytest.raises(KeyError, match="assignment missing variable"):
        check_feasible(inst, edited)


def test_certify_shape_memory_bound():
    """build_lp, indicator_solution and check_feasible on the benchmark
    certify workload's LP shape (a K6 planted in G(36, .15); k = 6, d = 5,
    t = 2: 47,989 variables, 121,917 rows) stay under a tracemalloc peak of
    10 MiB. With the paths as a list of tuples and the indicator as a dict,
    the peak read 14.3 MiB; with Paths and an array-held Assignment it reads
    8.7 MiB."""
    noise = gen_gnp(36, 0.15, 5)
    planted = plant_arbitrary(noise, clique(6), [1, 5, 12, 20, 27, 33])
    g = planted.graph
    tracemalloc.start()
    try:
        inst = build_lp(g, 6, 5, 2)
        verdict = check_feasible(inst, indicator_solution(inst, planted.planted))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(inst.variables) == 47_989 and len(inst.constraints) == 121_917
    assert verdict.feasible
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_certify_shape_memory_one_matrix():
    """The same calls as test_certify_shape_memory_bound, with the rows held
    as one CSR matrix (int32 indices) and scale and sense held per block:
    the tracemalloc peak reads 4.93 MiB. With five row arrays of full length
    and the check's np.add.reduceat it read 8.74 MiB. The bound is 5.75 MiB,
    a margin of about 16% for allocator and numpy or scipy version
    differences."""
    noise = gen_gnp(36, 0.15, 5)
    planted = plant_arbitrary(noise, clique(6), [1, 5, 12, 20, 27, 33])
    tracemalloc.start()
    try:
        inst = build_lp(planted.graph, 6, 5, 2)
        verdict = check_feasible(inst, indicator_solution(inst, planted.planted))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.constraints.matrix.indices.dtype == np.int32 and verdict.feasible
    assert peak < 5.75 * 2**20, f"peak {peak / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# values / conditioning


def test_lp_value_indicator():
    g = clique(4, n=8)
    inst = build_lp(g, 4, 3, 1)
    a = indicator_solution(inst, range(4))
    assert lp_value(a, range(4)) == 4
    assert lp_value(a, []) == 0
    assert lp_value(a, range(8)) == 4


def test_conditioned_values():
    g = clique(4, n=6)
    inst = build_lp(g, 4, 3, 1)
    a = indicator_solution(inst, range(4))
    cond = conditioned_values(a, 0, 6)
    assert cond == {(i,): (1 if i < 4 else 0) for i in range(6)}
    assert conditioned_values(a, 5, 6) is None


def test_conditioned_system_recursion():
    # conditioning a depth-2 indicator on a member yields a depth-1 feasible point
    g = planted(8, 4, 3)
    inst2 = build_lp(g, 4, 3, 2)
    a = indicator_solution(inst2, range(4))
    inst1 = build_lp(g, 4, 3, 1)
    cond = {(): 1}
    for p in inst1.variables:
        if p:
            cond[p] = a[(0,) + p]  # y_0 = 1, so no division needed
    assert check_feasible(inst1, cond).feasible


# ---------------------------------------------------------------------------
# certificate replays


def test_dkslocal_lp_bound():
    # output average degree >= sum_j y_j |Gamma(j) cap S| / max{|S|, ceil(LP(Gamma(S)))}
    for seed in range(20):
        g = planted(12, 5, seed)
        inst = build_lp(g, 5, 4, 1)
        a = indicator_solution(inst, range(5))
        rng = np.random.default_rng(seed)
        S = sorted(set(int(x) for x in rng.integers(0, 12, size=4)))
        adj = g.adj
        gamma = sorted(set().union(*[adj[v] for v in S]))
        if not gamma:
            continue
        num = sum(a[(j,)] * len(adj[j] & set(S)) for j in gamma)
        kprime = math.ceil(lp_value(a, gamma))
        bound = num / max(len(S), max(kprime, 1))
        res = dks_local(g, S, 5)
        assert res.density >= bound - 1e-9


def test_lemma_expand_replay():
    # either dks_local is rho-dense or LP(Gamma(S)) >= d LP(S) / rho
    checked = 0
    for seed in range(100):
        g = planted(11, 5, 1000 + seed)
        d = 4
        inst = build_lp(g, 5, d, 1)
        a = indicator_solution(inst, range(5))
        rng = np.random.default_rng(seed)
        S = sorted(set(int(x) for x in rng.integers(0, 11, size=5)))
        lp_s = lp_value(a, S)
        if lp_s == 0:
            continue
        rho = Fraction(d) * Fraction(lp_s) / len(S)  # largest admissible rho
        if rho < 1:
            continue
        checked += 1
        res = dks_local(g, S, 5)
        gamma = sorted(set().union(*[g.adj[v] for v in S]))
        assert res.density >= rho - 1e-9 or \
            lp_value(a, gamma) >= Fraction(d) * lp_s / rho
    assert checked >= 30


def test_lemma_averaging_property():
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
        found = any(P_j[j] >= P / (2 * k) - 1e-12 and
                    P_j[j] >= (P / (2 * Q)) * Q_j[j] - 1e-12
                    for j in range(n))
        assert found


def test_lemma_contract_replay():
    # either rho-dense output, or some j with y_j > 0 meets both bounds
    checked = 0
    for seed in range(100):
        g = planted(10, 5, 2000 + seed)
        d, k = 4, 5
        inst = build_lp(g, k, d, 1)
        a = indicator_solution(inst, range(5))
        rng = np.random.default_rng(seed)
        S = sorted(set(int(x) for x in rng.integers(0, 10, size=5)))
        lp_s = lp_value(a, S)
        if lp_s == 0:
            continue
        checked += 1
        rho = 2
        res = dks_local(g, S, k)
        if res.density >= rho:
            continue
        b1 = Fraction(d) * lp_s / (2 * k)
        b2 = Fraction(d) * lp_s / (2 * rho * max(k, len(S)))
        found = False
        for j in range(g.n):
            if a[(j,)] == 0:
                continue
            cond = conditioned_values(a, j, g.n)
            cut = sorted(set(S) & g.adj[j])
            if not cut:
                continue
            val = sum(cond[(i,)] for i in cut)
            if val >= b1 and Fraction(val, len(cut)) >= b2:
                found = True
                break
        assert found
    assert checked >= 30


# ---------------------------------------------------------------------------
# export


def test_export_golden():
    g = Graph.from_edges(2, [(0, 1)])
    inst = build_lp(g, 2, 1, 1)
    out = DATA / "_tmp_edge_t1.lp"
    export_lp(inst, out)
    try:
        assert out.read_text() == (DATA / "lp_edge_t1.lp").read_text()
    finally:
        out.unlink()


def test_export_empty_graph(tmp_path):
    g = Graph.from_edges(3, [])
    inst = build_lp(g, 2, 0, 1)
    out = tmp_path / "empty.lp"
    export_lp(inst, out)
    text = out.read_text()
    assert "deg[" not in text
    assert "kbound[-]" in text and "box-lo" in text


# ---------------------------------------------------------------------------
# golden: sizes, export text and violation lists, recorded from the
# one-Python-object-per-row implementation


GOLDEN_CASES = {
    # name: (n, edges, k, d, t, planted set)
    "frac-d-t1": (5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], 3, Fraction(3, 2), 1,
                  [0, 1, 2]),
    "d0-isolated-t2": (4, [(0, 1), (1, 2)], 2, 0, 2, [0, 3]),
    "triangle-t3": (3, [(0, 1), (1, 2), (0, 2)], 3, 2, 3, [0, 1, 2]),
    "frac-d-t2": (5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (0, 4)],
                  4, Fraction(7, 3), 2, [0, 1, 2, 3]),
    "isolated-d1-t1": (6, [(0, 1), (1, 2), (3, 4)], 2, 1, 1, [0, 1]),
}


def _perturbed(inst, planted, kind):
    """The planted indicator with a few fixed entries moved; (assignment, tol)."""
    a = dict(indicator_solution(inst, planted))
    deep = tuple([0, 1, 2, 0][: inst.t + 1])
    if kind == "int":
        a.update({(0, 1): 2, (1,): 0, (2, 2): -1, deep: 3})
        return a, 0
    if kind == "fraction":
        a.update({(1, 2): Fraction(1, 3), (2,): Fraction(5, 7), deep: Fraction(-2, 9)})
        return a, 0
    a = {p: float(v) for p, v in a.items()}
    a[(0, 2)] += 0.25
    a[(1, 1)] -= 3e-9
    a[(2,)] += 1 / 3
    a[deep] -= 0.1
    return a, 1e-9


def _golden_record(name, tmp_path):
    n, edges, k, d, t, planted = GOLDEN_CASES[name]
    inst = build_lp(Graph.from_edges(n, edges), k, d, t)
    out = tmp_path / f"{name}.lp"
    export_lp(inst, out)
    record = {"variables": len(inst.variables), "constraints": len(inst.constraints),
              "export_sha256": hashlib.sha256(out.read_bytes()).hexdigest()}
    for kind in ("int", "fraction", "float"):
        a, tol = _perturbed(inst, planted, kind)
        record[kind] = [[v["constraint"], v["family"], v["residual"]]
                        for v in check_feasible(inst, a, tol=tol).violations]
    return record


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_lp_golden(name, tmp_path):
    golden = json.loads((DATA / "lp_golden.json").read_text())
    assert _golden_record(name, tmp_path) == golden[name]


def test_cli_import_loads_no_scipy():
    # scipy is imported inside the functions that use it, so that the CLI
    # (and every `import catdks.cli`) starts without it; the generators' worker
    # threads come from threading, so concurrent.futures stays out as well
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, catdks.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
