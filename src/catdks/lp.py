"""Flattened LP hierarchy for k-subgraphs of minimum degree d, with
certificate checking and export.

Variables are indexed by conditioning paths (vertex sequences). The empty
path is the root homogenizer h; a path (v1,...,vl) is the variable for vl in
the subsystem conditioned on v1,...,v(l-1). Each subsystem at a prefix q of
length <= t-1 carries the constraint families:

  k-bound:   sum_i y(q.i) <= k * y(q)
  degree:    sum_{j in Gamma(i)} y(q.i.j) >= d * y(q.i)
  symmetry:  y(q.i.j) = y(q.j.i)
  box:       0 <= y(q.i.j) <= y(q.i) <= y(q)

plus the recursion (subsystems at q.i), realized purely through indexing.
The root homogenizer is fixed to 1, recovering the unhomogenized hierarchy.
Exact rational arithmetic is the default for certificates.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Sequence, Union

from .graphs import (BudgetExceededError, Graph, induced_degrees, normalize_vertex_set,
                     vertex_array)

Path = tuple[int, ...]
Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class Constraint:
    """Normalized linear constraint: sum(coef * y_path) sense 0."""
    cid: str
    family: str
    terms: tuple[tuple[Number, Path], ...]
    sense: str  # ">=" or "=="


@dataclass
class LPInstance:
    graph: Graph
    k: int
    d: Fraction
    t: int
    variables: list[Path]
    constraints: list[Constraint]


@dataclass
class Verdict:
    feasible: bool
    violations: list[dict]


def _var_name(p: Path) -> str:
    return "h" if not p else "y_" + "_".join(str(v) for v in p)


def build_lp(g: Graph, k: int, d: Number, t: int,
             budget: int = 2_000_000) -> LPInstance:
    """Flattened depth-t instance with the root homogenizer fixed to 1.

    Variable count is sum of n^l for l = 0..t+1; raises BudgetExceededError
    when that exceeds `budget`.
    """
    if t < 1:
        raise ValueError("depth t must be >= 1")
    n = g.n
    var_count = sum(n ** l for l in range(t + 2))
    if var_count > budget:
        raise BudgetExceededError(
            f"instance needs {var_count} variables, budget {budget}")
    d = Fraction(d).limit_denominator(10**12) if not isinstance(d, Fraction) else d
    indptr, indices = (a.tolist() for a in g.csr)   # CSR rows are sorted

    variables: list[Path] = [()]
    for length in range(1, t + 2):
        variables.extend(product(range(n), repeat=length))

    # the root pin h = 1 is encoded with a constant term (path None)
    cons: list[Constraint] = [
        Constraint(cid="root-lo", family="root", terms=((1, ()), (-1, None)), sense=">="),
        Constraint(cid="root-hi", family="root", terms=((-1, ()), (1, None)), sense=">="),
    ]

    prefixes: list[Path] = [()]
    for length in range(1, t):
        prefixes.extend(product(range(n), repeat=length))

    for q in prefixes:
        qs = ".".join(map(str, q)) or "-"
        # (1) k-bound
        terms = [(Fraction(k), q)] + [(-1, q + (i,)) for i in range(n)]
        cons.append(Constraint(cid=f"kbound[{qs}]", family="k-bound",
                               terms=tuple(terms), sense=">="))
        for i in range(n):
            # (2) degree; vacuous 0 >= 0 rows (isolated vertex, d = 0) skipped
            row = indices[indptr[i]:indptr[i + 1]]
            if row or d != 0:
                terms = [(1, q + (i, j)) for j in row] + [(-d, q + (i,))]
                cons.append(Constraint(cid=f"deg[{qs}|{i}]", family="degree",
                                       terms=tuple(terms), sense=">="))
            # (4) box chain: y(q.i) <= y(q)
            cons.append(Constraint(cid=f"box-up[{qs}|{i}]", family="box",
                                   terms=((1, q), (-1, q + (i,))), sense=">="))
            for j in range(n):
                # (4) 0 <= y(q.i.j) <= y(q.i)
                cons.append(Constraint(cid=f"box-lo[{qs}|{i}.{j}]", family="box",
                                       terms=((1, q + (i, j)),), sense=">="))
                cons.append(Constraint(cid=f"box-mid[{qs}|{i}.{j}]", family="box",
                                       terms=((1, q + (i,)), (-1, q + (i, j))),
                                       sense=">="))
                if i < j:
                    # (3) symmetry
                    cons.append(Constraint(cid=f"sym[{qs}|{i}.{j}]", family="symmetry",
                                           terms=((1, q + (i, j)), (-1, q + (j, i))),
                                           sense="=="))
    return LPInstance(graph=g, k=k, d=d, t=t, variables=variables,
                      constraints=cons)


def indicator_solution(inst: LPInstance, h_set: Iterable[int],
                       g: Optional[Graph] = None) -> dict[Path, int]:
    """Canonical integral assignment: y(p) = 1 iff every vertex of p is in h_set.

    Requires |h_set| <= k and induced minimum degree of h_set >= d; the
    offending vertex is named otherwise.
    """
    g = g or inst.graph
    vs = vertex_array(g, h_set)
    if len(vs) > inst.k:
        raise ValueError(f"|h_set| = {len(vs)} exceeds k = {inst.k}")
    mset = set(vs.tolist())
    for v, deg in zip(vs.tolist(), induced_degrees(g, vs).tolist()):
        if deg < inst.d:
            raise ValueError(
                f"vertex {v} has induced degree {deg} < d = {inst.d}")
    assignment: dict[Path, int] = {}
    for p in inst.variables:
        assignment[p] = 1 if all(v in mset for v in p) else 0
    return assignment


def check_feasible(inst: LPInstance, assignment: dict[Path, Number],
                   tol: Number = 0) -> Verdict:
    """Exhaustive constraint evaluation; tol = 0 means exact rational mode."""
    exact = tol == 0
    violations: list[dict] = []
    for c in inst.constraints:
        acc: Number = Fraction(0) if exact else 0.0
        for coef, p in c.terms:
            if p is None:
                val: Number = 1  # constant term (root pin)
            else:
                if p not in assignment:
                    raise KeyError(f"assignment missing variable {_var_name(p)}")
                val = assignment[p]
            if exact:
                acc += coef * val   # int/Fraction arithmetic is exact
            else:
                acc += float(coef) * float(val)
        bad = (acc < -tol) if c.sense == ">=" else (abs(acc) > tol)
        if bad:
            violations.append({"constraint": c.cid, "family": c.family,
                               "residual": float(acc)})
    return Verdict(feasible=not violations, violations=violations)


def lp_value(assignment: dict[Path, Number], s_set: Iterable[int]) -> Number:
    """LP(S) = sum of top-level values over S."""
    total: Number = 0
    for i in normalize_vertex_set(s_set):
        if (i,) not in assignment:
            raise KeyError(f"assignment missing top-level variable y_{i}")
        total += assignment[(i,)]
    return total


def conditioned_values(assignment: dict[Path, Number], j: int,
                       n: int) -> Optional[dict[Path, Number]]:
    """Top-level values of the subsystem conditioned on vertex j:
    {y(j.i) / y(j)}. None when y(j) = 0."""
    yj = assignment[(j,)]
    if yj == 0:
        return None
    if isinstance(yj, (int, Fraction)):
        return {(i,): Fraction(assignment[(j, i)]) / Fraction(yj) for i in range(n)}
    return {(i,): assignment[(j, i)] / yj for i in range(n)}


def export_lp(inst: LPInstance, path,
              objective_weights: Optional[Sequence[Number]] = None) -> None:
    """Write the instance in LP text format.

    Objective maximizes the weighted sum of top-level variables (all-ones by
    default). Variable naming: root homogenizer "h", path p "y_v1_v2_...".
    """
    n = inst.graph.n
    w = objective_weights if objective_weights is not None else [1] * n
    if len(w) != n:
        raise ValueError("objective weight vector must have one entry per vertex")

    def fmt_coef(c: Number, first: bool) -> str:
        cf = Fraction(c).limit_denominator(10**12)
        sign = "-" if cf < 0 else ("" if first else "+")
        mag = abs(cf)
        txt = str(mag.numerator) if mag.denominator == 1 else f"{float(mag)!r}"
        return f"{sign} {txt}" if not first else f"{sign}{txt}"

    lines = ["\\ depth-%d hierarchy, k=%d, d=%s" % (inst.t, inst.k, inst.d),
             "Maximize", " obj: " + " + ".join(
                 f"{Fraction(w[i])} {_var_name((i,))}" for i in range(n))]
    lines.append("Subject To")
    for c in inst.constraints:
        parts = []
        const = Fraction(0)
        for coef, p in c.terms:
            if p is None:
                const += Fraction(coef)
            else:
                parts.append(f"{fmt_coef(coef, not parts)} {_var_name(p)}")
        op = ">=" if c.sense == ">=" else "="
        rhs = -const
        lines.append(f" {c.cid}: {' '.join(parts)} {op} {rhs}")
    lines.append("Bounds")
    lines.append(" h = 1")
    for p in inst.variables:
        if p:
            lines.append(f" 0 <= {_var_name(p)} <= 1")
    lines.append("End")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
