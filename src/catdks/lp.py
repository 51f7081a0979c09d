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

The constraint matrix is the LP. A path of length l is variable
offset(l) + (its base-n digits), offset(l) = n^0 + ... + n^(l-1), which is
the order of `variables`; one more column holds the constant 1 of the root
pin. Every prefix has the same block of rows, so `build_lp` builds that
block once and shifts it per prefix into row-ordered integer arrays
(`LPRows`). Degree rows are scaled by d's denominator, so every coefficient
is an integer.

`check_feasible` is one reduction of coef * x[col] per row. Exact mode
(tol = 0) scales a Fraction assignment by the lcm of its denominators and
sums in int64 when max |coef| * max |x| * longest row proves that nothing
overflows, and over Python ints in object arrays otherwise. A float value,
or tol > 0, evaluates in float64, adding each row's terms in order.
Residuals are in units of the unscaled row. The `Constraint` records (cid,
family, terms) are decoded from the arrays only where they are read:
violations, `export_lp` and `inst.constraints[r]`.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Union

import numpy as np

from .graphs import BudgetExceededError, Graph, induced_degrees, vertex_array

Path = tuple[int, ...]
Number = Union[int, float, Fraction]

# row kinds of a prefix block, in cid format and family; the block's terms
# address y(q), y(q.i) and y(q.i.j) as column levels 0, 1 and 2
_KINDS = (("kbound[{q}]", "k-bound"), ("deg[{q}|{i}]", "degree"),
          ("box-up[{q}|{i}]", "box"), ("box-lo[{q}|{i}.{j}]", "box"),
          ("box-mid[{q}|{i}.{j}]", "box"), ("sym[{q}|{i}.{j}]", "symmetry"))
KBOUND, DEGREE, BOX_UP, BOX_LO, BOX_MID, SYM = range(len(_KINDS))


@dataclass(frozen=True)
class Constraint:
    """Normalized linear constraint: sum(coef * y_path) sense 0."""
    cid: str
    family: str
    terms: tuple[tuple[Number, Path], ...]
    sense: str  # ">=" or "=="


class LPRows(Sequence):
    """The constraints as a row-ordered integer matrix over the columns
    `variables` + [constant 1]: row r is sum(coef[e] * x[col[e]]) over
    e in indptr[r]:indptr[r+1], sense ">=" or "==" (`eq`) 0, and equals its
    constraint times scale[r]. Indexing decodes row r into a `Constraint`."""

    def __init__(self, variables: list[Path], indptr: np.ndarray, col: np.ndarray,
                 coef: np.ndarray, scale: np.ndarray, eq: np.ndarray,
                 block: tuple[list[int], list[int], list[int]]):
        self.variables = variables
        self.indptr, self.col, self.coef, self.scale, self.eq = indptr, col, coef, scale, eq
        self.block = block     # per block row: kind, i, j
        # |row sum| <= row_bound * max |x|: decides whether int64 is exact
        self.row_bound = int(np.abs(coef).max()) * int(np.diff(indptr).max())

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, r: int) -> Constraint:
        if not -len(self) <= r < len(self):
            raise IndexError("constraint index out of range")
        r %= len(self)
        lo, hi = int(self.indptr[r]), int(self.indptr[r + 1])
        s = int(self.scale[r])
        terms = []
        for c, e in zip(self.col[lo:hi].tolist(), self.coef[lo:hi].tolist()):
            coef = Fraction(e, s)
            terms.append((coef.numerator if coef.denominator == 1 else coef,
                          self.variables[c] if c < len(self.variables) else None))
        sense = "==" if self.eq[r] else ">="
        if r < 2:
            return Constraint(("root-lo", "root-hi")[r], "root", tuple(terms), sense)
        # blocks run over the prefixes in `variables` order, from the root
        b, local = divmod(r - 2, len(self.block[0]))
        q = self.variables[b]
        kind, i, j = (a[local] for a in self.block)
        fmt, family = _KINDS[kind]
        return Constraint(fmt.format(q=".".join(map(str, q)) or "-", i=i, j=j),
                          family, tuple(terms), sense)


@dataclass
class LPInstance:
    graph: Graph
    k: int
    d: Fraction
    t: int
    variables: list[Path]
    constraints: LPRows


@dataclass
class Verdict:
    feasible: bool
    violations: list[dict]


def _var_name(p: Path) -> str:
    return "h" if not p else "y_" + "_".join(str(v) for v in p)


def _by_row(groups) -> list[np.ndarray]:
    """Concatenate groups of fields (block rows, ...) field by field,
    broadcasting each scalar field to its group's length, and sort them by
    block row, keeping the given order within a row."""
    fields = [np.concatenate([np.broadcast_to(g[f], np.shape(g[0])) for g in groups])
              for f in range(len(groups[0]))]
    order = np.argsort(fields[0], kind="stable")
    return [a[order] for a in fields]


def _block(g: Graph, k: int, d: Fraction):
    """The rows of one prefix q, in order: k-bound; then for each i, [degree],
    box-up, and for each j, box-lo, box-mid, [sym if i < j]. Vacuous 0 >= 0
    degree rows (isolated i, d = 0) are skipped.

    Returns the terms as arrays (block row, column level, column within the
    level, coefficient), each row's terms in order, and per block row
    (kind, i, j)."""
    n = g.n
    vs = np.arange(n)
    has_deg = (g.degrees > 0) | (d != 0)
    size = has_deg + 1 + 2 * n + (n - 1 - vs)           # rows of each i
    start = 1 + np.cumsum(size) - size
    up = start + has_deg                                  # box-up[i]
    I, J = np.divmod(np.arange(n * n), n)
    lo = up[I] + 1 + 2 * J + np.maximum(J - I - 1, 0)     # box-lo[i.j]
    u = J > I
    di = vs[has_deg]
    owner, nbr = g.rows(vs)                               # CSR rows are sorted
    ij = I * n + J
    _, kind, i, j = _by_row([
        ([0], KBOUND, 0, 0), (start[di], DEGREE, di, 0), (up, BOX_UP, vs, 0),
        (lo, BOX_LO, I, J), (lo + 1, BOX_MID, I, J), (lo[u] + 2, SYM, I[u], J[u])])
    terms = _by_row([  # (block row, level, column in level, coefficient)
        ([0], 0, 0, k), (np.zeros(n, np.int64), 1, vs, -1),
        (start[owner], 2, owner * n + nbr, d.denominator), (start[di], 1, di, -d.numerator),
        (up, 0, 0, 1), (up, 1, vs, -1),
        (lo, 2, ij, 1),
        (lo + 1, 1, I, 1), (lo + 1, 2, ij, -1),
        (lo[u] + 2, 2, ij[u], 1), (lo[u] + 2, 2, (J * n + I)[u], -1)])
    return terms, (kind, i, j)


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

    variables: list[Path] = [()]
    for length in range(1, t + 2):
        variables.extend(product(range(n), repeat=length))

    (row, level, col, coef), (kind, row_i, row_j) = _block(g, k, d)
    # offset[l] is the first variable of length l; offset[t + 2] = var_count
    # is the constant column, which pins h = 1 through the two root rows
    offset = np.cumsum([0] + [n ** l for l in range(t + 2)])
    stride = n ** level
    cols = [np.array([0, var_count, 0, var_count])]
    for length in range(t):
        prefix = np.arange(n ** length)[:, None]
        cols.append((offset[length + level] + prefix * stride + col).ravel())
    blocks = int(offset[t])                 # one per prefix, in `variables` order
    lengths = np.bincount(row, minlength=len(kind))
    rows = LPRows(
        variables,
        indptr=np.concatenate([[0, 2, 4], 4 + np.cumsum(np.tile(lengths, blocks))]),
        col=np.concatenate(cols),
        coef=np.concatenate([[1, -1, -1, 1], np.tile(coef, blocks)]),
        scale=np.concatenate([[1, 1], np.tile(np.where(kind == DEGREE, d.denominator, 1),
                                              blocks)]),
        eq=np.concatenate([[False, False], np.tile(kind == SYM, blocks)]),
        block=(kind.tolist(), row_i.tolist(), row_j.tolist()))
    return LPInstance(graph=g, k=k, d=d, t=t, variables=variables, constraints=rows)


def indicator_solution(inst: LPInstance, h_set: Iterable[int]) -> dict[Path, int]:
    """Canonical integral assignment: y(p) = 1 iff every vertex of p is in h_set.

    Requires |h_set| <= k and induced minimum degree of h_set >= d; the
    offending vertex is named otherwise.
    """
    vs = vertex_array(inst.graph, h_set)
    if len(vs) > inst.k:
        raise ValueError(f"|h_set| = {len(vs)} exceeds k = {inst.k}")
    for v, deg in zip(vs.tolist(), induced_degrees(inst.graph, vs).tolist()):
        if deg < inst.d:
            raise ValueError(
                f"vertex {v} has induced degree {deg} < d = {inst.d}")
    member = np.isin(np.arange(inst.graph.n), vs).astype(np.int64)
    levels = [np.ones(1, np.int64)]
    for _ in range(inst.t + 1):            # paths of length l in base-n order
        levels.append(np.multiply.outer(levels[-1], member).ravel())
    return dict(zip(inst.variables, np.concatenate(levels).tolist()))


def check_feasible(inst: LPInstance, assignment: dict[Path, Number],
                   tol: Number = 0) -> Verdict:
    """Exhaustive constraint evaluation; tol = 0 means exact rational mode
    (float values, if any, are evaluated in float64)."""
    rows = inst.constraints
    try:
        vals = [assignment[p] for p in inst.variables]
    except KeyError as e:
        raise KeyError(f"assignment missing variable {_var_name(e.args[0])}") from None
    types = set(map(type, vals))
    if tol != 0 or any(issubclass(t, float) for t in types):
        x = np.array(vals + [1], dtype=np.float64)
        owner = np.repeat(np.arange(len(rows)), np.diff(rows.indptr))
        acc = np.zeros(len(rows))
        # unbuffered, in term order: the same float sums as a per-row loop
        np.add.at(acc, owner, (rows.coef / rows.scale[owner]).astype(np.float64)
                  * x[rows.col])
        bad = np.where(rows.eq, np.abs(acc) > float(tol), acc < -float(tol))
        sums, den = acc, None
    else:
        if types <= {int}:
            den, ints = 1, vals + [1]
        else:
            den = math.lcm(*{v.denominator for v in vals})
            ints = [v.numerator * (den // v.denominator) for v in vals] + [den]
        dtype = np.int64 if max(max(ints), -min(ints)) * rows.row_bound < 2**63 else object
        prod = rows.coef.astype(dtype, copy=False) * np.array(ints, dtype=dtype)[rows.col]
        sums = np.add.reduceat(prod, rows.indptr[:-1])
        bad = np.where(rows.eq, sums != 0, sums < 0)
    violations = []
    for r in np.flatnonzero(bad).tolist():
        c = rows[r]
        value = sums[r] if den is None else Fraction(int(sums[r]), den * int(rows.scale[r]))
        violations.append({"constraint": c.cid, "family": c.family,
                           "residual": float(value)})
    return Verdict(feasible=not violations, violations=violations)


def lp_value(assignment: dict[Path, Number], s_set: Iterable[int]) -> Number:
    """LP(S) = sum of top-level values over S."""
    total: Number = 0
    for i in sorted(set(map(int, s_set))):
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


def export_lp(inst: LPInstance, path) -> None:
    """Write the instance in LP text format.

    Objective maximizes the sum of top-level variables. Variable naming: root
    homogenizer "h", path p "y_v1_v2_...".
    """
    n = inst.graph.n

    def fmt_coef(c: Number, first: bool) -> str:
        cf = Fraction(c).limit_denominator(10**12)
        sign = "-" if cf < 0 else ("" if first else "+")
        mag = abs(cf)
        txt = str(mag.numerator) if mag.denominator == 1 else f"{float(mag)!r}"
        return f"{sign} {txt}" if not first else f"{sign}{txt}"

    lines = ["\\ depth-%d hierarchy, k=%d, d=%s" % (inst.t, inst.k, inst.d),
             "Maximize", " obj: " + " + ".join(
                 f"1 {_var_name((i,))}" for i in range(n))]
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
