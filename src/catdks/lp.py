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

The constraint matrix is the LP. The variables are an index space
(`Paths`): a path of length l is variable offset(l) + (its base-n digits),
offset(l) = n^0 + ... + n^(l-1), and becomes a tuple only when read. One
more column holds the constant 1 of the root pin. Every prefix has the same
block of rows, so `build_lp` builds that block once and writes it per
prefix, shifted, into one integer CSR matrix (`LPRows`). Degree rows are
scaled by d's denominator, so every coefficient is an integer; the scale
and sense of a block's rows are held once.

An `Assignment` is a read-only mapping over one array of numbers in
variable order (int64 from `indicator_solution`). `check_feasible` takes
that array as it is, and reads any other mapping path by path.

`check_feasible` takes the row sums from one matvec. Exact mode (tol = 0)
scales a Fraction assignment by the lcm of its denominators and multiplies
in int64 when max |coef| * max |x| * longest row proves that nothing
overflows, and sums over Python ints otherwise. A float value, or tol > 0,
multiplies in float64, each entry over its row's scale, adding each row's
terms in order. Residuals are in units of the unscaled row. The
`Constraint` records (cid, family, terms) are decoded from the matrix only
where they are read: violations, `export_lp` and `inst.constraints[r]`.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import Iterable, Optional, Union

import numpy as np

from .graphs import BudgetExceededError, Graph, check_int, induced_degrees, vertex_array

Path = tuple[int, ...]
Number = Union[int, float, Fraction]

# row kinds of a prefix block, in cid format and family; the block's terms
# address y(q), y(q.i) and y(q.i.j) as column levels 0, 1 and 2
_KINDS = (("kbound[{q}]", "k-bound"), ("deg[{q}|{i}]", "degree"),
          ("box-up[{q}|{i}]", "box"), ("box-lo[{q}|{i}.{j}]", "box"),
          ("box-mid[{q}|{i}.{j}]", "box"), ("sym[{q}|{i}.{j}]", "symmetry"))
KBOUND, DEGREE, BOX_UP, BOX_LO, BOX_MID, SYM = range(len(_KINDS))


class Paths(Sequence):
    """The conditioning paths over vertices [0, n) of lengths 0..depth, in
    order: by length, then by base-n digits. Path p is item offsets[len(p)]
    + (its base-n digits); offsets[depth + 1] is the count. Items are decoded
    on demand, and iteration yields the tuples of `product` in this order.
    Two Paths are equal when their n and depth are."""

    def __init__(self, n: int, depth: int):
        self.n, self.depth = n, depth
        self.offsets = [0]
        for length in range(depth + 1):
            self.offsets.append(self.offsets[-1] + n ** length)

    def __len__(self) -> int:
        return self.offsets[-1]

    def __getitem__(self, i):
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError("path index out of range")
        i %= len(self)
        length = bisect_right(self.offsets, i) - 1
        digits = [0] * length
        i -= self.offsets[length]
        for pos in range(length - 1, -1, -1):
            i, digits[pos] = divmod(i, self.n)
        return tuple(digits)

    def __iter__(self):
        return chain([()], *(product(range(self.n), repeat=length)
                             for length in range(1, self.depth + 1)))

    def position(self, p) -> int:
        """The index of path p; KeyError unless p is a tuple of at most
        `depth` vertices of [0, n)."""
        if not isinstance(p, tuple) or len(p) > self.depth:
            raise KeyError(p)
        i = 0
        for v in p:
            if v not in range(self.n):
                raise KeyError(p)
            i = i * self.n + int(v)
        return self.offsets[len(p)] + i

    def __eq__(self, other):
        if not isinstance(other, Paths):
            return NotImplemented
        return (self.n, self.depth) == (other.n, other.depth)


class Assignment(Mapping):
    """A read-only value per path of `paths`, held as `array` (one number per
    path, in path order): any numbers, such as `indicator_solution`'s int64,
    a float64 primal, or Fractions in an object array. Reads return Python
    numbers, as a dict would; take dict(a) to edit."""

    def __init__(self, paths: Paths, array: np.ndarray):
        if np.shape(array) != (len(paths),):
            raise ValueError(f"assignment array of shape {np.shape(array)}, "
                             f"expected ({len(paths)},)")
        self.paths, self.array = paths, array

    def __getitem__(self, p):
        i = self.paths.position(p)
        return self.array[i:i + 1].tolist()[0]

    def __iter__(self):
        return iter(self.paths)

    def __len__(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class Constraint:
    """Normalized linear constraint: sum(coef * y_path) sense 0."""
    cid: str
    family: str
    terms: tuple[tuple[Number, Path], ...]
    sense: str  # ">=" or "=="


class LPRows(Sequence):
    """The constraints as one integer CSR matrix (`matrix`) over the columns
    `variables` + [constant 1]: row r is matrix[r] @ x, sense ">=" or "==" 0,
    and equals its constraint times its scale. Rows 0 and 1 pin h = 1 (scale
    1, ">="); then each prefix, in `variables` order, has one block of rows,
    whose row j has scale[j], is "==" where eq[j], and is labelled by
    `block`. Indexing decodes row r into a `Constraint`."""

    def __init__(self, variables: Paths, matrix, scale: np.ndarray, eq: np.ndarray,
                 block: tuple[list[int], list[int], list[int]]):
        self.variables, self.matrix, self.scale, self.eq = variables, matrix, scale, eq
        self.block = block     # per block row: kind, i, j

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __getitem__(self, r: int) -> Constraint:
        cid, family, terms, sense = self.row(r)
        nv = len(self.variables)
        return Constraint(cid, family, tuple((e, self.variables[c] if c < nv else None)
                                             for e, c in terms), sense)

    def row(self, r: int) -> tuple[str, str, list[tuple[Number, int]], str]:
        """Row r as (cid, family, [(coefficient, column)], sense): its
        constraint with each path left as its column."""
        if not -len(self) <= r < len(self):
            raise IndexError("constraint index out of range")
        r %= len(self)
        lo, hi = self.matrix.indptr[r:r + 2].tolist()
        coefs, cols = self.matrix.data[lo:hi].tolist(), self.matrix.indices[lo:hi].tolist()
        if r < 2:
            return ("root-lo", "root-hi")[r], "root", list(zip(coefs, cols)), ">="
        b, local = divmod(r - 2, len(self.scale))
        s = int(self.scale[local])
        if s != 1:
            coefs = [f.numerator if f.denominator == 1 else f
                     for f in (Fraction(e, s) for e in coefs)]
        kind, i, j = (a[local] for a in self.block)
        fmt, family = _KINDS[kind]
        return (fmt.format(q=".".join(map(str, self.variables[b])) or "-", i=i, j=j), family,
                list(zip(coefs, cols)), "==" if self.eq[local] else ">=")


@dataclass
class LPInstance:
    graph: Graph
    k: int
    d: Fraction
    t: int
    variables: Paths
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


def _tiled(head, block: np.ndarray, times: int) -> np.ndarray:
    """head followed by `times` copies of block, in one array of block's dtype."""
    out = np.empty(len(head) + times * len(block), dtype=block.dtype)
    out[:len(head)] = head
    out[len(head):].reshape(times, -1)[:] = block
    return out


def build_lp(g: Graph, k: int, d: Number, t: int,
             budget: int = 2_000_000) -> LPInstance:
    """Flattened depth-t instance with the root homogenizer fixed to 1.

    Variable count is sum of n^l for l = 0..t+1; raises BudgetExceededError
    when that exceeds `budget`.
    """
    check_int("k", k, 0)
    check_int("t", t, 1)
    n = g.n
    variables = Paths(n, t + 1)
    if len(variables) > budget:
        raise BudgetExceededError(
            f"instance needs {len(variables)} variables, budget {budget}")
    d = Fraction(d).limit_denominator(10**12) if not isinstance(d, Fraction) else d

    (row, level, col, coef), (kind, row_i, row_j) = _block(g, k, d)
    # offset[l] is the first variable of length l; offset[t + 2], the
    # variable count, is the constant column, which pins h = 1 through the
    # two root rows
    offset = np.array(variables.offsets)
    blocks = int(offset[t])                 # one per prefix, in `variables` order
    # int32 indices when they fit, which scipy keeps without a copy
    index = np.int32 if max(4 + blocks * len(col), offset[-1] + 1) < 2**31 else np.int64
    # each array is the root rows' entries, then one (blocks, block) table
    # written in place
    cols = _tiled([0, offset[-1], 0, offset[-1]], col.astype(index), blocks)
    for length in range(t):                 # prefixes p of this length
        p = cols[4:].reshape(blocks, -1)[offset[length]:offset[length + 1]]
        np.multiply(np.arange(len(p))[:, None], n ** level, out=p)
        p += offset[length + level] + col
    indptr = _tiled([0, 2, 4], 4 + np.cumsum(np.bincount(row, minlength=len(kind)),
                                             dtype=index), blocks)
    indptr[3:].reshape(blocks, -1)[:] += len(col) * np.arange(blocks)[:, None]
    from scipy.sparse import csr_array
    matrix = csr_array((_tiled([1, -1, -1, 1], coef, blocks), cols, indptr),
                       shape=(len(indptr) - 1, offset[-1] + 1))
    rows = LPRows(variables, matrix, scale=np.where(kind == DEGREE, d.denominator, 1),
                  eq=kind == SYM, block=(kind.tolist(), row_i.tolist(), row_j.tolist()))
    return LPInstance(graph=g, k=k, d=d, t=t, variables=variables, constraints=rows)


def indicator_solution(inst: LPInstance, h_set: Iterable[int]) -> Assignment:
    """Canonical integral assignment: y(p) = 1 iff every vertex of p is in h_set,
    held as an int64 array over `inst.variables`.

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
    n, offset = inst.graph.n, inst.variables.offsets
    member = np.isin(np.arange(n), vs).astype(np.int64)
    values = np.ones(len(inst.variables), np.int64)
    for length in range(1, inst.t + 2):    # paths of this length in base-n order
        out = values[offset[length]:offset[length + 1]].reshape(n ** (length - 1), n)
        np.multiply.outer(values[offset[length - 1]:offset[length]], member, out=out)
    return Assignment(inst.variables, values)


def _value_vector(inst: LPInstance, assignment) -> np.ndarray:
    """The assignment's values in `inst.variables` order: the array of an
    Assignment over equal paths, else an object array of the values read
    path by path."""
    if isinstance(assignment, Assignment) and assignment.paths == inst.variables:
        return assignment.array
    try:
        return np.array([assignment[p] for p in inst.variables], dtype=object)
    except KeyError as e:
        raise KeyError(f"assignment missing variable {_var_name(e.args[0])}") from None


# the numbers an assignment may hold, by the kind check_feasible reads them as
_REAL = {int: (int, np.integer), Fraction: Fraction, float: (float, np.floating)}


def _kinds(vals: np.ndarray) -> set[type]:
    """The kinds (int, Fraction, float) among the values; TypeError names the
    type of any value of another kind, such as complex or Decimal."""
    kinds = set()
    for t in set(map(type, vals)) if vals.dtype == object else {vals.dtype.type}:
        kind = next((k for k, bases in _REAL.items() if issubclass(t, bases)), None)
        if kind is None:
            raise TypeError(f"assignment value of type {t.__module__}.{t.__qualname__}, "
                            "expected an integer, Fraction or float")
        kinds.add(kind)
    return kinds


def check_feasible(inst: LPInstance, assignment: Mapping[Path, Number],
                   tol: Number = 0) -> Verdict:
    """Exhaustive constraint evaluation; tol = 0 means exact rational mode
    (float values, if any, are evaluated in float64). A tol that is negative
    or NaN raises ValueError; a value that is not an integer, Fraction or
    float raises TypeError."""
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    rows = inst.constraints
    A, width = rows.matrix, len(rows.scale)
    head = A.indptr[:width + 3]         # the root rows and the first block, which recurs
    vals = _value_vector(inst, assignment)
    kinds = _kinds(vals)
    if tol != 0 or float in kinds:
        x = np.append(vals.astype(np.float64), 1.0)
        data = A.data.astype(np.float64)    # each entry over its row's scale
        data[4:].reshape(-1, head[-1] - 4)[:] /= np.repeat(rows.scale, np.diff(head[2:]))
        # the matvec adds each row's terms in order, as a per-row loop does
        sums, den, lim = type(A)((data, A.indices, A.indptr), shape=A.shape) @ x, None, float(tol)
    else:
        den, lim = 1, 0
        if vals.dtype == object:        # to Python ints over one denominator
            den = math.lcm(*{int(v.denominator) for v in vals})
            vals = np.array([int(v.numerator) * (den // int(v.denominator)) for v in vals],
                            dtype=object)
        top = max(int(vals.max()), -int(vals.min()), den)
        # int64 when |row sum| <= top * max |coef| * longest row cannot overflow
        fits = top * int(abs(A.data[:head[-1]]).max()) * int(np.diff(head).max()) < 2**63
        x = np.append(vals.astype(np.int64 if fits else object), den)
        if fits:
            sums = A @ x
        else:                           # over Python ints, a row's terms by hand
            sums = np.add.reduceat(x[A.indices] * A.data, A.indptr[:-1])
    body = sums[2:].reshape(-1, width)
    bad = np.concatenate([sums[:2] < -lim, ((body < -lim) | rows.eq & (body > lim)).ravel()])
    violations = []
    for r in np.flatnonzero(bad).tolist():
        cid, family, _, _ = rows.row(r)
        scale = 1 if r < 2 else int(rows.scale[(r - 2) % width])
        value = sums[r] if den is None else Fraction(int(sums[r]), den * scale)
        violations.append({"constraint": cid, "family": family, "residual": float(value)})
    return Verdict(feasible=not violations, violations=violations)


def lp_value(assignment: Mapping[Path, Number], s_set: Iterable[int]) -> Number:
    """LP(S) = sum of top-level values over S."""
    total: Number = 0
    for i in sorted(set(map(int, s_set))):
        if (i,) not in assignment:
            raise KeyError(f"assignment missing top-level variable y_{i}")
        total += assignment[(i,)]
    return total


def conditioned_values(assignment: Mapping[Path, Number], j: int,
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
        cf = Fraction(c)
        sign = "-" if cf < 0 else ("" if first else "+")
        mag = abs(cf)
        txt = str(mag.numerator) if mag.denominator == 1 else f"{float(mag)!r}"
        return f"{sign} {txt}" if not first else f"{sign}{txt}"

    lines = ["\\ depth-%d hierarchy, k=%d, d=%s" % (inst.t, inst.k, inst.d),
             "Maximize", " obj: " + " + ".join(
                 f"1 {_var_name((i,))}" for i in range(n))]
    lines.append("Subject To")
    names = [_var_name(p) for p in inst.variables]   # by column
    rows = inst.constraints
    for r in range(len(rows)):
        cid, _, terms, sense = rows.row(r)
        parts = []
        const = Fraction(0)
        for coef, c in terms:
            if c == len(names):
                const += Fraction(coef)
            else:
                parts.append(f"{fmt_coef(coef, not parts)} {names[c]}")
        op = ">=" if sense == ">=" else "="
        rhs = -const
        lines.append(f" {cid}: {' '.join(parts)} {op} {rhs}")
    lines.append("Bounds")
    lines.append(" h = 1")
    lines.extend(f" 0 <= {name} <= 1" for name in names[1:])
    lines.append("End")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
