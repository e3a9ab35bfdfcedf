"""Dense simplex for small LPs, exact by default.

Problems are maximisations over nonnegative variables with rows that are
either ``<=`` inequalities (a slack is added automatically) or equalities
that designate an initial basic variable whose column is already canonical
(the revenue oracle uses the empty-allocation probabilities for this).  All
right-hand sides must be nonnegative, which makes the start basis feasible
and removes any need for a phase-one.

Rational mode keeps the tableau integral via fraction-free Gauss-Jordan
pivoting: the true tableau is M / d where d is the previous pivot element,
and every division is exact.  Rows are numpy object arrays of Python ints so
updates run in vectorised loops.  Pricing is Dantzig's rule, falling back to
Bland's rule during degenerate stalls so cycling is impossible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

STALL_LIMIT = 40
MAX_PIVOTS = 100_000
# Dense tableau cells either kernel may allocate: 2**25 cells are 256 MiB of
# float64, or of object pointers before the integers they point to.
MAX_TABLEAU_CELLS = 2 ** 25


class SimplexError(RuntimeError):
    pass


class NumericalInstability(SimplexError):
    """Double-precision run went sour; retry with arithmetic='rational'."""


@dataclass
class Row:
    coeffs: Mapping[int, object]
    rhs: object
    kind: str = "le"              # "le" or "eq"
    basic: int | None = None      # required for "eq" rows

    def __post_init__(self):
        if self.kind not in ("le", "eq"):
            raise SimplexError(f"unknown row kind {self.kind!r}")
        if self.kind == "eq" and self.basic is None:
            raise SimplexError("equality rows must designate a basic variable")
        if self.rhs < 0:
            raise SimplexError("right-hand sides must be nonnegative")


@dataclass
class LinearProgram:
    n_vars: int
    objective: Sequence
    rows: list[Row] = field(default_factory=list)

    def add_le(self, coeffs: Mapping[int, object], rhs) -> None:
        self.rows.append(Row(coeffs, rhs, "le"))

    def add_eq(self, coeffs: Mapping[int, object], rhs, basic: int) -> None:
        self.rows.append(Row(coeffs, rhs, "eq", basic))


@dataclass
class SimplexResult:
    status: str                   # "optimal" | "unbounded"
    objective: object
    x: list
    pivots: int


def solve(lp: LinearProgram, arithmetic: str = "rational", *,
          eps: float = 1e-9) -> SimplexResult:
    if lp.n_vars == 0 and not lp.rows:
        return SimplexResult("optimal", Fraction(0) if arithmetic == "rational" else 0.0,
                             [], 0)
    rows = len(lp.rows) + 1
    cols = lp.n_vars + sum(1 for r in lp.rows if r.kind == "le") + 1
    if rows * cols > MAX_TABLEAU_CELLS:
        raise SimplexError(f"a {rows} x {cols} tableau has {rows * cols} cells "
                           f"(cap {MAX_TABLEAU_CELLS})")
    if arithmetic == "rational":
        return _solve_rational(lp)
    if arithmetic == "double":
        return _solve_double(lp, eps)
    raise SimplexError(f"unknown arithmetic {arithmetic!r}")


# ----------------------------------------------------------------------
# exact kernel


def _lcm_of_denominators(values) -> int:
    out = 1
    for v in values:
        f = Fraction(v)
        out = out * f.denominator // math.gcd(out, f.denominator)
    return out


def _solve_rational(lp: LinearProgram) -> SimplexResult:
    m = len(lp.rows)
    n = lp.n_vars
    n_slack = sum(1 for r in lp.rows if r.kind == "le")
    cols = n + n_slack + 1
    M = np.zeros((m + 1, cols), dtype=object)
    M[:] = 0

    obj_scale = _lcm_of_denominators(lp.objective)
    for j, c in enumerate(lp.objective):
        M[0, j] = -int(Fraction(c) * obj_scale)

    basis = [0] * m
    slack = n
    for i, row in enumerate(lp.rows, start=1):
        lam = _lcm_of_denominators(list(row.coeffs.values()) + [row.rhs])
        for j, v in row.coeffs.items():
            M[i, j] = int(Fraction(v) * lam)
        M[i, -1] = int(Fraction(row.rhs) * lam)
        if row.kind == "le":
            M[i, slack] = 1
            basis[i - 1] = slack
            slack += 1
        else:
            if M[i, row.basic] != 1:
                raise SimplexError(
                    "equality rows must carry their basic variable with coefficient 1")
            basis[i - 1] = row.basic

    d = 1
    pivots = 0
    stall = 0
    last_obj = (0, 1)
    while True:
        col = _enter_rational(M, bland=stall >= STALL_LIMIT)
        if col is None:
            break
        pr = _leave_rational(M, basis, col)
        if pr is None:
            return SimplexResult("unbounded", None, [], pivots)
        d = _pivot_int(M, d, pr, col)
        basis[pr - 1] = col
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise SimplexError("pivot limit exceeded")
        obj_now = (M[0, -1], d)
        if obj_now[0] * last_obj[1] == last_obj[0] * obj_now[1]:
            stall += 1
        else:
            stall = 0
            last_obj = obj_now

    x = [Fraction(0)] * n
    for i in range(1, m + 1):
        if basis[i - 1] < n:
            x[basis[i - 1]] = Fraction(int(M[i, -1]), d)
    objective = Fraction(int(M[0, -1]), d) / obj_scale
    return SimplexResult("optimal", objective, x, pivots)


def _enter_rational(M, *, bland: bool):
    row0 = M[0, :-1]
    if bland:
        for j in range(row0.shape[0]):
            if row0[j] < 0:
                return j
        return None
    best, best_val = None, 0
    for j in range(row0.shape[0]):
        v = row0[j]
        if v < best_val:
            best, best_val = j, v
    return best


def _leave_rational(M, basis, col):
    best = None
    best_num = best_den = None
    for i in range(1, M.shape[0]):
        a = M[i, col]
        if a > 0:
            b = M[i, -1]
            if best is None or b * best_den < best_num * a or (
                    b * best_den == best_num * a and basis[i - 1] < basis[best - 1]):
                best, best_num, best_den = i, b, a
    return best


def _pivot_int(M, d, pr, pc):
    p = int(M[pr, pc])
    row = M[pr].copy()
    col = M[:, pc].copy()
    M *= p
    M -= np.outer(col, row)
    M //= d
    M[pr] = row
    return p


# ----------------------------------------------------------------------
# double kernel


def _solve_double(lp: LinearProgram, eps: float) -> SimplexResult:
    m = len(lp.rows)
    n = lp.n_vars
    n_slack = sum(1 for r in lp.rows if r.kind == "le")
    cols = n + n_slack + 1
    M = np.zeros((m + 1, cols))
    for j, c in enumerate(lp.objective):
        M[0, j] = -float(c)
    basis = [0] * m
    slack = n
    for i, row in enumerate(lp.rows, start=1):
        for j, v in row.coeffs.items():
            M[i, j] = float(v)
        M[i, -1] = float(row.rhs)
        if row.kind == "le":
            M[i, slack] = 1.0
            basis[i - 1] = slack
            slack += 1
        else:
            if abs(M[i, row.basic] - 1.0) > eps:
                raise SimplexError(
                    "equality rows must carry their basic variable with coefficient 1")
            basis[i - 1] = row.basic

    pivots = 0
    stall = 0
    last_obj = 0.0
    while True:
        row0 = M[0, :-1]
        if stall >= STALL_LIMIT:
            candidates = np.nonzero(row0 < -eps)[0]
            col = int(candidates[0]) if candidates.size else None
        else:
            j = int(np.argmin(row0))
            col = j if row0[j] < -eps else None
        if col is None:
            break
        ratios = np.full(m + 1, np.inf)
        positive = M[1:, col] > eps
        ratios[1:][positive] = M[1:, -1][positive] / M[1:, col][positive]
        pr = int(np.argmin(ratios))
        if not np.isfinite(ratios[pr]):
            return SimplexResult("unbounded", None, [], pivots)
        piv_row = M[pr] / M[pr, col]
        M -= np.outer(M[:, col], piv_row)
        M[pr] = piv_row
        basis[pr - 1] = col
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise NumericalInstability(
                "pivot limit exceeded; retry with arithmetic='rational'")
        if abs(M[0, -1] - last_obj) <= eps * max(1.0, abs(last_obj)):
            stall += 1
        else:
            stall = 0
            last_obj = M[0, -1]
        if not np.all(np.isfinite(M)):
            raise NumericalInstability(
                "tableau lost finiteness; retry with arithmetic='rational'")

    if M[1:, -1].size and M[1:, -1].min() < -1e-6:
        raise NumericalInstability(
            "infeasible basic solution after termination; retry with "
            "arithmetic='rational'")
    x = [0.0] * n
    for i in range(1, m + 1):
        if basis[i - 1] < n:
            x[basis[i - 1]] = float(M[i, -1])
    return SimplexResult("optimal", float(M[0, -1]), x, pivots)
