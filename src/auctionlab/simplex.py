"""Dense simplex for small LPs, exact by default.

Problems are maximisations over nonnegative variables with rows that are
either ``<=`` inequalities (a slack is added automatically) or equalities
that designate an initial basic variable whose column is already canonical:
coefficient 1 in its own row, absent from every other row, zero cost (the
revenue oracle uses the empty-allocation probabilities for this).  All
right-hand sides must be nonnegative, which makes the start basis feasible
and removes any need for a phase-one.

Rational mode is a certified floating-point solve (Applegate, Cook, Dash &
Espinoza, "Exact solutions to linear programming problems", Oper. Res. Lett.
2007).  The double kernel finds an optimal basis and reads the row duals y
from row 0 at the start-basis columns: the slack of each ``<=`` row and the
designated basic column of each equality row are unit columns with zero
cost, so their reduced cost is that row's dual.  x and y are rounded to
rationals with denominators at most ``DENOMINATOR_LIMIT`` and accepted only
if :func:`verify_certificate` proves, in exact arithmetic, that x is
feasible, y is dual feasible and c.x = b.y; weak duality then makes x
optimal.  Otherwise (or when the double kernel reports
``NumericalInstability`` or unboundedness) the fraction-free rational
simplex solves the LP and the result counts one fallback.

The fraction-free kernel keeps the tableau integral via Gauss-Jordan
pivoting: the true tableau is M / d where d is the previous pivot element,
and every division is exact.  Rows are numpy object arrays of Python ints so
updates run in vectorised loops.  Both kernels price by Dantzig's rule,
falling back to Bland's rule during degenerate stalls so cycling is
impossible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

STALL_LIMIT = 40
# The double kernel's zero in pricing, the ratio test and the stall test.
EPS = 1e-9
MAX_PIVOTS = 100_000
# Dense tableau cells either kernel may allocate: 2**25 cells are 256 MiB of
# float64, or of object pointers before the integers they point to.
MAX_TABLEAU_CELLS = 2 ** 25
# Largest denominator of the rationals a double solution is rounded to before
# its certificate is checked.
DENOMINATOR_LIMIT = 10 ** 6


class SimplexError(RuntimeError):
    pass


class NumericalInstability(SimplexError):
    """Double-precision run went sour; rational mode falls back by itself."""


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
    pivots: int                   # of every kernel that ran
    y: list | None = None         # row duals, when a kernel reports them
    certified: bool = False       # x and y passed verify_certificate
    fallbacks: int = 0            # rational-mode solves the fraction-free kernel redid


def solve(lp: LinearProgram, arithmetic: str = "rational") -> SimplexResult:
    if arithmetic not in ("rational", "double"):
        raise SimplexError(f"unknown arithmetic {arithmetic!r}")
    if lp.n_vars == 0 and not lp.rows:
        if arithmetic == "double":
            return SimplexResult("optimal", 0.0, [], 0, [])
        return SimplexResult("optimal", Fraction(0), [], 0, [], certified=True)
    rows = len(lp.rows) + 1
    cols = lp.n_vars + sum(1 for r in lp.rows if r.kind == "le") + 1
    if rows * cols > MAX_TABLEAU_CELLS:
        raise SimplexError(f"a {rows} x {cols} tableau has {rows * cols} cells "
                           f"(cap {MAX_TABLEAU_CELLS})")
    _check_start_basis(lp)
    if arithmetic == "double":
        return _solve_double(lp)
    return _solve_certified(lp)


def _check_start_basis(lp: LinearProgram) -> None:
    """Each equality row's designated column must be a unit column of zero
    cost, or the start tableau and the duals read from it are wrong."""
    owner = {r.basic: i for i, r in enumerate(lp.rows) if r.kind == "eq"}
    for i in owner.values():
        if lp.rows[i].coeffs.get(lp.rows[i].basic) != 1:
            raise SimplexError(
                "equality rows must carry their basic variable with coefficient 1")
    for j in owner:
        if lp.objective[j] != 0:
            raise SimplexError(f"basic variable {j} of an equality row has a nonzero cost")
    for i, row in enumerate(lp.rows):
        for j, v in row.coeffs.items():
            if v != 0 and owner.get(j, i) != i:
                raise SimplexError(
                    f"basic variable {j} of equality row {owner[j]} also appears in row {i}")


# ----------------------------------------------------------------------
# certified solve


def _solve_certified(lp: LinearProgram) -> SimplexResult:
    try:
        approx = _solve_double(lp)
    except NumericalInstability:
        approx = None
    if approx is not None and approx.status == "optimal":
        x = [_rational(v) for v in approx.x]
        y = [_rational(v) for v in approx.y]
        if not verify_certificate(lp, x, y):
            objective = sum((_exact(c) * v for c, v in zip(lp.objective, x) if v),
                            Fraction(0))
            return SimplexResult("optimal", objective, x, approx.pivots, y, certified=True)
    exact = _solve_rational(lp)
    exact.pivots += approx.pivots if approx is not None else 0
    exact.fallbacks = 1
    return exact


def _exact(v):
    """A float at its exact binary value; ints and Fractions as they are."""
    return Fraction(v) if isinstance(v, float) else v


_ZERO = Fraction(0)


def _rational(v: float) -> Fraction:
    # one shared zero: most entries of x and y are zero, and Fractions are immutable
    return Fraction(v).limit_denominator(DENOMINATOR_LIMIT) if v else _ZERO


def verify_certificate(lp: LinearProgram, x: Sequence, y: Sequence) -> list[str]:
    """Check in exact arithmetic that x is optimal with dual y; an empty list
    means the certificate holds.

    x must be feasible (x >= 0, every row holds), y dual feasible (y >= 0 on
    ``<=`` rows, y^T A >= c) and c.x = b.y.  By weak duality no feasible
    point then beats c.x.  Floats are read at their exact binary value.
    """
    if len(x) != lp.n_vars or len(y) != len(lp.rows):
        return [f"need {lp.n_vars} primal and {len(lp.rows)} dual values, "
                f"got {len(x)} and {len(y)}"]
    x = [_exact(v) for v in x]
    y = [_exact(v) for v in y]
    problems = [f"x[{j}] = {v} < 0" for j, v in enumerate(x) if v < 0]
    dual_lhs = [0] * lp.n_vars
    by = 0
    for i, (row, yi) in enumerate(zip(lp.rows, y)):
        lhs = 0
        for j, a in row.coeffs.items():
            a = _exact(a)
            if x[j]:
                lhs += a * x[j]
            if yi:
                dual_lhs[j] += a * yi
        rhs = _exact(row.rhs)
        if yi:
            by += rhs * yi
        if row.kind == "le":
            if lhs > rhs:
                problems.append(f"row {i}: {lhs} > {rhs}")
            if yi < 0:
                problems.append(f"row {i}: dual {yi} < 0 on a <= row")
        elif lhs != rhs:
            problems.append(f"row {i}: {lhs} != {rhs}")
    cx = 0
    for j, c in enumerate(lp.objective):
        c = _exact(c)
        if dual_lhs[j] < c:
            problems.append(f"column {j}: y^T A = {dual_lhs[j]} < c = {c}")
        if x[j]:
            cx += c * x[j]
    if cx != by:
        problems.append(f"c.x = {cx} != b.y = {by}")
    return problems


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
            basis[i - 1] = row.basic

    d = 1
    # scaling an equality row to integers also scales its basic coefficient;
    # one pivot on it restores the unit column (solve checked it is canonical)
    for i, row in enumerate(lp.rows, start=1):
        if row.kind == "eq" and M[i, row.basic] != 1:
            d = _pivot_int(M, d, i, row.basic)
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


def _solve_double(lp: LinearProgram) -> SimplexResult:
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
            basis[i - 1] = row.basic
    start_basis = list(basis)

    pivots = 0
    stall = 0
    last_obj = 0.0
    while True:
        row0 = M[0, :-1]
        if stall >= STALL_LIMIT:
            candidates = np.nonzero(row0 < -EPS)[0]
            col = int(candidates[0]) if candidates.size else None
        else:
            j = int(np.argmin(row0))
            col = j if row0[j] < -EPS else None
        if col is None:
            break
        ratios = np.full(m + 1, np.inf)
        positive = M[1:, col] > EPS
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
        if abs(M[0, -1] - last_obj) <= EPS * max(1.0, abs(last_obj)):
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
    y = [float(M[0, j]) for j in start_basis]
    return SimplexResult("optimal", float(M[0, -1]), x, pivots, y)
