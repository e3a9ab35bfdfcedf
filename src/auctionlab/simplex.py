"""Dense simplex for small LPs, with exact results.

Problems are maximisations over nonnegative variables with ``<=`` rows; row
i gets a slack at column n + i.  All right-hand sides must be nonnegative,
which makes the slack basis feasible and removes any need for a phase-one.
An equality whose zero-cost variable appears in no other row is that row's
slack: the revenue oracle states each lottery row over the nonempty feasible
sets only and leaves the empty allocation to the slack.

:func:`solve` is a certified floating-point solve (Applegate, Cook, Dash &
Espinoza, "Exact solutions to linear programming problems", Oper. Res. Lett.
2007); its result is always exact.  The double kernel is only its first
stage.  A double pivot reads its entering column once, runs the ratio test
over the rows that column reaches and updates only those rows, in place:
any other row would have +-0.0 subtracted, which leaves it bit for bit the
same, as no -0.0 reaches rows 1..m unless the LP holds one.  At an optimal
basis the double kernel reads the row duals y from row 0 at the slack
columns n..n+m-1: a slack is a unit column with zero cost, so its reduced
cost is its row's dual.  x and y are rounded to rationals with denominators
at most ``DENOMINATOR_LIMIT`` and accepted only if :func:`verify_certificate`
proves, in integer arithmetic, that x is feasible, y >= 0, y^T A >= c and
c.x = b.y; weak duality then makes x optimal.  Otherwise (or when the double
kernel reports ``NumericalInstability`` or unboundedness) the fraction-free
rational simplex solves the LP and the result counts one fallback.

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
    """Double-precision run went sour; :func:`solve` falls back by itself."""


@dataclass
class Row:
    coeffs: Mapping[int, object]
    rhs: object

    def __post_init__(self):
        if self.rhs < 0:
            raise SimplexError("right-hand sides must be nonnegative")


@dataclass
class LinearProgram:
    n_vars: int
    objective: Sequence
    rows: list[Row] = field(default_factory=list)

    def add_le(self, coeffs: Mapping[int, object], rhs) -> None:
        self.rows.append(Row(coeffs, rhs))


@dataclass
class SimplexResult:
    status: str                   # "optimal" | "unbounded"
    objective: object
    x: list
    pivots: int                   # of every kernel that ran
    y: list | None = None         # row duals, when a kernel reports them
    certified: bool = False       # x and y passed verify_certificate
    fallbacks: int = 0            # solves the fraction-free kernel redid


def solve(lp: LinearProgram) -> SimplexResult:
    """The exact optimum: the double kernel's, when its rounded certificate
    holds, else the fraction-free kernel's."""
    if lp.n_vars == 0 and not lp.rows:
        return SimplexResult("optimal", Fraction(0), [], 0, [], certified=True)
    rows = len(lp.rows) + 1
    cols = lp.n_vars + len(lp.rows) + 1
    if rows * cols > MAX_TABLEAU_CELLS:
        raise SimplexError(f"a {rows} x {cols} tableau has {rows * cols} cells "
                           f"(cap {MAX_TABLEAU_CELLS})")
    try:
        approx = _solve_double(lp)
    except NumericalInstability:
        approx = None
    if approx is not None and approx.status == "optimal":
        seen = {0.0: Fraction(0)}
        x = [_rational(v, seen) for v in approx.x]
        y = [_rational(v, seen) for v in approx.y]
        if not verify_certificate(lp, x, y):
            objective = sum((_exact(c) * v for c, v in zip(lp.objective, x) if v),
                            Fraction(0))
            return SimplexResult("optimal", objective, x, approx.pivots, y, certified=True)
    exact = _solve_rational(lp)
    exact.pivots += approx.pivots if approx is not None else 0
    exact.fallbacks = 1
    return exact


# ----------------------------------------------------------------------
# certificate


def _exact(v):
    """A float at its exact binary value; ints and Fractions as they are."""
    return Fraction(v) if isinstance(v, float) else v


def _rational(v: float, seen: dict) -> Fraction:
    # one Fraction per distinct float in a solve: x and y repeat a few values
    if v not in seen:
        seen[v] = Fraction(v).limit_denominator(DENOMINATOR_LIMIT)
    return seen[v]


def verify_certificate(lp: LinearProgram, x: Sequence, y: Sequence) -> list[str]:
    """Check in exact arithmetic that x is optimal with dual y; an empty list
    means the certificate holds.

    x must be feasible (x >= 0, every row holds), y dual feasible (y >= 0,
    y^T A >= c) and c.x = b.y.  By weak duality no feasible point then
    beats c.x.  Entries are ints, Fractions or floats, floats read at their
    exact binary value.  The checks run over integers: x over one common
    denominator, row i times the lcm lam_i of its denominators, and y_i / lam_i
    over one common denominator; only a problem's message builds Fractions.
    """
    if len(x) != lp.n_vars or len(y) != len(lp.rows):
        return [f"need {lp.n_vars} primal and {len(lp.rows)} dual values, "
                f"got {len(x)} and {len(y)}"]
    xr = [v.as_integer_ratio() for v in x]
    dx = math.lcm(*(d for _, d in xr))
    X = [n * (dx // d) for n, d in xr]
    problems = [f"x[{j}] = {Fraction(*r)} < 0" for j, r in enumerate(xr) if r[0] < 0]
    scaled = []  # per row: its coefficients and rhs times lam_i, y_i / lam_i as n, d
    for i, (row, yi) in enumerate(zip(lp.rows, y)):
        coeffs = [(j, *a.as_integer_ratio()) for j, a in row.coeffs.items()]
        bn, bd = row.rhs.as_integer_ratio()
        lam = math.lcm(bd, *(d for _, _, d in coeffs))
        coeffs = [(j, n * (lam // d)) for j, n, d in coeffs]
        b = bn * (lam // bd)
        lhs = sum(a * X[j] for j, a in coeffs)
        if lhs > b * dx:
            problems.append(f"row {i}: {Fraction(lhs, lam * dx)} > {Fraction(b, lam)}")
        yn, yd = yi.as_integer_ratio()
        if yn < 0:
            problems.append(f"row {i}: dual {Fraction(yn, yd)} < 0 on a <= row")
        scaled.append((coeffs, b, yn, yd * lam))
    dy = math.lcm(*(d for _, _, yn, d in scaled if yn))
    dual_lhs = [0] * lp.n_vars
    by = 0
    for coeffs, b, yn, d in scaled:
        if yn:
            Y = yn * (dy // d)
            by += b * Y
            for j, a in coeffs:
                dual_lhs[j] += a * Y
    cr = [c.as_integer_ratio() for c in lp.objective]
    dc = math.lcm(*(d for _, d in cr))
    cx = 0
    for j, ((cn, cd), s) in enumerate(zip(cr, dual_lhs)):
        C = cn * (dc // cd)
        if s * dc < C * dy:
            problems.append(f"column {j}: y^T A = {Fraction(s, dy)} < c = {Fraction(cn, cd)}")
        cx += C * X[j]
    if cx * dy != by * dc * dx:
        problems.append(f"c.x = {Fraction(cx, dc * dx)} != b.y = {Fraction(by, dy)}")
    return problems


# ----------------------------------------------------------------------
# exact kernel


def _lcm_of_denominators(values) -> int:
    return math.lcm(*(Fraction(v).denominator for v in values))


def _solve_rational(lp: LinearProgram) -> SimplexResult:
    m = len(lp.rows)
    n = lp.n_vars
    M = np.zeros((m + 1, n + m + 1), dtype=object)

    obj_scale = _lcm_of_denominators(lp.objective)
    for j, c in enumerate(lp.objective):
        M[0, j] = -int(Fraction(c) * obj_scale)

    basis = list(range(n, n + m))
    for i, row in enumerate(lp.rows, start=1):
        lam = _lcm_of_denominators(list(row.coeffs.values()) + [row.rhs])
        for j, v in row.coeffs.items():
            M[i, j] = int(Fraction(v) * lam)
        M[i, -1] = int(Fraction(row.rhs) * lam)
        # the slack keeps coefficient 1 on the scaled row
        M[i, n + i - 1] = 1

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


# overflow leaves an inf or a nan in the tableau, which the finiteness guard
# turns into NumericalInstability
@np.errstate(over="ignore", invalid="ignore")
def _solve_double(lp: LinearProgram) -> SimplexResult:
    m = len(lp.rows)
    n = lp.n_vars
    M = np.zeros((m + 1, n + m + 1))
    for j, c in enumerate(lp.objective):
        M[0, j] = -float(c)
    basis = list(range(n, n + m))
    for i, row in enumerate(lp.rows, start=1):
        for j, v in row.coeffs.items():
            M[i, j] = float(v)
        M[i, -1] = float(row.rhs)
        M[i, n + i - 1] = 1.0

    rhs = M[:, -1]
    pivots = 0
    stall = 0
    last_obj = 0.0
    while True:
        row0 = M[0, :-1]
        if stall >= STALL_LIMIT:
            candidates = np.nonzero(row0 < -EPS)[0]
            col = int(candidates[0]) if candidates.size else None
        else:
            j = int(row0.argmin())
            col = j if row0[j] < -EPS else None
        if col is None:
            break
        column = M[:, col]
        rows = np.flatnonzero(column)  # row 0 among them: its entry is < -EPS
        cv = column[rows]
        ratios = np.where(cv > EPS, rhs[rows] / cv, np.inf)
        k = ratios.argmin()
        if not math.isfinite(ratios[k]):
            return SimplexResult("unbounded", None, [], pivots)
        pr = int(rows[k])
        piv_row = M[pr] / cv[k]
        block = M[rows]
        block -= np.multiply.outer(cv, piv_row)
        block[k] = piv_row
        M[rows] = block
        basis[pr - 1] = col
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise NumericalInstability("pivot limit exceeded in the double kernel")
        obj = float(rhs[0])
        if abs(obj - last_obj) <= EPS * max(1.0, abs(last_obj)):
            stall += 1
        else:
            stall = 0
            last_obj = obj
        if not np.isfinite(block).all():
            raise NumericalInstability("the double kernel's tableau lost finiteness")

    if M[1:, -1].size and M[1:, -1].min() < -1e-6:
        raise NumericalInstability(
            "the double kernel ended at an infeasible basic solution")
    x = [0.0] * n
    for i in range(1, m + 1):
        if basis[i - 1] < n:
            x[basis[i - 1]] = float(M[i, -1])
    y = M[0, n:n + m].tolist()
    return SimplexResult("optimal", float(M[0, -1]), x, pivots, y)
