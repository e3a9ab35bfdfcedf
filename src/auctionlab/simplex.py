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
over the rows that column reaches and updates only those rows: any other
row would have +-0.0 subtracted, which leaves it the same number.  At an
optimal basis the double kernel reads the row duals y from row 0 at the
slack columns n..n+m-1: a slack is a unit column with zero cost, so its
reduced cost is its row's dual.  x and y are rounded to rationals with
denominators at most ``DENOMINATOR_LIMIT`` and accepted only if
:func:`verify_certificate` proves, in integer arithmetic, that x is
feasible, y >= 0, y^T A >= c and c.x = b.y; weak duality then makes x
optimal.  Otherwise (or when the double kernel reports
``NumericalInstability`` or unboundedness) the fraction-free rational
simplex solves the LP and the result counts one fallback.  It reads its
duals from row 0's slack columns too, each exact, so a caller can check a
certificate of its own on them.

The fraction-free kernel keeps the tableau integral via Gauss-Jordan
pivoting: the true tableau is M / d where d is the previous pivot element,
and every division is exact.  Both kernels hold the tableau as Python lists,
one list per row, of floats or of ints, and import nothing: the revenue
oracle hands them small blocks (see :func:`auctionlab.oracle.solve_lp`).
Both price by Dantzig's rule, falling back to Bland's rule during degenerate
stalls so cycling is impossible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

STALL_LIMIT = 40
# The double kernel's zero in pricing, the ratio test and the stall test.
EPS = 1e-9
MAX_PIVOTS = 100_000
# Tableau cells either kernel may allocate: a cell is an 8-byte list pointer
# to a 24-byte float, or to an int of 28 bytes or more, so 2**23 cells are at
# least 256 MiB.
MAX_TABLEAU_CELLS = 2 ** 23
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
    # row generation (oracle.solve_lp): its rounds, the rows its last round
    # held and the blocks they fell into, the cells of its largest block's
    # tableau, and the seconds of its one full-LP certificate
    rounds: int = 0
    active_rows: tuple = ()
    blocks: int = 0
    restricted_cells: int = 0
    certify_s: float = 0.0


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


def _integral(values: list) -> tuple[list, int]:
    """The numbers over one common denominator: (their numerators, it)."""
    if all(type(v) is int for v in values):
        return values, 1
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


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
    X, dx = _integral(x)
    problems = [f"x[{j}] = {Fraction(v, dx)} < 0" for j, v in enumerate(X) if v < 0]
    scaled = []  # per row: its coefficients and rhs times lam_i, y_i / lam_i as n, d
    for i, (row, yi) in enumerate(zip(lp.rows, y)):
        coeffs, lam = _integral([*row.coeffs.values(), row.rhs])
        b = coeffs.pop()
        coeffs = list(zip(row.coeffs, coeffs))
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
    C, dc = _integral(lp.objective)
    cx = 0
    for j, (c, s) in enumerate(zip(C, dual_lhs)):
        if s * dc < c * dy:
            problems.append(f"column {j}: y^T A = {Fraction(s, dy)} < c = {Fraction(c, dc)}")
        cx += c * X[j]
    if cx * dy != by * dc * dx:
        problems.append(f"c.x = {Fraction(cx, dc * dx)} != b.y = {Fraction(by, dy)}")
    return problems


# ----------------------------------------------------------------------
# exact kernel


def _solve_rational(lp: LinearProgram) -> SimplexResult:
    m = len(lp.rows)
    n = lp.n_vars
    M = [[0] * (n + m + 1) for _ in range(m + 1)]

    objective, obj_scale = _integral(list(lp.objective))
    M[0][:len(objective)] = [-c for c in objective]

    basis = list(range(n, n + m))
    lams = []
    for i, row in enumerate(lp.rows, start=1):
        coeffs, lam = _integral([*row.coeffs.values(), row.rhs])
        lams.append(lam)
        M[i][-1] = coeffs.pop()
        for j, v in zip(row.coeffs, coeffs):
            M[i][j] = v
        # the slack keeps coefficient 1 on the scaled row
        M[i][n + i - 1] = 1

    d = 1
    pivots = 0
    stall = 0
    last_obj = (0, 1)
    while True:
        col = _enter_rational(M[0], bland=stall >= STALL_LIMIT)
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
        obj_now = (M[0][-1], d)
        if obj_now[0] * last_obj[1] == last_obj[0] * obj_now[1]:
            stall += 1
        else:
            stall = 0
            last_obj = obj_now

    x = [Fraction(0)] * n
    for i in range(1, m + 1):
        if basis[i - 1] < n:
            x[basis[i - 1]] = Fraction(M[i][-1], d)
    objective = Fraction(M[0][-1], d) / obj_scale
    # row 0 at slack n + i is the dual of row i scaled by lam_i, with the
    # objective scaled by obj_scale
    y = [Fraction(M[0][n + i] * lam, d * obj_scale) for i, lam in enumerate(lams)]
    return SimplexResult("optimal", objective, x, pivots, y)


def _enter_rational(row0, *, bland: bool):
    costs = row0[:-1]
    if bland:
        return next((j for j, v in enumerate(costs) if v < 0), None)
    least = min(costs, default=0)
    return costs.index(least) if least < 0 else None


def _leave_rational(M, basis, col):
    best = None
    best_num = best_den = None
    for i in range(1, len(M)):
        a = M[i][col]
        if a > 0:
            b = M[i][-1]
            if best is None or b * best_den < best_num * a or (
                    b * best_den == best_num * a and basis[i - 1] < basis[best - 1]):
                best, best_num, best_den = i, b, a
    return best


def _pivot_int(M, d, pr, pc):
    """Every row but the pivot row becomes (p * row - c * pivot row) / d, c
    its entry in the pivot column; the pivot row stays."""
    top = M[pr]
    p = top[pc]
    for r, row in enumerate(M):
        c = row[pc]
        if r == pr:
            continue
        if c:
            M[r] = [(a * p - c * b) // d for a, b in zip(row, top)]
        else:
            M[r] = [a * p // d for a in row]
    return p


# ----------------------------------------------------------------------
# double kernel


def _solve_double(lp: LinearProgram) -> SimplexResult:
    m = len(lp.rows)
    n = lp.n_vars
    M = [[0.0] * (n + m + 1) for _ in range(m + 1)]
    for j, c in enumerate(lp.objective):
        M[0][j] = -float(c)
    basis = list(range(n, n + m))
    for i, row in enumerate(lp.rows, start=1):
        for j, v in row.coeffs.items():
            M[i][j] = float(v)
        M[i][-1] = float(row.rhs)
        M[i][n + i - 1] = 1.0

    pivots = 0
    stall = 0
    last_obj = 0.0
    while True:
        costs = M[0][:-1]
        if stall >= STALL_LIMIT:
            col = next((j for j, v in enumerate(costs) if v < -EPS), None)
        else:
            least = min(costs)
            col = costs.index(least) if least < -EPS else None
        if col is None:
            break
        column = [row[col] for row in M]
        rows = [r for r, a in enumerate(column) if a]  # row 0 among them: its entry is < -EPS
        pr, ratio = None, math.inf
        for r in rows:
            if column[r] > EPS and M[r][-1] / column[r] < ratio:
                pr, ratio = r, M[r][-1] / column[r]
        if pr is None:
            return SimplexResult("unbounded", None, [], pivots)
        _pivot_double(M, rows, column, pr)
        basis[pr - 1] = col
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise NumericalInstability("pivot limit exceeded in the double kernel")
        obj = M[0][-1]
        if abs(obj - last_obj) <= EPS * max(1.0, abs(last_obj)):
            stall += 1
        else:
            stall = 0
            last_obj = obj
        # a pivot row holds no nan, and any nan elsewhere needs an inf in
        # it, so a row's min and max see every entry that is not finite
        if not all(math.isfinite(min(M[r])) and math.isfinite(max(M[r])) for r in rows):
            raise NumericalInstability("the double kernel's tableau lost finiteness")

    if m and min(row[-1] for row in M[1:]) < -1e-6:
        raise NumericalInstability("the double kernel ended at an infeasible basic solution")
    x = [0.0] * n
    for i in range(1, m + 1):
        if basis[i - 1] < n:
            x[basis[i - 1]] = M[i][-1]
    return SimplexResult("optimal", M[0][-1], x, pivots, M[0][n:n + m])


def _pivot_double(M, rows, column, pr):
    """Divide row pr by its entry in the entering column and subtract that
    row, times their entry, from the other rows the column reaches; the rows
    it does not reach are not read."""
    top = [v / column[pr] for v in M[pr]]
    for r in rows:
        if r != pr:
            c = column[r]
            M[r] = [a - c * b for a, b in zip(M[r], top)]
    M[pr] = top
