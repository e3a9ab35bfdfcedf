"""Dense exact simplex for small LPs.

Problems are maximisations over nonnegative variables with ``<=`` rows; row
i gets a slack at column n + i.  All right-hand sides must be nonnegative,
which makes the slack basis feasible and removes any need for a phase-one.
An equality whose zero-cost variable appears in no other row is that row's
slack: the revenue oracle states each lottery row over the nonempty feasible
sets only and leaves the empty allocation to the slack.

:func:`solve` is a fraction-free simplex: it scales each row and the
objective to integers and keeps the tableau integral via Gauss-Jordan
pivoting, where the true tableau is M / d, d the previous pivot element, and
every division is exact.  At an optimal basis it reads the row duals y from
row 0 at the slack columns n..n+m-1: a slack is a unit column with zero
cost, so its reduced cost is its row's dual.  x and y are exact, so a caller
can check them with :func:`verify_certificate`, which proves in integer
arithmetic that x is feasible, y >= 0, y^T A >= c and c.x = b.y; weak
duality then makes x optimal.  The tableau is held as Python lists of ints,
one list per row, and the module imports nothing: the revenue oracle hands
it small blocks (see :func:`auctionlab.oracle.solve_lp`).  It prices by
Dantzig's rule, its ratio test breaking ties by the first row, and falls
back to Bland's rule during degenerate stalls, ties then going to the
smallest basic index, so cycling is impossible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

STALL_LIMIT = 40
MAX_PIVOTS = 100_000
# Tableau cells the kernel may allocate: a cell is an 8-byte list pointer, to
# a shared small int or to an int of 28 bytes or more, so 2**23 cells take at
# least 64 MiB and, once the entries grow, several times that.
MAX_TABLEAU_CELLS = 2 ** 23


class SimplexError(RuntimeError):
    pass


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
    pivots: int
    y: list | None = None         # row duals, at an optimum
    certified: bool = False       # x and y passed verify_certificate
    # row generation (oracle.solve_lp): its rounds, the rows its last round
    # held and the blocks they fell into, the cells of its largest block's
    # tableau, and the seconds of its one full-LP certificate
    rounds: int = 0
    active_rows: tuple = ()
    blocks: int = 0
    restricted_cells: int = 0
    certify_s: float = 0.0


def solve(lp: LinearProgram) -> SimplexResult:
    """The exact optimum, with its row duals, by the fraction-free kernel."""
    rows = len(lp.rows) + 1
    cols = lp.n_vars + len(lp.rows) + 1
    if rows * cols > MAX_TABLEAU_CELLS:
        raise SimplexError(f"a {rows} x {cols} tableau has {rows * cols} cells "
                           f"(cap {MAX_TABLEAU_CELLS})")
    _check_indices(lp)
    return _solve_rational(lp)


def _check_indices(lp: LinearProgram) -> None:
    """Refuse an objective whose length is not n_vars and a coefficient key
    off the variables: the kernel would read them onto a slack column, wrap
    them around or leave variables unpriced."""
    n = lp.n_vars
    if len(lp.objective) != n:
        raise SimplexError(f"{len(lp.objective)} objective entries for {n} variables")
    for i, row in enumerate(lp.rows):
        if row.coeffs and (min(row.coeffs) < 0 or max(row.coeffs) >= n):
            raise SimplexError(f"row {i} has a coefficient key outside 0..{n - 1}")


# ----------------------------------------------------------------------
# certificate


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
    _check_indices(lp)
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
    M[0][:n] = [-c for c in objective]

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
        bland = stall >= STALL_LIMIT
        col = _enter_rational(M[0], bland=bland)
        if col is None:
            break
        pr = _leave_rational(M, basis, col, bland=bland)
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


def _leave_rational(M, basis, col, *, bland: bool):
    """The ratio test's row: of equal ratios the first row, or under Bland's
    rule the row of the smallest basic index."""
    best = None
    best_num = best_den = None
    for i in range(1, len(M)):
        a = M[i][col]
        if a > 0:
            b = M[i][-1]
            if best is None or b * best_den < best_num * a or (bland and (
                    b * best_den == best_num * a and basis[i - 1] < basis[best - 1])):
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
