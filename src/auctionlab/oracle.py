"""Exact optimal ex-post-IC, ex-post-IR expected revenue via linear programming.

The benchmark optimises over randomized mechanisms: at every support profile
the mechanism holds a probability distribution over feasible sets plus a
payment per agent.  Every other grid profile gets the empty allocation at
zero payment.  Constraints are the simplex rows (one per support profile),
nonnegative truthful utility for every agent at every support profile, and
truth-telling between neighbouring support points of each column: a column
fixes the others' signals s_-i, and each support point must not gain by
reporting the next support point above or below it in that column.  When
the valuations fail the monotonicity check, truth-telling binds every pair
of support points of a column instead.

Columns are addressed by position.  With the support profiles sorted and
the feasible sets F in ``feasible_sets()`` order, support profile i and set
f own allocation column i * |F| + f, and agent k's payment at support
profile i owns column |support| * |F| + i * n + k.

Why the optimum is the full-grid optimum, the LP with a variable at every
grid profile and truth-telling against every own-grid deviation:

* This LP's rows are a subset of the full-grid LP's, and none of them reads
  an off-support variable, so the support part of any full-grid solution is
  feasible here with the same revenue: this optimum is at least the
  full-grid one.
* Completed with empty, zero-payment cells off the support, this LP's
  solution is feasible for the full-grid LP, so the optimum is also at most
  the full-grid one.  A deviation to an off-support profile earns zero
  utility, which participation already bounds.  Deviations within a column
  are bound directly when monotonicity fails.  Otherwise values rise
  strictly in the agent's own signal, so truth-telling in both directions
  between neighbours makes the service probability monotone, and monotone
  service with neighbour truth-telling gives truth-telling against every
  support point of the column (the local-to-global argument; Myerson 1981,
  and Roughgarden & Talgam-Cohen, EC 2013, for interdependent values).
  :func:`verify_witness` re-checks this on every solution against every
  own-grid deviation.

The solution is exact: rational mode accepts a floating-point solve only
with a checked primal-dual certificate (see :mod:`auctionlab.simplex`).
The optimum weakly dominates every implemented auction, so approximation
ratios measured against it are conservative.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .distributions import RATIONAL
from .mechanisms import Instance
from .simplex import LinearProgram, SimplexResult, solve
from .valuations import value

DEFAULT_VAR_CAP = 200_000


class LPSizeError(RuntimeError):
    """The instance needs more LP variables than the configured cap."""


@dataclass(frozen=True)
class LPStats:
    profiles: int                 # grid profiles
    support: int                  # support profiles, the LP's profiles
    feasible_sets: int
    y_vars: int
    p_vars: int
    simplex_rows: int
    ic_rows: int
    ir_rows: int

    @property
    def variables(self) -> int:
        return self.y_vars + self.p_vars

    @property
    def rows(self) -> int:
        return self.simplex_rows + self.ic_rows + self.ir_rows


@dataclass
class RevenueLP:
    """The LP and its column order: support profile i and feasible set f own
    column i * |F| + f, and agent k's payment at i column y_vars + i * n + k."""

    instance: Instance
    lp: LinearProgram
    support: list
    feasible: list
    stats: LPStats


@dataclass
class OptResult:
    value: object
    witness: dict
    stats: LPStats
    solution: SimplexResult


def _truth_telling_pairs(instance: Instance, numbers: list, k: int):
    """Positions of support pairs that differ only in agent k's signal, given
    the support's profile numbers: neighbours within each column, or every
    pair when monotonicity fails."""
    columns: dict = {}
    for i, number in enumerate(numbers):
        columns.setdefault(instance.grid.column(k, number)[0], []).append(i)
    every_pair = bool(instance.assumption_report()["monotonicity"])
    for column in columns.values():
        if every_pair:
            yield from itertools.combinations(column, 2)
        else:
            yield from zip(column, column[1:])


def build_revenue_lp(instance: Instance, var_cap: int = DEFAULT_VAR_CAP) -> RevenueLP:
    """Assemble the revenue LP; errors out with exact counts past the cap."""
    agents = instance.agents
    n = len(agents)
    support = sorted(instance.dist.support_profiles())
    feasible = instance.feas.feasible_sets()
    n_f = len(feasible)
    n_y = len(support) * n_f
    n_p = len(support) * n
    if n_y + n_p > var_cap:
        raise LPSizeError(
            f"{n_y} allocation + {n_p} payment variables exceed the cap {var_cap}")

    values = [tuple(instance.values_at(s).values()) for s in support]
    objective = [0] * n_y + [instance.dist.probability(s) for s in support for _ in agents]
    lp = LinearProgram(n_y + n_p, objective)
    empty = feasible.index(frozenset())
    for i in range(len(support)):
        lp.add_eq({i * n_f + f: 1 for f in range(n_f)}, 1, basic=i * n_f + empty)

    serving = [[f for f, fs in enumerate(feasible) if a in fs] for a in agents]

    def add_ic(k, i, j):
        """Agent k gains nothing at support profile i by reporting j."""
        v_true = values[i][k]
        coeffs: dict = {}
        if v_true != 0:
            for f in serving[k]:
                coeffs[j * n_f + f] = v_true
                coeffs[i * n_f + f] = -v_true
        coeffs[n_y + j * n + k] = -1
        coeffs[n_y + i * n + k] = 1
        lp.add_le(coeffs, 0)

    n_ic = 0
    numbers = [instance.grid.number(s) for s in support]
    for k in range(n):
        for i, j in _truth_telling_pairs(instance, numbers, k):
            add_ic(k, i, j)
            add_ic(k, j, i)
            n_ic += 2

    for i in range(len(support)):
        for k in range(n):
            v = values[i][k]
            coeffs = {i * n_f + f: -v for f in serving[k]} if v != 0 else {}
            coeffs[n_y + i * n + k] = 1
            lp.add_le(coeffs, 0)

    grid = math.prod(len(instance.grid.axis(a)) for a in agents)
    stats = LPStats(profiles=grid, support=len(support),
                    feasible_sets=n_f, y_vars=n_y, p_vars=n_p,
                    simplex_rows=len(support), ic_rows=n_ic,
                    ir_rows=len(support) * n)
    return RevenueLP(instance, lp, support, feasible, stats)


def solve_lp(rlp: RevenueLP, arithmetic: str | None = None) -> SimplexResult:
    mode = arithmetic or rlp.instance.arithmetic
    return solve(rlp.lp, "rational" if mode == RATIONAL else "double")


def witness_mechanism(rlp: RevenueLP, solution: SimplexResult) -> dict:
    """Support profile -> (allocation, payments): the allocation lottery as
    (feasible set, probability) pairs with nonzero probability, and the
    payments in agent order.  Absent grid profiles are the empty cell."""
    x = solution.x
    n_f = len(rlp.feasible)
    n = len(rlp.instance.agents)
    pay = rlp.stats.y_vars
    witness = {}
    for i, s in enumerate(rlp.support):
        lottery = zip(rlp.feasible, x[i * n_f:(i + 1) * n_f])
        alloc = tuple((f, p) for f, p in lottery if p != 0)
        witness[s] = (alloc, tuple(x[pay + i * n:pay + (i + 1) * n]))
    return witness


def opt_revenue(instance: Instance, var_cap: int = DEFAULT_VAR_CAP,
                arithmetic: str | None = None) -> OptResult:
    """Optimal expected revenue plus the mechanism achieving it."""
    rlp = build_revenue_lp(instance, var_cap)
    solution = solve_lp(rlp, arithmetic)
    if solution.status != "optimal":
        raise RuntimeError(f"revenue LP terminated {solution.status}")
    return OptResult(solution.objective, witness_mechanism(rlp, solution),
                     rlp.stats, solution)


def verify_witness(instance: Instance, witness: Mapping) -> list[str]:
    """Re-check a witness against every full-grid constraint; empty list
    means clean.

    Every cell's lottery is checked, and every agent at every support
    profile against every own-grid deviation, with service probabilities
    derived from the lotteries.  A profile missing from the witness is the
    empty, zero-payment cell.  Exact in rational mode; double mode lets
    rounding noise up to ``DOUBLE_TOLERANCE`` pass, as the IC/IR audit does.
    """
    tolerance = instance.tolerance
    problems = []
    agents = instance.agents
    none = (0,) * len(agents)
    served, paid = {}, {}
    for s, (alloc, payments) in witness.items():
        total = sum((p for _, p in alloc), Fraction(0))
        if not abs(total - 1) <= tolerance:
            problems.append(f"allocation at {s} sums to {total}")
        for f, p in alloc:
            if p < -tolerance:
                problems.append(f"negative lottery weight at {s}")
            if not instance.feas.is_independent(f):
                problems.append(f"infeasible set {sorted(map(str, f))} at {s}")
        if len(payments) != len(agents):
            problems.append(f"{len(payments)} payments at {s} for {len(agents)} agents")
            continue
        served[s] = tuple(sum((p for f, p in alloc if a in f), 0) for a in agents)
        paid[s] = tuple(payments)
    for s in sorted(instance.dist.support_profiles()):
        for k, a in enumerate(agents):
            v_true = value(instance.vp, a, s)
            u_truth = v_true * served.get(s, none)[k] - paid.get(s, none)[k]
            if u_truth < -tolerance:
                problems.append(f"IR violated for {a} at {s}: utility {u_truth}")
            for t in instance.grid.axis(a):
                if t == s[k]:
                    continue
                dev = s[:k] + (t,) + s[k + 1:]
                u_dev = v_true * served.get(dev, none)[k] - paid.get(dev, none)[k]
                if u_dev > u_truth + tolerance:
                    problems.append(
                        f"IC violated for {a} at {s} deviating to {t}: "
                        f"{u_dev} > {u_truth}")
    return problems

