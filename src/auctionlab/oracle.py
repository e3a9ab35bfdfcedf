"""Exact optimal ex-post-IC, ex-post-IR expected revenue via linear programming.

The benchmark optimises over randomized mechanisms: at every support profile
a lottery over feasible sets and a payment per agent; every other grid
profile gets the empty allocation at zero payment.  Valuations must pass the
monotonicity check (nonnegative, nondecreasing in every signal, strictly
increasing in one's own); any other instance raises ``AssumptionError``, as
every mechanism does.

The discrete envelope then pins the payments (Myerson 1981; Elkind, SODA
2007; Roughgarden & Talgam-Cohen, EC 2013).  Take a column of agent k (the
support profiles that differ only in k's signal, in own-signal order) with
masses pi_j, values v_1 < ... < v_m and service probabilities x_j:

* neighbour truth-telling both ways gives (v_j - v_{j-1})(x_j - x_{j-1}) >= 0,
  so x rises along the column;
* participation and downward truth-telling bound p_1 <= v_1 x_1 and
  p_j <= p_{j-1} + v_j (x_j - x_{j-1}); each bound rises with the payment
  below it, so meeting them all makes every payment maximal at once;
* those payments keep upward truth-telling, as v and x rise, and
  participation, as u_j = u_{j-1} + (v_j - v_{j-1}) x_{j-1} >= 0.  Farther
  deviations chain the neighbour steps, and an off-support one earns zero
  utility, which participation bounds.

Summing by parts, the column's revenue is sum_j phi_j x_j with
phi_j = pi_j v_j - (v_{j+1} - v_j) sum_{l>j} pi_l and phi_m = pi_m v_m.  So
the LP has allocation columns only, each priced by the phi of the agents its
set serves.  Its rows are one lottery row per support profile (the nonempty
sets sum to at most 1; the empty set is the slack) and one monotonicity row
x_k(lower) - x_k(upper) <= 0 per neighbour pair.  Its optimum is the
full-grid optimum (a lottery and a payment at every grid profile,
truth-telling against every own-grid deviation): a full-grid solution's
support part obeys the steps above, so earns at most this LP's value, and
:func:`witness_mechanism` turns this LP's solution into a full-grid one of
equal revenue, which :func:`verify_witness` re-checks.

With the support profiles sorted and the nonempty feasible sets F in
``feasible_sets()`` order, support profile i and set f own LP column
i * |F| + f.

:func:`solve_lp` starts from the pointwise maximiser, each support
profile's best set on its own, and adds the monotonicity rows it violates,
round by round (row generation).  Each restricted LP splits into blocks, the
connected components of its rows over the profiles they touch, and each
block is solved apart (see :mod:`auctionlab.simplex`).  The oracle prices
the LP in table units, values v·L times int masses p·D, so its rounds, its
one certificate on the full LP, its objective and its witness payments run
on ints and exact Fractions of them, and the optimum is divided by L·D
once.  The optimum weakly dominates every implemented auction, so
approximation ratios measured against it are conservative.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping

from .mechanisms import Instance
from .simplex import LinearProgram, SimplexError, SimplexResult, solve, verify_certificate
from .valuations import value

DEFAULT_VAR_CAP = 200_000


class LPSizeError(RuntimeError):
    """The instance needs more LP variables than the configured cap."""


@dataclass(frozen=True)
class LPStats:
    profiles: int                 # grid profiles
    support: int                  # support profiles, the LP's profiles
    feasible_sets: int
    variables: int                # allocation columns, the LP's only ones
    simplex_rows: int             # lottery rows
    ic_rows: int                  # monotonicity rows, one per neighbour pair
    ir_rows = 0                   # the envelope payments are IR by construction

    @property
    def rows(self) -> int:
        return self.simplex_rows + self.ic_rows


@dataclass
class RevenueLP:
    """The LP and its column order: support profile i and nonempty feasible
    set f own column i * |F| + f.  ``table_lp`` is the LP in table units:
    each objective coefficient is the int sum of phi·L·D over the set's
    agents, and ``scale`` is L·D.  ``table_columns[k]`` lists agent k's
    columns of the support in the order of ``dist.columns(k)`` (see
    :meth:`JointDistribution.columns`), each as (support position, value
    v·L) pairs in own-signal order.  :attr:`lp` and :attr:`columns` are the
    same in instance units."""

    instance: Instance
    table_lp: LinearProgram
    scale: int
    support: list
    feasible: list
    table_columns: list
    stats: LPStats

    @cached_property
    def lp(self) -> LinearProgram:
        """The LP in instance units; it shares ``table_lp``'s rows."""
        return LinearProgram(self.table_lp.n_vars,
                             [Fraction(c, self.scale) for c in self.table_lp.objective],
                             self.table_lp.rows)

    @cached_property
    def columns(self) -> list:
        unit = self.instance._unit
        return [[[(i, unit(v)) for i, v in column] for column in agent_columns]
                for agent_columns in self.table_columns]


@dataclass
class OptResult:
    value: object
    witness: dict
    stats: LPStats
    solution: SimplexResult
    build_s: float                # wall time of the LP build
    solve_s: float                # and of its solve


def build_revenue_lp(instance: Instance, var_cap: int = DEFAULT_VAR_CAP) -> RevenueLP:
    """Assemble the envelope LP; refuses non-monotone valuations and errors
    out with the exact count past the cap."""
    instance.require_monotone()
    agents = instance.agents
    numbered = instance.dist.numbered_support()  # row-major, so sorted
    support = [s for s, _, _ in numbered]
    feasible = instance.feas.feasible_sets()[1:]  # the empty set sorts first
    n_f = len(feasible)
    n_y = len(support) * n_f
    if n_y > var_cap:
        raise LPSizeError(f"{n_y} allocation variables exceed the cap {var_cap}")

    # phi_j = v_j T_j - v_{j+1} T_{j+1}, with T_j the column's mass from j
    # up, in ints: table values v·L times int masses p·D
    position = {number: i for i, (_, number, _) in enumerate(numbered)}
    columns, phi = [], [[0] * len(agents) for _ in support]
    for k, st in enumerate(instance.grid.strides):
        columns.append([])
        for col, pairs in instance.dist.columns(k).items():
            column = [(position[col + j * st], instance._value(k, col + j * st)) for j, _ in pairs]
            tail = above = 0
            for (i, v), (_, p) in zip(reversed(column), reversed(pairs)):
                tail += p
                phi[i][k] = v * tail - above
                above = v * tail
            columns[k].append(column)
    members = [[k for k, a in enumerate(agents) if a in fs] for fs in feasible]
    lp = LinearProgram(n_y, [sum(map(row.__getitem__, m)) for row in phi for m in members])
    for i in range(len(support)):
        lp.add_le({i * n_f + f: 1 for f in range(n_f)}, 1)
    for k, agent_columns in enumerate(columns):
        serving = [f for f, m in enumerate(members) if k in m]
        for column in agent_columns:
            for (lo, _), (hi, _) in zip(column, column[1:]):
                coeffs = {lo * n_f + f: 1 for f in serving}
                coeffs.update((hi * n_f + f, -1) for f in serving)
                lp.add_le(coeffs, 0)

    grid = math.prod(len(instance.grid.axis(a)) for a in agents)
    stats = LPStats(profiles=grid, support=len(support), feasible_sets=n_f + 1,
                    variables=n_y, simplex_rows=len(support),
                    ic_rows=len(lp.rows) - len(support))
    return RevenueLP(instance, lp, instance.value_scale * instance.dist.mass_scale,
                     support, feasible, columns, stats)


def solve_lp(rlp: RevenueLP) -> SimplexResult:
    """The LP's exact optimum by row generation (Dantzig, Fulkerson &
    Johnson 1954), certified once on the full LP.

    Each round keeps a set A of active monotonicity rows and the set P of
    support profiles they touch.  A profile outside P takes the first
    nonempty set of largest objective if that is positive, and the empty
    set otherwise; its lottery row's dual is max(0, that objective).  The
    restricted LP has P's columns, P's lottery rows and A's rows.  A row of
    A couples two profiles of one agent's column, so the restricted LP is
    block-diagonal: its blocks are the connected components of A over P,
    each with its profiles' columns and lottery rows and its rows of A, and
    :func:`solve` solves each apart, in instance units.  The full LP's x and
    y take their solutions and duals there and zeros on the inactive rows.
    So y is dual feasible, c.x = b.y, and x meets every row but the
    inactive monotonicity rows: each round scans those, and the rows x
    violates join A.  When none does, :func:`verify_certificate` checks x
    and y on the full LP in table units, once; a failure raises.  The first
    round has A empty and solves nothing, which is the whole solve when the
    pointwise maximiser is monotone (Myerson 1981).  y is in table units;
    ``pivots`` and ``fallbacks`` sum over the rounds' blocks, ``blocks``
    counts the last round's and ``restricted_cells`` is the largest block's
    tableau."""
    lp, n_f, n_s, scale = rlp.table_lp, len(rlp.feasible), len(rlp.support), rlp.scale
    c, rows = lp.objective, lp.rows
    x, y = [0] * lp.n_vars, [0] * len(rows)
    for i in range(n_s):
        quotes = c[i * n_f:(i + 1) * n_f]
        best = max(quotes, default=0)
        if best > 0:
            x[i * n_f + quotes.index(best)] = 1
            y[i] = best
    active, pivots, fallbacks, rounds, blocks, cells = set(), 0, 0, 0, [], 0
    while True:
        rounds += 1
        violated = {r for r in range(n_s, len(rows)) if r not in active
                    and sum(a * x[j] for j, a in rows[r].coeffs.items() if x[j]) > 0}
        if not violated:
            break
        active |= violated
        blocks = _blocks(rows, active, n_f)
        for profiles, block_rows in blocks:
            place = {i: p * n_f for p, i in enumerate(profiles)}
            sub = LinearProgram(len(profiles) * n_f, [Fraction(c[i * n_f + f], scale)
                                                      for i in profiles for f in range(n_f)])
            block_rows = profiles + block_rows   # lottery rows, then rows of A
            for r in block_rows:
                sub.add_le({place[j // n_f] + j % n_f: a for j, a in rows[r].coeffs.items()},
                           rows[r].rhs)
            res = solve(sub)
            if res.status != "optimal":
                raise SimplexError(f"a restricted revenue LP terminated {res.status}")
            pivots += res.pivots
            fallbacks += res.fallbacks
            cells = max(cells, (len(block_rows) + 1) * (sub.n_vars + len(block_rows) + 1))
            for p, i in enumerate(profiles):
                x[i * n_f:(i + 1) * n_f] = res.x[p * n_f:(p + 1) * n_f]
            for r, dual in zip(block_rows, res.y):
                y[r] = dual * scale
    start = time.perf_counter()
    problems = verify_certificate(lp, x, y)
    certify_s = time.perf_counter() - start
    if problems:
        raise SimplexError(f"the revenue LP's certificate failed: {problems[0]}")
    objective = Fraction(sum(cj * v for cj, v in zip(c, x) if v), scale)
    return SimplexResult("optimal", objective, x, pivots, y, certified=True,
                         fallbacks=fallbacks, rounds=rounds, active_rows=tuple(sorted(active)),
                         blocks=len(blocks), restricted_cells=cells, certify_s=certify_s)


def _blocks(rows, active, n_f) -> list:
    """The connected components of the active rows over the support
    profiles they touch, in the order of their first profile: each as its
    profiles and its rows, both sorted."""
    root = {}

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for r in active:
        lo, hi = {j // n_f for j in rows[r].coeffs}
        a, b = find(root.setdefault(lo, lo)), find(root.setdefault(hi, hi))
        root[max(a, b)] = min(a, b)
    blocks = {}
    for i in sorted(root):
        blocks.setdefault(find(i), ([], []))[0].append(i)
    for r in sorted(active):
        blocks[find(next(iter(rows[r].coeffs)) // n_f)][1].append(r)
    return list(blocks.values())


def witness_mechanism(rlp: RevenueLP, solution: SimplexResult) -> dict:
    """Support profile -> (allocation, payments): the allocation lottery as
    (feasible set, probability) pairs with nonzero probability, the empty
    set first at 1 minus the rest, and the payments in agent order.  Along
    each of agent k's columns the payments are the envelope's, read from k's
    service probabilities x: p_1 = v_1 x_1 and p_j = p_{j-1} + v_j (x_j -
    x_{j-1}); an agent never served pays 0.  Absent grid profiles are the
    empty cell.  Equal lotteries, equal payment tuples, equal cells and
    equal numbers are one object."""
    x = solution.x
    n_f = len(rlp.feasible)
    agents = rlp.instance.agents
    members = [[k for k, a in enumerate(agents) if a in fs] for fs in rlp.feasible]
    # an agent's first lottery term does no Fraction arithmetic with 0
    lotteries, served, seen = [], [], {0: 0}
    for i in range(len(rlp.support)):
        lottery, service = [], [0] * len(agents)
        for f in range(n_f):
            p = x[i * n_f + f]
            if p != 0:
                lottery.append((rlp.feasible[f], p))
                for k in members[f]:
                    service[k] = service[k] + p if service[k] else p
        rest = 1 - sum(p for _, p in lottery)
        if rest != 0:
            lottery.insert(0, (frozenset(), seen.setdefault(rest, rest)))
        lotteries.append(tuple(lottery))
        served.append(service)

    # payments walk up in table units; each distinct one is divided by L once
    payments, in_units, scale = [[0] * len(agents) for _ in rlp.support], {}, rlp.instance.value_scale
    for k, agent_columns in enumerate(rlp.table_columns):
        for column in agent_columns:
            paid = below = unit = 0
            for i, v in column:
                if served[i][k] != below:
                    paid += v * (served[i][k] - below)
                    unit = in_units.get(paid)
                    if unit is None:
                        unit = Fraction(paid, scale)
                        unit = in_units[paid] = seen.setdefault(unit, unit)
                    below = served[i][k]
                payments[i][k] = unit

    # payments are keyed by their numbers' ids, cells by their parts': no number is hashed again
    shared, paid_by_ids, cells, witness = {}, {}, {}, {}
    for s, lottery, paid in zip(rlp.support, lotteries, map(tuple, payments)):
        lottery = shared.setdefault(lottery, lottery)
        paid = paid_by_ids.setdefault(tuple(map(id, paid)), paid)
        witness[s] = cells.setdefault((id(lottery), id(paid)), (lottery, paid))
    return witness


def opt_revenue(instance: Instance, var_cap: int = DEFAULT_VAR_CAP) -> OptResult:
    """Optimal expected revenue plus the mechanism achieving it."""
    start = time.perf_counter()
    rlp = build_revenue_lp(instance, var_cap)
    built = time.perf_counter()
    solution = solve_lp(rlp)
    solved = time.perf_counter()
    if solution.status != "optimal":
        raise RuntimeError(f"revenue LP terminated {solution.status}")
    return OptResult(solution.objective, witness_mechanism(rlp, solution),
                     rlp.stats, solution, built - start, solved - built)


def lp_record(res: OptResult) -> dict:
    """The LP's size and solve counts that ``oracle --out`` and a run record."""
    stats, sol = res.stats, res.solution
    return {"variables": stats.variables, "rows": stats.rows, "profiles": stats.profiles,
            "support": stats.support, "feasible_sets": stats.feasible_sets,
            "simplex_rows": stats.simplex_rows, "ic_rows": stats.ic_rows,
            "ir_rows": stats.ir_rows, "pivots": sol.pivots, "certified": sol.certified,
            "fallbacks": sol.fallbacks, "rounds": sol.rounds,
            "active_rows": len(sol.active_rows), "blocks": sol.blocks,
            "restricted_cells": sol.restricted_cells}


def verify_witness(instance: Instance, witness: Mapping) -> list[str]:
    """Re-check a witness against every full-grid constraint; empty list
    means clean.

    Every cell's lottery is checked, and every agent at every support
    profile against every own-grid deviation, with service probabilities
    derived from the lotteries.  A profile missing from the witness is the
    empty, zero-payment cell.  Every check is exact.
    """
    problems = []
    agents = instance.agents
    none = (0,) * len(agents)
    served, paid = {}, {}
    for s, (alloc, payments) in witness.items():
        total = sum((p for _, p in alloc), Fraction(0))
        if total != 1:
            problems.append(f"allocation at {s} sums to {total}")
        for f, p in alloc:
            if p < 0:
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
            if u_truth < 0:
                problems.append(f"IR violated for {a} at {s}: utility {u_truth}")
            for t in instance.grid.axis(a):
                if t == s[k]:
                    continue
                dev = s[:k] + (t,) + s[k + 1:]
                u_dev = v_true * served.get(dev, none)[k] - paid.get(dev, none)[k]
                if u_dev > u_truth:
                    problems.append(
                        f"IC violated for {a} at {s} deviating to {t}: "
                        f"{u_dev} > {u_truth}")
    return problems

