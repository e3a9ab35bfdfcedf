"""Checks on the program's outputs, each computed apart from the program or
from a property the method must have, and self-tests that plant an error in
front of each check so that none can pass vacuously.

Every check returns a list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

from auctionlab.instances import load_fixture
from auctionlab.mechanisms import MechanismSpec
from auctionlab.oracle import opt_revenue, verify_witness
from auctionlab.runner import ExperimentSpec, run
from auctionlab.valuations import value

LP_RTOL = 1e-6
MC_SIGMAS = 4

# The guarantees as a share of the optimum, with the instances each theorem
# covers.  The gap fixtures put lookahead below 1/2 once values are
# interdependent, so its guarantee is checked on private-value matroids only,
# as acceptance 01 does.
GUARANTEES = {
    "lookahead": (Fraction(1, 2),
                  lambda inst: not inst.vp.interdependent and inst.feas.is_matroid),
    "rand-single": (Fraction(2, 9), lambda inst: True),
    "rand-matroid": (Fraction(1, 18), lambda inst: inst.feas.is_matroid),
}

MC_EXACT = {k: Fraction(v) for k, v in json.loads(
    (Path(__file__).resolve().parent / "mc_exact.json").read_text()).items()}


def highs_optimum(inst) -> float:
    """Optimal ex post IC, ex post IR revenue, stated over the full signal grid
    and solved by HiGHS.

    Variables are a lottery y[s, F] over feasible sets and a payment
    p[s, a] >= 0 at every grid profile s.  Truth-telling binds every agent at
    every support profile against every own-grid deviation, participation
    binds at every support profile, and the objective weighs payments by the
    profile's probability.
    """
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    agents = inst.agents
    profiles = list(inst.grid.profiles())
    sets = [frozenset(c) for r in range(len(agents) + 1)
            for c in itertools.combinations(agents, r) if inst.feas.is_independent(c)]
    pos = {s: i for i, s in enumerate(profiles)}
    n_y = len(profiles) * len(sets)

    def y(s, f):
        return pos[s] * len(sets) + f

    def p(s, k):
        return n_y + pos[s] * len(agents) + k

    served = [[f for f, fs in enumerate(sets) if a in fs] for a in agents]
    n_vars = n_y + len(profiles) * len(agents)
    cost = np.zeros(n_vars)
    rows, cols, vals, rhs = [], [], [], []

    def add_row(coeffs):
        r = len(rhs)
        for j, c in coeffs.items():
            rows.append(r)
            cols.append(j)
            vals.append(c)
        rhs.append(0.0)

    for s, prob in inst.dist.enumerate_support():
        for k, a in enumerate(agents):
            cost[p(s, k)] = -float(prob)
            v = float(value(inst.vp, a, s))
            # participation: p[s, a] - v * x_a(s) <= 0
            ir = {y(s, f): -v for f in served[k]}
            ir[p(s, k)] = 1.0
            add_row(ir)
            for t in inst.grid.axis(a):
                if t == s[k]:
                    continue
                dev = s[:k] + (t,) + s[k + 1:]
                # truth-telling: v x_a(dev) - p[dev, a] <= v x_a(s) - p[s, a]
                ic = {}
                for f in served[k]:
                    ic[y(dev, f)] = ic.get(y(dev, f), 0.0) + v
                    ic[y(s, f)] = ic.get(y(s, f), 0.0) - v
                ic[p(dev, k)] = -1.0
                ic[p(s, k)] = 1.0
                add_row(ic)
    a_ub = coo_matrix((vals, (rows, cols)), shape=(len(rhs), n_vars)).tocsr()
    eq_rows = [i for i, s in enumerate(profiles) for _ in sets]
    eq_cols = [y(s, f) for s in profiles for f in range(len(sets))]
    a_eq = coo_matrix(([1.0] * len(eq_cols), (eq_rows, eq_cols)),
                      shape=(len(profiles), n_vars)).tocsr()
    res = linprog(cost, A_ub=a_ub, b_ub=rhs, A_eq=a_eq, b_eq=np.ones(len(profiles)),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return -res.fun


def check_optimum(inst, optimum) -> list[str]:
    """The oracle's optimum agrees with HiGHS on the benchmark's own LP."""
    ref = highs_optimum(inst)
    if abs(float(optimum) - ref) > LP_RTOL * max(1.0, abs(ref)):
        return [f"{inst.name}: oracle {float(optimum)!r} vs HiGHS {ref!r}"]
    return []


def check_witness(inst, witness) -> list[str]:
    return [f"{inst.name}: {p}" for p in verify_witness(inst, witness)]


def check_row(inst, row, *, audited: bool) -> list[str]:
    """Audit, optimum, upper bound and guarantee checks on one CSV row."""
    where = f"{row.instance}/{row.spec.mech_id}/{row.spec.reserve_source}"
    problems = []
    if audited and (row.audit_status not in ("pass", "n/a") or row.violations):
        problems.append(f"{where}: audit {row.audit_status}, {row.violations} violations")
    if row.oracle is not None and row.mode == "exact":
        rev, opt = Fraction(row.revenue), Fraction(row.oracle)
        if rev > opt:
            problems.append(f"{where}: revenue {rev} above the optimum {opt}")
        factor, covered = GUARANTEES.get(row.spec.mech_id, (None, None))
        if factor is not None and covered(inst) and rev < factor * opt:
            problems.append(f"{where}: revenue {rev} below {factor} x optimum {opt}")
        if row.upper_bound is not None and opt > Fraction(row.upper_bound):
            problems.append(f"{where}: optimum {opt} above the upper bound {row.upper_bound}")
    if row.mode == "monte_carlo":
        problems += check_mc(where, row.revenue, row.std_error,
                             MC_EXACT.get(f"{row.instance}/{row.spec.mech_id}"))
    return problems


def check_mc(where, estimate, std_error, exact) -> list[str]:
    """A Monte Carlo estimate lies within MC_SIGMAS standard errors of exact."""
    if exact is None:
        return [f"{where}: no stored exact revenue"]
    if not abs(estimate - float(exact)) <= MC_SIGMAS * std_error:
        return [f"{where}: estimate {estimate} is more than {MC_SIGMAS} standard "
                f"errors ({std_error}) from the exact {float(exact)}"]
    return []


def check_csv(where, first: str, again: str) -> list[str]:
    """The CSV of a repeated pass or row is byte-identical to the first."""
    if first != again:
        return [f"{where}: CSV differs from the first pass"]
    return []


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def self_test() -> list[str]:
    """Plant one error per check; report each check that lets it through."""
    missed = []
    tiny = load_fixture("tiny1")
    # oracle and upper bound off, so only the audit check can flag the row
    canary = run(ExperimentSpec(
        mechanisms=[MechanismSpec("gvcg-lazy", reserve_source="unsafe-own-value")],
        instances=[tiny], compute_oracle=False, compute_upper_bound=False))
    if not check_row(tiny, canary.rows[0], audited=True):
        missed.append("audit check passed the unsafe-own-value canary on tiny1")
    optimum = opt_revenue(tiny).value
    if check_optimum(tiny, optimum):
        missed.append("LP check rejected the true optimum of tiny1")
    if not check_optimum(tiny, optimum + Fraction(1, 1000)):
        missed.append("LP check passed an optimum moved by 1/1000")
    exact, se = MC_EXACT["regular-marginals-s9-0/lookahead"], 0.2
    if not check_mc("self-test", float(exact) + 5 * se, se, exact):
        missed.append("Monte Carlo check passed an estimate 5 standard errors off")
    text = canary.to_csv()
    flipped = text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1]
    if check_csv("self-test", text, text) or not check_csv("self-test", text, flipped):
        missed.append("CSV check missed a changed byte")
    return missed
