"""The traced run: the benchmark calls each layer's public functions itself,
in the order ``runner.run`` uses, and records a span around every call.

Spans stay in memory as (name, start, end, parent, instance) and are written
out when the run ends.  A layer's self time is its busy time minus the part
covered by its child spans.
"""
from __future__ import annotations

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from auctionlab.distributions import RATIONAL
from auctionlab.mechanisms import (
    expected_revenue,
    ic_ir_audit,
    opt_upper_bound,
    realizations,
    run_realized,
    sample_realization,
)
from auctionlab.oracle import build_revenue_lp, solve_lp, witness_mechanism
from auctionlab.runner import RowResult


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, instance]
        self._open = []

    @contextmanager
    def span(self, name, instance=""):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, instance]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def layers(self) -> dict:
        """name -> {busy, self, count}, in seconds."""
        out = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            acc = out.setdefault(name, {"busy": 0.0, "self": 0.0, "count": 0})
            acc["busy"] += end - start
            acc["self"] += end - start - covered
            acc["count"] += 1
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "instance")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")


def traced_unit(tracer, wl, inst, unit, counts) -> tuple:
    """One unit's rows and (optimum, witness), computed layer by layer as
    ``runner._fill_row`` does."""
    label = inst.name
    rows = []
    optimum = witness = upper = None
    for mech in unit.mechanisms:
        with tracer.span("runner.row", label):
            row = RowResult(instance=inst.name or "instance", spec=mech, mode=wl.mode)
            if wl.checks_on and mech.reserve_source == "single-sample":
                row.audit_status = "n/a"
            elif wl.checks_on:
                with tracer.span("mechanisms.audit", label):
                    violations = ic_ir_audit(inst, mech)
                row.violations = len(violations)
                row.audit_status = "pass" if not violations else "fail"
                counts["audits"].append((inst, mech))
            if wl.mode == "exact":
                with tracer.span("mechanisms.revenue", label):
                    est = expected_revenue(inst, mech)
                row.revenue, row.std_error = est.value, est.std_error
                counts["atoms"] += est.atoms
            else:
                row.revenue, row.std_error = _traced_monte_carlo(
                    tracer, inst, mech, wl.trials, wl.seed, label)
                counts["sampled"].append((inst, wl.trials))
            if wl.checks_on:
                if optimum is None:
                    with tracer.span("oracle.build", label):
                        rlp = build_revenue_lp(inst)
                    with tracer.span("simplex.solve", label):
                        solution = solve_lp(rlp)
                    if solution.status != "optimal":
                        raise RuntimeError(f"revenue LP terminated {solution.status}")
                    with tracer.span("oracle.witness", label):
                        witness = witness_mechanism(rlp, solution)
                    optimum = solution.objective
                    counts["lps"].append((rlp.stats, solution.pivots))
                row.oracle = optimum
                if optimum:
                    row.ratio = (Fraction(row.revenue) / Fraction(optimum)
                                 if inst.arithmetic == RATIONAL and wl.mode == "exact"
                                 else float(row.revenue) / float(optimum))
                if inst.feas.is_matroid:
                    if upper is None:
                        with tracer.span("mechanisms.upper_bound", label):
                            upper = opt_upper_bound(inst)
                    row.upper_bound = upper
        rows.append(row)
    return rows, (None if optimum is None else (optimum, witness))


def _traced_monte_carlo(tracer, inst, mech, trials, seed, label):
    """The loop of ``expected_revenue(..., "monte_carlo")``, one span per call."""
    rng = random.Random(seed)
    draws = []
    with tracer.span("mechanisms.mc", label):
        for _ in range(trials):
            with tracer.span("distributions.sample", label):
                s = inst.dist.sample(rng)
            with tracer.span("mechanisms.sample_realization", label):
                realization = sample_realization(inst, mech, rng)
            with tracer.span("mechanisms.run_realized", label):
                out = run_realized(inst, mech, s, realization)
            draws.append(float(out.revenue))
    mean = sum(draws) / trials
    var = sum((x - mean) ** 2 for x in draws) / max(trials - 1, 1)
    return mean, math.sqrt(var / trials)


def new_counts() -> dict:
    return {"atoms": 0, "sampled": [], "audits": [], "lps": []}


def layer_metrics(tracer, counts, passes, host) -> dict:
    """name -> (value, unit): the per-layer metrics, per timed pass, from the
    spans and counters.  A layer the workload leaves idle reads 0."""
    layers = tracer.layers()

    def busy(name, per_pass=True):
        t = layers.get(name, {}).get("busy", 0.0)
        return t / passes if per_pass else t

    lps = counts["lps"]
    pivots = sum(p for _, p in lps) / passes
    solve_s = busy("simplex.solve")
    draws = sum(n for _, n in counts["sampled"])

    def per_draw_us(name):
        return 1e6 * busy(name, False) / draws if draws else 0.0

    draw_support = sum(n * len(inst.dist.support_profiles()) for inst, n in counts["sampled"])
    audit_profiles = useful = 0
    for inst, mech in counts["audits"]:
        grid, reach = _audit_footprint(inst)
        n_real = sum(1 for _ in realizations(inst, mech))
        audit_profiles += grid * n_real
        useful += reach * n_real
    return {
        "generators.generate_s": (busy("generators.generate", False), "s"),
        "instances.load_s": (busy("instances.load", False), "s"),
        "oracle.build_s": (busy("oracle.build"), "s"),
        "oracle.lp_vars": (sum(st.variables for st, _ in lps) / passes, "count"),
        "oracle.lp_rows": (sum(st.rows for st, _ in lps) / passes, "count"),
        "oracle.witness_s": (busy("oracle.witness"), "s"),
        "simplex.solve_s": (solve_s, "s"),
        "simplex.pivots": (pivots, "count"),
        "simplex.pivot_ms": (1000 * solve_s / pivots if pivots else 0.0, "ms"),
        "simplex.tableau_cells": (max((tableau_cells(st) for st, _ in lps), default=0),
                                  "count"),
        "mechanisms.revenue_s": (busy("mechanisms.revenue"), "s"),
        "mechanisms.atoms": (counts["atoms"] / passes, "count"),
        "mechanisms.audit_s": (busy("mechanisms.audit"), "s"),
        "mechanisms.audit_profiles": (audit_profiles / passes, "count"),
        "mechanisms.audit_useful_ratio": (useful / audit_profiles if audit_profiles else 0.0,
                                          "ratio"),
        "mechanisms.upper_bound_s": (busy("mechanisms.upper_bound"), "s"),
        "mechanisms.mc_s": (busy("mechanisms.mc"), "s"),
        "mechanisms.mc_draw_us": (per_draw_us("mechanisms.mc"), "us"),
        "distributions.sample_us": (per_draw_us("distributions.sample"), "us"),
        "distributions.support": (draw_support / draws if draws else 0.0, "count"),
        "runner.self_s": (layers.get("runner.row", {}).get("self", 0.0) / passes, "s"),
        "host.cpu_s": (host["cpu_s"], "s"),
        "host.steal_s": (host["steal_s"], "s"),
    }


def tableau_cells(stats) -> int:
    """Cells of the dense tableau the rational simplex allocates: one row per
    constraint plus the objective, one column per variable, slack and rhs."""
    slacks = stats.ic_rows + stats.ir_rows
    return (stats.rows + 1) * (stats.variables + slacks + 1)


def _audit_footprint(inst) -> tuple:
    """(grid profiles, support profiles and their unilateral deviations)."""
    support = inst.dist.support_profiles()
    reach = set(support)
    for s in support:
        for k, a in enumerate(inst.agents):
            for t in inst.grid.axis(a):
                reach.add(s[:k] + (t,) + s[k + 1:])
    grid = math.prod(len(inst.grid.axis(a)) for a in inst.agents)
    return grid, len(reach)


def summary_table(tracer) -> str:
    lines = [f"{'layer span':32} {'busy s':>10} {'self s':>10} {'count':>8}"]
    for name, acc in sorted(tracer.layers().items()):
        lines.append(f"{name:32} {acc['busy']:10.4f} {acc['self']:10.4f} {acc['count']:8d}")
    return "\n".join(lines)
