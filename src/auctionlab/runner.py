"""Experiment runner: audits, revenues, oracle ratios, CSV reports.

A report is a fixed-column CSV (byte-identical across runs for the same spec
and seeds) plus a JSON sidecar holding seeds, versions, wall times,
outcomes built and price memo entries per row, the reason for each skipped row, and per instance
what its evaluation tables held when its rows were done and how its oracle
solve went.  Audit failures are never skipped silently: a row
whose audit fails keeps its numbers but is flagged, and the run as a whole
reports failure.
"""
from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import __version__
from .instances import load_instance
from .mechanisms import (
    MECHANISMS,
    Instance,
    MechanismSpec,
    WrongVariantError,
    AssumptionError,
    expected_revenue,
    opt_upper_bound,
    walk,
)
from .oracle import lp_record, opt_revenue

CSV_COLUMNS = ("instance", "mechanism", "reserve_source", "mode", "revenue",
               "std_error", "oracle", "upper_bound", "ratio", "audit",
               "violations", "bound", "bound_ok")


class SpecError(ValueError):
    """The experiment spec cannot run as given."""


@dataclass
class ExperimentSpec:
    mechanisms: list
    paths: list = field(default_factory=list)
    instances: list = field(default_factory=list)
    mode: str = "exact"
    trials: int = 10_000
    seed: int = 0
    compute_oracle: bool = True
    compute_upper_bound: bool = True
    audit: bool = True
    bounds: dict = field(default_factory=dict)  # mechanism id -> min ratio
    skip_inapplicable: bool = False


@dataclass
class RowResult:
    instance: str
    spec: MechanismSpec
    mode: str
    revenue: object = None
    std_error: object = None
    oracle: object = None
    upper_bound: object = None
    ratio: object = None
    audit_status: str = "skipped"
    violations: int = 0
    bound: object = None
    bound_ok: object = None
    wall_time: float = 0.0
    skipped: str = ""
    outcomes: int = 0
    prices: int = 0


@dataclass
class RatioReport:
    rows: list
    metadata: dict

    @property
    def ok(self) -> bool:
        for r in self.rows:
            if r.audit_status == "fail":
                return False
            if r.bound_ok is False:
                return False
        return True

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.rows:
            writer.writerow([
                r.instance, r.spec.mech_id, _reserve_column(r.spec), r.mode,
                _fmt(r.revenue), _fmt(r.std_error), _fmt(r.oracle),
                _fmt(r.upper_bound), _fmt(r.ratio), r.audit_status,
                r.violations, _fmt(r.bound), _fmt(r.bound_ok),
            ])
        return buf.getvalue()


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _reserve_column(spec: MechanismSpec) -> str:
    """The row's reserve_source as the CSV writes it: none for a mechanism
    that reads no reserves."""
    return _fmt(spec.reserve_source) if MECHANISMS[spec.mech_id].reads_reserves else "none"


def _materialise_instances(spec: ExperimentSpec) -> list[Instance]:
    out = list(spec.instances)
    for p in spec.paths:
        out.append(load_instance(p))
    if not out:
        raise SpecError("experiment needs at least one instance")
    return out


def run(spec: ExperimentSpec) -> RatioReport:
    mechanisms = [m if isinstance(m, MechanismSpec) else MechanismSpec(m) for m in spec.mechanisms]
    if spec.mode == "monte_carlo" and spec.trials < 1:
        raise SpecError(f"Monte Carlo needs at least one trial, not {spec.trials}")
    if spec.bounds and not spec.compute_oracle:
        raise SpecError("ratio bounds need the oracle, which is switched off")
    unbound = sorted(set(spec.bounds) - {m.mech_id for m in mechanisms})
    if unbound:
        raise SpecError(f"bounds name mechanisms that do not run: {unbound}")
    instances = _materialise_instances(spec)
    rows = []
    tables = []
    oracles = []
    for inst in instances:
        solve = {"instance": inst.name}
        oracle = upper_bound = None
        if spec.compute_oracle:
            start = time.perf_counter()
            res = opt_revenue(inst)
            oracle = res.value
            solve.update(lp_record(res), build_s=round(res.build_s, 6),
                         solve_s=round(res.solve_s, 6),
                         certify_s=round(res.solution.certify_s, 6),
                         oracle_s=round(time.perf_counter() - start, 6))
        if spec.compute_upper_bound and inst.feas.is_matroid:
            start = time.perf_counter()
            upper_bound = opt_upper_bound(inst)
            solve["upper_bound_s"] = round(time.perf_counter() - start, 6)
        oracles.append(solve)
        for mech in mechanisms:
            row = RowResult(instance=inst.name or "instance", spec=mech, mode=spec.mode)
            start = time.perf_counter()
            try:
                _fill_row(row, inst, mech, spec, oracle, upper_bound)
            except (WrongVariantError, AssumptionError) as exc:
                if not spec.skip_inapplicable:
                    raise type(exc)(f"{inst.name}: {exc}") from exc
                row.skipped = str(exc)
                row.audit_status = "n/a"
            row.wall_time = time.perf_counter() - start
            rows.append(row)
        # the instance's rows are done: drop its tables now, not when the
        # caller lets go of the instance
        tables.append({"instance": inst.name, **inst.release_tables()})
    metadata = {
        "version": __version__,
        "mode": spec.mode,
        "seed": spec.seed,
        "trials": spec.trials if spec.mode == "monte_carlo" else None,
        "bounds": {k: _fmt(v) for k, v in spec.bounds.items()},
        "instances": [inst.name for inst in instances],
        "tables": tables,
        "oracle": oracles,
        "wall_times": {},
        "outcomes": {},
        "prices": {},
        "skipped": {},
    }
    for r in rows:
        # one key per row: the reserve source only where the CSV names one
        source = _reserve_column(r.spec)
        key = f"{r.instance}/{r.spec.mech_id}" + ("" if source == "none" else f"/{source}")
        metadata["wall_times"][key] = round(r.wall_time, 6)
        metadata["outcomes"][key] = r.outcomes
        metadata["prices"][key] = r.prices
        if r.skipped:
            metadata["skipped"][key] = r.skipped
    return RatioReport(rows, metadata)


def _fill_row(row, inst, mech, spec, oracle, upper_bound):
    found = walk(inst, mech, audit=spec.audit, revenue=spec.mode == "exact")
    if found.violations is not None:
        row.violations = len(found.violations)
        row.audit_status = "pass" if not found.violations else "fail"
    elif spec.audit:
        row.audit_status = "n/a"
    est = found.revenue or expected_revenue(inst, mech, spec.mode, trials=spec.trials,
                                            seed=spec.seed)
    # a Monte Carlo draw builds one outcome
    row.outcomes = found.outcomes + (0 if found.revenue else est.atoms)
    row.prices = found.prices + (0 if found.revenue else est.prices)
    row.revenue = est.value
    row.std_error = est.std_error
    row.oracle = oracle
    row.upper_bound = upper_bound
    if oracle:
        # a Monte Carlo float / Fraction is float(revenue) / float(oracle)
        row.ratio = row.revenue / oracle
    bound = spec.bounds.get(mech.mech_id)
    if bound is not None and row.ratio is not None:
        row.bound = bound
        row.bound_ok = (Fraction(row.ratio) >= Fraction(bound) if spec.mode == "exact"
                        else float(row.ratio) >= float(bound))


def write_report(report: RatioReport, out_path) -> None:
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(report.to_csv())
    sidecar = out_path.with_suffix(out_path.suffix + ".meta.json")
    sidecar.write_text(json.dumps(report.metadata, indent=2, sort_keys=True) + "\n")
