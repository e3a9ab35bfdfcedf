"""Experiment runner: audits, revenues, oracle ratios, CSV reports.

A report is a fixed-column CSV (byte-identical across runs for the same spec
and seeds in rational mode) plus a JSON sidecar holding seeds, versions,
tolerances, wall times, the reason for each skipped row, and per instance
what its evaluation tables held when its rows were done and how its oracle
solve went.  Audit failures are never skipped silently: a row whose audit
fails keeps its numbers but is flagged, and the run as a whole reports
failure.
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
from .distributions import RATIONAL
from .generators import generate_instances
from .instances import load_instance
from .mechanisms import (
    MECHANISMS,
    Instance,
    MechanismSpec,
    WrongVariantError,
    AssumptionError,
    expected_revenue,
    ic_ir_audit,
    opt_upper_bound,
)
from .oracle import opt_revenue

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
    generator: tuple | None = None          # (name, params, seed)
    mode: str = "exact"
    trials: int = 10_000
    seed: int = 0
    arithmetic: str | None = None
    compute_oracle: bool = True
    compute_upper_bound: bool = True
    audit: bool = True
    bounds: dict = field(default_factory=dict)  # mechanism id -> min ratio
    tolerance: float = 1e-9
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
                r.instance, r.spec.mech_id,
                _fmt(r.spec.reserve_source)
                if MECHANISMS[r.spec.mech_id].reads_reserves else "none", r.mode,
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


def _materialise_instances(spec: ExperimentSpec) -> list[Instance]:
    out = list(spec.instances)
    for p in spec.paths:
        out.append(load_instance(p, arithmetic=spec.arithmetic))
    if spec.generator is not None:
        name, params, seed = spec.generator
        out.extend(generate_instances(name, params, seed))
    if not out:
        raise SpecError("experiment needs at least one instance")
    return out


def _coerce_mechanism(m) -> MechanismSpec:
    return m if isinstance(m, MechanismSpec) else MechanismSpec(m)


def run(spec: ExperimentSpec) -> RatioReport:
    mechanisms = [_coerce_mechanism(m) for m in spec.mechanisms]
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
            solve.update(certified=res.solution.certified, fallbacks=res.solution.fallbacks,
                         pivots=res.solution.pivots, variables=res.stats.variables,
                         rows=res.stats.rows, oracle_s=round(time.perf_counter() - start, 6))
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
        "tolerance": spec.tolerance,
        "arithmetic": spec.arithmetic or "per-instance",
        "bounds": {k: _fmt(v) for k, v in spec.bounds.items()},
        "instances": [inst.name for inst in instances],
        "generator": ([spec.generator[0], dict(spec.generator[1]), spec.generator[2]]
                      if spec.generator else None),
        "tables": tables,
        "oracle": oracles,
        "wall_times": {},
        "skipped": {},
    }
    for r in rows:
        metadata["wall_times"][f"{r.instance}/{r.spec.mech_id}"] = round(r.wall_time, 6)
        if r.skipped:
            metadata["skipped"][f"{r.instance}/{r.spec.mech_id}"] = r.skipped
    return RatioReport(rows, metadata)


def _fill_row(row, inst, mech, spec, oracle, upper_bound):
    if spec.audit:
        if mech.reserve_source == "single-sample":
            # the reserve draw is integrated over in expectation, so there is
            # no per-run realization to audit; each draw is a fixed-reserve
            # lazy auction, which the audit covers through the fixed source
            row.audit_status = "n/a"
        else:
            violations = ic_ir_audit(inst, mech)
            row.violations = len(violations)
            row.audit_status = "pass" if not violations else "fail"
    est = expected_revenue(inst, mech, spec.mode, trials=spec.trials, seed=spec.seed)
    row.revenue = est.value
    row.std_error = est.std_error
    row.oracle = oracle
    row.upper_bound = upper_bound
    if oracle:
        row.ratio = (Fraction(row.revenue) / Fraction(oracle)
                     if inst.arithmetic == RATIONAL and spec.mode == "exact"
                     else float(row.revenue) / float(oracle))
    bound = spec.bounds.get(mech.mech_id)
    if bound is not None and row.ratio is not None:
        row.bound = bound
        if inst.arithmetic == RATIONAL and spec.mode == "exact":
            row.bound_ok = Fraction(row.ratio) >= Fraction(bound) - Fraction(spec.tolerance)
        else:
            row.bound_ok = float(row.ratio) >= float(bound) - spec.tolerance


def write_report(report: RatioReport, out_path) -> None:
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(report.to_csv())
    sidecar = out_path.with_suffix(out_path.suffix + ".meta.json")
    sidecar.write_text(json.dumps(report.metadata, indent=2, sort_keys=True) + "\n")
