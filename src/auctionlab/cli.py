"""Command-line interface.

Subcommands:

* ``run``      -- revenues, oracle ratios and audits over instance files
* ``audit``    -- incentive-compatibility audit for one or more mechanisms
* ``oracle``   -- optimal revenue, witness mechanism and LP statistics
* ``compare``  -- two mechanisms side by side, per profile, with thresholds
* ``gen``      -- write generated instance files

Exit status is nonzero when an audit fails or an enabled ratio bound is
violated.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import yaml

from .generators import GENERATORS, GeneratorError, generate_instances
from .instances import (InstanceFormatError, corpus_names, fixture_path, load_instance,
                        save_instance)
from .mechanisms import (
    MECHANISM_IDS,
    MECHANISMS,
    MechanismError,
    MechanismSpec,
    ic_ir_audit,
    run_realized,
)
from .oracle import opt_revenue
from .runner import ExperimentSpec, SpecError, run, write_report
from .valuations import ValuationError


def _mechanism_spec(mech_id: str, args) -> MechanismSpec:
    return MechanismSpec(mech_id, reserve_source=args.reserve_source or "none",
                         event_mode=args.reserve_conditioning)


def _add_common(p, reserves: bool = True):
    p.add_argument("--instance", action="append", default=[], metavar="PATH",
                   help="instance file; repeatable; defaults to the bundled "
                        "fixture corpus (see AUCTIONLAB_FIXTURES)")
    if not reserves:
        return
    p.add_argument("--reserve-source", default=None,
                   help="none | monopoly | conditional | fixed:r1,r2,... | "
                        "single-sample | unsafe-own-value; fixed reserves "
                        "follow the agent order of the instance file")
    p.add_argument("--reserve-conditioning", default="winner_conditioned",
                   choices=["winner_conditioned", "unconditioned"],
                   help="reserve event conditioning in the randomized variants")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="auctionlab",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate mechanisms against the oracle")
    _add_common(p_run)
    p_run.add_argument("--mechanism", action="append", default=[],
                       choices=list(MECHANISM_IDS), metavar="ID")
    p_run.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p_run.add_argument("--trials", type=int, default=10_000)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default=None, metavar="PATH")
    p_run.add_argument("--bound", action="append", default=[], metavar="MECH=RATIO",
                       help="fail when mechanism revenue / oracle drops below RATIO")
    p_run.add_argument("--no-oracle", action="store_true")
    p_run.add_argument("--no-upper-bound", action="store_true")
    p_run.add_argument("--no-audit", action="store_true")
    p_run.add_argument("--skip-inapplicable", action="store_true",
                       help="mark mechanism/instance mismatches instead of failing")

    p_audit = sub.add_parser("audit", help="incentive audit only")
    _add_common(p_audit)
    p_audit.add_argument("--mechanism", action="append", default=[],
                         choices=list(MECHANISM_IDS), metavar="ID")
    p_audit.add_argument("--out", default=None)

    p_oracle = sub.add_parser("oracle", help="optimal revenue and witness")
    _add_common(p_oracle, reserves=False)
    p_oracle.add_argument("--out", default=None)
    p_oracle.add_argument("--witness", action="store_true",
                          help="print the witness mechanism as well")

    p_cmp = sub.add_parser("compare", help="two mechanisms, per-profile")
    _add_common(p_cmp)
    p_cmp.add_argument("--mechanism", action="append", default=[], metavar="ID",
                       choices=list(MECHANISM_IDS))
    p_cmp.add_argument("--out", default=None)

    p_gen = sub.add_parser("gen", help="write generated instance files")
    p_gen.add_argument("--generator", required=True, choices=list(GENERATORS))
    p_gen.add_argument("--param", action="append", default=[], metavar="K=V")
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, metavar="DIR")
    return parser


def _instance_paths(args) -> list[str]:
    """Explicit --instance paths, else the whole fixture corpus (the corpus
    directory is overridable through AUCTIONLAB_FIXTURES)."""
    if args.instance:
        return list(args.instance)
    return [str(fixture_path(n)) for n in corpus_names()]


def _profile(s) -> str:
    return "(" + ", ".join(map(str, s)) + ")"


def _load_all(args):
    return [load_instance(p) for p in _instance_paths(args)]


def cmd_run(args) -> int:
    if not args.mechanism:
        raise SystemExit("at least one --mechanism is required")
    bounds = {}
    for chunk in args.bound:
        mech, _, ratio = chunk.partition("=")
        try:
            bounds[mech] = Fraction(ratio)
        except (ValueError, ZeroDivisionError):
            raise SystemExit(f"--bound {chunk!r} is not MECH=RATIO") from None
    spec = ExperimentSpec(
        mechanisms=[_mechanism_spec(m, args) for m in args.mechanism],
        paths=_instance_paths(args),
        mode="exact" if args.mode == "exact" else "monte_carlo",
        trials=args.trials,
        seed=args.seed,
        compute_oracle=not args.no_oracle,
        compute_upper_bound=not args.no_upper_bound,
        audit=not args.no_audit,
        bounds=bounds,
        skip_inapplicable=args.skip_inapplicable,
    )
    report = run(spec)
    for row, reason in report.metadata["skipped"].items():
        print(f"skipped {row}: {reason}", file=sys.stderr)
    if args.out:
        write_report(report, args.out)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(report.to_csv())
    return 0 if report.ok else 1


def cmd_audit(args) -> int:
    if not args.mechanism:
        raise SystemExit("at least one --mechanism is required")
    failures = 0
    lines = []
    for inst in _load_all(args):
        for mech_id in args.mechanism:
            spec = _mechanism_spec(mech_id, args)
            violations = ic_ir_audit(inst, spec)
            status = "pass" if not violations else f"FAIL ({len(violations)} violations)"
            lines.append(f"{inst.name} {mech_id}: {status}")
            for v in violations[:10]:
                lines.append(f"  {v.kind} at s={_profile(v.profile)} agent={v.agent} "
                             f"deviation={v.deviation} gap={v.gap}")
            failures += len(violations)
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0 if failures == 0 else 1


def cmd_oracle(args) -> int:
    payload = {}
    for inst in _load_all(args):
        res = opt_revenue(inst)
        stats = res.stats
        entry = {
            "optimal_revenue": str(res.value),
            "lp": {
                "variables": stats.variables, "rows": stats.rows,
                "profiles": stats.profiles, "support": stats.support,
                "feasible_sets": stats.feasible_sets,
                "simplex_rows": stats.simplex_rows, "ic_rows": stats.ic_rows,
                "ir_rows": stats.ir_rows, "pivots": res.solution.pivots,
                "certified": res.solution.certified,
                "fallbacks": res.solution.fallbacks, "rounds": res.solution.rounds,
                "active_rows": len(res.solution.active_rows), "blocks": res.solution.blocks,
                "restricted_cells": res.solution.restricted_cells,
            },
        }
        if args.witness:
            entry["witness"] = {
                _profile(s): {
                    "allocation": [[sorted(map(str, f)), str(p)] for f, p in alloc],
                    "payments": {str(a): str(v) for a, v in zip(inst.agents, payments)},
                }
                for s, (alloc, payments) in res.witness.items()
            }
        payload[inst.name] = entry
        print(f"{inst.name}: optimal revenue = {res.value} "
              f"({stats.variables} vars, {stats.rows} rows, "
              f"{res.solution.pivots} pivots)")
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_compare(args) -> int:
    if len(args.mechanism) != 2:
        raise SystemExit("compare needs exactly two --mechanism flags")
    spec_a = _mechanism_spec(args.mechanism[0], args)
    spec_b = _mechanism_spec(args.mechanism[1], args)
    lines = []
    for inst in _load_all(args):
        lines.append(f"instance {inst.name}: {spec_a.mech_id} vs {spec_b.mech_id}")
        reversals = 0
        for s, prob in inst.dist.enumerate_support():
            out_a = _single_realization(inst, spec_a, s)
            out_b = _single_realization(inst, spec_b, s)
            lines.append(f"  s={_profile(s)} (p={prob}): "
                         f"revenue {out_a.revenue} vs {out_b.revenue}; "
                         f"served {sorted(map(str, out_a.served))} vs "
                         f"{sorted(map(str, out_b.served))}")
            for a in inst.agents:
                ta, tb = out_a.threshold_value[a], out_b.threshold_value[a]
                if ta != tb:
                    marker = ""
                    if ta > tb:
                        reversals += 1
                        marker = "  <-- threshold reversal"
                    lines.append(f"    agent {a}: threshold {ta} vs {tb}{marker}")
        lines.append(f"  threshold reversals ({spec_a.mech_id} above "
                     f"{spec_b.mech_id}): {reversals}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


def _single_realization(inst, spec, s):
    if MECHANISMS[spec.mech_id].admission is not None:
        raise SystemExit(f"{spec.mech_id} is randomized; compare runs "
                         "deterministic mechanisms only")
    return run_realized(inst, spec, s, None)


def cmd_gen(args) -> int:
    params = {}
    for chunk in args.param:
        key, _, val = chunk.partition("=")
        if key == "count":
            raise SystemExit("--param count is not a generator parameter; use --count")
        try:
            params[key] = int(val)
        except ValueError:
            params[key] = val
    params["count"] = args.count
    instances = generate_instances(args.generator, params, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for inst in instances:
        path = out_dir / f"{inst.name}.yaml"
        save_instance(inst, path)
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": cmd_run,
        "audit": cmd_audit,
        "oracle": cmd_oracle,
        "compare": cmd_compare,
        "gen": cmd_gen,
    }[args.command]
    try:
        return handler(args)
    except (SpecError, InstanceFormatError, MechanismError, GeneratorError,
            ValuationError, yaml.YAMLError, FileNotFoundError) as exc:
        # a YAML error spans lines; the exit message is one
        raise SystemExit(" ".join(str(exc).split())) from None


if __name__ == "__main__":
    sys.exit(main())
