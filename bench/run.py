"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload oracle-sweep --seed 0 --seconds 10 --trace 0

The run imports auctionlab from ``src/`` of the checkout it sits in, builds
the workload's instances, then times whole passes over the workload until
``--seconds`` have gone by.  Every pass starts from fresh copies of the
instances, so caches kept on an ``Instance`` start empty, as in a fresh
``auctionlab run``.  Untraced passes go through ``runner.run``; a traced pass
(``--trace 1``) calls each layer itself and records spans.  After timing the
run checks the outputs, then prints one JSON object as its last line.
See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 3          # the run's own set-up plus two fresh interpreters
RERUN_BUDGET_S = 1.0       # re-run the cheapest rows for the CSV check

SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import auctionlab.runner, workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - start)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="the Monte Carlo seed of mc-sampling (default 0)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="time whole passes until this many seconds have gone by")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def steal_seconds() -> float:
    """Machine-wide steal time: the steal column of /proc/stat."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


class OptimumRecorder:
    """Stands in for ``runner.opt_revenue`` and keeps the last optimum and
    witness, so the checks need not solve the LP again."""

    def __init__(self, solve):
        self.solve = solve
        self.last = None

    def __call__(self, instance, *args, **kwargs):
        result = self.solve(instance, *args, **kwargs)
        self.last = (result.value, result.witness)
        return result


def run_pass(wl, unit_fn):
    """One pass over fresh copies of the workload's instances.

    ``unit_fn(inst, unit)`` returns (rows, optimum); a unit that raises counts
    all of its rows as failed."""
    instances = copy.deepcopy([u.instance for u in wl.units])
    results = []
    start = time.perf_counter()
    for inst, unit in zip(instances, wl.units):
        t = time.perf_counter()
        try:
            rows, optimum = unit_fn(inst, unit)
        except Exception:
            traceback.print_exc()
            rows, optimum = None, None
        results.append({"rows": rows, "optimum": optimum,
                        "seconds": time.perf_counter() - t})
    return {"seconds": time.perf_counter() - start, "units": results}


def runner_unit_fn(wl, recorder=None):
    from auctionlab import runner

    def unit_fn(inst, unit):
        if recorder:
            recorder.last = None
        report = runner.run(runner.ExperimentSpec(
            mechanisms=unit.mechanisms, instances=[inst], mode=wl.mode,
            trials=wl.trials, seed=wl.seed, compute_oracle=wl.checks_on,
            compute_upper_bound=wl.checks_on, audit=wl.checks_on))
        return report.rows, recorder.last if recorder else None
    return unit_fn


def unit_csv(rows) -> str:
    from auctionlab.runner import RatioReport
    return RatioReport(rows or [], {}).to_csv()


def check_pass(wl, first) -> tuple:
    """(failed rows per unit, problems) for the first pass's outputs."""
    import checks
    failed, problems = [], []
    for unit, res in zip(wl.units, first["units"]):
        inst = unit.instance
        if res["rows"] is None:
            failed.append(len(unit.mechanisms))
            problems.append(f"{inst.name}: raised")
            continue
        bad = 0
        try:
            shared = []
            if wl.checks_on:
                value, witness = res["optimum"]
                shared = (checks.check_optimum(inst, value)
                          + checks.check_witness(inst, witness))
            for row in res["rows"]:
                row_problems = shared + checks.check_row(inst, row, audited=wl.checks_on)
                problems += row_problems
                bad += bool(row_problems)
        except Exception as exc:
            problems.append(f"{inst.name}: checking raised {exc!r}")
            bad = len(unit.mechanisms)
        failed.append(bad)
    return failed, problems


def rerun_matches(wl, passes, unit_fn) -> list[str]:
    """The CSV is byte-identical between passes.  A run with a single timed
    pass re-runs rows of its cheapest units through ``runner.run``, one row at
    a time and at least one, for the comparison; after a traced pass this also
    checks that the benchmark's layer-by-layer rows equal the runner's."""
    from checks import check_csv
    from workloads import Unit
    first = passes[0]["units"]
    if len(passes) > 1:
        return [problem for k, p in enumerate(passes[1:], start=2)
                for problem in check_csv(f"pass {k}",
                                         "".join(unit_csv(u["rows"]) for u in first),
                                         "".join(unit_csv(u["rows"]) for u in p["units"]))]
    order = sorted((k for k in range(len(first)) if first[k]["rows"]),
                   key=lambda k: first[k]["seconds"])
    problems, start = [], time.perf_counter()
    for k in order:
        inst = wl.units[k].instance
        for mech, row in zip(wl.units[k].mechanisms, first[k]["rows"]):
            if time.perf_counter() - start > RERUN_BUDGET_S:
                return problems
            rows, _ = unit_fn(copy.deepcopy(inst), Unit(inst, [mech]))
            problems += check_csv(f"{inst.name}/{mech.mech_id} re-run",
                                  unit_csv([row]), unit_csv(rows))
    return problems


def setup_samples(wl_name, seed, first) -> list[float]:
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), wl_name, str(seed)],
            capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    if not (SRC / "auctionlab" / "__init__.py").is_file():
        print(f"error: no auctionlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import auctionlab.runner as runner
    import workloads
    if not Path(runner.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported auctionlab from {runner.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    import tracing
    tracer = tracing.Tracer() if args.trace else None
    wl = workloads.build(args.workload, args.seed, tracer)
    first_setup = time.perf_counter() - start
    import checks

    if tracer:
        counts = tracing.new_counts()

        def unit_fn(inst, unit):
            return tracing.traced_unit(tracer, wl, inst, unit, counts)
    else:
        recorder = OptimumRecorder(runner.opt_revenue)
        runner.opt_revenue = recorder
        unit_fn = runner_unit_fn(wl, recorder)

    passes = []
    cpu0, steal0, t0 = time.process_time(), steal_seconds(), time.perf_counter()
    while True:
        passes.append(run_pass(wl, unit_fn))
        if time.perf_counter() - t0 >= args.seconds:
            break
    wall = time.perf_counter() - t0
    host = {"cpu_s": time.process_time() - cpu0, "steal_s": steal_seconds() - steal0}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    setup = setup_samples(args.workload, args.seed, first_setup)
    failed_per_unit, problems = check_pass(wl, passes[0])
    mismatches = rerun_matches(wl, passes, runner_unit_fn(wl))
    try:
        missed = checks.self_test()
    except Exception as exc:
        missed = [f"raised {exc!r}"]

    completed = sum(len(u["rows"]) for p in passes for u in p["units"] if u["rows"])
    attempted = wl.rows * len(passes)
    # check results carry over to later passes, whose CSV must be identical
    failed = sum(len(unit.mechanisms) if res["rows"] is None else bad
                 for p in passes
                 for unit, res, bad in zip(wl.units, p["units"], failed_per_unit))
    csv_text = unit_csv([r for u in passes[0]["units"] for r in (u["rows"] or [])])
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}{'-traced' if tracer else ''}"
    (OUT / f"{stem}.csv").write_text(csv_text)

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} pass(es), "
          f"{wl.rows} rows each, {wall:.3f} s wall, {host['cpu_s']:.3f} s cpu, "
          f"{host['steal_s']:.2f} s machine steal")
    print(f"set-up samples (s): {', '.join(f'{s:.3f}' for s in setup)}")
    print(f"CSV sha256 {checks.sha256(csv_text)} ({OUT / stem}.csv)")
    for line in problems[:20] + mismatches + [f"self-test: {m}" for m in missed]:
        print(f"CHECK FAILED: {line}")
    if tracer:
        tracer.write(OUT / f"{stem}.spans.json")
        print(tracing.summary_table(tracer))
        print(f"spans: {OUT / stem}.spans.json")
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in
                   tracing.layer_metrics(tracer, counts, len(passes), host).items()}
    else:
        metrics = {
            "rows_per_s": {"value": completed / sum(p["seconds"] for p in passes),
                           "unit": "rows/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    # a row that fails a check is counted in "failed"; "correct" covers the
    # rows that did not fail plus the run-wide CSV identity and self-tests
    correct = not missed and not mismatches
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
