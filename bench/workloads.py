"""The benchmark's workloads: which instances run, with which mechanisms.

A workload is a list of units.  A unit is one instance and the mechanisms run
on it; every (instance, mechanism) pair is one CSV row.  The instance families
are fixed: the acceptance seeds of ``tests/test_acceptance.py`` and the seeds
named below.  The benchmark's ``--seed`` seeds the Monte Carlo stream only,
because swapping in another family moves a pass's cost by more than the
benchmark's bounds, and reordering the units moves the peak memory of
oracle-scale by 7% (see README.md).
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from auctionlab.generators import generate_instances
from auctionlab.instances import corpus_names, load_fixture
from auctionlab.mechanisms import Instance, MechanismSpec

WORKLOADS = ("oracle-sweep", "mechanism-sweep", "oracle-scale", "mc-sampling")

MC_TRIALS = 500


@dataclass
class Unit:
    instance: Instance
    mechanisms: list


@dataclass
class Workload:
    name: str
    units: list
    mode: str = "exact"
    trials: int = MC_TRIALS
    seed: int = 0
    checks_on: bool = True                       # oracle, upper bound and audit

    @property
    def rows(self) -> int:
        return sum(len(u.mechanisms) for u in self.units)


class _Setup:
    """Calls into the generators and the loader, traced when a tracer is given."""

    def __init__(self, tracer=None):
        self._tracer = tracer

    def _span(self, name):
        return self._tracer.span(name) if self._tracer else nullcontext()

    def generate(self, name, params, seed):
        with self._span("generators.generate"):
            return generate_instances(name, params, seed)

    def load(self, name):
        with self._span("instances.load"):
            return load_fixture(name)


def acceptance_01(setup):
    """204 correlated-private instances, seeds 100-111 (acceptance 01)."""
    out, seed = [], 100
    for kind in ("1-uniform", "2-uniform", "partition"):
        for n, grid in ((2, 2), (2, 3), (3, 2), (3, 3)):
            out += setup.generate("correlated-private",
                                  {"n": n, "grid": grid, "kind": kind, "count": 17}, seed)
            seed += 1
    return out


def interdependent_family(setup, kind, total):
    """Acceptance 02 (1-uniform, seeds 300-308) and 03 (seeds 400-408) families."""
    out = []
    per = total // 3 + 1
    seed = 300 if kind == "1-uniform" else 400
    for gen in ("weighted-sum", "additive", "concave-additive"):
        for n, grid in ((2, 3), (3, 2), (3, 3)):
            out += setup.generate(gen, {"n": n, "grid": grid, "kind": kind,
                                        "count": per // 3 + 1}, seed)
            seed += 1
    return out


def applicable_specs(inst):
    """Every mechanism the acceptance audit runs on a fixture (acceptance 05)."""
    specs = [MechanismSpec("gvcg"),
             MechanismSpec("lookahead"),
             MechanismSpec("gvcg-lazy", reserve_source="conditional")]
    if not inst.vp.interdependent:
        specs.append(MechanismSpec("gvcg-lazy", reserve_source="monopoly"))
        specs.append(MechanismSpec("vcg-eager", reserve_source="monopoly"))
    if is_single_item(inst):
        specs.append(MechanismSpec("rand-single"))
    if inst.feas.is_matroid:
        specs.append(MechanismSpec("rand-matroid"))
    return specs


def is_single_item(inst) -> bool:
    feas = inst.feas
    return (feas.is_matroid
            and all(feas.is_independent({a}) for a in inst.agents)
            and not any(len(f) > 1 for f in feas.feasible_sets()))


# 3-agent LPs of 450-600 variables and 300-400 rows.  Seed 5 of the same
# generator (1,000 variables) is left out: one solve takes about 48 s.
SCALE_SEEDS = (4, 9, 11)

# 4-agent instances with 1,050 and 1,084 support profiles: one product form,
# one table form.  Their exact revenues are stored in mc_exact.json.
MC_INSTANCES = (("regular-marginals", {"n": 4, "grid": 7, "kind": "2-uniform"}, 9),
                ("correlated-private", {"n": 4, "grid": 8, "kind": "2-uniform"}, 0))
MC_MECHANISMS = ("lookahead", "rand-matroid")


def mc_instances(setup=None):
    setup = setup or _Setup()
    return [setup.generate(name, params, seed)[0] for name, params, seed in MC_INSTANCES]


def build(name: str, seed: int = 0, tracer=None) -> Workload:
    """Generate or load the workload's instances; ``seed`` is the Monte Carlo
    seed."""
    setup = _Setup(tracer)
    if name == "oracle-sweep":
        units = [Unit(i, [MechanismSpec("lookahead")]) for i in acceptance_01(setup)]
        wl = Workload(name, units)
    elif name == "mechanism-sweep":
        units = [Unit(i, [MechanismSpec("rand-single")])
                 for i in interdependent_family(setup, "1-uniform", 100)]
        for kind in ("2-uniform", "partition"):
            units += [Unit(i, [MechanismSpec("rand-matroid")])
                      for i in interdependent_family(setup, kind, 52)]
        for fixture in corpus_names():
            inst = setup.load(fixture)
            units.append(Unit(inst, applicable_specs(inst)))
        wl = Workload(name, units)
    elif name == "oracle-scale":
        units = [Unit(setup.generate("correlated-private",
                                     {"n": 3, "grid": 5, "kind": "2-uniform"}, s)[0],
                      [MechanismSpec("lookahead")]) for s in SCALE_SEEDS]
        wl = Workload(name, units)
    elif name == "mc-sampling":
        units = [Unit(i, [MechanismSpec(m) for m in MC_MECHANISMS])
                 for i in mc_instances(setup)]
        wl = Workload(name, units, mode="monte_carlo", seed=seed, checks_on=False)
    else:
        raise ValueError(f"unknown workload {name!r}; have {', '.join(WORKLOADS)}")
    return wl
