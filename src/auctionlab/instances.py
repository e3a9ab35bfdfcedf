"""Instance files: a YAML schema for auction environments, plus the bundled
fixture corpus.

A file has top-level blocks ``agents``, ``grid``, ``distribution``,
``valuation``, ``feasibility`` and an optional ``tie_break``.  Probabilities
and other numbers may be written as ints, floats, or fraction strings such
as ``3/10``, and every one becomes an exact Fraction (a float through its
decimal text).  ``distribution.arithmetic`` may be omitted or say
``rational``; any other value is refused.  Loading validates normalisation,
grid membership, and the monotonicity assumption; single-crossing and the
concavity-type condition are checked and attached as metadata flags.
"""
from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

import yaml

from .distributions import JointDistribution, RATIONAL, ScalarDistribution, SignalGrid
from .matroid import FeasibilitySystem
from .mechanisms import AssumptionError, Instance, MechanismError
from .valuations import (
    PiecewiseLinear,
    StepFunction,
    ValuationProfile,
    additive,
    concave_additive,
    private,
    table,
    weighted_sum,
)

FIXTURE_ENV_VAR = "AUCTIONLAB_FIXTURES"


class InstanceFormatError(ValueError):
    pass


def _num(x):
    """Parse a YAML scalar into an exact Fraction."""
    if isinstance(x, bool) or x is None:
        raise InstanceFormatError(f"expected a number, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ValueError:
            raise InstanceFormatError(f"cannot parse number {x!r}")
    raise InstanceFormatError(f"expected a number, got {x!r}")


def _format_num(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise InstanceFormatError(f"{where}: missing required field {key!r}")
    return block[key]


def from_dict(doc: dict, *, name: str = "") -> Instance:
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a mapping")
    agents = tuple(_require(doc, "agents", "top level"))
    if len(set(agents)) != len(agents):
        raise InstanceFormatError("agents: duplicate identifiers")

    dist_block = dict(_require(doc, "distribution", "top level"))
    mode = dist_block.get("arithmetic", RATIONAL)
    if mode != RATIONAL:
        raise InstanceFormatError(f"distribution.arithmetic: {mode!r} is not "
                                  f"{RATIONAL!r}, the only arithmetic")

    grid_block = _require(doc, "grid", "top level")
    axes = {}
    for a in agents:
        if a not in grid_block:
            raise InstanceFormatError(f"grid: missing axis for agent {a!r}")
        axes[a] = tuple(_num(v) for v in grid_block[a])
    grid = SignalGrid(agents=agents, values=axes)

    dist = _parse_distribution(dist_block, grid)
    vp = _parse_valuation(dict(_require(doc, "valuation", "top level")), agents, grid)
    feas = _parse_feasibility(dict(_require(doc, "feasibility", "top level")), agents)

    tie_break = doc.get("tie_break")
    if tie_break is not None:
        tie_break = tuple(tie_break)

    try:
        inst = Instance(grid=grid, dist=dist, vp=vp, feas=feas, tie_break=tie_break,
                        name=doc.get("name", name))
    except MechanismError as exc:
        raise InstanceFormatError(str(exc)) from exc
    report = inst.assumption_report()
    if report["monotonicity"]:
        first = report["monotonicity"][0]
        raise AssumptionError(
            f"{inst.name or 'instance'}: valuation violates monotonicity, e.g. {first}")
    inst.metadata["single_crossing_ok"] = not report["single_crossing"]
    inst.metadata["cross_responsiveness_ok"] = not report["cross_responsiveness"]
    return inst


def _parse_distribution(block: dict, grid: SignalGrid) -> JointDistribution:
    form = _require(block, "form", "distribution")
    try:
        if form == "product":
            marginals = {}
            raw = _require(block, "marginals", "distribution")
            for a in grid.agents:
                if a not in raw:
                    raise InstanceFormatError(f"distribution.marginals: agent {a!r} missing")
                marginals[a] = ScalarDistribution([(_num(v), _num(p)) for v, p in raw[a]])
            return JointDistribution(grid, form="product", marginals=marginals)
        if form == "table":
            entries = _require(block, "entries", "distribution")
            parsed = [(tuple(_num(v) for v in profile), _num(p)) for profile, p in entries]
            return JointDistribution(grid, form="table", table=parsed)
    except InstanceFormatError:
        raise
    except ValueError as exc:
        raise InstanceFormatError(f"distribution: {exc}") from exc
    raise InstanceFormatError(f"distribution.form: unknown form {form!r}")


def _parse_valuation(block: dict, agents, grid: SignalGrid) -> ValuationProfile:
    family = _require(block, "family", "valuation")
    if family == "private":
        return private(agents)
    if family == "weighted_sum":
        return weighted_sum(agents, _num(_require(block, "beta", "valuation")))
    if family in ("additive", "concave_additive"):
        raw_g = _require(block, "g", "valuation")
        g = {}
        for a in agents:
            if a not in raw_g:
                raise InstanceFormatError(f"valuation.g: agent {a!r} missing")
            g[a] = {}
            for b in agents:
                if b not in raw_g[a]:
                    raise InstanceFormatError(
                        f"valuation.g[{a!r}]: component for agent {b!r} missing")
                g[a][b] = StepFunction.from_pairs([(_num(x), _num(y)) for x, y in raw_g[a][b]])
        if family == "additive":
            return additive(agents, g)
        raw_outer = _require(block, "outer", "valuation")
        outer = {a: PiecewiseLinear.from_pairs([(_num(x), _num(y)) for x, y in raw_outer[a]])
                 for a in agents}
        return concave_additive(agents, g, outer)
    if family == "table":
        raw = _require(block, "values", "valuation")
        values = {}
        for a in agents:
            if a not in raw:
                raise InstanceFormatError(f"valuation.values: agent {a!r} missing")
            values[a] = {tuple(_num(v) for v in profile): _num(val)
                         for profile, val in raw[a]}
            for s in grid.profiles():
                if tuple(s) not in values[a]:
                    raise InstanceFormatError(
                        f"valuation.values[{a!r}]: profile {tuple(s)} missing")
        return table(agents, values)
    raise InstanceFormatError(f"valuation.family: unknown family {family!r}")


def _parse_feasibility(block: dict, agents) -> FeasibilitySystem:
    kind = _require(block, "kind", "feasibility")
    try:
        if kind == "uniform":
            return FeasibilitySystem.uniform(int(_require(block, "k", "feasibility")),
                                             list(agents))
        if kind == "partition":
            return FeasibilitySystem.partition(
                [list(b) for b in _require(block, "blocks", "feasibility")],
                [int(c) for c in _require(block, "capacities", "feasibility")],
                ground=list(agents))
        if kind == "transversal":
            return FeasibilitySystem.transversal(
                _require(block, "adjacency", "feasibility"), ground=list(agents))
        if kind == "graphic":
            edges = {a: tuple(e) for a, e in _require(block, "edges", "feasibility").items()}
            return FeasibilitySystem.graphic(edges, ground=list(agents))
        if kind == "explicit":
            return FeasibilitySystem.explicit(
                [frozenset(s) for s in _require(block, "sets", "feasibility")],
                ground=list(agents))
    except ValueError as exc:
        raise InstanceFormatError(f"feasibility: {exc}") from exc
    raise InstanceFormatError(f"feasibility.kind: unknown kind {kind!r}")


def loads(text: str, *, name: str = "") -> Instance:
    return from_dict(yaml.safe_load(text), name=name)


def load_instance(path) -> Instance:
    path = Path(path)
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    return from_dict(doc, name=path.stem)


def to_dict(instance: Instance) -> dict:
    """Serialise an instance back into the YAML document structure."""
    doc: dict = {"name": instance.name or "instance",
                 "agents": list(instance.agents)}
    doc["grid"] = {a: [_format_num(v) for v in instance.grid.axis(a)]
                   for a in instance.agents}
    dist = instance.dist
    if dist.marginals is not None:
        doc["distribution"] = {
            "form": "product", "arithmetic": RATIONAL,
            "marginals": {a: [[_format_num(v), _format_num(p)] for v, p in m]
                          for a, m in dist.marginals.items()}}
    else:
        doc["distribution"] = {
            "form": "table", "arithmetic": RATIONAL,
            "entries": [[[_format_num(v) for v in s], _format_num(p)]
                        for s, p in dist.enumerate_support()]}
    vp = instance.vp
    if vp.family == "private":
        doc["valuation"] = {"family": "private"}
    elif vp.family == "weighted_sum":
        doc["valuation"] = {"family": "weighted_sum",
                            "beta": _format_num(vp.params["beta"])}
    elif vp.family in ("additive", "concave_additive"):
        block = {"family": vp.family,
                 "g": {a: {b: [[_format_num(x), _format_num(y)]
                               for x, y in zip(fn.xs, fn.ys)]
                           for b, fn in per.items()}
                       for a, per in vp.params["g"].items()}}
        if vp.family == "concave_additive":
            block["outer"] = {a: [[_format_num(x), _format_num(y)]
                                  for x, y in zip(fn.xs, fn.ys)]
                              for a, fn in vp.params["outer"].items()}
        doc["valuation"] = block
    else:
        doc["valuation"] = {
            "family": "table",
            "values": {a: [[[_format_num(v) for v in s], _format_num(val)]
                           for s, val in sorted(per.items())]
                       for a, per in vp.params["values"].items()}}
    feas = instance.feas
    if feas.kind == "uniform":
        doc["feasibility"] = {"kind": "uniform", "k": feas._params["k"]}
    elif feas.kind == "partition":
        doc["feasibility"] = {"kind": "partition",
                              "blocks": [list(b) for b in feas._params["blocks"]],
                              "capacities": list(feas._params["capacities"])}
    elif feas.kind == "transversal":
        doc["feasibility"] = {"kind": "transversal",
                              "adjacency": {a: list(v) for a, v in
                                            feas._params["adjacency"].items()}}
    elif feas.kind == "graphic":
        doc["feasibility"] = {"kind": "graphic",
                              "edges": {a: list(e) for a, e in
                                        feas._params["edges"].items()}}
    else:
        doc["feasibility"] = {"kind": "explicit",
                              "sets": [sorted(s, key=str) for s in feas.feasible_sets()]}
    doc["tie_break"] = list(instance.tie_break)
    return doc


def save_instance(instance: Instance, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(to_dict(instance), fh, sort_keys=False)


def fixture_dir() -> Path:
    override = os.environ.get(FIXTURE_ENV_VAR)
    if override:
        return Path(override)
    return Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    p = fixture_dir() / f"{name}.yaml"
    if not p.exists():
        raise FileNotFoundError(f"no fixture {name!r} under {fixture_dir()}")
    return p


def load_fixture(name: str) -> Instance:
    return load_instance(fixture_path(name))


def corpus_names() -> list[str]:
    return sorted(p.stem for p in fixture_dir().glob("*.yaml"))
