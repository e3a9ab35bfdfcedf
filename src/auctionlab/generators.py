"""Seeded instance generators for the experiment harness.

Every generator is deterministic given its seed, and every emitted instance
passes the assumption checks of its class; draws that fail a check are
rejected and redrawn, with the rejection count recorded in the instance
metadata.
"""
from __future__ import annotations

import logging
import random
from fractions import Fraction

from .distributions import JointDistribution, ScalarDistribution, SignalGrid, regularity_report
from .matroid import FeasibilitySystem
from .mechanisms import Instance
from .valuations import (
    PiecewiseLinear,
    StepFunction,
    additive,
    concave_additive,
    private,
    weighted_sum,
)

log = logging.getLogger(__name__)

GENERATORS = ("correlated-private", "weighted-sum", "additive",
              "concave-additive", "regular-marginals")

MAX_REDRAWS = 200


class GeneratorError(ValueError):
    pass


def generate_instances(name: str, params: dict | None = None, seed: int = 0) -> list[Instance]:
    """Build ``count`` instances from the named generator, deterministically."""
    params = dict(params or {})
    count = _number(params, "count", 1, int)
    if count < 1:
        raise GeneratorError(f"count must be at least 1, got {count}")
    rng = random.Random(seed)
    maker = _MAKERS.get(name)
    if maker is None:
        raise GeneratorError(f"unknown generator {name!r}; have {GENERATORS}")
    out = []
    for index in range(count):
        inst, rejections = _draw_until_valid(maker, rng, params)
        inst.name = f"{name}-s{seed}-{index}"
        inst.metadata.update({"generator": name, "seed": seed, "index": index,
                              "rejections": rejections})
        out.append(inst)
    return out


def _draw_until_valid(maker, rng, params):
    rejections = 0
    while True:
        inst = maker(rng, params)
        report = inst.assumption_report()
        ok = not report["monotonicity"]
        if ok and inst.vp.interdependent:
            ok = not report["single_crossing"] and not report["cross_responsiveness"]
        if ok:
            return inst, rejections
        rejections += 1
        if rejections > MAX_REDRAWS:
            raise GeneratorError("generator kept failing its class's checks")
        log.debug("redrawing instance (%d rejections so far)", rejections)


# ----------------------------------------------------------------------
# shared pieces


def _number(params, key, default, convert):
    """Parameter ``key`` converted to a number; a value that does not convert
    is refused rather than left to fail inside a draw."""
    value = params.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise GeneratorError(f"generator parameter {key}={value!r} is not a number") from None


def _grid(rng, params, *, lo=0, hi=9):
    """Agents 1..n, each with 2..``grid`` distinct signals from [lo, hi]
    (one signal when ``grid`` is 1); n below 1 or a ``grid`` outside
    [1, hi - lo + 1] is refused."""
    max_points, n = _number(params, "grid", 3, int), _number(params, "n", 2, int)
    if n < 1:
        raise GeneratorError(f"generator parameter n={n} must be at least 1")
    if not 1 <= max_points <= hi - lo + 1:
        raise GeneratorError(f"generator parameter grid={max_points} must lie in "
                             f"[1, {hi - lo + 1}]: the signals are drawn from [{lo}, {hi}]")
    axes = {}
    for a in range(1, n + 1):
        size = rng.randint(2, max_points) if max_points > 1 else 1
        axes[a] = tuple(Fraction(v) for v in sorted(rng.sample(range(lo, hi + 1), size)))
    return SignalGrid(agents=tuple(axes), values=axes)


def _random_table(rng, grid, params):
    sparsity = _number(params, "sparsity", 0.45, float)
    profiles = list(grid.profiles())
    weights = [0 if rng.random() < sparsity else rng.randint(1, 6) for _ in profiles]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1
    total = sum(weights)
    entries = [(p, Fraction(w, total)) for p, w in zip(profiles, weights) if w]
    return JointDistribution(grid, form="table", table=entries)


def _feasibility(rng, agents, kind):
    n = len(agents)
    if kind == "random":
        kind = rng.choice(["1-uniform", "2-uniform", "partition"])
    if kind == "1-uniform":
        return FeasibilitySystem.uniform(1, list(agents))
    if kind == "2-uniform":
        return FeasibilitySystem.uniform(min(2, n), list(agents))
    if kind == "partition":
        if n == 1:
            return FeasibilitySystem.uniform(1, list(agents))
        cut = rng.randint(1, n - 1)
        blocks = [list(agents[:cut]), list(agents[cut:])]
        caps = [1, 1]
        return FeasibilitySystem.partition(blocks, caps, ground=list(agents))
    raise GeneratorError(f"unknown feasibility kind {kind!r}")


# ----------------------------------------------------------------------
# generators


def _correlated_private(rng, params):
    grid = _grid(rng, params)
    dist = _random_table(rng, grid, params)
    feas = _feasibility(rng, grid.agents, params.get("kind", "random"))
    return Instance(grid=grid, dist=dist, vp=private(grid.agents), feas=feas)


def _weighted_sum(rng, params):
    beta = params.get("beta")
    if beta is None:
        beta = rng.choice([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    else:
        beta = _number(params, "beta", None, Fraction)
    grid = _grid(rng, params)
    dist = _random_table(rng, grid, params)
    feas = _feasibility(rng, grid.agents, params.get("kind", "1-uniform"))
    return Instance(grid=grid, dist=dist, vp=weighted_sum(grid.agents, beta), feas=feas)


def _step_below_identity(rng, axis):
    """Nondecreasing steps growing strictly slower than the identity."""
    ys = [Fraction(0)]
    for lo, hi in zip(axis, axis[1:]):
        gap = hi - lo
        ys.append(ys[-1] + gap * rng.choice([Fraction(0), Fraction(1, 4), Fraction(1, 2)]))
    return StepFunction(tuple(axis), tuple(ys))


def _additive_pieces(rng, grid):
    g = {}
    for a in grid.agents:
        g[a] = {}
        for b in grid.agents:
            axis = grid.axis(b)
            if a == b:
                g[a][b] = StepFunction(tuple(axis), tuple(axis))
            else:
                g[a][b] = _step_below_identity(rng, axis)
    return g


def _additive_parts(rng, params):
    grid = _grid(rng, params)
    dist = _random_table(rng, grid, params)
    feas = _feasibility(rng, grid.agents, params.get("kind", "1-uniform"))
    return grid, dist, feas, _additive_pieces(rng, grid)


def _additive(rng, params):
    grid, dist, feas, g = _additive_parts(rng, params)
    return Instance(grid=grid, dist=dist, vp=additive(grid.agents, g), feas=feas)


def _concave_additive(rng, params):
    grid, dist, feas, g = _additive_parts(rng, params)
    top = sum(max(grid.axis(a)) for a in grid.agents)
    knee = Fraction(rng.randint(1, max(int(top), 1)))
    outer = {a: PiecewiseLinear((Fraction(0), knee, top + 1),
                                (Fraction(0), knee, knee + (top + 1 - knee) / 2))
             for a in grid.agents}
    return Instance(grid=grid, dist=dist, vp=concave_additive(grid.agents, g, outer), feas=feas)


def _regular_marginal(rng, axis):
    for _ in range(MAX_REDRAWS):
        weights = [rng.randint(1, 8) for _ in axis]
        total = sum(weights)
        d = ScalarDistribution([(v, Fraction(w, total)) for v, w in zip(axis, weights)])
        if regularity_report(d).is_regular:
            return d
    raise GeneratorError("no regular marginal found on this axis")


def _regular_marginals(rng, params):
    grid = _grid(rng, params, lo=1, hi=12)
    marginals = {a: _regular_marginal(rng, grid.axis(a)) for a in grid.agents}
    dist = JointDistribution(grid, form="product", marginals=marginals)
    feas = _feasibility(rng, grid.agents, params.get("kind", "random"))
    return Instance(grid=grid, dist=dist, vp=private(grid.agents), feas=feas)


_MAKERS = {
    "correlated-private": _correlated_private,
    "weighted-sum": _weighted_sum,
    "additive": _additive,
    "concave-additive": _concave_additive,
    "regular-marginals": _regular_marginals,
}
