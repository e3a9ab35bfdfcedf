"""Interdependent valuation families and their assumption check.

``value(vp, i, s)`` evaluates agent i's worth of the service at a signal
profile, and :func:`grid_values` evaluates every agent at every grid profile
once, by profile number; ``Instance`` calls it once, when it is built, and
keeps the values as ints v·L.  Built-in families:

* ``private``            -- v_i(s) = s_i
* ``weighted_sum``       -- v_i(s) = s_i + beta * sum of the other signals
* ``additive``           -- v_i(s) = sum_j g_ij(s_j), nondecreasing steps
* ``concave_additive``   -- a concave piecewise-linear map of an additive form
* ``table``              -- explicit v_i per grid profile

:func:`assumption_violations` walks that table, as the ints v·L when
``Instance`` calls it, and checks monotonicity with strict own-signal
increase, the single-crossing condition, and the concavity-type condition
that an agent's value responds less to others' signals as its own signal
grows, each between profiles one grid step apart.  Mechanisms consult it,
through ``Instance.assumption_report``, before running interdependent variants.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .distributions import SignalGrid

FAMILIES = ("private", "weighted_sum", "additive", "concave_additive", "table")


class ValuationError(ValueError):
    pass


@dataclass(frozen=True)
class StepFunction:
    """Nondecreasing step function given by its values at grid points."""

    xs: tuple
    ys: tuple

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or not self.xs:
            raise ValuationError("step function needs matching x/y lists")
        if any(a >= b for a, b in zip(self.xs, self.xs[1:])):
            raise ValuationError("step function knots must increase")

    def __call__(self, x):
        k = bisect.bisect_right(self.xs, x) - 1
        if k < 0:
            raise ValuationError(f"step function queried left of its domain: {x}")
        return self.ys[k]

    @classmethod
    def from_pairs(cls, pairs) -> "StepFunction":
        pts = sorted(pairs)
        return cls(tuple(x for x, _ in pts), tuple(y for _, y in pts))


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise-linear interpolation through breakpoints, linear tails."""

    xs: tuple
    ys: tuple

    def __call__(self, x):
        xs, ys = self.xs, self.ys
        if len(xs) == 1:
            return ys[0]
        k = bisect.bisect_right(xs, x) - 1
        k = min(max(k, 0), len(xs) - 2)
        x0, x1 = xs[k], xs[k + 1]
        y0, y1 = ys[k], ys[k + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    @classmethod
    def from_pairs(cls, pairs) -> "PiecewiseLinear":
        pts = sorted(pairs)
        return cls(tuple(x for x, _ in pts), tuple(y for _, y in pts))


@dataclass(frozen=True)
class ValuationProfile:
    family: str
    agents: tuple
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValuationError(f"unknown valuation family {self.family!r}")
        object.__setattr__(self, "agents", tuple(self.agents))

    @property
    def interdependent(self) -> bool:
        return self.family != "private"


def private(agents) -> ValuationProfile:
    return ValuationProfile("private", agents)


def weighted_sum(agents, beta) -> ValuationProfile:
    if not 0 <= beta <= 1:
        raise ValuationError("beta must lie in [0, 1]")
    return ValuationProfile("weighted_sum", agents, {"beta": beta})


def additive(agents, g: Mapping) -> ValuationProfile:
    """g[i][j] is agent i's step function of agent j's signal."""
    return ValuationProfile("additive", agents, {"g": g})


def concave_additive(agents, g: Mapping, outer: Mapping) -> ValuationProfile:
    return ValuationProfile("concave_additive", agents, {"g": g, "outer": outer})


def table(agents, values: Mapping) -> ValuationProfile:
    """values[i][profile] lists v_i explicitly for every grid profile."""
    return ValuationProfile("table", agents, {"values": values})


def value(vp: ValuationProfile, agent, s: Sequence):
    """Evaluate v_i at the signal profile (ordered like vp.agents)."""
    idx = vp.agents.index(agent)
    if vp.family == "private":
        return s[idx]
    if vp.family == "weighted_sum":
        beta = vp.params["beta"]
        return s[idx] + beta * sum(x for k, x in enumerate(s) if k != idx)
    if vp.family in ("additive", "concave_additive"):
        g = vp.params["g"][agent]
        total = sum(g[b](x) for b, x in zip(vp.agents, s))
        if vp.family == "additive":
            return total
        return vp.params["outer"][agent](total)
    try:
        return vp.params["values"][agent][tuple(s)]
    except KeyError:
        raise ValuationError(f"no tabulated value for agent {agent!r} at {tuple(s)}")


def grid_values(vp: ValuationProfile, grid: SignalGrid) -> list:
    """Every agent's value at every grid profile: entry k holds the values of
    profile number k (row-major, as ``grid.number``) in agent order."""
    return [tuple(value(vp, a, s) for a in grid.agents) for s in grid.profiles()]


def assumption_violations(grid: SignalGrid, vals: list) -> dict:
    """One walk over the grid for the three valuation assumptions, reading
    ``vals`` as :func:`grid_values` lays them out (``Instance`` passes ints v·L).

    Returns lists of violating tuples under ``monotonicity`` (agent,
    coordinate, profile, bumped profile; or agent, "nonnegative", profile,
    None), ``single_crossing`` (i, j, profile, next own signal) and
    ``cross_responsiveness`` (i, j, profile, low and high difference in the
    units of ``vals``).  Every condition compares profiles one grid step apart:

    * monotonicity -- values are nonnegative and finite, nondecreasing in
      every signal and strictly increasing in one's own;
    * single-crossing -- once v_i reaches v_j, raising s_i keeps v_i strictly
      above v_j.  Checking the next own signal is enough: if v_i >= v_j at s
      and v_i > v_j one step up, the premise holds again at that step, so by
      induction v_i > v_j at every higher own signal.  A failure at a higher
      signal is therefore listed at the first step that fails;
    * cross-responsiveness -- for i != j the forward difference of v_i along
      s_j does not grow when s_i rises one step.
    """
    agents, at = grid.agents, grid.profile_at
    # profiles go by the grid's row-major numbers, so no Fraction tuple is
    # hashed; ups[k][j] numbers profile k with signal j one grid step up
    ups = [tuple(k + st if k // st % n + 1 < n else None
                 for st, n in zip(grid.strides, grid.sizes))
           for k in range(len(vals))]
    monotonicity, single_crossing, cross_responsiveness = [], [], []
    for i, a in enumerate(agents):
        for k, (row, up) in enumerate(zip(vals, ups)):
            v, own = row[i], up[i]
            if not 0 <= v < math.inf:  # negative, infinite or NaN
                monotonicity.append((a, "nonnegative", at(k), None))
            for j, b in enumerate(agents):
                if up[j] is not None:
                    dv = vals[up[j]][i] - v
                    if (not dv > 0) if i == j else dv < 0:
                        monotonicity.append((a, b, at(k), at(up[j])))
                if i == j or own is None:
                    continue
                if not v < row[j] and not vals[own][i] > vals[own][j]:
                    single_crossing.append((a, b, at(k), at(own)[i]))
                if up[j] is not None:
                    high = vals[ups[up[j]][i]][i] - vals[own][i]
                    if high > dv:
                        cross_responsiveness.append((a, b, at(k), dv, high))
    return {"monotonicity": monotonicity, "single_crossing": single_crossing,
            "cross_responsiveness": cross_responsiveness}
