"""Finite-support signal distributions: conditioning, truncation, pricing.

Joint distributions come in two forms, an explicit table of profiles and a
product of per-agent marginals, both living on a :class:`SignalGrid`.  Two
arithmetic modes are supported: exact rationals (the default, probabilities
must sum to one exactly) and doubles (normalisation checked to 1e-12).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

DOUBLE_NORMALISATION_TOL = 1e-12

RATIONAL = "rational"
DOUBLE = "double"


class DistributionError(ValueError):
    pass


class ConditioningError(DistributionError):
    """The conditioning event has zero probability."""


def _check_grid_axis(values) -> tuple:
    vals = tuple(values)
    if not vals:
        raise DistributionError("each agent needs at least one grid point")
    for a, b in zip(vals, vals[1:]):
        if not a < b:
            raise DistributionError("grid values must be strictly increasing")
    if any(isinstance(v, float) and not math.isfinite(v) for v in vals):
        raise DistributionError("grid values must be finite")
    return vals


@dataclass(frozen=True)
class SignalGrid:
    """Per-agent sorted signal values; the whole type space of the model."""

    agents: tuple
    values: Mapping

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        vals = {a: _check_grid_axis(self.values[a]) for a in self.agents}
        object.__setattr__(self, "values", vals)

    def axis(self, agent) -> tuple:
        return self.values[agent]

    def index_of(self, agent) -> int:
        return self.agents.index(agent)

    def profiles(self) -> Iterator[tuple]:
        """Every grid profile, in row-major order."""
        axes = [self.values[a] for a in self.agents]
        return itertools.product(*axes)

    def on_grid(self, profile: Sequence) -> bool:
        return len(profile) == len(self.agents) and all(
            s in self.values[a] for a, s in zip(self.agents, profile))


class ScalarDistribution:
    """One-dimensional pmf with sorted support."""

    def __init__(self, pairs, arithmetic: str = RATIONAL):
        items = sorted(pairs, key=lambda kv: kv[0])
        support = tuple(v for v, _ in items)
        probs = tuple(p for _, p in items)
        if len(set(support)) != len(support):
            raise DistributionError("duplicate support values")
        if any(p < 0 for p in probs):
            raise DistributionError("negative probability")
        if not support:
            raise DistributionError("empty support")
        total = sum(probs)
        if arithmetic == RATIONAL:
            if total != 1:
                raise DistributionError(f"probabilities sum to {total}, expected 1")
        elif abs(total - 1) > DOUBLE_NORMALISATION_TOL:
            raise DistributionError(f"probabilities sum to {total}, expected 1")
        self.support = support
        self.probs = probs
        self.arithmetic = arithmetic

    def __iter__(self):
        return iter(zip(self.support, self.probs))

    def __eq__(self, other):
        return (isinstance(other, ScalarDistribution)
                and self.support == other.support and self.probs == other.probs)

    def __repr__(self):
        return f"ScalarDistribution({list(zip(self.support, self.probs))})"

    def prob_at_least(self, threshold):
        return sum((p for v, p in self if v >= threshold), 0)

    def map_values(self, fn) -> "ScalarDistribution":
        """Push the pmf through a strictly increasing value map."""
        mapped = [(fn(v), p) for v, p in self]
        return ScalarDistribution(mapped, self.arithmetic)


def truncate_above(d: ScalarDistribution, threshold) -> ScalarDistribution:
    """Distribution of X conditioned on X >= threshold."""
    tail = [(v, p) for v, p in d if v >= threshold and p > 0]
    mass = sum(p for _, p in tail)
    if not tail or mass == 0:
        raise ConditioningError(f"no mass at or above {threshold}")
    return ScalarDistribution([(v, p / mass) for v, p in tail], d.arithmetic)


def revenue_curve(d: ScalarDistribution) -> list[tuple]:
    """Posted-price revenue p * P[X >= p] at every support point."""
    return [(v, v * d.prob_at_least(v)) for v in d.support]


def monopoly_price(d: ScalarDistribution) -> tuple:
    """Revenue-maximising posted price; ties go to the lowest price."""
    best_price, best_rev = None, None
    for price, rev in revenue_curve(d):
        if best_rev is None or rev > best_rev:
            best_price, best_rev = price, rev
    return best_price, best_rev


@dataclass(frozen=True)
class RegularityReport:
    virtual_values: tuple
    is_regular: bool
    hazard_rates: tuple
    is_mhr: bool


def regularity_report(d: ScalarDistribution) -> RegularityReport:
    """Discrete virtual values and hazard rates.

    The virtual value at support point v_k (k below the top) uses the forward
    gap: v_k - P[X > v_k] * (v_{k+1} - v_k) / P[X = v_k]; the top point keeps
    its own value.  Hazard is pmf over upper-tail mass.  The distribution is
    regular/MHR when the respective sequence is nondecreasing.
    """
    n = len(d.support)
    virtuals = []
    hazards = []
    tail = sum(d.probs, 0)
    for k, (v, p) in enumerate(d):
        if k == n - 1:
            phi = v
        else:
            above = tail - p
            phi = v - above * (d.support[k + 1] - v) / p
        virtuals.append(phi)
        hazards.append(p / tail)
        tail = tail - p
    is_regular = all(a <= b for a, b in zip(virtuals, virtuals[1:]))
    is_mhr = all(a <= b for a, b in zip(hazards, hazards[1:]))
    return RegularityReport(tuple(virtuals), is_regular, tuple(hazards), is_mhr)


class JointDistribution:
    """Correlated joint pmf over signal profiles, table or product form."""

    def __init__(self, grid: SignalGrid, *, form: str, arithmetic: str = RATIONAL,
                 table=None, marginals=None):
        self.grid = grid
        self.form = form
        self.arithmetic = arithmetic
        if form == "table":
            self._init_table(table)
        elif form == "product":
            self._init_product(marginals)
        else:
            raise DistributionError(f"unknown distribution form {form!r}")

    def _init_table(self, table):
        if table is None:
            raise DistributionError("table form needs entries")
        seen = {}
        for profile, prob in table:
            profile = tuple(profile)
            if not self.grid.on_grid(profile):
                raise DistributionError(f"support point {profile} is off the grid")
            if profile in seen:
                raise DistributionError(f"duplicate profile {profile}")
            if prob < 0:
                raise DistributionError("negative probability")
            seen[profile] = prob
        total = sum(seen.values())
        if self.arithmetic == RATIONAL:
            if total != 1:
                raise DistributionError(f"probabilities sum to {total}, expected 1")
        elif abs(total - 1) > DOUBLE_NORMALISATION_TOL:
            raise DistributionError(f"probabilities sum to {total}, expected 1")
        self._table = {p: q for p, q in sorted(seen.items()) if q > 0}
        self._marginals = None

    def _init_product(self, marginals):
        if marginals is None:
            raise DistributionError("product form needs per-agent marginals")
        self._marginals = {}
        for a in self.grid.agents:
            if a not in marginals:
                raise DistributionError(f"missing marginal for agent {a!r}")
            m = marginals[a]
            if not isinstance(m, ScalarDistribution):
                m = ScalarDistribution(m, self.arithmetic)
            if not set(m.support) <= set(self.grid.axis(a)):
                raise DistributionError(f"marginal support off the grid for agent {a!r}")
            self._marginals[a] = m
        self._table = None

    @property
    def agents(self):
        return self.grid.agents

    def probability(self, profile: tuple):
        if self._table is not None:
            return self._table.get(tuple(profile), 0)
        p = 1
        for a, s in zip(self.grid.agents, profile):
            m = self._marginals[a]
            try:
                p = p * m.probs[m.support.index(s)]
            except ValueError:
                return 0
        return p

    def enumerate_support(self) -> Iterator[tuple]:
        """Yield (profile, probability) for every positive-probability profile."""
        if self._table is not None:
            yield from self._table.items()
            return
        axes = []
        for a in self.grid.agents:
            m = self._marginals[a]
            axes.append([(v, p) for v, p in m if p > 0])
        for combo in itertools.product(*axes):
            profile = tuple(v for v, _ in combo)
            prob = 1
            for _, p in combo:
                prob = prob * p
            yield profile, prob

    def support_profiles(self) -> list[tuple]:
        return [s for s, _ in self.enumerate_support()]

    def marginal(self, agent) -> ScalarDistribution:
        if self._marginals is not None:
            return self._marginals[agent]
        idx = self.grid.index_of(agent)
        acc: dict = {}
        for profile, p in self.enumerate_support():
            v = profile[idx]
            acc[v] = acc.get(v, 0) + p
        return ScalarDistribution(acc.items(), self.arithmetic)

    def conditional_signal(self, agent, others: Mapping) -> ScalarDistribution:
        """Exact pmf of the agent's signal given every other coordinate.

        ``others`` maps each agent except ``agent`` to its fixed signal.
        Raises :class:`ConditioningError` when the event has no mass.
        """
        expected = set(self.grid.agents) - {agent}
        if set(others) != expected:
            raise DistributionError("conditioning must fix exactly the other agents")
        if self._marginals is not None:
            for a, v in others.items():
                m = self._marginals[a]
                if v not in m.support or m.probs[m.support.index(v)] == 0:
                    raise ConditioningError(f"agent {a!r} never has signal {v}")
            return self._marginals[agent]
        idx = self.grid.index_of(agent)
        other_idx = [(self.grid.index_of(a), others[a]) for a in others]
        rows = {}
        for profile, p in self._table.items():
            if all(profile[i] == v for i, v in other_idx):
                rows[profile[idx]] = rows.get(profile[idx], 0) + p
        mass = sum(rows.values())
        if mass == 0:
            raise ConditioningError(f"zero-probability conditioning event {dict(others)}")
        return ScalarDistribution([(v, p / mass) for v, p in rows.items()], self.arithmetic)

    def sample(self, rng) -> tuple:
        """Draw one profile using the caller's random stream."""
        u = rng.random()
        acc = 0.0
        last = None
        for profile, p in self.enumerate_support():
            acc += float(p)
            last = profile
            if u < acc:
                return profile
        return last

    def total_mass(self):
        return sum(p for _, p in self.enumerate_support())
