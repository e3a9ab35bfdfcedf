"""Finite-support signal distributions: conditioning and pricing.

A joint distribution on a :class:`SignalGrid` can be written two ways, as an
explicit table of profiles or as a product of per-agent marginals, and is held
one way: a table of its positive-probability profiles in row-major order, which
every query reads.  Probabilities are exact rationals and must sum to one
exactly, and the profile queries answer in them; ``numbered_support`` and
``columns`` carry int masses P = p·D over one common denominator D,
:attr:`JointDistribution.mass_scale`, which callers sum and compare as ints
and divide by D once.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping, Sequence

# The one arithmetic: exact rationals.  The benchmark's tracing reads it.
RATIONAL = "rational"


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


def _check_total(total):
    if total != 1:
        raise DistributionError(f"probabilities sum to {total}, expected 1")


@dataclass(frozen=True)
class SignalGrid:
    """Per-agent sorted signal values; the whole type space of the model.

    Profile number k (row-major) has agent i's grid index k // strides[i] %
    sizes[i]; the numbering is built on first use and keyed by each value's
    integer ratio (n, d), so numbering a profile hashes pairs of ints and no
    ``Fraction``.  :meth:`column` is the one place a profile number is split
    into the agent's column and own index."""

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

    @cached_property
    def sizes(self) -> tuple:
        return tuple(len(self.values[a]) for a in self.agents)

    @cached_property
    def strides(self) -> tuple:
        return tuple(math.prod(self.sizes[i + 1:]) for i in range(len(self.sizes)))

    @cached_property
    def positions(self) -> tuple:
        """Per agent, each grid value's index on its axis, keyed by the
        value's integer ratio: equal numbers of any type share one key."""
        return tuple({v.as_integer_ratio(): j for j, v in enumerate(self.values[a])}
                     for a in self.agents)

    def number(self, profile: Sequence) -> int:
        """The profile's row-major number, each coordinate looked up by its
        integer ratio; an off-grid profile is an error, and so is a
        coordinate that is no finite number (a ``str``, ``None``, NaN, ±inf)."""
        if len(profile) != len(self.agents):
            raise DistributionError(f"profile {tuple(profile)} has {len(profile)} "
                                    f"signals for {len(self.agents)} agents")
        k, positions = 0, self.positions
        try:
            for pos, x in zip(positions, profile):
                k = k * len(pos) + pos[x.as_integer_ratio()]
        except (KeyError, AttributeError, ValueError, OverflowError):
            raise DistributionError(f"profile {tuple(profile)} is off the grid") from None
        return k

    def column(self, i: int, k: int) -> tuple:
        """(column number, own grid index j, stride) of profile k for agent
        index i: the column number is the profile's number with agent i's own
        index set to 0, so the column's profiles are col + j * stride."""
        st = self.strides[i]
        j = k // st % self.sizes[i]
        return k - j * st, j, st

    def profile_at(self, k: int) -> tuple:
        return tuple(self.values[a][k // st % n]
                     for a, st, n in zip(self.agents, self.strides, self.sizes))

    def on_axis(self, agent, v) -> bool:
        """Whether :meth:`number` numbers v as one of the agent's signals: v
        equals a grid value and has an integer ratio (a numpy integer has
        none)."""
        return hasattr(v, "as_integer_ratio") and v in self.values[agent]

    def on_grid(self, profile: Sequence) -> bool:
        return len(profile) == len(self.agents) and all(map(self.on_axis, self.agents, profile))


class ScalarDistribution:
    """One-dimensional pmf with sorted support."""

    def __init__(self, pairs):
        items = sorted(pairs, key=lambda kv: kv[0])
        support = tuple(v for v, _ in items)
        probs = tuple(p for _, p in items)
        if len(set(support)) != len(support):
            raise DistributionError("duplicate support values")
        if any(p < 0 for p in probs):
            raise DistributionError("negative probability")
        if not support:
            raise DistributionError("empty support")
        _check_total(sum(probs))
        self.support = support
        self.probs = probs

    def __iter__(self):
        return iter(zip(self.support, self.probs))

    def __eq__(self, other):
        return (isinstance(other, ScalarDistribution)
                and self.support == other.support and self.probs == other.probs)

    def __repr__(self):
        return f"ScalarDistribution({list(zip(self.support, self.probs))})"

    def prob_at_least(self, threshold):
        return sum((p for v, p in self if v >= threshold), 0)


def revenue_curve(d: ScalarDistribution) -> list[tuple]:
    """Posted-price revenue p * P[X >= p] at every support point."""
    return [(v, v * d.prob_at_least(v)) for v in d.support]


def monopoly_price(pairs) -> tuple:
    """Revenue-maximising posted price and its revenue over (value, mass)
    pairs in increasing value order, such as a :class:`ScalarDistribution`,
    each mass read relative to their total; ties go to the lowest price.
    The revenue is an exact quotient, so int masses p·D price as p do."""
    best_price = best_rev = None
    tail = 0
    for v, p in reversed(list(pairs)):
        tail += p
        if best_rev is None or v * tail >= best_rev:
            best_price, best_rev = v, v * tail
    return best_price, Fraction(best_rev, tail)


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
    """Correlated joint pmf over signal profiles, held as one table.

    ``form="table"`` lists (profile, probability) entries.  ``form="product"``
    multiplies per-agent marginals out into the same table and keeps them in
    :attr:`marginals` (else ``None``) only to write the instance back.
    :attr:`mass_scale` D is the lcm of the table's probability denominators.
    """

    def __init__(self, grid: SignalGrid, *, form: str, table=None, marginals=None):
        self.grid = grid
        self.marginals = None
        if form == "table":
            self._init_table(table)
        elif form == "product":
            self._init_product(marginals)
        else:
            raise DistributionError(f"unknown distribution form {form!r}")
        ratios = [p.as_integer_ratio() for p in self._table.values()]
        scale = self.mass_scale = math.lcm(*(d for _, d in ratios))
        self._masses = [n * (scale // d) for n, d in ratios]
        # Built on first use, so a fresh copy pays for them where it is used.
        self._marginal_cache: dict = {}
        self._column_index: dict = {}
        self._numbered = None
        self._cumulative = None

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
        _check_total(sum(seen.values()))
        self._table = {p: q for p, q in sorted(seen.items()) if q > 0}

    def _init_product(self, marginals):
        if marginals is None:
            raise DistributionError("product form needs per-agent marginals")
        self.marginals = {}
        for a in self.grid.agents:
            if a not in marginals:
                raise DistributionError(f"missing marginal for agent {a!r}")
            m = marginals[a]
            if not isinstance(m, ScalarDistribution):
                m = ScalarDistribution(m)
            if not all(self.grid.on_axis(a, v) for v in m.support):
                raise DistributionError(f"marginal support off the grid for agent {a!r}")
            self.marginals[a] = m
        axes = [[(v, p) for v, p in self.marginals[a] if p > 0] for a in self.grid.agents]
        self._table = {tuple(v for v, _ in combo): math.prod(p for _, p in combo)
                       for combo in itertools.product(*axes)}

    @property
    def agents(self):
        return self.grid.agents

    def probability(self, profile: tuple):
        return self._table.get(tuple(profile), 0)

    def enumerate_support(self) -> Iterator[tuple]:
        """Yield (profile, probability) for every positive-probability profile."""
        return iter(self._table.items())

    def support_profiles(self) -> list[tuple]:
        return list(self._table)

    def numbered_support(self) -> list[tuple]:
        """(profile, profile number, int mass p·D) for every support profile,
        in table order; numbered on first use."""
        if self._numbered is None:
            self._numbered = [(s, self.grid.number(s), m)
                              for s, m in zip(self._table, self._masses)]
        return self._numbered

    def marginal(self, agent) -> ScalarDistribution:
        """The agent's signal pmf over its positive-probability values."""
        if agent not in self._marginal_cache:
            idx = self.grid.index_of(agent)
            acc: dict = {}
            for profile, p in self._table.items():
                acc[profile[idx]] = acc.get(profile[idx], 0) + p
            self._marginal_cache[agent] = ScalarDistribution(acc.items())
        return self._marginal_cache[agent]

    def conditional_signal(self, agent, others: Mapping) -> ScalarDistribution:
        """Exact pmf of the agent's signal given every other coordinate.

        ``others`` maps each agent except ``agent`` to its fixed signal.
        Raises :class:`ConditioningError` when the event has no mass.
        """
        expected = set(self.grid.agents) - {agent}
        if set(others) != expected:
            raise DistributionError("conditioning must fix exactly the other agents")
        axis = self.grid.axis(agent)
        try:
            col = self.grid.number([axis[0] if a == agent else others[a] for a in self.agents])
        except DistributionError:
            col = None
        pairs = self.columns(self.grid.index_of(agent)).get(col, [])
        if not pairs:
            raise ConditioningError(f"zero-probability conditioning event {dict(others)}")
        mass = sum(p for _, p in pairs)
        return ScalarDistribution([(axis[j], Fraction(p, mass)) for j, p in pairs])

    def columns(self, i: int) -> dict:
        """The one grouping of the support into agent index i's columns, made
        on first use: column number (see :meth:`SignalGrid.column`) -> the
        table's (own grid index, int mass p·D) pairs, in own-index order and
        not normalised, in the order of each column's first support profile."""
        if i not in self._column_index:
            index = self._column_index[i] = {}
            st, size = self.grid.strides[i], self.grid.sizes[i]
            for _, k, p in self.numbered_support():
                j = k // st % size
                index.setdefault(k - j * st, []).append((j, p))
        return self._column_index[i]

    def draw(self, rng) -> int:
        """Draw one index into :meth:`numbered_support` from the caller's
        random stream: the first profile whose running total of the floats
        P / D (each the rounded probability) exceeds a uniform draw, else the
        last."""
        if self._cumulative is None:
            scale = self.mass_scale
            self._cumulative = list(itertools.accumulate(m / scale for m in self._masses))
        return min(bisect.bisect_right(self._cumulative, rng.random()), len(self._masses) - 1)

    def sample(self, rng) -> tuple:
        """The profile of one :meth:`draw`."""
        return self.numbered_support()[self.draw(rng)][0]
