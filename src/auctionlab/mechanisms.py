"""The auction family: generalized VCG, lazy/eager reserves, lookahead,
and the randomized-admission variants, together with exact expected-revenue
evaluation, the revenue upper bound, and the incentive audit.

Every auction but the eager one is the lazy auction on an active set with a
reserve rule: generalized VCG picks the tentative winners within the active
set, and each one is offered the higher of its reserve and its threshold
value.  Plain generalized VCG has no reserves; lookahead admits everyone and
posts winner-conditioned monopoly reserves; the randomized variants run the
lookahead rule inside an admitted set.  An agent's threshold reads only the
others' signals (its column) and the active set, so it is scanned once per
(agent, column, active set) per instance and tabled on the
:class:`Instance`; the winner-conditioned reserve reads that same threshold.

One int core runs every auction: :data:`MECHANISMS` gives each mechanism an
offer (tentative winners, reserves, threshold scans) at a profile number and
an admitted bitmask, and :func:`_core` settles it into the served bitmask and
the payments by agent index.  The public functions take profile tuples and
agent frozensets and build an :class:`AuctionOutcome` from the same offer.
:func:`walk` builds each (realization, profile) outcome once through the core
and reads both the IC/IR audit and the exact revenue from it.

Threshold semantics on grids: an agent's critical signal s* is the smallest
own grid value at which the agent enters the welfare-maximising set, holding
everyone else's report fixed; the threshold value is the agent's value at
that critical signal.  Ties everywhere are resolved by one global tie-break
order, which keeps the winner rule and the threshold scan consistent and
makes the incentive audit exact.

Every auction is a deterministic function of (instance, profile, admission
realization); randomness enters only through explicitly passed admission
sets or caller-owned seeded streams, so runs parallelise and replay freely.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Sequence

from . import valuations
from .distributions import (
    ConditioningError,
    JointDistribution,
    RATIONAL,
    ScalarDistribution,
    SignalGrid,
    monopoly_price,
)
from .matching import maximum_bipartite_matching
from .matroid import (
    ExchangeInvariantError,
    FeasibilitySystem,
    default_tie_break,
    max_weight_basis,
)
from .valuations import ValuationProfile

log = logging.getLogger(__name__)

NEVER_WINS = None  # threshold-signal marker; threshold value becomes +inf

DEFAULT_ATOM_CAP = 10 ** 7

RESERVE_FALLBACKS = ("unconditioned", "prior-marginal")
ZERO = Fraction(0)


class MechanismError(RuntimeError):
    pass


class AssumptionError(MechanismError):
    """The instance fails an assumption the mechanism's guarantees need."""


class WrongVariantError(MechanismError):
    """Mechanism called on a feasibility system outside its scope."""


class ReserveAuditError(MechanismError):
    """A reserve callback tried to read the agent's own signal."""


class SizeError(MechanismError):
    """Exact enumeration would exceed the configured atom cap."""


# ----------------------------------------------------------------------
# instance


@dataclass
class Instance:
    """A complete auction environment; immutable once constructed.

    The auctions table values per profile, winner sets per (profile, active
    set), thresholds per (agent, column, active set) and reserve quotes per
    (agent, column, event mode, critical signal) on the instance, keyed by
    ints: profile number k on the grid, agent index, agent bitmask
    (:meth:`mask`), and column number, k less the agent's own grid index
    times its stride.  The values are :func:`valuations.grid_values`, built
    whole on first use.  The tables rely on the instance not changing.
    ``runner.run`` calls :meth:`release_tables` when an instance's rows are
    done.
    """

    grid: SignalGrid
    dist: JointDistribution
    vp: ValuationProfile
    feas: FeasibilitySystem
    tie_break: tuple = None
    name: str = ""
    metadata: dict = field(default_factory=dict)
    # not a field: every instance is exact; bench/tracing.py still reads it
    arithmetic = RATIONAL

    def __post_init__(self):
        agents = self.grid.agents
        if self.vp.agents != agents or set(self.feas.ground) != set(agents):
            raise MechanismError("agent sets disagree across instance fields")
        self.tie_break = (default_tie_break(agents) if self.tie_break is None
                          else tuple(self.tie_break))
        if len(self.tie_break) != len(agents) or set(self.tie_break) != set(agents):
            raise MechanismError(f"tie_break {list(self.tie_break)} does not list "
                                 "every agent exactly once")
        self._restrictions: dict = {}
        self._checks: dict = {}
        self.everyone = (1 << len(agents)) - 1
        self._values, self._winners, self._thresholds, self._quotes = [], {}, {}, {}

    @property
    def agents(self) -> tuple:
        return self.grid.agents

    def mask(self, agents) -> int:
        """The bitmask of an agent set: bit i stands for ``agents[i]``.  An
        agent outside the instance is an error, not dropped."""
        unknown = set(agents).difference(self.agents)
        if unknown:
            raise MechanismError(f"agents {sorted(map(str, unknown))} are not in the instance")
        return sum(1 << i for i, a in enumerate(self.agents) if a in agents)

    def members(self, mask: int) -> frozenset:
        return frozenset(a for i, a in enumerate(self.agents) if mask >> i & 1)

    def _value(self, i: int, k: int):
        if not self._values:
            self._values = valuations.grid_values(self.vp, self.grid)
        return self._values[k][i]

    def value(self, agent, s: Sequence):
        """v_agent(s), read from the instance's table of grid values."""
        return self._value(self.grid.index_of(agent), self.grid.number(s))

    def values_at(self, s: Sequence) -> dict:
        k = self.grid.number(s)
        return {a: self._value(i, k) for i, a in enumerate(self.agents)}

    def table_sizes(self) -> dict:
        return {"values": len(self.agents) * len(self._values),
                "winner_sets": len(self._winners),
                "thresholds": len(self._thresholds), "quotes": len(self._quotes)}

    def release_tables(self) -> dict:
        """Empty the tables and the restricted systems; return the tables'
        entry counts and the reserve fallback labels counted over the
        distinct tabled quotes."""
        labels = [q.fallback for q in self._quotes.values()]
        held = {"entries": self.table_sizes(), "fallbacks_over_distinct_quotes":
                {f: labels.count(f) for f in RESERVE_FALLBACKS}}
        for table in (self._values, self._winners, self._thresholds, self._quotes,
                      self._restrictions):
            table.clear()
        return held

    def restricted(self, active: frozenset) -> FeasibilitySystem:
        return self._restricted(self.mask(active))

    def _restricted(self, mask: int) -> FeasibilitySystem:
        sub = self._restrictions.get(mask)
        if sub is None:
            sub = self._restrictions[mask] = self.feas.restriction(self.members(mask))
        return sub

    @cached_property
    def single_item(self) -> bool:
        """Whether the system is 1-uniform: a matroid of rank at most one in
        which every agent alone is feasible."""
        feas = self.feas
        return (feas.is_matroid and all(feas.is_independent({a}) for a in feas.ground)
                and feas.rank(feas.ground) <= 1)

    def assumption_report(self) -> dict:
        """The violation lists of :func:`valuations.assumption_violations`
        (monotonicity, single-crossing, cross-responsiveness), computed on
        first use and kept."""
        if not self._checks:
            self._checks = valuations.assumption_violations(self.vp, self.grid)
        return self._checks

    def require_monotone(self):
        if self.assumption_report()["monotonicity"]:
            raise AssumptionError(
                f"{self.name or 'instance'}: valuations fail monotonicity")

    def require_single_crossing(self):
        if not self.vp.interdependent:
            return
        if self.assumption_report()["single_crossing"]:
            raise AssumptionError(
                f"{self.name or 'instance'}: interdependent valuations fail single-crossing")
        if not self.feas.is_matroid:
            raise WrongVariantError(
                f"{self.name or 'instance'}: interdependent valuations need a "
                "matroid system for truthful thresholds")

    def require_private(self, what: str):
        if self.vp.interdependent:
            raise AssumptionError(f"{what} is defined for private values only")


# ----------------------------------------------------------------------
# outcome


@dataclass
class AuctionOutcome:
    """Everything one run of an auction decides, per agent and in sets."""

    alloc: dict
    payment: dict
    threshold_signal: dict
    threshold_value: dict
    reserve: dict
    tentative: frozenset          # welfare-max set among admitted agents
    served: frozenset
    admitted: frozenset | None    # None means no admission stage

    @property
    def revenue(self):
        return sum((self.payment[a] for a in self.served), 0)

    def welfare(self, instance: Instance, s: Sequence):
        return sum((instance.value(a, tuple(s)) for a in self.served), 0)


# ----------------------------------------------------------------------
# winner selection and thresholds


_column = SignalGrid.column


def _basis(instance: Instance, k: int, mask: int, full: bool):
    """:func:`max_weight_basis` of the agents in bitmask ``mask``, weighted
    by their values at profile number k."""
    agents = instance.agents
    weights = {agents[i]: instance._value(i, k) for i in range(len(agents)) if mask >> i & 1}
    tie = [a for a in instance.tie_break if a in weights]
    return max_weight_basis(instance._restricted(mask), weights, tie, full=full)


def _winners(instance: Instance, k: int, mask: int) -> int:
    """:func:`winner_set` of profile number k and active bitmask, as a bitmask."""
    w = instance._winners.get((k, mask)) if mask else 0
    if w is None:
        chosen = _basis(instance, k, mask, True).elements
        w = instance._winners[k, mask] = sum(
            1 << i for i, a in enumerate(instance.agents) if a in chosen)
    return w


def winner_set(instance: Instance, s: Sequence, active: frozenset) -> frozenset:
    """Welfare-maximising feasible subset of ``active`` at profile s."""
    return instance.members(_winners(instance, instance.grid.number(s), instance.mask(active)))


def _threshold(instance: Instance, i: int, k: int, mask: int) -> tuple:
    """(critical grid index, threshold value) of agent i within the active
    mask: the scan goes up the agent's column from below, and the smallest
    own index at which the agent joins the winner set is critical.  Returns
    (None, inf) when no grid signal wins."""
    if not mask >> i & 1:
        return None, math.inf
    col, _, st = _column(instance.grid, i, k)
    found = instance._thresholds.get((i, col, mask))
    if found is None:
        found = None, math.inf
        for j in range(instance.grid.sizes[i]):
            if _winners(instance, col + j * st, mask) >> i & 1:
                found = j, instance._value(i, col + j * st)
                break
        instance._thresholds[i, col, mask] = found
    return found


# ----------------------------------------------------------------------
# reserves


@dataclass(frozen=True)
class ReserveQuote:
    """A posted price for one agent plus its conditional expected revenue."""

    agent: object
    price: object
    expected_revenue: object
    fallback: str = ""


def conditional_value_distribution(instance: Instance, agent, s: Sequence):
    """Distribution of v_agent given every other signal, as a value pmf."""
    instance.require_monotone()
    i = instance.grid.index_of(agent)
    col, _, st = _column(instance.grid, i, instance.grid.number(s))
    pairs = instance.dist.column_masses(i, col)
    if not pairs:
        raise ConditioningError(f"agent {agent!r} has no conditional mass at {tuple(s)}")
    mass = sum(p for _, p in pairs)
    return ScalarDistribution([(instance._value(i, col + j * st), p / mass) for j, p in pairs])


def conditional_monopoly_reserve(instance: Instance, agent, s: Sequence, *,
                                 event_mode: str = "winner_conditioned",
                                 active: frozenset | None = None) -> ReserveQuote:
    """Optimal posted price for the agent given everyone else's signals.

    ``winner_conditioned`` additionally conditions on the agent being a
    tentative winner within ``active`` (signal at or above the critical
    one).  Zero-probability events trigger a logged fallback chain: drop the
    winner conditioning first, then fall back to the agent's prior marginal;
    every stage reads only the other agents' signals, so the quote never
    depends on the agent's own report.  An agent that never wins has an
    empty winner event.  Quotes are tabled per (agent, column, event mode,
    critical signal), so each fallback is logged once per distinct quote.
    """
    mask = instance.everyone if active is None else instance.mask(active)
    return _quote(instance, instance.grid.index_of(agent), instance.grid.number(s),
                  event_mode, mask)


def _quote(instance: Instance, i: int, k: int, event_mode: str, mask: int) -> ReserveQuote:
    """:func:`conditional_monopoly_reserve` of agent i, priced from the joint
    table's masses on the agent's column: values rise strictly in the own
    signal, so the winner event is the own indices at or above the critical
    one, and that index stands for the threshold value in the key."""
    col, _, st = _column(instance.grid, i, k)
    crit = None
    if event_mode == "winner_conditioned":
        crit = _threshold(instance, i, k, mask)[0]
    elif event_mode != "unconditioned":
        raise MechanismError(f"unknown reserve event mode {event_mode!r}")
    key = (i, col, event_mode, crit)
    quote = instance._quotes.get(key)
    if quote is not None:
        return quote
    instance.require_monotone()
    agent = instance.agents[i]
    fallback = ""
    pairs = instance.dist.column_masses(i, col)
    if not pairs:
        pos = instance.grid.positions[i]
        pairs = [(pos[t], p) for t, p in instance.dist.marginal(agent)]
        fallback = "prior-marginal"
        log.debug("reserve fallback to prior marginal for agent %r", agent)
    if event_mode == "winner_conditioned":
        won = [] if crit is None else [(j, p) for j, p in pairs if j >= crit]
        if won:
            pairs = won
        else:
            fallback = fallback or "unconditioned"
            log.debug("winner event of agent %r has no conditional mass; "
                      "using unconditioned reserve", agent)
    price, revenue = monopoly_price([(instance._value(i, col + j * st), p) for j, p in pairs])
    quote = instance._quotes[key] = ReserveQuote(agent, price, revenue, fallback)
    return quote


def _monopoly_quote(instance: Instance, i: int) -> ReserveQuote:
    """The monopoly quote on agent i's prior marginal; it reads no signal,
    so it is tabled with no column."""
    key = (i, None, "monopoly", None)
    quote = instance._quotes.get(key)
    if quote is None:
        agent = instance.agents[i]
        price, revenue = monopoly_price(instance.dist.marginal(agent))
        quote = instance._quotes[key] = ReserveQuote(agent, price, revenue)
    return quote


class SignalView:
    """Read view of a profile with one coordinate hidden from reserve callbacks."""

    def __init__(self, instance: Instance, s: Sequence, hidden):
        self._s = tuple(s)
        self._agents = instance.agents
        self._hidden = hidden

    def __getitem__(self, agent):
        if agent == self._hidden:
            raise ReserveAuditError(
                f"reserve callback for agent {agent!r} read its own signal")
        return self._s[self._agents.index(agent)]

    def items(self):
        return [(a, self[a]) for a in self._agents if a != self._hidden]


def resolve_reserves(instance: Instance, s: Sequence, agents, source,
                     *, active: frozenset | None = None,
                     event_mode: str = "winner_conditioned") -> dict:
    """Per-agent reserve prices from a named source, a map, or a callback.

    ``fixed:r1,r2,...`` lists one reserve per agent in the order of
    ``instance.agents``.  Callables receive (agent, masked profile view);
    reading the agent's own coordinate raises :class:`ReserveAuditError`.
    ``conditional`` reserves condition on the winner event within
    ``active`` (all agents by default).
    """
    return _reserves(instance, instance.grid.number(s), instance.mask(agents), source,
                     instance.everyone if active is None else instance.mask(active),
                     event_mode)


def _reserves(instance: Instance, k: int, priced: int, source, mask: int,
              event_mode: str) -> dict:
    """:func:`resolve_reserves` for the bitmask ``priced``, profile number k
    and active bitmask."""
    agents = [(i, a) for i, a in enumerate(instance.agents) if priced >> i & 1]
    # named sources first: a Mapping check goes through the ABC machinery
    if source is None or source == "none":
        return {a: ZERO for _, a in agents}
    if source == "conditional":
        return {a: _quote(instance, i, k, event_mode, mask).price for i, a in agents}
    if source == "monopoly":
        instance.require_private("the unconditional monopoly reserve")
        return {a: _monopoly_quote(instance, i).price for i, a in agents}
    if source == "unsafe-own-value":
        # deliberately illegal: reads the agent's own report; audit canary
        return {a: instance._value(i, k) for i, a in agents}
    if source == "single-sample":
        raise MechanismError("single-sample reserves are integrated over by "
                             "expected_revenue, not resolved per run")
    if isinstance(source, str) and source.startswith("fixed:"):
        source = _fixed_reserves(instance, source)
    if isinstance(source, Mapping):
        unknown = set(source) - set(instance.agents)
        if unknown:
            raise MechanismError(f"reserves given for unknown agents {sorted(map(str, unknown))}")
        return {a: source.get(a, ZERO) for _, a in agents}
    if callable(source):
        s = instance.grid.profile_at(k)
        return {a: source(a, SignalView(instance, s, a)) for _, a in agents}
    raise MechanismError(f"unknown reserve source {source!r}")


def _fixed_reserves(instance: Instance, source: str) -> dict:
    try:
        values = [Fraction(x) for x in source[len("fixed:"):].split(",")]
    except ValueError as exc:
        raise MechanismError(f"bad fixed reserves {source!r}: {exc}") from exc
    if len(values) != len(instance.agents):
        raise MechanismError(f"{source!r} lists {len(values)} reserves for "
                             f"{len(instance.agents)} agents")
    return dict(zip(instance.agents, values))


# ----------------------------------------------------------------------
# the auctions


def _lazy_offer(instance: Instance, k: int, reserves, mask: int | None = None,
                event_mode: str = "winner_conditioned") -> tuple:
    """(tentative winners, reserves, threshold scan masks) of the lazy
    auction: generalized VCG within the active mask, everyone by default."""
    instance.require_monotone()
    instance.require_single_crossing()
    mask = instance.everyone if mask is None else mask
    w = _winners(instance, k, mask)
    return w, _reserves(instance, k, w, reserves, mask, event_mode), (mask,) * len(instance.agents)


def _admitted(z: int | None, applies: bool, refusal: str) -> int:
    """The admitted mask z of a randomized variant that applies."""
    if not applies:
        raise WrongVariantError(refusal)
    if z is None:
        raise MechanismError("need an explicit admission set")
    return z


def _eager_offer(instance: Instance, k: int, reserves) -> tuple:
    """The eager auction's offer: winners among the agents u at or above their
    reserves, each agent's threshold scanned within u plus itself."""
    instance.require_private("the eager-reserve auction")
    everyone = instance.everyone
    r = _reserves(instance, k, everyone, reserves, everyone, "winner_conditioned")
    u = sum(1 << i for i, a in enumerate(instance.agents) if instance._value(i, k) >= r[a])
    return _winners(instance, k, u), r, tuple(u | 1 << i for i in range(len(r)))


def _settle(instance: Instance, k: int, w: int, r: dict, scans: tuple) -> tuple:
    """(served bitmask, payments by agent index) of an offer: each tentative
    winner is served at the higher of its reserve and its threshold value
    within ``scans[i]`` when its value reaches that price; the rest pay zero."""
    agents = instance.agents
    served, pay = 0, [ZERO] * len(agents)
    for i in range(len(agents)):
        if w >> i & 1:
            price = max(r[agents[i]], _threshold(instance, i, k, scans[i])[1])
            if instance._value(i, k) >= price:
                served |= 1 << i
                pay[i] = price
    return served, pay


def _core(instance: Instance, spec: "MechanismSpec", k: int, z: int | None) -> tuple:
    """The one int path of every mechanism: (served bitmask, payments by
    agent index) at profile number k under admitted mask z (None for a
    deterministic mechanism)."""
    return _settle(instance, k, *MECHANISMS[spec.mech_id].offer(instance, spec, k, z))


def _outcome(instance: Instance, k: int, offer: tuple, admitted) -> AuctionOutcome:
    """The :class:`AuctionOutcome` of an offer: :func:`_settle` plus every
    agent's threshold and reserve, and the tentative set."""
    w, r, scans = offer
    served, pay = _settle(instance, k, *offer)
    agents = instance.agents
    crit = [_threshold(instance, i, k, scans[i]) for i in range(len(agents))]
    return AuctionOutcome(
        {a: served >> i & 1 for i, a in enumerate(agents)}, dict(zip(agents, pay)),
        {a: NEVER_WINS if j is None else instance.grid.values[a][j]
         for a, (j, _) in zip(agents, crit)},
        {a: t for a, (_, t) in zip(agents, crit)}, {a: r.get(a, ZERO) for a in agents},
        tentative=instance.members(w), served=instance.members(served), admitted=admitted)


def gvcg_lazy(instance: Instance, s: Sequence, reserves,
              active: frozenset | None = None) -> AuctionOutcome:
    """Tentative winners by generalized VCG within ``active`` (everyone by
    default), then take-it-or-leave-it at the higher of the reserve and the
    threshold value."""
    k = instance.grid.number(s)
    mask = None if active is None else instance.mask(active)
    return _outcome(instance, k, _lazy_offer(instance, k, reserves, mask), None)


def gvcg(instance: Instance, s: Sequence, active: frozenset | None = None) -> AuctionOutcome:
    """Generalized VCG: welfare-max winners pay their threshold values."""
    return gvcg_lazy(instance, s, "none", active)


def lookahead(instance: Instance, s: Sequence) -> AuctionOutcome:
    """Lazy auction with winner-conditioned monopoly reserves."""
    return gvcg_lazy(instance, s, "conditional")


def randomized_single_item(instance: Instance, s: Sequence,
                           admission, *,
                           event_mode: str = "winner_conditioned") -> AuctionOutcome:
    """Single-item variant: run the lazy auction inside the admitted set
    (drawn by the admission law in :data:`MECHANISMS`); reserves still
    condition on every other agent's signal, admitted or not."""
    return run_realized(instance, MechanismSpec("rand-single", event_mode=event_mode), s,
                        admission)


def randomized_matroid(instance: Instance, s: Sequence, admission, *,
                       event_mode: str = "winner_conditioned") -> AuctionOutcome:
    """Matroid variant: the lazy auction inside the admitted set, drawn by
    the admission law in :data:`MECHANISMS`; admitting everyone is the
    all-agents set."""
    return run_realized(instance, MechanismSpec("rand-matroid", event_mode=event_mode), s,
                        admission)


def vcg_eager(instance: Instance, s: Sequence, reserves) -> AuctionOutcome:
    """Remove agents below their reserves first, then run the auction on the
    survivors; winners pay the higher of reserve and the threshold within the
    surviving set.  Private values only."""
    k = instance.grid.number(s)
    return _outcome(instance, k, _eager_offer(instance, k, reserves), None)


# ----------------------------------------------------------------------
# threshold matching (displaced agents charge to tentative winners)


def threshold_matching(instance: Instance, s: Sequence, w: frozenset,
                       tp: frozenset) -> dict:
    """Injective map f from ``tp`` into ``w`` with, for i = f(j),
    v_j(s_i*, s_-i) <= v_i(s_i*, s_-i).

    ``w`` must be the welfare-max set at s and ``tp`` independent and
    disjoint from it.  When tp is smaller than w it is padded to equal size
    with w elements (which accept a self edge) before matching.
    """
    w, tp = frozenset(w), frozenset(tp)
    if tp & w:
        raise MechanismError("tp must be disjoint from the winner set")
    if not instance.feas.is_independent(tp):
        raise MechanismError("tp must be independent")
    winners = [a for a in instance.tie_break if a in w]
    padded = set(tp)
    for a in winners:
        if len(padded) < len(w) and instance.feas.is_independent(padded | {a}):
            padded.add(a)
    if len(padded) != len(w):
        raise ExchangeInvariantError("could not pad tp to the winner set's size")

    # each winner's critical profile number and threshold value among everyone
    k, index = instance.grid.number(s), {a: i for i, a in enumerate(instance.agents)}
    crit = {}
    for a in winners:
        j, t_val = _threshold(instance, index[a], k, instance.everyone)
        if j is None:
            raise MechanismError(f"winner {a!r} has no critical signal")
        col, _, st = _column(instance.grid, index[a], k)
        crit[a] = col + j * st, t_val
    left = [b for b in instance.tie_break if b in padded]
    adjacency = {b: [a for a in winners
                     if b == a or instance._value(index[b], crit[a][0]) <= crit[a][1]]
                 for b in left}
    matching = maximum_bipartite_matching(left, adjacency)
    if len(matching) != len(left):
        raise ExchangeInvariantError(
            "no perfect threshold matching; single-crossing premises violated?")
    return {j: matching[j] for j in tp}


# ----------------------------------------------------------------------
# running mechanisms uniformly


@dataclass(frozen=True)
class Admission:
    """Admit everyone with probability ``p_all``, otherwise admit each agent
    independently with probability ``p_in``."""

    p_all: Fraction
    p_in: Fraction

    def weight(self, z: frozenset, agents: tuple) -> Fraction:
        k = len(z)
        w = (1 - self.p_all) * self.p_in ** k * (1 - self.p_in) ** (len(agents) - k)
        return w + self.p_all if k == len(agents) else w


@dataclass(frozen=True)
class Mechanism:
    """Entry offer(instance, spec, k, z) into the auction core at profile
    number k and admitted mask z, admission law, and whether the run reads
    ``spec.reserve_source``; a deterministic mechanism has no law and runs
    with ``z=None``."""

    offer: Callable
    admission: Admission | None = None
    reads_reserves: bool = False


MECHANISMS = {
    "gvcg": Mechanism(lambda inst, spec, k, z: _lazy_offer(inst, k, "none")),
    "gvcg-lazy": Mechanism(lambda inst, spec, k, z: _lazy_offer(inst, k, spec.reserve_source),
                           reads_reserves=True),
    "lookahead": Mechanism(lambda inst, spec, k, z: _lazy_offer(inst, k, "conditional")),
    # the randomized variants run the lookahead rule inside the admitted set;
    # reserves still condition on every other agent's signal
    "rand-single": Mechanism(
        lambda inst, spec, k, z: _lazy_offer(inst, k, "conditional", _admitted(
            z, inst.single_item, "the single-item variant needs a 1-uniform system"),
            spec.event_mode),
        Admission(p_all=Fraction(0), p_in=Fraction(2, 3))),
    "rand-matroid": Mechanism(
        lambda inst, spec, k, z: _lazy_offer(inst, k, "conditional", _admitted(
            z, inst.feas.is_matroid, "the matroid variant needs a matroid system"),
            spec.event_mode),
        Admission(p_all=Fraction(1, 2), p_in=Fraction(1, 2))),
    "vcg-eager": Mechanism(lambda inst, spec, k, z: _eager_offer(inst, k, spec.reserve_source),
                           reads_reserves=True),
}
MECHANISM_IDS = tuple(MECHANISMS)


@dataclass(frozen=True)
class MechanismSpec:
    """A runnable mechanism: id plus reserve configuration."""

    mech_id: str
    reserve_source: object = "none"
    event_mode: str = "winner_conditioned"

    def __post_init__(self):
        if self.mech_id not in MECHANISMS:
            raise MechanismError(f"unknown mechanism {self.mech_id!r}")

    @property
    def sampled(self) -> bool:
        """Single-sample reserves, which a mechanism without reserves ignores."""
        return self.reserve_source == "single-sample" and MECHANISMS[self.mech_id].reads_reserves


def realizations(instance: Instance, spec: MechanismSpec):
    """Every internal-randomness outcome with its probability.

    A realization is the admitted set, or None for a deterministic
    mechanism.  Under an admission law every subset of the agents is one
    realization; the all-agents set carries the law's ``p_all`` as well.
    """
    law = MECHANISMS[spec.mech_id].admission
    if law is None:
        yield None, Fraction(1)
        return
    agents = tuple(instance.agents)
    for r in range(len(agents) + 1):
        for combo in itertools.combinations(agents, r):
            z = frozenset(combo)
            yield z, law.weight(z, agents)


def run_realized(instance: Instance, spec: MechanismSpec, s: Sequence,
                 realization) -> AuctionOutcome:
    """The mechanism's outcome at profile s under one realization."""
    mech = MECHANISMS[spec.mech_id]
    k = instance.grid.number(s)
    z = None if realization is None or mech.admission is None else frozenset(realization)
    offer = mech.offer(instance, spec, k, None if z is None else instance.mask(z))
    return _outcome(instance, k, offer, z)


def sample_realization(instance: Instance, spec: MechanismSpec, rng):
    """Draw one realization from the caller's stream: one draw for the
    all-agents branch when the law has one, then one draw per agent."""
    law = MECHANISMS[spec.mech_id].admission
    if law is None:
        return None
    if law.p_all and rng.random() < float(law.p_all):
        return frozenset(instance.agents)
    p_in = float(law.p_in)
    return frozenset(a for a in instance.agents if rng.random() < p_in)


# ----------------------------------------------------------------------
# revenue evaluation


@dataclass(frozen=True)
class RevenueEstimate:
    value: object
    std_error: object = None
    atoms: int = 0


def _single_sample_revenue(instance: Instance, s: tuple) -> object:
    """Exact per-profile expected revenue of the lazy auction whose reserve
    for each tentative winner is an independent draw from that agent's value
    distribution given the others' signals.

    The serving decision is separable per winner, so the expectation over
    the reserve vector factors agent by agent.
    """
    base = gvcg(instance, s)
    vals = instance.values_at(s)
    total = 0
    for a in base.tentative:
        vdist = conditional_value_distribution(instance, a, s)
        p_bar = base.threshold_value[a]
        for rho, p in vdist:
            price = max(rho, p_bar)
            if vals[a] >= price:
                total += p * price
    return total


def expected_revenue(instance: Instance, spec: MechanismSpec, mode: str = "exact",
                     *, trials: int = 10_000, seed: int = 0,
                     atom_cap: int = DEFAULT_ATOM_CAP) -> RevenueEstimate:
    """Expected revenue, exactly (profiles x internal randomness, see
    :func:`walk`) or by Monte Carlo with the given seed."""
    if spec.sampled:
        if spec.mech_id != "gvcg-lazy":
            raise MechanismError("single-sample reserves integrate exactly for the "
                                 "lazy auction only")
        if mode != "exact":
            raise MechanismError("single-sample reserves run in exact mode")
        total = 0
        atoms = 0
        for s, p in instance.dist.enumerate_support():
            total += p * _single_sample_revenue(instance, s)
            atoms += 1
        return RevenueEstimate(total, atoms=atoms)

    if mode == "exact":
        return walk(instance, spec, audit=False, atom_cap=atom_cap).revenue

    if mode != "monte_carlo":
        raise MechanismError(f"unknown mode {mode!r}")
    if trials < 1:
        raise MechanismError(f"Monte Carlo needs at least one trial, not {trials}")
    import random

    rng = random.Random(seed)
    draws = []
    for _ in range(trials):
        k = instance.grid.number(instance.dist.sample(rng))
        z = sample_realization(instance, spec, rng)
        draws.append(float(_revenue(*_core(instance, spec, k, None if z is None
                                            else instance.mask(z)))))
    mean = sum(draws) / trials
    var = sum((x - mean) ** 2 for x in draws) / max(trials - 1, 1)
    return RevenueEstimate(mean, std_error=math.sqrt(var / trials), atoms=trials)


def _revenue(served: int, pay: list):
    """The payments of the served agents, summed in agent index order."""
    return sum((x for i, x in enumerate(pay) if served >> i & 1), 0)


def opt_upper_bound(instance: Instance):
    """Expected winner-wise posted-price revenue plus the best feasible
    welfare disjoint from the winners; bounds every ex post IC mechanism."""
    if not instance.feas.is_matroid:
        raise WrongVariantError("the revenue upper bound needs a matroid system")
    everyone = instance.everyone
    total = 0
    for _, k, p in instance.dist.numbered_support():
        w = _winners(instance, k, everyone)
        quote_sum = 0
        for i in range(len(instance.agents)):
            if w >> i & 1:
                q = _quote(instance, i, k, "winner_conditioned", everyone)
                quote_sum += q.expected_revenue
        loser_value = 0
        if w != everyone:
            loser_value = _basis(instance, k, everyone & ~w, False).weight
        total += p * (quote_sum + loser_value)
    return total


# ----------------------------------------------------------------------
# incentive audit


@dataclass(frozen=True)
class AuditViolation:
    kind: str          # "ic" or "ir"
    realization: object
    profile: tuple
    agent: object
    deviation: object
    gap: object


def ic_ir_audit(instance: Instance, spec: MechanismSpec) -> list[AuditViolation]:
    """Check ex post incentive compatibility and individual rationality.

    For every internal-randomness realization, every support profile, every
    agent, and every own-grid deviation: truthful utility must be at least
    the deviating utility and nonnegative, measured at the agent's true
    values, in exact arithmetic.
    """
    return walk(instance, spec, revenue=False).violations


class Walk(NamedTuple):
    """What :func:`walk` found: the audit's violations (None when it did not
    audit), the exact revenue (None when not asked) and the outcomes built."""

    violations: list | None
    revenue: RevenueEstimate | None
    outcomes: int


def walk(instance: Instance, spec: MechanismSpec, *, audit: bool = True,
         revenue: bool = True, atom_cap: int = DEFAULT_ATOM_CAP) -> Walk:
    """The incentive audit and the exact expected revenue from one walk.

    Each realization's outcomes are built once by :func:`_core`, over the
    whole grid when auditing and over the support otherwise, and held by
    profile number.  The revenue sums p * weight * revenue with the support
    outer and the realizations inner.  The atom cap (support x realizations)
    is checked before any outcome is built.  Asked for neither, it builds
    nothing.
    """
    if not (audit or revenue):
        return Walk(None, None, 0)
    support = instance.dist.numbered_support()
    reals = list(realizations(instance, spec))
    atoms = len(support) * len(reals)
    if revenue and atoms > atom_cap:
        raise SizeError(f"exact evaluation needs {atoms} atoms (cap {atom_cap})")
    numbers = (range(math.prod(instance.grid.sizes)) if audit
               else [k for _, k, _ in support])
    violations, revenues = [] if audit else None, []
    for realization, _ in reals:
        z = None if realization is None else instance.mask(realization)
        outcomes = {k: _core(instance, spec, k, z) for k in numbers}
        if audit:
            _audit(instance, support, outcomes, realization, violations)
        if revenue:
            revenues.append([_revenue(*outcomes[k]) for _, k, _ in support])
    total = sum((p * weight * row[j] for j, (_, _, p) in enumerate(support)
                 for (_, weight), row in zip(reals, revenues)), 0)
    return Walk(violations, RevenueEstimate(total, atoms=atoms) if revenue else None,
                len(reals) * len(numbers))


def _audit(instance: Instance, support: list, outcomes: dict, realization,
           violations: list) -> None:
    """Append one realization's violations; ``outcomes`` maps each profile
    number to its (served bitmask, payments), so the deviation of agent i to
    own grid index j is outcome col + j * stride."""
    grid = instance.grid
    for s, k, _ in support:
        served, pay = outcomes[k]
        for i, a in enumerate(instance.agents):
            # alloc is 0 or 1: utility is v - payment when served, else
            # -payment, so a deviation gains exactly when its payment is
            # below pays_less[alloc]
            v_true = instance._value(i, k)
            u_truth = v_true - pay[i] if served >> i & 1 else -pay[i]
            if u_truth < 0:
                violations.append(AuditViolation("ir", realization, s, a, None, -u_truth))
            pays_less = (-u_truth, v_true - u_truth)
            col, j0, st = _column(grid, i, k)
            for j, t in enumerate(grid.values[a]):
                dev_served, dev_pay = outcomes[col + j * st]
                alloc = dev_served >> i & 1
                if j != j0 and dev_pay[i] < pays_less[alloc]:
                    violations.append(AuditViolation(
                        "ic", realization, s, a, t, v_true * alloc - dev_pay[i] - u_truth))
