"""The auction family: generalized VCG, lazy/eager reserves, lookahead,
and the randomized-admission variants, together with exact expected-revenue
evaluation, the revenue upper bound, and the incentive audit.

Every auction but the eager one is the lazy auction (:func:`gvcg_lazy`) on
an active set with a reserve rule: generalized VCG picks the tentative
winners within the active set, and each one is offered the higher of its
reserve and its threshold value.  Plain generalized VCG has no reserves;
lookahead admits everyone and posts winner-conditioned monopoly reserves;
the randomized variants run the lookahead rule inside an admitted set.  An
agent's threshold reads only the others' signals (its column) and the active
set, so it is scanned once per (agent, column, active set) per instance, not
once per run, and tabled on the :class:`Instance`; the winner-conditioned
reserve reads that same threshold.

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
from typing import Callable, Mapping, Sequence

from . import valuations
from .distributions import (
    ConditioningError,
    JointDistribution,
    RATIONAL,
    SignalGrid,
    monopoly_price,
    truncate_above,
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
# The slack double-mode audits give rounding noise; rational audits are exact.
DOUBLE_TOLERANCE = 1e-9


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

    The auctions table values per (agent, profile), winner sets per
    (profile, active set), thresholds per (agent, column, active set) and
    reserve quotes per (agent, column, event mode, threshold value) on the
    instance, a column being a profile without the agent's own signal.  The
    tables rely on the instance not changing.  ``runner.run`` calls
    :meth:`release_tables` when an instance's rows are done.
    """

    grid: SignalGrid
    dist: JointDistribution
    vp: ValuationProfile
    feas: FeasibilitySystem
    tie_break: tuple = None
    name: str = ""
    arithmetic: str = RATIONAL
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        agents = self.grid.agents
        if self.vp.agents != agents or set(self.feas.ground) != set(agents):
            raise MechanismError("agent sets disagree across instance fields")
        if self.tie_break is None:
            self.tie_break = default_tie_break(agents)
        else:
            self.tie_break = tuple(self.tie_break)
        self.zero = Fraction(0) if self.arithmetic == RATIONAL else 0.0
        self.tolerance = 0 if self.arithmetic == RATIONAL else DOUBLE_TOLERANCE
        self._restrictions: dict = {}
        self._checks: dict = {}
        self._values, self._winners, self._thresholds, self._quotes = {}, {}, {}, {}

    @property
    def agents(self) -> tuple:
        return self.grid.agents

    def value(self, agent, s: tuple):
        """v_agent(s), tabled per (agent, profile)."""
        key = (agent, s)
        try:
            return self._values[key]
        except KeyError:
            v = self._values[key] = valuations.value(self.vp, agent, s)
            return v

    def values_at(self, s: Sequence) -> dict:
        return {a: self.value(a, tuple(s)) for a in self.agents}

    def table_sizes(self) -> dict:
        return {"values": len(self._values), "winner_sets": len(self._winners),
                "thresholds": len(self._thresholds), "quotes": len(self._quotes)}

    def release_tables(self) -> dict:
        """Empty the tables; return their entry counts and the reserve
        fallback labels counted over the distinct tabled quotes."""
        labels = [q.fallback for q in self._quotes.values()]
        held = {"entries": self.table_sizes(), "fallbacks_over_distinct_quotes":
                {f: labels.count(f) for f in RESERVE_FALLBACKS}}
        for table in (self._values, self._winners, self._thresholds, self._quotes):
            table.clear()
        return held

    def restricted(self, active: frozenset) -> FeasibilitySystem:
        sub = self._restrictions.get(active)
        if sub is None:
            sub = self.feas.restriction(active)
            self._restrictions[active] = sub
        return sub

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


def winner_set(instance: Instance, s: Sequence, active: frozenset) -> frozenset:
    """Welfare-maximising feasible subset of ``active`` at profile s."""
    if not active:
        return frozenset()
    s = tuple(s)
    key = (s, active)
    w = instance._winners.get(key)
    if w is None:
        weights = {a: instance.value(a, s) for a in active}
        tie = [a for a in instance.tie_break if a in active]
        w = max_weight_basis(instance.restricted(active), weights, tie, full=True).elements
        instance._winners[key] = w
    return w


def threshold(instance: Instance, s: Sequence, agent, active: frozenset):
    """(critical signal, threshold value) for the agent within ``active``.

    Scans the agent's grid from below; the smallest signal at which the agent
    joins the winner set is critical.  Returns (None, inf) when no grid
    signal wins.  The scan reads only the agent's column of s.
    """
    if agent not in active:
        return NEVER_WINS, math.inf
    idx = instance.grid.index_of(agent)
    before, after = tuple(s[:idx]), tuple(s[idx + 1:])
    key = (agent, before + after, active)
    found = instance._thresholds.get(key)
    if found is None:
        found = NEVER_WINS, math.inf
        for t in instance.grid.axis(agent):
            st = before + (t,) + after
            if agent in winner_set(instance, st, active):
                found = t, instance.value(agent, st)
                break
        instance._thresholds[key] = found
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
    others = {a: s[instance.grid.index_of(a)]
              for a in instance.agents if a != agent}
    return _own_values(instance, agent, s, instance.dist.conditional_signal(agent, others))


def _own_values(instance: Instance, agent, s: Sequence, signal_dist):
    """Push a pmf of the agent's own signal through v_agent(., s_-agent),
    which must be strictly increasing."""
    instance.require_monotone()
    idx = instance.grid.index_of(agent)
    before, after = tuple(s[:idx]), tuple(s[idx + 1:])
    return signal_dist.map_values(lambda t: instance.value(agent, before + (t,) + after))


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
    threshold value), so each fallback is logged once per distinct quote.
    """
    t_val = None
    if event_mode == "winner_conditioned":
        if active is None:
            active = frozenset(instance.agents)
        t_val = threshold(instance, s, agent, active)[1]
    idx = instance.grid.index_of(agent)
    key = (agent, tuple(s[:idx]) + tuple(s[idx + 1:]), event_mode, t_val)
    quote = instance._quotes.get(key)
    if quote is not None:
        return quote
    fallback = ""
    try:
        vdist = conditional_value_distribution(instance, agent, s)
    except ConditioningError:
        vdist = _own_values(instance, agent, s, instance.dist.marginal(agent))
        fallback = "prior-marginal"
        log.debug("reserve fallback to prior marginal for agent %r", agent)

    if event_mode == "winner_conditioned":
        try:
            vdist = truncate_above(vdist, t_val)
        except ConditioningError:
            fallback = fallback or "unconditioned"
            log.debug("winner event of agent %r has no conditional mass; "
                      "using unconditioned reserve", agent)
    elif event_mode != "unconditioned":
        raise MechanismError(f"unknown reserve event mode {event_mode!r}")

    price, revenue = monopoly_price(vdist)
    quote = instance._quotes[key] = ReserveQuote(agent, price, revenue, fallback)
    return quote


def _monopoly_quote(instance: Instance, agent) -> ReserveQuote:
    """The monopoly quote on the agent's prior marginal; it reads no signal,
    so it is tabled with no column."""
    key = (agent, None, "monopoly", None)
    quote = instance._quotes.get(key)
    if quote is None:
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
    zero = instance.zero
    if source is None or source == "none":
        return {a: zero for a in agents}
    if isinstance(source, str) and source.startswith("fixed:"):
        source = _fixed_reserves(instance, source)
    if isinstance(source, Mapping):
        unknown = set(source) - set(instance.agents)
        if unknown:
            raise MechanismError(f"reserves given for unknown agents {sorted(map(str, unknown))}")
        return {a: source.get(a, zero) for a in agents}
    if callable(source):
        out = {}
        for a in agents:
            out[a] = source(a, SignalView(instance, s, a))
        return out
    if source == "monopoly":
        instance.require_private("the unconditional monopoly reserve")
        return {a: _monopoly_quote(instance, a).price for a in agents}
    if source == "conditional":
        return {a: conditional_monopoly_reserve(
            instance, a, s, event_mode=event_mode, active=active).price for a in agents}
    if source == "unsafe-own-value":
        # deliberately illegal: reads the agent's own report; audit canary
        return {a: instance.value(a, tuple(s)) for a in agents}
    if source == "single-sample":
        raise MechanismError("single-sample reserves are integrated over by "
                             "expected_revenue, not resolved per run")
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


def gvcg_lazy(instance: Instance, s: Sequence, reserves, active: frozenset | None = None,
              *, admitted: frozenset | None = None,
              event_mode: str = "winner_conditioned") -> AuctionOutcome:
    """Tentative winners by generalized VCG within ``active`` (everyone by
    default), then take-it-or-leave-it at the higher of the reserve and the
    threshold value."""
    instance.require_monotone()
    instance.require_single_crossing()
    s = tuple(s)
    active = frozenset(instance.agents if active is None else active)
    w = winner_set(instance, s, active)
    t_sig, t_val = {}, {}
    for a in instance.agents:
        t_sig[a], t_val[a] = threshold(instance, s, a, active)
    r = resolve_reserves(instance, s, w, reserves, active=active, event_mode=event_mode)
    zero = instance.zero
    alloc, payment, reserve = {}, {}, {}
    served = set()
    for a in instance.agents:
        alloc[a], payment[a], reserve[a] = 0, zero, zero
        if a in w:
            reserve[a] = r[a]
            price = max(r[a], t_val[a])
            if instance.value(a, s) >= price:
                served.add(a)
                alloc[a], payment[a] = 1, price
    return AuctionOutcome(alloc, payment, t_sig, t_val, reserve, tentative=w,
                          served=frozenset(served), admitted=admitted)


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
    feas = instance.feas
    if not (feas.is_matroid and all(feas.is_independent({a}) for a in feas.ground)
            and feas.rank(feas.ground) <= 1):
        raise WrongVariantError("the single-item variant needs a 1-uniform system")
    return _admitted_lookahead(instance, s, admission, event_mode)


def randomized_matroid(instance: Instance, s: Sequence, admission, *,
                       event_mode: str = "winner_conditioned") -> AuctionOutcome:
    """Matroid variant: the lazy auction inside the admitted set, drawn by
    the admission law in :data:`MECHANISMS`; admitting everyone is the
    all-agents set."""
    if not instance.feas.is_matroid:
        raise WrongVariantError("the matroid variant needs a matroid system")
    return _admitted_lookahead(instance, s, admission, event_mode)


def _admitted_lookahead(instance: Instance, s: Sequence, admission,
                        event_mode: str) -> AuctionOutcome:
    if admission is None:
        raise MechanismError("need an explicit admission set")
    z = frozenset(admission)
    if not z <= set(instance.agents):
        raise MechanismError("admission set mentions unknown agents")
    return gvcg_lazy(instance, s, "conditional", active=z, admitted=z,
                     event_mode=event_mode)


def vcg_eager(instance: Instance, s: Sequence, reserves) -> AuctionOutcome:
    """Remove agents below their reserves first, then run the auction on the
    survivors; winners pay the higher of reserve and the threshold within the
    surviving set.  Private values only."""
    instance.require_private("the eager-reserve auction")
    s = tuple(s)
    all_agents = frozenset(instance.agents)
    r = resolve_reserves(instance, s, all_agents, reserves)
    vals = instance.values_at(s)
    u = frozenset(a for a in all_agents if vals[a] >= r[a])
    w_u = winner_set(instance, s, u)
    zero = instance.zero
    alloc, payment, t_sig, t_val = {}, {}, {}, {}
    served = set()
    for a in instance.agents:
        scan_active = u | {a}
        t_sig[a], t_val[a] = threshold(instance, s, a, scan_active)
        alloc[a] = 0
        payment[a] = zero
        if a in w_u:
            price = max(r[a], t_val[a])
            if vals[a] >= price:
                served.add(a)
                alloc[a] = 1
                payment[a] = price
    return AuctionOutcome(alloc, payment, t_sig, t_val, dict(r),
                          tentative=w_u, served=frozenset(served), admitted=None)


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
    s = tuple(s)
    w = frozenset(w)
    tp = frozenset(tp)
    if tp & w:
        raise MechanismError("tp must be disjoint from the winner set")
    if not instance.feas.is_independent(tp):
        raise MechanismError("tp must be independent")
    all_agents = frozenset(instance.agents)
    rank = {a: i for i, a in enumerate(instance.tie_break)}

    padded = set(tp)
    for a in sorted(w, key=lambda x: rank[x]):
        if len(padded) == len(w):
            break
        if instance.feas.is_independent(padded | {a}):
            padded.add(a)
    if len(padded) != len(w):
        raise ExchangeInvariantError("could not pad tp to the winner set's size")

    idx = {a: instance.grid.index_of(a) for a in instance.agents}
    crit: dict = {}
    for i in w:
        t_sig, t_val = threshold(instance, s, i, all_agents)
        if t_sig is NEVER_WINS:
            raise MechanismError(f"winner {i!r} has no critical signal")
        st = tuple(s[:idx[i]]) + (t_sig,) + tuple(s[idx[i] + 1:])
        crit[i] = (st, t_val)

    left = sorted(padded, key=lambda a: rank[a])
    adjacency = {}
    for j in left:
        neighbours = []
        for i in sorted(w, key=lambda a: rank[a]):
            st, t_val = crit[i]
            if j == i or instance.value(j, st) <= t_val:
                neighbours.append(i)
        adjacency[j] = neighbours
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
    """Entry point run(instance, spec, s, admitted), admission law, and
    whether the run reads ``spec.reserve_source``; a deterministic mechanism
    has no law and runs with ``admitted=None``."""

    run: Callable
    admission: Admission | None = None
    reads_reserves: bool = False


MECHANISMS = {
    "gvcg": Mechanism(lambda inst, spec, s, z: gvcg(inst, s)),
    "gvcg-lazy": Mechanism(lambda inst, spec, s, z: gvcg_lazy(inst, s, spec.reserve_source),
                           reads_reserves=True),
    "lookahead": Mechanism(lambda inst, spec, s, z: lookahead(inst, s)),
    "rand-single": Mechanism(
        lambda inst, spec, s, z: randomized_single_item(inst, s, z, event_mode=spec.event_mode),
        Admission(p_all=Fraction(0), p_in=Fraction(2, 3))),
    "rand-matroid": Mechanism(
        lambda inst, spec, s, z: randomized_matroid(inst, s, z, event_mode=spec.event_mode),
        Admission(p_all=Fraction(1, 2), p_in=Fraction(1, 2))),
    "vcg-eager": Mechanism(lambda inst, spec, s, z: vcg_eager(inst, s, spec.reserve_source),
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
    return MECHANISMS[spec.mech_id].run(instance, spec, s, realization)


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
    """Expected revenue, exactly (profiles x internal randomness) or by
    Monte Carlo with the given seed."""
    if spec.reserve_source == "single-sample":
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
        support = list(instance.dist.enumerate_support())
        reals = list(realizations(instance, spec))
        atoms = len(support) * len(reals)
        if atoms > atom_cap:
            raise SizeError(f"exact evaluation needs {atoms} atoms (cap {atom_cap})")
        total = 0
        for s, p in support:
            for realization, weight in reals:
                out = run_realized(instance, spec, s, realization)
                total += p * weight * out.revenue
        return RevenueEstimate(total, atoms=atoms)

    if mode != "monte_carlo":
        raise MechanismError(f"unknown mode {mode!r}")
    import random

    rng = random.Random(seed)
    draws = []
    for _ in range(trials):
        s = instance.dist.sample(rng)
        realization = sample_realization(instance, spec, rng)
        out = run_realized(instance, spec, s, realization)
        draws.append(float(out.revenue))
    mean = sum(draws) / trials
    var = sum((x - mean) ** 2 for x in draws) / max(trials - 1, 1)
    return RevenueEstimate(mean, std_error=math.sqrt(var / trials), atoms=trials)


def opt_upper_bound(instance: Instance):
    """Expected winner-wise posted-price revenue plus the best feasible
    welfare disjoint from the winners; bounds every ex post IC mechanism."""
    if not instance.feas.is_matroid:
        raise WrongVariantError("the revenue upper bound needs a matroid system")
    all_agents = frozenset(instance.agents)
    total = 0
    for s, p in instance.dist.enumerate_support():
        w = winner_set(instance, s, all_agents)
        quote_sum = 0
        for a in w:
            q = conditional_monopoly_reserve(instance, a, s,
                                             event_mode="winner_conditioned")
            quote_sum += q.expected_revenue
        rest = all_agents - w
        loser_value = 0
        if rest:
            sub = instance.restricted(rest)
            weights = {a: instance.value(a, s) for a in rest}
            tie = [a for a in instance.tie_break if a in rest]
            loser_value = max_weight_basis(sub, weights, tie).weight
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
    values.  Exact in rational mode; ``DOUBLE_TOLERANCE`` applies in double
    mode.
    """
    tolerance = instance.tolerance
    support = instance.dist.support_profiles()
    grid_profiles = list(instance.grid.profiles())
    violations = []
    for realization, _ in realizations(instance, spec):
        outcomes = {s: run_realized(instance, spec, s, realization)
                    for s in grid_profiles}
        for s in support:
            truth = outcomes[s]
            for k, a in enumerate(instance.agents):
                v_true = instance.value(a, s)
                u_truth = v_true * truth.alloc[a] - truth.payment[a]
                if u_truth < -tolerance:
                    violations.append(AuditViolation(
                        "ir", realization, s, a, None, -u_truth))
                for t in instance.grid.axis(a):
                    if t == s[k]:
                        continue
                    dev = s[:k] + (t,) + s[k + 1:]
                    out = outcomes[dev]
                    u_dev = v_true * out.alloc[a] - out.payment[a]
                    if u_dev > u_truth + tolerance:
                        violations.append(AuditViolation(
                            "ic", realization, s, a, t, u_dev - u_truth))
    return violations
