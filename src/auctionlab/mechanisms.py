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
reserve reads that same threshold.  The tables are keyed by ints: each run
numbers its profile once on the grid and its active set as a bitmask, while
the public functions take profile tuples and agent frozensets.

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
    reserve quotes per (agent, column, event mode, critical signal) on the
    instance, keyed by ints: agent index, profile number k on the grid, agent
    bitmask (:meth:`mask`), and column number, k less the agent's own grid
    index times its stride.  The tables rely on the instance not changing.
    ``runner.run`` calls :meth:`release_tables` when an instance's rows are
    done.
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

    def mask(self, agents) -> int:
        """The bitmask of an agent set: bit i stands for ``agents[i]``."""
        return sum(1 << i for i, a in enumerate(self.agents) if a in agents)

    def members(self, mask: int) -> frozenset:
        return frozenset(a for i, a in enumerate(self.agents) if mask >> i & 1)

    def _value(self, i: int, k: int):
        v = self._values.get((i, k))
        if v is None:
            s = self.grid.profile_at(k)
            v = self._values[i, k] = valuations.value(self.vp, self.agents[i], s)
        return v

    def value(self, agent, s: Sequence):
        """v_agent(s), tabled per (agent index, profile number)."""
        return self._value(self.grid.index_of(agent), self.grid.number(s))

    def values_at(self, s: Sequence) -> dict:
        k = self.grid.number(s)
        return {a: self._value(i, k) for i, a in enumerate(self.agents)}

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
        key = self.mask(active)
        sub = self._restrictions.get(key)
        if sub is None:
            sub = self._restrictions[key] = self.feas.restriction(active)
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


def _column(grid: SignalGrid, i: int, k: int) -> tuple:
    """(column number, own grid index, stride) of profile k for agent i."""
    st = grid.strides[i]
    j0 = k // st % grid.sizes[i]
    return k - j0 * st, j0, st


def _winners(instance: Instance, k: int, mask: int) -> int:
    """:func:`winner_set` of profile number k and active bitmask, as a bitmask."""
    w = instance._winners.get((k, mask)) if mask else 0
    if w is None:
        active = instance.members(mask)
        weights = {a: instance._value(i, k) for i, a in enumerate(instance.agents) if a in active}
        tie = [a for a in instance.tie_break if a in active]
        basis = max_weight_basis(instance.restricted(active), weights, tie, full=True)
        w = instance._winners[k, mask] = instance.mask(basis.elements)
    return w


def winner_set(instance: Instance, s: Sequence, active: frozenset) -> frozenset:
    """Welfare-maximising feasible subset of ``active`` at profile s."""
    return instance.members(_winners(instance, instance.grid.number(s), instance.mask(active)))


def _threshold(instance: Instance, i: int, k: int, mask: int) -> tuple:
    """:func:`threshold` of agent i, with the critical grid index in place
    of the critical signal."""
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


def threshold(instance: Instance, s: Sequence, agent, active: frozenset):
    """(critical signal, threshold value) for the agent within ``active``.

    Scans the agent's grid from below; the smallest signal at which the agent
    joins the winner set is critical.  Returns (None, inf) when no grid
    signal wins.  The scan reads only the agent's column of s.
    """
    j, t_val = _threshold(instance, instance.grid.index_of(agent),
                          instance.grid.number(s), instance.mask(active))
    return (NEVER_WINS if j is None else instance.grid.axis(agent)[j]), t_val


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
    others = {a: x for a, x in zip(instance.agents, s) if a != agent}
    i = instance.grid.index_of(agent)
    col = _column(instance.grid, i, instance.grid.number(s))[0]
    return _own_values(instance, i, col, instance.dist.conditional_signal(agent, others))


def _own_values(instance: Instance, i: int, col: int, signal_dist):
    """Push a pmf of agent i's own signal through its values along column
    ``col``, which must be strictly increasing."""
    instance.require_monotone()
    pos, st = instance.grid.positions[i], instance.grid.strides[i]
    return signal_dist.map_values(lambda t: instance._value(i, col + pos[t] * st))


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
    mask = instance.mask(instance.agents if active is None else active)
    return _quote(instance, instance.grid.index_of(agent), instance.grid.number(s),
                  event_mode, mask)


def _quote(instance: Instance, i: int, k: int, event_mode: str, mask: int) -> ReserveQuote:
    # values rise strictly in the own signal: the critical index stands for
    # the threshold value in the key
    col = _column(instance.grid, i, k)[0]
    j = t_val = None
    if event_mode == "winner_conditioned":
        j, t_val = _threshold(instance, i, k, mask)
    key = (i, col, event_mode, j)
    quote = instance._quotes.get(key)
    if quote is not None:
        return quote
    agent = instance.agents[i]
    fallback = ""
    try:
        vdist = conditional_value_distribution(instance, agent, instance.grid.profile_at(k))
    except ConditioningError:
        vdist = _own_values(instance, i, col, instance.dist.marginal(agent))
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
    s = tuple(s)
    return _reserves(instance, s, instance.grid.number(s), instance.mask(agents), source,
                     instance.mask(instance.agents if active is None else active),
                     event_mode)


def _reserves(instance: Instance, s: tuple, k: int, priced: int, source, mask: int,
              event_mode: str) -> dict:
    """:func:`resolve_reserves` for the bitmask ``priced``, profile number k
    and active bitmask."""
    zero = instance.zero
    agents = [(i, a) for i, a in enumerate(instance.agents) if priced >> i & 1]
    # named sources first: a Mapping check goes through the ABC machinery
    if source is None or source == "none":
        return {a: zero for _, a in agents}
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
        return {a: source.get(a, zero) for _, a in agents}
    if callable(source):
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


def gvcg_lazy(instance: Instance, s: Sequence, reserves, active: frozenset | None = None,
              *, admitted: frozenset | None = None,
              event_mode: str = "winner_conditioned") -> AuctionOutcome:
    """Tentative winners by generalized VCG within ``active`` (everyone by
    default), then take-it-or-leave-it at the higher of the reserve and the
    threshold value."""
    instance.require_monotone()
    instance.require_single_crossing()
    s = tuple(s)
    k = instance.grid.number(s)
    mask = instance.mask(instance.agents if active is None else active)
    w = _winners(instance, k, mask)
    r = _reserves(instance, s, k, w, reserves, mask, event_mode)
    return _offer(instance, k, w, r, [mask] * len(instance.agents), admitted)


def _offer(instance: Instance, k: int, w: int, r: dict, scans: list, admitted):
    """Offer each tentative winner in bitmask w the higher of its reserve
    r[a] and its threshold value within the active mask ``scans[i]``."""
    grid, zero = instance.grid, instance.zero
    alloc, payment, t_sig, t_val = {}, {}, {}, {}
    served = set()
    for i, a in enumerate(instance.agents):
        j, t_val[a] = _threshold(instance, i, k, scans[i])
        t_sig[a] = NEVER_WINS if j is None else grid.values[a][j]
        alloc[a], payment[a] = 0, zero
        if w >> i & 1:
            price = max(r[a], t_val[a])
            if instance._value(i, k) >= price:
                served.add(a)
                alloc[a], payment[a] = 1, price
    return AuctionOutcome(alloc, payment, t_sig, t_val,
                          {a: r.get(a, zero) for a in instance.agents},
                          tentative=instance.members(w), served=frozenset(served),
                          admitted=admitted)


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
    if not instance.single_item:
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
    k = instance.grid.number(s)
    n = len(instance.agents)
    r = _reserves(instance, s, k, (1 << n) - 1, reserves, (1 << n) - 1, "winner_conditioned")
    u = sum(1 << i for i, a in enumerate(instance.agents) if instance._value(i, k) >= r[a])
    return _offer(instance, k, _winners(instance, k, u), r, [u | 1 << i for i in range(n)],
                  None)


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
        j, t_val = _threshold(instance, index[a], k, instance.mask(instance.agents))
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
    everyone = instance.mask(instance.agents)
    total = 0
    for s, p in instance.dist.enumerate_support():
        k = instance.grid.number(s)
        w = _winners(instance, k, everyone)
        quote_sum = 0
        for i in range(len(instance.agents)):
            if w >> i & 1:
                q = _quote(instance, i, k, "winner_conditioned", everyone)
                quote_sum += q.expected_revenue
        loser_value = 0
        if w != everyone:
            rest = instance.members(everyone & ~w)
            weights = {a: instance._value(i, k)
                       for i, a in enumerate(instance.agents) if a in rest}
            tie = [a for a in instance.tie_break if a in rest]
            loser_value = max_weight_basis(instance.restricted(rest), weights, tie).weight
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
    mode.  Each realization's outcomes are held by profile number, so the
    deviation to own grid index j is outcome k + (j - j0) * stride.
    """
    tolerance = instance.tolerance
    grid = instance.grid
    support = [(s, grid.number(s)) for s in instance.dist.support_profiles()]
    violations = []
    for realization, _ in realizations(instance, spec):
        outcomes = [run_realized(instance, spec, s, realization)
                    for s in grid.profiles()]
        for s, k in support:
            truth = outcomes[k]
            for i, a in enumerate(instance.agents):
                # alloc is 0 or 1: utility is v - payment when served, else
                # -payment, so a deviation gains past the tolerance exactly
                # when its payment is below pays_less[alloc]
                v_true = instance._value(i, k)
                u_truth = v_true - truth.payment[a] if truth.alloc[a] else -truth.payment[a]
                if u_truth < -tolerance:
                    violations.append(AuditViolation(
                        "ir", realization, s, a, None, -u_truth))
                bar = u_truth + tolerance if tolerance else u_truth
                pays_less = (-bar, v_true - bar)
                col, j0, st = _column(grid, i, k)
                for j, t in enumerate(grid.values[a]):
                    out = outcomes[col + j * st]
                    if j != j0 and out.payment[a] < pays_less[out.alloc[a]]:
                        u_dev = v_true * out.alloc[a] - out.payment[a]
                        violations.append(AuditViolation(
                            "ic", realization, s, a, t, u_dev - u_truth))
    return violations
