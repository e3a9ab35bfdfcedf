"""Feasibility systems: matroid oracles and explicit downward-closed families.

A :class:`FeasibilitySystem` answers independence queries for the sets of
agents an auction may serve simultaneously.  Four matroid kinds are built in
(uniform, partition, transversal, graphic) together with an ``explicit`` kind
that stores a downward-closed family verbatim; explicit families are checked
for the exchange axiom at construction so non-matroid counterexamples can be
represented without corrupting the matroid-only algorithms.

All systems are immutable after construction and safe to share.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

from .matching import maximum_bipartite_matching

Agent = Hashable

MAX_EXPLICIT_GROUND = 12


class FeasibilityError(ValueError):
    """Domain error: elements outside the ground set, malformed parameters."""


class UnsupportedOperation(RuntimeError):
    """Operation needs a matroid but the system is not one."""


class ExchangeInvariantError(RuntimeError):
    """An exchange step that matroid theory guarantees could not be made."""


@dataclass(frozen=True)
class Basis:
    """An independent set and the weights it was chosen by."""

    elements: frozenset
    weights: Mapping = field(repr=False, compare=False)

    @property
    def weight(self):
        return sum((self.weights[a] for a in self.elements), 0)


def default_tie_break(ground: Iterable[Agent]) -> tuple[Agent, ...]:
    return tuple(sorted(ground, key=lambda a: (str(type(a).__name__), a)))


def _tie_rank(system: "FeasibilitySystem", tie_break) -> dict[Agent, int]:
    order = tuple(tie_break) if tie_break is not None else default_tie_break(system.ground)
    missing = set(system.ground) - set(order)
    if missing:
        raise FeasibilityError(f"tie_break does not cover agents {sorted(map(str, missing))}")
    return {a: i for i, a in enumerate(order)}


class FeasibilitySystem:
    """Independence oracle over a finite ground set of agents."""

    def __init__(self, kind: str, ground: Sequence[Agent], *, is_matroid: bool, params: dict):
        self.kind = kind
        self.ground = tuple(ground)
        self.ground_set = frozenset(self.ground)
        if len(self.ground_set) != len(self.ground):
            raise FeasibilityError("duplicate elements in ground set")
        self.is_matroid = is_matroid
        self._params = params

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def uniform(cls, k: int, ground: Sequence[Agent]) -> "FeasibilitySystem":
        if k < 0:
            raise FeasibilityError("uniform rank k must be nonnegative")
        return cls("uniform", ground, is_matroid=True, params={"k": k})

    @classmethod
    def partition(cls, blocks: Sequence[Sequence[Agent]], capacities: Sequence[int],
                  ground: Sequence[Agent] | None = None) -> "FeasibilitySystem":
        if len(blocks) != len(capacities):
            raise FeasibilityError("one capacity per block required")
        flat = [a for b in blocks for a in b]
        if len(set(flat)) != len(flat):
            raise FeasibilityError("partition blocks must be disjoint")
        if ground is None:
            ground = flat
        if set(ground) != set(flat):
            raise FeasibilityError("blocks must cover the ground set exactly")
        if any(c < 0 for c in capacities):
            raise FeasibilityError("capacities must be nonnegative")
        block_of = {a: i for i, b in enumerate(blocks) for a in b}
        return cls("partition", ground, is_matroid=True,
                   params={"blocks": tuple(map(tuple, blocks)),
                           "capacities": tuple(capacities), "block_of": block_of})

    @classmethod
    def transversal(cls, adjacency: Mapping[Agent, Iterable[Hashable]],
                    ground: Sequence[Agent] | None = None) -> "FeasibilitySystem":
        if ground is None:
            ground = list(adjacency)
        adj = {a: tuple(sorted(adjacency.get(a, ()), key=str)) for a in ground}
        return cls("transversal", ground, is_matroid=True, params={"adjacency": adj})

    @classmethod
    def graphic(cls, edges: Mapping[Agent, tuple[Hashable, Hashable]],
                ground: Sequence[Agent] | None = None) -> "FeasibilitySystem":
        if ground is None:
            ground = list(edges)
        missing = [a for a in ground if a not in edges]
        if missing:
            raise FeasibilityError(f"no edge given for {missing}")
        return cls("graphic", ground, is_matroid=True,
                   params={"edges": {a: tuple(edges[a]) for a in ground}})

    @classmethod
    def explicit(cls, sets: Iterable[Iterable[Agent]],
                 ground: Sequence[Agent] | None = None) -> "FeasibilitySystem":
        family = frozenset(frozenset(s) for s in sets)
        elements = frozenset(itertools.chain.from_iterable(family))
        if ground is None:
            ground = sorted(elements, key=str)
        if not elements <= set(ground):
            raise FeasibilityError("feasible sets mention elements outside the ground set")
        if len(ground) > MAX_EXPLICIT_GROUND:
            raise FeasibilityError(
                f"explicit systems support at most {MAX_EXPLICIT_GROUND} elements")
        if frozenset() not in family:
            raise FeasibilityError("the empty set must be feasible")
        for s in family:
            for e in s:
                if s - {e} not in family:
                    raise FeasibilityError(
                        f"family is not downward closed: {set(s)} minus {e!r} is missing")
        return cls("explicit", ground, is_matroid=_exchange_axiom_holds(family),
                   params={"family": family})

    # ------------------------------------------------------------------
    # oracle

    def _check_subset(self, subset: Iterable[Agent]) -> frozenset:
        s = frozenset(subset)
        if not s <= self.ground_set:
            bad = sorted(map(str, s - self.ground_set))
            raise FeasibilityError(f"elements outside ground set: {bad}")
        return s

    def is_independent(self, subset: Iterable[Agent]) -> bool:
        s = self._check_subset(subset)
        kind = self.kind
        if kind == "uniform":
            return len(s) <= self._params["k"]
        if kind == "partition":
            counts: dict[int, int] = {}
            for a in s:
                b = self._params["block_of"][a]
                counts[b] = counts.get(b, 0) + 1
            caps = self._params["capacities"]
            return all(c <= caps[b] for b, c in counts.items())
        if kind == "transversal":
            adj = self._params["adjacency"]
            order = sorted(s, key=str)
            matching = maximum_bipartite_matching(order, {a: adj[a] for a in order})
            return len(matching) == len(s)
        if kind == "graphic":
            return self._is_forest(s)
        return s in self._params["family"]

    def _is_forest(self, s: frozenset) -> bool:
        parent: dict = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        for a in s:
            u, v = self._params["edges"][a]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent.setdefault(u, u)
            parent.setdefault(v, v)
            parent[ru] = rv
        return True

    def rank(self, subset: Iterable[Agent]) -> int:
        """Size of a maximum independent subset; matroid systems only."""
        s = self._check_subset(subset)
        if self.kind == "explicit":
            if not self.is_matroid:
                raise UnsupportedOperation("rank is only defined for matroid systems")
            return max((len(f) for f in self._params["family"] if f <= s), default=0)
        chosen: set = set()
        for a in sorted(s, key=str):
            if self.is_independent(chosen | {a}):
                chosen.add(a)
        return len(chosen)

    def restriction(self, keep: Iterable[Agent]) -> "FeasibilitySystem":
        """The system whose feasible sets are the feasible subsets of ``keep``:
        the same oracle on a smaller ground set.  A restriction of a matroid
        is a matroid; an explicit non-matroid may restrict to one."""
        k = self._check_subset(keep)
        ground = tuple(a for a in self.ground if a in k)
        is_matroid = self.is_matroid or _exchange_axiom_holds(
            frozenset(f for f in self._params["family"] if f <= k))
        return FeasibilitySystem(self.kind, ground, is_matroid=is_matroid,
                                 params=self._params)

    def feasible_sets(self) -> list[frozenset]:
        """Every feasible set, ordered by (size, element names); small grounds only."""
        if self.kind == "explicit":
            family = {f for f in self._params["family"] if f <= self.ground_set}
        else:
            if len(self.ground) > 20:
                raise FeasibilityError("feasible-set enumeration needs a small ground set")
            family = {frozenset()}
            frontier = [frozenset()]
            order = list(self.ground)
            while frontier:
                new = []
                for s in frontier:
                    for a in order:
                        if a in s:
                            continue
                        t = s | {a}
                        if t not in family and self.is_independent(t):
                            family.add(t)
                            new.append(t)
                frontier = new
        return sorted(family, key=lambda f: (len(f), sorted(map(str, f))))

    def __repr__(self):
        return f"FeasibilitySystem(kind={self.kind!r}, n={len(self.ground)})"


def _exchange_axiom_holds(family: frozenset) -> bool:
    fam = sorted(family, key=len)
    for a in fam:
        for b in fam:
            if len(a) <= len(b):
                continue
            if not any(b | {e} in family for e in a - b):
                return False
    return True


# ----------------------------------------------------------------------
# weighted selection

def max_weight_basis(system: FeasibilitySystem, weights: Mapping[Agent, object],
                     tie_break: Sequence[Agent] | None = None, *,
                     full: bool = False) -> Basis:
    """Deterministic maximum-weight feasible set.

    ``full=False`` returns the best feasible set outright (elements with
    non-positive weight are skipped by the greedy pass).  ``full=True``
    returns a maximal independent set, so zero- and negative-weight elements
    may be carried along; auction winner selection uses this mode.

    Ties are broken by total weight, then cardinality, then earliest
    position in ``tie_break``.
    """
    rank_of = _tie_rank(system, tie_break)
    for a in system.ground:
        if a not in weights:
            raise FeasibilityError(f"no weight for agent {a!r}")
    if system.kind == "explicit":
        return best_in_family(system.feasible_sets(), weights, rank_of, full=full)
    chosen: set = set()
    # two stable sorts: by weight, heaviest first, and within equal weights
    # by tie rank
    order = sorted(sorted(system.ground, key=rank_of.__getitem__),
                   key=weights.__getitem__, reverse=True)
    for a in order:
        if not full and not weights[a] > 0:
            continue
        if system.is_independent(chosen | {a}):
            chosen.add(a)
    return Basis(frozenset(chosen), weights)


def best_in_family(family, weights, rank_of, *, full):
    """The max-weight set of an explicit list of feasible sets, ties broken
    as in :func:`max_weight_basis` by ``rank_of`` (agent -> tie rank);
    ``full=True`` looks only at the sets maximal within ``family``."""
    if full:
        maximal = [f for f in family
                   if not any(f < g for g in family)]
        family = maximal
    best = None
    best_key = None
    for f in family:
        total = sum((weights[a] for a in f), 0)
        sig = tuple(sorted(rank_of[a] for a in f))
        key = (-total, -len(f), sig)
        if best_key is None or key < best_key:
            best, best_key = f, key
    return Basis(best, weights)


# ----------------------------------------------------------------------
# exchange machinery

def _assert_basis(system: FeasibilitySystem, b: frozenset, label: str) -> None:
    if not system.is_independent(b):
        raise FeasibilityError(f"{label} is not independent")
    if len(b) != system.rank(system.ground_set):
        raise FeasibilityError(f"{label} is not maximal (size {len(b)})")


def strong_basis_exchange(system: FeasibilitySystem, b1: Iterable[Agent],
                          b2: Iterable[Agent], x: Agent,
                          tie_break: Sequence[Agent] | None = None) -> Agent:
    """Find y in b2-b1 so that both b1-x+y and b2-y+x are bases.

    Candidates are scanned in tie-break order, so the pick is deterministic.
    Failure means the oracle is not actually a matroid.
    """
    rank_of = _tie_rank(system, tie_break)
    s1, s2 = frozenset(b1), frozenset(b2)
    if x not in s1 - s2:
        raise FeasibilityError("x must lie in b1 but not b2")
    _assert_basis(system, s1, "b1")
    _assert_basis(system, s2, "b2")
    for y in sorted(s2 - s1, key=lambda a: rank_of[a]):
        if system.is_independent(s1 - {x} | {y}) and system.is_independent(s2 - {y} | {x}):
            return y
    raise ExchangeInvariantError(
        f"no strong exchange partner for {x!r}; independence oracle is corrupt")


def exchange_bijection(system: FeasibilitySystem, b1: Iterable[Agent],
                       b2: Iterable[Agent],
                       tie_break: Sequence[Agent] | None = None) -> dict[Agent, Agent]:
    """Bijection g on b1-b2 with b2 - g(e) + e independent for every e.

    Computed as a perfect matching in the exchangeability graph; for equal
    sized independent sets of a matroid the matching always exists.
    """
    rank_of = _tie_rank(system, tie_break)
    s1, s2 = frozenset(b1), frozenset(b2)
    if len(s1) != len(s2):
        raise FeasibilityError("exchange bijection needs equal-sized sets")
    if not (system.is_independent(s1) and system.is_independent(s2)):
        raise FeasibilityError("both sets must be independent")
    left = sorted(s1 - s2, key=lambda a: rank_of[a])
    right = sorted(s2 - s1, key=lambda a: rank_of[a])
    adjacency = {
        e: [y for y in right if system.is_independent(s2 - {y} | {e})]
        for e in left
    }
    matching = maximum_bipartite_matching(left, adjacency)
    if len(matching) != len(left):
        raise ExchangeInvariantError("no perfect exchange matching; oracle is corrupt")
    return matching


def coupled_exchange_walk(system: FeasibilitySystem, w: Iterable[Agent],
                          wp: Iterable[Agent], coin_flips: Sequence[int],
                          tie_break: Sequence[Agent] | None = None, *,
                          allow_shared: bool = False) -> tuple[frozenset, frozenset]:
    """Replay the coupled two-basis sampling walk and return (A_final, Z).

    Starting from bases ``w`` and ``wp``, step i pairs the i-th element a_i
    of ``w`` (tie-break order) with an exchange partner b_i from the second
    basis, then consumes two coins: the first decides whether a_i joins the
    sample Z (if not, a_i is swapped out of the tracked basis for b_i), the
    second decides whether b_i joins Z.  Over all coin sequences every
    element of ``wp`` ends up in A_final & Z exactly a quarter of the time.

    ``allow_shared`` admits second bases padded with elements of ``w``; for a
    shared element the pair collapses (b_i = a_i), only the first coin
    matters and the second is consumed unused.
    """
    rank_of = _tie_rank(system, tie_break)
    a_set, b_set = frozenset(w), frozenset(wp)
    if len(a_set) != len(b_set):
        raise FeasibilityError("walk needs equal-size bases")
    if not allow_shared and (a_set & b_set):
        raise FeasibilityError("walk needs disjoint bases (pass allow_shared to pad)")
    if a_set:
        _assert_basis(system, a_set, "w")
        _assert_basis(system, b_set, "wp")
    r = len(a_set)
    if len(coin_flips) < 2 * r:
        raise FeasibilityError(f"need {2 * r} coin flips, got {len(coin_flips)}")

    a_cur, b_cur = set(a_set), set(b_set)
    z: set = set()
    for i, a_i in enumerate(sorted(a_set, key=lambda e: rank_of[e])):
        if a_i in b_cur:
            b_i = a_i
        else:
            b_i = strong_basis_exchange(system, frozenset(a_cur), frozenset(b_cur),
                                        a_i, tie_break)
        a_in_z = bool(coin_flips[2 * i])
        b_in_z = bool(coin_flips[2 * i + 1])
        if a_in_z:
            z.add(a_i)
            b_cur.discard(b_i)
            b_cur.add(a_i)
        else:
            a_cur.discard(a_i)
            a_cur.add(b_i)
        if b_in_z and b_i != a_i:
            z.add(b_i)
    return frozenset(a_cur), frozenset(z)
