"""The winner rule against the restricted system's maximum-weight basis.

Winner sets are greedy over each profile's value order on the full system.
For every active bitmask and every grid profile they must equal
``max_weight_basis`` on the system restricted to the active agents, with the
instance's tie-break order, both as the maximal set (``full=True``, the
tentative winners) and as the best set (``full=False``, the losers' welfare
in the revenue upper bound).  The drawn instances tie values often, carry
zero and negative values, and use a shuffled tie-break order.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from auctionlab.distributions import JointDistribution, SignalGrid
from auctionlab.instances import corpus_names, load_fixture
from auctionlab.matroid import FeasibilitySystem, max_weight_basis
from auctionlab.mechanisms import Instance, _best, winner_set
from auctionlab.valuations import table

KINDS = ("uniform", "partition", "transversal", "graphic", "explicit-matroid", "explicit")


def check_winner_rule(inst):
    for s in inst.grid.profiles():
        k = inst.grid.number(s)
        for mask in range(inst.everyone + 1):
            members = inst.members(mask)
            sub = inst.feas.restriction(members)
            weights = {a: inst.value(a, s) for a in members}
            tie = [a for a in inst.tie_break if a in members]
            assert winner_set(inst, s, members) == max_weight_basis(
                sub, weights, tie, full=True).elements, (s, members)
            assert inst.members(_best(inst, k, mask, False)) == max_weight_basis(
                sub, weights, tie).elements, (s, members)


def feasibility(draw, kind, agents):
    n = len(agents)
    if kind == "uniform":
        return FeasibilitySystem.uniform(draw(st.integers(0, n)), agents)
    if kind == "partition":
        block_of = [draw(st.integers(0, n - 1)) for _ in agents]
        blocks = [[a for a, b in zip(agents, block_of) if b == j] for j in sorted(set(block_of))]
        return FeasibilitySystem.partition(
            blocks, [draw(st.integers(0, 2)) for _ in blocks], ground=agents)
    if kind == "transversal":
        return FeasibilitySystem.transversal(
            {a: draw(st.sets(st.sampled_from("xyz"))) for a in agents}, ground=agents)
    if kind == "graphic":
        # vertex pairs may repeat and may be loops
        vertex = st.integers(0, 2)
        return FeasibilitySystem.graphic({a: (draw(vertex), draw(vertex)) for a in agents},
                                         ground=agents)
    if kind == "explicit-matroid":
        return FeasibilitySystem.explicit(
            feasibility(draw, "partition", agents).feasible_sets(), ground=agents)
    # the downward closure of a few drawn sets: often not a matroid
    tops = draw(st.lists(st.sets(st.sampled_from(agents)), max_size=3))
    family = {frozenset(c) for t in tops for r in range(len(t) + 1)
              for c in itertools.combinations(t, r)} | {frozenset()}
    return FeasibilitySystem.explicit(family, ground=agents)


@st.composite
def tied_instances(draw, kind):
    n = draw(st.integers(1, 4))
    agents = tuple(range(1, n + 1))
    axes = {a: tuple(range(draw(st.integers(1, 2)))) for a in agents}
    grid = SignalGrid(agents=agents, values=axes)
    profiles = list(grid.profiles())
    dist = JointDistribution(grid, form="table",
                             table=[(s, Fraction(1, len(profiles))) for s in profiles])
    # few distinct values, so ties are common, including at zero and below
    vp = table(agents, {a: {s: draw(st.integers(-1, 2)) for s in profiles} for a in agents})
    return Instance(grid=grid, dist=dist, vp=vp, feas=feasibility(draw, kind, agents),
                    tie_break=draw(st.permutations(agents)))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tied_winner_sets_match_the_restricted_basis(kind, data):
    check_winner_rule(data.draw(tied_instances(kind)))


@pytest.mark.parametrize("name", corpus_names())
def test_fixture_winner_sets_match_the_restricted_basis(name):
    check_winner_rule(load_fixture(name))
