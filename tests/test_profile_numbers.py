"""Profile numbers and agent bitmasks, the keys of the evaluation tables.

A profile's number is its row-major position in ``grid.profiles()``, and an
agent set's mask has bit i for ``instance.agents[i]``.  Every table on an
``Instance`` is keyed by ints only.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from auctionlab.distributions import JointDistribution, SignalGrid
from auctionlab.instances import corpus_names, load_fixture
from auctionlab.matroid import FeasibilitySystem
from auctionlab.mechanisms import Instance, MechanismSpec, _column, ic_ir_audit
from auctionlab.valuations import private

from test_table_lifetime import revenue_and_audit


@st.composite
def grids(draw):
    n = draw(st.integers(1, 4))
    agents = tuple(f"a{i}" for i in range(n))
    axes = {a: tuple(Fraction(x, 2) for x in sorted(
        draw(st.sets(st.integers(0, 9), min_size=1, max_size=4)))) for a in agents}
    return SignalGrid(agents=agents, values=axes)


@settings(max_examples=80, deadline=None)
@given(grids())
def test_numbers_follow_the_profile_order_and_the_strides(grid):
    profiles = list(grid.profiles())
    for k, s in enumerate(profiles):
        assert grid.number(s) == k and grid.profile_at(k) == s
        for i, a in enumerate(grid.agents):
            st_i = grid.strides[i]
            j0 = grid.axis(a).index(s[i])
            column = k - j0 * st_i
            for j, t in enumerate(grid.axis(a)):
                dev = k + (j - j0) * st_i
                assert profiles[dev] == s[:i] + (t,) + s[i + 1:]
                assert _column(grid, i, dev) == (column, j, st_i)


@settings(max_examples=40, deadline=None)
@given(grids(), st.data())
def test_masks_round_trip_over_the_agents(grid, data):
    agents = grid.agents
    probability = Fraction(1, len(list(grid.profiles())))
    inst = Instance(grid=grid, vp=private(agents), feas=FeasibilitySystem.uniform(1, agents),
                    dist=JointDistribution(grid, form="table", table=[
                        (s, probability) for s in grid.profiles()]))
    for r in range(len(agents) + 1):
        for combo in itertools.combinations(agents, r):
            mask = inst.mask(frozenset(combo))
            assert inst.members(mask) == frozenset(combo)
            assert mask == sum(1 << agents.index(a) for a in combo)
    mask = data.draw(st.integers(0, 2 ** len(agents) - 1))
    assert inst.mask(inst.members(mask)) == mask


def test_numbering_is_built_on_first_use():
    grid = SignalGrid(agents=(1, 2), values={1: (1, 2), 2: (1, 2, 3)})
    assert set(vars(grid)) == {"agents", "values"}
    assert grid.number((2, 3)) == 5 and grid.profile_at(5) == (2, 3)
    # at loading the support check builds the positions, and the assumption
    # walk the sizes and strides
    assert set(vars(load_fixture("tiny1").grid)) == {"agents", "values", "positions",
                                                     "sizes", "strides"}


@pytest.mark.parametrize("name", corpus_names())
def test_table_keys_are_ints(name):
    inst = load_fixture(name)
    revenue_and_audit(inst)
    for attr, table in vars(inst).items():
        if attr.startswith("_") and isinstance(table, dict):
            for key in table:
                for part in key if isinstance(key, tuple) else (key,):
                    assert not isinstance(part, (Fraction, frozenset)), (attr, key)


def test_single_item_check_runs_once_per_instance(monkeypatch):
    calls = []
    rank = FeasibilitySystem.rank

    def counted(self, subset):
        calls.append(subset)
        return rank(self, subset)

    monkeypatch.setattr(FeasibilitySystem, "rank", counted)
    inst = load_fixture("tiny1")
    assert not ic_ir_audit(inst, MechanismSpec("rand-single"))
    assert len(calls) == 1
