"""Differential tests of the revenue oracle.

The certified optimum of the envelope LP must equal the fraction-free simplex
on the same LP and the optimum of the full-grid LP stated below, which has a
payment variable at every grid profile.  Its witness must pass
``verify_witness`` and its envelope payments must earn the optimum.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from auctionlab.distributions import JointDistribution, SignalGrid
from auctionlab.instances import corpus_names, load_fixture
from auctionlab.matroid import FeasibilitySystem
from auctionlab.mechanisms import AssumptionError, Instance
from auctionlab.oracle import build_revenue_lp, opt_revenue, verify_witness
from auctionlab.simplex import LinearProgram, _solve_rational, solve
from auctionlab.valuations import private, table, value, weighted_sum

F = Fraction


def full_grid_optimum(inst):
    """Optimal revenue over a lottery and payments at every grid profile, with
    truth-telling at every support profile against every own-grid deviation
    and participation at every support profile."""
    agents = inst.agents
    profiles = list(inst.grid.profiles())
    sets = inst.feas.feasible_sets()
    y = {(s, f): j for j, (s, f) in enumerate(itertools.product(profiles, sets))}
    p = {(s, a): len(y) + j for j, (s, a) in enumerate(itertools.product(profiles, agents))}
    objective = [0] * (len(y) + len(p))
    for s, prob in inst.dist.enumerate_support():
        for a in agents:
            objective[p[(s, a)]] = prob
    lp = LinearProgram(len(objective), objective)
    for s in profiles:
        lp.add_le({y[(s, f)]: 1 for f in sets if f}, 1)
    for s in inst.dist.support_profiles():
        for k, a in enumerate(agents):
            v = value(inst.vp, a, s)
            served = [f for f in sets if a in f]
            ir = {y[(s, f)]: -v for f in served if v}
            ir[p[(s, a)]] = 1
            lp.add_le(ir, 0)
            for t in inst.grid.axis(a):
                if t == s[k]:
                    continue
                dev = s[:k] + (t,) + s[k + 1:]
                ic = {}
                if v:
                    for f in served:
                        ic[y[(dev, f)]] = v
                        ic[y[(s, f)]] = -v
                ic[p[(dev, a)]] = -1
                ic[p[(s, a)]] = 1
                lp.add_le(ic, 0)
    res = solve(lp)
    assert res.status == "optimal"
    return res.objective


def check_oracle(inst):
    res = opt_revenue(inst)
    assert res.solution.certified
    assert res.value == _solve_rational(build_revenue_lp(inst).lp).objective
    assert res.value == full_grid_optimum(inst)
    assert verify_witness(inst, res.witness) == []
    assert sum((p * sum(res.witness[s][1]) for s, p in inst.dist.enumerate_support()),
               F(0)) == res.value


@pytest.mark.parametrize("name", corpus_names())
def test_fixture_optimum_matches_references(name):
    check_oracle(load_fixture(name))


@st.composite
def instances(draw):
    n = draw(st.integers(1, 3))
    agents = tuple(range(1, n + 1))
    axes = {a: tuple(sorted(draw(st.sets(st.integers(1, 6), min_size=1, max_size=3))))
            for a in agents}
    grid = SignalGrid(agents=agents, values=axes)
    profiles = list(grid.profiles())
    weights = draw(st.lists(st.integers(0, 3), min_size=len(profiles),
                            max_size=len(profiles)))
    if not any(weights):
        weights[0] = 1
    total = sum(weights)
    dist = JointDistribution(grid, form="table", table=[
        (s, F(w, total)) for s, w in zip(profiles, weights) if w])
    family = draw(st.sampled_from(["private", "weighted_sum", "table"]))
    if family == "private":
        vp = private(agents)
    elif family == "weighted_sum":
        vp = weighted_sum(agents, draw(st.sampled_from([F(0), F(1, 4), F(1, 2), F(1)])))
    else:
        # arbitrary values, often not monotone in the own signal
        vp = table(agents, {a: {s: draw(st.integers(0, 6)) for s in profiles}
                            for a in agents})
    if draw(st.booleans()):
        feas = FeasibilitySystem.uniform(draw(st.integers(1, n)), agents)
    else:
        block_of = [draw(st.integers(0, n - 1)) for _ in agents]
        blocks = [[a for a, b in zip(agents, block_of) if b == k] for k in sorted(set(block_of))]
        feas = FeasibilitySystem.partition(blocks, [1] * len(blocks))
    return Instance(grid=grid, dist=dist, vp=vp, feas=feas)


@settings(max_examples=50, deadline=None)
@given(instances())
def test_random_instance_optimum_matches_references(inst):
    if inst.assumption_report()["monotonicity"]:
        with pytest.raises(AssumptionError, match="fail monotonicity"):
            opt_revenue(inst)
    else:
        check_oracle(inst)


def reference_columns(inst):
    """Each agent's columns of the support, grouped from the support itself:
    support profiles by ``grid.column`` in support order, each as (support
    position, value in instance units)."""
    columns = []
    for k in range(len(inst.agents)):
        by_column = {}
        for i, (_, number, _) in enumerate(inst.dist.numbered_support()):
            by_column.setdefault(inst.grid.column(k, number)[0], []).append(
                (i, inst._unit(inst._value(k, number))))
        columns.append(list(by_column.values()))
    return columns


@pytest.mark.parametrize("name", corpus_names())
def test_fixture_lp_columns_match_the_support_grouping(name):
    inst = load_fixture(name)
    assert build_revenue_lp(inst).columns == reference_columns(inst)


@settings(max_examples=50, deadline=None)
@given(instances())
def test_random_lp_columns_match_the_support_grouping(inst):
    assume(not inst.assumption_report()["monotonicity"])
    assert build_revenue_lp(inst).columns == reference_columns(inst)


@st.composite
def monotone_tables(draw):
    """An instance of the strategy above with a table valuation that passes
    the monotonicity check: each value is at least its grid predecessor's
    plus 1 along the agent's own signal and plus 0 along the others', and
    the tables are not sums of per-signal terms in general."""
    inst = draw(instances())
    agents, grid = inst.agents, inst.grid
    values = {}
    for a in agents:
        own = grid.index_of(a)
        cells = {}
        for s in grid.profiles():
            below = [cells[s[:j] + (grid.axis(b)[grid.axis(b).index(s[j]) - 1],) + s[j + 1:]]
                     + (j == own)
                     for j, b in enumerate(agents) if s[j] != grid.axis(b)[0]]
            cells[s] = max(below, default=0) + draw(st.integers(0, 3))
        values[a] = cells
    return Instance(grid=grid, dist=inst.dist, vp=table(agents, values), feas=inst.feas)


@settings(max_examples=50, deadline=None)
@given(monotone_tables())
def test_monotone_table_optimum_matches_references(inst):
    assert not inst.assumption_report()["monotonicity"]
    check_oracle(inst)


def test_oracle_refuses_when_monotonicity_fails():
    # agent 1's value falls with its own signal, so the envelope does not pin
    # the payments: the oracle refuses the instance, as every mechanism does
    grid = SignalGrid(agents=(1,), values={1: (1, 2, 3)})
    dist = JointDistribution(grid, form="table",
                             table=[((1,), F(1, 3)), ((2,), F(1, 3)), ((3,), F(1, 3))])
    vp = table((1,), {1: {(1,): 5, (2,): 1, (3,): 4}})
    inst = Instance(grid=grid, dist=dist, vp=vp, feas=FeasibilitySystem.uniform(1, (1,)),
                    name="falling")
    assert inst.assumption_report()["monotonicity"]
    with pytest.raises(AssumptionError, match="falling: valuations fail monotonicity"):
        build_revenue_lp(inst)
    with pytest.raises(AssumptionError, match="falling: valuations fail monotonicity"):
        opt_revenue(inst)
