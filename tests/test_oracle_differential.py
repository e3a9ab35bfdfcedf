"""Differential tests of the revenue oracle.

The certified optimum of the support-only LP must equal the fraction-free
simplex on the same LP and the optimum of the full-grid LP stated below, and
its witness must pass ``verify_witness``.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from auctionlab.distributions import JointDistribution, SignalGrid
from auctionlab.instances import corpus_names, load_fixture
from auctionlab.matroid import FeasibilitySystem
from auctionlab.mechanisms import Instance
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
    assert res.solution.certified and res.solution.fallbacks == 0
    assert res.value == _solve_rational(build_revenue_lp(inst).lp).objective
    assert res.value == full_grid_optimum(inst)
    assert verify_witness(inst, res.witness) == []


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
    check_oracle(inst)


def test_every_support_pair_binds_when_monotonicity_fails():
    # agent 1's value falls with its own signal, so neighbour truth-telling
    # would not imply truth-telling between signals 1 and 3
    grid = SignalGrid(agents=(1,), values={1: (1, 2, 3)})
    dist = JointDistribution(grid, form="table",
                             table=[((1,), F(1, 3)), ((2,), F(1, 3)), ((3,), F(1, 3))])
    vp = table((1,), {1: {(1,): 5, (2,): 1, (3,): 4}})
    inst = Instance(grid=grid, dist=dist, vp=vp, feas=FeasibilitySystem.uniform(1, (1,)))
    assert inst.assumption_report()["monotonicity"]
    assert build_revenue_lp(inst).stats.ic_rows == 6
    check_oracle(inst)
