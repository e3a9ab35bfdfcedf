"""Differential test of the valuation-assumption checks.

The references below state the three conditions by brute force over the
grid; single-crossing compares against every higher own grid value, not
only the next one.  ``Instance.assumption_report()`` must agree with them on
table valuations that are often negative, flat or crossing.  The values are
ints and Fractions of small denominators, so the instance's int table is
scaled by L > 1 and the report's differences are divided back by L.
"""
import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from auctionlab.distributions import JointDistribution, SignalGrid
from auctionlab.matroid import FeasibilitySystem
from auctionlab.mechanisms import Instance
from auctionlab.valuations import table, value

F = Fraction


def bumped(s, j, t):
    return s[:j] + (t,) + s[j + 1:]


def reference_monotonicity(vp, grid):
    bad = []
    for i, a in enumerate(grid.agents):
        for s in grid.profiles():
            v = value(vp, a, s)
            if v < 0 or (isinstance(v, float) and not math.isfinite(v)):
                bad.append((a, "nonnegative", s, None))
            for j, b in enumerate(grid.agents):
                axis = grid.axis(b)
                k = axis.index(s[j])
                if k + 1 < len(axis):
                    up = bumped(s, j, axis[k + 1])
                    dv = value(vp, a, up) - v
                    if (not dv > 0) if i == j else dv < 0:
                        bad.append((a, b, s, up))
    return bad


def reference_single_crossing(vp, grid):
    bad = []
    for i, ai in enumerate(grid.agents):
        for aj in grid.agents:
            if aj == ai:
                continue
            for s in grid.profiles():
                if value(vp, ai, s) < value(vp, aj, s):
                    continue
                for t in grid.axis(ai):
                    if t <= s[i]:
                        continue
                    up = bumped(s, i, t)
                    if not value(vp, ai, up) > value(vp, aj, up):
                        bad.append((ai, aj, s, t))
    return bad


def reference_cross_responsiveness(vp, grid):
    bad = []
    for i, ai in enumerate(grid.agents):
        own = grid.axis(ai)
        for j, aj in enumerate(grid.agents):
            if aj == ai:
                continue
            other = grid.axis(aj)
            for s in grid.profiles():
                ki, kj = own.index(s[i]), other.index(s[j])
                if ki + 1 == len(own) or kj + 1 == len(other):
                    continue
                up_i = bumped(s, i, own[ki + 1])
                up_j = bumped(s, j, other[kj + 1])
                up_both = bumped(up_j, i, own[ki + 1])
                low = value(vp, ai, up_j) - value(vp, ai, s)
                high = value(vp, ai, up_both) - value(vp, ai, up_i)
                if high > low:
                    bad.append((ai, aj, s, low, high))
    return bad


@st.composite
def table_instances(draw):
    n = draw(st.integers(1, 3))
    agents = tuple(range(1, n + 1))
    axes = {a: tuple(sorted(draw(st.sets(st.integers(0, 6), min_size=1, max_size=3))))
            for a in agents}
    grid = SignalGrid(agents=agents, values=axes)
    profiles = list(grid.profiles())
    dist = JointDistribution(grid, form="table",
                             table=[(s, F(1, len(profiles))) for s in profiles])
    numbers = st.integers(-1, 6) | st.builds(F, st.integers(-3, 18), st.sampled_from((2, 3)))
    vp = table(agents, {a: {s: draw(numbers) for s in profiles} for a in agents})
    return Instance(grid=grid, dist=dist, vp=vp,
                    feas=FeasibilitySystem.uniform(1, agents))


@settings(max_examples=300, deadline=None)
@given(table_instances())
def test_assumption_report_matches_brute_force(inst):
    report = inst.assumption_report()
    assert report["monotonicity"] == reference_monotonicity(inst.vp, inst.grid)
    assert (set(report["cross_responsiveness"])
            == set(reference_cross_responsiveness(inst.vp, inst.grid)))
    crossing = reference_single_crossing(inst.vp, inst.grid)
    assert bool(report["single_crossing"]) == bool(crossing)
    assert set(report["single_crossing"]) <= set(crossing)


def test_a_fractional_table_reports_its_differences_in_instance_units():
    grid = SignalGrid(agents=(1, 2), values={1: (0, 1), 2: (0, 1)})
    profiles = list(grid.profiles())
    vp = table((1, 2), {1: {(0, 0): 0, (0, 1): F(1, 2), (1, 0): 1, (1, 1): F(7, 3)},
                        2: {s: s[1] + F(1, 3) for s in profiles}})
    inst = Instance(grid=grid, vp=vp, feas=FeasibilitySystem.uniform(1, (1, 2)),
                    dist=JointDistribution(grid, form="table",
                                           table=[(s, F(1, 4)) for s in profiles]))
    assert inst.value_scale == 6
    # agent 1's rise along s_2 is 1/2 at s_1 = 0 and 7/3 - 1 = 4/3 at s_1 = 1
    assert inst.assumption_report() == {
        "monotonicity": [], "single_crossing": [],
        "cross_responsiveness": [(1, 2, (0, 0), F(1, 2), F(4, 3))]}
    assert reference_cross_responsiveness(vp, grid) == [(1, 2, (0, 0), F(1, 2), F(4, 3))]
