import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from auctionlab.distributions import (
    ConditioningError,
    DistributionError,
    JointDistribution,
    ScalarDistribution,
    SignalGrid,
    monopoly_price,
    regularity_report,
    revenue_curve,
)
from auctionlab.generators import generate_instances

H = Fraction(1, 2)
Q = Fraction(1, 4)


def uniform(*values):
    p = Fraction(1, len(values))
    return ScalarDistribution([(v, p) for v in values])


def grid2():
    return SignalGrid(agents=(1, 2), values={1: (1, 2), 2: (1, 2)})


def tiny1():
    """Two agents, independent uniform over {1, 2}."""
    return JointDistribution(grid2(), form="product",
                             marginals={1: uniform(1, 2), 2: uniform(1, 2)})


# ----------------------------------------------------------------------
# scalar distributions


def test_scalar_validation():
    with pytest.raises(DistributionError):
        ScalarDistribution([(1, H), (2, Q)])  # sums to 3/4
    with pytest.raises(DistributionError):
        ScalarDistribution([(1, H), (1, H)])  # duplicate support
    with pytest.raises(DistributionError):
        ScalarDistribution([])


def test_grid_validation():
    with pytest.raises(DistributionError, match="strictly increasing"):
        SignalGrid(agents=(1,), values={1: (2, 1)})
    with pytest.raises(DistributionError, match="at least one"):
        SignalGrid(agents=(1,), values={1: ()})


def test_revenue_curve():
    assert revenue_curve(ScalarDistribution([(5, 1)])) == [(5, 5)]
    assert revenue_curve(uniform(1, 2)) == [(1, 1), (2, 1)]
    # equal-revenue grid: every posted price earns 1
    d = ScalarDistribution([(1, H), (2, Q), (4, Q)])
    assert revenue_curve(d) == [(1, 1), (2, 1), (4, 1)]


def test_monopoly_price_low_tie_break():
    assert monopoly_price(uniform(1, 2)) == (1, 1)
    d = ScalarDistribution([(1, Fraction(3, 4)), (4, Q)])
    assert monopoly_price(d) == (1, 1)
    d = ScalarDistribution([(1, H), (10, H)])
    assert monopoly_price(d) == (10, 5)


def test_monopoly_is_brute_force_argmax():
    rng = random.Random(4)
    for _ in range(30):
        support = sorted(rng.sample(range(1, 40), rng.randint(1, 6)))
        weights = [rng.randint(1, 9) for _ in support]
        total = sum(weights)
        d = ScalarDistribution([(v, Fraction(w, total)) for v, w in zip(support, weights)])
        price, rev = monopoly_price(d)
        best = max(p * d.prob_at_least(p) for p in d.support)
        assert rev == best
        assert price == min(p for p in d.support if p * d.prob_at_least(p) == best)


def tail(d, t):
    return [(v, p) for v, p in d if v >= t]


def test_truncate_above():
    # the tail at or above t prices as the distribution conditioned on X >= t
    assert monopoly_price(tail(uniform(1, 2, 3), 2)) == monopoly_price(uniform(2, 3))
    assert monopoly_price(tail(uniform(1, 2), 0)) == monopoly_price(uniform(1, 2))
    d = ScalarDistribution([(1, Fraction(3, 4)), (4, Q)])
    assert monopoly_price(tail(d, 2)) == monopoly_price(ScalarDistribution([(4, 1)])) == (4, 4)
    # an empty tail is the reserve quote's `unconditioned` fallback, checked
    # in tests/test_mechanisms.py::test_reserve_fallback_labels
    assert tail(uniform(1, 2), 5) == []


def test_truncation_scaling_identity():
    # pricing the masses at or above t, read relative to their total, gives
    # the best of the curve restricted to p >= t, scaled by 1 / P[X >= t];
    # ties go to the lowest price
    d = ScalarDistribution([(1, H), (2, Q), (3, Fraction(1, 8)), (5, Fraction(1, 8))])
    for t in d.support:
        scale = d.prob_at_least(t)
        curve = [(p, rev) for p, rev in revenue_curve(d) if p >= t]
        best = max(rev for _, rev in curve)
        expect = (min(p for p, rev in curve if rev == best), best / scale)
        assert monopoly_price([(v, p) for v, p in d if v >= t]) == expect


def test_regularity_examples():
    point = regularity_report(ScalarDistribution([(7, 1)]))
    assert point.is_regular and point.is_mhr

    rep = regularity_report(uniform(1, 2))
    assert rep.virtual_values == (0, 2)
    assert rep.is_regular

    rep = regularity_report(ScalarDistribution([(1, H), (2, Q), (4, Q)]))
    assert rep.virtual_values == (0, 0, 4)
    assert rep.hazard_rates == (H, H, 1)
    assert rep.is_regular and rep.is_mhr

    rep = regularity_report(ScalarDistribution([(1, H), (2, Q), (8, Q)]))
    assert rep.virtual_values[1] == -4
    assert not rep.is_regular


def test_regular_curve_nonincreasing_above_monopoly():
    rng = random.Random(19)
    found = 0
    while found < 25:
        support = sorted(rng.sample(range(1, 30), rng.randint(2, 5)))
        weights = [rng.randint(1, 8) for _ in support]
        total = sum(weights)
        d = ScalarDistribution([(v, Fraction(w, total)) for v, w in zip(support, weights)])
        if not regularity_report(d).is_regular:
            continue
        found += 1
        price, _ = monopoly_price(d)
        revs = [rev for p, rev in revenue_curve(d) if p >= price]
        assert all(a >= b for a, b in zip(revs, revs[1:]))


# ----------------------------------------------------------------------
# joint distributions


def test_product_conditional_is_marginal():
    d = tiny1()
    assert d.conditional_signal(1, {2: 1}) == uniform(1, 2)


def test_product_zero_probability_values_leave_the_support():
    grid = SignalGrid(agents=(1, 2), values={1: (1, 2, 3), 2: (1, 2)})
    listed = ScalarDistribution([(1, H), (2, 0), (3, H)])
    d = JointDistribution(grid, form="product", marginals={1: listed, 2: uniform(1, 2)})
    assert d.marginals[1] == listed
    assert d.marginal(1) == ScalarDistribution([(1, H), (3, H)])
    assert d.conditional_signal(1, {2: 2}) == d.marginal(1)
    assert monopoly_price(d.marginal(1)) == monopoly_price(listed)
    with pytest.raises(ConditioningError):
        d.conditional_signal(2, {1: 2})


def test_table_conditional():
    g = grid2()
    d = JointDistribution(g, form="table", table=[((1, 1), H), ((2, 2), H)])
    assert d.conditional_signal(1, {2: 2}) == ScalarDistribution([(2, 1)])
    with pytest.raises(ConditioningError):
        d.conditional_signal(1, {2: 3})


def test_conditional_recovers_joint_slice():
    g = SignalGrid(agents=(1, 2), values={1: (1, 2, 3), 2: (1, 2)})
    d = JointDistribution(g, form="table", table=[
        ((1, 1), Fraction(1, 6)), ((2, 1), Fraction(1, 3)),
        ((3, 2), Fraction(1, 4)), ((1, 2), Fraction(1, 4)),
    ])
    for s2 in (1, 2):
        cond = d.conditional_signal(1, {2: s2})
        slice_mass = sum(p for (a, b), p in d.enumerate_support() if b == s2)
        for v, p in cond:
            assert p * slice_mass == d.probability((v, s2))


def test_enumerate_support():
    d = tiny1()
    support = dict(d.enumerate_support())
    assert len(support) == 4
    assert all(p == Q for p in support.values())
    assert sum(support.values()) == 1

    point = JointDistribution(grid2(), form="table", table=[((1, 2), 1)])
    assert list(point.enumerate_support()) == [((1, 2), 1)]


def test_table_rejects_duplicates_and_off_grid():
    g = grid2()
    with pytest.raises(DistributionError, match="duplicate"):
        JointDistribution(g, form="table", table=[((1, 1), H), ((1, 1), H)])
    with pytest.raises(DistributionError, match="off the grid"):
        JointDistribution(g, form="table", table=[((1, 5), 1)])
    with pytest.raises(DistributionError, match="sum to"):
        JointDistribution(g, form="table", table=[((1, 1), Fraction(99, 100))])


def test_marginal_of_table():
    g = grid2()
    d = JointDistribution(g, form="table", table=[((1, 1), H), ((2, 2), Q), ((2, 1), Q)])
    assert d.marginal(1) == ScalarDistribution([(1, H), (2, H)])
    assert d.marginal(2) == ScalarDistribution([(1, Fraction(3, 4)), (2, Q)])


def test_sample_point_mass():
    d = JointDistribution(grid2(), form="table", table=[((2, 1), 1)])
    rng = random.Random(0)
    assert all(d.sample(rng) == (2, 1) for _ in range(20))


def test_sample_golden_sequence():
    d = tiny1()
    rng = random.Random(123)
    got = [d.sample(rng) for _ in range(6)]
    assert got == [(1, 1), (1, 1), (1, 2), (1, 1), (2, 2), (1, 1)]


def test_sample_frequencies_within_three_sigma():
    d = tiny1()
    rng = random.Random(2024)
    n = 100_000
    counts: dict = {}
    for _ in range(n):
        s = d.sample(rng)
        counts[s] = counts.get(s, 0) + 1
    for profile, p in d.enumerate_support():
        p = float(p)
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(counts[profile] - n * p) <= 3 * sigma


# ----------------------------------------------------------------------
# one distribution written both ways


def _both_forms():
    """Three agents on uneven axes, independent, as a product and as a table.

    Agent 3's grid has a point (7) outside its marginal's support, so every
    column that fixes agent 3 at 7 has no mass.
    """
    grid = SignalGrid(agents=(1, 2, 3), values={1: (1, 2), 2: (1, 3, 4), 3: (2, 5, 6, 7)})
    marginals = {
        1: ScalarDistribution([(1, Fraction(1, 3)), (2, Fraction(2, 3))]),
        2: ScalarDistribution([(1, Fraction(1, 5)), (3, H), (4, Fraction(3, 10))]),
        3: ScalarDistribution([(2, Fraction(1, 7)), (5, Fraction(4, 7)), (6, Fraction(2, 7))]),
    }
    product = JointDistribution(grid, form="product", marginals=marginals)
    table = JointDistribution(grid, form="table", table=[
        ((a, b, c), pa * pb * pc)
        for a, pa in marginals[1] for b, pb in marginals[2] for c, pc in marginals[3]])
    return grid, product, table


def _conditional_or_error(d, agent, others):
    try:
        return d.conditional_signal(agent, others)
    except ConditioningError:
        return ConditioningError


def test_product_and_table_forms_agree():
    grid, product, table = _both_forms()
    assert list(product.enumerate_support()) == list(table.enumerate_support())
    for profile in grid.profiles():
        assert product.probability(profile) == table.probability(profile)
    for a in grid.agents:
        assert product.marginal(a) == table.marginal(a)
    refused = 0
    for a in grid.agents:
        rest = [b for b in grid.agents if b != a]
        for column in itertools.product(*(grid.axis(b) for b in rest)):
            others = dict(zip(rest, column))
            got = _conditional_or_error(product, a, others)
            assert got == _conditional_or_error(table, a, others)
            refused += got is ConditioningError
    assert refused > 0
    draws = []
    for d in (product, table):
        rng = random.Random(11)
        draws.append([d.sample(rng) for _ in range(2000)])
    assert draws[0] == draws[1]


@pytest.mark.parametrize("name, params, seed, digest", [
    ("correlated-private", {"n": 4, "grid": 8, "kind": "2-uniform"}, 0,
     "60547ce89c783b73020f2990bd5650c00545b28757d29a55ef685cc29bd0b55a"),
    ("regular-marginals", {"n": 4, "grid": 7, "kind": "2-uniform"}, 9,
     "7c81e89c53609331ba57bb6992c55909897d80dc4929e0c1fba563306500503b"),
])
def test_sample_stream_pinned_on_large_supports(name, params, seed, digest):
    d = generate_instances(name, params, seed)[0].dist
    assert len(d.support_profiles()) > 1000
    rng = random.Random(7)
    draws = [d.sample(rng) for _ in range(2000)]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == digest


def test_numpy_integer_coordinates_are_refused_at_construction():
    # a numpy integer has no as_integer_ratio(), so SignalGrid.number cannot
    # number it: the support check refuses it, not the first numbering
    np = pytest.importorskip("numpy")
    grid = SignalGrid(agents=(1, 2), values={1: (1, 2), 2: (1, 2)})
    one, two = np.int64(1), np.int64(2)
    assert grid.on_grid((1, 2)) and not grid.on_grid((one, two))
    with pytest.raises(DistributionError, match=r"support point .* is off the grid"):
        JointDistribution(grid, form="table", table=[((one, one), Fraction(1, 2)), ((two, two), Fraction(1, 2))])
    with pytest.raises(DistributionError, match="marginal support off the grid for agent 1"):
        JointDistribution(grid, form="product",
                          marginals={1: [(one, Fraction(1, 2)), (two, Fraction(1, 2))], 2: [(1, Fraction(1))]})
