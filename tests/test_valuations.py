from fractions import Fraction

import pytest

from auctionlab.distributions import SignalGrid
from auctionlab.valuations import (
    PiecewiseLinear,
    StepFunction,
    ValuationError,
    additive,
    assumption_violations,
    concave_additive,
    grid_values,
    private,
    table,
    value,
    weighted_sum,
)


def grid(axes: dict) -> SignalGrid:
    return SignalGrid(agents=tuple(axes), values=axes)


def identity_step(axis):
    return StepFunction(tuple(axis), tuple(axis))


def test_value_private():
    vp = private((1, 2))
    assert value(vp, 1, (3, 1)) == 3
    assert value(vp, 2, (3, 1)) == 1


def test_value_weighted_sum():
    vp = weighted_sum((1, 2), Fraction(1, 2))
    assert value(vp, 1, (2, 4)) == 4
    assert value(vp, 2, (2, 4)) == 5


def test_value_table_gap_example():
    # two agents, second one's worth shadows the first signal minus 0.1
    eps = Fraction(1, 10)
    g1 = (1, 2, 4)
    vals = {
        1: {(s1, 0): s1 for s1 in g1},
        2: {(s1, 0): s1 - eps for s1 in g1},
    }
    vp = table((1, 2), vals)
    assert value(vp, 2, (4, 0)) == Fraction(39, 10)


def test_value_off_table_errors():
    vp = table((1,), {1: {(1,): 1}})
    with pytest.raises(ValuationError):
        value(vp, 1, (9,))


def test_additive_and_concave():
    axes = {1: (0, 1, 2), 2: (0, 1, 2)}
    g = {
        1: {1: identity_step(axes[1]), 2: StepFunction((0, 1, 2), (0, 0, 1))},
        2: {1: StepFunction((0, 1, 2), (0, 1, 1)), 2: identity_step(axes[2])},
    }
    vp = additive((1, 2), g)
    assert value(vp, 1, (2, 2)) == 3
    outer = {a: PiecewiseLinear((0, 2, 4), (0, 2, 3)) for a in (1, 2)}
    cvp = concave_additive((1, 2), g, outer)
    assert value(cvp, 1, (2, 2)) == Fraction(5, 2)


# ----------------------------------------------------------------------
# assumption checks


def test_monotonicity_private_passes():
    g = grid({1: (1, 2), 2: (1, 2)})
    assert assumption_violations(g, grid_values(private((1, 2)), g))["monotonicity"] == []


def test_monotonicity_strictness_catches_flat_own_signal():
    g = grid({1: (1, 2), 2: (0,)})
    vp = table((1, 2), {
        1: {(1, 0): 5, (2, 0): 5},   # flat in own signal
        2: {(1, 0): 0, (2, 0): 0},
    })
    bad = assumption_violations(g, grid_values(vp, g))["monotonicity"]
    assert any(a == 1 for a, *_ in bad)


def test_monotonicity_catches_negative_values():
    g = grid({1: (1, 2)})
    vp = table((1,), {1: {(1,): -1, (2,): 1}})
    assert any(kind == "nonnegative"
               for _, kind, *_ in assumption_violations(g, grid_values(vp, g))["monotonicity"])


def test_single_crossing_private_passes():
    g = grid({1: (1, 2, 3), 2: (1, 2, 3)})
    assert assumption_violations(g, grid_values(private((1, 2)), g))["single_crossing"] == []


def test_single_crossing_weighted_sum_half_passes():
    g = grid({1: (0, 1, 2), 2: (0, 1, 2)})
    vp = weighted_sum((1, 2), Fraction(1, 2))
    assert assumption_violations(g, grid_values(vp, g))["single_crossing"] == []


def test_single_crossing_common_value_fails():
    g = grid({1: (0, 1), 2: (0, 1)})
    vp = weighted_sum((1, 2), 1)
    violations = assumption_violations(g, grid_values(vp, g))["single_crossing"]
    assert violations  # equal values never become strictly separated


def test_cross_responsiveness_additive_passes():
    axes = {1: (0, 1, 2), 2: (0, 1, 2)}
    g = grid(axes)
    steps = {
        1: {1: identity_step(axes[1]), 2: StepFunction((0, 1, 2), (0, 1, 1))},
        2: {1: StepFunction((0, 1, 2), (0, 0, 1)), 2: identity_step(axes[2])},
    }
    vp = additive((1, 2), steps)
    assert assumption_violations(g, grid_values(vp, g))["cross_responsiveness"] == []


def test_cross_responsiveness_concave_cap_passes():
    axes = {1: (0, 4, 8), 2: (0, 4, 8)}
    g = grid(axes)
    steps = {
        a: {1: identity_step(axes[1]), 2: identity_step(axes[2])}
        for a in (1, 2)
    }
    outer = {a: PiecewiseLinear((0, 10, 16), (0, 10, 13)) for a in (1, 2)}
    vp = concave_additive((1, 2), steps, outer)
    assert assumption_violations(g, grid_values(vp, g))["cross_responsiveness"] == []


def test_cross_responsiveness_product_valuation_fails():
    g = grid({1: (1, 2), 2: (1, 2)})
    vp = table((1, 2), {
        1: {(s1, s2): s1 * s2 for s1 in (1, 2) for s2 in (1, 2)},
        2: {(s1, s2): s2 for s1 in (1, 2) for s2 in (1, 2)},
    })
    violations = assumption_violations(g, grid_values(vp, g))["cross_responsiveness"]
    assert any(a == 1 for a, *_ in violations)


def test_additive_families_telescope_over_steps():
    # moving one coordinate from the grid bottom to its value contributes
    # exactly the step function's rise, independent of the rest
    axes = {1: (0, 1, 3), 2: (0, 2, 5)}
    g = grid(axes)
    steps = {
        1: {1: identity_step(axes[1]), 2: StepFunction((0, 2, 5), (0, 1, 1))},
        2: {1: StepFunction((0, 1, 3), (0, 0, 2)), 2: identity_step(axes[2])},
    }
    for vp in (additive((1, 2), steps), weighted_sum((1, 2), Fraction(1, 2))):
        for s in g.profiles():
            for j, b in enumerate(g.agents):
                floor = s[:j] + (axes[b][0],) + s[j + 1:]
                for a in g.agents:
                    diff = value(vp, a, s) - value(vp, a, floor)
                    if vp.family == "additive":
                        fn = steps[a][b]
                        assert diff == fn(s[j]) - fn(axes[b][0])
                    else:
                        beta = Fraction(1, 2) if a != b else 1
                        assert diff == beta * (s[j] - axes[b][0])


def test_monotone_scan_matches_value():
    # any profile passing the check is coordinatewise monotone by construction
    axes = {1: (0, 1, 2), 2: (0, 1, 2)}
    g = grid(axes)
    vp = weighted_sum((1, 2), Fraction(1, 4))
    assert assumption_violations(g, grid_values(vp, g))["monotonicity"] == []
    for s in g.profiles():
        for j, b in enumerate(g.agents):
            axis = g.axis(b)
            k = axis.index(s[j])
            if k + 1 == len(axis):
                continue
            bumped = s[:j] + (axis[k + 1],) + s[j + 1:]
            for a in g.agents:
                assert value(vp, a, bumped) >= value(vp, a, s)
