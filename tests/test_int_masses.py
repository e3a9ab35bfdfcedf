"""Probabilities as int masses over one common denominator.

The support numbered by profile and its columns carry masses P = p·D, with
D the distribution's ``mass_scale``.  Every ratio of masses must stay an
exact ``Fraction``: in Python an int divided by an int is a float.  The
references here read only the exact probabilities of the public queries
(``probability``, ``enumerate_support``) and instance-unit values.  Monte
Carlo draws a support index; its profiles must be those of a sampler over
the table's float probabilities, drawn from the same stream.
"""
import bisect
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from auctionlab.distributions import ConditioningError, ScalarDistribution, monopoly_price
from auctionlab.generators import generate_instances
from auctionlab.instances import corpus_names, load_fixture
from auctionlab.mechanisms import (
    MechanismSpec,
    _single_sample_revenue,
    conditional_value_distribution,
    expected_revenue,
    gvcg,
    run_realized,
    sample_realization,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import MC_INSTANCES, MC_MECHANISMS  # noqa: E402


def fixtures():
    return [load_fixture(n) for n in corpus_names()]


def mc_instances():
    """The mc-sampling workload's instances."""
    return [generate_instances(name, params, seed)[0] for name, params, seed in MC_INSTANCES]


# ----------------------------------------------------------------------
# the posted price


def reference_price(pairs):
    """The lowest price of the highest revenue v·P[X >= v] / total."""
    total = sum(p for _, p in pairs)
    revenue = {v: Fraction(v) * sum(p for w, p in pairs if w >= v) / total for v, _ in pairs}
    best = max(revenue.values())
    return min(v for v, r in revenue.items() if r == best), best


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 30), st.integers(1, 12)),
                min_size=1, max_size=8, unique_by=lambda t: t[0]))
def test_monopoly_price_on_int_masses_equals_it_on_fractions(points):
    points.sort()
    fractions = [(v, Fraction(n, d)) for v, n, d in points]
    scale = math.lcm(*(p.denominator for _, p in fractions))
    masses = [(v, int(p * scale)) for v, p in fractions]
    assert all(type(p) is int for _, p in masses)
    on_ints, on_fractions = monopoly_price(masses), monopoly_price(fractions)
    assert on_ints == on_fractions == reference_price(fractions)
    assert type(on_ints[1]) is Fraction and type(on_fractions[1]) is Fraction


# ----------------------------------------------------------------------
# conditional laws and the single-sample revenue


def column_law(inst, agent, s):
    """(own signal, exact conditional probability) given the others' signals
    in s, from ``probability`` alone."""
    i = inst.agents.index(agent)
    rows = [(t, inst.dist.probability(s[:i] + (t,) + s[i + 1:])) for t in inst.grid.axis(agent)]
    rows = [(t, p) for t, p in rows if p > 0]
    mass = sum(p for _, p in rows)
    return [(t, p / mass) for t, p in rows]


def assert_exact(d: ScalarDistribution):
    assert all(type(p) is Fraction for p in d.probs), d


@pytest.mark.parametrize("inst", fixtures(), ids=lambda inst: inst.name)
def test_conditional_laws_are_exact_fractions(inst):
    checked = 0
    for s in inst.grid.profiles():
        for i, a in enumerate(inst.agents):
            law = column_law(inst, a, s)
            others = {b: x for b, x in zip(inst.agents, s) if b != a}
            if not law:
                with pytest.raises(ConditioningError):
                    inst.dist.conditional_signal(a, others)
                with pytest.raises(ConditioningError):
                    conditional_value_distribution(inst, a, s)
                continue
            signal = inst.dist.conditional_signal(a, others)
            assert signal == ScalarDistribution(law)
            assert_exact(signal)
            values = conditional_value_distribution(inst, a, s)
            assert values == ScalarDistribution(
                [(inst.value(a, s[:i] + (t,) + s[i + 1:]), q) for t, q in law])
            assert_exact(values)
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("inst", fixtures(), ids=lambda inst: inst.name)
def test_single_sample_revenue_per_profile_is_exact(inst):
    """Each generalized-VCG winner is served at the higher of its threshold
    and a reserve drawn from its column law, when its value reaches it."""
    for s, _ in inst.dist.enumerate_support():
        base, expect = gvcg(inst, s), Fraction(0)
        for a in base.tentative:
            i = inst.agents.index(a)
            for t, q in column_law(inst, a, s):
                price = max(inst.value(a, s[:i] + (t,) + s[i + 1:]), base.threshold_value[a])
                if inst.value(a, s) >= price:
                    expect += q * price
        found = _single_sample_revenue(inst, inst.grid.number(s))
        assert not isinstance(found, float)
        assert Fraction(found, inst.value_scale) == expect, s


# ----------------------------------------------------------------------
# Monte Carlo draws


def reference_sampler(dist):
    """Draws a profile from the running float totals of the table's
    probabilities: the first total above a uniform draw, else the last."""
    profiles, probs = zip(*dist.enumerate_support())
    sums = list(itertools.accumulate(float(p) for p in probs))
    return lambda rng: profiles[min(bisect.bisect_right(sums, rng.random()), len(profiles) - 1)]


@pytest.mark.parametrize("inst", fixtures() + mc_instances(), ids=lambda inst: inst.name)
def test_index_draws_give_the_profiles_of_the_float_sampler(inst):
    dist, seed, n = inst.dist, 20240, 2000
    support, sample = dist.numbered_support(), reference_sampler(dist)
    by_index, by_sample, by_reference = (random.Random(seed) for _ in range(3))
    drawn = [support[dist.draw(by_index)][1] for _ in range(n)]
    assert drawn == [dist.grid.number(dist.sample(by_sample)) for _ in range(n)]
    assert drawn == [dist.grid.number(sample(by_reference)) for _ in range(n)]


@pytest.mark.parametrize("inst", fixtures()[:3] + mc_instances(), ids=lambda inst: inst.name)
def test_monte_carlo_equals_the_public_loop(inst):
    """``expected_revenue`` in Monte Carlo mode against a loop of
    ``run_realized`` on profiles from the reference sampler."""
    trials, seed, sample = 60, 5, reference_sampler(inst.dist)
    for mech in MC_MECHANISMS:
        spec = MechanismSpec(mech)
        if mech == "rand-matroid" and not inst.feas.is_matroid:
            continue
        rng = random.Random(seed)
        draws = []
        for _ in range(trials):
            s = sample(rng)
            draws.append(float(run_realized(inst, spec, s,
                                            sample_realization(inst, spec, rng)).revenue))
        mean = sum(draws) / trials
        var = sum((x - mean) ** 2 for x in draws) / (trials - 1)
        est = expected_revenue(inst, spec, "monte_carlo", trials=trials, seed=seed)
        assert (est.value, est.std_error) == (mean, math.sqrt(var / trials))
