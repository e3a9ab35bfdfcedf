"""The Monte Carlo draw path: profile numbers, admission masks, draw floats
and the prior-marginal masses the reserve quotes fall back to.

Each piece is checked against a reference written from the public meaning
alone: a profile's number is found by comparing coordinates with ``==``; an
admission draw is the frozenset loop over the agents; a draw's revenue is
``float(Fraction(x, L))``; a prior marginal is ``dist.marginal`` scaled by D.
"""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from auctionlab import mechanisms
from auctionlab.distributions import DistributionError, JointDistribution, SignalGrid
from auctionlab.instances import corpus_names, load_fixture
from auctionlab.matroid import FeasibilitySystem
from auctionlab.mechanisms import (
    MECHANISMS,
    Instance,
    MechanismSpec,
    WrongVariantError,
    _core,
    _draw_admitted,
    _revenue,
    expected_revenue,
    ic_ir_audit,
    sample_realization,
)
from auctionlab.valuations import private

from test_int_masses import mc_instances
from test_int_walk import fractional_fixed


def fixtures():
    return [load_fixture(n) for n in corpus_names()]


# ----------------------------------------------------------------------
# profile numbers


def reference_number(grid, profile):
    """Row-major number with each coordinate found on its axis by ``==``."""
    k = 0
    for agent, x in zip(grid.agents, profile):
        axis = grid.axis(agent)
        k = k * len(axis) + next(j for j, v in enumerate(axis) if v == x)
    return k


@pytest.mark.parametrize("name", corpus_names())
def test_fixture_profiles_number_as_the_reference(name):
    grid = load_fixture(name).grid
    numbers = [grid.number(s) for s in grid.profiles()]
    assert numbers == [reference_number(grid, s) for s in grid.profiles()]
    assert numbers == list(range(math.prod(grid.sizes)))


def as_int_or_float(x: Fraction):
    """x as an int when integral, else as a float when that is exact."""
    if x.denominator == 1:
        return int(x)
    return float(x) if Fraction(float(x)) == x else x


@st.composite
def mixed_grids(draw):
    """A grid of Fraction values of either sign, and one profile of it whose
    coordinates are ints or floats wherever those are exact."""
    n = draw(st.integers(1, 4))
    agents = tuple(f"a{i}" for i in range(n))
    axes = {a: tuple(sorted(draw(st.sets(st.fractions(-4, 4, max_denominator=4),
                                         min_size=1, max_size=4)))) for a in agents}
    grid = SignalGrid(agents=agents, values=axes)
    profile = tuple(draw(st.sampled_from(axes[a])) for a in agents)
    return grid, profile


@settings(max_examples=150, deadline=None)
@given(mixed_grids())
def test_hypothesis_grids_number_as_the_reference(case):
    grid, profile = case
    for s in grid.profiles():
        assert grid.number(s) == reference_number(grid, s)
    mixed = tuple(map(as_int_or_float, profile))
    assert grid.number(mixed) == grid.number(profile) == reference_number(grid, profile)


def test_int_and_fraction_coordinates_of_equal_value_number_alike():
    on_fractions = SignalGrid(agents=(1, 2), values={1: (Fraction(0), Fraction(1), Fraction(2)),
                                                     2: (Fraction(1, 2), Fraction(3))})
    on_ints = SignalGrid(agents=(1, 2), values={1: (0, 1, 2), 2: (Fraction(1, 2), 3)})
    for grid in (on_fractions, on_ints):
        assert grid.number((2, 3)) == grid.number((Fraction(2), Fraction(3))) == 5
        assert grid.number((1, Fraction(1, 2))) == grid.number((Fraction(1), 0.5)) == 2
        assert grid.number((True, 3)) == grid.number((1, 3)) == 3


@pytest.mark.parametrize("bad", [Fraction(3, 2), 5, -1, "1", None, math.nan, math.inf,
                                 -math.inf, [1]])
def test_off_grid_coordinates_are_refused_with_one_message(bad):
    grid = load_fixture("tiny1").grid
    assert grid.axis(grid.agents[0])[:2] == (1, 2)
    profile = (bad,) + grid.axis(grid.agents[1])[:1]
    with pytest.raises(DistributionError) as refused:
        grid.number(profile)
    assert str(refused.value) == f"profile {profile} is off the grid"


# ----------------------------------------------------------------------
# admission drawn as a bitmask


def reference_realization(instance, law, rng):
    """The admitted set as a frozenset: one draw for the all-agents branch
    when the law has one, then one draw per agent in agent order."""
    if law.p_all and rng.random() < float(law.p_all):
        return frozenset(instance.agents)
    return frozenset(a for a in instance.agents if rng.random() < float(law.p_in))


@pytest.mark.parametrize("inst", fixtures() + mc_instances(), ids=lambda inst: inst.name)
@pytest.mark.parametrize("mech", ["rand-single", "rand-matroid"])
def test_bitmask_draws_are_the_sets_of_the_reference(inst, mech):
    spec, law = MechanismSpec(mech), MECHANISMS[mech].admission
    for seed in range(3):
        drawn, viewed, ref = random.Random(seed), random.Random(seed), random.Random(seed)
        for _ in range(200):
            z = _draw_admitted(inst, law, drawn)
            view = sample_realization(inst, spec, viewed)
            assert z == inst.mask(view) == inst.mask(reference_realization(inst, law, ref))
            assert view == inst.members(z)
        # every stream made the same number of calls
        assert drawn.random() == viewed.random() == ref.random()


def test_a_deterministic_mechanism_draws_nothing():
    inst, rng = load_fixture("tiny1"), random.Random(4)
    assert _draw_admitted(inst, None, rng) is None
    assert sample_realization(inst, MechanismSpec("lookahead"), rng) is None
    assert rng.random() == random.Random(4).random()


# ----------------------------------------------------------------------
# draws as floats


def reference_monte_carlo(inst, spec, trials, seed):
    """(mean, standard error) of the draws, each ``float(Fraction(x, L))``
    of the core's revenue x at the drawn profile and reference admission."""
    rng, mech = random.Random(seed), MECHANISMS[spec.mech_id]
    support = inst.dist.numbered_support()
    mech.check(inst, spec)
    draws, prices = [], {}
    for _ in range(trials):
        k = support[inst.dist.draw(rng)][1]
        z = None if mech.admission is None else inst.mask(
            reference_realization(inst, mech.admission, rng))
        draws.append(float(Fraction(_revenue(*_core(inst, spec, k, z, prices)),
                                    inst.value_scale)))
    mean = sum(draws) / trials
    var = sum((x - mean) ** 2 for x in draws) / max(trials - 1, 1)
    return mean, math.sqrt(var / trials)


@pytest.mark.parametrize("inst", fixtures() + mc_instances()[:1], ids=lambda inst: inst.name)
def test_monte_carlo_draws_are_bit_equal_to_fraction_floats(inst):
    specs = [MechanismSpec(m) for m in ("gvcg", "lookahead", "rand-single", "rand-matroid")]
    specs += [MechanismSpec("vcg-eager", reserve_source="monopoly"), fractional_fixed(inst)]
    ran = 0
    for spec in specs:
        try:
            reference = reference_monte_carlo(inst, spec, 150, 11)
        except (WrongVariantError, mechanisms.AssumptionError):
            continue
        est = expected_revenue(inst, spec, "monte_carlo", trials=150, seed=11)
        assert (est.value, est.std_error) == reference, spec
        assert type(est.value) is float
        ran += 1
    assert ran >= 2


# ----------------------------------------------------------------------
# prior-marginal masses


def reference_marginal(inst, i):
    """(own grid index, p·D) from the exact prior marginal."""
    agent, scale = inst.agents[i], inst.dist.mass_scale
    axis = inst.grid.axis(agent)
    return [(axis.index(t), int(p * scale)) for t, p in inst.dist.marginal(agent)]


def off_support():
    """Agent 2's grid value 2 has no mass, so agent 1's quotes at the
    profiles (s1, 2) fall back to its prior marginal."""
    grid = SignalGrid(agents=(1, 2), values={1: (1, 2), 2: (1, 2)})
    half = Fraction(1, 2)
    return Instance(grid=grid, vp=private(grid.agents), feas=FeasibilitySystem.uniform(1, [1, 2]),
                    dist=JointDistribution(grid, form="table",
                                           table=[((1, 1), half), ((2, 1), half)]))


@pytest.mark.parametrize("inst", fixtures() + mc_instances() + [off_support()],
                         ids=lambda inst: inst.name or "off-support")
def test_marginal_masses_are_the_scaled_prior(inst):
    for i in range(len(inst.agents)):
        masses = inst._marginal(i)
        assert masses == reference_marginal(inst, i)
        assert all(type(p) is int for _, p in masses)
        assert sum(p for _, p in masses) == inst.dist.mass_scale
    assert len(inst._marginals) == len(inst.agents)
    inst.release_tables()
    assert inst._marginals == {}


def test_the_quote_path_reads_no_fraction_marginal(monkeypatch):
    """Audits over the whole grid quote at off-support columns, so the
    prior-marginal fallback runs; it must not call ``dist.marginal``."""
    def refuse(self, agent):
        raise AssertionError("dist.marginal called on the quote path")

    instances = fixtures() + [off_support()]
    monkeypatch.setattr(JointDistribution, "marginal", refuse)
    fallbacks = 0
    for inst in instances:
        for spec in (MechanismSpec("lookahead"), MechanismSpec("gvcg-lazy", "monopoly")):
            try:
                ic_ir_audit(inst, spec)
                expected_revenue(inst, spec)
            except (WrongVariantError, mechanisms.AssumptionError):
                continue
        fallbacks += inst.release_tables()["fallbacks_over_distinct_quotes"]["prior-marginal"]
    assert fallbacks > 0
