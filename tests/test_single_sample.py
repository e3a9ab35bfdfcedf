"""Single-sample reserves inside the outcome walk, against a reference built
from the tuple front end (gvcg outcomes, values_at and the conditional value
distribution), plus the walk's limits on such a spec."""
from fractions import Fraction

import pytest

from auctionlab.generators import generate_instances
from auctionlab.instances import corpus_names, fixture_path, load_fixture
from auctionlab.mechanisms import (
    MechanismError,
    MechanismSpec,
    SizeError,
    conditional_value_distribution,
    expected_revenue,
    ic_ir_audit,
    run_realized,
    walk,
)
from auctionlab.runner import ExperimentSpec, run

F = Fraction
SAMPLED = MechanismSpec("gvcg-lazy", reserve_source="single-sample")


def reference_revenue(instance):
    """Per support profile: each generalized-VCG winner is served at the
    higher of its threshold value and a reserve drawn from its value
    distribution given the others' signals, when its value reaches it."""
    total = F(0)
    for s, p in instance.dist.enumerate_support():
        base = run_realized(instance, MechanismSpec("gvcg"), s, None)
        vals = instance.values_at(s)
        for a in base.tentative:
            for rho, q in conditional_value_distribution(instance, a, s):
                price = max(rho, base.threshold_value[a])
                if vals[a] >= price:
                    total += p * q * price
    return total


def regular_family():
    out = []
    for seed, (n, grid) in enumerate(((1, 3), (2, 2), (2, 3), (3, 2)), start=410):
        out.extend(generate_instances("regular-marginals",
                                      {"n": n, "grid": grid, "count": 4}, seed=seed))
    return out


@pytest.mark.parametrize("instance", [load_fixture(n) for n in corpus_names()]
                         + regular_family(), ids=lambda inst: inst.name)
def test_walk_matches_the_front_end_reference(instance):
    est = expected_revenue(instance, SAMPLED)
    assert isinstance(est.value, Fraction)
    assert est.value == reference_revenue(instance)
    assert est.atoms == len(instance.dist.support_profiles())


def test_the_walk_does_not_audit_single_sample():
    inst = load_fixture("tiny1")
    found = walk(inst, SAMPLED)
    assert found.violations is None
    assert found.revenue.value == F(3, 2)
    assert found.outcomes == found.revenue.atoms == 4
    with pytest.raises(MechanismError, match="no per-run outcome to audit"):
        ic_ir_audit(inst, SAMPLED)


def test_single_sample_obeys_the_atom_cap():
    inst = load_fixture("tiny1")
    assert expected_revenue(inst, SAMPLED, atom_cap=4).atoms == 4
    with pytest.raises(SizeError, match="4 atoms"):
        expected_revenue(inst, SAMPLED, atom_cap=3)


def test_single_sample_needs_exact_mode():
    with pytest.raises(MechanismError, match="run in exact mode"):
        expected_revenue(load_fixture("tiny1"), SAMPLED, "monte_carlo", trials=10)


def test_runner_refuses_eager_single_sample():
    spec = ExperimentSpec(
        mechanisms=[MechanismSpec("vcg-eager", reserve_source="single-sample")],
        paths=[fixture_path("indep-regular")])
    with pytest.raises(MechanismError, match="lazy auction only"):
        run(spec)


def test_monte_carlo_ratio_is_a_float_division():
    spec = ExperimentSpec(mechanisms=["lookahead"], paths=[fixture_path("indep-regular")],
                          mode="monte_carlo", trials=200, seed=3, audit=False)
    row = run(spec).rows[0]
    assert isinstance(row.revenue, float) and isinstance(row.oracle, Fraction)
    assert isinstance(row.ratio, float)
    assert row.ratio == float(row.revenue) / float(row.oracle)
