"""One value table per instance, read by profile number, and the errors for
profiles and agent sets the instance does not have."""
import math
from fractions import Fraction

import pytest

from auctionlab import oracle, valuations
from auctionlab.distributions import DistributionError, JointDistribution, SignalGrid
from auctionlab.instances import corpus_names, load_fixture
from auctionlab.matroid import FeasibilitySystem
from auctionlab.mechanisms import (
    AssumptionError,
    Instance,
    MechanismError,
    MechanismSpec,
    resolve_reserves,
    run_realized,
    winner_set,
)
from auctionlab.runner import ExperimentSpec, run


@pytest.mark.parametrize("name", corpus_names())
def test_grid_values_are_the_values_by_profile_number(name):
    inst = load_fixture(name)
    table = valuations.grid_values(inst.vp, inst.grid)
    profiles = list(inst.grid.profiles())
    assert len(table) == len(profiles)
    for s in profiles:
        k = inst.grid.number(s)
        assert table[k] == tuple(valuations.value(inst.vp, a, s) for a in inst.agents)


def test_values_are_evaluated_once_per_run(monkeypatch):
    calls = []
    evaluate = valuations.value

    def counted(vp, agent, s):
        calls.append((agent, s))
        return evaluate(vp, agent, s)

    # the oracle module holds its own name for the function
    monkeypatch.setattr(valuations, "value", counted)
    monkeypatch.setattr(oracle, "value", counted)
    inst = load_fixture("partition")
    report = run(ExperimentSpec(mechanisms=["lookahead", "rand-matroid"], instances=[inst]))
    assert report.ok
    assert report.metadata["oracle"][0]["certified"] is True
    assert "upper_bound_s" in report.metadata["oracle"][0]
    assert all(r.audit_status == "pass" for r in report.rows)
    assert len(calls) == len(inst.agents) * math.prod(inst.grid.sizes)


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_a_value_that_is_not_finite_is_refused_at_construction(bad):
    """Only the Python API can give one: every number of a file is a Fraction."""
    grid = SignalGrid(agents=(1,), values={1: (1, 2)})
    half = Fraction(1, 2)
    dist = JointDistribution(grid, form="product", marginals={1: [(1, half), (2, half)]})
    vp = valuations.table((1,), {1: {(1,): 1, (2,): bad}})
    with pytest.raises(AssumptionError, match="^odd: a value is not finite$"):
        Instance(grid=grid, dist=dist, vp=vp, feas=FeasibilitySystem.uniform(1, [1]), name="odd")


def test_a_profile_of_the_wrong_length_or_off_the_grid_is_refused():
    inst = load_fixture("tiny1")
    grid = inst.grid
    for profile in ((2,), (1, 2, 9), ()):
        with pytest.raises(DistributionError, match="signals for 2 agents"):
            grid.number(profile)
    with pytest.raises(DistributionError, match="signals for 2 agents"):
        run_realized(inst, MechanismSpec("gvcg"), (2,), None)
    with pytest.raises(DistributionError, match="off the grid"):
        grid.number((1, 3))
    assert grid.number((1, 2)) == 1


def test_an_agent_outside_the_instance_is_refused():
    inst = load_fixture("tiny1")
    with pytest.raises(MechanismError, match=r"\['99'\] are not in the instance"):
        winner_set(inst, (2, 2), {1, 99})
    with pytest.raises(MechanismError, match="not in the instance"):
        resolve_reserves(inst, (2, 2), [1, 99], "none")
    assert winner_set(inst, (2, 2), {1}) == {1}
    assert resolve_reserves(inst, (2, 2), [1, 1], "none") == {1: 0}
    assert inst.mask(inst.agents) == inst.everyone == 0b11
