"""How long the per-instance evaluation tables live and how large they get."""
import copy
import logging
import math
from fractions import Fraction

import pytest

from auctionlab.distributions import JointDistribution, SignalGrid
from auctionlab.generators import GENERATORS, generate_instances
from auctionlab.instances import corpus_names, load_fixture
from auctionlab.matroid import FeasibilitySystem
from auctionlab.mechanisms import (
    Instance,
    MechanismError,
    MechanismSpec,
    expected_revenue,
    ic_ir_audit,
)
from auctionlab.runner import ExperimentSpec, run
from auctionlab.valuations import private

from test_mechanism_tables import SPECS

EMPTY = {"values": 0, "winner_sets": 0, "thresholds": 0, "quotes": 0}


def revenue_and_audit(inst):
    for spec in SPECS:
        try:
            ic_ir_audit(inst, spec)
            expected_revenue(inst, spec)
        except MechanismError:
            pass


def no_winner_mass():
    """Given s2 = 2 agent 1 has signal 1, below its threshold 2, so agent 1's
    winner event has no conditional mass there."""
    grid = SignalGrid(agents=(1, 2), values={1: (1, 2), 2: (1, 2)})
    half = Fraction(1, 2)
    dist = JointDistribution(grid, form="table", table=[((1, 2), half), ((2, 1), half)])
    return Instance(grid=grid, dist=dist, vp=private((1, 2)),
                    feas=FeasibilitySystem.uniform(1, [1, 2]))


def test_runner_releases_each_instance_when_its_rows_are_done():
    a, b = load_fixture("partition"), load_fixture("tiny1")
    report = run(ExperimentSpec(mechanisms=["lookahead", "rand-matroid"], instances=[a, b]))
    assert a.table_sizes() == EMPTY and b.table_sizes() == EMPTY
    held = report.metadata["tables"]
    assert [t["instance"] for t in held] == ["partition", "tiny1"]
    for t in held:
        assert all(n > 0 for n in t["entries"].values())


def test_release_drops_the_restricted_systems():
    inst = load_fixture("partition")
    expected_revenue(inst, MechanismSpec("rand-matroid"))
    assert inst._restrictions
    assert set(inst.release_tables()["entries"]) == set(EMPTY)
    assert inst._restrictions == {}


def test_loading_leaves_the_tables_empty():
    for name in corpus_names():
        inst = load_fixture(name)
        assert inst.table_sizes() == EMPTY
        assert copy.deepcopy(inst).table_sizes() == EMPTY
    for name in GENERATORS:
        for inst in generate_instances(name, {"n": 2, "count": 2}, seed=3):
            assert inst.table_sizes() == EMPTY


@pytest.mark.parametrize("name", corpus_names())
def test_tables_are_bounded_by_the_grid(name):
    inst = load_fixture(name)
    revenue_and_audit(inst)
    sizes = inst.table_sizes()
    revenue_and_audit(inst)
    assert inst.table_sizes() == sizes
    n = len(inst.agents)
    grid = math.prod(len(inst.grid.axis(a)) for a in inst.agents)
    assert 0 < sizes["values"] <= n * grid
    assert 0 < sizes["winner_sets"] <= grid * 2 ** n
    assert 0 < sizes["thresholds"] <= n * grid * 2 ** n
    held = inst.release_tables()
    assert held["entries"] == sizes and inst.table_sizes() == EMPTY


def test_monopoly_reserves_are_one_quote_per_agent():
    inst = load_fixture("indep-regular")
    for spec in (MechanismSpec("gvcg-lazy", reserve_source="monopoly"),
                 MechanismSpec("vcg-eager", reserve_source="monopoly")):
        expected_revenue(inst, spec)
        assert inst.table_sizes()["quotes"] == len(inst.agents)


def test_fallbacks_are_logged_and_counted_once_per_distinct_quote(caplog):
    inst = no_winner_mass()
    with caplog.at_level(logging.DEBUG, logger="auctionlab.mechanisms"):
        for _ in range(3):
            ic_ir_audit(inst, MechanismSpec("lookahead"))
    logged = [r for r in caplog.records if "no conditional mass" in r.getMessage()]
    report = run(ExperimentSpec(mechanisms=["lookahead"], instances=[inst],
                                compute_oracle=False, compute_upper_bound=False))
    counted = report.metadata["tables"][0]["fallbacks_over_distinct_quotes"]
    assert len(logged) == counted["unconditioned"] >= 1
    assert counted["prior-marginal"] == 0
