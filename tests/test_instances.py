from fractions import Fraction

import pytest

from auctionlab.instances import (
    InstanceFormatError,
    corpus_names,
    fixture_dir,
    load_fixture,
    load_instance,
    loads,
    save_instance,
    to_dict,
)
from auctionlab.mechanisms import (
    AssumptionError,
    Instance,
    MechanismError,
    MechanismSpec,
    expected_revenue,
    gvcg,
)
from auctionlab.valuations import value

F = Fraction

TINY1_TEXT = """
agents: [1, 2]
grid: {1: [1, 2], 2: [1, 2]}
distribution:
  form: product
  marginals:
    1: [[1, 1/2], [2, 1/2]]
    2: [[1, 1/2], [2, 1/2]]
valuation: {family: private}
feasibility: {kind: uniform, k: 1}
"""


def test_loads_tiny1():
    inst = loads(TINY1_TEXT, name="tiny1")
    assert inst.agents == (1, 2)
    assert inst.dist.probability((1, 2)) == F(1, 4)
    assert not inst.assumption_report()["single_crossing"]
    assert expected_revenue(inst, MechanismSpec("lookahead")).value == F(3, 2)


def test_fixture_tiny1_matches_inline():
    inst = load_fixture("tiny1")
    assert inst.name == "tiny1"
    assert expected_revenue(inst, MechanismSpec("lookahead")).value == F(3, 2)


def test_fixture_gap3():
    inst = load_fixture("gap3")
    assert inst.grid.axis(1) == (1, 2, 4, 8)
    assert value(inst.vp, 2, (4, 0)) == F(39, 10)
    report = inst.assumption_report()
    assert not report["single_crossing"] and not report["cross_responsiveness"]


def test_fixture_corpus_all_load():
    names = corpus_names()
    assert {"tiny1", "nonmat1", "indep-regular", "weighted-sum", "partition"} <= set(names)
    assert sum(1 for n in names if n.startswith("gap")) == 8
    for n in names:
        inst = load_fixture(n)
        assert abs(float(inst.dist.total_mass()) - 1) < 1e-9


def test_normalisation_error():
    bad = TINY1_TEXT.replace("[[1, 1/2], [2, 1/2]]", "[[1, 0.49], [2, 1/2]]", 1)
    with pytest.raises(InstanceFormatError, match="sum"):
        loads(bad)


def test_off_grid_support_error():
    text = """
agents: [1]
grid: {1: [1, 2]}
distribution: {form: table, entries: [[[3], 1]]}
valuation: {family: private}
feasibility: {kind: uniform, k: 1}
"""
    with pytest.raises(InstanceFormatError, match="off the grid"):
        loads(text)


def test_missing_field_messages():
    with pytest.raises(InstanceFormatError, match="grid"):
        loads("{agents: [1], distribution: {form: product}, valuation: {family: private}, feasibility: {kind: uniform, k: 1}}")
    with pytest.raises(InstanceFormatError, match="beta"):
        loads(TINY1_TEXT.replace("{family: private}", "{family: weighted_sum}"))


def test_monotonicity_enforced_at_load():
    text = """
agents: [1]
grid: {1: [1, 2]}
distribution: {form: product, marginals: {1: [[1, 1/2], [2, 1/2]]}}
valuation: {family: table, values: {1: [[[1], 5], [[2], 5]]}}
feasibility: {kind: uniform, k: 1}
"""
    with pytest.raises(AssumptionError, match="monotonicity"):
        loads(text)


def test_tie_break_must_list_every_agent_once():
    inst = loads(TINY1_TEXT + "tie_break: [2, 1]\n")
    assert gvcg(inst, (F(2), F(2))).tentative == {2}
    for order in ([2, 1, 2], [1, 2, 99], [1]):
        with pytest.raises(InstanceFormatError, match="every agent exactly once"):
            loads(TINY1_TEXT + f"tie_break: {order}\n")
        with pytest.raises(MechanismError, match="every agent exactly once"):
            Instance(grid=inst.grid, dist=inst.dist, vp=inst.vp, feas=inst.feas,
                     tie_break=order)


def test_arithmetic_is_rational_or_absent():
    rational = loads(TINY1_TEXT.replace("form: product", "form: product\n  arithmetic: rational"))
    assert to_dict(rational) == to_dict(loads(TINY1_TEXT))
    assert isinstance(rational.dist.probability((1, 1)), Fraction)
    for mode in ("double", "float", None):
        text = TINY1_TEXT.replace("form: product", f"form: product\n  arithmetic: {mode}")
        with pytest.raises(InstanceFormatError, match="arithmetic"):
            loads(text)


def test_round_trip(tmp_path):
    inst = load_fixture("partition")
    path = tmp_path / "copy.yaml"
    save_instance(inst, path)
    back = load_instance(path)
    assert to_dict(back) == to_dict(inst)


def test_env_var_fixture_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("AUCTIONLAB_FIXTURES", str(tmp_path))
    assert fixture_dir() == tmp_path
    inst = loads(TINY1_TEXT, name="alt")
    save_instance(inst, tmp_path / "alt.yaml")
    assert corpus_names() == ["alt"]
    assert load_fixture("alt").agents == (1, 2)
