"""The walk on the int value table against a reference built from public
outcomes only.

The walk keeps values, thresholds, reserves and payments as ints scaled by
L, the lcm of the value denominators, audits only the admitted agents of a
realization and divides by L once at its outputs.  The reference here runs
``run_realized`` at every grid profile, reads values through
``Instance.value`` and audits every agent, in instance units throughout.
"""
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from auctionlab import mechanisms, valuations
from auctionlab.instances import corpus_names, load_fixture
from auctionlab.mechanisms import (
    AuditViolation,
    Instance,
    MechanismSpec,
    WrongVariantError,
    realizations,
    run_realized,
    walk,
)
from auctionlab.runner import ExperimentSpec, run, write_report
from auctionlab.valuations import table

from test_oracle_differential import instances
from test_outcome_walk import result, specs


def reference(inst, spec):
    """(exact revenue, violation list) in the walk's order: realizations,
    then support profiles, then agents, IR before the own-grid deviations."""
    grid, agents = inst.grid, inst.agents
    revenue, violations = Fraction(0), []
    for realization, weight in realizations(inst, spec):
        out = {s: run_realized(inst, spec, s, realization) for s in grid.profiles()}
        for s, p in inst.dist.enumerate_support():
            revenue += p * weight * out[s].revenue
            for k, a in enumerate(agents):
                v = inst.value(a, s)

                def utility(o):
                    return v * o.alloc[a] - o.payment[a]

                u = utility(out[s])
                if u < 0:
                    violations.append(AuditViolation("ir", realization, s, a, None, -u))
                for t in grid.axis(a):
                    gain = utility(out[s[:k] + (t,) + s[k + 1:]]) - u
                    if t != s[k] and gain > 0:
                        violations.append(AuditViolation("ic", realization, s, a, t, gain))
    return revenue, violations


def walked(inst, spec):
    found = walk(inst, spec)
    assert type(found.revenue.value) is Fraction
    assert all(type(v.gap) is Fraction for v in found.violations)
    return found.revenue.value, found.violations


def fractional_fixed(inst):
    """Reserves (3i + 1)/3: not integers after scaling by an L that 3 does
    not divide."""
    return MechanismSpec("gvcg-lazy", reserve_source="fixed:" + ",".join(
        f"{3 * i + 1}/3" for i in range(len(inst.agents))))


def check_walk(inst):
    """Every spec's walk equals the reference, or both refuse alike; returns
    how many specs ran."""
    ran = 0
    for spec in specs(inst) + [fractional_fixed(inst)]:
        found = result(lambda: walked(inst, spec))
        assert found == result(lambda: reference(inst, spec)), spec
        ran += isinstance(found[0], Fraction)
    return ran


@pytest.mark.parametrize("name", corpus_names())
def test_fixture_walk_matches_the_public_reference(name):
    assert check_walk(load_fixture(name)) > 0


def test_fractional_reserves_stay_fractions_in_table_units():
    inst = load_fixture("gap3")
    assert inst.value_scale == 10
    spec = fractional_fixed(inst)
    r = mechanisms._reserves(inst, 0, inst.everyone, spec.reserve_source, inst.everyone,
                             "winner_conditioned")
    assert list(r.values()) == [Fraction(10, 3), Fraction(40, 3)]


@pytest.mark.parametrize("name", corpus_names())
def test_agents_outside_the_admitted_set_are_never_served_and_pay_nothing(name):
    """The premise of auditing admitted agents only."""
    inst = load_fixture(name)
    checked = 0
    for mech in ("rand-single", "rand-matroid"):
        for mode in ("winner_conditioned", "unconditioned"):
            spec = MechanismSpec(mech, event_mode=mode)
            for realization, _ in realizations(inst, spec):
                z = inst.mask(realization)
                for k in range(math.prod(inst.grid.sizes)):
                    try:
                        served, pay = mechanisms._core(inst, spec, k, z)
                    except WrongVariantError:
                        continue
                    assert served & ~z == 0, (spec, realization, k)
                    assert all(pay[i] == 0 for i in range(len(inst.agents))
                               if not z >> i & 1), (spec, realization, k)
                    checked += 1
    assert checked > 0 or not inst.feas.is_matroid


@st.composite
def fractional_tables(draw):
    """A grid, distribution and feasibility system of the oracle's strategy
    with table values v_i(s) = a_i(s_i) + c(s): a_i rises strictly in the own
    signal and c, shared by every agent, does not fall in any signal, so the
    values are monotone and single-crossing.  Every step has a denominator
    of at most 12."""
    inst = draw(instances())
    agents, grid = inst.agents, inst.grid

    def step(low):
        return Fraction(draw(st.integers(low, 24)), draw(st.integers(1, 12)))

    own = {a: {} for a in agents}
    for a in agents:
        level = Fraction(0)
        for t in grid.axis(a):
            level = own[a][t] = level + step(1)
    common = {}
    for s in grid.profiles():
        below = [common[s[:j] + (grid.axis(b)[grid.axis(b).index(s[j]) - 1],) + s[j + 1:]]
                 for j, b in enumerate(agents) if s[j] != grid.axis(b)[0]]
        common[s] = max(below, default=Fraction(0)) + step(0)
    values = {a: {s: own[a][s[k]] + common[s] for s in grid.profiles()}
              for k, a in enumerate(agents)}
    return Instance(grid=grid, dist=inst.dist, vp=table(agents, values), feas=inst.feas)


@settings(max_examples=40, deadline=None)
@given(fractional_tables())
def test_fractional_table_walk_matches_the_public_reference(inst):
    report = inst.assumption_report()
    assert not report["monotonicity"] and not report["single_crossing"]
    assert check_walk(inst) > 0


@pytest.mark.parametrize("name", ["tiny1", "gap3", "weighted-sum"])
def test_the_sidecar_records_each_value_scale(tmp_path, name):
    inst = load_fixture(name)
    scale = math.lcm(*(Fraction(v).denominator
                       for row in valuations.grid_values(inst.vp, inst.grid) for v in row))
    report = run(ExperimentSpec(mechanisms=["lookahead"], instances=[inst]))
    write_report(report, tmp_path / "out.csv")
    (held,) = json.loads((tmp_path / "out.csv.meta.json").read_text())["tables"]
    assert held["value_scale"] == scale == inst.value_scale
    assert scale == {"tiny1": 1, "gap3": 10, "weighted-sum": 2}[name]


@pytest.mark.parametrize("name", ["tiny1", "gap3", "weighted-sum"])
def test_the_sidecar_records_each_mass_scale(tmp_path, name):
    inst = load_fixture(name)
    scale = math.lcm(*(Fraction(p).denominator for _, p in inst.dist.enumerate_support()))
    report = run(ExperimentSpec(mechanisms=["lookahead"], instances=[inst]))
    write_report(report, tmp_path / "out.csv")
    (held,) = json.loads((tmp_path / "out.csv.meta.json").read_text())["tables"]
    assert held["mass_scale"] == scale == inst.dist.mass_scale
    assert scale == {"tiny1": 4, "gap3": 8, "weighted-sum": 32}[name]
