"""The int auction core against the public outcomes, and the one walk that
builds each outcome once for the audit and the exact revenue."""
from collections import Counter
from fractions import Fraction

import pytest

from auctionlab import mechanisms, runner
from auctionlab.distributions import DistributionError
from auctionlab.instances import corpus_names, load_fixture
from auctionlab.mechanisms import (
    MechanismError,
    MechanismSpec,
    SizeError,
    expected_revenue,
    ic_ir_audit,
    realizations,
    run_realized,
    walk,
)


def half_the_others(agent, view):
    """A legal reserve callback: half the sum of the other agents' signals."""
    return Fraction(sum((x for _, x in view.items()), 0)) / 2


def specs(inst):
    fixed = "fixed:" + ",".join(str(i + 1) for i in range(len(inst.agents)))
    sources = ("none", "conditional", "monopoly", fixed, half_the_others, "unsafe-own-value")
    out = [MechanismSpec("gvcg"), MechanismSpec("lookahead")]
    out += [MechanismSpec("gvcg-lazy", reserve_source=r) for r in sources]
    out += [MechanismSpec("vcg-eager", reserve_source=r) for r in sources]
    out += [MechanismSpec(m, event_mode=e) for m in ("rand-single", "rand-matroid")
            for e in ("winner_conditioned", "unconditioned")]
    return out


def result(fn):
    """The call's result, or the type and text of the error it raised: a
    mechanism outside its scope must be refused alike on both paths."""
    try:
        return fn()
    except (MechanismError, DistributionError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", corpus_names())
def test_core_matches_public_outcomes(name):
    inst = load_fixture(name)
    grid = inst.grid
    checked = 0
    for spec in specs(inst):
        prices = {}
        for realization, _ in realizations(inst, spec):
            z = None if realization is None else inst.mask(realization)
            for k in range(len(list(grid.profiles()))):
                # the core's payments are in the value table's units, L
                # times the public ones
                def public():
                    out = run_realized(inst, spec, grid.profile_at(k), realization)
                    return inst.mask(out.served), [inst.value_scale * out.payment[a]
                                                   for a in inst.agents]
                core = result(lambda: checked_core(inst, spec, k, z, prices))
                assert core == result(public), (spec, realization, k)
                checked += isinstance(core[0], int)
    assert checked > 0


def checked_core(inst, spec, k, z, prices):
    """The core's outcome after the mechanism's check, as a walk runs them."""
    mechanisms.MECHANISMS[spec.mech_id].check(inst, spec)
    return mechanisms._core(inst, spec, k, z, prices)


def counting_core(monkeypatch):
    built = Counter()
    core = mechanisms._core

    def counted(instance, spec, k, z, prices):
        built[z, k] += 1
        return core(instance, spec, k, z, prices)

    monkeypatch.setattr(mechanisms, "_core", counted)
    return built


@pytest.mark.parametrize("name, mech", [("partition", "rand-matroid"),
                                        ("tiny1", "lookahead"),
                                        ("gap2", "rand-single")])
def test_a_row_builds_each_outcome_once(monkeypatch, name, mech):
    inst = load_fixture(name)
    spec = MechanismSpec(mech)
    revenue, violations = expected_revenue(inst, spec).value, ic_ir_audit(inst, spec)
    built = counting_core(monkeypatch)
    report = runner.run(runner.ExperimentSpec(mechanisms=[mech], instances=[inst],
                                              compute_oracle=False,
                                              compute_upper_bound=False))
    masks = [None if z is None else inst.mask(z) for z, _ in realizations(inst, spec)]
    grid_size = len(list(inst.grid.profiles()))
    assert built == Counter({(z, k): 1 for z in masks for k in range(grid_size)})
    (row,) = report.rows
    assert (row.revenue, row.violations, row.audit_status) == (revenue, len(violations), "pass")
    assert row.outcomes == len(masks) * grid_size
    assert report.metadata["outcomes"] == {f"{name}/{mech}": row.outcomes}


def test_revenue_without_audit_builds_the_support_only(monkeypatch):
    inst = load_fixture("gap2")
    built = counting_core(monkeypatch)
    found = walk(inst, MechanismSpec("rand-single"), audit=False)
    support = {inst.grid.number(s) for s in inst.dist.support_profiles()}
    assert found.violations is None
    assert {k for _, k in built} == support
    assert found.outcomes == sum(built.values()) == found.revenue.atoms


def test_atom_cap_is_checked_before_any_outcome_is_built(monkeypatch):
    inst = load_fixture("gap2")
    built = counting_core(monkeypatch)
    with pytest.raises(SizeError):
        walk(inst, MechanismSpec("rand-single"), atom_cap=3)
    assert not built
