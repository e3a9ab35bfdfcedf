"""The per-instance evaluation tables change no outcome.

An instance that has evaluated everything before (warm) must give the same
outcome as a copy whose tables are emptied before every call (cold).  The
warm side runs each mechanism's realizations in reverse order, so a table
key that leaves out the active set or the event mode returns an entry made
for another realization and shows up as a difference.
"""
import copy

import pytest
from hypothesis import given, settings

from auctionlab.distributions import DistributionError
from auctionlab.instances import corpus_names, load_fixture
from auctionlab.mechanisms import (
    MechanismError,
    MechanismSpec,
    conditional_monopoly_reserve,
    realizations,
    run_realized,
)
from test_oracle_differential import instances

SPECS = (
    MechanismSpec("gvcg"),
    MechanismSpec("lookahead"),
    MechanismSpec("gvcg-lazy", reserve_source="conditional"),
    MechanismSpec("gvcg-lazy", reserve_source="monopoly"),
    MechanismSpec("vcg-eager", reserve_source="monopoly"),
    MechanismSpec("rand-single"),
    MechanismSpec("rand-single", event_mode="unconditioned"),
    MechanismSpec("rand-matroid"),
    MechanismSpec("rand-matroid", event_mode="unconditioned"),
)


def drop_tables(inst):
    """Empty every private dict the instance keeps, whatever its name, but
    the cached assumption report, which is a check and not a table."""
    for name, attr in vars(inst).items():
        if name.startswith("_") and name != "_checks" and isinstance(attr, dict):
            attr.clear()


def outcome(fn):
    """The call's result, or the type and text of the error it raised: an
    inapplicable mechanism, or a reserve quote on valuations that are not
    monotone, must fail alike on both sides."""
    try:
        return fn()
    except (MechanismError, DistributionError) as exc:
        return type(exc).__name__, str(exc)


def check_warm_equals_cold(inst):
    warm, cold = inst, copy.deepcopy(inst)
    profiles = list(inst.grid.profiles())
    for spec in SPECS:
        for realization, _ in reversed(list(realizations(inst, spec))):
            for s in profiles:
                hot = outcome(lambda: run_realized(warm, spec, s, realization))
                drop_tables(cold)
                assert hot == outcome(lambda: run_realized(cold, spec, s, realization)), \
                    (spec, realization, s)
    for s in profiles:
        for a in inst.agents:
            for mode in ("winner_conditioned", "unconditioned"):
                hot = outcome(lambda: conditional_monopoly_reserve(warm, a, s, event_mode=mode))
                drop_tables(cold)
                assert hot == outcome(
                    lambda: conditional_monopoly_reserve(cold, a, s, event_mode=mode)), \
                    (s, a, mode)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_warm_tables_give_the_outcomes_of_cold_ones(inst):
    check_warm_equals_cold(inst)


@pytest.mark.parametrize("name", corpus_names())
def test_fixture_warm_tables_give_the_outcomes_of_cold_ones(name):
    check_warm_equals_cold(load_fixture(name))
