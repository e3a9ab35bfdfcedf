"""Reserve quotes priced from the joint table's column masses.

Double mode must quote the same posted price with the same fallback as
rational mode on every fixture, and the distribution's column index is keyed
by ints only.
"""
from fractions import Fraction

import pytest

from auctionlab.instances import corpus_names, load_fixture
from auctionlab.mechanisms import DOUBLE_TOLERANCE, conditional_monopoly_reserve

from test_table_lifetime import revenue_and_audit


@pytest.mark.parametrize("name", corpus_names())
def test_double_quotes_match_rational_quotes(name):
    exact, double = load_fixture(name), load_fixture(name, arithmetic="double")
    for s, s_double in zip(exact.grid.profiles(), double.grid.profiles()):
        for a in exact.agents:
            for mode in ("winner_conditioned", "unconditioned"):
                q = conditional_monopoly_reserve(exact, a, s, event_mode=mode)
                d = conditional_monopoly_reserve(double, a, s_double, event_mode=mode)
                assert (float(q.price), q.fallback) == (d.price, d.fallback), (s, a, mode)
                assert abs(float(q.expected_revenue) - d.expected_revenue) <= DOUBLE_TOLERANCE


@pytest.mark.parametrize("name", corpus_names())
def test_column_index_is_keyed_by_ints(name):
    inst = load_fixture(name)
    revenue_and_audit(inst)
    assert inst.dist._column_index
    for i, columns in inst.dist._column_index.items():
        assert type(i) is int
        for col, pairs in columns.items():
            assert type(col) is int
            assert all(type(j) is int and isinstance(p, Fraction) for j, p in pairs)
