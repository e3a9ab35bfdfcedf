"""Reserve quotes priced from the joint table's column masses: the
distribution's column index is keyed by ints only.
"""
from fractions import Fraction

import pytest

from auctionlab.instances import corpus_names, load_fixture

from test_table_lifetime import revenue_and_audit


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
