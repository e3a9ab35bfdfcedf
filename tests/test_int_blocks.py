"""The oracle in table units, block by block, certified once.

``solve_lp`` scans the inactive monotonicity rows every round and checks the
full LP's certificate once, when the scan finds none.  Each restricted LP is
solved block by block, one block per connected component of its active rows
over the support profiles they touch.
"""
from auctionlab import oracle
from auctionlab.generators import generate_instances
from auctionlab.oracle import build_revenue_lp, opt_revenue, solve_lp, verify_witness
from auctionlab.simplex import _solve_rational

from test_row_generation import planted


def two_blocks():
    """The smallest generated instance found whose restricted LP has two
    blocks: 18 LP variables."""
    inst = generate_instances("correlated-private",
                              {"n": 2, "grid": 4, "kind": "1-uniform", "count": 3}, seed=104)[2]
    assert inst.name == "correlated-private-s104-2"
    return inst


def test_one_full_certificate_per_solve(monkeypatch):
    calls = []

    def spy(lp, x, y):
        calls.append(lp)
        return real(lp, x, y)

    real = oracle.verify_certificate
    monkeypatch.setattr(oracle, "verify_certificate", spy)
    rlp = build_revenue_lp(planted())
    res = solve_lp(rlp)
    assert res.rounds >= 2 and len(calls) == 1
    assert (calls[0].n_vars, len(calls[0].rows)) == (rlp.stats.variables, rlp.stats.rows)


def test_planted_instance_takes_one_restricted_round():
    res = opt_revenue(planted())
    assert (res.solution.rounds, res.solution.pivots, res.solution.blocks) == (2, 4, 1)
    assert str(res.value) == "283/26"


def test_block_solve_equals_the_rational_full_solve():
    inst = two_blocks()
    rlp = build_revenue_lp(inst)
    res = opt_revenue(inst)
    assert res.stats.variables == 18
    assert res.solution.blocks == 2 and res.solution.rounds == 2
    assert res.solution.certified
    assert res.value == _solve_rational(rlp.lp).objective
    assert verify_witness(inst, res.witness) == []


def test_table_units_scale_the_instance_lp():
    rlp = build_revenue_lp(two_blocks())
    assert rlp.scale == rlp.instance.value_scale * rlp.instance.dist.mass_scale
    assert all(isinstance(c, int) for c in rlp.table_lp.objective)
    assert [c * rlp.scale for c in rlp.lp.objective] == rlp.table_lp.objective
    assert rlp.lp.rows is rlp.table_lp.rows
