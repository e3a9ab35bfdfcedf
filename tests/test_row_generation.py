"""Row generation in the revenue oracle.

``solve_lp`` starts from the pointwise maximiser of the envelope LP, adds
the monotonicity rows it violates and certifies the result on the full LP.
Its optimum must be the one ``simplex.solve`` finds on the full LP, called
here, and its witness must pass ``verify_witness``.
"""
import pytest
from hypothesis import assume, given, settings, strategies as st

from auctionlab import oracle, simplex
from auctionlab.generators import generate_instances
from auctionlab.instances import corpus_names, load_fixture
from auctionlab.oracle import build_revenue_lp, opt_revenue, verify_witness
from auctionlab.simplex import SimplexError, solve, verify_certificate

from test_oracle_differential import instances, monotone_tables


def planted():
    """An acceptance-01 instance whose pointwise maximiser serves an agent
    less at a higher signal of one column."""
    inst = generate_instances("correlated-private",
                              {"n": 3, "grid": 3, "kind": "2-uniform", "count": 17}, seed=107)[15]
    assert inst.name == "correlated-private-s107-15"
    return inst


def pointwise_violations(rlp):
    """The full LP's rows broken by the first nonempty set of largest
    positive objective at every support profile."""
    n_f, c = len(rlp.feasible), rlp.lp.objective
    x = [0] * rlp.lp.n_vars
    for i in range(len(rlp.support)):
        quotes = c[i * n_f:(i + 1) * n_f]
        if quotes and max(quotes) > 0:
            x[i * n_f + quotes.index(max(quotes))] = 1
    return [r for r, row in enumerate(rlp.lp.rows)
            if sum(a * x[j] for j, a in row.coeffs.items()) > row.rhs]


def check_against_full_solve(inst, *, same_vertex):
    res = opt_revenue(inst)
    full = solve(build_revenue_lp(inst).lp)
    assert res.solution.certified and res.solution.rounds >= 1
    assert res.value == full.objective
    if same_vertex:
        assert res.solution.x == full.x
    assert verify_witness(inst, res.witness) == []
    return res


@pytest.mark.parametrize("name", corpus_names())
def test_fixture_optimum_and_vertex_match_the_full_solve(name):
    inst = load_fixture(name)
    res = check_against_full_solve(inst, same_vertex=True)
    # every fixture's pointwise maximiser is monotone: one round, no simplex
    assert pointwise_violations(build_revenue_lp(inst)) == []
    assert res.solution.rounds == 1 and res.solution.active_rows == ()
    assert res.solution.pivots == 0 and res.solution.restricted_cells == 0


@settings(max_examples=100, deadline=None)
@given(st.one_of(instances(), monotone_tables()))
def test_random_optimum_matches_the_full_solve(inst):
    # monotone tables break a monotonicity row pointwise more often (about
    # 1 draw in 20, against 1 in 300); random draws may tie between
    # vertices, so only the optimum is compared
    assume(not inst.assumption_report()["monotonicity"])
    check_against_full_solve(inst, same_vertex=False)


def test_violated_row_is_added_and_solved():
    inst = planted()
    violated = pointwise_violations(build_revenue_lp(inst))
    assert violated
    res = check_against_full_solve(inst, same_vertex=True)
    assert res.solution.rounds >= 2
    assert set(violated) <= set(res.solution.active_rows)
    assert res.solution.pivots > 0 and res.solution.restricted_cells > 0


@pytest.mark.parametrize("inst", [load_fixture("tiny1"), planted()], ids=["tiny1", "planted"])
def test_failing_full_certificate_raises(monkeypatch, inst):
    monkeypatch.setattr(oracle, "verify_certificate", lambda lp, x, y: ["planted problem"])
    with pytest.raises(SimplexError, match="certificate failed: planted problem"):
        opt_revenue(inst)


@pytest.mark.parametrize("name", corpus_names())
def test_rational_kernel_duals_certify(name):
    lp = build_revenue_lp(load_fixture(name)).lp
    res = simplex._solve_rational(lp)
    assert verify_certificate(lp, res.x, res.y) == []

