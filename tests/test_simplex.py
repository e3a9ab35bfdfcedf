import random
from fractions import Fraction

import numpy as np
import pytest

from auctionlab.simplex import (
    MAX_TABLEAU_CELLS,
    LinearProgram,
    Row,
    SimplexError,
    _solve_double,
    _solve_rational,
    solve,
    verify_certificate,
)

F = Fraction


def test_two_box():
    lp = LinearProgram(2, [1, 1])
    lp.add_le({0: 1}, 1)
    lp.add_le({1: 1}, 1)
    res = solve(lp)
    assert res.status == "optimal"
    assert res.objective == 2
    assert res.x == [1, 1]


def test_classic_blend():
    # max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18
    lp = LinearProgram(2, [3, 5])
    lp.add_le({0: 1}, 4)
    lp.add_le({1: 2}, 12)
    lp.add_le({0: 3, 1: 2}, 18)
    res = solve(lp)
    assert res.objective == 36
    assert res.x == [2, 6]


def test_fractional_data_exact():
    lp = LinearProgram(2, [F(1, 3), F(1, 7)])
    lp.add_le({0: F(2, 5), 1: 1}, F(3, 4))
    lp.add_le({0: 1}, F(1, 2))
    res = solve(lp)
    assert res.objective == F(1, 3) * F(1, 2) + F(1, 7) * (F(3, 4) - F(2, 5) * F(1, 2))
    assert res.x[0] == F(1, 2)


def test_unbounded():
    lp = LinearProgram(2, [1, 0])
    lp.add_le({1: 1}, 1)
    assert solve(lp).status == "unbounded"


def test_degenerate_does_not_cycle():
    # classic Beale cycling example under naive Dantzig pricing
    lp = LinearProgram(4, [F(3, 4), -150, F(1, 50), -6])
    lp.add_le({0: F(1, 4), 1: -60, 2: F(-1, 25), 3: 9}, 0)
    lp.add_le({0: F(1, 2), 1: -90, 2: F(-1, 50), 3: 3}, 0)
    lp.add_le({2: 1}, 1)
    res = solve(lp)
    assert res.status == "optimal"
    assert res.objective == F(1, 20)


def test_equality_row_with_designated_basic():
    # distribute one unit between two activities: the equality
    # x0 + x1 + x2 = 1 with basic x0 is the <= row below, x0 its slack
    lp = LinearProgram(2, [2, 3])
    lp.add_le({0: 1, 1: 1}, 1)
    lp.add_le({1: 1}, F(1, 4))
    res = solve(lp)
    assert res.objective == 3 * F(1, 4) + 2 * F(3, 4)
    assert res.x == [F(3, 4), F(1, 4)]


def test_exact_kernel_takes_fractional_equality_rows():
    # an equality x_b + a.x = b whose zero-cost basic x_b appears in no other
    # row is the row a.x <= b with x_b as its slack; scaling x/2 <= 1 to
    # integers gives x <= 2 with a unit slack
    lp = LinearProgram(1, [1])
    lp.add_le({0: F(1, 2)}, 1)
    exact = _solve_rational(lp)
    assert exact.objective == 2 and exact.x == [2]
    assert solve(lp).objective == 2
    # two fractional equalities stated that way and a fractional inequality
    lp = LinearProgram(2, [1, 1])
    lp.add_le({0: F(2, 3), 1: F(1, 2)}, F(2, 3))
    lp.add_le({0: 1, 1: 3}, F(2, 3))
    lp.add_le({0: 2, 1: F(1, 2)}, F(3, 4))
    certified = solve(lp)
    assert certified.certified and certified.objective == F(5, 11)
    exact = _solve_rational(lp)
    assert exact.objective == F(5, 11) and exact.x == certified.x
    assert exact.x == [F(23, 66), F(7, 66)]


def test_negative_rhs_rejected():
    with pytest.raises(SimplexError, match="nonnegative"):
        Row({0: 1}, -1)


def test_zero_lp():
    res = solve(LinearProgram(0, []))
    assert res.objective == 0 and res.x == []


def test_tableau_cap_refuses_before_allocating():
    # no rows, so the LP itself is tiny; only the tableau would be large
    lp = LinearProgram(n_vars=MAX_TABLEAU_CELLS, objective=[])
    with pytest.raises(SimplexError, match=rf"1 x {MAX_TABLEAU_CELLS + 1} tableau has "
                                           rf"{MAX_TABLEAU_CELLS + 1} cells"):
        solve(lp)


def random_lp(rng, n, m):
    lp = LinearProgram(n, [F(rng.randint(-4, 9)) for _ in range(n)])
    for _ in range(m):
        coeffs = {j: F(rng.randint(0, 6)) for j in rng.sample(range(n), rng.randint(1, n))}
        coeffs = {j: v for j, v in coeffs.items() if v} or {rng.randrange(n): F(1)}
        lp.add_le(coeffs, F(rng.randint(0, 12)))
    return lp


def test_random_lps_match_scipy():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(99)
    for trial in range(40):
        n, m = rng.randint(2, 6), rng.randint(2, 7)
        lp = random_lp(rng, n, m)
        # bounded: every variable capped
        for j in range(n):
            lp.add_le({j: F(1)}, F(rng.randint(1, 10)))
        res = solve(lp)
        assert res.status == "optimal"
        a_ub = np.zeros((len(lp.rows), n))
        b_ub = np.zeros(len(lp.rows))
        for i, row in enumerate(lp.rows):
            for j, v in row.coeffs.items():
                a_ub[i, j] = float(v)
            b_ub[i] = float(row.rhs)
        ref = scipy_opt.linprog([-float(c) for c in lp.objective], A_ub=a_ub, b_ub=b_ub,
                                bounds=[(0, None)] * n, method="highs")
        assert ref.status == 0
        assert abs(float(res.objective) + ref.fun) < 1e-7
        # exact feasibility of our solution
        for row in lp.rows:
            lhs = sum(v * res.x[j] for j, v in row.coeffs.items())
            assert lhs <= row.rhs


def test_solution_is_exactly_feasible_and_optimal_value_is_fraction():
    rng = random.Random(5)
    lp = random_lp(rng, 5, 6)
    for j in range(5):
        lp.add_le({j: F(1)}, F(3))
    res = solve(lp)
    assert isinstance(res.objective, Fraction)
    assert all(isinstance(v, Fraction) for v in res.x)
    recomputed = sum(c * v for c, v in zip(lp.objective, res.x))
    assert recomputed == res.objective


def blend_lp():
    # max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18; optimum (2, 6), duals (0, 3/2, 1)
    lp = LinearProgram(2, [3, 5])
    lp.add_le({0: 1}, 4)
    lp.add_le({1: 2}, 12)
    lp.add_le({0: 3, 1: 2}, 18)
    return lp


def test_certified_solve_carries_its_certificate():
    lp = blend_lp()
    res = solve(lp)
    assert res.certified and res.fallbacks == 0
    assert res.x == [2, 6] and res.y == [0, F(3, 2), 1]
    assert verify_certificate(lp, res.x, res.y) == []


def test_double_duals_read_from_the_slack_columns_certify():
    lp = blend_lp()
    res = _solve_double(lp)
    assert res.y == [0, 1.5, 1]
    assert verify_certificate(lp, res.x, res.y) == []


def test_certificate_rejects_perturbed_solutions():
    lp = blend_lp()
    x, y = [F(2), F(6)], [F(0), F(3, 2), F(1)]
    assert verify_certificate(lp, x, y) == []
    # feasible but not optimal: c.x < b.y
    assert verify_certificate(lp, [F(2), F(5)], y)
    # infeasible
    assert verify_certificate(lp, [F(2), F(6) + F(1, 10**9)], y)
    # dual not feasible: y^T A < c in the second column
    assert verify_certificate(lp, x, [F(0), F(3, 2) - F(1, 10**9), F(1)])
    # a negative dual on a <= row, with y^T A >= c and c.x = b.y kept
    lp2 = LinearProgram(1, [1])
    lp2.add_le({0: 1}, 1)
    lp2.add_le({0: 1}, 2)
    assert verify_certificate(lp2, [F(1)], [F(3), F(-1)]) == [
        "row 1: dual -1 < 0 on a <= row"]


def test_uncertifiable_double_solution_falls_back_to_exact_kernel():
    # 1/1000003 has no rational neighbour with denominator <= 10**6 that is
    # feasible, so the rounded double solution fails its certificate
    lp = LinearProgram(1, [1])
    lp.add_le({0: 1000003}, 1)
    res = solve(lp)
    assert res.objective == F(1, 1000003) and res.x == [F(1, 1000003)]
    assert res.fallbacks == 1 and not res.certified
