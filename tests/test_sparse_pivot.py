"""The double kernel pivots only the rows its entering column reaches.

Each pivot is replayed on a dense reference that subtracts the full rank-1
update from the whole tableau.  After every pivot the kernel must have taken
the same entering column and leaving row and hold a bitwise-equal tableau.
"""
import random
from fractions import Fraction

import numpy as np
import pytest

from auctionlab import simplex
from auctionlab.generators import generate_instances
from auctionlab.instances import corpus_names, load_fixture
from auctionlab.oracle import build_revenue_lp
from auctionlab.simplex import LinearProgram, NumericalInstability, solve

F = Fraction


class DenseReference:
    """The kernel's pricing and ratio test, with the whole tableau updated."""

    def __init__(self, M):
        self.M = M.copy()
        self.stall = 0
        self.last_obj = 0.0

    def entering(self):
        row0 = self.M[0, :-1]
        if self.stall >= simplex.STALL_LIMIT:
            candidates = np.nonzero(row0 < -simplex.EPS)[0]
            return int(candidates[0]) if candidates.size else None
        j = int(np.argmin(row0))
        return j if row0[j] < -simplex.EPS else None

    def leaving(self, col):
        M = self.M
        ratios = np.full(M.shape[0], np.inf)
        positive = M[1:, col] > simplex.EPS
        ratios[1:][positive] = M[1:, -1][positive] / M[1:, col][positive]
        pr = int(np.argmin(ratios))
        return pr if np.isfinite(ratios[pr]) else None

    def pivot(self, pr, col):
        M = self.M
        piv_row = M[pr] / M[pr, col]
        M -= np.outer(M[:, col], piv_row)
        M[pr] = piv_row
        if abs(M[0, -1] - self.last_obj) <= simplex.EPS * max(1.0, abs(self.last_obj)):
            self.stall += 1
        else:
            self.stall = 0
            self.last_obj = M[0, -1]


class PivotSpy:
    """Stands in for numpy inside the kernel.  The kernel calls
    ``flatnonzero(M[:, col])`` once per pivot, so each call hands over the
    tableau before that pivot and the entering column."""

    def __init__(self):
        self.ref = None
        self.M = None
        self.last = None        # (entering column, reference leaving row)
        self.calls = 0
        self.bland = 0          # pivots priced by Bland's rule

    def __getattr__(self, name):
        return getattr(np, name)

    def flatnonzero(self, column):
        M = column.base
        col = (column.__array_interface__["data"][0]
               - M.__array_interface__["data"][0]) // M.itemsize
        if self.ref is None:
            self.ref, self.M = DenseReference(M), M
        else:
            self.check_last_pivot()
        self.bland += self.ref.stall >= simplex.STALL_LIMIT
        assert self.ref.entering() == col
        pr = self.ref.leaving(col)
        if pr is not None:
            self.ref.pivot(pr, col)
        self.last = (col, pr)
        self.calls += 1
        return np.flatnonzero(column)

    def check_last_pivot(self):
        col, pr = self.last
        # a pivot leaves its column the unit vector of its leaving row
        assert np.flatnonzero(self.M[:, col]).tolist() == [pr]
        assert np.array_equal(self.M.view(np.uint64), self.ref.M.view(np.uint64))


def check_against_dense(monkeypatch, lp):
    spy = PivotSpy()
    with monkeypatch.context() as patch:
        patch.setattr(simplex, "np", spy)
        res = simplex._solve_double(lp)
    assert spy.calls == res.pivots + (res.status == "unbounded")
    if res.status == "optimal":
        if spy.calls:
            spy.check_last_pivot()
            assert spy.ref.entering() is None
    else:
        assert spy.last[1] is None
    return res, spy


@pytest.mark.parametrize("name", corpus_names())
def test_fixture_lp_pivots_match_the_dense_update(monkeypatch, name):
    res, spy = check_against_dense(monkeypatch, build_revenue_lp(load_fixture(name)).lp)
    assert res.status == "optimal" and spy.calls == res.pivots > 0


@pytest.mark.parametrize("seed", [4, 9, 11])
def test_scale_lp_pivots_match_the_dense_update(monkeypatch, seed):
    inst = generate_instances("correlated-private",
                              {"n": 3, "grid": 5, "kind": "2-uniform"}, seed)[0]
    res, spy = check_against_dense(monkeypatch, build_revenue_lp(inst).lp)
    assert res.status == "optimal" and res.pivots > 0


def random_lp(rng, n, m):
    """Mixed-sign coefficients, fractional ones in up to two leading rows,
    and many zero right-hand sides (degenerate pivots)."""
    n_frac = rng.randint(0, 2)
    lp = LinearProgram(n, [F(rng.randint(-3, 9)) for _ in range(n)])
    for _ in range(n_frac):
        coeffs = {j: F(rng.randint(-2, 4), rng.randint(1, 3)) for j in rng.sample(range(n), 2)}
        lp.add_le(coeffs, F(rng.randint(0, 6)))
    for _ in range(m):
        coeffs = {j: F(rng.randint(-3, 6)) for j in rng.sample(range(n), rng.randint(1, n))}
        lp.add_le(coeffs, F(rng.choice([0, 0, rng.randint(1, 12)])))
    return lp


@pytest.mark.parametrize("seed", range(8))
def test_random_lp_pivots_match_the_dense_update(monkeypatch, seed):
    rng = random.Random(seed)
    statuses = set()
    for _ in range(25):
        res, _ = check_against_dense(monkeypatch, random_lp(rng, rng.randint(2, 8),
                                                            rng.randint(1, 9)))
        statuses.add(res.status)
    assert "optimal" in statuses


def test_random_lps_include_unbounded_ones(monkeypatch):
    rng = random.Random(0)
    statuses = [check_against_dense(monkeypatch, random_lp(rng, 4, 3))[0].status
                for _ in range(40)]
    assert "unbounded" in statuses and "optimal" in statuses


def test_bland_pricing_matches_the_dense_update(monkeypatch):
    # Beale's example cycles under Dantzig's rule alone; the stall switches
    # the kernel to Bland's rule
    lp = LinearProgram(4, [F(3, 4), -150, F(1, 50), -6])
    lp.add_le({0: F(1, 4), 1: -60, 2: F(-1, 25), 3: 9}, 0)
    lp.add_le({0: F(1, 2), 1: -90, 2: F(-1, 50), 3: 3}, 0)
    lp.add_le({2: 1}, 1)
    monkeypatch.setattr(simplex, "STALL_LIMIT", 2)
    res, spy = check_against_dense(monkeypatch, lp)
    assert res.status == "optimal" and spy.bland > 0


def overflowing_lp():
    # the pivot row divided by 1e-8 overflows 1e301 to inf
    lp = LinearProgram(2, [1, 0])
    lp.add_le({0: F(1, 10 ** 8), 1: 10 ** 301}, 1)
    return lp


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_finiteness_guard_still_fires():
    with pytest.raises(NumericalInstability, match="lost finiteness"):
        simplex._solve_double(overflowing_lp())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lost_finiteness_falls_back_in_rational_mode():
    res = solve(overflowing_lp())
    assert res.fallbacks == 1 and not res.certified
    assert res.objective == 10 ** 8 and res.x == [10 ** 8, 0]
