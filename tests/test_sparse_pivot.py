"""The double kernel pivots only the rows its entering column reaches.

Each pivot of the list kernel is replayed on a dense numpy reference that
subtracts the full rank-1 update from the whole tableau.  At every pivot the
kernel must take the same entering column and leaving row, leave the rows
its column does not reach untouched, and hold a tableau bitwise equal to the
reference's.
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
    """Stands in for ``simplex._pivot_double``, which the kernel calls once
    per pivot with its list tableau before that pivot, the rows the entering
    column reaches, that column and the leaving row."""

    def __init__(self, pivot):
        self.pivot = pivot
        self.ref = None
        self.M = None
        self.calls = 0
        self.bland = 0          # pivots priced by Bland's rule

    def __call__(self, M, rows, column, pr):
        if self.ref is None:
            self.ref, self.M = DenseReference(np.array(M)), M
        else:
            self.check_tableau()
        self.bland += self.ref.stall >= simplex.STALL_LIMIT
        col = self.ref.entering()
        assert col is not None and column == [row[col] for row in M]
        assert rows == np.flatnonzero(self.ref.M[:, col]).tolist()
        assert self.ref.leaving(col) == pr
        unreached = {r: (row, bits(row)) for r, row in enumerate(M) if r not in rows}
        self.pivot(M, rows, column, pr)
        # a row the column does not reach is not even replaced
        for r, (row, before) in unreached.items():
            assert M[r] is row and bits(row) == before
        # a pivot leaves its column the unit vector of its leaving row
        assert [r for r, row in enumerate(M) if row[col]] == [pr]
        self.ref.pivot(pr, col)
        self.calls += 1

    def check_tableau(self):
        assert bits(self.M) == bits(self.ref.M)


def bits(rows):
    return np.array(rows, dtype=np.float64).view(np.uint64).tolist()


def check_against_dense(monkeypatch, lp):
    spy = PivotSpy(simplex._pivot_double)
    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_pivot_double", spy)
        res = simplex._solve_double(lp)
    assert spy.calls == res.pivots
    if spy.calls:
        spy.check_tableau()
        col = spy.ref.entering()
        if res.status == "optimal":
            assert col is None
        else:
            assert col is not None and spy.ref.leaving(col) is None
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
