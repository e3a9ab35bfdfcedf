"""The fraction-free kernel's pivots match a dense Fraction reference.

Each pivot of ``simplex._pivot_int`` is replayed on a reference that holds
the true tableau M / d in Fractions, prices by the kernel's rules and runs a
Gauss-Jordan pivot on it.  At every pivot the kernel must take the same
entering column and leaving row, every division of its update must be
exact, its pivot column must become the unit vector of the leaving row,
and M / d must equal the reference's tableau.
"""
import random
from fractions import Fraction

import pytest

from auctionlab import simplex
from auctionlab.generators import generate_instances
from auctionlab.instances import corpus_names, load_fixture
from auctionlab.oracle import build_revenue_lp
from auctionlab.simplex import LinearProgram

F = Fraction


class DenseReference:
    """Dantzig's rule with first-row ratio ties, Bland's rule with
    smallest-basic-index ties after a stall, on the whole true tableau."""

    def __init__(self, M, d):
        self.T = [[F(a, d) for a in row] for row in M]
        m = len(M) - 1
        n = len(M[0]) - m - 1
        self.basis = list(range(n, n + m))
        self.stall = 0
        self.last_obj = 0

    def entering(self, bland):
        costs = self.T[0][:-1]
        if bland:
            return next((j for j, v in enumerate(costs) if v < 0), None)
        least = min(costs, default=0)
        return costs.index(least) if least < 0 else None

    def leaving(self, col, bland):
        ratios = [(row[-1] / row[col], self.basis[i - 1] if bland else i, i)
                  for i, row in enumerate(self.T) if i and row[col] > 0]
        return min(ratios)[2] if ratios else None

    def pivot(self, pr, col):
        T = self.T
        top = [v / T[pr][col] for v in T[pr]]
        for r, row in enumerate(T):
            if r != pr and row[col]:
                c = row[col]
                T[r] = [a - c * b for a, b in zip(row, top)]
        T[pr] = top
        self.basis[pr - 1] = col
        if T[0][-1] == self.last_obj:
            self.stall += 1
        else:
            self.stall = 0
            self.last_obj = T[0][-1]

    def check(self, M, d):
        assert [[F(a, d) for a in row] for row in M] == self.T


class PivotSpy:
    """Stands in for ``simplex._pivot_int``, which the kernel calls once per
    pivot with its tableau M, the divisor d, the leaving row and the
    entering column."""

    def __init__(self, pivot):
        self.pivot = pivot
        self.ref = None
        self.M = self.d = None
        self.calls = 0
        self.bland = 0          # pivots priced by Bland's rule

    def __call__(self, M, d, pr, pc):
        if self.ref is None:
            self.ref, self.M = DenseReference(M, d), M
        self.ref.check(M, d)
        bland = self.ref.stall >= simplex.STALL_LIMIT
        self.bland += bland
        assert self.ref.entering(bland) == pc
        assert self.ref.leaving(pc, bland) == pr
        top, p = M[pr], M[pr][pc]
        for r, row in enumerate(M):
            if r != pr:
                c = row[pc]
                assert all((a * p - c * b) % d == 0 for a, b in zip(row, top))
        self.d = self.pivot(M, d, pr, pc)
        assert [r for r, row in enumerate(M) if row[pc]] == [pr]
        self.ref.pivot(pr, pc)
        self.calls += 1
        return self.d


def check_against_dense(monkeypatch, lp):
    spy = PivotSpy(simplex._pivot_int)
    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_pivot_int", spy)
        res = simplex._solve_rational(lp)
    assert spy.calls == res.pivots
    if spy.calls:
        spy.ref.check(spy.M, spy.d)
        bland = spy.ref.stall >= simplex.STALL_LIMIT
        col = spy.ref.entering(bland)
        if res.status == "optimal":
            assert col is None
        else:
            assert col is not None and spy.ref.leaving(col, bland) is None
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


def test_random_lp_pivots_match_the_dense_update_under_bland(monkeypatch):
    # Bland's rule from the first pivot, so its smallest-basic-index ratio
    # ties are replayed on degenerate LPs too
    monkeypatch.setattr(simplex, "STALL_LIMIT", 0)
    rng = random.Random(0)
    bland = 0
    for _ in range(100):
        _, spy = check_against_dense(monkeypatch, random_lp(rng, rng.randint(2, 8),
                                                            rng.randint(1, 9)))
        bland += spy.bland
    assert bland > 0
