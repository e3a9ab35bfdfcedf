"""The integer certificate check agrees with a check in Fraction arithmetic.

``fraction_certificate`` is the check as it was written over Fractions: every
entry converted to an exact rational and every sum formed in Fraction
arithmetic.  :func:`simplex.verify_certificate` must report the same
problems, strings and order included, on every LP below.
"""
import random
from fractions import Fraction

import pytest

from auctionlab import simplex
from auctionlab.generators import generate_instances
from auctionlab.instances import corpus_names, load_fixture
from auctionlab.oracle import build_revenue_lp, opt_revenue, witness_mechanism
from auctionlab.simplex import LinearProgram, solve, verify_certificate

F = Fraction


def _exact(v):
    return Fraction(v) if isinstance(v, float) else v


def fraction_certificate(lp, x, y):
    """The reference: x >= 0, Ax <= b, y >= 0, y^T A >= c and c.x = b.y over
    Fractions."""
    if len(x) != lp.n_vars or len(y) != len(lp.rows):
        return [f"need {lp.n_vars} primal and {len(lp.rows)} dual values, "
                f"got {len(x)} and {len(y)}"]
    x = [_exact(v) for v in x]
    y = [_exact(v) for v in y]
    problems = [f"x[{j}] = {v} < 0" for j, v in enumerate(x) if v < 0]
    dual_lhs = [0] * lp.n_vars
    by = 0
    for i, (row, yi) in enumerate(zip(lp.rows, y)):
        lhs = 0
        for j, a in row.coeffs.items():
            a = _exact(a)
            if x[j]:
                lhs += a * x[j]
            if yi:
                dual_lhs[j] += a * yi
        rhs = _exact(row.rhs)
        if yi:
            by += rhs * yi
        if lhs > rhs:
            problems.append(f"row {i}: {lhs} > {rhs}")
        if yi < 0:
            problems.append(f"row {i}: dual {yi} < 0 on a <= row")
    cx = 0
    for j, c in enumerate(lp.objective):
        c = _exact(c)
        if dual_lhs[j] < c:
            problems.append(f"column {j}: y^T A = {dual_lhs[j]} < c = {c}")
        if x[j]:
            cx += c * x[j]
    if cx != by:
        problems.append(f"c.x = {cx} != b.y = {by}")
    return problems


def agree(lp, x, y):
    problems = verify_certificate(lp, x, y)
    assert problems == fraction_certificate(lp, x, y)
    return problems


def scale_lps():
    return [build_revenue_lp(generate_instances(
        "correlated-private", {"n": 3, "grid": 5, "kind": "2-uniform"}, seed)[0]).lp
        for seed in (4, 9, 11)]


def fixture_lps():
    return [build_revenue_lp(load_fixture(name)).lp for name in corpus_names()]


def perturbations(rng, x, y):
    """The certified (x, y), then copies with a few entries moved."""
    yield x, y
    for _ in range(4):
        x2, y2 = list(x), list(y)
        for vec in rng.sample([x2, y2], rng.randint(1, 2)):
            for j in rng.sample(range(len(vec)), min(len(vec), rng.randint(1, 3))):
                vec[j] += rng.choice([F(-1, 3), F(1, 7), -1, 2, 0.25, -0.1])
        yield x2, y2


@pytest.mark.parametrize("lps", [fixture_lps, scale_lps], ids=["fixtures", "oracle-scale"])
def test_revenue_lps_agree(lps):
    rng = random.Random(0)
    for lp in lps():
        res = solve(lp)
        assert res.certified
        assert agree(lp, res.x, res.y) == []
        double = simplex._solve_double(lp)
        agree(lp, double.x, double.y)
        for x, y in perturbations(rng, res.x, res.y):
            agree(lp, x, y)


def random_entry(rng, kind):
    """An int, a float or a Fraction; "mixed" picks one of the three."""
    if kind == "mixed":
        kind = rng.choice(["int", "float", "fraction"])
    if kind == "int":
        return rng.randint(-4, 9)
    if kind == "float":
        return rng.choice([0.1, -0.3, 1.5, 2.0, 1 / 3, -2.75, 0.0])
    return F(rng.randint(-6, 9), rng.choice([1, 2, 3, 5, 7, 12]))


def random_lp(rng, kind):
    n, m = rng.randint(1, 7), rng.randint(1, 7)
    lp = LinearProgram(n, [random_entry(rng, kind) for _ in range(n)])
    for _ in range(m):
        coeffs = {j: random_entry(rng, kind) for j in rng.sample(range(n), rng.randint(0, n))}
        lp.add_le(coeffs, abs(random_entry(rng, kind)))
    return lp


@pytest.mark.parametrize("kind", ["int", "fraction", "float", "mixed"])
def test_random_lps_agree(kind):
    rng = random.Random(kind)
    certified = reported = 0
    for _ in range(60):
        lp = random_lp(rng, kind)
        res = solve(lp)
        if res.certified:
            assert agree(lp, res.x, res.y) == []
            certified += 1
        x = [random_entry(rng, kind) for _ in range(lp.n_vars)]
        y = [random_entry(rng, kind) for _ in range(len(lp.rows))]
        reported += bool(agree(lp, x, y))
    assert certified and reported


def blend_lp():
    # max 3x + 5y st x <= 4, 2y/3 <= 4, 3x + 2y <= 18: optimum x = (2, 6), y = (0, 9/2, 1)
    lp = LinearProgram(2, [3, 5])
    lp.add_le({0: 1}, 4)
    lp.add_le({1: F(2, 3)}, 4)
    lp.add_le({0: 3, 1: 2}, 18)
    return lp


X, Y = [F(2), F(6)], [F(0), F(9, 2), F(1)]


@pytest.mark.parametrize("x, y, expected", [
    (X, Y, []),
    ([F(-1, 2), F(6)], Y, ["x[0] = -1/2 < 0", "c.x = 57/2 != b.y = 36"]),
    ([F(1), F(13, 2)], Y, ["row 1: 13/3 > 4", "c.x = 71/2 != b.y = 36"]),
    (X, [F(-1), F(9, 2), F(4, 3)], ["row 0: dual -1 < 0 on a <= row",
                                    "c.x = 36 != b.y = 38"]),
    (X, [F(0), F(2), F(1)], ["column 1: y^T A = 10/3 < c = 5", "c.x = 36 != b.y = 26"]),
    (X, [F(1), F(9, 2), F(1)], ["c.x = 36 != b.y = 40"]),
], ids=["certified", "negative-x", "violated-row", "negative-dual", "dual-infeasible",
        "duality-gap"])
def test_planted_failures(x, y, expected):
    assert agree(blend_lp(), x, y) == expected


def test_planted_failures_in_float_data():
    # max x0/2 + 5 x1/4 st x0/4 + x1 <= 3/4, x0 <= 2, x1/10 <= 1; 0.1 is not dyadic
    lp = LinearProgram(2, [0.5, 1.25])
    lp.add_le({0: 0.25, 1: 1}, 0.75)
    lp.add_le({0: 1}, 2)
    lp.add_le({1: 0.1}, 1)
    x, y = [2.0, 0.25], [1.25, 0.1875, 0.0]
    assert agree(lp, x, y) == []
    # 0.3 is read at its binary value, a little under 3/10
    assert agree(lp, [2.0, 0.3], y) == [
        "row 0: 14411518807585587/18014398509481984 > 3/4",
        "c.x = 99079191802150911/72057594037927936 != b.y = 21/16"]
    assert agree(lp, [-0.5, 0.875], y) == ["x[0] = -1/2 < 0", "c.x = 27/32 != b.y = 21/16"]
    assert agree(lp, x, [1.25, 0.1875, -0.1]) == [
        "row 2: dual -3602879701896397/36028797018963968 < 0 on a <= row",
        "column 1: y^T A = 1609612026145796563403301981299671/"
        "1298074214633706907132624082305024 < c = 5/4",
        "c.x = 21/16 != b.y = 43684916385493811/36028797018963968"]


def test_equal_floats_round_to_one_object():
    repeats = 0
    for lp in fixture_lps():
        approx, res = simplex._solve_double(lp), solve(lp)
        assert res.certified
        by_float = {}
        for f, v in zip(approx.x + approx.y, res.x + res.y):
            if f in by_float:
                assert by_float[f] is v
                repeats += f != 0
            by_float[f] = v
    assert repeats


def unshared_witness(rlp, solution):
    x, n_f, n = solution.x, len(rlp.feasible), len(rlp.instance.agents)
    pay = rlp.stats.y_vars
    witness = {}
    for i, s in enumerate(rlp.support):
        lottery = [(f, p) for f, p in zip(rlp.feasible, x[i * n_f:(i + 1) * n_f]) if p != 0]
        rest = 1 - sum((p for _, p in lottery), solution.objective * 0)
        if rest != 0:
            lottery.insert(0, (frozenset(), rest))
        witness[s] = (tuple(lottery), tuple(x[pay + i * n:pay + (i + 1) * n]))
    return witness


@pytest.mark.parametrize("name", corpus_names())
def test_witness_equals_the_unshared_one(name):
    inst = load_fixture(name)
    rlp = build_revenue_lp(inst)
    solution = solve(rlp.lp)
    witness, unshared = witness_mechanism(rlp, solution), unshared_witness(rlp, solution)
    assert witness == unshared and list(witness) == list(unshared)
    assert opt_revenue(inst).witness == witness
    seen = {}
    for cell in witness.values():
        for part in cell:
            assert seen.setdefault(part, part) is part
