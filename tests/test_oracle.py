import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from auctionlab.distributions import JointDistribution, ScalarDistribution, SignalGrid
from auctionlab.matroid import FeasibilitySystem
from auctionlab.mechanisms import (
    Instance,
    MechanismSpec,
    expected_revenue,
    opt_upper_bound,
)
from auctionlab.distributions import monopoly_price
from auctionlab.generators import generate_instances
from auctionlab.instances import corpus_names, load_fixture
from auctionlab.oracle import (
    LPSizeError,
    build_revenue_lp,
    opt_revenue,
    verify_witness,
)
from auctionlab.valuations import private, table

F = Fraction


def single_agent(support_pairs):
    grid_vals = tuple(v for v, _ in support_pairs)
    grid = SignalGrid(agents=(1,), values={1: grid_vals})
    dist = JointDistribution(grid, form="product",
                             marginals={1: ScalarDistribution(support_pairs)})
    return Instance(grid=grid, dist=dist, vp=private((1,)),
                    feas=FeasibilitySystem.uniform(1, [1]))


def tiny1():
    grid = SignalGrid(agents=(1, 2), values={1: (1, 2), 2: (1, 2)})
    u = ScalarDistribution([(1, F(1, 2)), (2, F(1, 2))])
    dist = JointDistribution(grid, form="product", marginals={1: u, 2: u})
    return Instance(grid=grid, dist=dist, vp=private((1, 2)),
                    feas=FeasibilitySystem.uniform(1, [1, 2]), name="tiny1")


def test_lp_counts_single_agent():
    inst = single_agent([(1, F(1, 2)), (2, F(1, 2))])
    rlp = build_revenue_lp(inst)
    assert rlp.stats.variables == 4        # 2 profiles x 1 nonempty set + 2 payments
    assert rlp.stats.simplex_rows == 2
    assert rlp.stats.ic_rows == 2
    assert rlp.stats.ir_rows == 2


def test_lp_counts_tiny1():
    rlp = build_revenue_lp(tiny1())
    assert rlp.stats.y_vars == 8           # 4 profiles x 2 nonempty feasible sets
    assert rlp.stats.p_vars == 8
    assert rlp.stats.variables == 16


def test_var_cap():
    with pytest.raises(LPSizeError, match="cap"):
        build_revenue_lp(tiny1(), var_cap=10)


def test_single_agent_uniform_opt_is_one():
    inst = single_agent([(1, F(1, 2)), (2, F(1, 2))])
    res = opt_revenue(inst)
    assert res.value == 1


def test_single_agent_point_mass_full_extraction():
    inst = single_agent([(7, F(1))])
    assert opt_revenue(inst).value == 7


def test_tiny1_opt():
    res = opt_revenue(tiny1())
    assert res.value == F(3, 2)


def test_oracle_matches_monopoly_price_single_agent():
    rng = random.Random(31)
    for _ in range(12):
        support = sorted(rng.sample(range(1, 20), rng.randint(1, 4)))
        weights = [rng.randint(1, 5) for _ in support]
        tot = sum(weights)
        pairs = [(v, F(w, tot)) for v, w in zip(support, weights)]
        inst = single_agent(pairs)
        _, rev = monopoly_price(inst.dist.marginal(1))
        assert opt_revenue(inst).value == rev


def test_witness_satisfies_all_constraints_exactly():
    inst = tiny1()
    res = opt_revenue(inst)
    assert verify_witness(inst, res.witness) == []


def test_witness_lists_support_profiles_only_and_absent_cells_are_empty():
    # one agent, grid (1, 2), all mass on signal 2
    grid = SignalGrid(agents=(1,), values={1: (1, 2)})
    dist = JointDistribution(grid, form="table", table=[((2,), F(1))])
    inst = Instance(grid=grid, dist=dist, vp=private((1,)),
                    feas=FeasibilitySystem.uniform(1, [1]))
    res = opt_revenue(inst)
    assert res.value == 2
    assert res.witness == {(2,): (((frozenset({1}), 1),), (2,))}
    assert verify_witness(inst, res.witness) == []
    # serving signal 1 for free tempts signal 2 to misreport
    tempting = dict(res.witness)
    tempting[(1,)] = (((frozenset({1}), F(1)),), (F(0),))
    assert verify_witness(inst, tempting) == ["IC violated for 1 at (2,) deviating to 1: 2 > 0"]
    overcharged = {(2,): (((frozenset({1}), F(1)),), (F(3),))}
    assert verify_witness(inst, overcharged) == [
        "IR violated for 1 at (2,): utility -1",
        "IC violated for 1 at (2,) deviating to 1: 0 > -1"]


@pytest.mark.parametrize("name", corpus_names())
def test_witness_lotteries_sum_to_one_with_the_empty_set_taking_the_rest(name):
    res = opt_revenue(load_fixture(name))
    for alloc, _ in res.witness.values():
        assert sum(p for _, p in alloc) == 1
        rest = 1 - sum(p for f, p in alloc if f)
        assert [(f, p) for f, p in alloc if not f] == ([(frozenset(), rest)] if rest else [])
        assert all(f for f, _ in alloc[1:])


def test_correlated_point_masses_extract_full_surplus():
    # perfectly correlated signals: lying is detectable, so the optimum
    # extracts the whole winner value
    grid = SignalGrid(agents=(1, 2), values={1: (1, 3), 2: (1, 3)})
    dist = JointDistribution(grid, form="table",
                             table=[((1, 1), F(1, 2)), ((3, 3), F(1, 2))])
    inst = Instance(grid=grid, dist=dist, vp=private((1, 2)),
                    feas=FeasibilitySystem.uniform(1, [1, 2]))
    assert opt_revenue(inst).value == 2  # E[max value] = (1+3)/2


def test_oracle_dominates_mechanisms_and_respects_upper_bound():
    rng = random.Random(13)
    for trial in range(8):
        n = rng.choice([2, 3])
        axes = {i: tuple(sorted(rng.sample(range(1, 7), 2))) for i in range(1, n + 1)}
        grid = SignalGrid(agents=tuple(axes), values=axes)
        profiles = list(itertools.product(*axes.values()))
        weights = [rng.randint(0, 3) for _ in profiles]
        if not any(weights):
            weights[0] = 1
        tot = sum(weights)
        dist = JointDistribution(grid, form="table", table=[
            (p, F(w, tot)) for p, w in zip(profiles, weights) if w])
        feas = rng.choice([
            FeasibilitySystem.uniform(1, list(axes)),
            FeasibilitySystem.uniform(min(2, n), list(axes)),
        ])
        inst = Instance(grid=grid, dist=dist, vp=private(tuple(axes)), feas=feas)
        opt = opt_revenue(inst).value
        bound = opt_upper_bound(inst)
        assert opt <= bound
        for mech in ("gvcg", "lookahead"):
            rev = expected_revenue(inst, MechanismSpec(mech)).value
            assert rev <= opt


def test_no_agents_trivial():
    grid = SignalGrid(agents=(), values={})
    dist = JointDistribution(grid, form="table", table=[((), F(1))])
    inst = Instance(grid=grid, dist=dist, vp=private(()),
                    feas=FeasibilitySystem.uniform(0, []))
    assert opt_revenue(inst).value == 0


def test_gap3_oracle_at_least_shadow_value():
    # serving the shadowed agent at her full (signal-determined) value is
    # incentive compatible, so the optimum is at least E[s1] - 0.1
    eps = F(1, 10)
    g1 = (1, 2, 4, 8)
    grid = SignalGrid(agents=(1, 2), values={1: g1, 2: (0,)})
    probs = [F(1, 2), F(1, 4), F(1, 8), F(1, 8)]
    dist = JointDistribution(grid, form="product", marginals={
        1: ScalarDistribution(list(zip(g1, probs))),
        2: ScalarDistribution([(0, F(1))]),
    })
    vp = table((1, 2), {
        1: {(s1, 0): F(s1) for s1 in g1},
        2: {(s1, 0): F(s1) - eps for s1 in g1},
    })
    inst = Instance(grid=grid, dist=dist, vp=vp,
                    feas=FeasibilitySystem.uniform(1, [1, 2]), name="gap3")
    res = opt_revenue(inst)
    expected_s1 = sum(p * v for v, p in zip(g1, probs))
    assert expected_s1 == F(5, 2)
    assert res.value >= expected_s1 - eps
    assert res.value <= opt_upper_bound(inst)
    assert verify_witness(inst, res.witness) == []


def _lp_digest(instances):
    """SHA-256 over every LP's size, objective and rows, in order."""
    lps = []
    for inst in instances:
        lp = build_revenue_lp(inst).lp
        lps.append((lp.n_vars, lp.objective,
                    [(sorted(row.coeffs.items()), row.rhs) for row in lp.rows]))
    return hashlib.sha256(repr(lps).encode()).hexdigest()


def non_monotone():
    # agent 1's value falls from own signal 0 to 1, so truth-telling binds
    # every pair of a column, not only neighbours
    g1, g2 = (0, 1, 2), (0, 1)
    grid = SignalGrid(agents=(1, 2), values={1: g1, 2: g2})
    u1 = ScalarDistribution([(0, F(1, 2)), (1, F(1, 4)), (2, F(1, 4))])
    u2 = ScalarDistribution([(0, F(1, 3)), (1, F(2, 3))])
    dist = JointDistribution(grid, form="product", marginals={1: u1, 2: u2})
    own = {0: F(3), 1: F(1), 2: F(4)}
    vp = table((1, 2), {
        1: {(s1, s2): own[s1] + s2 for s1 in g1 for s2 in g2},
        2: {(s1, s2): F(2 * s2) + F(s1, 2) for s1 in g1 for s2 in g2},
    })
    return Instance(grid=grid, dist=dist, vp=vp,
                    feas=FeasibilitySystem.uniform(1, [1, 2]), name="non-monotone")


@pytest.mark.parametrize("corpus, digest", [
    ("fixtures",
     "aef969e335fd6c1b99ff58d375cd82b8f5e4c77f820162526202ab1503d5ab59"),
    ("correlated-private",
     "7a84afc9bca1317640b39fa2326227f01ffab8cc6134e8197f1b3716cde32851"),
    ("non-monotone",
     "db5fd9bc6df71469ac0b11f230f2a9b64cc3adf49234e3c4c449fdd57d59ba5d"),
])
def test_revenue_lp_is_pinned(corpus, digest):
    if corpus == "fixtures":
        instances = [load_fixture(name) for name in corpus_names()]
    elif corpus == "correlated-private":
        instances = []
        for seed, kind in enumerate(("1-uniform", "2-uniform", "partition")):
            for n, grid in ((2, 2), (2, 3), (3, 2), (3, 3)):
                instances.extend(generate_instances(
                    "correlated-private",
                    {"n": n, "grid": grid, "kind": kind, "count": 3}, seed=100 + seed))
    else:
        instances = [non_monotone()]
        assert instances[0].assumption_report()["monotonicity"]
    assert _lp_digest(instances) == digest
