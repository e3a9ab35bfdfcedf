import itertools
import math
import random
from fractions import Fraction

import pytest

from auctionlab.distributions import JointDistribution, ScalarDistribution, SignalGrid
from auctionlab.instances import load_fixture
from auctionlab.matroid import FeasibilitySystem
from auctionlab.mechanisms import (
    AssumptionError,
    Instance,
    MechanismError,
    MechanismSpec,
    ReserveAuditError,
    WrongVariantError,
    conditional_monopoly_reserve,
    conditional_value_distribution,
    expected_revenue,
    gvcg,
    gvcg_lazy,
    ic_ir_audit,
    lookahead,
    opt_upper_bound,
    randomized_matroid,
    randomized_single_item,
    realizations,
    resolve_reserves,
    run_realized,
    threshold_matching,
    vcg_eager,
    winner_set,
)
from auctionlab.valuations import private, table, value, weighted_sum

F = Fraction
H = F(1, 2)


def make_instance(axes, feas, vp=None, dist=None, name=""):
    agents = tuple(axes)
    grid = SignalGrid(agents=agents, values=axes)
    if vp is None:
        vp = private(agents)
    if dist is None:
        marginals = {a: ScalarDistribution([(v, F(1, len(axes[a]))) for v in axes[a]])
                     for a in agents}
        dist = JointDistribution(grid, form="product", marginals=marginals)
    return Instance(grid=grid, dist=dist, vp=vp, feas=feas, name=name)


def tiny1():
    """Two agents, iid uniform {1,2} private values, one item."""
    axes = {1: (1, 2), 2: (1, 2)}
    return make_instance(axes, FeasibilitySystem.uniform(1, [1, 2]), name="tiny1")


def nonmat1():
    """Explicit non-matroid family from the eager-vs-lazy counterexample."""
    axes = {1: (H, F(7, 10), 1, F(6, 5)), 2: (H, F(3, 5)), 3: (F(6, 5),)}
    feas = FeasibilitySystem.explicit([[], [1], [2], [1, 2], [3]], ground=[1, 2, 3])
    return make_instance(axes, feas, name="nonmat1")


def gap_instance(k):
    """Two agents, one item; the second agent's value shadows the first
    signal minus 0.1 and the first signal follows the equal-revenue grid."""
    eps = F(1, 10)
    g1 = tuple(2 ** j for j in range(k + 1))
    axes = {1: g1, 2: (0,)}
    agents = (1, 2)
    grid = SignalGrid(agents=agents, values=axes)
    probs = [F(1, 2 ** (j + 1)) for j in range(k)] + [F(1, 2 ** k)]
    dist = JointDistribution(grid, form="product", marginals={
        1: ScalarDistribution(list(zip(g1, probs))),
        2: ScalarDistribution([(0, 1)]),
    })
    vals = {
        1: {(s1, 0): F(s1) for s1 in g1},
        2: {(s1, 0): F(s1) - eps for s1 in g1},
    }
    vp = table(agents, vals)
    feas = FeasibilitySystem.uniform(1, [1, 2])
    return Instance(grid=grid, dist=dist, vp=vp, feas=feas, name=f"gap{k}")


# ----------------------------------------------------------------------
# thresholds and winners


def test_gvcg_second_price():
    axes = {1: (1, 2, 3), 2: (1, 2, 3), 3: (1, 2, 3)}
    inst = make_instance(axes, FeasibilitySystem.uniform(1, [1, 2, 3]))
    out = gvcg(inst, (3, 1, 2))
    assert out.served == {1}
    assert out.threshold_value[1] == 2  # second-highest value
    assert out.payment == {1: 2, 2: 0, 3: 0}


def test_gvcg_nonmat_thresholds():
    inst = nonmat1()
    s = (1, H, F(6, 5))
    out = gvcg(inst, s)
    assert out.tentative == {1, 2}
    assert out.threshold_value[1] == F(7, 10)
    # with agent 2 removed the same agent's threshold jumps
    out13 = gvcg(inst, s, active=frozenset({1, 3}))
    assert out13.threshold_value[1] == F(6, 5)


def test_gvcg_never_wins_marker():
    axes = {1: (1, 2), 2: (5,)}
    inst = make_instance(axes, FeasibilitySystem.uniform(1, [1, 2]))
    out = gvcg(inst, (2, 5))
    assert out.threshold_signal[1] is None
    assert out.threshold_value[1] == math.inf
    assert out.alloc[1] == 0 and out.payment[1] == 0


def enum_threshold_tie_free(inst, s, agent, active):
    """Independent oracle for tie-free scan lines: pure set enumeration.

    Returns "tie" when any scan point has two maximal sets of equal weight,
    in which case the caller skips the comparison (tie resolution is the
    winner rule's business, audited separately).
    """
    idx = inst.grid.index_of(agent)
    sets = inst.feas.restriction(frozenset(active)).feasible_sets()
    maximal = [f for f in sets if not any(f < g for g in sets)]
    for t in inst.grid.axis(agent):
        st = s[:idx] + (t,) + s[idx + 1:]
        weights = {a: value(inst.vp, a, st) for a in active}
        totals = sorted(((sum((weights[a] for a in f), F(0)), f) for f in maximal),
                        key=lambda x: x[0], reverse=True)
        if len(totals) > 1 and totals[0][0] == totals[1][0]:
            return "tie"
        if agent in totals[0][1]:
            return t
    return None


def test_threshold_scan_matches_enumeration_oracle():
    rng = random.Random(1)
    for trial in range(30):
        n = rng.choice([2, 3])
        axes = {i: tuple(sorted(rng.sample(range(1, 40), rng.randint(2, 3))))
                for i in range(1, n + 1)}
        feas = rng.choice([
            FeasibilitySystem.uniform(rng.randint(1, n), list(axes)),
            FeasibilitySystem.partition([[i] for i in axes], [1] * n),
        ])
        inst = make_instance(axes, feas)
        for s in inst.grid.profiles():
            out = gvcg(inst, s)
            for a in inst.agents:
                expect = enum_threshold_tie_free(inst, tuple(s), a, set(inst.agents))
                if expect != "tie":
                    assert out.threshold_signal[a] == expect


def test_threshold_is_minimal_winning_grid_point():
    axes = {1: (1, 2, 3), 2: (1, 3, 4), 3: (2, 3)}
    for feas in (FeasibilitySystem.uniform(2, [1, 2, 3]),
                 FeasibilitySystem.partition([[1, 2], [3]], [1, 1])):
        inst = make_instance(axes, feas)
        all_agents = frozenset(inst.agents)
        for s in inst.grid.profiles():
            out = gvcg(inst, s)
            for a in inst.agents:
                idx = inst.grid.index_of(a)
                wins = [t for t in inst.grid.axis(a)
                        if a in winner_set(inst, s[:idx] + (t,) + s[idx + 1:], all_agents)]
                if out.threshold_signal[a] is None:
                    assert wins == []
                else:
                    assert out.threshold_signal[a] == wins[0]
                    # winning region is an up-set in the own signal
                    axis = inst.grid.axis(a)
                    assert wins == list(axis[axis.index(wins[0]):])


def test_threshold_correctness_invariant():
    # an agent is tentatively selected iff its value meets its threshold
    axes = {1: (1, 2, 4), 2: (1, 2, 4), 3: (1, 3)}
    for feas in (FeasibilitySystem.uniform(1, [1, 2, 3]),
                 FeasibilitySystem.uniform(2, [1, 2, 3]),
                 FeasibilitySystem.partition([[1, 3], [2]], [1, 1])):
        inst = make_instance(axes, feas)
        for s in inst.grid.profiles():
            out = gvcg(inst, s)
            for a in inst.agents:
                v = value(inst.vp, a, s)
                assert (a in out.tentative) == (v >= out.threshold_value[a])


# ----------------------------------------------------------------------
# reserves


def test_conditional_reserve_point_mass():
    axes = {1: (7,), 2: (1,)}
    inst = make_instance(axes, FeasibilitySystem.uniform(1, [1, 2]))
    q = conditional_monopoly_reserve(inst, 1, (7, 1))
    assert (q.price, q.expected_revenue) == (7, 7)


def test_conditional_reserve_tiny1():
    inst = tiny1()
    # other agent at 2: the scanned agent wins only at 2, the tail is a point mass
    q = conditional_monopoly_reserve(inst, 1, (1, 2))
    assert (q.price, q.expected_revenue) == (2, 2)
    # other agent at 1: wins from 1 up, uniform tail, low tie-break price
    q = conditional_monopoly_reserve(inst, 1, (1, 1))
    assert (q.price, q.expected_revenue) == (1, 1)


def test_reserve_callback_masking():
    inst = tiny1()

    def snoop(agent, view):
        return view[agent]  # must blow up

    with pytest.raises(ReserveAuditError):
        resolve_reserves(inst, (1, 1), [1], snoop)

    def legal(agent, view):
        other = 2 if agent == 1 else 1
        return view[other]

    assert resolve_reserves(inst, (1, 2), [1], legal) == {1: 2}


# ----------------------------------------------------------------------
# lazy auction and lookahead


def test_fixed_reserves_follow_agent_order():
    axes = {"alice": (1, 2), "bob": (1, 2)}
    inst = make_instance(axes, FeasibilitySystem.uniform(1, ["alice", "bob"]))
    assert resolve_reserves(inst, (1, 2), inst.agents, "fixed:3,1/2") == {
        "alice": 3, "bob": H}
    lazy = MechanismSpec("gvcg-lazy", reserve_source="fixed:3,3")
    assert expected_revenue(inst, lazy).value == 0
    with pytest.raises(MechanismError, match="unknown agents"):
        resolve_reserves(inst, (1, 2), inst.agents, {1: 3, 2: 3})
    with pytest.raises(MechanismError, match="1 reserves for 2 agents"):
        expected_revenue(tiny1(), MechanismSpec("gvcg-lazy", reserve_source="fixed:3"))


def test_lazy_zero_reserves_equals_gvcg():
    inst = tiny1()
    for s in inst.grid.profiles():
        a = gvcg(inst, s)
        b = gvcg_lazy(inst, s, "none")
        assert a.served == b.served and a.payment == b.payment


def test_lazy_examples():
    inst = tiny1()
    out = gvcg_lazy(inst, (2, 1), {1: 1})
    assert out.tentative == {1} and out.threshold_value[1] == 1
    assert out.served == {1} and out.payment[1] == 1
    out = gvcg_lazy(inst, (1, 1), {1: 2})
    assert out.tentative == {1} and out.served == frozenset()
    assert out.revenue == 0


def test_lookahead_tiny1_profiles_and_revenue():
    inst = tiny1()
    per_profile = {s: lookahead(inst, s).revenue for s, _ in inst.dist.enumerate_support()}
    assert per_profile == {(1, 1): 1, (1, 2): 2, (2, 1): 1, (2, 2): 2}
    est = expected_revenue(inst, MechanismSpec("lookahead"))
    assert est.value == F(3, 2)


def test_gvcg_tiny1_revenue():
    # with grid-scan thresholds under the global tie order the plain auction
    # already extracts 3/2 here (ties at the critical signal go to agent 1)
    inst = tiny1()
    est = expected_revenue(inst, MechanismSpec("gvcg"))
    assert est.value == F(3, 2)


def test_lookahead_point_mass_extracts_surplus():
    axes = {1: (3,), 2: (5,)}
    inst = make_instance(axes, FeasibilitySystem.uniform(1, [1, 2]))
    out = lookahead(inst, (3, 5))
    assert out.served == {2} and out.payment[2] == 5


def test_single_agent_monopoly_revenue():
    axes = {1: (1, 4)}
    grid = SignalGrid(agents=(1,), values=axes)
    dist = JointDistribution(grid, form="product", marginals={
        1: ScalarDistribution([(1, F(3, 4)), (4, F(1, 4))])})
    inst = Instance(grid=grid, dist=dist, vp=private((1,)),
                    feas=FeasibilitySystem.uniform(1, [1]))
    est = expected_revenue(inst, MechanismSpec("lookahead"))
    assert est.value == 1


def test_lookahead_dominates_gvcg():
    rng = random.Random(8)
    for trial in range(10):
        n = rng.choice([2, 3])
        axes = {i: tuple(sorted(rng.sample(range(1, 8), rng.randint(2, 3))))
                for i in range(1, n + 1)}
        feas = FeasibilitySystem.uniform(rng.randint(1, n), list(axes))
        profiles = list(itertools.product(*axes.values()))
        weights = [rng.randint(0, 4) for _ in profiles]
        total = sum(weights) or 1
        if sum(weights) == 0:
            weights[0] = total = 1
        grid = SignalGrid(agents=tuple(axes), values=axes)
        dist = JointDistribution(grid, form="table", table=[
            (p, F(w, total)) for p, w in zip(profiles, weights) if w])
        inst = Instance(grid=grid, dist=dist, vp=private(tuple(axes)), feas=feas)
        lo = expected_revenue(inst, MechanismSpec("lookahead")).value
        gv = expected_revenue(inst, MechanismSpec("gvcg")).value
        assert lo >= gv


# ----------------------------------------------------------------------
# randomized variants


def test_rand_single_full_admission_is_lookahead():
    inst = tiny1()
    for s in inst.grid.profiles():
        a = randomized_single_item(inst, s, {1, 2})
        b = lookahead(inst, s)
        assert a.served == b.served and a.payment == b.payment


def test_rand_single_empty_admission():
    inst = tiny1()
    out = randomized_single_item(inst, (2, 2), frozenset())
    assert out.revenue == 0 and out.served == frozenset()


def test_rand_single_needs_single_item():
    axes = {1: (1, 2), 2: (1, 2)}
    inst = make_instance(axes, FeasibilitySystem.uniform(2, [1, 2]))
    with pytest.raises(WrongVariantError):
        randomized_single_item(inst, (1, 1), {1})


def test_rand_single_gap_full_extraction_when_shadow_admitted_alone():
    inst = gap_instance(3)
    for s1 in (1, 2, 4, 8):
        out = randomized_single_item(inst, (s1, 0), {2})
        assert out.served == {2}
        assert out.payment[2] == F(s1) - F(1, 10)


def test_rand_single_tiny1_exact():
    inst = tiny1()
    est = expected_revenue(inst, MechanismSpec("rand-single"))
    # admission-weighted: 2/9 + 2/9 each singleton at 1, 4/9 lookahead at 3/2
    assert est.value == F(10, 9)


def test_rand_matroid_branches():
    axes = {1: (1, 3), 2: (1, 2), 3: (2, 4)}
    inst = make_instance(axes, FeasibilitySystem.uniform(2, [1, 2, 3]))
    s = (3, 2, 4)
    full = randomized_matroid(inst, s, frozenset(inst.agents))
    look = lookahead(inst, s)
    assert full.served == look.served and full.payment == look.payment
    empty = randomized_matroid(inst, s, frozenset())
    assert empty.revenue == 0
    z = frozenset({2, 3})
    out = randomized_matroid(inst, s, z)
    assert out.tentative == {2, 3}
    assert out.admitted == z


def test_rand_matroid_needs_matroid():
    inst = nonmat1()
    with pytest.raises(WrongVariantError):
        randomized_matroid(inst, (1, H, F(6, 5)), frozenset(inst.agents))


def test_realization_weights_sum_to_one():
    inst = make_instance({1: (1, 2), 2: (1, 2), 3: (1, 2)},
                         FeasibilitySystem.uniform(2, [1, 2, 3]))
    for mech in ("rand-matroid", "gvcg"):
        weights = [w for _, w in realizations(inst, MechanismSpec(mech))]
        assert sum(weights) == 1
    inst1 = tiny1()
    weights = [w for _, w in realizations(inst1, MechanismSpec("rand-single"))]
    assert sum(weights) == 1


def test_realizations_are_admitted_sets():
    part = load_fixture("partition")
    for inst, mech in ((tiny1(), "rand-single"), (part, "rand-matroid")):
        reals = dict(realizations(inst, MechanismSpec(mech)))
        assert len(reals) == 2 ** len(inst.agents)
        assert all(isinstance(z, frozenset) and z <= set(inst.agents) for z in reals)
    # the all-agents set merges the matroid variant's two ways of admitting everyone
    assert reals[frozenset(part.agents)] == H + F(1, 16)
    for mech in ("gvcg", "lookahead", "vcg-eager"):
        assert list(realizations(tiny1(), MechanismSpec(mech))) == [(None, 1)]


# ----------------------------------------------------------------------
# eager reserves


def test_vcg_eager_zero_reserves_is_gvcg():
    inst = tiny1()
    for s in inst.grid.profiles():
        a = gvcg(inst, s)
        b = vcg_eager(inst, s, "none")
        assert a.served == b.served and a.payment == b.payment


def test_vcg_eager_nonmat_reversal():
    inst = nonmat1()
    s = (1, H, F(6, 5))
    reserves = {1: F(0), 2: F(3, 5), 3: F(0)}
    eager = vcg_eager(inst, s, reserves)
    lazy = gvcg_lazy(inst, s, reserves)
    assert lazy.threshold_value[1] == F(7, 10)
    assert eager.threshold_value[1] == F(6, 5)
    assert eager.threshold_value[1] > lazy.threshold_value[1]  # non-matroid reversal


def test_vcg_eager_removed_bidder_example():
    axes = {1: (1, 2, 3), 2: (1, 2, 3)}
    inst = make_instance(axes, FeasibilitySystem.uniform(1, [1, 2]))
    out = vcg_eager(inst, (3, 1), {1: 2, 2: 2})
    assert out.served == {1}
    assert out.payment[1] == 2  # max(reserve, threshold within survivors)


def test_vcg_eager_requires_private():
    axes = {1: (1, 2), 2: (1, 2)}
    inst = make_instance(axes, FeasibilitySystem.uniform(1, [1, 2]),
                         vp=weighted_sum((1, 2), H))
    with pytest.raises(AssumptionError):
        vcg_eager(inst, (1, 1), "none")


def test_eager_thresholds_below_lazy_on_matroids():
    rng = random.Random(21)
    for _ in range(15):
        n = rng.choice([2, 3])
        axes = {i: tuple(sorted(rng.sample(range(1, 9), 2))) for i in range(1, n + 1)}
        feas = FeasibilitySystem.uniform(rng.randint(1, n), list(axes))
        inst = make_instance(axes, feas)
        reserves = {a: F(rng.randint(0, 4)) for a in inst.agents}
        for s in inst.grid.profiles():
            eager = vcg_eager(inst, s, reserves)
            lazy = gvcg_lazy(inst, s, reserves)
            vals = inst.values_at(s)
            u = {a for a in inst.agents if vals[a] >= reserves[a]}
            for a in u:
                assert eager.threshold_value[a] <= lazy.threshold_value[a]
            # welfare dominance, pointwise
            assert eager.welfare(inst, s) >= lazy.welfare(inst, s)


# ----------------------------------------------------------------------
# threshold matching


def test_threshold_matching_single_item():
    axes = {1: (1, 2, 3), 2: (1, 2, 3)}
    inst = make_instance(axes, FeasibilitySystem.uniform(1, [1, 2]))
    f = threshold_matching(inst, (3, 2), frozenset({1}), frozenset({2}))
    assert f == {2: 1}


def test_threshold_matching_empty():
    inst = tiny1()
    assert threshold_matching(inst, (1, 2), frozenset({2}), frozenset()) == {}


def test_threshold_matching_two_uniform():
    axes = {1: (1, 5), 2: (1, 4), 3: (1, 3)}
    inst = make_instance(axes, FeasibilitySystem.uniform(2, [1, 2, 3]))
    s = (5, 4, 3)
    w = winner_set(inst, s, frozenset(inst.agents))
    assert w == {1, 2}
    f = threshold_matching(inst, s, w, frozenset({3}))
    assert set(f) == {3} and f[3] in w
    out = gvcg(inst, s)
    i = f[3]
    idx = inst.grid.index_of(i)
    st = s[:idx] + (out.threshold_signal[i],) + s[idx + 1:]
    assert value(inst.vp, 3, st) <= value(inst.vp, i, st)


def test_threshold_matching_defining_inequality_randomized():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        axes = {i: tuple(sorted(rng.sample(range(1, 12), rng.randint(2, 3))))
                for i in range(1, n + 1)}
        k = rng.randint(1, n)
        feas = FeasibilitySystem.uniform(k, list(axes))
        inst = make_instance(axes, feas)
        s = tuple(rng.choice(axes[i]) for i in sorted(axes))
        w = winner_set(inst, s, frozenset(inst.agents))
        z = frozenset(a for a in inst.agents if rng.random() < 0.5)
        t = winner_set(inst, s, z)
        tp = t - w
        f = threshold_matching(inst, s, w, tp)
        assert sorted(f) == sorted(tp)
        assert len(set(f.values())) == len(f)
        out = gvcg(inst, s)
        for j, i in f.items():
            idx = inst.grid.index_of(i)
            st = s[:idx] + (out.threshold_signal[i],) + s[idx + 1:]
            assert value(inst.vp, j, st) <= value(inst.vp, i, st)


# ----------------------------------------------------------------------
# revenue evaluation


def test_expected_revenue_zero_values():
    axes = {1: (0,), 2: (0,)}
    inst = make_instance(axes, FeasibilitySystem.uniform(1, [1, 2]))
    assert expected_revenue(inst, MechanismSpec("gvcg")).value == 0


def test_expected_revenue_brute_force_agreement():
    # independent oracle: enumerate profiles and admissions directly
    inst = tiny1()
    spec = MechanismSpec("rand-single")
    direct = F(0)
    for s, p in inst.dist.enumerate_support():
        for z in [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]:
            w = (F(2, 3) ** len(z)) * (F(1, 3) ** (2 - len(z)))
            direct += p * w * randomized_single_item(inst, s, z).revenue
    assert expected_revenue(inst, spec).value == direct


def test_rand_matroid_brute_force_agreement():
    # the paper's two-branch law: everyone with probability 1/2, otherwise
    # each agent independently with probability 1/2
    three = make_instance({1: (1, 3), 2: (1, 2), 3: (2, 4)},
                          FeasibilitySystem.uniform(2, [1, 2, 3]))
    for inst in (three, load_fixture("partition")):
        n = len(inst.agents)
        subsets = [frozenset(c) for r in range(n + 1)
                   for c in itertools.combinations(inst.agents, r)]
        direct = F(0)
        for s, p in inst.dist.enumerate_support():
            direct += p * H * randomized_matroid(inst, s, frozenset(inst.agents)).revenue
            for z in subsets:
                direct += p * H * H ** n * randomized_matroid(inst, s, z).revenue
        assert expected_revenue(inst, MechanismSpec("rand-matroid")).value == direct


def test_monte_carlo_stream_pinned():
    # each trial draws the profile, then the all-agents branch if the law
    # has one, then one draw per agent; any change to that order moves these
    for name, mech, expect in (("tiny1", "rand-single", 1.107),
                               ("partition", "rand-matroid", 3.9883333333333333)):
        est = expected_revenue(load_fixture(name), MechanismSpec(mech), mode="monte_carlo",
                               trials=3000, seed=7)
        assert est.value == expect


def test_monte_carlo_within_three_sigma():
    inst = tiny1()
    est = expected_revenue(inst, MechanismSpec("lookahead"), mode="monte_carlo",
                           trials=4000, seed=11)
    assert abs(est.value - 1.5) <= 3 * est.std_error


def test_atom_cap():
    inst = tiny1()
    with pytest.raises(Exception, match="atoms"):
        expected_revenue(inst, MechanismSpec("rand-single"), atom_cap=3)


def test_single_sample_reserves_tiny1():
    inst = tiny1()
    est = expected_revenue(inst, MechanismSpec("gvcg-lazy", reserve_source="single-sample"))
    # independent per-agent integration, checked against a hand enumeration:
    # profile (1,1): W={1}, pbar=1, rho in {1,2} equally; price max(rho,1);
    # sells only at rho=1 -> 1/2. (2,1): rho=1 -> 1, rho=2 -> 2 => 3/2.
    # (1,2): W={2}, pbar=2: price 2 always, v=2 sells -> 2.
    # (2,2): W={1}, pbar=2 -> 2. total (1/2+3/2+2+2)/4 = 3/2.
    assert est.value == F(3, 2)


# ----------------------------------------------------------------------
# revenue upper bound


def test_opt_upper_bound_single_agent():
    axes = {1: (1, 2)}
    inst = make_instance(axes, FeasibilitySystem.uniform(1, [1]))
    assert opt_upper_bound(inst) == 1


def test_opt_upper_bound_tiny1():
    assert opt_upper_bound(tiny1()) == F(11, 4)


def test_opt_upper_bound_point_mass():
    axes = {1: (5,), 2: (3,)}
    inst = make_instance(axes, FeasibilitySystem.uniform(1, [1, 2]))
    assert opt_upper_bound(inst) == 8


def test_zero_probability_marginal_values_move_no_revenue():
    axes = {1: (1, 2, 3, 4), 2: (1, 3)}
    feas = FeasibilitySystem.uniform(1, [1, 2])
    grid = SignalGrid(agents=(1, 2), values=axes)
    revenues = []
    for listed in ([(1, F(1, 4)), (3, F(3, 4))],
                   [(1, F(1, 4)), (2, 0), (3, F(3, 4)), (4, 0)]):
        dist = JointDistribution(grid, form="product", marginals={
            1: ScalarDistribution(listed), 2: ScalarDistribution([(1, H), (3, H)])})
        inst = make_instance(axes, feas, dist=dist)
        revenues.append([expected_revenue(inst, spec).value for spec in (
            MechanismSpec("lookahead"),
            MechanismSpec("gvcg-lazy", reserve_source="monopoly"),
            MechanismSpec("vcg-eager", reserve_source="monopoly"))])
    assert revenues[0] == revenues[1]


# ----------------------------------------------------------------------
# incentive audit


def test_audit_clean_mechanisms_tiny1():
    inst = tiny1()
    for spec in (MechanismSpec("gvcg"), MechanismSpec("lookahead"),
                 MechanismSpec("rand-single"),
                 MechanismSpec("gvcg-lazy", reserve_source="monopoly"),
                 MechanismSpec("vcg-eager", reserve_source="monopoly")):
        assert ic_ir_audit(inst, spec) == []


def test_audit_clean_rand_matroid():
    axes = {1: (1, 3), 2: (1, 2), 3: (2, 4)}
    inst = make_instance(axes, FeasibilitySystem.uniform(2, [1, 2, 3]))
    assert ic_ir_audit(inst, MechanismSpec("rand-matroid")) == []


def test_audit_detects_illegal_reserve_hook():
    inst = tiny1()
    bad = ic_ir_audit(inst, MechanismSpec("gvcg-lazy", reserve_source="unsafe-own-value"))
    assert bad
    assert any(v.kind == "ic" for v in bad)


def test_audit_interdependent_gvcg():
    axes = {1: (0, 1, 2), 2: (0, 1, 2)}
    inst = make_instance(axes, FeasibilitySystem.uniform(1, [1, 2]),
                         vp=weighted_sum((1, 2), H))
    assert ic_ir_audit(inst, MechanismSpec("gvcg")) == []


def test_gvcg_refuses_single_crossing_failure():
    axes = {1: (0, 1), 2: (0, 1)}
    inst = make_instance(axes, FeasibilitySystem.uniform(1, [1, 2]),
                         vp=weighted_sum((1, 2), 1))
    with pytest.raises(AssumptionError):
        gvcg(inst, (0, 1))


def test_reserves_and_upper_bound_refuse_flat_own_values():
    # values flat in the agent's own signal: every entry point that prices
    # on v_agent(., s_-agent) refuses the instance the way the auctions do
    axes = {1: (0, 1)}
    inst = make_instance(axes, FeasibilitySystem.uniform(1, [1]),
                         vp=table((1,), {1: {(0,): 0, (1,): 0}}))
    with pytest.raises(AssumptionError):
        lookahead(inst, (0,))
    with pytest.raises(AssumptionError):
        conditional_monopoly_reserve(inst, 1, (0,))
    with pytest.raises(AssumptionError):
        conditional_value_distribution(inst, 1, (0,))
    with pytest.raises(AssumptionError):
        opt_upper_bound(inst)


def test_gvcg_refuses_interdependent_on_non_matroid():
    axes = {1: (0, 1), 2: (0, 1), 3: (0, 1)}
    feas = FeasibilitySystem.explicit([[], [1], [2], [1, 2], [3]], ground=[1, 2, 3])
    inst = make_instance(axes, feas, vp=weighted_sum((1, 2, 3), H))
    with pytest.raises(WrongVariantError, match="matroid"):
        gvcg(inst, (1, 0, 1))


def test_outcome_invariants_across_mechanisms():
    from auctionlab.mechanisms import realizations, run_realized

    fixtures = [tiny1(), nonmat1(), gap_instance(2)]
    for inst in fixtures:
        specs = [MechanismSpec("gvcg"), MechanismSpec("lookahead"),
                 MechanismSpec("gvcg-lazy", reserve_source="conditional")]
        if not inst.vp.interdependent:
            specs.append(MechanismSpec("vcg-eager", reserve_source="monopoly"))
        if inst.feas.is_matroid:
            specs.append(MechanismSpec("rand-matroid"))
        for spec in specs:
            for realization, _ in realizations(inst, spec):
                for s, _ in inst.dist.enumerate_support():
                    out = run_realized(inst, spec, s, realization)
                    assert inst.feas.is_independent(out.served)
                    for a in inst.agents:
                        if out.alloc[a] == 0:
                            assert out.payment[a] == 0
                        assert out.payment[a] >= 0
                        if a in out.served:
                            v = value(inst.vp, a, s)
                            expect = max(out.reserve[a], out.threshold_value[a])
                            assert out.payment[a] == expect <= v


def test_plain_reserve_conditioning_is_clean_and_weaker():
    # the analysis-style conditioning (no winner event) is also incentive
    # compatible; with the truncation dropped the posted price can only
    # move down, never up past the threshold
    inst = tiny1()
    spec = MechanismSpec("rand-single", event_mode="unconditioned")
    assert ic_ir_audit(inst, spec) == []
    rev_plain = expected_revenue(inst, spec).value
    rev_winner = expected_revenue(inst, MechanismSpec("rand-single")).value
    assert rev_plain <= rev_winner


# ----------------------------------------------------------------------
# golden outcomes

# measured on the fixture corpus before the auctions shared one core
GOLDEN_RUNS = 1626
GOLDEN_OUTCOMES = "69dce1412fe7e6121db6d8ff77f480221da09db82b19f5df52ac167ba6d934ea"
GOLDEN_QUOTES = "62c09bb55afc63060e515d9ce96e5e4653eaf90575390ba0ac3d0c5d4a6d8ffc"


def _digest_specs(inst):
    specs = [MechanismSpec("gvcg"),
             MechanismSpec("lookahead"),
             MechanismSpec("gvcg-lazy", reserve_source="conditional")]
    if not inst.vp.interdependent:
        specs.append(MechanismSpec("gvcg-lazy", reserve_source="monopoly"))
        specs.append(MechanismSpec("vcg-eager", reserve_source="monopoly"))
    feas = inst.feas
    randomized = []
    if (feas.is_matroid and all(feas.is_independent({a}) for a in inst.agents)
            and not any(len(f) > 1 for f in feas.feasible_sets())):
        randomized.append("rand-single")
    if feas.is_matroid:
        randomized.append("rand-matroid")
    for mech in randomized:
        specs.append(MechanismSpec(mech))
        specs.append(MechanismSpec(mech, event_mode="unconditioned"))
    return specs


def _outcome_digest(instances):
    """SHA-256 over every outcome field of every run: instance x spec x
    realization x grid profile.  Values enter by repr, so a changed type
    (Fraction against int or float) changes the digest too."""
    import hashlib

    h = hashlib.sha256()
    runs = 0
    for inst in instances:
        agents = inst.agents

        def per_agent(d):
            return [repr(d[a]) for a in agents]

        def as_set(z):
            return None if z is None else sorted(map(repr, z))

        for spec in _digest_specs(inst):
            for realization, _ in realizations(inst, spec):
                for s in inst.grid.profiles():
                    out = run_realized(inst, spec, s, realization)
                    h.update(repr((
                        inst.name, spec, as_set(realization), s,
                        per_agent(out.alloc), per_agent(out.payment),
                        per_agent(out.threshold_signal), per_agent(out.threshold_value),
                        per_agent(out.reserve), as_set(out.tentative),
                        as_set(out.served), as_set(out.admitted),
                    )).encode())
                    runs += 1
    return runs, h.hexdigest()


def _quote_digest(instances):
    """SHA-256 over every conditional reserve quote (price, conditional
    revenue, fallback label) at every grid profile in both event modes."""
    import hashlib

    h = hashlib.sha256()
    for inst in instances:
        for s in inst.grid.profiles():
            for a in inst.agents:
                for mode in ("winner_conditioned", "unconditioned"):
                    q = conditional_monopoly_reserve(inst, a, s, event_mode=mode)
                    h.update(repr((inst.name, s, a, mode, q.price, q.expected_revenue,
                                   q.fallback)).encode())
    return h.hexdigest()


def test_outcome_digest_pinned():
    from auctionlab.instances import corpus_names

    corpus = [load_fixture(n) for n in corpus_names()]
    runs, digest = _outcome_digest(corpus)
    assert runs == GOLDEN_RUNS
    assert digest == GOLDEN_OUTCOMES
    assert _quote_digest(corpus) == GOLDEN_QUOTES


def test_reserve_fallback_labels():
    # the winner event has no conditional mass: given s2 = 2 agent 1 has
    # signal 1, below its threshold 2
    axes = {1: (1, 2), 2: (1, 2)}
    grid = SignalGrid(agents=(1, 2), values=axes)
    dist = JointDistribution(grid, form="table", table=[((1, 2), H), ((2, 1), H)])
    inst = make_instance(axes, FeasibilitySystem.uniform(1, [1, 2]), dist=dist)
    q = conditional_monopoly_reserve(inst, 1, (1, 2))
    assert (q.price, q.fallback) == (1, "unconditioned")
    assert conditional_monopoly_reserve(inst, 1, (1, 2),
                                        event_mode="unconditioned").fallback == ""
    # at (2, 2) agent 1 wins the tie and is quoted through the same fallback
    assert lookahead(inst, (2, 2)).reserve[1] == 1
    # the agent never wins: an empty winner event as well
    never = make_instance({1: (1, 2), 2: (5,)}, FeasibilitySystem.uniform(1, [1, 2]))
    q = conditional_monopoly_reserve(never, 1, (2, 5))
    assert (q.price, q.fallback) == (1, "unconditioned")
    # agent 2's grid value 2 has no support, so the others' signals at the
    # off-support profile (1, 2) condition on nothing
    dist = JointDistribution(grid, form="table", table=[((1, 1), H), ((2, 1), H)])
    inst = make_instance(axes, FeasibilitySystem.uniform(1, [1, 2]), dist=dist)
    # agent 1's prior is uniform on {1, 2}; the winner event keeps only 2
    q = conditional_monopoly_reserve(inst, 1, (1, 2))
    assert (q.price, q.fallback) == (2, "prior-marginal")
    q = conditional_monopoly_reserve(inst, 1, (1, 2), event_mode="unconditioned")
    assert (q.price, q.fallback) == (1, "prior-marginal")
    # agent 1's grid value 1 has support, so agent 2's quote conditions normally
    assert conditional_monopoly_reserve(inst, 2, (1, 2),
                                        event_mode="unconditioned").fallback == ""
