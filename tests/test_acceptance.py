"""Acceptance suite: the guarantees the package is built to demonstrate.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Everything here uses exact rational arithmetic unless stated otherwise.
"""
import itertools
import random
import time
from fractions import Fraction

import pytest

from auctionlab.distributions import (
    JointDistribution,
    ScalarDistribution,
    SignalGrid,
    monopoly_price,
    revenue_curve,
)
from auctionlab.generators import generate_instances
from auctionlab.instances import corpus_names, load_fixture
from auctionlab.matroid import (
    FeasibilitySystem,
    coupled_exchange_walk,
    exchange_bijection,
    max_weight_basis,
)
from auctionlab.mechanisms import (
    Instance,
    MechanismSpec,
    expected_revenue,
    gvcg,
    gvcg_lazy,
    ic_ir_audit,
    lookahead,
    opt_upper_bound,
    threshold_matching,
    vcg_eager,
    winner_set,
)
from auctionlab.oracle import opt_revenue, verify_witness
from auctionlab.valuations import private, value

F = Fraction
TOL = F(1, 10 ** 9)


def record(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>2} {status}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def corpus():
    return [load_fixture(n) for n in corpus_names()]


def matroid_corpus():
    return [inst for inst in corpus() if inst.feas.is_matroid]


# ----------------------------------------------------------------------
# 1. lookahead earns at least half the optimal revenue


def correlated_private_family():
    out = []
    seed = 100
    for kind in ("1-uniform", "2-uniform", "partition"):
        for n, grid in ((2, 2), (2, 3), (3, 2), (3, 3)):
            out.extend(generate_instances(
                "correlated-private",
                {"n": n, "grid": grid, "kind": kind, "count": 17},
                seed=seed))
            seed += 1
    return out


def test_acceptance_01_lookahead_two_approx():
    start = time.time()
    family = correlated_private_family()
    assert len(family) >= 200
    violations = 0
    audited = 0
    for i, inst in enumerate(family):
        rev = expected_revenue(inst, MechanismSpec("lookahead")).value
        res = opt_revenue(inst)
        opt = res.value
        if 2 * rev < opt:
            violations += 1
        if i % 10 == 0:
            audited += 1
            assert ic_ir_audit(inst, MechanismSpec("lookahead")) == []
            assert verify_witness(inst, res.witness) == []
    elapsed = time.time() - start
    record(1, "lookahead revenue is at least half of optimal",
           violations == 0 and elapsed <= 300,
           f"{len(family)} instances, {audited} audited, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 2. randomized single-item variant: 4.5-approximation


def interdependent_family(kind, total):
    out = []
    per = total // 3 + 1
    seed = 300 if kind == "1-uniform" else 400
    for gen in ("weighted-sum", "additive", "concave-additive"):
        for n, grid in ((2, 3), (3, 2), (3, 3)):
            out.extend(generate_instances(
                gen, {"n": n, "grid": grid, "kind": kind, "count": per // 3 + 1},
                seed=seed))
            seed += 1
    return out


def test_acceptance_02_randomized_single_item_45():
    start = time.time()
    family = interdependent_family("1-uniform", 100)
    assert len(family) >= 100
    bad = 0
    for inst in family:
        rep = inst.assumption_report()
        assert rep["single_crossing"] == [] and rep["cross_responsiveness"] == []
        rev = expected_revenue(inst, MechanismSpec("rand-single")).value
        opt = opt_revenue(inst).value
        if 9 * rev < 2 * opt:
            bad += 1
    elapsed = time.time() - start
    record(2, "randomized single-item variant is a 4.5-approximation",
           bad == 0 and elapsed <= 600,
           f"{len(family)} instances, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 3. randomized matroid variant: 18-approximation


def test_acceptance_03_randomized_matroid_18():
    start = time.time()
    family = []
    for kind in ("2-uniform", "partition"):
        family.extend(interdependent_family(kind, 52))
    assert len(family) >= 100
    bad = 0
    for inst in family:
        rev = expected_revenue(inst, MechanismSpec("rand-matroid")).value
        opt = opt_revenue(inst).value
        if 18 * rev < opt:
            bad += 1
    elapsed = time.time() - start
    record(3, "randomized matroid variant is an 18-approximation",
           bad == 0 and elapsed <= 900,
           f"{len(family)} instances, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 4. the gap family: lookahead starves, randomized admission does not


def test_acceptance_04_gap_family():
    start = time.time()
    look_ratios = []
    rand_ratios = []
    for k in range(1, 9):
        inst = load_fixture(f"gap{k}")
        opt = opt_revenue(inst).value
        look = expected_revenue(inst, MechanismSpec("lookahead")).value
        rand = expected_revenue(inst, MechanismSpec("rand-single")).value
        look_ratios.append(look / opt)
        rand_ratios.append(rand / opt)
    strictly_decreasing = all(a > b for a, b in zip(look_ratios, look_ratios[1:]))
    halved = look_ratios[7] < look_ratios[0] / 2
    floor = all(r >= F(2, 9) - TOL for r in rand_ratios)
    elapsed = time.time() - start
    record(4, "gap family: lookahead ratio collapses, randomized stays at 2/9",
           strictly_decreasing and halved and floor and elapsed <= 60,
           f"lookahead {float(look_ratios[0]):.3f}->{float(look_ratios[7]):.3f}, "
           f"min rand {float(min(rand_ratios)):.3f}, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 5. incentive audits across the corpus


def applicable_specs(inst):
    specs = [MechanismSpec("gvcg"),
             MechanismSpec("lookahead"),
             MechanismSpec("gvcg-lazy", reserve_source="conditional")]
    if not inst.vp.interdependent:
        specs.append(MechanismSpec("gvcg-lazy", reserve_source="monopoly"))
        specs.append(MechanismSpec("vcg-eager", reserve_source="monopoly"))
    single_item = (inst.feas.is_matroid
                   and all(inst.feas.is_independent({a}) for a in inst.agents)
                   and not any(len(f) > 1 for f in inst.feas.feasible_sets()))
    if single_item:
        specs.append(MechanismSpec("rand-single"))
    if inst.feas.is_matroid:
        specs.append(MechanismSpec("rand-matroid"))
    return specs


def test_acceptance_05_ic_ir_audits():
    start = time.time()
    total_pairs = 0
    dirty = []
    for inst in corpus():
        for spec in applicable_specs(inst):
            violations = ic_ir_audit(inst, spec)
            total_pairs += 1
            if violations:
                dirty.append((inst.name, spec.mech_id, len(violations)))
    canary = ic_ir_audit(load_fixture("tiny1"),
                         MechanismSpec("gvcg-lazy", reserve_source="unsafe-own-value"))
    elapsed = time.time() - start
    record(5, "audits: clean mechanisms have zero violations, canary is caught",
           not dirty and len(canary) >= 1,
           f"{total_pairs} fixture/mechanism pairs, canary {len(canary)} "
           f"violations, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 6. the posted-price + disjoint-welfare upper bound


def test_acceptance_06_opt_upper_bound():
    bad = []
    for inst in matroid_corpus():
        opt = opt_revenue(inst).value
        bound = opt_upper_bound(inst)
        if opt > bound:
            bad.append(inst.name)
    record(6, "oracle optimum never exceeds the revenue upper bound (exactly)",
           not bad, f"{len(matroid_corpus())} matroid fixtures")


# ----------------------------------------------------------------------
# 7. sampled-admission welfare: the quarter bound


def test_acceptance_07_quarter_bound_and_walk():
    start = time.time()
    worst = None
    for inst in matroid_corpus():
        agents = frozenset(inst.agents)
        n = len(inst.agents)
        for s, _ in inst.dist.enumerate_support():
            w = winner_set(inst, s, agents)
            rest = agents - w
            if rest:
                sub = inst.feas.restriction(rest)
                weights = {a: value(inst.vp, a, s) for a in rest}
                tie = [a for a in inst.tie_break if a in rest]
                wp_value = max_weight_basis(sub, weights, tie).weight
            else:
                wp_value = F(0)
            total = F(0)
            for z in map(frozenset, _powerset(inst.agents)):
                t = winner_set(inst, s, z)
                total += sum((value(inst.vp, a, s) for a in t - w), F(0))
            avg = total / (2 ** n)
            if 4 * avg < wp_value:
                worst = (inst.name, s)
            # the mechanism's overall admission mix keeps half of that
            overall = avg / 2
            if 8 * overall < wp_value:
                worst = (inst.name, s, "overall")

    walk_ok = True
    walk_fixtures = [
        (FeasibilitySystem.uniform(2, list(range(4))), {0, 1}, {2, 3}),
        (FeasibilitySystem.partition([["a", "c"], ["b", "d"]], [1, 1]),
         {"a", "b"}, {"c", "d"}),
        (FeasibilitySystem.uniform(5, list(range(10))), set(range(5)), set(range(5, 10))),
    ]
    for sys_, w, wp in walk_fixtures:
        r = len(w)
        hits = {e: 0 for e in wp}
        for flips in itertools.product([0, 1], repeat=2 * r):
            a_final, z = coupled_exchange_walk(sys_, w, wp, flips)
            for e in wp:
                if e in (a_final & z):
                    hits[e] += 1
        if any(h * 4 != 2 ** (2 * r) for h in hits.values()):
            walk_ok = False
    elapsed = time.time() - start
    record(7, "subsampled welfare quarter bound and exact 1/4 walk frequencies",
           worst is None and walk_ok, f"{elapsed:.1f}s")


def _powerset(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


# ----------------------------------------------------------------------
# 8. exchange machinery on a thousand random matroid fixtures


def _random_matroid(rng):
    kind = rng.choice(["uniform", "partition", "graphic", "transversal"])
    n = rng.randint(2, 6)
    agents = list(range(1, n + 1))
    if kind == "uniform":
        return FeasibilitySystem.uniform(rng.randint(1, n), agents)
    if kind == "partition":
        cut = rng.randint(1, n - 1)
        return FeasibilitySystem.partition([agents[:cut], agents[cut:]],
                                           [rng.randint(1, 2), rng.randint(1, 2)],
                                           ground=agents)
    if kind == "graphic":
        verts = ["u", "v", "w", "x"]
        edges = {a: tuple(rng.sample(verts, 2)) for a in agents}
        return FeasibilitySystem.graphic(edges)
    rights = ["p", "q", "r"]
    adjacency = {a: rng.sample(rights, rng.randint(1, 3)) for a in agents}
    return FeasibilitySystem.transversal(adjacency)


def test_acceptance_08_matching_and_bijection_thousand():
    start = time.time()
    rng = random.Random(2025)
    matched = 0
    bijections = 0
    while matched < 1000:
        feas = _random_matroid(rng)
        agents = tuple(feas.ground)
        axes = {a: tuple(sorted(rng.sample(range(1, 30), 2))) for a in agents}
        grid = SignalGrid(agents=agents, values=axes)
        marginals = {a: ScalarDistribution([(v, F(1, 2)) for v in axes[a]])
                     for a in agents}
        dist = JointDistribution(grid, form="product", marginals=marginals)
        inst = Instance(grid=grid, dist=dist, vp=private(agents), feas=feas)
        s = tuple(rng.choice(axes[a]) for a in agents)
        w = winner_set(inst, s, frozenset(agents))
        z = frozenset(a for a in agents if rng.random() < 0.5)
        tp = winner_set(inst, s, z) - w
        f = threshold_matching(inst, s, w, tp)
        assert sorted(f) == sorted(tp)
        assert len(set(f.values())) == len(f)
        out = gvcg(inst, s)
        for j, i in f.items():
            idx = inst.grid.index_of(i)
            st = s[:idx] + (out.threshold_signal[i],) + s[idx + 1:]
            assert value(inst.vp, j, st) <= value(inst.vp, i, st)
        matched += 1

        rank = feas.rank(feas.ground_set)
        bases = [fset for fset in feas.feasible_sets() if len(fset) == rank]
        if len(bases) >= 2:
            b1, b2 = rng.choice(bases), rng.choice(bases)
            g = exchange_bijection(feas, b1, b2)
            assert sorted(g) == sorted(b1 - b2)
            assert len(set(g.values())) == len(g)
            for e, y in g.items():
                assert feas.is_independent(b2 - {y} | {e})
            bijections += 1
    elapsed = time.time() - start
    record(8, "threshold matching and exchange bijection on 1000 random fixtures",
           matched == 1000 and bijections > 500,
           f"{matched} matchings, {bijections} bijections, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 9/10/11 share a family of regular independent private fixtures


@pytest.fixture(scope="module")
def regular_family():
    out = []
    seed = 900
    for n, grid in ((1, 3), (2, 2), (2, 3), (3, 2), (3, 3)):
        out.extend(generate_instances(
            "regular-marginals", {"n": n, "grid": grid, "count": 21}, seed=seed))
        seed += 1
    assert len(out) >= 100
    return out


def test_acceptance_09_lookahead_price_is_max_of_threshold_and_monopoly(regular_family):
    mismatches = 0
    checked = 0
    for inst in regular_family:
        mono = {a: monopoly_price(inst.dist.marginal(a))[0] for a in inst.agents}
        for s, _ in inst.dist.enumerate_support():
            out = lookahead(inst, s)
            for a in out.tentative:
                price = max(out.reserve[a], out.threshold_value[a])
                if price != max(out.threshold_value[a], mono[a]):
                    mismatches += 1
                checked += 1
    record(9, "lookahead take-it-or-leave-it price equals max(threshold, monopoly)",
           mismatches == 0, f"{checked} winner/profile pairs")


def test_acceptance_10_single_sample_alpha_fraction(regular_family):
    bad = 0
    for inst in regular_family:
        alphas = []
        for a in inst.agents:
            d = inst.dist.marginal(a)
            mono_rev = monopoly_price(d)[1]
            sampled = sum((p * dict(revenue_curve(d))[v] for v, p in d), F(0))
            alphas.append(sampled / mono_rev)
        alpha = min(alphas)
        rev_ss = expected_revenue(
            inst, MechanismSpec("gvcg-lazy", reserve_source="single-sample")).value
        rev_mono = expected_revenue(
            inst, MechanismSpec("gvcg-lazy", reserve_source="monopoly")).value
        if rev_ss < alpha * rev_mono - TOL:
            bad += 1
    record(10, "single-sample reserves keep an alpha fraction of monopoly-reserve revenue",
           bad == 0, f"{len(regular_family)} instances")


def test_acceptance_11_eager_dominates_lazy(regular_family):
    rev_bad = 0
    welfare_bad = 0
    threshold_bad = 0
    for inst in regular_family:
        mono = MechanismSpec("vcg-eager", reserve_source="monopoly")
        lazy = MechanismSpec("gvcg-lazy", reserve_source="monopoly")
        rev_e = expected_revenue(inst, mono).value
        rev_l = expected_revenue(inst, lazy).value
        if rev_e < rev_l - TOL:
            rev_bad += 1
        reserves = {a: monopoly_price(inst.dist.marginal(a))[0] for a in inst.agents}
        for s, _ in inst.dist.enumerate_support():
            out_e = vcg_eager(inst, s, reserves)
            out_l = gvcg_lazy(inst, s, reserves)
            if out_e.welfare(inst, s) < out_l.welfare(inst, s):
                welfare_bad += 1
            vals = inst.values_at(s)
            u = {a for a in inst.agents if vals[a] >= reserves[a]}
            for a in u:
                if out_e.threshold_value[a] > out_l.threshold_value[a]:
                    threshold_bad += 1
    record(11, "eager reserves dominate lazy reserves on matroids",
           rev_bad == 0 and welfare_bad == 0 and threshold_bad == 0,
           f"{len(regular_family)} instances")


# ----------------------------------------------------------------------
# 12. the non-matroid threshold reversal, exactly


def test_acceptance_12_nonmatroid_reversal():
    inst = load_fixture("nonmat1")
    s = (F(1), F(1, 2), F(6, 5))
    full = gvcg(inst, s)
    removed = gvcg(inst, s, active=frozenset({1, 3}))
    eager = vcg_eager(inst, s, {1: F(0), 2: F(3, 5), 3: F(0)})
    ok = (full.threshold_value[1] == F(7, 10)
          and removed.threshold_value[1] == F(6, 5)
          and eager.threshold_value[1] == F(6, 5))
    record(12, "removing the middle agent raises the first agent's threshold "
               "from 7/10 to 6/5", ok,
           f"thresholds {full.threshold_value[1]} -> {removed.threshold_value[1]}")
