"""The walk's price memo changes no outcome.

A walk or a Monte Carlo run reads each tentative winner's take-it-or-leave-it
price from a memo keyed by (agent, column, scan mask), or by the profile when
the price reads the agent's own signal (the ``unsafe-own-value`` canary).
Every outcome a walk builds must equal a fresh ``run_realized`` of the same
profile on a copy of the instance whose tables are empty, which prices every
winner on its own.  A key that shares a price
down a column where the price reads the own signal shows up as a difference.
"""
import copy
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from auctionlab import mechanisms
from auctionlab.distributions import DistributionError
from auctionlab.instances import corpus_names, load_fixture
from auctionlab.matroid import max_weight_basis
from auctionlab.mechanisms import (
    Instance,
    MechanismError,
    MechanismSpec,
    ReserveAuditError,
    conditional_monopoly_reserve,
    expected_revenue,
    ic_ir_audit,
    opt_upper_bound,
    realizations,
    run_realized,
    walk,
    winner_set,
)
from auctionlab.runner import ExperimentSpec, run
from test_oracle_differential import instances


def half_the_others(agent, view):
    """A legal reserve callback: half the sum of the other agents' signals."""
    return Fraction(sum((x for _, x in view.items()), 0)) / 2


def own_signal(agent, view):
    """An illegal reserve callback: it reads the agent's own signal."""
    return view[agent]


def specs(inst):
    fixed = "fixed:" + ",".join(str(i + 1) for i in range(len(inst.agents)))
    mapping = {a: Fraction(i + 1, 3) for i, a in enumerate(inst.agents)}
    sources = ("none", "conditional", "monopoly", fixed, mapping, half_the_others,
               "unsafe-own-value")
    out = [MechanismSpec(m) for m in ("gvcg", "lookahead", "rand-single", "rand-matroid")]
    out += [MechanismSpec("rand-matroid", event_mode="unconditioned")]
    out += [MechanismSpec("gvcg-lazy", reserve_source=r) for r in sources]
    out += [MechanismSpec("vcg-eager", reserve_source=r)
            for r in ("none", "conditional", "monopoly", fixed)]
    return out


def result(fn):
    """The call's result, or the type and text of the error it raised."""
    try:
        return fn()
    except (MechanismError, DistributionError) as exc:
        return type(exc).__name__, str(exc)


def walked(inst, spec):
    """(the outcome the walk built per (admitted mask, profile number), in the
    order built, and the error that stopped the walk, or None)."""
    built, core = {}, mechanisms._core

    def record(instance, spec, k, z, prices):
        built[z, k] = core(instance, spec, k, z, prices)
        return built[z, k]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mechanisms, "_core", record)
        try:
            walk(inst, spec)
        except (MechanismError, DistributionError) as exc:
            return built, (type(exc).__name__, str(exc))
    return built, None


def check_walk_equals_fresh_runs(inst):
    checked = 0
    for spec in specs(inst):
        fresh = copy.deepcopy(inst)
        fresh.release_tables()
        built, stopped = walked(inst, spec)
        # the walk's order: realizations, then profile numbers
        order = [(realization, None if realization is None else fresh.mask(realization), k)
                 for realization, _ in realizations(fresh, spec)
                 for k in range(math.prod(fresh.grid.sizes))]
        for realization, z, k in order:
            def public():
                out = run_realized(fresh, spec, fresh.grid.profile_at(k), realization)
                return fresh.mask(out.served), [fresh.value_scale * out.payment[a]
                                                for a in fresh.agents]
            if (z, k) not in built:
                # the walk stopped here: the fresh run fails alike
                assert stopped is not None and result(public) == stopped, (spec, z, k)
                break
            assert built[z, k] == public(), (spec, realization, k)
            checked += 1
    return checked


@pytest.mark.parametrize("name", corpus_names())
def test_fixture_walk_outcomes_equal_fresh_runs(name):
    assert check_walk_equals_fresh_runs(load_fixture(name)) > 0


@settings(max_examples=80, deadline=None)
@given(instances())
def test_walk_outcomes_equal_fresh_runs(inst):
    check_walk_equals_fresh_runs(inst)


@pytest.mark.parametrize("name, mech", [("partition", "rand-matroid"), ("gap3", "lookahead"),
                                        ("gap2", "rand-single")])
def test_columns_share_prices_and_the_walk_frees_them(name, mech):
    inst = load_fixture(name)
    found = walk(inst, MechanismSpec(mech))
    assert 0 < found.prices < found.outcomes
    assert found.revenue.prices == found.prices


def test_the_canary_prices_per_profile_and_the_eager_auction_per_column():
    inst = load_fixture("partition")
    # one entry per winner per profile, against one per winner per column
    reads = sum(len(winner_set(inst, s, frozenset(inst.agents))) for s in inst.grid.profiles())
    assert walk(inst, MechanismSpec("gvcg-lazy")).prices < reads
    canary = MechanismSpec("gvcg-lazy", reserve_source="unsafe-own-value")
    assert walk(inst, canary).prices == reads
    # the eager survivor set reads the own signal, but the scan mask keys it
    eager = [walk(inst, MechanismSpec("vcg-eager", reserve_source=source)).prices
             for source in ("none", "monopoly")]
    assert eager[0] == walk(inst, MechanismSpec("gvcg-lazy")).prices
    assert 0 < eager[1] < reads


def test_the_canary_still_fails_the_audit():
    violations = ic_ir_audit(load_fixture("gap3"),
                             MechanismSpec("gvcg-lazy", reserve_source="unsafe-own-value"))
    assert violations and {v.kind for v in violations} == {"ic"}


@pytest.mark.parametrize("mech", ["gvcg-lazy", "vcg-eager"])
def test_a_callback_that_reads_its_own_signal_is_refused(mech):
    inst = load_fixture("tiny1")
    spec = MechanismSpec(mech, reserve_source=own_signal)
    for call in (lambda: walk(inst, spec), lambda: expected_revenue(inst, spec),
                 lambda: expected_revenue(inst, spec, "monte_carlo", trials=5)):
        with pytest.raises(ReserveAuditError):
            call()


def test_the_assumptions_are_checked_once_per_walk_or_run(monkeypatch):
    inst = load_fixture("partition")
    calls = []
    check = Instance.require_single_crossing
    monkeypatch.setattr(Instance, "require_single_crossing",
                        lambda self: calls.append(1) or check(self))
    spec = MechanismSpec("rand-matroid")
    found = walk(inst, spec)
    assert found.outcomes > 1 and len(calls) == 1
    expected_revenue(inst, spec, "monte_carlo", trials=50)
    assert len(calls) == 2
    run_realized(inst, spec, next(iter(inst.grid.profiles())), inst.agents)
    assert len(calls) == 3


def test_release_tables_frees_both_memos():
    inst = load_fixture("partition")
    run_realized(inst, MechanismSpec("lookahead"), inst.grid.profile_at(0), None)
    independence = len(inst._independent)
    held = inst.release_tables()
    assert held["independence"] == independence > 0
    assert inst._independent == {}


def test_the_sidecar_counts_both_memos():
    a, b = load_fixture("partition"), load_fixture("tiny1")
    report = run(ExperimentSpec(mechanisms=["lookahead", "rand-matroid"], instances=[a, b],
                                compute_oracle=False))
    assert list(report.metadata["prices"]) == list(report.metadata["outcomes"])
    assert list(report.metadata["prices"].values()) == [r.prices for r in report.rows]
    assert all(r.prices > 0 for r in report.rows)
    assert all(t["independence"] > 0 for t in report.metadata["tables"])
    mc = run(ExperimentSpec(mechanisms=["lookahead"], instances=[load_fixture("tiny1")],
                            mode="monte_carlo", trials=20, compute_oracle=False))
    (row,) = mc.rows
    assert row.prices > 0 and mc.metadata["prices"] == {"tiny1/lookahead": row.prices}


def reference_upper_bound(inst):
    """The bound summed profile by profile in instance units: each winner's
    winner-conditioned quote revenue plus the losers' best feasible welfare."""
    total = 0
    for s in inst.dist.support_profiles():
        w = winner_set(inst, s, frozenset(inst.agents))
        quotes = sum((conditional_monopoly_reserve(inst, a, s).expected_revenue for a in w), 0)
        losers = [a for a in inst.agents if a not in w]
        best = max_weight_basis(inst.feas.restriction(losers),
                                {a: inst.value(a, s) for a in losers},
                                [a for a in inst.tie_break if a in losers])
        welfare = sum((inst.value(a, s) for a in best.elements), 0)
        total += inst.dist.probability(s) * (quotes + welfare)
    return total


@pytest.mark.parametrize("name", [n for n in corpus_names() if load_fixture(n).feas.is_matroid])
def test_upper_bound_matches_the_profile_by_profile_sum(name):
    inst = load_fixture(name)
    assert opt_upper_bound(inst) == reference_upper_bound(copy.deepcopy(inst))


def test_no_command_imports_numpy(tmp_path):
    # a Monte Carlo run without the oracle; then the oracle and a run with it
    # on an instance whose solve takes a restricted round (2 rounds, 4 pivots)
    planted = str(tmp_path / "correlated-private-s107-15.yaml")
    code = ("import sys\n"
            "from auctionlab import cli\n"
            "status = cli.main(['run', '--instance', 'src/auctionlab/fixtures/tiny1.yaml',"
            " '--mechanism', 'lookahead', '--mode', 'mc', '--trials', '50', '--no-oracle',"
            " '--no-upper-bound'])\n"
            "status = status or cli.main(['gen', '--generator', 'correlated-private',"
            " '--param', 'n=3', '--param', 'grid=3', '--param', 'kind=2-uniform',"
            f" '--count', '16', '--seed', '107', '--out', {str(tmp_path)!r}])\n"
            f"status = status or cli.main(['oracle', '--instance', {planted!r}])\n"
            f"status = status or cli.main(['run', '--instance', {planted!r},"
            " '--mechanism', 'lookahead'])\n"
            "sys.exit(10 if 'numpy' in sys.modules else status)\n")
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=root, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert "correlated-private-s107-15: optimal revenue = 283/26" in done.stdout
    assert "4 pivots" in done.stdout
