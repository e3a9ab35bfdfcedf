import json
from fractions import Fraction

import pytest

from auctionlab.generators import generate_instances
from auctionlab.instances import fixture_path, load_fixture
from auctionlab.mechanisms import MechanismError, MechanismSpec, expected_revenue
from auctionlab.runner import ExperimentSpec, SpecError, run, write_report

F = Fraction


def test_run_tiny1_exact():
    spec = ExperimentSpec(mechanisms=["gvcg", "lookahead"],
                          paths=[fixture_path("tiny1")])
    report = run(spec)
    assert report.ok
    by_mech = {r.spec.mech_id: r for r in report.rows}
    assert by_mech["lookahead"].revenue == F(3, 2)
    assert by_mech["lookahead"].oracle == F(3, 2)
    assert by_mech["lookahead"].ratio == 1
    # grid-scan thresholds make the plain auction match here as well
    assert by_mech["gvcg"].revenue == F(3, 2)
    assert by_mech["gvcg"].upper_bound == F(11, 4)
    assert all(r.audit_status == "pass" for r in report.rows)


def test_run_respects_bounds():
    spec = ExperimentSpec(mechanisms=["lookahead"], paths=[fixture_path("gap4")],
                          bounds={"lookahead": F(1, 2)})
    report = run(spec)
    row = report.rows[0]
    assert row.bound_ok is False  # the gap family starves the lookahead
    assert not report.ok


def test_run_flags_failed_audit():
    spec = ExperimentSpec(
        mechanisms=[MechanismSpec("gvcg-lazy", reserve_source="unsafe-own-value")],
        paths=[fixture_path("tiny1")], compute_oracle=False,
        compute_upper_bound=False)
    report = run(spec)
    assert report.rows[0].audit_status == "fail"
    assert report.rows[0].violations > 0
    assert not report.ok


def test_csv_byte_identical_across_runs(tmp_path):
    spec = ExperimentSpec(mechanisms=["gvcg", "lookahead", "rand-single"],
                          paths=[fixture_path("tiny1"), fixture_path("gap2")])
    a = run(spec).to_csv()
    b = run(spec).to_csv()
    assert a == b
    assert a.splitlines()[0].startswith("instance,mechanism,reserve_source")


def test_write_report_sidecar(tmp_path):
    spec = ExperimentSpec(mechanisms=["lookahead"], paths=[fixture_path("tiny1")],
                          seed=42)
    report = run(spec)
    out = tmp_path / "report.csv"
    write_report(report, out)
    assert out.exists()
    meta = json.loads((out.with_suffix(".csv.meta.json")).read_text())
    assert meta["seed"] == 42
    assert "tiny1/lookahead" in meta["wall_times"]
    assert meta["version"]


def test_monte_carlo_mode_reports_std_error():
    spec = ExperimentSpec(mechanisms=["lookahead"], paths=[fixture_path("tiny1")],
                          mode="monte_carlo", trials=2000, seed=3,
                          compute_oracle=False, compute_upper_bound=False,
                          audit=False)
    row = run(spec).rows[0]
    assert row.std_error is not None
    assert abs(row.revenue - 1.5) < 5 * row.std_error + 1e-12


def test_single_sample_rows_are_not_audited_per_run():
    spec = ExperimentSpec(
        mechanisms=[MechanismSpec("gvcg-lazy", reserve_source="single-sample")],
        paths=[fixture_path("indep-regular")])
    report = run(spec)
    row = report.rows[0]
    assert row.audit_status == "n/a"
    assert row.revenue == F(9, 4) and row.oracle == F(5, 2)
    assert report.ok


def test_generator_backed_experiment():
    spec = ExperimentSpec(
        mechanisms=["lookahead"],
        instances=generate_instances("correlated-private", {"n": 2, "grid": 2, "count": 3}, 17),
        bounds={"lookahead": F(1, 2)})
    report = run(spec)
    assert len(report.rows) == 3
    assert report.ok
    assert all(r.bound_ok for r in report.rows)


@pytest.mark.parametrize("trials", [0, -3])
def test_monte_carlo_needs_a_trial(trials):
    spec = ExperimentSpec(mechanisms=["lookahead"], paths=[fixture_path("tiny1")],
                          mode="monte_carlo", trials=trials, compute_oracle=False)
    with pytest.raises(SpecError, match="at least one trial"):
        run(spec)
    with pytest.raises(MechanismError, match="at least one trial"):
        expected_revenue(load_fixture("tiny1"), MechanismSpec("lookahead"),
                         mode="monte_carlo", trials=trials)


def test_inapplicable_mechanism_propagates_with_name():
    spec = ExperimentSpec(mechanisms=["rand-single"], paths=[fixture_path("partition")])
    with pytest.raises(Exception, match="partition"):
        run(spec)
    spec2 = ExperimentSpec(mechanisms=["rand-single"], paths=[fixture_path("partition")],
                           skip_inapplicable=True, compute_oracle=False,
                           compute_upper_bound=False)
    report = run(spec2)
    assert report.rows[0].skipped
    assert report.ok


def test_bound_for_a_mechanism_that_does_not_run_is_refused():
    spec = ExperimentSpec(mechanisms=["lookahead"], paths=[fixture_path("tiny1")],
                          bounds={"lookahed": F(99)})
    with pytest.raises(ValueError, match=r"do not run: \['lookahed'\]"):
        run(spec)


def test_bound_without_oracle_is_refused():
    spec = ExperimentSpec(mechanisms=["lookahead"], paths=[fixture_path("tiny1")],
                          bounds={"lookahead": F(1, 2)}, compute_oracle=False)
    with pytest.raises(ValueError, match="need the oracle"):
        run(spec)


def test_sidecar_records_the_oracle_solve(tmp_path):
    report = run(ExperimentSpec(mechanisms=["lookahead"], paths=[fixture_path("tiny1")]))
    out = tmp_path / "report.csv"
    write_report(report, out)
    (solve,) = json.loads(out.with_suffix(".csv.meta.json").read_text())["oracle"]
    assert solve["instance"] == "tiny1"
    assert solve["certified"] is True and solve["fallbacks"] == 0
    assert solve["pivots"] > 0 and solve["variables"] > 0 and solve["rows"] > 0
    assert solve["oracle_s"] >= 0 and solve["upper_bound_s"] >= 0
    # the build and the solve are timed apart inside the oracle call
    assert 0 <= solve["build_s"] <= solve["oracle_s"]
    assert 0 <= solve["solve_s"] <= solve["oracle_s"]


def test_sidecar_keys_one_entry_per_reserve_source():
    mechanisms = [MechanismSpec("gvcg-lazy", "conditional"),
                  MechanismSpec("gvcg-lazy", "monopoly"), "lookahead"]
    report = run(ExperimentSpec(mechanisms=mechanisms, paths=[fixture_path("tiny1")],
                                compute_oracle=False, compute_upper_bound=False))
    keys = ["tiny1/gvcg-lazy/conditional", "tiny1/gvcg-lazy/monopoly", "tiny1/lookahead"]
    assert list(report.metadata["wall_times"]) == keys
    assert report.metadata["outcomes"] == {k: r.outcomes for k, r in zip(keys, report.rows)}
