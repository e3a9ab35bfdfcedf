import json

import pytest

from auctionlab.cli import main
from auctionlab.instances import fixture_path


def test_run_prints_csv(capsys):
    rc = main(["run", "--instance", str(fixture_path("tiny1")),
               "--mechanism", "gvcg", "--mechanism", "lookahead"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("instance,mechanism")
    assert "tiny1,lookahead" in out
    assert "3/2" in out


def test_run_writes_report_and_meta(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main(["run", "--instance", str(fixture_path("tiny1")),
               "--mechanism", "lookahead", "--seed", "7", "--out", str(out)])
    assert rc == 0
    assert out.exists()
    meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
    assert meta["seed"] == 7


def test_run_bound_violation_exit_code(capsys):
    rc = main(["run", "--instance", str(fixture_path("gap4")),
               "--mechanism", "lookahead", "--bound", "lookahead=1/2"])
    assert rc == 1


def test_audit_pass_and_fail(capsys):
    rc = main(["audit", "--instance", str(fixture_path("tiny1")),
               "--mechanism", "lookahead", "--mechanism", "gvcg"])
    out = capsys.readouterr().out
    assert rc == 0 and "pass" in out
    rc = main(["audit", "--instance", str(fixture_path("tiny1")),
               "--mechanism", "gvcg-lazy", "--reserve-source", "unsafe-own-value"])
    out = capsys.readouterr().out
    assert rc == 1 and "FAIL" in out


def test_oracle_command(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    rc = main(["oracle", "--instance", str(fixture_path("tiny1")),
               "--witness", "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "optimal revenue = 3/2" in text
    payload = json.loads(out.read_text())
    assert payload["tiny1"]["optimal_revenue"] == "3/2"
    assert payload["tiny1"]["lp"]["variables"] == 8
    assert payload["tiny1"]["lp"]["certified"] is True
    witness = payload["tiny1"]["witness"]
    assert sorted(witness) == ["(1, 1)", "(1, 2)", "(2, 1)", "(2, 2)"]
    assert all(set(cell["payments"]) == {"1", "2"} for cell in witness.values())


def test_oracle_lp_record_is_part_of_the_sidecar_oracle_record(tmp_path, capsys):
    """``oracle --out`` and the run sidecar read one list of LP fields."""
    oracle_out, report = tmp_path / "oracle.json", tmp_path / "r.csv"
    assert main(["oracle", "--instance", str(fixture_path("tiny1")),
                 "--out", str(oracle_out)]) == 0
    assert main(["run", "--instance", str(fixture_path("tiny1")), "--mechanism", "lookahead",
                 "--out", str(report)]) == 0
    lp = json.loads(oracle_out.read_text())["tiny1"]["lp"]
    (solve,) = json.loads(report.with_suffix(".csv.meta.json").read_text())["oracle"]
    assert list(lp) == ["variables", "rows", "profiles", "support", "feasible_sets",
                        "simplex_rows", "ic_rows", "ir_rows", "pivots", "certified",
                        "rounds", "active_rows", "blocks", "restricted_cells"]
    assert lp.items() <= solve.items()


def test_compare_nonmat_reversal(capsys):
    rc = main(["compare", "--instance", str(fixture_path("nonmat1")),
               "--mechanism", "vcg-eager", "--mechanism", "gvcg-lazy",
               "--reserve-source", "fixed:0,3/5,0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "threshold reversal" in out
    assert "6/5 vs 7/10" in out


def test_fixed_reserves_map_onto_named_agents(tmp_path, capsys):
    text = fixture_path("tiny1").read_text()
    for old, new in (("\n- 1\n- 2\n", "\n- alice\n- bob\n"),
                     ("\n  1:\n", "\n  alice:\n"), ("\n  2:\n", "\n  bob:\n"),
                     ("\n    1:\n", "\n    alice:\n"), ("\n    2:\n", "\n    bob:\n")):
        text = text.replace(old, new)
    path = tmp_path / "named.yaml"
    path.write_text(text)
    args = ["run", "--instance", str(path), "--mechanism", "gvcg-lazy",
            "--no-oracle", "--no-upper-bound", "--reserve-source"]
    assert main(args + ["fixed:3,3"]) == 0
    assert "tiny1,gvcg-lazy,\"fixed:3,3\",exact,0," in capsys.readouterr().out


def test_reserve_source_reads_none_for_mechanisms_without_reserves(capsys):
    rc = main(["run", "--instance", str(fixture_path("tiny1")),
               "--mechanism", "lookahead", "--mechanism", "gvcg-lazy",
               "--reserve-source", "fixed:3,3", "--no-oracle", "--no-upper-bound"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "tiny1,lookahead,none,exact,3/2," in out
    assert "tiny1,gvcg-lazy,\"fixed:3,3\",exact," in out


@pytest.mark.parametrize("source, message", [
    ("bogus", "unknown reserve source 'bogus'"),
    ("fixed:abc", "bad fixed reserves 'fixed:abc'"),
    ("fixed:1,2,3", "'fixed:1,2,3' lists 3 reserves for 2 agents"),
    ("fixed:1/0,1", "bad fixed reserves 'fixed:1/0,1'"),
], ids=["unknown", "not-a-number", "wrong-count", "zero-denominator"])
def test_bad_reserve_source_exits_with_one_line(source, message):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--instance", str(fixture_path("tiny1")), "--mechanism", "gvcg-lazy",
              "--no-oracle", "--reserve-source", source])
    assert message in str(exc.value.code)
    assert "\n" not in str(exc.value.code)


def test_single_sample_is_ignored_by_mechanisms_without_reserves(capsys):
    rc = main(["run", "--instance", str(fixture_path("tiny1")), "--mechanism", "lookahead",
               "--no-oracle", "--reserve-source", "single-sample"])
    assert rc == 0
    assert "tiny1,lookahead,none,exact,3/2," in capsys.readouterr().out


def test_audit_defaults_to_corpus(capsys):
    rc = main(["audit", "--mechanism", "gvcg"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "tiny1 gvcg: pass" in out
    assert "nonmat1 gvcg: pass" in out
    assert out.count("pass") >= 13


def test_gen_roundtrip(tmp_path, capsys):
    rc = main(["gen", "--generator", "correlated-private", "--count", "2",
               "--seed", "5", "--param", "n=2", "--out", str(tmp_path)])
    assert rc == 0
    files = sorted(tmp_path.glob("*.yaml"))
    assert len(files) == 2
    rc = main(["run", "--instance", str(files[0]), "--mechanism", "gvcg"])
    assert rc == 0


@pytest.mark.parametrize("generator, param, message", [
    ("correlated-private", "kind=bogus", "unknown feasibility kind 'bogus'"),
    ("weighted-sum", "beta=2", "beta must lie in [0, 1]"),
    ("correlated-private", "grid=abc", "generator parameter grid='abc' is not a number"),
    ("correlated-private", "sparsity=x", "generator parameter sparsity='x' is not a number"),
    ("weighted-sum", "beta=abc", "generator parameter beta='abc' is not a number"),
    ("weighted-sum", "count=0", "--param count is not a generator parameter; use --count"),
], ids=["unknown-kind", "beta-out-of-range", "grid-not-a-number", "sparsity-not-a-number",
        "beta-not-a-number", "count-as-param"])
def test_bad_generator_parameter_exits_with_one_line(tmp_path, generator, param, message):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--generator", generator, "--param", param, "--out", str(tmp_path)])
    assert message in str(exc.value.code)
    assert "\n" not in str(exc.value.code)


@pytest.mark.parametrize("param", ["grid=abc", "kind=bogus"])
def test_refused_gen_leaves_no_out_directory(tmp_path, param):
    out = tmp_path / "gen"
    with pytest.raises(SystemExit):
        main(["gen", "--generator", "correlated-private", "--param", param, "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_gen_refuses_a_count_below_one(tmp_path, count):
    out = tmp_path / "gen"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--generator", "correlated-private", "--count", count, "--out", str(out)])
    assert str(exc.value.code) == f"count must be at least 1, got {count}"
    assert not out.exists()


def test_bound_for_a_mechanism_that_does_not_run_is_refused():
    with pytest.raises(SystemExit, match=r"do not run: \['lookahed'\]"):
        main(["run", "--instance", str(fixture_path("tiny1")),
              "--mechanism", "lookahead", "--bound", "lookahed=99"])


def test_malformed_bound_exits_with_one_line():
    for chunk in ("lookahead", "lookahead=1/0", "lookahead=half"):
        with pytest.raises(SystemExit, match=f"--bound '{chunk}' is not MECH=RATIO"):
            main(["run", "--instance", str(fixture_path("tiny1")),
                  "--mechanism", "lookahead", "--bound", chunk])


def test_bound_without_oracle_is_refused():
    with pytest.raises(SystemExit, match="need the oracle"):
        main(["run", "--instance", str(fixture_path("tiny1")),
              "--mechanism", "lookahead", "--bound", "lookahead=1/2", "--no-oracle"])


def test_skipped_row_reason_reaches_sidecar_and_stderr(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main(["run", "--instance", str(fixture_path("partition")),
               "--mechanism", "rand-single", "--skip-inapplicable", "--no-oracle",
               "--no-upper-bound", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[1] == "partition,rand-single,none,exact,,,,,,n/a,0,,"
    meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
    reason = "the single-item variant needs a 1-uniform system"
    assert meta["skipped"] == {"partition/rand-single": reason}
    assert f"skipped partition/rand-single: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_monte_carlo_without_trials_exits_with_one_line(trials):
    with pytest.raises(SystemExit, match=f"at least one trial, not {trials}$"):
        main(["run", "--instance", str(fixture_path("tiny1")), "--mechanism", "lookahead",
              "--mode", "mc", "--trials", trials, "--no-oracle"])


@pytest.mark.parametrize("command", [["run", "--mechanism", "lookahead"], ["oracle"]])
def test_malformed_instance_exits_with_one_line(tmp_path, command):
    path = tmp_path / "bad.yaml"
    path.write_text("agents: [1, 2]\n")
    with pytest.raises(SystemExit, match="^top level: missing required field 'distribution'$"):
        main(command + ["--instance", str(path)])


NON_MONOTONE = """\
agents: [1]
grid: {1: [1, 2]}
distribution: {form: product, marginals: {1: [[1, 1/2], [2, 1/2]]}}
valuation: {family: table, values: {1: [[[1], 5], [[2], 5]]}}
feasibility: {kind: uniform, k: 1}
"""


@pytest.mark.parametrize("text, message", [
    (NON_MONOTONE, "valuation violates monotonicity"),
    ("agents: [1, 2\n", "while parsing a flow sequence"),
    (None, "No such file or directory"),
    (NON_MONOTONE.replace("1/2]]", "1/0]]"), "cannot parse number '1/0'"),
    (NON_MONOTONE.replace("[1, 2]}", "[2, 1]}"), "grid: grid values must be strictly increasing"),
    (NON_MONOTONE.replace("[1, 2]}", "[]}"), "grid: each agent needs at least one grid point"),
], ids=["assumption", "yaml-syntax", "missing-file", "zero-denominator", "decreasing-axis",
        "empty-axis"])
def test_bad_instance_file_exits_with_one_line(tmp_path, text, message):
    path = tmp_path / "bad.yaml"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--instance", str(path), "--mechanism", "lookahead"])
    assert message in str(exc.value.code)
    assert "\n" not in str(exc.value.code)


@pytest.mark.parametrize("flag", [["--reserve-source", "fixed:9,9"],
                                  ["--reserve-conditioning", "unconditioned"]],
                         ids=["reserve-source", "reserve-conditioning"])
def test_oracle_refuses_reserve_options(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--instance", str(fixture_path("tiny1")), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_compare_prints_profiles_as_numbers(capsys):
    rc = main(["compare", "--instance", str(fixture_path("tiny1")),
               "--mechanism", "gvcg", "--mechanism", "lookahead"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "  s=(2, 2) (p=1/4): " in out
    assert "Fraction(" not in out


def test_compare_refuses_a_randomized_mechanism():
    with pytest.raises(SystemExit, match="rand-single is randomized"):
        main(["compare", "--instance", str(fixture_path("tiny1")),
              "--mechanism", "gvcg", "--mechanism", "rand-single"])


def test_audit_of_single_sample_exits_with_one_line():
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--instance", str(fixture_path("tiny1")),
              "--mechanism", "gvcg-lazy", "--reserve-source", "single-sample"])
    assert "no per-run outcome to audit" in str(exc.value.code)
    assert "\n" not in str(exc.value.code)
