import contextlib
import csv
import json
import os
import platform
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import trace_rows, write_csv_by_rows
from test_golden import CASES, GOLDEN, checkout_env, digests
from qnetlab import capacity, cli, controller, network, simplex
from qnetlab.cli import main
from qnetlab.network import ScenarioError, fixture_path, load_scenario
from qnetlab.simplex import SimplexError

RELAY8 = str(Path(__file__).parent / "fixtures" / "relay8.json")


def read_bytes(path: Path) -> bytes:
    return path.read_bytes()


def test_simulate_writes_documented_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(
        [
            "simulate",
            "bb1.json",
            "--lambda",
            "0.3",
            "--mu",
            "0.5",
            "--horizon",
            "20000",
            "--reps",
            "8",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    report = (out / "report.txt").read_text()
    assert "mean_backlog=" in report
    assert "rate_stable=true" in report
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header == "t,Q_1,omega,action,x_1,f"
    curves_header = (out / "curves.csv").read_text().splitlines()[0]
    assert curves_header == "M,g,h_mean,h_p05,h_p95"
    assert "verdict:" in capsys.readouterr().out


def test_simulate_repeat_is_byte_identical(tmp_path):
    args = [
        "simulate",
        "bb1.json",
        "--lambda",
        "0.4",
        "--mu",
        "0.5",
        "--horizon",
        "10000",
        "--reps",
        "4",
        "--seed",
        "99",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("trace.csv", "curves.csv", "report.txt"):
        assert read_bytes(out1 / name) == read_bytes(out2 / name)


def report_without_seed(out: Path) -> list[str]:
    return [line for line in (out / "report.txt").read_text().splitlines()
            if not line.startswith("seed=")]


def test_neighbouring_seeds_draw_different_ensembles(tmp_path):
    # Seeds 1, 2 and 3 once drew the same 100 replications; each seed's
    # verdict must now come from its own ensemble.
    reports = []
    for seed in ("1", "2", "3"):
        out = tmp_path / seed
        assert main(["stability", "downlink2.json", "--horizon", "1000", "--reps", "100",
                     "--seed", seed, "--out", str(out)]) == 0
        reports.append(report_without_seed(out))
    assert reports[0] != reports[1] and reports[0] != reports[2] and reports[1] != reports[2]


def assert_seeds_are_taken_mod_two_to_the_64(tmp_path, *command: str) -> None:
    # The reports print the seed the draws use, so both runs write the same bytes.
    outputs = []
    for seed in ("-1", str(2**64 - 1)):
        out = tmp_path / seed
        assert main([*command, "--seed", seed, "--out", str(out)]) == 0
        outputs.append({path.name: read_bytes(path) for path in out.iterdir()})
    assert outputs[0] == outputs[1]


def test_cli_seeds_are_taken_mod_two_to_the_64(tmp_path):
    assert_seeds_are_taken_mod_two_to_the_64(
        tmp_path, "simulate", "bb1.json", "--horizon", "2000", "--reps", "4")


def test_sweep_v_seeds_are_taken_mod_two_to_the_64(tmp_path):
    assert_seeds_are_taken_mod_two_to_the_64(
        tmp_path, "sweep-v", "downlink2.json", "--V", "1,10", "--horizon", "1000", "--reps", "2")


def test_capacity_repeat_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(
            ["capacity", "downlink2.json", "--sweep-scale", "0.5,1.0,2.5", "--out", str(out)]
        )
        assert rc == 0
    assert read_bytes(out1 / "capacity.txt") == read_bytes(out2 / "capacity.txt")
    assert read_bytes(out1 / "capacity_sweep.csv") == read_bytes(out2 / "capacity_sweep.csv")


@pytest.mark.parametrize("raw, entry", [
    ("nan", "'nan'"), ("-1", "'-1'"), ("inf", "'inf'"), ("1,,2", "''"), ("abc", "'abc'"),
    ("0.5,-0.1", "'-0.1'"), ("", "''"),
])
def test_bad_sweep_scale_fails_before_any_output(tmp_path, capsys, raw, entry):
    out = tmp_path / "cap"
    rc = main(["capacity", "downlink2.json", "--sweep-scale", raw, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --sweep-scale entry {entry} ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["capacity", "simulate"])
@pytest.mark.parametrize("raw, entry", [
    ("nan", "'nan'"), ("inf", "'inf'"), ("abc", "'abc'"), ("", "''"), ("-0.1", "'-0.1'"),
    ("0.1,-0.1", "'-0.1'"),
])
def test_bad_lambda_fails_before_any_output(tmp_path, capsys, command, raw, entry):
    out = tmp_path / "o"
    rc = main([command, "downlink2.json", "--lambda", raw, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: --lambda entry {entry} ")
    assert not out.exists()


# The arguments after the scenario of each command that reads one.
SCENARIO_COMMANDS = {
    "simulate": ["--horizon", "1000", "--reps", "2"],
    "stability": ["--horizon", "1000", "--reps", "2"],
    "capacity": [],
    "sweep-v": ["--horizon", "500"],
}


def assert_clean_error(rc, capsys):
    """Exit 2 with a one-line error; returns what went to stdout."""
    out, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    return out


@pytest.mark.parametrize("command", sorted(SCENARIO_COMMANDS))
def test_scenario_path_that_is_a_directory_is_an_error(tmp_path, capsys, command):
    rc = main([command, str(tmp_path), *SCENARIO_COMMANDS[command], "--out", str(tmp_path / "o")])
    assert_clean_error(rc, capsys)


OUT_COMMANDS = [
    *([command, "downlink2.json", *rest] for command, rest in SCENARIO_COMMANDS.items()),
    ["counterexample", "strong-not-rate"],
    ["bb1", "--lambda", "0.3", "--mu", "0.5"],
    ["bb1", "--lambda", "0.3", "--mu", "0.5", "--simulate", "--horizon", "100", "--reps", "2"],
]


def _out_id(argv):
    return "-".join([argv[0], *(a[2:] for a in argv if a == "--simulate")])


@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=_out_id)
def test_out_naming_an_existing_file_is_an_error(tmp_path, capsys, monkeypatch, argv):
    # The output directory is checked before any output, and before any run.
    def no_run(*args, **kwargs):
        raise AssertionError("the kernel ran before --out was checked")

    monkeypatch.setattr(controller, "run_dpp_batch", no_run)
    out = tmp_path / "taken"
    out.write_text("")
    assert assert_clean_error(main([*argv, "--out", str(out)]), capsys) == ""
    assert out.read_text() == ""


@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=_out_id)
@pytest.mark.parametrize("nested", [False, True], ids=["file", "below-a-file"])
def test_every_command_names_an_out_that_is_not_a_directory(tmp_path, capsys, argv, nested):
    # One rule for all six commands: checked before the run, made after it.
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "sub" if nested else taken
    rc = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err == f"error: --out {out}: {taken} is not a directory\n"
    assert taken.read_text() == ""


def test_labels_of_an_unreachable_state_fail_at_load(tmp_path, capsys):
    # Mixed-type labels of unreachable states used to reach the reducibility
    # message's sort: a TypeError traceback and exit 1.
    data = json.loads(fixture_path("downlink2").read_text())
    data["omega_chain"]["labels"] = [1, "a", None]
    data["omega_chain"]["transition"] = [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "o"
    rc = main(["capacity", str(bad), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "scenario error: omega_chain.labels[0]: expected a string\n"
    assert not out.exists()


def test_sweep_v_validates_the_scenario_once(tmp_path, monkeypatch):
    calls = []
    real_validate = network.validate

    def counting(scenario):
        calls.append(scenario.name)
        return real_validate(scenario)

    # Scenario construction compiles the tables and validates them through
    # the network module's names; no other module binds either.
    for module in (capacity, controller, cli):
        assert not hasattr(module, "validate")
    monkeypatch.setattr(network, "validate", counting)
    compiles = []
    real_compile = network.compile_tables

    def counting_compile(scenario):
        compiles.append(scenario.name)
        return real_compile(scenario)

    monkeypatch.setattr(network, "compile_tables", counting_compile)
    rc = main(["sweep-v", "downlink2.json", "--V", "1,10", "--horizon", "500",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    assert calls == compiles == ["downlink2"]
    calls.clear()
    compiles.clear()
    rc = main(["capacity", "downlink2.json", "--sweep-scale", "0.5,1,1.5",
               "--out", str(tmp_path / "c")])
    assert rc == 0
    assert calls == compiles == ["downlink2"]
    # Each override builds a new scenario through the constructor: the load,
    # then --lambda's arrivals, then --mu's server chain.
    calls.clear()
    compiles.clear()
    rc = main(["simulate", "bb1.json", "--lambda", "0.3", "--mu", "0.5", "--horizon", "1000",
               "--reps", "2", "--out", str(tmp_path / "s")])
    assert rc == 0
    assert calls == compiles == ["bb1"] * 3


def test_capacity_with_a_huge_lambda_warns_nothing(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["capacity", "downlink2.json", "--lambda", "1e308,1",
                   "--out", str(tmp_path / "cap")])
    assert rc == 0
    captured = capsys.readouterr()
    assert "feasible=false\n" in captured.out
    assert captured.err == ""


def test_capacity_reports_infeasible_lambda(tmp_path, capsys):
    rc = main(
        ["capacity", "bb1.json", "--lambda", "0.6", "--out", str(tmp_path / "cap")]
    )
    assert rc == 0
    assert "feasible=false" in capsys.readouterr().out


def test_capacity_boundary_is_feasible(tmp_path, capsys):
    rc = main(
        ["capacity", "bb1.json", "--lambda", "0.5", "--out", str(tmp_path / "cap")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "feasible=true" in out
    assert "d_max=0.0" in out


def test_sweep_v_outputs_and_bounds(tmp_path):
    out = tmp_path / "sweep"
    rc = main(
        [
            "sweep-v",
            "downlink2.json",
            "--V",
            "1,10",
            "--horizon",
            "20000",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "V,avg_backlog,avg_cost,g_avg_1,backlog_bound,cost_bound"
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        avg_backlog, backlog_bound = float(row[1]), float(row[4])
        avg_cost, cost_bound = float(row[2]), float(row[5])
        assert avg_backlog <= backlog_bound
        assert avg_cost <= cost_bound


def test_sweep_v_rejects_exterior_lambda(tmp_path, capsys):
    rc = main(
        [
            "sweep-v",
            "bb1.json",
            "--lambda",
            "0.9",
            "--V",
            "1",
            "--horizon",
            "2000",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert rc == 1
    assert "(in_capacity=false" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # refused before --out is made


def test_counterexample_strong_not_rate(tmp_path, capsys):
    out = tmp_path / "cx"
    rc = main(["counterexample", "strong-not-rate", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "signature_ok=true" in text
    assert (out / "profile.csv").exists()


def test_counterexample_unknown_name(tmp_path, capsys):
    rc = main(["counterexample", "nope", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "unknown counterexample" in capsys.readouterr().err


def test_bb1_closed_form_output(capsys):
    rc = main(["bb1", "--lambda", "0.3", "--mu", "0.5"])
    assert rc == 0
    values = dict(
        line.split("=", 1) for line in capsys.readouterr().out.splitlines() if "=" in line
    )
    assert float(values["Q_bar"]) == pytest.approx(1.05)
    assert float(values["W_bar"]) == pytest.approx(3.5)


def test_bb1_rejects_supercritical(capsys):
    rc = main(["bb1", "--lambda", "0.6", "--mu", "0.5"])
    assert rc == 2
    assert "steady state" in capsys.readouterr().err


def test_malformed_scenario_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "dimensions": {"K": 1, "L": 0, "M": 1},\n  broken\n}\n')
    rc = main(["simulate", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.json:3" in err


def deeply_nested(tmp_path):
    """A scenario file of 200,000 nested lists, deeper than json can parse."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    return deep


@pytest.mark.parametrize("command", sorted(SCENARIO_COMMANDS))
def test_deeply_nested_scenario_is_a_scenario_error(tmp_path, capsys, command):
    # json.loads raised RecursionError: a traceback and exit 1, the status of
    # a failed check.
    deep, out = deeply_nested(tmp_path), tmp_path / "o"
    rc = main([command, str(deep), *SCENARIO_COMMANDS[command], "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"scenario error: {deep}: JSON nested too deeply\n"
    assert not out.exists()


def test_deeply_nested_scenario_prints_no_traceback(tmp_path):
    deep, out = deeply_nested(tmp_path), tmp_path / "o"
    run = subprocess.run([sys.executable, "-m", "qnetlab.cli", "capacity", str(deep),
                          "--out", str(out)], env=child_env(), capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 2
    assert run.stderr == f"scenario error: {deep}: JSON nested too deeply\n"
    assert not out.exists()


def test_schema_error_exit_code(tmp_path, capsys):
    data = json.loads(fixture_path("bb1").read_text())
    del data["omega_chain"]
    bad = tmp_path / "noomega.json"
    bad.write_text(json.dumps(data))
    rc = main(["simulate", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "omega_chain" in capsys.readouterr().err


def test_nan_action_table_is_scenario_error(tmp_path, capsys):
    # It used to simulate and report mean_backlog=nan with exit code 0.
    data = json.loads(fixture_path("bb1").read_text())
    data["actions"][1][0]["b"] = [float("nan")]
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(data))
    rc = main(["simulate", str(bad), "--horizon", "1000", "--reps", "2",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "actions[1][0].b" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["simulate", "stability"])
def test_non_finite_cost_is_scenario_error(tmp_path, capsys, command):
    # A cost of 1e308 * 10 overflows to inf.  simulate used to exit 0 and
    # write f=inf into trace.csv, while sweep-v and capacity rejected the file.
    data = json.loads(fixture_path("bb1").read_text())
    data["cost"]["c"] = [1e308]
    data["actions"][1][0]["x"] = [10.0]
    bad = tmp_path / "inf.json"
    bad.write_text(json.dumps(data))
    rc = main([command, str(bad), "--horizon", "1000", "--reps", "2",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "actions[1][0]" in err and "non-finite cost value" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", sorted(SCENARIO_COMMANDS))
def test_overflowing_routed_offer_fails_before_any_output(tmp_path, capsys, command):
    # The tables are finite, but the routed offer 1e308 + 1e308 overflows,
    # so the file fails at load.  capacity and sweep-v used to create --out
    # before they validated.
    data = json.loads(fixture_path("downlink2").read_text())
    data["actions"][1][1].update(y=[0.0, 1e308], b=[1e308, 0.0])
    data["routing"] = [{"src": 0, "dst": 1}]
    bad = tmp_path / "overflow.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "o"
    with np.errstate(over="ignore"):
        rc = main([command, str(bad), *SCENARIO_COMMANDS[command], "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "scenario error: actions[1][1]: non-finite y table entry\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(SCENARIO_COMMANDS))
@pytest.mark.parametrize("field, message", [("c", "non-finite cost value"),
                                            ("d", "non-finite g table entry")],
                         ids=["cost", "constraint"])
def test_overflowing_cost_or_constraint_fails_at_load(tmp_path, capsys, command, field, message):
    # x = 1e308 is finite, and so is the cost or constraint coefficient 10,
    # but their product overflows.
    data = json.loads(fixture_path("downlink2").read_text())
    data["actions"][1][1]["x"] = [1e308]
    (data["cost"] if field == "c" else data["constraints"][0])[field] = [10.0]
    bad = tmp_path / "overflow.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match=rf"^actions\[1\]\[1\]: {message}$"):
        load_scenario(bad)
    out = tmp_path / "o"
    rc = main([command, str(bad), *SCENARIO_COMMANDS[command], "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"scenario error: actions[1][1]: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["capacity", "simulate"])
@pytest.mark.parametrize("field", ["omega_chain.labels", "routing", "constraints", "arrivals"])
def test_non_list_field_fails_at_load(tmp_path, capsys, command, field):
    # A number where a list belongs used to raise TypeError: a traceback, exit 1.
    data = json.loads(fixture_path("downlink2").read_text())
    *parents, key = field.split(".")
    target = data
    for parent in parents:
        target = target[parent]
    target[key] = 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "o"
    rc = main([command, str(bad), *SCENARIO_COMMANDS[command], "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"scenario error: {field}: expected a list\n"
    assert not out.exists()


def overflowing_work(data):
    """Work of 1e308 per slot: queue 1's backlog overflows in slot 2."""
    data["arrivals"][0] = {"kind": "bernoulli", "p": 1.0, "size": 1e308, "rate": 1e308}


def cost_of_ten(data):
    """f = 10 x: with V = 1e308 the score V f overflows."""
    data["cost"]["c"] = [10.0]


@pytest.mark.parametrize("mutate, argv", [
    (overflowing_work, ["simulate", "--horizon", "1000", "--reps", "2"]),
    (overflowing_work, ["stability", "--horizon", "1000", "--reps", "2", "--workers", "2"]),
    (cost_of_ten, ["sweep-v", "--V", "1,1e308", "--horizon", "500"]),
], ids=["simulate", "stability-workers", "sweep-v"])
def test_value_past_the_float_range_fails_before_any_output(tmp_path, capsys, mutate, argv):
    # These used to run on as inf, with numpy warnings, and exit 0.
    data = json.loads(fixture_path("downlink2").read_text())
    mutate(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "o"
    rc = main([argv[0], str(bad), *argv[1:], "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert rc == 2 and stdout == ""
    assert err.startswith("error: overflow encountered in ") and err.count("\n") == 1
    assert not out.exists()


# One queue fed 2e302 per slot and never served: each replication's backlog
# sum is finite (about 1e308), and so is every value the kernel computes,
# but the sum over 4 replications overflows.
ENSEMBLE_OVERFLOW = {
    "name": "ensemble-overflow",
    "dimensions": {"K": 1, "L": 0, "M": 0},
    "omega_chain": {"transition": [[1.0]], "initial": [1.0]},
    "actions": [[{"name": "idle", "y": [0.0], "b": [0.0], "x": []}]],
    "cost": {"c0": 0.0, "c": []},
    "arrivals": [{"kind": "deterministic", "values": [2e302], "rate": 2e302}],
}
ENSEMBLE_OVERFLOW_ARGS = ["--horizon", "1000", "--reps", "4"]


def test_ensemble_sum_past_the_float_range_fails_before_any_output(tmp_path, capsys):
    # numpy warned about the overflow, then _m_grid failed on the infinite
    # mean backlog; with warnings as errors the warning was a traceback.
    bad, out = tmp_path / "huge.json", tmp_path / "o"
    bad.write_text(json.dumps(ENSEMBLE_OVERFLOW))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", str(bad), *ENSEMBLE_OVERFLOW_ARGS, "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert rc == 2 and stdout == ""
    assert err.startswith("error: overflow encountered in ") and err.count("\n") == 1
    assert not out.exists()


def test_ensemble_sum_past_the_float_range_prints_no_traceback(tmp_path):
    bad, out = tmp_path / "huge.json", tmp_path / "o"
    bad.write_text(json.dumps(ENSEMBLE_OVERFLOW))
    run = subprocess.run([sys.executable, "-m", "qnetlab.cli", "simulate", str(bad),
                          *ENSEMBLE_OVERFLOW_ARGS, "--out", str(out)],
                         env=child_env(), capture_output=True, text=True, timeout=120)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("error: overflow encountered in ")
    assert run.stderr.count("\n") == 1
    assert not out.exists()


def test_counterexample_arrival_kind_fails_at_load(tmp_path, capsys):
    # Counter-examples prescribe backlogs, not arrivals; the kind used to load
    # and then fail validation for its missing second moment.
    data = json.loads(fixture_path("bb1").read_text())
    data["arrivals"][0] = {"kind": "counterexample", "tag": "mean-not-rate", "rate": 0.0}
    bad = tmp_path / "cex.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "o"
    rc = main(["simulate", str(bad), "--horizon", "1000", "--reps", "2", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "scenario error: arrivals[0]: unknown arrival kind 'counterexample'\n"
    )
    assert not out.exists()


def test_arithmetic_error_is_reported_not_raised(tmp_path, capsys, monkeypatch):
    # A chain that does not mix raised ArithmeticError out of sweep-v with a
    # traceback and exit 1.
    def no_mixing(*args, **kwargs):
        raise ArithmeticError("chain did not mix")

    monkeypatch.setattr(controller, "mixing_time", no_mixing)
    rc = main(["sweep-v", "bb1.json", "--V", "1", "--horizon", "1000",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error: chain did not mix" in capsys.readouterr().err


def test_simplex_error_is_reported_not_raised(tmp_path, capsys, monkeypatch):
    def failing_lp(*args, **kwargs):
        raise SimplexError("iteration limit reached")

    monkeypatch.setattr(capacity, "_solve_ray", failing_lp)
    out = tmp_path / "o"
    rc = main(["capacity", "bb1.json", "--out", str(out)])
    assert rc == 2
    assert "error: iteration limit reached" in capsys.readouterr().err
    assert not out.exists()


def test_capacity_out_that_is_a_file_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("an LP was solved before --out was checked")

    monkeypatch.setattr(capacity, "_solve_ray", no_solve)
    out = tmp_path / "file"
    out.write_text("kept")
    rc = main(["capacity", RELAY8, "--sweep-scale", "0.5,1,1.5", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --out {out}: {out} is not a directory\n"
    assert out.read_text() == "kept"


@pytest.mark.parametrize("argv", [
    ["--lambda", "1e308"],
    ["--lambda", "1e308", "--sweep-scale", "2"],
    ["--lambda", "1e300", "--sweep-scale", "1e10"],
], ids=["base", "base-and-scale", "scale"])
def test_capacity_past_the_float_range_fails_before_any_output(tmp_path, capsys, argv):
    # The first reported feasible=false and the second wrote capacity.txt, both
    # with a numpy overflow warning on stderr.
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["capacity", "downlink2.json", *argv, "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert rc == 2 and stdout == "" and caught == []
    assert err.startswith("error: overflow encountered in ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("v_list", ["1", "1,10,100"])
def test_sweep_v_solves_a_fixed_number_of_lps(tmp_path, monkeypatch, v_list):
    # One cold LP (the optimum) for the interior check, which the drift
    # constants reuse: the margin LP opens from its tableau.  The per-V bounds
    # solve none.
    calls = []
    real_two_phase = simplex._two_phase

    def counting_lp(*args, **kwargs):
        calls.append(1)
        return real_two_phase(*args, **kwargs)

    monkeypatch.setattr(simplex, "_two_phase", counting_lp)
    rc = main(["sweep-v", "downlink2.json", "--V", v_list, "--horizon", "1000",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["simulate", "stability"])
def test_short_verdict_horizon_fails_before_any_work(tmp_path, capsys, monkeypatch, command):
    def no_kernel(*args, **kwargs):
        raise AssertionError("the kernel ran on a horizon too short for a verdict")

    monkeypatch.setattr(controller, "run_dpp_batch", no_kernel)
    out = tmp_path / "o"
    rc = main([command, "downlink2.json", "--horizon", "999", "--reps", "100",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: verdicts need a horizon of at least 1e3 slots\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep-v", "downlink2.json", "--V", "1"],
    ["bb1", "--lambda", "0.3", "--mu", "0.5", "--simulate"],
], ids=["sweep-v", "bb1"])
def test_one_slot_horizon_fails_before_any_work(tmp_path, capsys, monkeypatch, argv):
    def no_kernel(*args, **kwargs):
        raise AssertionError("the kernel ran on a one-slot horizon")

    monkeypatch.setattr(controller, "run_dpp_batch", no_kernel)
    out = tmp_path / "o"
    assert main([*argv, "--horizon", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: horizon must be >= 2\n"
    assert not out.exists()


def test_zero_horizon_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "bb1.json", "--horizon", "0", "--out", str(tmp_path / "o")])
    assert excinfo.value.code == 2


def test_parallel_workers_match_sequential(tmp_path, monkeypatch):
    # Any worker count (three give lanes of one) and blocks cut short, so
    # that many end inside a leaf of numpy's sum tree, give the same bytes.
    cases = {
        "downlink2": ["downlink2.json", "--V", "2", "--horizon", "4000", "--reps", "4",
                      "--seed", "21"],
        "relay8": [RELAY8, "--V", "1,10", "--horizon", "1500", "--reps", "2", "--seed", "11"],
    }

    def sweep(case, name, *extra):
        out = tmp_path / case / name
        assert main(["sweep-v", *cases[case], *extra, "--out", str(out)]) == 0
        return read_bytes(out / "sweep.csv")

    expected = {case: sweep(case, "w1", "--workers", "1") for case in cases}
    for case in cases:
        assert sweep(case, "w2", "--workers", "2") == expected[case]
        assert sweep(case, "w3", "--workers", "3") == expected[case]
    monkeypatch.setattr("qnetlab.processes._SAMPLE_BLOCK_BYTES", 40_000)
    monkeypatch.setattr(controller, "_BLOCK_BYTES", 1 << 12)
    for case in cases:
        assert sweep(case, "small") == expected[case]


def test_mu_flag_requires_bb1_shape(tmp_path, capsys):
    rc = main(
        ["simulate", "downlink2.json", "--mu", "0.5", "--out", str(tmp_path / "o")]
    )
    assert rc == 2
    assert "two-state" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("raw, entry", [
    ("inf", "'inf'"), ("1,nan", "'nan'"), ("-1", "'-1'"), ("1,,2", "''"), ("1e400", "'1e400'"),
])
def test_bad_v_list_fails_before_any_output(tmp_path, capsys, raw, entry):
    out = tmp_path / "sweep"
    rc = main(["sweep-v", "downlink2.json", "--V", raw, "--horizon", "500", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: --V entry {entry} ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "stability"])
@pytest.mark.parametrize("raw", ["inf", "1e400", "nan", "-0.5", "1,2"])
def test_bad_v_is_usage_error(tmp_path, capsys, command, raw):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as excinfo:
        main([command, "downlink2.json", "--V", raw, "--horizon", "500", "--out", str(out)])
    assert excinfo.value.code == 2
    assert f"argument --V: {raw!r} is not a finite non-negative number" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# CSV writer
# ---------------------------------------------------------------------------


TRACE_SCENARIOS = {
    "bb1": ["bb1.json", "--lambda", "0.3", "--mu", "0.5"],  # no constraints: L = 0
    "downlink2": ["downlink2.json", "--V", "3"],
    "relay8": [RELAY8, "--mode", "clamped"],
}


@pytest.mark.parametrize("name", sorted(TRACE_SCENARIOS))
def test_trace_csv_matches_row_writer(tmp_path, monkeypatch, name):
    args = ["simulate", *TRACE_SCENARIOS[name], "--horizon", "1200", "--reps", "2",
            "--seed", "21", "--trace-limit", "1000", "--out", str(tmp_path)]
    parsed = cli.build_parser().parse_args(args)
    scenario = cli._load_with_overrides(parsed)
    # Row blocks of 64: the 1000 traced slots end in a partial block.
    monkeypatch.setattr(cli, "CSV_BLOCK_CELLS", 64 * len(cli.trace_header(scenario)))
    assert main(args) == 0
    run = controller.run_dpp_batch(scenario, [parsed.V], [0], 21, 1200, parsed.mode,
                                   record=1).runs[0]
    write_csv_by_rows(tmp_path / "rows.csv", cli.trace_header(scenario),
                      trace_rows(scenario, run, 1000))
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_write_csv_matches_row_writer_on_edge_values(tmp_path, monkeypatch):
    scenario = network.load_scenario(fixture_path("downlink2"))
    run = controller.run_dpp_batch(scenario, [2.0], [0], 3, 50, record=1).runs[0]
    run.q_path[:8, 0] = [-0.0, 5e-324, 1e16, 3.0, -2.0, 1e-300, 1.7976931348623157e308, 0.1]
    # The first four slots read four (omega, action) pairs whose f and x are edge values.
    pairs = tuple(np.argwhere(scenario.real)[:4].T)
    run.omega_path[:4], run.action_path[:4] = pairs
    scenario.f, scenario.x = scenario.f.copy(), scenario.x.copy()
    scenario.f[pairs] = [-0.0, 1e16, 7.0, 2.5e-8]
    scenario.x[pairs + (0,)] = [5e-324, 4.0, -1e16, 0.5]
    monkeypatch.setattr(cli, "CSV_BLOCK_CELLS", 3 * 9)  # 9 trace columns: blocks of 3 rows
    header = cli.trace_header(scenario)
    cli.write_csv(tmp_path / "cols.csv", header, cli.trace_columns(scenario, run, 20))
    write_csv_by_rows(tmp_path / "rows.csv", header, trace_rows(scenario, run, 20))
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    # Python values, as the sweep and capacity rows hold them.
    rows = [[0.5, True, None, 2, np.float64(-0.0), np.uint8(7)],
            [1e16, False, float("nan"), -3, np.float64(5e-324), np.int64(-1)]]
    cli.write_csv(tmp_path / "cols.csv", list("abcdef"), list(zip(*rows)))
    write_csv_by_rows(tmp_path / "rows.csv", list("abcdef"), rows)
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


# ---------------------------------------------------------------------------
# process start-up
# ---------------------------------------------------------------------------


def child_env(openblas_threads=None):
    """``checkout_env()``, with ``OPENBLAS_NUM_THREADS`` set to
    ``openblas_threads`` or, when None, unset."""
    env = checkout_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return env


THREAD_PROBE = (
    "import qnetlab.cli, os; "
    "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("caller, expected", [(None, "1 1"), ("2", "2 2")],
                         ids=["unset", "caller-2"])
def test_cli_process_runs_single_threaded_blas_unless_told(caller, expected):
    # The package sets OPENBLAS_NUM_THREADS=1 before numpy loads, so a fresh
    # command process starts no BLAS thread pool; a caller's value is kept.
    run = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=child_env(caller),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == expected.split()


@pytest.mark.parametrize("case", ["capacity-relay8", "sweep-v-relay8",
                                  "simulate-downlink2-w2", "counterexample-mean-not-rate"])
@pytest.mark.parametrize("threads", [None, "2"], ids=["pinned", "threads-2"])
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, case, threads):
    # The in-process goldens run at whatever thread count pytest's numpy
    # loaded with; these run a fresh command at one and at two BLAS threads.
    out = tmp_path / case
    run = subprocess.run([sys.executable, "-m", "qnetlab.cli", *CASES[case], "--out", str(out)],
                         env=child_env(threads), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert digests(out) == GOLDEN[case]


KERNEL_COLUMNS = ("V", "avg_backlog", "avg_cost", "g_avg_1", "g_avg_2")


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_kernel_outputs_do_not_depend_on_the_blas_core_type(tmp_path):
    # The kernel scores actions by a sum in a fixed order, so no BLAS kernel
    # rounds a near-tie; per-lane gemv gave V=10 avg_backlog 59.708925 by
    # default and 59.710005 under Prescott on this sweep.  The bound columns
    # come from the setup-side products (LAPACK solve, BLAS dots) and may
    # still differ.
    args = ["sweep-v", RELAY8, "--V", "1,10,100,1000", "--horizon", "20000", "--reps", "2",
            "--seed", "302"]
    columns = {}
    for core in (None, "Prescott"):
        env = child_env()
        env.pop("OPENBLAS_CORETYPE", None)
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        out = tmp_path / str(core)
        run = subprocess.run([sys.executable, "-m", "qnetlab.cli", *args, "--out", str(out)],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        with open(out / "sweep.csv", newline="") as fh:
            columns[core] = [[row[c] for c in KERNEL_COLUMNS] for row in csv.DictReader(fh)]
    assert len(columns[None]) == 4
    assert columns["Prescott"] == columns[None]


STARTUP_PROBE = """
import contextlib, io, sys
import qnetlab.cli
watched = {"multiprocessing", "concurrent.futures", "dataclasses", "numpy.ma"}
print(sorted(watched & set(sys.modules)))
out, relay8 = sys.argv[1:]
runs = [
    ["simulate", "bb1.json", "--horizon", "1000", "--reps", "4"],
    ["simulate", "downlink2.json", "--horizon", "1000", "--reps", "4"],
    ["stability", "downlink2.json", "--horizon", "1000", "--reps", "4"],
    ["sweep-v", relay8, "--V", "1,10", "--horizon", "300"],
    ["capacity", relay8, "--sweep-scale", "0.5,1,1.5"],
    ["counterexample", "rate-not-mean"],
]
for args in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = qnetlab.cli.main(args + ["--out", out])
    assert code == 0, (args, code)
print(sorted(watched & set(sys.modules)))
"""


def test_cli_import_leaves_the_worker_pool_unloaded(tmp_path):
    # Only a multi-worker run imports the process pool (and multiprocessing).
    # Records are NamedTuples or plain classes, so nothing imports
    # dataclasses, and no one-worker command loads numpy.ma, which
    # np.median, np.percentile and a bare np.unique import on first use.
    run = subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(tmp_path), RELAY8],
                         env=child_env(), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "[]"]


def test_traced_run_of_the_benchmark_completes(tmp_path):
    # The benchmark's tracer imports qnetlab modules by name; a refactor that
    # removes one of them must fail here rather than in a traced benchmark run.
    repo = Path(__file__).resolve().parents[1]
    spans_file = tmp_path / "spans.json"
    run = subprocess.run(
        [sys.executable, str(repo / "perfbench" / "traced.py"), str(spans_file),
         "capacity", "bb1.json", "--out", str(tmp_path / "out")],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    spans = json.loads(spans_file.read_text())
    assert spans["exit_code"] == 0
    names = {span[2] for span in spans["spans"]}
    assert {"network.validate", "capacity.build_lp"} <= names


# ---------------------------------------------------------------------------
# process entry
# ---------------------------------------------------------------------------

# The two ways a command process starts: ``python -m qnetlab.cli``, and
# ``run()`` called the way the ``qnetlab`` console script calls it.
ENTRIES = {
    "module": ["-m", "qnetlab.cli"],
    "script": ["-c", "import sys; from qnetlab.cli import run; "
                     "sys.argv[0] = 'qnetlab'; sys.exit(run())"],
}


def run_entry(entry, args, cwd):
    return subprocess.run([sys.executable, *ENTRIES[entry], *args], cwd=cwd, env=child_env(),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("case", ["simulate-bb1-w1", "stability-bb1", "capacity-bb1",
                                  "sweep-v-bb1", "counterexample-strong-not-rate",
                                  "bb1-simulate"])
def test_process_entries_match_main(tmp_path, monkeypatch, capsys, case):
    # Both entries leave through os._exit, skipping interpreter
    # finalization: the exit status, stdout and output bytes stay those of
    # an in-process main().
    args = CASES[case] + ["--out", "out"]
    for where in ("main", *ENTRIES):
        (tmp_path / where).mkdir()
    monkeypatch.chdir(tmp_path / "main")
    assert main(args) == 0
    stdout = capsys.readouterr().out
    assert stdout
    for entry in ENTRIES:
        run = run_entry(entry, args, tmp_path / entry)
        assert (run.returncode, run.stderr, run.stdout) == (0, "", stdout), entry
        assert digests(tmp_path / entry / "out") == GOLDEN[case], entry


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_process_entry_reports_a_malformed_scenario(tmp_path, entry):
    data = json.loads(fixture_path("bb1").read_text())
    data["actions"][1][0]["b"] = [-1.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    run = run_entry(entry, ["simulate", str(path), "--horizon", "1000", "--reps", "2",
                            "--out", str(out)], tmp_path)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.splitlines() == [
        "scenario error: actions[1][0]: offered y and b must be non-negative"]
    assert not out.exists()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_2_with_one_error_line(tmp_path, unbuffered):
    # Buffered, the output first reaches the pipe in run()'s own flush, and
    # the interpreter's exit flush would print "Exception ignored ...
    # BrokenPipeError" and exit 120.  Unbuffered, main() catches the first
    # print's error itself.
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run([sys.executable, "-m", "qnetlab.cli", "capacity", "bb1.json",
                              "--out", str(tmp_path / "out")],
                             stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
                             timeout=120)
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (2, "error: [Errno 32] Broken pipe\n")


def test_process_entry_leaves_no_process_behind(tmp_path):
    # os._exit skips the interpreter's exit hooks, so the worker pool must
    # be gone before it: the command's whole process group has exited.
    args = ["simulate", "downlink2.json", "--horizon", "1000", "--reps", "4",
            "--workers", "2", "--out", str(tmp_path / "out")]
    # No pipe: a process left behind would hold it open, and the wait with it.
    with open(tmp_path / "stderr", "w") as err:
        proc = subprocess.Popen([sys.executable, *ENTRIES["module"], *args], cwd=tmp_path,
                                env=child_env(), stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
    try:
        assert proc.wait(timeout=120) == 0, (tmp_path / "stderr").read_text()
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # what the command left behind
