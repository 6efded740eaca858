import json
from pathlib import Path

import pytest

from qnetlab import capacity, controller
from qnetlab.cli import main
from qnetlab.network import fixture_path
from qnetlab.simplex import SimplexError


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


def test_capacity_repeat_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(
            ["capacity", "downlink2.json", "--sweep-scale", "0.5,1.0,2.5", "--out", str(out)]
        )
        assert rc == 0
    assert read_bytes(out1 / "capacity.txt") == read_bytes(out2 / "capacity.txt")
    assert read_bytes(out1 / "capacity_sweep.csv") == read_bytes(out2 / "capacity_sweep.csv")


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
    assert "lambda_in_capacity=false" in capsys.readouterr().err


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

    monkeypatch.setattr(capacity, "solve_lp", failing_lp)
    rc = main(["capacity", "bb1.json", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error: iteration limit reached" in capsys.readouterr().err


@pytest.mark.parametrize("v_list", ["1", "1,10,100"])
def test_sweep_v_solves_a_fixed_number_of_lps(tmp_path, monkeypatch, v_list):
    # Two LPs (optimum and margin) for the interior check, which the drift
    # constants reuse; the per-V bounds solve none.
    calls = []
    real_solve_lp = capacity.solve_lp

    def counting_lp(*args, **kwargs):
        calls.append(1)
        return real_solve_lp(*args, **kwargs)

    monkeypatch.setattr(capacity, "solve_lp", counting_lp)
    rc = main(["sweep-v", "downlink2.json", "--V", v_list, "--horizon", "1000",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    assert len(calls) == 2


def test_zero_horizon_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "bb1.json", "--horizon", "0", "--out", str(tmp_path / "o")])
    assert excinfo.value.code == 2


def test_parallel_workers_match_sequential(tmp_path):
    args = [
        "sweep-v",
        "downlink2.json",
        "--V",
        "2",
        "--horizon",
        "4000",
        "--reps",
        "4",
        "--seed",
        "21",
    ]
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(args + ["--out", str(seq), "--workers", "1"]) == 0
    assert main(args + ["--out", str(par), "--workers", "2"]) == 0
    assert read_bytes(seq / "sweep.csv") == read_bytes(par / "sweep.csv")


def test_mu_flag_requires_bb1_shape(tmp_path, capsys):
    rc = main(
        ["simulate", "downlink2.json", "--mu", "0.5", "--out", str(tmp_path / "o")]
    )
    assert rc == 2
    assert "two-state" in capsys.readouterr().err
