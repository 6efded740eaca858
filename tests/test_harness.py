"""Compatibility with the benchmark harness under ``perfbench/``.

The harness is read here, never changed.  Its traced mode imports every
qnetlab module it wraps and records a span per call of each public function;
its correctness checks call a few library functions directly.  These tests
fail when a change to the package would break either.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qnetlab
from qnetlab import capacity, controller, network, processes, stability

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"

# Functions whose spans the benchmark's per-layer metrics read: each must
# stay public (in its module's ``__all__``) so that the tracer wraps it.
TRACED_FUNCTIONS = {
    network: ["load_scenario", "validate"],
    processes: ["mixing_time", "stationary_distribution"],
    capacity: ["build_lp", "solve_fopt", "performance_bounds"],
    controller: ["drift_constants"],
    stability: ["cex_rate_not_mean", "cex_mean_not_rate", "cex_strong_not_rate"],
}


def traced_span_names(tmp_path, *cli_args: str) -> set[str]:
    """Names of the spans of one traced CLI run, which must exit 0."""
    spans_path = tmp_path / "spans.json"
    src = str(Path(qnetlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run(
        [sys.executable, str(TRACED), str(spans_path), *cli_args,
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    record = json.loads(spans_path.read_text())
    assert record["exit_code"] == 0
    return {span[2] for span in record["spans"]}


@pytest.mark.skipif(not TRACED.is_file(), reason="needs the perfbench harness")
def test_traced_run_records_a_counterexample_span(tmp_path):
    names = traced_span_names(tmp_path, "counterexample", "strong-not-rate")
    assert "stability.cex_strong_not_rate" in names
    assert "cli.write_report" in names


@pytest.mark.skipif(not TRACED.is_file(), reason="needs the perfbench harness")
def test_traced_run_records_a_random_counterexample_span(tmp_path):
    # The tracer wraps no generator function, so this span exists only while
    # the draw is a plain function.
    names = traced_span_names(tmp_path, "counterexample", "mean-not-rate")
    assert "stability.cex_mean_not_rate" in names


@pytest.mark.skipif(not TRACED.is_file(), reason="needs the perfbench harness")
def test_traced_streaming_simulate_exits_zero(tmp_path):
    # The sampler is a generator, which the tracer leaves alone; the verdict
    # reducer's methods are not module functions.  The run must still pass.
    names = traced_span_names(tmp_path, "simulate", "downlink2.json", "--horizon", "1000",
                              "--reps", "100")
    assert "cli.write_csv" in names


@pytest.mark.parametrize("module", list(TRACED_FUNCTIONS), ids=lambda m: m.__name__)
def test_traced_functions_stay_public(module):
    for name in TRACED_FUNCTIONS[module]:
        assert name in module.__all__, name
        assert inspect.isfunction(getattr(module, name)), name


def parameters(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_check_entry_points_keep_their_signatures():
    # The harness's checks call these positionally and read these fields.
    assert parameters(network.load_scenario) == ["path"]
    assert parameters(controller.drift_constants)[:1] == ["scenario"]
    assert parameters(capacity.performance_bounds) == ["scenario", "v_param", "epsilon", "drift"]
    assert "d_max" in controller.DriftConstants._fields
    assert "backlog_bound" in capacity.PerformanceBounds._fields
    scenario = network.load_scenario("downlink2.json")
    drift = controller.drift_constants(scenario)
    bounds = capacity.performance_bounds(scenario, 10.0, drift.d_max / 4.0, drift)
    assert bounds.backlog_bound > 0
