"""Pins the public API: the names the ``qnetlab`` package exports and each
module's ``__all__``.  Adding or removing a public name fails here, so every
change to the API surface shows up in the diff of this file.
"""

import importlib
import types

import pytest

import qnetlab

PACKAGE = [
    "ArrivalSpec", "BB1Params", "CapacityReport", "CompositeState", "DppBatchResult",
    "DppRunResult", "DriftConstants", "FiniteMarkovChain", "MixingReport",
    "OmegaOnlyPolicy", "PerformanceBounds", "Scenario", "ScenarioError",
    "ScenarioValidation", "SlotIO", "StabilityVerdict", "StationaryDistribution",
    "StepRecord", "TraceEnsemble", "VerdictThresholds", "bb1_closed_form", "build_lp",
    "cex_mean_not_rate", "cex_rate_not_mean", "cex_strong_not_rate",
    "conservation_check", "dpp_select_action", "drift_constants", "estimate_verdict",
    "evaluate_action", "fixture_path", "lambda_in_capacity", "load_scenario",
    "lyapunov_value", "make_rng", "mixing_time", "network_step", "performance_bounds",
    "queue_step", "run_dpp_batch", "sample_path", "single_queue_path", "slater_dmax",
    "solve_fopt", "stationary_distribution", "substream_seed", "validate",
    "virtual_queue_step",
]

MODULES = {
    "capacity": [
        "CapacityReport", "OmegaOnlyPolicy", "PerformanceBounds", "PolicyLp", "build_lp",
        "lambda_in_capacity", "performance_bounds", "slater_dmax", "solve_fopt",
    ],
    "controller": [
        "DppBatchResult", "DppRunResult", "DriftConstants", "compile_tables",
        "dpp_select_action", "drift_constants", "is_uncontrolled_single_queue",
        "run_dpp_batch",
    ],
    "network": [
        "Action", "AffineFunction", "Scenario", "ScenarioError", "ScenarioValidation",
        "StepRecord", "evaluate_action", "fixture_path", "load_scenario", "network_step",
        "validate",
    ],
    "processes": [
        "ArrivalSpec", "FiniteMarkovChain", "MixingReport", "PeriodicChainError",
        "ReducibleChainError", "StationaryDistribution", "make_rng", "mixing_time",
        "sample_path", "splitmix64", "stationary_distribution", "substream_seed",
    ],
    "queues": [
        "CompositeState", "SlotIO", "conservation_check", "lyapunov_value", "queue_step",
        "virtual_queue_step",
    ],
    "simplex": ["LpResult", "SimplexError", "solve_lp"],
    "stability": [
        "BB1Params", "InsufficientReplicationsError", "StabilityVerdict", "TraceEnsemble",
        "VerdictThresholds", "bb1_closed_form", "cex_mean_not_rate", "cex_rate_not_mean",
        "cex_strong_not_rate", "curve_rows", "estimate_verdict", "geometric_checkpoints",
        "markov_bound_violations", "single_queue_path", "verdict_report_items",
    ],
}


def test_package_exports():
    # Submodules become package attributes once imported; they are not exports.
    names = sorted(
        name
        for name, value in vars(qnetlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PACKAGE


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_all(module):
    mod = importlib.import_module(f"qnetlab.{module}")
    assert sorted(mod.__all__) == MODULES[module]
    assert all(hasattr(mod, name) for name in mod.__all__)
