"""Pins the public API: the names the ``qnetlab`` package exports and each
module's ``__all__``.  Adding or removing a public name fails here, so every
change to the API surface shows up in the diff of this file.
"""

import importlib
import types

import pytest

import qnetlab

PACKAGE = [
    "ArrivalSpec", "CapacityReport", "DppBatchResult", "DppRunResult",
    "DriftConstants", "FiniteMarkovChain", "PerformanceBounds", "Scenario",
    "ScenarioError", "StabilityVerdict", "bb1_closed_form", "build_lp",
    "cex_strong_not_rate", "drift_constants", "fixture_path", "load_scenario",
    "make_rng", "mixing_time", "performance_bounds", "run_dpp_batch", "solve_fopt",
    "stationary_distribution", "validate",
]

MODULES = {
    "capacity": [
        "CapacityReport", "PerformanceBounds", "PolicyLp", "build_lp", "performance_bounds",
        "solve_fopt",
    ],
    "controller": [
        "DppBatchResult", "DppRunResult", "DriftConstants", "drift_constants", "run_dpp_batch",
    ],
    "network": [
        "Scenario", "ScenarioError", "fixture_path", "load_scenario", "validate",
    ],
    "processes": [
        "ArrivalSpec", "FiniteMarkovChain", "PeriodicChainError",
        "ReducibleChainError", "make_rng", "mixing_time", "sample_paths",
        "stationary_distribution",
    ],
    "queues": [],  # kept importable, with no names, for the benchmark's tracer
    "simplex": ["LpResult", "SimplexError", "solve_lp", "solve_lp_sequence"],
    "stability": [
        "OrderedSum", "StabilityVerdict", "VerdictReducer",
        "bb1_closed_form", "cex_mean_not_rate", "cex_rate_not_mean", "cex_strong_not_rate",
        "geometric_checkpoints", "verdict_report_items",
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
