"""Parity of the compiled scenario arrays and their readers with the
per-action references in ``oracles``.

The scenario's arrays are built once per scenario; ``validate`` (run by the
constructor), ``build_lp`` and ``drift_constants`` read them with array ops.
Each must give the bits of its one-``evaluate_action``-per-(omega, action)
loop, signed zeros included, on random valid scenarios.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from oracles import (
    build_scenario,
    drift_by_actions,
    evaluate_action,
    lp_by_actions,
    scenario_args,
    validate_by_actions,
)
from qnetlab.capacity import CapacityReport, build_lp
from qnetlab.controller import drift_constants
from qnetlab.network import Scenario, ScenarioError, load_scenario, validate
from qnetlab.processes import ArrivalSpec, FiniteMarkovChain, ReducibleChainError
from test_controller import fuzzed_scenarios
from test_golden import RELAY8

# drift_constants with the LP's answer given: no LP is solved.
INTERIOR = CapacityReport(True, 0.0, 1.0, None, (), False)


def same_bits(a, b) -> bool:
    """Equal shapes and equal float64 bits (so 0.0 differs from -0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_tables_match_actions(scenario):
    for w, acts in enumerate(scenario.names):
        for i in range(len(acts)):
            y, b, _, f_value, g_values = evaluate_action(scenario, w, i)
            assert same_bits(scenario.y_offered[w, i], y)
            assert same_bits(scenario.f[w, i], f_value)
            assert same_bits(scenario.g[w, i], g_values)
            assert same_bits(scenario.net[w, i], y - b)
            assert scenario.pad[w, i] == 0.0
        padding = slice(len(acts), None)
        assert scenario.real[w].tolist() == [i < len(acts) for i in range(scenario.f.shape[1])]
        assert np.all(scenario.pad[w, padding] == np.inf)
        for field in (scenario.f, scenario.g, scenario.net, scenario.y_offered):
            assert same_bits(field[w, padding], np.zeros_like(field[w, padding]))


def assert_readers_match_actions(scenario):
    assert validate(scenario) is None and validate_by_actions(scenario) is None
    try:
        scenario.stationary()
    except ReducibleChainError:
        return  # no stationary distribution: no LP and no drift constants
    lp = build_lp(scenario)
    for got, want in zip((lp.c, lp.a_ub, lp.b_ub, lp.a_eq), lp_by_actions(scenario, lp.lambdas)):
        assert same_bits(got, want)
    if scenario.omega_chain.period() == 1:
        drift = drift_constants(scenario, delta=0.25, report=INTERIOR)
        assert same_bits([drift.B, drift.D, drift.f_min, drift.f_max], drift_by_actions(scenario))


@given(scenario=fuzzed_scenarios())
@settings(max_examples=100, deadline=None)
def test_tables_and_readers_match_per_action_references(scenario):
    assert_tables_match_actions(scenario)
    assert_readers_match_actions(scenario)


@pytest.mark.parametrize("name", ["bb1", "downlink2", "relay8"])
def test_fixture_tables_and_readers_match_per_action_references(name):
    scenario = load_scenario(RELAY8 if name == "relay8" else name)
    assert_tables_match_actions(scenario)
    assert_readers_match_actions(scenario)


def signed_zero_scenario(order):
    """One queue, two states whose action costs are 0.0 and -0.0 in ``order``:
    ``-0.0 + 1.0 * x`` is -0.0 at x = -0.0 and 0.0 at x = 0.0."""
    def act(x):
        return (f"x{x}", [0.0], [1.0], [x])

    return build_scenario(
        [[act(x) for x in order], [act(order[-1])]],
        (-0.0, [1.0]),
        chain=FiniteMarkovChain(np.full((2, 2), 0.5), np.array([1.0, 0.0])),
        arrivals=[ArrivalSpec(kind="bernoulli", rate=0.2, p=0.2)],
        name="signed-zero",
    )


@pytest.mark.parametrize("order", [(0.0, -0.0), (-0.0, 0.0)], ids=["zero-first", "minus-first"])
def test_cost_extremes_keep_the_sign_of_the_first_zero(order):
    scenario = signed_zero_scenario(order)
    assert [math.copysign(1.0, f) for f in scenario.f[0]] == [
        math.copysign(1.0, x) for x in order
    ]
    drift = drift_constants(scenario, delta=0.25, report=INTERIOR)
    assert math.copysign(1.0, drift.f_min) == math.copysign(1.0, order[0])
    assert math.copysign(1.0, drift.f_max) == math.copysign(1.0, order[0])
    assert_readers_match_actions(scenario)


def overflowing(kind):
    """The constructor's arguments of a single-state scenario with finite
    tables whose evaluation overflows."""
    routed = kind == "routed"
    return scenario_args(
        [[
            ("ok", [0.0, 0.0], [0.0, 0.0], [0.0]),
            ("big", [0.0, 1e308 if routed else 0.0], [1e308 if routed else 0.0, 0.0], [10.0]),
        ]],
        (0.0, [1e308 if kind == "cost" else 0.0]),
        [(0.0, [1e308])] * int(kind == "constraint"),
        routing=[(0, 1)] if routed else [],
        name=kind,
    )


@pytest.mark.parametrize("kind", ["routed", "cost", "constraint"])
def test_overflowing_tables_fail_construction_with_the_reference_message(kind):
    args = overflowing(kind)
    with pytest.raises(ScenarioError) as want:
        validate_by_actions(SimpleNamespace(**args))
    with np.errstate(all="raise"), pytest.raises(ScenarioError) as got:
        Scenario(**args)  # the compile itself warns about nothing
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("actions[0][1]: non-finite")
