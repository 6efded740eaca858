"""The record types: constructor parameters, validation errors and pickling.

Immutable records without validation are ``typing.NamedTuple``s; records
that validate or derive fields are plain classes with an explicit
``__init__``.  These tests pin what callers rely on: the parameter order and
defaults, the exact error of every validating constructor, and that every
record survives a pickle round trip (``--workers 2`` sends them between
processes).
"""

import inspect
import math
import pickle
import re

import numpy as np
import pytest

import oracles
from qnetlab import capacity, controller, network, processes, simplex, stability

# Constructor parameters in order; "name=default" where there is a default.
SIGNATURES = {
    capacity.CapacityReport:
        "feasible f_opt d_max policy binding_constraints routing_outer_bound",
    capacity.PerformanceBounds: "c_0 T_eps backlog_bound cost_bound",
    capacity.PolicyLp:
        "scenario lambdas c c0 a_ub b_ub row_names a_eq b_eq",
    controller.DppRunResult:
        "horizon q_path z_path omega_path action_path x_path f_path g_path",
    controller.DppBatchResult: "backlog_sum cost_sum g_sum runs reducer=None",
    controller.DriftConstants: "B D T d_max f_opt f_min f_max delta=nan",
    network.Scenario: "name omega_chain names y b x c0 coeffs arrivals routing=None",
    oracles.StepRecord: "omega_index action_index arrivals y_offered b_offered y_actual "
                        "b_actual x f_value g_values",
    processes.FiniteMarkovChain: "transition initial labels=()",
    processes.ArrivalSpec: "kind rate p=0.0 size=1.0 values=() probs=()",
    simplex.LpResult: "status x objective",
    simplex._Optimum: "tableau basis signs identity eligible",
    stability.StabilityVerdict: "rate_slope mean_rate_slope strong_metric m_grid g_curve "
                                "h_p05 h_p95 rate_stable mean_rate_stable "
                                "steady_state_stable strongly_stable running_mean_half",
}


def signature_text(cls) -> str:
    params = inspect.signature(cls).parameters.values()
    return " ".join(
        p.name if p.default is inspect.Parameter.empty else f"{p.name}={p.default}"
        for p in params
    )


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
def test_constructor_parameters_keep_order_and_defaults(cls):
    assert signature_text(cls) == SIGNATURES[cls]


def test_positional_and_keyword_construction_agree():
    chain_args = (np.array([[0.5, 0.5], [0.2, 0.8]]), np.array([1.0, 0.0]), ("off", "on"))
    by_pos = processes.FiniteMarkovChain(*chain_args)
    by_kw = processes.FiniteMarkovChain(transition=chain_args[0], initial=chain_args[1],
                                        labels=chain_args[2])
    assert by_pos.labels == by_kw.labels == ("off", "on")
    assert np.array_equal(by_pos.transition, by_kw.transition)
    assert processes.FiniteMarkovChain(*chain_args[:2]).labels == ("s0", "s1")

    spec = processes.ArrivalSpec("iid_table", 0.5, 0.0, 1.0, (0.0, 1.0), (0.5, 0.5))
    assert vars(spec) == vars(processes.ArrivalSpec(
        kind="iid_table", rate=0.5, values=(0.0, 1.0), probs=(0.5, 0.5)))
    assert vars(processes.ArrivalSpec("bernoulli", 0.2, p=0.2)) == {
        "kind": "bernoulli", "rate": 0.2, "p": 0.2, "size": 1.0, "values": (), "probs": (),
    }

    assert np.isnan(controller.DriftConstants(1.0, 2.0, 3, 0.1, 0.0, 0.0, 1.0).delta)


def _arguments(scenario):
    """The constructor arguments that ``scenario`` keeps, by name."""
    return {key: getattr(scenario, key) for key in inspect.signature(network.Scenario).parameters}


def test_scenario_keeps_its_arguments_and_defaults_routing_to_a_new_list():
    downlink2 = network.load_scenario("downlink2.json")
    # The compiled arrays are built by the constructor, not passed to it.
    args = _arguments(downlink2)
    del args["routing"]
    first, second = network.Scenario(**args), network.Scenario(*args.values())
    assert first.routing == [] and second.routing == [] and first.routing is not second.routing
    assert all(getattr(first, key) is value for key, value in args.items())


def _scenario(**changes):
    return network.load_scenario("downlink2.json")._replace(**changes)


def _chain(transition, initial=(1.0, 0.0), labels=()):
    return processes.FiniteMarkovChain(np.asarray(transition, float),
                                       np.asarray(initial, float), labels)


# (constructor call, error class, exact message) for each validating record.
INVALID = [
    (lambda: stability.bb1_closed_form(1.0, 0.5), ValueError,
     "need lam in [0, 1) and mu in (0, 1]"),
    (lambda: oracles.CompositeState(np.zeros((1, 1)), np.zeros(0)), ValueError,
     "queues and virtuals must be 1-d vectors"),
    (lambda: oracles.estimate_verdict(np.zeros(5)), ValueError,
     "backlog must be a (n_reps, horizon) matrix"),
    (lambda: stability.VerdictReducer(1, 1000).add(0, np.full((1, 5), np.nan)), ValueError,
     "backlogs must be non-negative numbers"),
    (lambda: _chain([[1.0, 0.0]]), ValueError, "transition must be a square matrix"),
    (lambda: _chain([[1.0]], (1.0, 0.0)), ValueError,
     "initial distribution length must match state count"),
    (lambda: _chain([[1.5, -0.5], [0.5, 0.5]]), ValueError,
     "transition entries must be finite and lie in [0, 1]"),
    (lambda: _chain([[0.5, 0.4], [0.5, 0.5]]), ValueError,
     "transition row 0 sums to 0.9, not 1"),
    (lambda: _chain([[0.5, 0.5], [0.5, 0.5]], (0.5, 0.4)), ValueError,
     "initial distribution must be a probability vector"),
    (lambda: _chain([[0.5, 0.5], [0.5, 0.5]], labels=("a",)), ValueError,
     "labels length must match state count"),
    (lambda: processes.ArrivalSpec("poisson", 1.0), ValueError,
     "unknown arrival kind 'poisson'"),
    (lambda: processes.ArrivalSpec("bernoulli", -1.0), ValueError,
     "declared rate must be a non-negative finite real"),
    (lambda: processes.ArrivalSpec("bernoulli", 0.5, p=0.4), ValueError,
     "declared rate 0.5 does not match analytic mean 0.4"),
    (lambda: processes.ArrivalSpec("bernoulli", 0.5, p=1.5), ValueError,
     "bernoulli arrivals need p in [0,1] and a finite size >= 0"),
    (lambda: processes.ArrivalSpec("deterministic", 0.0), ValueError,
     "deterministic arrivals need a non-empty sequence"),
    (lambda: processes.ArrivalSpec("iid_table", 1.0, values=(1.0,), probs=(0.5,)), ValueError,
     "iid_table probs must form a probability vector"),
    (lambda: _scenario(names=()), network.ScenarioError,
     "actions: need one action list per omega state"),
    (lambda: _scenario(names=(("idle",), ("idle", "serve-1"), ())), network.ScenarioError,
     "actions[2]: action list is empty"),
    (lambda: _scenario(x=np.zeros((3, 2))), network.ScenarioError,
     "actions: y, b and x must be (S, A, K), (S, A, K) and (S, A, M) arrays, with K >= 1"),
    (lambda: _scenario(b=np.ones((3, 2, 2))), network.ScenarioError,
     "actions: entries past a state's last action must be zero"),
    (lambda: _scenario(arrivals=[]), network.ScenarioError,
     "arrivals: need one arrival spec per queue"),
    (lambda: _scenario(c0=np.zeros(1)), network.ScenarioError,
     "constraints: need one affine function per constraint"),
    (lambda: _scenario(coeffs=np.zeros((2, 2))), network.ScenarioError,
     "cost: coefficient length must equal M"),
    (lambda: _scenario(c0=np.array([0.0, np.nan])), network.ScenarioError,
     "constraints[0]: constant and coefficients must be finite"),
    (lambda: _scenario(routing=[(0, 0)]), network.ScenarioError,
     "routing[0]: a queue cannot feed itself"),
    (lambda: _scenario(routing=[(0, 1), (0, 1)]), network.ScenarioError,
     "routing[1]: duplicate routing pair (0, 1)"),
]


@pytest.mark.parametrize("make, error, message", INVALID, ids=[m for _, _, m in INVALID])
def test_validating_records_raise_the_documented_error(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        make()
    assert type(info.value) is error


def _with(array, index, value):
    changed = array.copy()
    changed[index] = value
    return changed


# One change per constructor argument, on downlink2.  Every change but the
# arrivals and the chain moves one of the derived arrays; the cost change
# makes the idle actions' cost -0.0.
REPLACEMENTS = {
    "arrivals": lambda s: {"arrivals": s.arrivals[::-1]},
    "omega_chain": lambda s: {"omega_chain": processes.FiniteMarkovChain(
        np.full((3, 3), 1 / 3), np.array([0.0, 1.0, 0.0]), s.omega_chain.labels)},
    "y": lambda s: {"y": _with(s.y, (1, 1, 1), 0.5)},
    "b": lambda s: {"b": _with(s.b, (2, 1, 0), 0.25)},
    "x": lambda s: {"x": _with(s.x, (1, 1, 0), 2.5)},
    "c0-coeffs": lambda s: {"c0": np.array([-0.0, -0.3]), "coeffs": np.array([[-1.0], [2.0]])},
    "routing": lambda s: {"routing": [(0, 1)]},
}
DERIVED = ("real", "f", "pad", "g", "net", "y_offered")


@pytest.mark.parametrize("key", sorted(REPLACEMENTS))
def test_replace_rebuilds_every_derived_array(key):
    base = network.load_scenario("downlink2.json")
    changes = REPLACEMENTS[key](base)
    new = base._replace(**changes)
    fresh = network.Scenario(**{**_arguments(base), **changes})
    assert all(getattr(new, name) is value for name, value in changes.items())
    for name in DERIVED:
        got, want = getattr(new, name), getattr(fresh, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                         want.tobytes()), name
    moved = {name for name in DERIVED if getattr(new, name).tobytes()
             != getattr(base, name).tobytes()}
    assert bool(moved) == (key not in ("arrivals", "omega_chain")), moved
    if key == "c0-coeffs":
        assert new.f[0, 0] == 0.0 and math.copysign(1.0, new.f[0, 0]) == -1.0


# A bad override and the error of a scenario built from scratch with it.
BAD_REPLACEMENTS = {
    "arrivals": lambda s: {"arrivals": s.arrivals[:1]},
    "omega_chain": lambda s: {"omega_chain": processes.FiniteMarkovChain(
        np.full((2, 2), 0.5), np.array([1.0, 0.0]))},
    "y": lambda s: {"y": _with(s.y, (1, 1, 1), -0.5)},
    "b": lambda s: {"b": _with(s.b, (2, 1, 0), np.nan)},
    "x": lambda s: {"x": _with(s.x, (1, 1, 0), np.inf)},
    "c0-coeffs": lambda s: {"c0": np.array([0.0, 0.0]), "coeffs": np.array([[2.0], [np.inf]])},
    "routing": lambda s: {"routing": [(1, 2)]},
}


@pytest.mark.parametrize("key", sorted(BAD_REPLACEMENTS))
def test_a_bad_replacement_raises_the_constructor_error(key):
    base = network.load_scenario("downlink2.json")
    changes = BAD_REPLACEMENTS[key](base)
    with pytest.raises(network.ScenarioError) as want:
        network.Scenario(**{**_arguments(base), **changes})
    with pytest.raises(network.ScenarioError) as got:
        base._replace(**changes)
    assert (got.value.location, str(got.value)) == (want.value.location, str(want.value))


def every_record():
    """One instance of each public record type, made by the code that makes it."""
    scenario = network.load_scenario("downlink2.json")
    state = oracles.CompositeState.zeros(scenario.n_queues, scenario.n_constraints)
    _, step = oracles.network_step(scenario, state, 0, 0, np.zeros(scenario.n_queues))
    lp = capacity.build_lp(scenario)
    report = lp.solve()
    lp_data = (np.ones(1), np.zeros((0, 1)), np.zeros(0), np.ones((1, 1)), np.ones(1))
    drift = controller.drift_constants(scenario)
    batch = controller.run_dpp_batch(scenario, [1.0, 2.0], [0, 1], 5, 1000, record=1)
    return [
        scenario, scenario.omega_chain, scenario.arrivals[0], step,
        lp, report,
        capacity.performance_bounds(scenario, 1.0, drift.d_max / 4, drift), drift,
        batch, batch.runs[0],
        controller.run_dpp_batch(scenario, [1.0] * 3, [0, 1, 2], 5, 1000,
                                 reducer=stability.VerdictReducer).reducer.verdict(),
        simplex._result(*simplex._two_phase(*lp_data), lp_data[0]),
    ]


def test_every_record_survives_a_pickle_round_trip():
    records = every_record()
    assert {type(r) for r in records} == set(SIGNATURES) - {simplex._Optimum}
    for record in records:
        data = pickle.dumps(record)
        copy = pickle.loads(data)
        assert type(copy) is type(record)
        assert pickle.dumps(copy) == data
