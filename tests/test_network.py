import json
import math

import numpy as np
import pytest

from oracles import CompositeState, evaluate_action, network_step, queue_step
from qnetlab.capacity import CapacityReport
from qnetlab.controller import drift_constants
from qnetlab.network import (
    Action,
    AffineFunction,
    Scenario,
    ScenarioError,
    fixture_path,
    load_scenario,
    scenario_from_dict,
    validate,
)
from qnetlab.processes import ArrivalSpec, FiniteMarkovChain, make_rng


def single_state_chain() -> FiniteMarkovChain:
    return FiniteMarkovChain(np.array([[1.0]]), np.array([1.0]))


def make_scenario(actions, *, k=2, n_l=0, m=1, cost=None, constraints=(), routing=()):
    return Scenario(
        name="test",
        n_queues=k,
        n_constraints=n_l,
        n_attributes=m,
        omega_chain=single_state_chain(),
        actions=[actions],
        cost=cost or AffineFunction(0.0, np.zeros(m)),
        constraints=list(constraints),
        arrivals=[ArrivalSpec(kind="bernoulli", rate=0.1, p=0.1) for _ in range(k)],
        routing=list(routing),
    )


def action(y, b, x, name="a"):
    return Action(name=name, y=np.asarray(y, float), b=np.asarray(b, float), x=np.asarray(x, float))


# ---------------------------------------------------------------------------
# evaluate_action
# ---------------------------------------------------------------------------


def test_evaluate_action_zero_coefficients_gives_constant_cost():
    s = make_scenario([action([0, 0], [0, 0], [3.0])], cost=AffineFunction(2.5, np.zeros(1)))
    _, _, _, f_value, _ = evaluate_action(s, 0, 0)
    assert f_value == 2.5


def test_evaluate_action_affine_arithmetic():
    s = make_scenario(
        [action([0, 0], [0, 0], [1.0, 2.0])],
        m=2,
        cost=AffineFunction(0.0, np.array([2.0, -1.0])),
    )
    _, _, _, f_value, _ = evaluate_action(s, 0, 0)
    assert f_value == 0.0


def test_evaluate_action_on_downlink_fixture():
    s = load_scenario("downlink2.json")
    on_off = s.omega_chain.labels.index("ON-OFF")
    names = [a.name for a in s.actions[on_off]]
    y, b, x, f_value, g_values = evaluate_action(s, on_off, names.index("serve-1"))
    assert list(b) == [1.0, 0.0]
    assert list(x) == [1.0]
    assert f_value == 1.0
    assert list(y) == [0.0, 0.0]
    assert g_values == pytest.approx([1.0 - 0.45])


# ---------------------------------------------------------------------------
# network_step
# ---------------------------------------------------------------------------


def test_step_reduces_to_single_queue_update():
    s = make_scenario([action([0, 0], [3, 0], [0.0])])
    state = CompositeState(np.array([5.0, 0.0]), np.zeros(0))
    nxt, rec = network_step(s, state, 0, 0, arrivals=np.array([2.0, 0.0]))
    assert list(nxt.queues) == [4.0, 0.0]
    assert list(rec.b_actual) == [3.0, 0.0]


def test_step_cannot_overdraw_empty_queue():
    s = make_scenario([action([0, 0], [1, 0], [0.0])])
    state = CompositeState(np.zeros(2), np.zeros(0))
    nxt, rec = network_step(s, state, 0, 0, arrivals=np.zeros(2), mode="respect")
    assert list(rec.b_actual) == [0.0, 0.0]
    assert list(nxt.queues) == [0.0, 0.0]


def test_endogenous_route_clamps_to_slot_start_content():
    s = make_scenario([action([0, 0], [1, 0], [0.0])], routing=[(0, 1)])
    state = CompositeState(np.array([0.5, 0.0]), np.zeros(0))
    nxt, rec = network_step(s, state, 0, 0, arrivals=np.zeros(2))
    assert rec.y_actual[1] == 0.5  # transfer limited to queue 0's content
    assert rec.y_offered[1] == 1.0
    assert nxt.queues[0] == 0.0
    assert nxt.queues[1] == 0.5


def test_same_slot_arrivals_are_not_forwardable():
    s = make_scenario([action([0, 0], [1, 0], [0.0])], routing=[(0, 1)])
    state = CompositeState(np.array([0.0, 0.0]), np.zeros(0))
    nxt, rec = network_step(s, state, 0, 0, arrivals=np.array([1.0, 0.0]))
    assert rec.y_actual[1] == 0.0
    assert nxt.queues[0] == 1.0  # arrival stays put this slot


def test_step_record_respects_offered_bounds():
    rng = make_rng(99, 0)
    s = make_scenario(
        [action([0.3, 0.1], [0.7, 0.2], [0.0]), action([0.0, 0.5], [1.5, 0.0], [1.0])],
        routing=[(0, 1)],
    )
    state = CompositeState(np.zeros(2), np.zeros(0))
    for _ in range(500):
        a = rng.random(2)
        idx = int(rng.integers(0, 2))
        state, rec = network_step(s, state, 0, idx, arrivals=a)
        assert np.all(rec.y_actual <= rec.y_offered + 1e-15)
        assert np.all(rec.b_actual <= rec.b_offered + 1e-15)
        assert np.all(state.queues >= 0)


def test_clamped_mode_uses_max_form_with_offered_quantities():
    s = make_scenario([action([0.0, 2.0], [5.0, 0.0], [0.0])])
    state = CompositeState(np.array([1.0, 0.0]), np.zeros(0))
    nxt, _ = network_step(s, state, 0, 0, arrivals=np.array([0.5, 0.0]), mode="clamped")
    assert nxt.queues[0] == 0.5  # max(1 - 5, 0) + 0.5
    assert nxt.queues[1] == 2.0


def test_virtual_queues_update_from_constraint_values():
    g = AffineFunction(-0.5, np.array([1.0]))
    s = make_scenario(
        [action([0, 0], [0, 0], [0.0]), action([0, 0], [0, 0], [1.0])],
        n_l=1,
        constraints=[g],
    )
    state = CompositeState(np.zeros(2), np.array([0.2]))
    nxt, rec = network_step(s, state, 0, 1, arrivals=np.zeros(2))
    assert rec.g_values == pytest.approx([0.5])
    assert nxt.virtuals == pytest.approx([0.7])
    nxt2, _ = network_step(s, nxt, 0, 0, arrivals=np.zeros(2))
    assert nxt2.virtuals == pytest.approx([0.2])


def test_single_queue_network_is_bit_exact_with_queue_step():
    rng = make_rng(4242, 0)
    b_val = float(rng.random() * 2)
    s = Scenario(
        name="one",
        n_queues=1,
        n_constraints=0,
        n_attributes=0,
        omega_chain=single_state_chain(),
        actions=[[action([0.0], [b_val], [])]],
        cost=AffineFunction(0.0, np.zeros(0)),
        constraints=[],
        arrivals=[ArrivalSpec(kind="bernoulli", rate=0.1, p=0.1)],
    )
    state = CompositeState(np.array([0.0]), np.zeros(0))
    q_ref = 0.0
    for _ in range(2000):
        a = float(rng.random() * 1.5)
        state, _ = network_step(s, state, 0, 0, arrivals=np.array([a]))
        q_ref, _ = queue_step(q_ref, a, b_val)
        assert state.queues[0] == q_ref  # bit-exact


def test_step_rejects_bad_action_index():
    s = make_scenario([action([0, 0], [0, 0], [0.0])])
    state = CompositeState(np.zeros(2), np.zeros(0))
    with pytest.raises(IndexError):
        network_step(s, state, 0, 5, arrivals=np.zeros(2))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def cost_extremes(scenario):
    """``f_min`` and ``f_max`` as ``drift_constants`` reads them off the
    tables (an interior LP answer is given, so no LP is solved)."""
    interior = CapacityReport(True, 0.0, 1.0, None, (), False)
    drift = drift_constants(scenario, delta=0.25, report=interior)
    return drift.f_min, drift.f_max


def test_validate_all_zero_tables():
    s = make_scenario([action([0, 0], [0, 0], [0.0])], cost=AffineFunction(1.5, np.zeros(1)))
    assert validate(s) is None
    assert cost_extremes(s) == (1.5, 1.5)


def test_validate_two_action_cost_extremes():
    s = make_scenario(
        [action([0, 0], [0, 0], [1.0]), action([0, 0], [0, 0], [2.0])],
        cost=AffineFunction(0.0, np.array([1.0])),
    )
    assert validate(s) is None
    assert cost_extremes(s) == (1.0, 2.0)


def test_validate_downlink_fixture_second_moment():
    s = load_scenario("downlink2.json")
    assert validate(s) is None
    drift = drift_constants(s)
    assert (drift.f_min, drift.f_max) == (0.0, 1.0)
    # B by hand, with pi = (3, 4, 4) / 11: per state, half the worst service
    # square per queue, half each Bernoulli(0.15) second moment, and the
    # worst square of g = x - 0.45.
    per_state = [0.15 + 0.45**2, 0.5 + 0.15 + 0.55**2, 0.5 + 0.15 + 0.55**2]
    assert drift.B == pytest.approx(np.dot([3 / 11, 4 / 11, 4 / 11], per_state), rel=1e-12)


def test_validate_rejects_non_finite_tables():
    # Finite tables load, but the routed offer 1e308 + 1e308 overflows.
    s = make_scenario([action([0, 1e308], [1e308, 0], [0.0])], routing=[(0, 1)])
    with np.errstate(over="ignore"), pytest.raises(ScenarioError, match="non-finite"):
        validate(s)


def test_affine_passthrough_over_action_mixtures():
    # E[f(x)] == f(E[x]) for affine f under any finite mixture of actions.
    s = load_scenario("downlink2.json")
    rng = make_rng(7, 0)
    for w in range(s.omega_chain.n_states):
        acts = s.actions[w]
        xs = np.stack([evaluate_action(s, w, i)[2] for i in range(len(acts))])
        fs = np.array([evaluate_action(s, w, i)[3] for i in range(len(acts))])
        for _ in range(25):
            weights = rng.random(len(acts))
            weights /= weights.sum()
            assert np.dot(weights, fs) == pytest.approx(s.cost(weights @ xs), abs=1e-12)


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


def test_fixtures_load():
    bb1 = load_scenario("bb1.json")
    assert (bb1.n_queues, bb1.n_constraints, bb1.n_attributes) == (1, 0, 1)
    dl2 = load_scenario(fixture_path("downlink2"))
    assert (dl2.n_queues, dl2.n_constraints, dl2.n_attributes) == (2, 1, 1)
    assert [len(acts) for acts in dl2.actions] == [1, 2, 2]


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        load_scenario("no-such-scenario.json")


def test_json_syntax_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "name": "x",\n  oops\n}\n')
    with pytest.raises(ScenarioError, match=r"broken\.json:3"):
        load_scenario(path)


def test_schema_error_reports_field_path(tmp_path):
    data = json.loads(fixture_path("bb1").read_text())
    del data["actions"][1][0]["b"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match=r"actions\[1\]\[0\]"):
        load_scenario(path)


def test_schema_rejects_negative_service_tables():
    data = json.loads(fixture_path("bb1").read_text())
    data["actions"][1][0]["b"] = [-1.0]
    with pytest.raises(ScenarioError, match="non-negative"):
        scenario_from_dict(data)


def test_schema_rejects_empty_action_list():
    data = json.loads(fixture_path("bb1").read_text())
    data["actions"][0] = []
    with pytest.raises(ScenarioError, match="empty"):
        scenario_from_dict(data)


def test_schema_rejects_bad_chain():
    data = json.loads(fixture_path("bb1").read_text())
    data["omega_chain"]["transition"] = [[0.9, 0.2], [0.5, 0.5]]
    with pytest.raises(ScenarioError, match="omega_chain"):
        scenario_from_dict(data)


def _load_with(tmp_path, edit) -> None:
    """Write the bb1 fixture with one edit as JSON (NaN/Infinity literals
    included, as Python's json module reads them) and load it."""
    data = json.loads(fixture_path("bb1").read_text())
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    load_scenario(path)


def test_load_rejects_infinite_bernoulli_size(tmp_path):
    def edit(data):
        data["arrivals"][0] = {"kind": "bernoulli", "p": 0.3, "size": math.inf, "rate": 0.3}

    with pytest.raises(ScenarioError, match=r"arrivals\[0\]: .*finite size"):
        _load_with(tmp_path, edit)


def test_load_rejects_nan_iid_table_value(tmp_path):
    def edit(data):
        data["arrivals"][0] = {
            "kind": "iid_table", "values": [0.0, math.nan], "probs": [0.5, 0.5], "rate": 0.3
        }

    with pytest.raises(ScenarioError, match=r"arrivals\[0\]: iid_table arrival values must be finite"):
        _load_with(tmp_path, edit)


def test_load_rejects_nan_transition_row(tmp_path):
    def edit(data):
        data["omega_chain"]["transition"][0] = [math.nan, math.nan]

    with pytest.raises(ScenarioError, match=r"omega_chain: transition entries must be finite"):
        _load_with(tmp_path, edit)


def _load_with_value(tmp_path, path, value) -> None:
    """Load the bb1 fixture with the field at ``path`` set to ``value``."""

    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value

    _load_with(tmp_path, edit)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("actions", 1, 0), 5, r"actions\[1\]\[0\]: expected an object"),
        (("actions", 1, 0, "b"), [True], r"actions\[1\]\[0\]\.b: expected a number"),
        (("dimensions", "K"), True, r"dimensions\.K: expected an integer"),
        (("dimensions", "M"), 1.9, r"dimensions\.M: expected an integer"),
        (("actions", 1, 0, "x"), [math.nan], r"actions\[1\]\[0\]\.x: table entries must be finite"),
        (("cost", "c"), [math.nan], r"cost: constant and coefficients must be finite"),
    ],
    ids=["non-object-action", "boolean-entry", "boolean-dimension", "fractional-dimension",
         "nan-action-entry", "nan-cost-coefficient"],
)
def test_load_rejects_malformed_field(tmp_path, path, value, message):
    with pytest.raises(ScenarioError, match=message):
        _load_with_value(tmp_path, path, value)


def test_schema_roundtrip_through_loader(tmp_path):
    # A scenario serialized back to JSON loads to the same tables.
    src = json.loads(fixture_path("downlink2").read_text())
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(src))
    a = load_scenario(fixture_path("downlink2"))
    b = load_scenario(path)
    assert np.array_equal(a.omega_chain.transition, b.omega_chain.transition)
    for w in range(3):
        for i in range(len(a.actions[w])):
            assert np.array_equal(a.actions[w][i].b, b.actions[w][i].b)
    assert a.lambdas == pytest.approx(b.lambdas)
