import json
import math
import tracemalloc

import numpy as np
import pytest

from oracles import CompositeState, build_scenario, evaluate_action, network_step, queue_step
from qnetlab.capacity import CapacityReport
from qnetlab.controller import drift_constants
from qnetlab.network import (
    ScenarioError,
    fixture_path,
    load_scenario,
    scenario_from_dict,
    validate,
)
from qnetlab.processes import make_rng


def make_scenario(actions, *, cost=(0.0, [0.0]), constraints=(), routing=()):
    """One state, its actions given as ``(y, b, x)`` triples."""
    return build_scenario([[("a", *act) for act in actions]], cost, constraints,
                          routing=routing)


# ---------------------------------------------------------------------------
# evaluate_action
# ---------------------------------------------------------------------------


def test_evaluate_action_zero_coefficients_gives_constant_cost():
    s = make_scenario([([0, 0], [0, 0], [3.0])], cost=(2.5, [0.0]))
    _, _, _, f_value, _ = evaluate_action(s, 0, 0)
    assert f_value == 2.5


def test_evaluate_action_affine_arithmetic():
    s = make_scenario([([0, 0], [0, 0], [1.0, 2.0])], cost=(0.0, [2.0, -1.0]))
    _, _, _, f_value, _ = evaluate_action(s, 0, 0)
    assert f_value == 0.0


def test_evaluate_action_on_downlink_fixture():
    s = load_scenario("downlink2.json")
    on_off = s.omega_chain.labels.index("ON-OFF")
    y, b, x, f_value, g_values = evaluate_action(s, on_off, s.names[on_off].index("serve-1"))
    assert list(b) == [1.0, 0.0]
    assert list(x) == [1.0]
    assert f_value == 1.0
    assert list(y) == [0.0, 0.0]
    assert g_values == pytest.approx([1.0 - 0.45])


# ---------------------------------------------------------------------------
# network_step
# ---------------------------------------------------------------------------


def test_step_reduces_to_single_queue_update():
    s = make_scenario([([0, 0], [3, 0], [0.0])])
    state = CompositeState(np.array([5.0, 0.0]), np.zeros(0))
    nxt, rec = network_step(s, state, 0, 0, arrivals=np.array([2.0, 0.0]))
    assert list(nxt.queues) == [4.0, 0.0]
    assert list(rec.b_actual) == [3.0, 0.0]


def test_step_cannot_overdraw_empty_queue():
    s = make_scenario([([0, 0], [1, 0], [0.0])])
    state = CompositeState(np.zeros(2), np.zeros(0))
    nxt, rec = network_step(s, state, 0, 0, arrivals=np.zeros(2), mode="respect")
    assert list(rec.b_actual) == [0.0, 0.0]
    assert list(nxt.queues) == [0.0, 0.0]


def test_endogenous_route_clamps_to_slot_start_content():
    s = make_scenario([([0, 0], [1, 0], [0.0])], routing=[(0, 1)])
    state = CompositeState(np.array([0.5, 0.0]), np.zeros(0))
    nxt, rec = network_step(s, state, 0, 0, arrivals=np.zeros(2))
    assert rec.y_actual[1] == 0.5  # transfer limited to queue 0's content
    assert rec.y_offered[1] == 1.0
    assert nxt.queues[0] == 0.0
    assert nxt.queues[1] == 0.5


def test_same_slot_arrivals_are_not_forwardable():
    s = make_scenario([([0, 0], [1, 0], [0.0])], routing=[(0, 1)])
    state = CompositeState(np.array([0.0, 0.0]), np.zeros(0))
    nxt, rec = network_step(s, state, 0, 0, arrivals=np.array([1.0, 0.0]))
    assert rec.y_actual[1] == 0.0
    assert nxt.queues[0] == 1.0  # arrival stays put this slot


def test_step_record_respects_offered_bounds():
    rng = make_rng(99, 0)
    s = make_scenario(
        [([0.3, 0.1], [0.7, 0.2], [0.0]), ([0.0, 0.5], [1.5, 0.0], [1.0])],
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
    s = make_scenario([([0.0, 2.0], [5.0, 0.0], [0.0])])
    state = CompositeState(np.array([1.0, 0.0]), np.zeros(0))
    nxt, _ = network_step(s, state, 0, 0, arrivals=np.array([0.5, 0.0]), mode="clamped")
    assert nxt.queues[0] == 0.5  # max(1 - 5, 0) + 0.5
    assert nxt.queues[1] == 2.0


def test_virtual_queues_update_from_constraint_values():
    s = make_scenario([([0, 0], [0, 0], [0.0]), ([0, 0], [0, 0], [1.0])],
                      constraints=[(-0.5, [1.0])])
    state = CompositeState(np.zeros(2), np.array([0.2]))
    nxt, rec = network_step(s, state, 0, 1, arrivals=np.zeros(2))
    assert rec.g_values == pytest.approx([0.5])
    assert nxt.virtuals == pytest.approx([0.7])
    nxt2, _ = network_step(s, nxt, 0, 0, arrivals=np.zeros(2))
    assert nxt2.virtuals == pytest.approx([0.2])


def test_single_queue_network_is_bit_exact_with_queue_step():
    rng = make_rng(4242, 0)
    b_val = float(rng.random() * 2)
    s = build_scenario([[("a", [0.0], [b_val], [])]], (0.0, []), name="one")
    state = CompositeState(np.array([0.0]), np.zeros(0))
    q_ref = 0.0
    for _ in range(2000):
        a = float(rng.random() * 1.5)
        state, _ = network_step(s, state, 0, 0, arrivals=np.array([a]))
        q_ref, _ = queue_step(q_ref, a, b_val)
        assert state.queues[0] == q_ref  # bit-exact


def test_step_rejects_bad_action_index():
    s = make_scenario([([0, 0], [0, 0], [0.0])])
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
    s = make_scenario([([0, 0], [0, 0], [0.0])], cost=(1.5, [0.0]))
    assert validate(s) is None
    assert cost_extremes(s) == (1.5, 1.5)


def test_validate_two_action_cost_extremes():
    s = make_scenario(
        [([0, 0], [0, 0], [1.0]), ([0, 0], [0, 0], [2.0])],
        cost=(0.0, [1.0]),
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
    # The tables are finite, but the routed offer 1e308 + 1e308 overflows,
    # which the constructor's validate rejects.
    with pytest.raises(ScenarioError, match=r"^actions\[0\]\[0\]: non-finite y table entry$"):
        make_scenario([([0, 1e308], [1e308, 0], [0.0])], routing=[(0, 1)])


def test_affine_passthrough_over_action_mixtures():
    # E[f(x)] == f(E[x]) for affine f under any finite mixture of actions.
    s = load_scenario("downlink2.json")
    rng = make_rng(7, 0)
    for w in range(s.omega_chain.n_states):
        n_act = len(s.names[w])
        xs = np.stack([evaluate_action(s, w, i)[2] for i in range(n_act)])
        fs = np.array([evaluate_action(s, w, i)[3] for i in range(n_act)])
        for _ in range(25):
            weights = rng.random(n_act)
            weights /= weights.sum()
            cost = s.c0[0] + s.coeffs[0] @ (weights @ xs)
            assert np.dot(weights, fs) == pytest.approx(cost, abs=1e-12)


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


def test_fixtures_load():
    bb1 = load_scenario("bb1.json")
    assert (bb1.n_queues, bb1.n_constraints, bb1.n_attributes) == (1, 0, 1)
    dl2 = load_scenario(fixture_path("downlink2"))
    assert (dl2.n_queues, dl2.n_constraints, dl2.n_attributes) == (2, 1, 1)
    assert [len(acts) for acts in dl2.names] == [1, 2, 2]


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
    """Load the bb1 fixture with the field at ``path`` set to ``value``; an
    empty ``path`` sets the top-level fields of ``value``."""

    def edit(data):
        for key in path[:-1]:
            data = data[key]
        if path:
            data[path[-1]] = value
        else:
            data.update(value)

    _load_with(tmp_path, edit)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("actions", 1, 0), 5, r"actions\[1\]\[0\]: expected an object"),
        (("actions", 1, 0, "b"), [True], r"actions\[1\]\[0\]\.b: expected a number"),
        (("dimensions", "K"), True, r"dimensions\.K: expected an integer"),
        (("dimensions", "M"), 1.9, r"dimensions\.M: expected an integer"),
        (("actions", 1, 0, "x"), [math.nan], r"actions\[1\]\[0\]\.x: table entries must be finite"),
        (("actions", 1, 0, "y"), [math.nan], r"actions\[1\]\[0\]\.y: table entries must be finite"),
        (("actions", 1, 0, "b"), [-math.inf], r"actions\[1\]\[0\]\.b: table entries must be finite"),
        (("actions", 1, 0, "y"), [-1.0], r"actions\[1\]\[0\]: offered y and b must be non-negative"),
        (("actions", 1, 0, "b"), [-1.0], r"actions\[1\]\[0\]: offered y and b must be non-negative"),
        # Two offenders: the first action in (omega, action) order is named,
        # and within an action y, b, x are checked for finiteness, then the sign.
        (("actions", 1), [{"y": [0.0], "b": [-1.0], "x": [0.0]},
                          {"y": [math.nan], "b": [0.0], "x": [0.0]}],
         r"actions\[1\]\[0\]: offered y and b must be non-negative"),
        (("actions", 1, 0), {"y": [-1.0], "b": [math.nan], "x": [math.inf]},
         r"actions\[1\]\[0\]\.b: table entries must be finite"),
        # Every shape error comes before any value error, and the table
        # inputs of every action before any evaluated value.
        (("actions",), [[{"y": [0.0], "b": [0.0], "x": [math.nan]}],
                        [{"y": [0.0, 0.0], "b": [0.0], "x": [0.0]}]],
         r"actions\[1\]\[0\]: table vector lengths do not match K/M"),
        ((), {"cost": {"c0": 0.0, "c": [1e308]},
              "actions": [[{"y": [0.0], "b": [0.0], "x": [10.0]}],
                          [{"y": [math.nan], "b": [1.0], "x": [1.0]}]]},
         r"actions\[1\]\[0\]\.y: table entries must be finite"),
        (("cost", "c"), [math.nan], r"cost: constant and coefficients must be finite"),
        (("omega_chain", "transition"), [[1.0], [0.5, 0.5]],
         r"omega_chain\.transition\[0\]: expected 2 entries, one per state, got 1"),
        (("omega_chain", "transition", 0), [0.5, "x", 0.5],
         r"omega_chain\.transition\[0\]: expected a number"),
        (("omega_chain", "initial"), [[0.5], 0.5, 0], r"omega_chain\.initial: expected a number"),
        (("omega_chain", "transition"), [[False, True], [False, True]],
         r"omega_chain\.transition\[0\]: expected a number"),
        # Labels and names are written into the reports, labels and action
        # names into report keys.
        (("omega_chain", "labels"), [[1], {"a": 1}],
         r"^omega_chain\.labels\[0\]: expected a string$"),
        (("omega_chain", "labels"), ["OFF", None], r"^omega_chain\.labels\[1\]: expected a string$"),
        (("omega_chain", "labels"), ["OFF", "O\nN"],
         r"^omega_chain\.labels\[1\]: a name must not contain a line break$"),
        (("omega_chain", "labels"), ["OFF", "ON=1"],
         r"^omega_chain\.labels\[1\]: a label or action name must not contain '='$"),
        (("actions", 1, 0, "name"), 5, r"^actions\[1\]\[0\]\.name: expected a string$"),
        (("actions", 1, 0, "name"), "a\nb=c",
         r"^actions\[1\]\[0\]\.name: a name must not contain a line break$"),
        (("actions", 1, 0, "name"), "serve=1",
         r"^actions\[1\]\[0\]\.name: a label or action name must not contain '='$"),
        (("name",), ["bb1"], r"^name: expected a string$"),
        (("name",), "bb\r1", r"^name: a name must not contain a line break$"),
    ],
    ids=["non-object-action", "boolean-entry", "boolean-dimension", "fractional-dimension",
         "nan-action-entry", "nan-y-entry", "infinite-b-entry", "negative-y-entry",
         "negative-b-entry", "first-action-first", "b-before-x-before-sign",
         "values-before-a-later-length", "inputs-before-evaluated-values",
         "nan-cost-coefficient", "ragged-transition", "string-transition-entry",
         "nested-initial-entry", "boolean-transition-entries", "non-string-label",
         "null-label", "label-line-break", "label-equals", "non-string-action-name",
         "action-name-line-break", "action-name-equals", "non-string-name", "name-line-break"],
)
def test_load_rejects_malformed_field(tmp_path, path, value, message):
    with pytest.raises(ScenarioError, match=message):
        _load_with_value(tmp_path, path, value)


def test_names_may_repeat_and_a_scenario_name_may_hold_an_equals_sign():
    data = json.loads(fixture_path("downlink2").read_text())
    data["name"] = "downlink=2"
    data["actions"][1][1]["name"] = "idle"
    s = scenario_from_dict(data)
    assert s.name == "downlink=2" and s.names[1] == ("idle", "idle")


@pytest.mark.parametrize("key, message", [
    ("K", r"^actions\[0\]\[0\]: table vector lengths do not match K/M$"),
    ("M", r"^actions\[0\]\[0\]: table vector lengths do not match K/M$"),
    ("L", r"^constraints: need one affine function per constraint$"),
])
def test_a_huge_dimension_fails_at_load_without_a_large_allocation(key, message):
    # The padded arrays are sized from the parsed and checked lengths, never
    # from the declared dimensions alone.
    data = json.loads(fixture_path("bb1").read_text())
    data["dimensions"][key] = 10**12
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_schema_roundtrip_through_loader(tmp_path):
    # A scenario serialized back to JSON loads to the same tables.
    src = json.loads(fixture_path("downlink2").read_text())
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(src))
    a = load_scenario(fixture_path("downlink2"))
    b = load_scenario(path)
    assert np.array_equal(a.omega_chain.transition, b.omega_chain.transition)
    assert a.names == b.names
    assert np.array_equal(a.b, b.b)
    assert a.lambdas == pytest.approx(b.lambdas)
