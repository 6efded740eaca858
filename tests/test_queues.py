import inspect
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    CompositeState,
    SlotIO,
    conservation_check,
    lyapunov_value,
    queue_step,
    virtual_queue_step,
)

finite_backlog = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
finite_arrival = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
finite_service = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_queue_step_direct_substitution():
    q_next, io = queue_step(5, a=2, b=3)
    assert q_next == 4
    assert io.actual_service == 3


def test_queue_step_empty_queue_clamps():
    q_next, io = queue_step(0, a=0, b=5)
    assert q_next == 0
    assert io.actual_service == 0


def test_queue_step_service_exceeds_backlog():
    q_next, io = queue_step(2, a=1, b=5)
    assert q_next == 1
    assert io.actual_service == 2


def test_queue_step_negative_service_is_arrival_like():
    q_next, io = queue_step(1, a=0, b=-2)
    assert q_next == 3
    assert io.negative_part == 2
    assert io.actual_service == -2


def test_queue_step_rejects_bad_inputs():
    with pytest.raises(ValueError):
        queue_step(1, a=-0.5, b=0)
    with pytest.raises(ValueError):
        queue_step(-1, a=0, b=0)
    with pytest.raises(ValueError):
        queue_step(1, a=math.nan, b=0)
    with pytest.raises(ValueError):
        queue_step(1, a=0, b=math.inf)


def test_virtual_queue_step_examples():
    assert virtual_queue_step(3, -5) == 0
    assert virtual_queue_step(3, 2) == 5
    assert virtual_queue_step(0, 0) == 0
    with pytest.raises(ValueError):
        virtual_queue_step(1, math.nan)
    with pytest.raises(ValueError):
        virtual_queue_step(-1, 0)


@given(
    q=finite_backlog,
    a=finite_arrival,
    b=finite_service,
)
def test_two_form_equivalence(q, a, b):
    # max[q - b, 0] + a must equal q - min(b, q) + a, bit for bit.
    q_next, io = queue_step(q, a, b)
    assert q_next == (q - io.actual_service) + a
    assert io.actual_service <= io.offered_service


@given(
    st.lists(st.tuples(finite_arrival, finite_service), min_size=0, max_size=60),
    finite_backlog,
)
def test_reachable_states_stay_non_negative(slots, q0):
    q = q0
    for a, b in slots:
        q, _ = queue_step(q, a, b)
        assert q >= 0


def test_conservation_empty_trace():
    ok, residual = conservation_check([], q0=7.0, q_final=7.0)
    assert ok and residual == 0


def test_conservation_three_step_trace():
    q = 0.0
    trace = []
    for a, b in [(1, 0), (1, 0), (1, 0)]:
        q, io = queue_step(q, a, b)
        trace.append(io)
    ok, residual = conservation_check(trace, q0=0.0, q_final=q)
    assert q == 3 and ok and residual == 0


def test_conservation_long_bb1_trace():
    rng = np.random.default_rng(42)
    arrivals = (rng.random(10_000) < 0.4).astype(float)
    services = (rng.random(10_000) < 0.5).astype(float)
    q = 0.0
    trace = []
    for a, b in zip(arrivals, services):
        q, io = queue_step(q, a, b)
        trace.append(io)
    ok, residual = conservation_check(trace, q0=0.0, q_final=q)
    assert ok
    assert abs(residual) <= 1e-9


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=-100.0, max_value=100.0),
        ),
        min_size=1,
        max_size=80,
    )
)
@settings(max_examples=200)
def test_conservation_on_fuzzed_float_traces(slots):
    q = 0.0
    trace = []
    for a, b in slots:
        q, io = queue_step(q, a, b)
        trace.append(io)
    ok, _ = conservation_check(trace, q0=0.0, q_final=q)
    assert ok


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=-100.0, max_value=100.0),
            st.floats(min_value=0.0, max_value=50.0),
        ),
        min_size=1,
        max_size=80,
    ),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_pathwise_monotonicity_in_arrivals(slots, q0):
    # Same service sequence, arrivals inflated by z(t) >= 0: the inflated
    # queue dominates at every slot.
    q_plain = q0
    q_big = q0
    for a, b, z in slots:
        q_plain, _ = queue_step(q_plain, a, b)
        q_big, _ = queue_step(q_big, a + z, b)
        assert q_big >= q_plain


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=-100.0, max_value=100.0),
        ),
        min_size=1,
        max_size=100,
    )
)
def test_offered_rate_lower_bounds_backlog_growth(slots):
    # Q(t)/t - Q(0)/t >= (1/t) sum a - (1/t) sum b on every trace.
    q0 = 5.0
    q = q0
    for a, b in slots:
        q, _ = queue_step(q, a, b)
    t = len(slots)
    lhs = q / t - q0 / t
    rhs = (math.fsum(a for a, _ in slots) - math.fsum(b for _, b in slots)) / t
    assert lhs >= rhs - 1e-9


def test_lyapunov_values():
    assert lyapunov_value(CompositeState(np.zeros(3), np.zeros(2))) == 0
    assert lyapunov_value(CompositeState(np.array([3.0, 4.0]), np.zeros(0))) == 12.5
    assert lyapunov_value(CompositeState(np.array([1.0]), np.array([2.0]))) == 2.5


def test_composite_state_validation():
    with pytest.raises(ValueError, match="^backlogs must be non-negative$"):
        CompositeState(np.array([-1.0]), np.zeros(0))
    with pytest.raises(ValueError, match="^queues and virtuals must be 1-d vectors$"):
        CompositeState(np.zeros((2, 2)), np.zeros(0))


# The two records' constructor parameters, in order.
SIGNATURES = {
    SlotIO: "arrival offered_service actual_service negative_part",
    CompositeState: "queues virtuals",
}


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
def test_constructor_parameters_keep_order(cls):
    assert " ".join(inspect.signature(cls).parameters) == SIGNATURES[cls]


def test_records_take_lists_and_survive_a_pickle_round_trip():
    state = CompositeState([1, 2], virtuals=[0])
    assert state.queues.dtype == float and state.virtuals.dtype == float
    for record in (state, queue_step(1.0, 0.0, 1.0)[1]):
        data = pickle.dumps(record)
        assert pickle.dumps(pickle.loads(data)) == data
