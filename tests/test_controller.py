import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    CompositeState,
    TotalsCollector,
    build_scenario,
    dpp_select_action,
    exhaustive_dpp_argmin,
    replay_with_network_step,
    sample_path_by_chase,
    single_queue_path,
)
from qnetlab import controller
from qnetlab.controller import (
    _lane_slot_bytes,
    drift_constants,
    run_dpp_batch,
)
from qnetlab.network import load_scenario
from qnetlab.processes import ArrivalSpec, FiniteMarkovChain, make_rng
from qnetlab.stability import VerdictReducer

RELAY8 = Path(__file__).parent / "fixtures" / "relay8.json"


@pytest.fixture(scope="module")
def downlink2():
    return load_scenario("downlink2.json")


def two_action_scenario():
    """Hand example: Q=(10,), V=1; action A (y=1,b=0,f=0), B (y=0,b=1,f=1)."""
    return build_scenario(
        [[("A", [1.0], [0.0], [0.0]), ("B", [0.0], [1.0], [1.0])]],
        (0.0, [1.0]),
        arrivals=[ArrivalSpec(kind="bernoulli", rate=0.2, p=0.2)],
        name="hand",
    )


# ---------------------------------------------------------------------------
# scoring and selection
# ---------------------------------------------------------------------------


def test_score_hand_enumeration():
    # The compiled arrays give the scores V f + Q (y - b) = (10, -9) by hand.
    s = two_action_scenario()
    scores = 1.0 * s.f[0] + s.pad[0] + s.net[0] @ np.array([10.0])
    assert list(scores) == [10.0, -9.0]


def test_select_prefers_negative_differential():
    s = two_action_scenario()
    state = CompositeState(np.array([10.0]), np.zeros(0))
    assert dpp_select_action(s, 0, state, 1.0) == 1


def test_zero_weight_zero_queues_ties_to_lowest_index():
    s = two_action_scenario()
    state = CompositeState(np.zeros(1), np.zeros(0))
    # V=0 and empty queues: both scores are 0; lowest index wins.
    assert dpp_select_action(s, 0, state, 0.0) == 0


def test_single_action_is_returned(downlink2):
    state = CompositeState(np.array([5.0, 1.0]), np.array([2.0]))
    off_off = downlink2.omega_chain.labels.index("OFF-OFF")
    assert dpp_select_action(downlink2, off_off, state, 3.0) == 0


def test_virtual_queue_term_only():
    s = load_scenario("downlink2.json")
    on_off = s.omega_chain.labels.index("ON-OFF")
    state = CompositeState(np.zeros(2), np.array([5.0]))
    # V=0, queues empty: scores are Z . g = 5 * (-0.45) for idle,
    # 5 * 0.55 for serving; idle wins.
    assert s.g[on_off] @ state.virtuals == pytest.approx([-2.25, 2.75])
    assert dpp_select_action(s, on_off, state, 0.0) == 0


def test_selection_matches_exhaustive_oracle_on_fuzzed_states(downlink2):
    rng = make_rng(555, 0)
    for _ in range(2000):
        w = int(rng.integers(0, 3))
        q = rng.random(2) * float(rng.choice([1.0, 10.0, 1000.0]))
        z = rng.random(1) * float(rng.choice([1.0, 100.0]))
        v = float(rng.random() * 100)
        state = CompositeState(q, z)
        got = dpp_select_action(downlink2, w, state, v)
        assert got == exhaustive_dpp_argmin(downlink2, w, q, z, v)


@given(
    scale_exp=st.integers(min_value=-6, max_value=6),
    q1=st.floats(min_value=0.0, max_value=1e4),
    q2=st.floats(min_value=0.0, max_value=1e4),
    z=st.floats(min_value=0.0, max_value=1e4),
    v=st.floats(min_value=0.0, max_value=1e3),
    w=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=200)
def test_selection_is_scale_covariant(scale_exp, q1, q2, z, v, w):
    # Scaling (Q, Z, V) by a power of two scales every score exactly, so the
    # selected index cannot change.
    s = load_scenario("downlink2.json")
    scale = 2.0**scale_exp
    base = CompositeState(np.array([q1, q2]), np.array([z]))
    scaled = CompositeState(np.array([q1 * scale, q2 * scale]), np.array([z * scale]))
    a = dpp_select_action(s, w, base, v)
    b = dpp_select_action(s, w, scaled, v * scale)
    assert a == b


def test_negative_weight_is_rejected(downlink2):
    with pytest.raises(ValueError, match="v_weight"):
        run_dpp_batch(downlink2, [-1.0], [0], 1, 100)
    with pytest.raises(ValueError, match="v_weight"):
        run_dpp_batch(downlink2, [1.0, -1.0], [0, 0], 1, 100)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_weight_is_rejected(downlink2, bad):
    # V = inf would score inf * 0 = NaN on zero-cost actions.
    with pytest.raises(ValueError, match="v_weight must be finite"):
        run_dpp_batch(downlink2, [1.0, bad], [0, 1], 1, 100)


def test_unknown_mode_is_rejected(downlink2):
    # A misspelt mode used to run respect mode silently.
    with pytest.raises(ValueError, match="mode"):
        run_dpp_batch(downlink2, [1.0], [0], 1, 100, mode="clmaped")


@pytest.mark.parametrize("fixture", ["downlink2.json", "bb1.json"])  # a choice, no choice
@pytest.mark.parametrize("record", [-1, 2])
def test_record_outside_the_lanes_is_rejected(fixture, record):
    # One lane: record=2 used to return one run on downlink2 and raise an
    # IndexError on bb1, record=-1 numpy's "negative dimensions".
    with pytest.raises(ValueError, match="record"):
        run_dpp_batch(load_scenario(fixture), [1.0], [0], 1, 100, record=record)


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


def run_one(scenario, v_weight, seed, horizon, replication=0, mode="respect"):
    """One recorded kernel lane: replication ``replication`` at weight ``v_weight``."""
    return run_dpp_batch(
        scenario, [v_weight], [replication], seed, horizon, mode, record=1
    ).runs[0]


def test_run_matches_network_step_replay(downlink2):
    fast = run_one(downlink2, 5.0, seed=11, horizon=3000)
    slow = replay_with_network_step(downlink2, 5.0, seed=11, horizon=3000)
    assert np.array_equal(fast.q_path, slow.q_path)
    assert np.array_equal(fast.z_path, slow.z_path)
    assert np.array_equal(fast.omega_path, slow.omega_path)
    assert np.array_equal(fast.action_path, slow.action_path)


def test_run_is_deterministic_per_seed(downlink2):
    a = run_one(downlink2, 2.0, seed=3, horizon=2000)
    b = run_one(downlink2, 2.0, seed=3, horizon=2000)
    c = run_one(downlink2, 2.0, seed=4, horizon=2000)
    assert np.array_equal(a.q_path, b.q_path)
    assert not np.array_equal(a.q_path, c.q_path)


@st.composite
def fuzzed_scenarios(draw):
    """Random valid scenarios: K <= 8 queues, L <= 3 constraints, routing,
    Markov or i.i.d. chains, non-integer tables and all three arrival kinds."""
    k = draw(st.integers(1, 8))
    n_l = draw(st.integers(0, 3))
    m = draw(st.integers(1, 3))
    n_s = draw(st.integers(1, 4))
    # One-decimal values make scores that tie in exact arithmetic common, so
    # that the rounding of the score sums decides between actions.
    real = st.one_of(st.integers(-20, 20).map(lambda i: i / 10), st.floats(-2.0, 2.0))
    work = st.one_of(st.integers(0, 30).map(lambda i: i / 10), st.floats(0.0, 3.0))

    def vec(elements, size):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)))

    def dist(size):
        weights = vec(st.integers(0, 5), size) + np.eye(size)[draw(st.integers(0, size - 1))]
        return weights / weights.sum()

    if draw(st.booleans()):
        row = dist(n_s)
        chain = FiniteMarkovChain(np.tile(row, (n_s, 1)), row)
    else:
        chain = FiniteMarkovChain(np.array([dist(n_s) for _ in range(n_s)]), dist(n_s))
    actions = [
        [(f"a{i}", vec(work, k), vec(work, k), vec(real, m)) for i in range(draw(st.integers(1, 4)))]
        for _ in range(n_s)
    ]
    arrivals = []
    for _ in range(k):
        kind = draw(st.sampled_from(("bernoulli", "deterministic", "iid_table")))
        if kind == "bernoulli":
            p, size = draw(st.floats(0.0, 1.0)), draw(work)
            arrivals.append(ArrivalSpec(kind=kind, rate=p * size, p=p, size=size))
        else:
            values = tuple(vec(work, draw(st.integers(1, 3))).tolist())
            if kind == "deterministic":
                arrivals.append(ArrivalSpec(kind=kind, rate=float(np.mean(values)), values=values))
            else:
                probs = tuple(dist(len(values)).tolist())
                rate = float(np.dot(values, probs))
                arrivals.append(ArrivalSpec(kind=kind, rate=rate, values=values, probs=probs))
    pairs = [(s, d) for s in range(k) for d in range(k) if s != d]
    routing = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3)) if pairs else []
    return build_scenario(
        actions,
        (draw(real), vec(real, m)),
        [(draw(real), vec(real, m)) for _ in range(n_l)],
        chain=chain,
        arrivals=arrivals,
        routing=routing,
        name="fuzz",
    )


@given(
    scenario=fuzzed_scenarios(),
    v_weights=st.lists(st.floats(0.0, 50.0, allow_subnormal=False), min_size=1, max_size=3),
    n_reps=st.integers(1, 2),
    mode=st.sampled_from(("respect", "clamped")),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_batched_kernel_matches_network_step_replay(scenario, v_weights, n_reps, mode, seed):
    assert_batch_matches_replay(scenario, v_weights, n_reps, mode, seed, horizon=40)


def assert_batch_matches_replay(scenario, v_weights, n_reps, mode, seed, horizon):
    """Every lane of one recorded batch equals its ``network_step`` replay,
    bit for bit."""
    lanes_v = [v for v in v_weights for _ in range(n_reps)]
    lanes_rep = list(range(n_reps)) * len(v_weights)
    args = (scenario, lanes_v, lanes_rep, seed, horizon, mode)
    batch = run_dpp_batch(*args, record=len(lanes_v), with_virtual=True)
    totals = run_dpp_batch(*args, with_virtual=True, reducer=TotalsCollector).reducer.totals
    for i, (v, rep) in enumerate(zip(lanes_v, lanes_rep)):
        ref = replay_with_network_step(scenario, v, seed, horizon, rep, mode)
        run = batch.runs[i]
        for name in ("q_path", "z_path", "omega_path", "action_path"):
            assert np.array_equal(getattr(run, name), getattr(ref, name)), name
        # Per-slot totals add the queues in index order, then the virtual queues.
        total = in_order(ref.q_path[:horizon]) + in_order(ref.z_path[:horizon])
        assert np.array_equal(totals[i], total)
        assert batch.reducer.total[i] == total.sum()
        # Costs and g: each (omega, action)'s slot count times the tables,
        # added in (omega, action) order; close to the means over time.
        f = scenario.f
        counts = np.bincount(ref.omega_path * f.shape[1] + ref.action_path, minlength=f.size)
        cost = in_order((counts * f.ravel())[None])
        g = in_order((counts[:, None] * scenario.g.reshape(f.size, -1)).T)
        assert batch.cost_sum[i].tobytes() == cost.tobytes()
        assert batch.g_sum[i].tobytes() == g.tobytes()
        taken = ref.omega_path, ref.action_path
        for got, path in ((batch.cost_sum[i], f[taken]), (batch.g_sum[i], scenario.g[taken])):
            scale = np.abs(path).mean(axis=0)
            assert np.all(np.abs(got / horizon - path.mean(axis=0)) <= 1e-12 * scale)


def in_order(rows):
    """``rows[:, 0] + rows[:, 1] + ...``, added in column order."""
    return np.cumsum(rows, axis=1)[:, -1] if rows.shape[1] else np.zeros(rows.shape[0])


# (v_weights, n_reps): simulate runs one lane per replication; sweep-v runs
# every V on the same replications, by default on one, where the kernel
# reads each state's score rows from a per-state table.
LANE_LAYOUTS = {"simulate": ([2.0], 3), "sweep-v": ([0.0, 1.5, 20.0], 2),
                "sweep-v-r1": ([0.0, 1.5, 20.0], 1)}


def assert_ragged_batch_matches_replay(scenario, v_weights, n_reps, mode, seed):
    """``assert_batch_matches_replay`` at horizon 50 with the kernel's table
    blocks cut to 8 slots: six full blocks, then a short one of 2 slots.  A
    one-replication run with a choice keeps its per-state table of
    ``[g | net | V f + pad]`` in the budget too, so it takes that path."""
    lanes, (n_s, n_a) = len(v_weights) * n_reps, scenario.f.shape
    k, n_l = scenario.n_queues, scenario.n_constraints
    per_state = n_a > 1 and n_reps == 1
    table_bytes = 8 * n_s * (n_l + k + 1) * n_a * lanes if per_state else 0
    slot_bytes = lanes * _lane_slot_bytes(n_a, k, n_l, not per_state) + controller._SLOT_VIEW_BYTES
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(controller, "_BLOCK_BYTES", table_bytes + 8 * slot_bytes)
        assert_batch_matches_replay(scenario, v_weights, n_reps, mode, seed, horizon=50)


@pytest.mark.parametrize("mode", ["respect", "clamped"])
@pytest.mark.parametrize("layout", sorted(LANE_LAYOUTS))
def test_ragged_blocks_match_network_step_replay_on_relay8(layout, mode):
    scenario = load_scenario(RELAY8)
    assert scenario.routing
    assert_ragged_batch_matches_replay(scenario, *LANE_LAYOUTS[layout], mode, seed=17)


@pytest.mark.parametrize("fixture, lanes, n_reps, horizon", [
    pytest.param("bb1.json", 100, 100, 3000, id="bb1.json-100-3000"),
    pytest.param("downlink2.json", 400, 400, 1000, id="downlink2.json-400-1000"),
    pytest.param(RELAY8, 4, 1, 3000, id="relay8.json-4-3000-one-replication"),
])
def test_block_buffers_stay_within_the_block_budget(monkeypatch, fixture, lanes, n_reps, horizon):
    # _lane_slot_bytes counts every per-block buffer of the slot loop on the
    # path the run takes, _SLOT_VIEW_BYTES its views per slot, and a
    # one-replication run's per-state table shares the budget with its
    # blocks, so the traced peak stays a small multiple of _BLOCK_BYTES (the
    # sampler's blocks and the reducer's counting chunks make most of it),
    # and quadrupling the budget adds at most three budgets to it.  At 4
    # lanes the views are over a third of a block's bytes.
    scenario, budget = load_scenario(fixture), controller._BLOCK_BYTES

    def traced_peak(block_bytes):
        monkeypatch.setattr(controller, "_BLOCK_BYTES", block_bytes)
        tracemalloc.start()
        try:
            run_dpp_batch(scenario, [1.0] * lanes, np.arange(lanes) % n_reps, 7, horizon,
                          reducer=VerdictReducer)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # An untraced warm-up run keeps one-time allocations (caches, lazily built
    # tables) out of the base peak, so the test does not depend on test order.
    run_dpp_batch(scenario, [1.0] * lanes, np.arange(lanes) % n_reps, 7, horizon,
                  reducer=VerdictReducer)
    base, grown = traced_peak(budget), traced_peak(4 * budget)
    assert base <= 20 * budget
    assert grown - base <= 3 * budget


def test_short_gathered_block_is_written_in_place(monkeypatch):
    # Blocks of 100 slots on the gather path: a horizon of 160 ends in a
    # short block of 60.  Its gathered score rows are the contiguous leading
    # slice of the block buffer, so numpy's take writes them in place; a
    # strided slice made take copy them through a temporary of 276 kB
    # (12 rows x 12 actions x 60 slots x 4 lanes).
    scenario, lanes = load_scenario(RELAY8), 4
    n_a, k, n_l = scenario.f.shape[1], scenario.n_queues, scenario.n_constraints
    slot_bytes = lanes * _lane_slot_bytes(n_a, k, n_l, True) + controller._SLOT_VIEW_BYTES
    monkeypatch.setattr(controller, "_BLOCK_BYTES", 100 * slot_bytes)

    def traced_peak(horizon):
        tracemalloc.start()
        try:
            run_dpp_batch(scenario, [1.0] * lanes, range(lanes), 7, horizon)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_dpp_batch(scenario, [1.0] * lanes, range(lanes), 7, 200)  # untraced warm-up
    assert traced_peak(160) <= traced_peak(200) + 32_768


def single_action_scenario(k, n_l):
    """One action in every state of a two-state Markov chain, so no lane has
    a choice to make: K queues (a route from queue 0 to queue 1 when K > 1),
    L constraints whose virtual queues grow, and non-integer work."""
    chain = FiniteMarkovChain(np.array([[0.7, 0.3], [0.4, 0.6]]), np.array([1.0, 0.0]))
    actions = [
        [(f"s{w}", np.full(k, 0.3 * w), np.arange(1, k + 1) * (0.6 + 0.5 * w), [0.2 + w, -0.5 * w])]
        for w in range(2)
    ]
    return build_scenario(
        actions,
        (0.1, [1.0, 2.0]),
        [(0.2 * l - 0.3, [0.5, l - 1.0]) for l in range(n_l)],
        chain=chain,
        arrivals=[ArrivalSpec(kind="bernoulli", rate=0.35 * 1.3, p=0.35, size=1.3)] * k,
        routing=[(0, 1)] if k > 1 else [],
        name="single-action",
    )


@pytest.mark.parametrize("mode", ["respect", "clamped"])
@pytest.mark.parametrize("layout", sorted(LANE_LAYOUTS))
@pytest.mark.parametrize("k, n_l", [(1, 0), (1, 2), (3, 0), (3, 2)])
def test_ragged_blocks_match_network_step_replay_with_one_action_per_state(k, n_l, layout, mode):
    # The kernel skips the scores when no state has a choice, and the Z
    # update when there are no constraints; the fuzzed scenarios reach the
    # first case only by chance.
    scenario = single_action_scenario(k, n_l)
    assert scenario.f.shape[1] == 1
    assert_ragged_batch_matches_replay(scenario, *LANE_LAYOUTS[layout], mode, seed=23)


def routed_scenario(routing):
    """Five queues of non-integer work on a two-state Markov chain, routed as
    ``routing``, with one constraint.  State 0 has three actions and state 1
    two, so state 1's third action is missing (pad = +inf)."""
    chain = FiniteMarkovChain(np.array([[0.6, 0.4], [0.3, 0.7]]), np.array([1.0, 0.0]))
    rates, zero = np.array([0.7, 1.3, 0.9, 1.1, 0.6]), np.zeros(5)
    actions = [
        [("even", zero, rates * [1, 0, 1, 0, 1], [0.4, 0.0]),
         ("odd", zero + 0.1, rates * [0, 1, 0, 1, 0], [0.0, 0.3]),
         ("idle", zero, zero, [0.0, 0.0])],
        [("half", zero + 0.1, rates * 0.5, [0.2, 0.15]),
         ("idle", zero + 0.2, zero, [0.0, 0.0])],
    ]
    return build_scenario(
        actions,
        (0.1, [1.0, 2.0]),
        [(-0.25, [1.0, 1.0])],
        chain=chain,
        arrivals=[ArrivalSpec(kind="bernoulli", rate=0.3 * 1.3, p=0.3, size=1.3)] * 5,
        routing=routing,
        name="routed",
    )


# Routing lists and the runs the kernel adds each as one slice, (src, dst, length).
ROUTE_LISTS = {
    "chain-run": ([(0, 1), (1, 2), (2, 3)], [(0, 1, 3)]),
    "run": ([(0, 2), (1, 3)], [(0, 2, 2)]),
    "shared-destination": ([(0, 2), (1, 2)], [(0, 2, 1), (1, 2, 1)]),
    "reversed-pair": ([(1, 2), (0, 1)], [(1, 2, 1), (0, 1, 1)]),
    "run-then-wrap": ([(0, 3), (1, 4), (3, 0)], [(0, 3, 2), (3, 0, 1)]),
}


@pytest.mark.parametrize("mode", ["respect", "clamped"])
@pytest.mark.parametrize("layout", sorted(LANE_LAYOUTS))
@pytest.mark.parametrize("routing", sorted(ROUTE_LISTS))
def test_route_runs_match_network_step_replay(routing, layout, mode):
    # Consecutive routes add as one slice; a destination fed by several
    # routes must still receive them in routing-list order.
    routes, runs = ROUTE_LISTS[routing]
    assert controller._route_runs(routes) == runs
    scenario = routed_scenario(routes)
    assert_ragged_batch_matches_replay(scenario, *LANE_LAYOUTS[layout], mode, seed=29)


@pytest.mark.parametrize("mode", ["respect", "clamped"])
def test_one_lane_at_zero_weight_never_picks_a_missing_action(mode):
    # At V = 0 the unit row's score term is the pad alone: 0 for a real
    # action, +inf for state 1's missing one.
    scenario = routed_scenario([(0, 2), (1, 3)])
    assert np.isinf(scenario.pad[1, 2])
    assert_ragged_batch_matches_replay(scenario, [0.0], 1, mode, seed=31)
    run = run_one(scenario, 0.0, seed=31, horizon=200, mode=mode)
    assert np.all(run.action_path[run.omega_path == 1] < 2)
    assert np.any(run.action_path[run.omega_path == 0] > 0)


@pytest.mark.parametrize("mode", ["respect", "clamped"])
def test_one_lane_adds_its_queues_in_order(mode):
    # With one lane, numpy's reduction over the queues would be its pairwise
    # inner loop; eight queues of non-integer work show the order.
    scenario = single_action_scenario(8, 2)
    assert_ragged_batch_matches_replay(scenario, [2.0], 1, mode, seed=23)


@given(
    scenario=fuzzed_scenarios(),
    layout=st.sampled_from(sorted(LANE_LAYOUTS)),
    mode=st.sampled_from(("respect", "clamped")),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=30, deadline=None)
def test_ragged_blocks_match_network_step_replay_on_fuzzed_scenarios(scenario, layout, mode, seed):
    assert_ragged_batch_matches_replay(scenario, *LANE_LAYOUTS[layout], mode, seed)


def bb1_variants():
    """The bb1 fixture, a Markov-modulated variant with a unit transfer into
    the queue in the OFF state, and a variant with non-integer arrivals."""
    bb1 = load_scenario("bb1.json")
    y = bb1.y.copy()
    y[0, 0] = 1.0  # the OFF state's one action
    markov = bb1._replace(
        omega_chain=FiniteMarkovChain(np.array([[0.5, 0.5], [0.1, 0.9]]), np.array([1.0, 0.0])),
        y=y,
    )
    fractional = bb1._replace(
        arrivals=[ArrivalSpec(kind="bernoulli", rate=0.21, p=0.3, size=0.7)]
    )
    return {"bb1": bb1, "markov-transfer": markov, "fractional": fractional}


@pytest.mark.parametrize("mode", ["respect", "clamped"])
@pytest.mark.parametrize("name", ["bb1", "markov-transfer", "fractional"])
def test_bb1_variants_match_network_step_replay(name, mode):
    scenario = bb1_variants()[name]
    assert_batch_matches_replay(scenario, [0.0, 3.0], 2, mode, seed=41, horizon=2000)


@pytest.mark.parametrize("mode", ["respect", "clamped"])
@pytest.mark.parametrize("name", ["bb1", "markov-transfer"])
def test_single_queue_lanes_equal_the_reflection_identity(name, mode):
    # One queue, one action per state and integer work: every lane's backlog
    # path is the reflection identity's on the same draws, bit for bit.
    scenario, seed, horizon = bb1_variants()[name], 43, 3000
    spec = scenario.arrivals[0]
    y = scenario.y_offered if mode == "clamped" else scenario.y
    batch = run_dpp_batch(scenario, [1.0] * 3, range(3), seed, horizon, mode, record=3)
    for rep, run in enumerate(batch.runs):
        w, ix = sample_path_by_chase(scenario.omega_chain, scenario.arrivals, seed, horizon, rep)
        work = y[w, 0, 0] + spec.table[ix[0]]
        assert np.array_equal(run.q_path[:, 0], single_queue_path(work, scenario.b[w, 0, 0]))


@given(
    n=st.integers(1, 5),
    n_actions=st.integers(2, 13),
    m=st.integers(1, 24),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=100)
def test_scores_add_their_terms_in_a_fixed_order(n, n_actions, m, seed):
    # The kernel's score sum, np.add.reduce over the leading axis of its
    # (L + K + 1, actions, lanes) products of [g | net | V f + pad] with
    # [Z; Q; 1], adds the terms t = 0..L+K one at a time for every lane
    # count.  The last term is V f + pad times 1, and IEEE addition commutes,
    # so the bits are dpp_select_action's (V f + pad) + the ordered sum; a
    # pairwise or BLAS order would break near-ties differently.  Magnitudes
    # spread over 2^60 make each order round differently, and the last
    # action is missing (pad = +inf).
    rng = make_rng(seed, 0)
    rows = rng.standard_normal((m + 1, n_actions, n)) * np.exp2(rng.integers(0, 60, (m + 1, 1, 1)))
    rows[m, -1] = np.inf
    state = np.concatenate([rng.random((m, 1, n)) * 4.0, np.ones((1, 1, n))])
    got = np.add.reduce(np.multiply(rows, state), axis=0, out=np.empty((n_actions, n)))
    products = rows[:m] * state[:m]
    expected = products[0].copy()
    for t in range(1, m):
        expected = expected + products[t]
    expected = rows[m] + expected
    assert got.tobytes() == expected.tobytes()


def test_replications_use_independent_substreams(downlink2):
    a = run_one(downlink2, 2.0, seed=3, horizon=2000, replication=0)
    b = run_one(downlink2, 2.0, seed=3, horizon=2000, replication=1)
    assert not np.array_equal(a.omega_path, b.omega_path)


def test_constraints_hold_even_at_zero_weight(downlink2):
    batch = run_dpp_batch(downlink2, [0.0], [0], 13, 60_000, record=1)
    run = batch.runs[0]
    assert np.all(batch.g_sum[0] / 60_000 <= 0.01)
    assert np.all(run.q_path[-1] / run.horizon <= 0.01)
    assert np.all(run.z_path[-1] / run.horizon <= 0.01)


def test_backlog_grows_at_most_linearly_in_v(downlink2):
    batch = run_dpp_batch(downlink2, [10.0, 100.0], [0, 0], 29, 60_000, with_virtual=True)
    backlogs = batch.reducer.total / 60_000
    assert backlogs[1] / backlogs[0] <= 15.0  # O(V): ratio ~10, generous cap


def test_clamped_mode_runs(downlink2):
    run = run_one(downlink2, 1.0, seed=5, horizon=5000, mode="clamped")
    assert np.all(run.q_path >= 0)


# ---------------------------------------------------------------------------
# drift constants
# ---------------------------------------------------------------------------


def test_drift_constants_zero_for_idle_network():
    s = build_scenario(
        [[("idle", [0.0], [0.0], [])]],
        (0.0, []),
        arrivals=[ArrivalSpec(kind="deterministic", rate=0.0, values=(0.0,))],
        name="idle",
    )
    drift = drift_constants(s, delta=0.5)
    assert drift.B == 0.0 and drift.D == 0.0
    assert drift.T == 1


def test_drift_constants_downlink_enumeration_oracle(downlink2):
    drift = drift_constants(downlink2)
    pi = downlink2.stationary()
    lam, a2 = 0.15, 0.15  # Bernoulli(0.15) unit arrivals: E[a] = E[a^2]
    # Enumerate worst actions by hand: serve states have b in {0,1} per queue.
    # B = pi . [ .5 max b^2 + .5 max E(a+y)^2 + max g^2 ] summed per queue/row.
    b_expect = 0.0
    d_expect = 0.0
    for w in range(3):
        max_b2 = np.zeros(2)
        max_ay2 = np.full(2, a2)  # y = 0 always: E[(a+0)^2] = E[a^2]
        max_ab2 = np.full(2, a2)  # placeholder, recomputed below
        max_g2 = 0.0
        for i in range(len(downlink2.names[w])):
            b, x = downlink2.b[w, i], downlink2.x[w, i]
            max_b2 = np.maximum(max_b2, b**2)
            ab = a2 + 2 * lam * b + b**2
            max_ab2 = np.maximum(max_ab2, ab)
            g_val = x[0] - 0.45
            max_g2 = max(max_g2, g_val**2)
        b_expect += pi[w] * (0.5 * max_b2.sum() + 0.5 * max_ay2.sum() + max_g2)
        d_expect += pi[w] * (max_ab2.sum() + max_g2)
    assert drift.B == pytest.approx(b_expect)
    assert drift.D == pytest.approx(d_expect)
    assert drift.d_max == pytest.approx(0.1, abs=1e-9)
    assert drift.T >= 1


def test_drift_constants_iid_chain_has_unit_mixing():
    s = load_scenario("bb1.json")
    drift = drift_constants(s, delta=1e-6)
    assert drift.T == 1


def test_drift_constants_reject_boundary(downlink2):
    boundary = downlink2._replace(
        arrivals=[
            ArrivalSpec(kind="bernoulli", rate=0.5, p=0.5),
            ArrivalSpec(kind="bernoulli", rate=0.5, p=0.5),
        ],
    )
    with pytest.raises(ValueError, match="interior"):
        drift_constants(boundary)
