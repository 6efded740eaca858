import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import build_scenario, grid_fopt
from qnetlab import capacity, simplex
from qnetlab.capacity import build_lp, performance_bounds, solve_fopt
from qnetlab.cli import override_mu
from qnetlab.controller import DriftConstants, drift_constants
from qnetlab.network import load_scenario
from qnetlab.processes import ArrivalSpec, make_rng
from test_golden import CASES, RELAY8


@pytest.fixture(scope="module")
def bb1():
    return load_scenario("bb1.json")


@pytest.fixture(scope="module")
def downlink2():
    return load_scenario("downlink2.json")


# ---------------------------------------------------------------------------
# LP structure
# ---------------------------------------------------------------------------


def test_lp_variable_count_matches_action_tables(bb1, downlink2):
    assert build_lp(bb1).c.size == 2  # one action in each of two states
    assert build_lp(downlink2).c.size == 5  # 1 + 2 + 2


def test_single_state_single_action_is_forced(bb1):
    report = solve_fopt(bb1)
    assert report.feasible
    for dist in report.policy:
        assert dist == pytest.approx([1.0])


# ---------------------------------------------------------------------------
# optimal values (hand oracles)
# ---------------------------------------------------------------------------


def test_bb1_fopt_is_forced_service_effort(bb1):
    # Single action per state: expected effort = P(ON) = 0.5 regardless of
    # lambda, as long as lambda is supportable.
    report = solve_fopt(bb1)
    assert report.f_opt == pytest.approx(0.5, abs=1e-9)


def test_downlink_fopt_equals_total_arrival_rate(downlink2):
    # Power is spent only while serving, service is one unit per served slot,
    # and the power budget is slack at the optimum, so minimal average power
    # equals the total arrival rate.
    report = solve_fopt(downlink2)
    assert report.feasible
    assert report.f_opt == pytest.approx(0.3, abs=1e-9)
    assert report.d_max == pytest.approx(0.1, abs=1e-9)
    assert set(report.binding_constraints) == {"queue[0]", "queue[1]"}
    # Optimal serve probability at an ON state: 0.15 / (4/11).
    on_off = downlink2.omega_chain.labels.index("ON-OFF")
    serve_prob = report.policy[on_off][1]
    assert serve_prob == pytest.approx(0.15 * 11 / 4, abs=1e-9)


def test_returned_policy_satisfies_lp_constraints(downlink2):
    report = solve_fopt(downlink2)
    lp = build_lp(downlink2)
    x = np.concatenate(report.policy)
    assert np.max(lp.a_ub @ x - lp.b_ub, initial=0.0) <= 1e-9


def test_lp_moved_to_new_rates_equals_a_fresh_build(downlink2):
    lp = build_lp(downlink2)
    for lam in ([0.25, 0.1], [0.0, 0.0], [0.6, 0.6]):
        moved, fresh = lp.at(lam), build_lp(downlink2, lam)
        for name in ("lambdas", "c", "a_ub", "b_ub", "a_eq", "b_eq"):
            assert getattr(moved, name).tobytes() == getattr(fresh, name).tobytes()
        ours, ref = moved.solve(), solve_fopt(downlink2, lam)
        assert repr((ours.feasible, ours.f_opt, ours.d_max, ours.binding_constraints)) == repr(
            (ref.feasible, ref.f_opt, ref.d_max, ref.binding_constraints)
        )
    assert lp.b_ub.tobytes() == build_lp(downlink2).b_ub.tobytes()  # at() copies
    with pytest.raises(ValueError, match="length"):
        lp.at([0.1])
    with pytest.raises(ValueError, match="non-negative"):
        lp.at([0.1, -0.1])


def test_bb1_dmax_hand_value(bb1):
    # Margin LP: 0.3 + d/2 <= 0.5  ->  d = 0.4.
    assert build_lp(bb1).solve().d_max == pytest.approx(0.4, abs=1e-9)


def test_infeasible_rate_vector_reported(bb1):
    report = solve_fopt(bb1, lambdas=[0.6])
    assert not report.feasible
    assert report.d_max == 0.0
    assert report.policy is None


def test_two_action_minimum_picks_smaller_cost():
    # Single state, actions with x in {1, 2}, cost f(x) = x, no constraints.
    s = build_scenario(
        [[("one", [0.0], [1.0], [1.0]), ("two", [0.0], [1.0], [2.0])]],
        (0.0, [1.0]),
        arrivals=[ArrivalSpec(kind="bernoulli", rate=0.5, p=0.5)],
        name="pick-smaller",
    )
    report = solve_fopt(s)
    assert report.f_opt == pytest.approx(1.0, abs=1e-9)
    assert report.policy[0] == pytest.approx([1.0, 0.0])


def test_zero_rates_with_idle_action_are_strictly_interior(downlink2):
    assert build_lp(downlink2, [0.0, 0.0]).solve().d_max > 0.0


# ---------------------------------------------------------------------------
# capacity membership
# ---------------------------------------------------------------------------


def test_membership_includes_boundary(bb1):
    assert build_lp(bb1, [0.5]).solve().feasible
    assert not build_lp(bb1, [0.51]).solve().feasible
    assert build_lp(bb1, [0.0]).solve().feasible


def test_boundary_point_has_zero_margin(bb1):
    assert build_lp(bb1, [0.5]).solve().d_max == pytest.approx(0.0, abs=1e-9)


def test_membership_is_monotone_downward(downlink2):
    rng = make_rng(31, 0)
    for _ in range(25):
        lam = rng.random(2) * 0.5
        if build_lp(downlink2, lam).solve().feasible:
            smaller = lam * rng.random(2)
            assert build_lp(downlink2, smaller).solve().feasible


def test_slater_consistency(downlink2):
    d = build_lp(downlink2).solve().d_max
    assert d > 0
    assert build_lp(downlink2, downlink2.lambdas).solve().feasible
    # The margin-d policy pushes every inequality to -d/2, so shifting every
    # arrival rate up by d/2 keeps the vector inside the region.
    shifted = downlink2.lambdas + d / 2.0
    assert build_lp(downlink2, shifted).solve().feasible
    beyond = downlink2.lambdas + d + 0.05
    assert not build_lp(downlink2, beyond).solve().feasible


# ---------------------------------------------------------------------------
# grid-search oracle
# ---------------------------------------------------------------------------


def test_fopt_matches_grid_oracle(bb1, downlink2):
    for scenario in (bb1, downlink2):
        report = solve_fopt(scenario)
        grid_value = grid_fopt(scenario, step=1e-3)
        assert abs(report.f_opt - grid_value) <= 1e-3 * (1.0 + abs(report.f_opt))


def test_fopt_matches_grid_oracle_with_lambda_override(downlink2):
    report = solve_fopt(downlink2, lambdas=[0.25, 0.1])
    grid_value = grid_fopt(downlink2, lambdas=np.array([0.25, 0.1]), step=1e-3)
    assert report.feasible
    assert abs(report.f_opt - grid_value) <= 1e-3 * (1.0 + abs(report.f_opt))


# ---------------------------------------------------------------------------
# performance bounds
# ---------------------------------------------------------------------------


# f_opt, f_min and f_max of bb1, as solve_fopt and drift_constants give them.
BB1_COSTS = dict(f_opt=0.5, f_min=0.0, f_max=1.0)


def test_drift_constants_carry_the_cost_constants(bb1):
    drift = drift_constants(bb1)
    assert {name: getattr(drift, name) for name in BB1_COSTS} == BB1_COSTS
    assert drift.d_max == build_lp(bb1).solve().d_max


def test_bounds_reuse_the_drift_mixing_time(downlink2, monkeypatch):
    drift = drift_constants(downlink2)
    t_other = capacity.mixing_time(downlink2.omega_chain, drift.delta / 2)
    calls = []
    real_mixing_time = capacity.mixing_time

    def counting(*args, **kwargs):
        calls.append(1)
        return real_mixing_time(*args, **kwargs)

    monkeypatch.setattr(capacity, "mixing_time", counting)
    assert performance_bounds(downlink2, 10.0, drift.delta, drift).T_eps == drift.T
    assert not calls
    assert performance_bounds(downlink2, 10.0, drift.delta / 2, drift).T_eps == t_other
    assert len(calls) == 1


def test_c0_formula(bb1):
    # f_max = 1, d_max = 0.4 -> c_0 = 4 * 1 / 0.4 + 1 = 11.
    drift = DriftConstants(B=1.0, D=1.0, T=1, d_max=0.4, **BB1_COSTS)
    bounds = performance_bounds(bb1, v_param=10.0, epsilon=0.1, drift=drift)
    assert bounds.c_0 == pytest.approx(11.0)


def test_backlog_bound_arithmetic(bb1):
    drift = DriftConstants(B=2.0, D=3.0, T=1, d_max=0.4, **BB1_COSTS)
    bounds = performance_bounds(bb1, v_param=10.0, epsilon=0.1, drift=drift)
    # (C + T B + (T-1) D + V (f_max - f_min)) / (d_max / 4) with C=0:
    assert bounds.backlog_bound == pytest.approx((2.0 + 10.0 * 1.0) / 0.1)
    assert bounds.T_eps == 1  # i.i.d. server chain mixes in one step


def test_cost_bound_arithmetic(bb1):
    drift = DriftConstants(B=2.0, D=3.0, T=1, d_max=0.4, **BB1_COSTS)
    bounds = performance_bounds(bb1, v_param=10.0, epsilon=0.1, drift=drift)
    # f_opt + c_0 epsilon + (B T_eps + D (T_eps - 1)) / V with c_0 = 11, T_eps = 1:
    assert bounds.cost_bound == pytest.approx(0.5 + 11.0 * 0.1 + 2.0 / 10.0)


def test_epsilon_range_is_enforced(bb1):
    drift = DriftConstants(B=1.0, D=1.0, T=1, d_max=0.4, **BB1_COSTS)
    with pytest.raises(ValueError, match="epsilon"):
        performance_bounds(bb1, v_param=1.0, epsilon=0.2, drift=drift)
    with pytest.raises(ValueError, match="epsilon"):
        performance_bounds(bb1, v_param=1.0, epsilon=0.0, drift=drift)


def test_bounds_require_interior_point(bb1):
    drift = DriftConstants(B=1.0, D=1.0, T=1, d_max=0.0, **BB1_COSTS)
    with pytest.raises(ValueError, match="interior"):
        performance_bounds(bb1, v_param=1.0, epsilon=0.01, drift=drift)


# ---------------------------------------------------------------------------
# warm-started sweeps against cold solves
# ---------------------------------------------------------------------------

SWEEP_SCENARIOS = {
    "relay8": lambda: load_scenario(RELAY8),
    "downlink2": lambda: load_scenario("downlink2.json"),
    "bb1-mu0.5": lambda: override_mu(load_scenario("bb1.json"), 0.5),
}


@functools.lru_cache(maxsize=None)
def sweep_case(name):
    """The scenario's LP and the scale where its ray leaves the capacity
    region, by bisection on cold feasibility."""
    lp = build_lp(SWEEP_SCENARIOS[name]())
    lo, hi = 0.0, 1.0
    while lp.at(hi * lp.lambdas).solve().feasible:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if lp.at(mid * lp.lambdas).solve().feasible:
            lo = mid
        else:
            hi = mid
    return lp, lo


def scale_points(boundary):
    near = st.floats(-1e-6, 1e-6).map(lambda d: boundary + d)
    return st.one_of(
        st.just(0.0), st.just(boundary), near, st.floats(0.0, 1.5 * boundary)
    )


@st.composite
def scale_lists(draw, boundary):
    scales = draw(st.lists(scale_points(boundary), min_size=1, max_size=6))
    repeats = draw(st.lists(st.sampled_from(scales), max_size=3))
    return draw(st.permutations(scales + repeats))


def close(warm, cold):
    return abs(warm - cold) <= 1e-12 * max(1.0, abs(cold))


def report_bits(report):
    policy = report.policy
    return report._replace(
        f_opt=report.f_opt.hex(),
        d_max=report.d_max.hex(),
        policy=policy and [dist.tobytes() for dist in policy],
    )


@pytest.mark.parametrize("name", sorted(SWEEP_SCENARIOS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_warm_sweep_matches_cold_solves(name, data):
    lp, boundary = sweep_case(name)
    # The base point opens both sequences, so it is drawn too, on either side
    # of the boundary; its report does not depend on the scales after it.
    # The scales are divided by the base's, so the points stay where they
    # were drawn relative to the boundary.
    b = data.draw(scale_points(boundary).filter(lambda b: b >= 1e-3))
    base = lp.at(b * lp.lambdas)
    scales = [s / b for s in data.draw(scale_lists(boundary))]
    report, rows = base.sweep(scales)
    assert report_bits(report) == report_bits(base.sweep(())[0])
    for scale, (feasible, f_opt, d_max) in zip(scales, rows, strict=True):
        cold = base.at(scale * base.lambdas).solve()
        assert feasible == cold.feasible, scale
        if feasible:
            assert close(f_opt, cold.f_opt) and close(d_max, cold.d_max), scale
        else:
            assert np.isnan(f_opt) and d_max == 0.0


def test_warm_sweep_takes_a_tenth_of_the_cold_pivots(monkeypatch):
    # A silent fall-back to cold solves would take about as many pivots as
    # the cold loop itself.
    argv = CASES["capacity-relay8"]
    scales = [float(s) for s in argv[argv.index("--sweep-scale") + 1].split(",")]
    lp = build_lp(load_scenario(RELAY8))
    pivots = []
    pivot = simplex._pivot

    def counting(tableau, row, col):
        pivots.append(1)
        pivot(tableau, row, col)

    monkeypatch.setattr(simplex, "_pivot", counting)
    for scale in scales:
        lp.at(scale * lp.lambdas).solve()
    cold = len(pivots)
    pivots.clear()
    lp.solve()
    base = len(pivots)
    pivots.clear()
    lp.sweep(scales)
    assert len(pivots) - base <= 0.10 * cold, (len(pivots), base, cold)
