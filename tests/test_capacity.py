import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from oracles import build_scenario, grid_fopt
from qnetlab import capacity, simplex
from qnetlab.capacity import build_lp, performance_bounds, solve_fopt
from qnetlab.cli import main, override_mu
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


def test_tiny_rates_leave_no_clipped_basic_value(downlink2):
    # At rates of 1.5e-10, ratio ties within the simplex's 1e-9 tolerance
    # left two queue rows' basic values at -1.5e-10; clipped, they gave an
    # idle policy with f_opt = 0.0 that overloads both queues.
    report = solve_fopt(downlink2, [1.5e-10, 1.5e-10])
    lp = build_lp(downlink2, [1.5e-10, 1.5e-10])
    assert report.f_opt == pytest.approx(3e-10, rel=1e-6)
    assert np.max(lp.a_ub @ np.concatenate(report.policy) - lp.b_ub) <= 1e-15


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


def test_sweep_walks_the_ray_once(monkeypatch):
    # Pivots by phase on relay8's 0.1 ... 6.0 sweep.  The walk opens at the
    # base point's cold solve (its one phase 1) and the margin LP at that
    # optimum plus the column of d; after those, every pivot is a dual pivot
    # where a basic value has crossed zero, or a primal clean-up.  A walk
    # crosses each breakpoint at most twice (down to the smallest scale from
    # the base point, then up); the bound allows the cost and margin walks
    # as many breakpoints as the tableau has rows (26), and they take 63
    # dual pivots.  Solving each point again from the opening took 1,322
    # pivots in all, and solving each point cold about 4,100.
    lp = build_lp(load_scenario(RELAY8))
    scales = [0.1 * i for i in range(1, 61)]
    pivots = []
    phase = ["walk"]

    def spied(name, original):
        def run(*args, **kwargs):
            outer, phase[0] = phase[0], name if phase[0] == "walk" else phase[0]
            try:
                return original(*args, **kwargs)
            finally:
                phase[0] = outer
        monkeypatch.setattr(simplex, name, run)

    for name in ("_two_phase", "_add_column", "_run_dual_simplex", "_run_simplex"):
        spied(name, getattr(simplex, name))
    monkeypatch.setattr(capacity, "_add_column", simplex._add_column)
    pivot = simplex._pivot
    monkeypatch.setattr(simplex, "_pivot", lambda *args: pivots.append(phase[0]) or pivot(*args))
    lp.sweep(scales)
    monkeypatch.undo()
    cold = pivots.count("_two_phase") + pivots.count("_add_column")
    dual, clean_up = pivots.count("_run_dual_simplex"), pivots.count("_run_simplex")
    rows = lp.a_ub.shape[0] + lp.a_eq.shape[0]
    assert dual + clean_up + cold == len(pivots), pivots
    assert len(pivots) <= cold + 2 * (2 * rows) + clean_up, (cold, dual, clean_up)


def test_infeasible_base_and_smallest_scale_solve_two_lps(tmp_path, monkeypatch):
    # bb1 at lambda = 0.6 > mu: the base point and the smallest scale are
    # solved cold, and the second proves every larger scale infeasible.  A
    # solve per point took six.
    calls = []
    cold_solve = simplex._two_phase

    def counting(*args):
        calls.append(1)
        return cold_solve(*args)

    monkeypatch.setattr(simplex, "_two_phase", counting)
    rc = main(["capacity", "bb1.json", "--lambda", "0.6", "--sweep-scale", "1.5,0.9,2,0.9,1.2",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    assert len(calls) <= 2
    rows = (tmp_path / "o" / "capacity_sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",", 2)[2] for row in rows] == ["false,nan,0.0"] * 5


@pytest.mark.parametrize("fixture", ["downlink2.json", RELAY8])
def test_sweep_rows_come_back_in_input_order(tmp_path, capsys, fixture):
    # The walk sorts and deduplicates the scales; the rows keep the input's
    # order and repeats, with each lone solve's feasible flag.  The 2.0 row
    # proves every larger scale infeasible, so 1e308 needs no arithmetic:
    # relay8's 1e308 row overflowed in the LP when each point was solved on
    # its own.
    scales = ["0.5", "1e308", "0", "1e-300", "2", "0.5", "1.2"]
    rc = main(["capacity", fixture, "--sweep-scale", ",".join(scales),
               "--out", str(tmp_path / "o")])
    assert rc == 0 and capsys.readouterr().err == ""
    rows = [row.split(",") for row in
            (tmp_path / "o" / "capacity_sweep.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == [str(float(s)) for s in scales]
    lp = build_lp(load_scenario(fixture))
    expected = [s != "1e308" and lp.at(float(s) * lp.lambdas).solve().feasible for s in scales]
    assert [row[-3] == "true" for row in rows] == expected
    assert rows[1][-3:] == ["false", "nan", "0.0"]
    assert rows[0] == rows[5]


@pytest.mark.parametrize("fixture", ["bb1.json", "downlink2.json", RELAY8])
@pytest.mark.parametrize("scales", ["0.5,1e308", "1e308", "0.5,1e300,1e308"])
def test_sweep_scale_past_the_float_range_is_solved_cold(tmp_path, capsys, fixture, scales):
    # No smaller scale is proved infeasible first, so the walk reaches a scale
    # whose basic values beta + s gamma leave the float range; it used to
    # exit 2 with "overflow encountered in multiply".  Such a scale is solved
    # on its own, and the rows of the other scales keep their bytes.
    def sweep(entries, out):
        rc = main(["capacity", fixture, "--sweep-scale", ",".join(entries), "--out", str(out)])
        assert rc == 0 and capsys.readouterr().err == ""
        return (out / "capacity_sweep.csv").read_text().splitlines()[1:]

    entries = scales.split(",")
    rows = sweep(entries, tmp_path / "all")
    huge = [s in ("1e300", "1e308") for s in entries]
    assert all(row.endswith(",false,nan,0.0") for row, is_huge in zip(rows, huge) if is_huge)
    rest = [s for s, is_huge in zip(entries, huge) if not is_huge]
    if rest:
        assert [row for row, is_huge in zip(rows, huge) if not is_huge] == sweep(
            rest, tmp_path / "rest")


# Every relation along a ray holds within this slack, relative to the
# largest magnitude it compares (at least 1).
RAY_SLACK = 1e-12


def assert_ray_relations(points):
    """On ``(scale, (feasible, f_opt, d_max))`` points of one ray: the
    feasible scales form a prefix of the sorted scales (up to the slack in
    scale), f_opt is non-decreasing and d_max non-increasing on them, and on
    the interior ones (d_max > 0) f_opt is convex and d_max concave.

    A feasible point with d_max = 0 lies on the boundary, or past it by no
    more than phase 1's tolerance (1e-7 of violation) accepts: there d_max is
    0 by its bound d >= 0, not by the concave extension, which is negative.
    Such a point at the top of the ray breaks concavity by up to the
    tolerance (downlink2 reads d_max = 0 at 1.5 + 3.3e-7 times its rates,
    and d_max at 1.0 lies 4.4e-8 below the chord from 0), so it joins only
    the first two relations.
    """
    points = sorted(points)
    feasible = [(s, f, d) for s, (ok, f, d) in points if ok]
    # Lone cold solves decide the flags, and at phase 1's threshold their
    # rounding is not monotone: relay8 at 1.40625 times its rates is
    # infeasible at scale 1.1850613269060721 and feasible at 1.185061326906073.
    first_infeasible = min((s for s, (ok, _, _) in points if not ok), default=math.inf)
    assert all(s <= first_infeasible * (1.0 + RAY_SLACK) for s, _, _ in feasible), points

    def slack(*values):
        return RAY_SLACK * max(1.0, *map(abs, values))

    for (_, f0, d0), (_, f1, d1) in zip(feasible, feasible[1:]):
        assert f1 >= f0 - slack(f0, f1) and d1 <= d0 + slack(d0, d1), (f0, f1, d0, d1)
    interior = [point for point in feasible if point[2] > 0.0]
    for (s0, f0, d0), (s1, f1, d1), (s2, f2, d2) in zip(interior, interior[1:], interior[2:]):
        if s2 == s0:
            continue
        t = (s1 - s0) / (s2 - s0)
        assert f1 <= f0 + t * (f2 - f0) + slack(f0, f1, f2), (s0, s1, s2)
        assert d1 >= d0 + t * (d2 - d0) - slack(d0, d1, d2), (s0, s1, s2)


@pytest.mark.parametrize("fixture, step", [("downlink2.json", 0.05), (RELAY8, 0.1)])
def test_fixture_rays_keep_their_relations(fixture, step):
    lp = build_lp(load_scenario(fixture))
    scales = [step * i for i in range(61)]
    report, rows = lp.sweep(scales)
    assert_ray_relations([(1.0, report[:3]), *zip(scales, rows)])


@pytest.mark.parametrize("name", sorted(SWEEP_SCENARIOS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_drawn_rays_keep_their_relations(name, data):
    lp, boundary = sweep_case(name)
    b = data.draw(scale_points(boundary).filter(lambda b: b >= 1e-3))
    base = lp.at(b * lp.lambdas)
    scales = [s / b for s in data.draw(scale_lists(boundary))]
    report, rows = base.sweep(scales)
    by_scale = {}
    for scale, row in zip(scales, rows):
        assert by_scale.setdefault(scale, row) == row or np.isnan(row[1])
    assert_ray_relations([(1.0, report[:3]), *by_scale.items()])


def _linprog_answer(lp):
    """``(feasible, f_opt, d_max)`` of ``lp`` by HiGHS, at tight tolerances."""
    options = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    cost = linprog(lp.c, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
                   method="highs", options=options)
    if cost.status == 2:
        return False, math.nan, 0.0
    assert cost.status == 0, cost.message
    n = lp.c.size
    margin = linprog(np.eye(n + 1)[n] * -1.0,
                     A_ub=np.hstack([lp.a_ub, np.full((lp.a_ub.shape[0], 1), 0.5)]),
                     b_ub=lp.b_ub, A_eq=np.hstack([lp.a_eq, np.zeros((lp.a_eq.shape[0], 1))]),
                     b_eq=lp.b_eq, method="highs", options=options)
    assert margin.status == 0, margin.message
    return True, lp.c0 + cost.fun, max(-margin.fun, 0.0)


def test_relay8_sweep_matches_linprog_in_a_few_pivots(monkeypatch):
    # A routed 192-variable LP, degenerate at its optimum, across its
    # boundary near 1.67.  The base answer (two passes of phase 2 after
    # phase 1) took 448 pivots under Bland's rule alone; Dantzig's rule and
    # the margin LP opening from the cost LP's optimum take about 100.
    argv = CASES["capacity-relay8"]
    scales = [float(s) for s in argv[argv.index("--sweep-scale") + 1].split(",")]
    lp = build_lp(load_scenario(RELAY8))
    pivots = []
    pivot = simplex._pivot

    def counting(tableau, row, col):
        pivots.append(1)
        pivot(tableau, row, col)

    monkeypatch.setattr(simplex, "_pivot", counting)
    report = lp.solve()
    assert len(pivots) <= 150, len(pivots)
    _, rows = lp.sweep(scales)
    monkeypatch.undo()
    ours = [(report.feasible, report.f_opt, report.d_max), *rows]
    refs = [_linprog_answer(lp), *(_linprog_answer(lp.at(s * lp.lambdas)) for s in scales)]
    assert [r[0] for r in ours] == [r[0] for r in refs] == [True] * 7 + [False] * 4
    for scale, (_, f_opt, d_max), (_, ref_f, ref_d) in zip([1.0, *scales], ours, refs):
        if not np.isnan(ref_f):
            assert abs(f_opt - ref_f) <= 1e-9 and abs(d_max - ref_d) <= 1e-9, scale
        else:
            assert np.isnan(f_opt) and d_max == 0.0
