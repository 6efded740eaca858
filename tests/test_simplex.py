import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import oracles
from qnetlab import simplex


def cold_solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    """One LP solved cold by ``simplex._two_phase``, as an ``LpResult``."""
    c = np.asarray(c, dtype=float)
    a_ub, a_eq = (np.zeros((0, c.size)) if a is None else np.asarray(a, dtype=float)
                  for a in (a_ub, a_eq))
    b_ub, b_eq = (np.zeros(0) if b is None else np.asarray(b, dtype=float) for b in (b_ub, b_eq))
    return simplex._result(*simplex._two_phase(c, a_ub, b_ub, a_eq, b_eq), c)


def test_simple_bounded_minimum():
    # min -x - y  s.t.  x + y <= 4, x <= 2
    res = cold_solve(
        c=np.array([-1.0, -1.0]),
        a_ub=np.array([[1.0, 1.0], [1.0, 0.0]]),
        b_ub=np.array([4.0, 2.0]),
    )
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-4.0)


def test_leaving_row_skips_an_overflowing_ratio_without_a_warning():
    # Row 0's ratio 1e308 / 1e-3 is past the float range: +inf, never chosen.
    tableau = np.array([[1e-3, 1e308], [2.0, 4.0], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert simplex._bland_leaving(tableau, 0, [0, 1]) == 1


def test_equality_constraints():
    # min x + 2y  s.t.  x + y == 3
    res = cold_solve(
        c=np.array([1.0, 2.0]),
        a_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([3.0]),
    )
    assert res.status == "optimal"
    assert res.x == pytest.approx([3.0, 0.0])
    assert res.objective == pytest.approx(3.0)


def test_infeasible_detected():
    # x <= -1 with x >= 0
    res = cold_solve(c=np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([-1.0]))
    assert res.status == "infeasible"


def test_unbounded_detected():
    res = cold_solve(c=np.array([-1.0]))
    assert res.status == "unbounded"


def test_negative_rhs_inequalities():
    # min x  s.t.  -x <= -2  (i.e. x >= 2)
    res = cold_solve(c=np.array([1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([-2.0]))
    assert res.status == "optimal"
    assert res.x == pytest.approx([2.0])


# Beale's instance: Dantzig's rule cycles on its degenerate origin, with the
# leaving row's ties going to the lowest basic index.
BEALE_C = np.array([-0.75, 150.0, -0.02, 6.0])
BEALE_A_UB = np.array(
    [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)
# Along this ray (b_3 = 2 - s) the origin stays a degenerate vertex.
BEALE_RAY = (np.array([0.0, 0.0, 2.0]), np.array([0.0, -0.0, -1.0]))
BEALE_SCALES = [0.0, 0.5, 1.0, 1.0, 1.5, 2.0]


def test_degenerate_vertex_does_not_cycle():
    # The Bland fallback must end Dantzig's cycle.
    res = cold_solve(BEALE_C, BEALE_A_UB, np.array([0.0, 0.0, 1.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05)


@pytest.mark.parametrize("ray", [False, True], ids=["cold", "ray"])
def test_beale_cycles_without_the_bland_fallback(monkeypatch, ray):
    # Without the fallback, the two tests on Beale's instance would cycle
    # until the pivot limit: each of them tests the fallback.
    monkeypatch.setattr(simplex, "DEGENERATE_STREAK", np.inf)
    with pytest.raises(simplex.SimplexError, match="^pivot limit exceeded"):
        if ray:
            walk(BEALE_C, BEALE_A_UB, np.zeros((0, 4)), BEALE_RAY, BEALE_SCALES)
        else:
            cold_solve(BEALE_C, BEALE_A_UB, np.array([0.0, 0.0, 1.0]))


def test_lp_without_columns_has_no_entering_column():
    for bland in (False, True):
        assert simplex._entering(np.zeros(0), np.zeros(0, dtype=bool), bland) is None
    res = cold_solve(np.zeros(0))
    assert res.status == "optimal" and res.x.size == 0 and res.objective == 0.0


def test_redundant_equality_rows():
    res = cold_solve(
        c=np.array([1.0, 1.0]),
        a_eq=np.array([[1.0, 1.0], [2.0, 2.0]]),
        b_eq=np.array([1.0, 2.0]),
    )
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0)


def test_probability_simplex_structure():
    # The shape used by the capacity oracle: distributions per state.
    res = cold_solve(
        c=np.array([3.0, 1.0, 2.0]),
        a_eq=np.array([[1.0, 1.0, 1.0]]),
        b_eq=np.array([1.0]),
    )
    assert res.status == "optimal"
    assert res.x == pytest.approx([0.0, 1.0, 0.0])


@pytest.mark.parametrize("trial", range(40))
def test_random_lps_match_scipy(trial):
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(2, 7))
    m_ub = int(rng.integers(1, 5))
    m_eq = int(rng.integers(0, 3))
    c = rng.normal(size=n)
    a_ub = rng.normal(size=(m_ub, n))
    b_ub = rng.normal(size=m_ub) + 1.0
    a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
    # Make equalities consistent with a known non-negative point.
    x0 = rng.random(n)
    b_eq = a_eq @ x0 if m_eq else None

    ours = cold_solve(c, a_ub, b_ub, a_eq, b_eq)
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs")

    if ours.status == "optimal":
        assert ref.status == 0
        assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
        assert np.all(a_ub @ ours.x <= b_ub + 1e-8)
        if m_eq:
            assert a_eq @ ours.x == pytest.approx(b_eq, abs=1e-8)
    elif ours.status == "infeasible":
        assert ref.status == 2
    else:
        assert ref.status == 3


# Small integer entries times a non-dyadic scale give degenerate vertices,
# ratio ties, redundant rows, signed zeros and rounding in every pivot.
@st.composite
def random_lps(draw):
    n = draw(st.integers(0, 6))
    m_ub = draw(st.integers(0, 4))
    m_eq = draw(st.integers(0, 3))
    scale = draw(st.sampled_from([1.0, 0.1, 0.7, 1.3]))
    entry = st.integers(-3, 3)

    def matrix(rows, cols):
        cells = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
        return scale * np.array(cells, dtype=float).reshape(rows, cols)

    c = matrix(1, n)[0]
    a_ub, b_ub = matrix(m_ub, n), matrix(1, m_ub)[0]
    a_eq, b_eq = matrix(m_eq, n), matrix(1, m_eq)[0]
    if m_eq and draw(st.booleans()):
        # Consistent equalities: the right-hand side of a non-negative point,
        # with the first row repeated so that one row is redundant.
        x0 = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), float)
        a_eq = np.vstack([a_eq, a_eq[:1]])
        b_eq = a_eq @ x0
    return c, a_ub, b_ub, a_eq, b_eq


def _solve_recording_pivots(lp):
    pivots = []
    pivot = simplex._pivot

    def recording(tableau, row, col):
        pivots.append((row, col))
        pivot(tableau, row, col)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_pivot", recording)
        return cold_solve(*lp), pivots


@settings(max_examples=300, deadline=None)
# A short streak limit switches passes to Bland's rule early (0: from the
# first pivot), so the reference checks the fallback's hand-over too.
@given(random_lps(), st.sampled_from([simplex.DEGENERATE_STREAK, 0, 1, 2]))
def test_array_pivots_match_row_loop_reference(lp, streak):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "DEGENERATE_STREAK", streak)
        with pytest.MonkeyPatch.context() as ref_mp:
            ref_mp.setattr(simplex, "_pivot", oracles.pivot_by_rows)
            ref_mp.setattr(simplex, "_run_simplex", oracles.run_simplex_by_scan)
            ref, ref_pivots = _solve_recording_pivots(lp)
        ours, our_pivots = _solve_recording_pivots(lp)
    assert ours.status == ref.status
    assert our_pivots == ref_pivots
    if ref.status == "optimal":
        assert ours.x.tobytes() == ref.x.tobytes()
        assert np.float64(ours.objective).tobytes() == np.float64(ref.objective).tobytes()
    else:
        assert ours.x is None and ours.objective is None


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.data())
def test_array_pivot_matches_row_loop_bit_for_bit(m, n, data):
    # Signed zeros included: a row with a zero factor must keep its -0.0.
    cells = data.draw(st.lists(st.sampled_from([-0.0, 0.0, 1.0, -2.0, 0.7, -1.3, 3.1]),
                               min_size=m * n, max_size=m * n))
    tableau = np.array(cells).reshape(m, n)
    row, col = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, n - 1))
    tableau[row, col] = data.draw(st.sampled_from([1.0, -0.7, 3.1]))
    ref = tableau.copy()
    oracles.pivot_by_rows(ref, row, col)
    simplex._pivot(tableau, row, col)
    assert tableau.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# walks along a ray of right-hand sides
# ---------------------------------------------------------------------------


def ray_points(a_ub, origin, direction, scales):
    """``(s, b_ub, b_eq)`` at ``origin + s * direction`` for each scale; a
    point past the float range is left infinite (no walk solves it)."""
    m_ub = a_ub.shape[0]
    with np.errstate(over="ignore"):
        rhs = [origin + s * direction for s in scales]
    return [(s, b[:m_ub], b[m_ub:]) for s, b in zip(scales, rhs)]


def walk(c, a_ub, a_eq, ray, scales, best=None):
    c, a_ub, a_eq = (np.asarray(v, dtype=float) for v in (c, a_ub, a_eq))
    points = ray_points(a_ub, *ray, scales)
    return simplex._solve_ray(c, a_ub, a_eq, ray, points, best)[0]


def _assert_matches_cold(lp, ray, scales, results):
    c, a_ub, _, a_eq, _ = lp
    assert len(results) == len(scales)
    for (_, b_ub, b_eq), ours in zip(ray_points(a_ub, *ray, scales), results):
        cold = cold_solve(c, a_ub, b_ub, a_eq, b_eq)
        assert ours.status == cold.status
        if cold.status == "optimal":
            assert ours.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
            # Phase 1 accepts violations up to its threshold.
            assert np.all(a_ub @ ours.x <= b_ub + simplex.PHASE1_TOL)
            assert a_eq @ ours.x == pytest.approx(b_eq, abs=simplex.PHASE1_TOL)
        else:
            assert ours.x is None and ours.objective is None


def test_ray_first_point_is_the_cold_solve():
    c = np.array([3.0, 1.0, 2.0])
    a_ub = np.array([[1.0, -1.0, 0.5]])
    a_eq = np.array([[1.0, 1.0, 1.0]])
    ray = (np.array([-0.2, 1.0]), np.array([-0.5, 0.0]))
    first = walk(c, a_ub, a_eq, ray, [0.0, 1.0])[0]
    cold = cold_solve(c, a_ub, [-0.2], a_eq, [1.0])
    assert first.x.tobytes() == cold.x.tobytes()
    assert first.objective == cold.objective


def test_ray_on_degenerate_lp_terminates():
    # Beale's cycling instance: every point of the ray keeps the origin a
    # degenerate vertex, so the dual ratio test meets ties and zero rows; the
    # dual Bland rule must still terminate on the cold optimum, and the primal
    # passes end Dantzig's cycle by the Bland fallback.
    lp = (BEALE_C, BEALE_A_UB, None, np.zeros((0, 4)), None)
    results = walk(BEALE_C, BEALE_A_UB, np.zeros((0, 4)), BEALE_RAY, BEALE_SCALES)
    _assert_matches_cold(lp, BEALE_RAY, BEALE_SCALES, results)
    assert results[2].objective == pytest.approx(-0.05)
    assert results[-1].objective == pytest.approx(0.0)


def test_marginal_infeasibility_is_decided_cold(monkeypatch):
    # x <= 5 - 4 s with x == 1: just past s = 1 the violation is under the
    # phase-1 threshold, so the cold solve calls it feasible and so must the
    # walk; a little further both call it infeasible, and that certificate
    # settles every larger scale with no arithmetic (4e308 is past the float
    # range).  Only the opening and the marginal point are solved cold.
    c, a_ub, a_eq = np.array([1.0]), np.array([[1.0]]), np.array([[1.0]])
    ray = (np.array([5.0, 1.0]), np.array([-4.0, 0.0]))
    scales = [0.0, 1.0 + 5e-8 / 4, 1.0 + 1e-6 / 4, 2.0, 1e308]
    cold_calls = []
    cold_solve = simplex._two_phase

    def counting(*args):
        cold_calls.append(args[2][0])
        return cold_solve(*args)

    monkeypatch.setattr(simplex, "_two_phase", counting)
    with np.errstate(over="raise"):
        results = walk(c, a_ub, a_eq, ray, scales)
    monkeypatch.undo()
    assert cold_calls == [5.0, 5.0 - 4.0 * scales[1]]
    _assert_matches_cold((c, a_ub, None, a_eq, None), ray, scales[:-1], results[:-1])
    assert [r.status for r in results] == ["optimal", "optimal"] + ["infeasible"] * 3


def test_ray_infeasible_at_its_first_point_solves_one_lp(monkeypatch):
    # x1 + x2 >= 3 and x1 + x2 <= 2 - s: empty at s = 0, so at every scale.
    c = np.array([1.0, 1.0])
    a_ub, a_eq = np.array([[-1.0, -1.0], [1.0, 1.0]]), np.zeros((0, 2))
    ray = (np.array([-3.0, 2.0]), np.array([0.0, -1.0]))
    calls = []
    cold_solve = simplex._two_phase

    def counting(*args):
        calls.append(1)
        return cold_solve(*args)

    monkeypatch.setattr(simplex, "_two_phase", counting)
    points = ray_points(a_ub, *ray, [0.0, 0.5, 1.0])
    results, opening = simplex._solve_ray(c, a_ub, a_eq, ray, points)
    assert [r.status for r in results] == ["infeasible"] * 3
    assert opening is None and calls == [1]


@pytest.mark.parametrize("trial", range(40))
def test_random_rays_match_scipy(trial):
    rng = np.random.default_rng(2000 + trial)
    n = int(rng.integers(2, 7))
    m_ub = int(rng.integers(1, 5))
    m_eq = int(rng.integers(0, 3))
    c = rng.normal(size=n)
    a_ub = rng.normal(size=(m_ub, n))
    a_eq = rng.normal(size=(m_eq, n))
    origin = np.concatenate([rng.normal(size=m_ub) + 0.5, a_eq @ rng.random(n)])
    direction = np.concatenate([-rng.random(m_ub), np.zeros(m_eq)])
    scales = np.sort(rng.random(6) * 2.0).tolist()
    results = walk(c, a_ub, a_eq, (origin, direction), scales)
    for (_, b_ub, b_eq), ours in zip(ray_points(a_ub, origin, direction, scales), results):
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq if m_eq else None,
                      b_eq=b_eq if m_eq else None, method="highs")
        if ours.status == "optimal":
            assert ref.status == 0
            assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
        elif ours.status == "infeasible":
            assert ref.status == 2
        else:
            assert ref.status == 3


@st.composite
def lp_rays(draw):
    c, a_ub, b_ub, a_eq, b_eq = draw(random_lps())
    scale = draw(st.sampled_from([1.0, 0.1, 0.7]))
    cells = draw(st.lists(st.integers(-3, 0), min_size=b_ub.size, max_size=b_ub.size))
    # The right-hand side only shrinks along the ray: <= 0 on inequality
    # rows, 0 on equality rows.
    ray = (np.concatenate([b_ub, b_eq]),
           np.concatenate([scale * np.array(cells, dtype=float), np.zeros(b_eq.size)]))
    scales = sorted(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0]),
                                  min_size=1, max_size=6)))
    # The walk opens at a cold solve of its first point, or at an optimum
    # anywhere on the ray, as a capacity sweep opens at its base point.
    opening = draw(st.none() | st.sampled_from([0.0, 1.0, 2.5]))
    return (c, a_ub, None, a_eq, None), ray, scales, opening


@settings(max_examples=300, deadline=None)
@given(lp_rays())
def test_rays_match_cold_solves(case):
    lp, ray, scales, opening = case
    c, a_ub, _, a_eq, _ = lp
    best = None
    if opening is not None:
        [(_, b_ub, b_eq)] = ray_points(a_ub, *ray, [opening])
        best = simplex._two_phase(c, a_ub, b_ub, a_eq, b_eq)[1]
        if best is None:
            return
    _assert_matches_cold(lp, ray, scales, walk(c, a_ub, a_eq, ray, scales, best))


@settings(max_examples=200, deadline=None)
@given(random_lps(), st.data())
def test_added_column_matches_a_cold_solve(lp, data):
    # An optimum of the LP, plus one column: phase 2 from its tableau must
    # reach the cold solve's status and objective.
    c, a_ub, b_ub, a_eq, b_eq = lp
    status, opt = simplex._two_phase(c, a_ub, b_ub, a_eq, b_eq)
    if opt is None:
        return
    cells = st.integers(-3, 3).map(float)
    column = np.array(data.draw(st.lists(cells, min_size=b_ub.size + b_eq.size,
                                         max_size=b_ub.size + b_eq.size)))
    c_new = np.append(c, data.draw(cells))
    status, added = simplex._add_column(opt, c_new, column)
    cold = cold_solve(c_new, np.hstack([a_ub, column[: b_ub.size, None]]), b_ub,
                    np.hstack([a_eq, column[b_ub.size :, None]]), b_eq)
    assert status == cold.status
    if added is not None:
        ours = simplex._solution(added.tableau, added.basis, c_new)
        assert ours.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
