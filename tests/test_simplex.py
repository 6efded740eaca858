import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import oracles
from qnetlab import simplex
from qnetlab.simplex import solve_lp


def test_simple_bounded_minimum():
    # min -x - y  s.t.  x + y <= 4, x <= 2
    res = solve_lp(
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


# (c, a_ub, a_eq, right-hand sides, message): the fixed data are bad, or
# only the second right-hand side is.
BAD_DATA = {
    "c-not-finite": ([np.nan, 1.0], [[1.0, 1.0]], None, [([1.0], None)], "LP data must be finite"),
    "a_ub-not-finite": ([1.0, 1.0], [[1.0, np.inf]], None, [([1.0], None)],
                        "LP data must be finite"),
    "a_eq-columns": ([1.0, 1.0], None, [[1.0]], [(None, [1.0])],
                     "constraint matrix shapes do not match"),
    "a_ub-not-a-matrix": ([1.0, 1.0], [1.0, 1.0], None, [([1.0], None)],
                          "constraint matrix shapes do not match"),
    "b_ub-not-finite": ([1.0, 1.0], [[1.0, 1.0]], None, [([1.0], None), ([np.nan], None)],
                        "LP data must be finite"),
    "b_ub-size": ([1.0, 1.0], [[1.0, 1.0]], None, [([1.0], None), ([1.0, 2.0], None)],
                  "constraint matrix shapes do not match"),
    "b_eq-given-without-a_eq": ([1.0, 1.0], [[1.0, 1.0]], None, [([1.0], [1.0])],
                                "constraint matrix shapes do not match"),
}


@pytest.mark.parametrize("case", sorted(BAD_DATA))
def test_bad_lp_data_raises_value_error(case):
    c, a_ub, a_eq, rhs, message = BAD_DATA[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        simplex.solve_lp_sequence(c, a_ub, a_eq, rhs)


def test_equality_constraints():
    # min x + 2y  s.t.  x + y == 3
    res = solve_lp(
        c=np.array([1.0, 2.0]),
        a_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([3.0]),
    )
    assert res.status == "optimal"
    assert res.x == pytest.approx([3.0, 0.0])
    assert res.objective == pytest.approx(3.0)


def test_infeasible_detected():
    # x <= -1 with x >= 0
    res = solve_lp(c=np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([-1.0]))
    assert res.status == "infeasible"


def test_unbounded_detected():
    res = solve_lp(c=np.array([-1.0]))
    assert res.status == "unbounded"


def test_negative_rhs_inequalities():
    # min x  s.t.  -x <= -2  (i.e. x >= 2)
    res = solve_lp(c=np.array([1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([-2.0]))
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
BEALE_RHS = [[0, 0, 1], [0, 0, 2], [0, 0, 0], [0, -0.0, 0.5], [1, 0, 1], [0, 0, 1]]


def test_degenerate_vertex_does_not_cycle():
    # The Bland fallback must end Dantzig's cycle.
    res = solve_lp(BEALE_C, BEALE_A_UB, np.array([0.0, 0.0, 1.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05)


@pytest.mark.parametrize("sequence", [False, True], ids=["solve_lp", "sequence"])
def test_beale_cycles_without_the_bland_fallback(monkeypatch, sequence):
    # Without the fallback, the two tests on Beale's instance would cycle
    # until the pivot limit: each of them tests the fallback.
    monkeypatch.setattr(simplex, "DEGENERATE_STREAK", np.inf)
    rhs = [(np.array(b, dtype=float), np.zeros(0)) for b in BEALE_RHS]
    with pytest.raises(simplex.SimplexError, match="^pivot limit exceeded"):
        if sequence:
            simplex.solve_lp_sequence(BEALE_C, BEALE_A_UB, np.zeros((0, 4)), rhs)
        else:
            solve_lp(BEALE_C, BEALE_A_UB, rhs[0][0])


def test_lp_without_columns_has_no_entering_column():
    for bland in (False, True):
        assert simplex._entering(np.zeros(0), np.zeros(0, dtype=bool), bland) is None
    res = solve_lp(np.zeros(0))
    assert res.status == "optimal" and res.x.size == 0 and res.objective == 0.0


def test_redundant_equality_rows():
    res = solve_lp(
        c=np.array([1.0, 1.0]),
        a_eq=np.array([[1.0, 1.0], [2.0, 2.0]]),
        b_eq=np.array([1.0, 2.0]),
    )
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0)


def test_probability_simplex_structure():
    # The shape used by the capacity oracle: distributions per state.
    res = solve_lp(
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

    ours = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
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
        return solve_lp(*lp), pivots


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
# warm-started sequences of right-hand sides
# ---------------------------------------------------------------------------


def _assert_matches_cold(lp, rhs, results):
    c, a_ub, _, a_eq, _ = lp
    assert len(results) == len(rhs)
    for (b_ub, b_eq), warm in zip(rhs, results):
        cold = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
        assert warm.status == cold.status
        if cold.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
            # Phase 1 accepts violations up to its threshold.
            assert np.all(a_ub @ warm.x <= b_ub + simplex.PHASE1_TOL)
            assert a_eq @ warm.x == pytest.approx(b_eq, abs=simplex.PHASE1_TOL)
        else:
            assert warm.x is None and warm.objective is None


def test_sequence_first_point_is_the_cold_solve():
    c = np.array([3.0, 1.0, 2.0])
    a_ub = np.array([[1.0, -1.0, 0.5]])
    a_eq = np.array([[1.0, 1.0, 1.0]])
    rhs = [(np.array([-0.2]), np.array([1.0])), (np.array([0.3]), np.array([1.0]))]
    first = simplex.solve_lp_sequence(c, a_ub, a_eq, rhs)[0]
    cold = solve_lp(c, a_ub, rhs[0][0], a_eq, rhs[0][1])
    assert first.x.tobytes() == cold.x.tobytes()
    assert first.objective == cold.objective


def test_sequence_on_degenerate_lp_terminates():
    # Beale's cycling instance: every right-hand side below keeps the origin
    # a degenerate vertex, so the dual ratio test meets ties and zero rows;
    # the dual Bland rule must still terminate on the cold optimum, and the
    # primal passes end Dantzig's cycle by the Bland fallback.
    c, a_ub, a_eq = BEALE_C, BEALE_A_UB, np.zeros((0, 4))
    lp = (c, a_ub, None, a_eq, None)
    rhs = [(np.array(b, dtype=float), np.zeros(0)) for b in BEALE_RHS]
    results = simplex.solve_lp_sequence(c, a_ub, a_eq, rhs)
    _assert_matches_cold(lp, rhs, results)
    assert results[0].objective == pytest.approx(-0.05)
    assert results[-1].objective == pytest.approx(-0.05)


def test_infeasible_point_restores_the_last_optimal_tableau(monkeypatch):
    # x1 + x2 + x3 == 1, x <= b: (0.1, 0.3, 0.4) is infeasible between two
    # feasible points.  Its dual pivot must be undone, so the point after it
    # takes the pivots it takes right after the first point.
    c = np.array([2.0, 3.0, 1.0])
    a_ub = np.eye(3)
    a_eq = np.ones((1, 3))
    first, infeasible, last = (
        (np.array(b), np.array([1.0]))
        for b in ([0.5, 0.5, 0.5], [0.1, 0.3, 0.4], [0.4, 0.5, 0.2])
    )
    pivots = []
    pivot = simplex._pivot

    def recording(tableau, row, col):
        pivots.append((row, col))
        pivot(tableau, row, col)

    monkeypatch.setattr(simplex, "_pivot", recording)

    def pivots_of_last(rhs):
        # The sequence is deterministic: its prefix's pivots come first.
        pivots.clear()
        simplex.solve_lp_sequence(c, a_ub, a_eq, rhs[:-1])
        n_prefix = len(pivots)
        pivots.clear()
        results = simplex.solve_lp_sequence(c, a_ub, a_eq, rhs)
        return results, pivots[n_prefix:]

    assert pivots_of_last([first, infeasible])[1]  # the infeasible point pivots
    with_gap, after_gap = pivots_of_last([first, infeasible, last])
    without, after_first = pivots_of_last([first, last])
    assert [r.status for r in with_gap] == ["optimal", "infeasible", "optimal"]
    assert after_gap == after_first
    assert with_gap[2].x.tobytes() == without[1].x.tobytes()
    assert with_gap[2].x == pytest.approx([0.4, 0.4, 0.2])


def test_sequence_solves_cold_until_one_is_optimal():
    # -b1 <= x1 + x2 <= b2: empty at b = (-3, 2), so the next point is
    # solved cold too and starts the warm chain.
    c = np.array([1.0, 1.0])
    a_ub = np.array([[-1.0, -1.0], [1.0, 1.0]])
    a_eq = np.zeros((0, 2))
    rhs = [(np.array(b, dtype=float), np.zeros(0)) for b in ([-3, 2], [-1, 2], [-2, 2])]
    results = simplex.solve_lp_sequence(c, a_ub, a_eq, rhs)
    assert [r.status for r in results] == ["infeasible", "optimal", "optimal"]
    assert [r.objective for r in results[1:]] == pytest.approx([1.0, 2.0])


def test_marginal_infeasibility_is_decided_cold(monkeypatch):
    # x <= b with x == 1: at b = 1 - 5e-8 the violation is under the phase-1
    # threshold, so the cold solve calls it feasible and so must the sequence;
    # at b = 1 - 1e-6 both call it infeasible, and only the first is re-solved
    # (after the opening cold solve at b = 2).
    c = np.array([1.0])
    a_ub = np.array([[1.0]])
    a_eq = np.array([[1.0]])
    rhs = [(np.array([b]), np.array([1.0])) for b in (2.0, 1.0 - 5e-8, 1.0 - 1e-6, 1.0)]
    cold_calls = []
    cold_solve = simplex._two_phase

    def counting(*args):
        cold_calls.append(args[2][0])
        return cold_solve(*args)

    monkeypatch.setattr(simplex, "_two_phase", counting)
    results = simplex.solve_lp_sequence(c, a_ub, a_eq, rhs)
    monkeypatch.undo()
    assert cold_calls == [2.0, 1.0 - 5e-8]
    _assert_matches_cold((c, a_ub, None, a_eq, None), rhs, results)
    assert [r.status for r in results] == ["optimal", "optimal", "infeasible", "optimal"]


@pytest.mark.parametrize("trial", range(40))
def test_random_sequences_match_scipy(trial):
    rng = np.random.default_rng(2000 + trial)
    n = int(rng.integers(2, 7))
    m_ub = int(rng.integers(1, 5))
    m_eq = int(rng.integers(0, 3))
    c = rng.normal(size=n)
    a_ub = rng.normal(size=(m_ub, n))
    a_eq = rng.normal(size=(m_eq, n))
    rhs = [(rng.normal(size=m_ub) + 0.5, a_eq @ rng.random(n)) for _ in range(6)]
    for (b_ub, b_eq), ours in zip(rhs, simplex.solve_lp_sequence(c, a_ub, a_eq, rhs)):
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
def lp_sequences(draw):
    c, a_ub, b_ub, a_eq, b_eq = draw(random_lps())
    scale = draw(st.sampled_from([1.0, 0.1, 0.7]))

    def vector(size):
        cells = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
        return scale * np.array(cells, dtype=float)

    # Later equality right-hand sides either repeat the first (consistent
    # when it was) or are redrawn, which can make a redundant row inconsistent.
    rhs = [(b_ub, b_eq)]
    for _ in range(draw(st.integers(1, 5))):
        rhs.append((vector(b_ub.size), b_eq if draw(st.booleans()) else vector(b_eq.size)))
    return (c, a_ub, None, a_eq, None), rhs


@settings(max_examples=300, deadline=None)
@given(lp_sequences())
def test_sequences_match_cold_solves(case):
    lp, rhs = case
    c, a_ub, _, a_eq, _ = lp
    _assert_matches_cold(lp, rhs, simplex.solve_lp_sequence(c, a_ub, a_eq, rhs))


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
    cold = solve_lp(c_new, np.hstack([a_ub, column[: b_ub.size, None]]), b_ub,
                    np.hstack([a_eq, column[b_ub.size :, None]]), b_eq)
    assert status == cold.status
    if added is not None:
        ours = simplex._solution(added.tableau, added.basis, c_new)
        assert ours.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
