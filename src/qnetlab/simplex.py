"""Dense two-phase primal simplex with Dantzig's rule and a Bland fallback, and
a parametric dual-simplex walk along a ray of right-hand sides.

Solves     minimize    c . x
           subject to  A_ub x <= b_ub
                       A_eq x == b_eq
                       x >= 0

Desk-scale problems only: the tableau is dense and every pivot is O(m n), so
each pivot is one array update.  Every primal pass enters the column of most
negative reduced cost (Dantzig's rule, lowest index on ties); after
``DEGENERATE_STREAK`` degenerate pivots in a row it switches, for the rest of
that pass, to Bland's rule (the lowest-index eligible column), which cannot
cycle.  The leaving row is always the minimum ratio, ties going to the lowest
basic index.  ``_solve_ray`` solves the LP at right-hand sides
``b0 + s * delta`` for scales s in increasing order: the reduced costs do not
depend on the right-hand side, so one optimal tableau stays dual feasible
along the whole ray, each basis is optimal on an interval of scales, and the
walk makes one dual-simplex pivot where a basic value crosses zero
(parametric right-hand side: Gass and Saaty, 1955).  Feasibility and
optimality are decided at an absolute tolerance of 1e-9; phase 1 calls an LP
infeasible when its artificials sum to more than 1e-7.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["LpResult", "SimplexError"]

TOL = 1e-9
PHASE1_TOL = 1e-7  # largest sum of artificials that still counts as feasible
# Degenerate pivots in a row after which a primal pass prices by Bland's rule.
# Beale's cycle under Dantzig's rule is 6 pivots long.
DEGENERATE_STREAK = 50


class SimplexError(RuntimeError):
    """Numerical failure inside the solver (not infeasibility/unboundedness)."""


class LpResult(NamedTuple):
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    factors = tableau[:, col]
    # Rows with a zero factor are left alone, so their signed zeros survive.
    rows = factors.nonzero()[0]
    rows = rows[rows != row]
    tableau[rows] -= factors[rows, None] * pivot_row


def _entering(costs: np.ndarray, eligible: np.ndarray, bland: bool) -> int | None:
    """The eligible column of most negative reduced cost below -TOL, the
    lowest index on ties; with ``bland``, the lowest-index such column."""
    if bland:
        hits = (eligible & (costs < -TOL)).nonzero()[0]
        return int(hits[0]) if hits.size else None
    if not costs.size:
        return None
    priced = np.where(eligible, costs, 0.0)
    col = int(priced.argmin())
    return col if priced[col] < -TOL else None


def _bland_leaving(tableau: np.ndarray, col: int, basis: list[int]) -> int | None:
    column = tableau[:-1, col]
    rows = (column > TOL).nonzero()[0]
    best_row = None
    best_ratio = np.inf
    # A ratio past the float range is +inf, which never beats a finite one.
    with np.errstate(over="ignore"):
        ratios = tableau[rows, -1] / column[rows]
    # The tie tolerance makes the choice depend on visiting order: keep it.
    for i, ratio in zip(rows.tolist(), ratios.tolist()):
        if ratio < best_ratio - TOL or (
            abs(ratio - best_ratio) <= TOL
            and (best_row is None or basis[i] < basis[best_row])
        ):
            best_ratio = ratio
            best_row = i
    return best_row


def _run_simplex(tableau: np.ndarray, basis: list[int], eligible: np.ndarray) -> str:
    """Iterate pivots until optimal or unbounded; mutates tableau and basis.

    A pivot is degenerate when the entering variable's new value is at most
    TOL, so the objective does not move.
    """
    max_iters = 50_000 + 100 * tableau.size
    streak = 0
    for _ in range(max_iters):
        col = _entering(tableau[-1, :-1], eligible, streak >= DEGENERATE_STREAK)
        if col is None:
            return "optimal"
        row = _bland_leaving(tableau, col, basis)
        if row is None:
            return "unbounded"
        _pivot(tableau, row, col)
        basis[row] = col
        if streak < DEGENERATE_STREAK:
            streak = streak + 1 if tableau[row, -1] <= TOL else 0
    raise SimplexError("pivot limit exceeded; tableau did not converge")


class _Optimum(NamedTuple):
    """An optimal phase-2 tableau and what a walk or an added column needs
    to reuse it.

    ``identity[i]`` is the column that was the unit vector e_i before any
    pivot (row i's slack, or its artificial), so ``tableau[:m, identity]`` is
    the basis inverse; ``signs`` are the row signs of the first right-hand
    side's normalisation to rhs >= 0.
    """

    tableau: np.ndarray
    basis: list[int]
    signs: np.ndarray
    identity: np.ndarray
    eligible: np.ndarray  # structural and slack columns


def _solution(tableau: np.ndarray, basis: list[int], c: np.ndarray) -> LpResult:
    x = np.zeros(c.size)
    for i in range(len(basis)):
        if basis[i] < c.size:
            x[basis[i]] = tableau[i, -1]
    np.clip(x, 0.0, None, out=x)
    # Added in index order: a BLAS dot's order depends on the CPU kernel.
    objective = float(np.cumsum(c * x)[-1]) if c.size else 0.0
    return LpResult(status="optimal", x=x, objective=objective)


def _result(status: str, opt: _Optimum | None, c: np.ndarray) -> LpResult:
    return LpResult(status, None, None) if opt is None else _solution(opt.tableau, opt.basis, c)


def _two_phase(c, a_ub, b_ub, a_eq, b_eq) -> tuple[str, _Optimum | None]:
    """Cold solve of checked data; the optimum comes back only if optimal."""
    n = c.size
    m_ub, m_eq = b_ub.size, b_eq.size
    m = m_ub + m_eq
    n_slack = m_ub
    # Columns: [structural | slack | artificial | rhs]
    rows = np.hstack([np.vstack([a_ub, a_eq]), np.zeros((m, n_slack))])
    rows[:m_ub, n : n + n_slack] = np.eye(m_ub)
    rhs = np.concatenate([b_ub, b_eq])

    # Normalize to rhs >= 0 (flips slack signs on negated rows).
    signs = np.ones(m)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = -rows[i]
            rhs[i] = -rhs[i]
            signs[i] = -1.0

    # Rows needing an artificial: equality rows, plus inequality rows whose
    # slack entered with coefficient -1 after negation.
    needs_artificial = [
        i for i in range(m) if i >= m_ub or rows[i, n + i] < 0.5
    ]
    n_art = len(needs_artificial)
    art_cols = np.zeros((m, n_art))
    for j, i in enumerate(needs_artificial):
        art_cols[i, j] = 1.0
    full = np.hstack([rows, art_cols, rhs[:, None]])
    n_total = n + n_slack + n_art

    basis: list[int] = [-1] * m
    for i in range(m_ub):
        if rows[i, n + i] > 0.5:
            basis[i] = n + i
    for j, i in enumerate(needs_artificial):
        basis[i] = n + n_slack + j
    # Before any pivot every row's basic column is its unit vector.
    identity = np.array(basis, dtype=np.intp)

    # Phase 1: minimize the sum of artificials.
    tableau = np.vstack([full, np.zeros(n_total + 1)])
    for j, i in enumerate(needs_artificial):
        tableau[-1] -= tableau[i]
    tableau[-1, n + n_slack : n_total] = 0.0
    eligible = np.ones(n_total, dtype=bool)
    status = _run_simplex(tableau, basis, eligible)
    if status == "unbounded":
        raise SimplexError("phase-1 objective cannot be unbounded")
    if -tableau[-1, -1] > PHASE1_TOL:
        return "infeasible", None

    # Phase 2: original objective, artificial columns frozen out.
    eligible = np.zeros(n_total, dtype=bool)
    eligible[: n + n_slack] = True
    return _phase_two(_Optimum(tableau, basis, signs, identity, eligible), c)


def _phase_two(start: _Optimum, c: np.ndarray) -> tuple[str, _Optimum | None]:
    """Price ``c`` on a primal-feasible tableau and pivot it to optimal;
    mutates ``start``.

    First each artificial still basic (at value ~0) is pivoted out on its
    row's first eligible column with an entry past TOL, a degenerate pivot;
    one with no such column stays, on a row that is redundant.
    """
    tableau, basis = start.tableau, start.basis
    for i, j in enumerate(basis):
        if not start.eligible[j]:
            cols = (start.eligible & (np.abs(tableau[i, :-1]) > TOL)).nonzero()[0]
            if cols.size:
                _pivot(tableau, i, int(cols[0]))
                basis[i] = int(cols[0])
    tableau[-1, :] = 0.0
    tableau[-1, : c.size] = c
    for i, j in enumerate(basis):
        if j < c.size and abs(c[j]) > 0.0:
            tableau[-1] -= c[j] * tableau[i]
    status = _run_simplex(tableau, basis, start.eligible)
    # A ratio tie within TOL can leave a basic value just below 0, which the
    # solution would clip (1.5e-10 on downlink2's queue rows at rates 1.5e-10):
    # dual-simplex pivots remove it, as on the walk, unless they find a
    # row that no pivot can fix (phase 1 has accepted that violation).
    if status == "optimal" and (tableau[:-1, -1] < 0.0).any():
        if _run_dual_simplex(tableau, basis, start.eligible) is None:
            status = _run_simplex(tableau, basis, start.eligible)
    if status == "unbounded":
        return "unbounded", None
    return "optimal", start


def _add_column(best: _Optimum, c: np.ndarray, column: np.ndarray) -> tuple[str, _Optimum | None]:
    """The optimum of ``best``'s LP with one more structural variable, last,
    whose constraint column is ``column`` and whose objective is ``c`` (all
    structural variables' costs).

    ``best``'s basis stays primal feasible with the new variable non-basic at
    0, so its tableau gains the column ``B^-1 a`` (under its row signs) and
    only phase 2 runs.  A row left redundant by phase 1 need not be redundant
    with the new column: phase 2 first pivots its artificial out on it.
    Returns ("optimal", optimum) or ("unbounded", None).
    """
    n = c.size - 1
    # The slack and artificial columns move one to the right.
    return _phase_two(
        _Optimum(
            np.insert(best.tableau, n, _basis_solve(best, column), axis=1),
            [j + (j >= n) for j in best.basis],
            best.signs,
            best.identity + (best.identity >= n),
            np.insert(best.eligible, n, True),
        ),
        c,
    )


def _run_dual_simplex(
    tableau: np.ndarray, basis: list[int], eligible: np.ndarray
) -> int | None:
    """Dual-simplex pivots with Bland-type rules from a dual-feasible tableau.

    The leaving row is the one with the lowest basic index among rows whose
    value is negative; the entering column is the eligible column of minimum
    ratio among entries below -TOL, ties within TOL going to the lowest
    column index.  Returns None once no row is negative, or the leaving row
    that has no entering column: that row proves the right-hand side
    infeasible.  Any negative value leaves, not only one below -TOL, because
    phase 1 meets such a row exactly: a basic value left at -3e-10 and
    clipped to 0 moved bb1's f_opt at scale 1e-9 by 3e-10.
    """
    max_iters = 50_000 + 100 * tableau.size
    for _ in range(max_iters):
        rows = (tableau[:-1, -1] < 0.0).nonzero()[0]
        if not rows.size:
            return None
        row = min(rows.tolist(), key=basis.__getitem__)
        entries = tableau[row, :-1]
        cols = (eligible & (entries < -TOL)).nonzero()[0]
        if not cols.size:
            return row
        ratios = tableau[-1, cols] / -entries[cols]
        col = int(cols[(ratios <= ratios.min() + TOL).argmax()])
        _pivot(tableau, row, col)
        basis[row] = col
    raise SimplexError("pivot limit exceeded; dual simplex did not converge")


def _basis_solve(best: _Optimum, vector: np.ndarray) -> np.ndarray:
    """``B^-1 v`` under ``best``'s row signs, as a tableau column (0 in the
    objective row).  The elementwise products are added in a fixed order, so
    the bits do not depend on the CPU kernel the way a BLAS matrix-vector
    product does."""
    m = len(best.basis)
    inverse = best.tableau[:m, best.identity]
    signed = best.signs * vector
    column = np.zeros(m + 1)
    for i in signed.nonzero()[0]:
        column[:m] += inverse[:, i] * signed[i]
    return column


def _solve_ray(
    c: np.ndarray,
    a_ub: np.ndarray,
    a_eq: np.ndarray,
    ray: tuple[np.ndarray, np.ndarray],
    points: Sequence[tuple[float, np.ndarray, np.ndarray]],
    best: _Optimum | None = None,
) -> tuple[list[LpResult], _Optimum | None]:
    """The LP of ``c``, ``a_ub`` and ``a_eq`` at each ``(s, b_ub, b_eq)`` of
    ``points``, whose right-hand side is ``origin + s * direction`` for
    ``ray = (origin, direction)`` (inequality rows, then equality rows).

    The scales must not decrease, and the right-hand side must only shrink
    along the ray (``direction`` <= 0 on inequality rows, 0 on equality
    rows), so that an infeasible scale makes every larger one infeasible.
    Without ``best`` (an optimum of the same LP) the first point is solved
    cold; if it is infeasible, so is every point.  From the optimum one
    tableau walks the points in turn.  It carries ``beta = B^-1 origin`` and
    ``gamma = B^-1 direction`` as two frozen columns that every pivot
    updates, so at each scale the basic values are ``beta + s * gamma``, and
    dual-simplex pivots restore primal feasibility where a row has crossed
    zero.  A row that no pivot can fix is a certificate: where it proves a
    violation above twice the phase-1 threshold, that scale and every larger
    one are infeasible, with no further arithmetic.  A smaller violation, a
    basic artificial away from zero, or an unbounded primal clean-up leave
    the point to a cold solve (after an unbounded one, every later point
    too), so each status is the cold solve's.  Values can differ from the
    cold solve's in the last digits, and at a degenerate optimum ``x`` can
    be another optimal vertex.  Returns the results in order, and the
    optimum that opened the walk (``best``, unchanged), or None if there was
    none.
    """
    results: list[LpResult] = []
    settled = None  # the status of every later point, once the walk has ended
    if best is None:
        _, b_ub, b_eq = points[0]
        status, best = _two_phase(c, a_ub, b_ub, a_eq, b_eq)
        results.append(_result(status, best, c))
        points = points[1:]
        if best is None:  # past an unbounded point only a cold solve can tell
            settled = "infeasible" if status == "infeasible" else "cold"
    if settled is None:
        n_total = best.eligible.size
        tableau = np.hstack([
            best.tableau[:, :n_total],
            np.column_stack([_basis_solve(best, v) for v in ray]),
            best.tableau[:, n_total:],
        ])
        beta, gamma, values = tableau[:-1, n_total], tableau[:-1, n_total + 1], tableau[:-1, -1]
        basis = list(best.basis)
        eligible = np.append(best.eligible, [False, False])
    for s, b_ub, b_eq in points:
        status = settled or "cold"
        if settled is None:
            np.add(beta, s * gamma, out=values)
            row = _run_dual_simplex(tableau, basis, eligible)
            if row is not None:
                # Minus this row of B^-1, divided by its largest entry (at
                # least 1), is a dual point of every phase-1 LP of this
                # right-hand side, so their optimum is at least the violation
                # below.  Phase 1 rounds the same violation differently
                # (downlink2 at scale 1.5 + 1e-6/3: 1e-7 plus 1.1e-16 here, at
                # most 1e-7 there), so only a violation above twice its
                # threshold is decided here; a smaller one is solved cold.
                largest = max(1.0, float(np.abs(tableau[row, best.identity]).max()))
                if -values[row] / largest > 2.0 * PHASE1_TOL:
                    status = settled = "infeasible"
            # Ties within TOL in the ratio test can leave a reduced cost just
            # below -TOL; primal pivots restore the cold solve's optimality test.
            elif _run_simplex(tableau, basis, eligible) == "unbounded":
                settled = "cold"
            # An artificial can stay basic on a redundant row; away from zero
            # it means the rows are now inconsistent, which phase 1 decides.
            elif not any(
                not eligible[j] and abs(values[i]) > TOL for i, j in enumerate(basis)
            ):
                status = "optimal"
        if status == "cold":
            results.append(_result(*_two_phase(c, a_ub, b_ub, a_eq, b_eq), c))
        elif status == "optimal":
            results.append(_solution(tableau, basis, c))
        else:
            results.append(LpResult(status, None, None))
    return results, best
