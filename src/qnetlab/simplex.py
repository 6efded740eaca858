"""Dense two-phase primal simplex with Bland's rule.

Solves     minimize    c . x
           subject to  A_ub x <= b_ub
                       A_eq x == b_eq
                       x >= 0

Desk-scale problems only: the tableau is dense and every pivot is O(m n).
Bland's rule (always pick the lowest-index eligible entering and leaving
variable) prevents cycling on degenerate vertices at the cost of many pivots,
which set a capacity sweep's run time, so each pivot is one array update.
Feasibility and optimality are decided at an absolute tolerance of 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpResult", "solve_lp", "SimplexError"]

TOL = 1e-9


class SimplexError(RuntimeError):
    """Numerical failure inside the solver (not infeasibility/unboundedness)."""


@dataclass(frozen=True)
class LpResult:
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


def _bland_entering(costs: np.ndarray, eligible: np.ndarray) -> int | None:
    hits = (eligible & (costs < -TOL)).nonzero()[0]
    return int(hits[0]) if hits.size else None


def _bland_leaving(tableau: np.ndarray, col: int, basis: list[int]) -> int | None:
    column = tableau[:-1, col]
    rows = (column > TOL).nonzero()[0]
    best_row = None
    best_ratio = np.inf
    # The tie tolerance makes the choice depend on visiting order: keep it.
    for i, ratio in zip(rows.tolist(), (tableau[rows, -1] / column[rows]).tolist()):
        if ratio < best_ratio - TOL or (
            abs(ratio - best_ratio) <= TOL
            and (best_row is None or basis[i] < basis[best_row])
        ):
            best_ratio = ratio
            best_row = i
    return best_row


def _run_simplex(tableau: np.ndarray, basis: list[int], eligible: np.ndarray) -> str:
    """Iterate pivots until optimal or unbounded; mutates tableau and basis."""
    max_iters = 50_000 + 100 * tableau.size
    for _ in range(max_iters):
        col = _bland_entering(tableau[-1, :-1], eligible)
        if col is None:
            return "optimal"
        row = _bland_leaving(tableau, col, basis)
        if row is None:
            return "unbounded"
        _pivot(tableau, row, col)
        basis[row] = col
    raise SimplexError("pivot limit exceeded; tableau did not converge")


def solve_lp(
    c: np.ndarray,
    a_ub: np.ndarray | None = None,
    b_ub: np.ndarray | None = None,
    a_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
) -> LpResult:
    """Two-phase simplex over non-negative variables."""
    c = np.asarray(c, dtype=float)
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    if a_ub.shape != (b_ub.size, n) or a_eq.shape != (b_eq.size, n):
        raise ValueError("constraint matrix shapes do not match")
    if not (
        np.all(np.isfinite(c))
        and np.all(np.isfinite(a_ub))
        and np.all(np.isfinite(b_ub))
        and np.all(np.isfinite(a_eq))
        and np.all(np.isfinite(b_eq))
    ):
        raise ValueError("LP data must be finite")

    m_ub, m_eq = b_ub.size, b_eq.size
    m = m_ub + m_eq
    n_slack = m_ub
    # Columns: [structural | slack | artificial | rhs]
    rows = np.hstack([np.vstack([a_ub, a_eq]), np.zeros((m, n_slack))])
    rows[:m_ub, n : n + n_slack] = np.eye(m_ub)
    rhs = np.concatenate([b_ub, b_eq])

    # Normalize to rhs >= 0 (flips slack signs on negated rows).
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = -rows[i]
            rhs[i] = -rhs[i]

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

    # Phase 1: minimize the sum of artificials.
    tableau = np.vstack([full, np.zeros(n_total + 1)])
    for j, i in enumerate(needs_artificial):
        tableau[-1] -= tableau[i]
    tableau[-1, n + n_slack : n_total] = 0.0
    eligible = np.ones(n_total, dtype=bool)
    status = _run_simplex(tableau, basis, eligible)
    if status == "unbounded":
        raise SimplexError("phase-1 objective cannot be unbounded")
    if -tableau[-1, -1] > 1e-7:
        return LpResult(status="infeasible", x=None, objective=None)

    # Drive any residual artificial out of the basis (degenerate pivots).
    for i in range(m):
        if basis[i] >= n + n_slack:
            pivot_col = None
            for j in range(n + n_slack):
                if abs(tableau[i, j]) > TOL:
                    pivot_col = j
                    break
            if pivot_col is not None:
                _pivot(tableau, i, pivot_col)
                basis[i] = pivot_col
            # else: redundant row; the artificial stays basic at value ~0.

    # Phase 2: original objective, artificial columns frozen out.
    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    for i in range(m):
        if basis[i] < n and abs(c[basis[i]]) > 0.0:
            tableau[-1] -= c[basis[i]] * tableau[i]
    eligible = np.zeros(n_total, dtype=bool)
    eligible[: n + n_slack] = True
    status = _run_simplex(tableau, basis, eligible)
    if status == "unbounded":
        return LpResult(status="unbounded", x=None, objective=None)

    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i, -1]
    np.clip(x, 0.0, None, out=x)
    return LpResult(status="optimal", x=x, objective=float(np.dot(c, x)))
