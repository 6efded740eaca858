"""Dense two-phase primal simplex with Bland's rule, and a dual-simplex warm
start for sequences of right-hand sides.

Solves     minimize    c . x
           subject to  A_ub x <= b_ub
                       A_eq x == b_eq
                       x >= 0

Desk-scale problems only: the tableau is dense and every pivot is O(m n).
Bland's rule (always pick the lowest-index eligible entering and leaving
variable) prevents cycling on degenerate vertices at the cost of many pivots,
so each pivot is one array update.  ``solve_lp_sequence`` solves one LP per
right-hand side for fixed ``c``, ``A_ub`` and ``A_eq``: the reduced costs do
not depend on the right-hand side, so the last optimal tableau stays dual
feasible and a dual simplex re-optimises it in a few pivots where a cold
solve takes hundreds.  Feasibility and optimality are decided at an absolute
tolerance of 1e-9; phase 1 calls an LP infeasible when its artificials sum
to more than 1e-7.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

__all__ = ["LpResult", "solve_lp", "solve_lp_sequence", "SimplexError"]

TOL = 1e-9
PHASE1_TOL = 1e-7  # largest sum of artificials that still counts as feasible


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


def _bland_entering(costs: np.ndarray, eligible: np.ndarray) -> int | None:
    hits = (eligible & (costs < -TOL)).nonzero()[0]
    return int(hits[0]) if hits.size else None


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


class _Optimum(NamedTuple):
    """An optimal phase-2 tableau and what a warm start needs to reuse it.

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


def _lp_matrices(c, a_ub, a_eq):
    """The fixed data of an LP sequence as float arrays, checked once."""
    c = np.asarray(c, dtype=float)
    n = c.size
    a_ub, a_eq = (np.zeros((0, n)) if a is None else np.asarray(a, dtype=float)
                  for a in (a_ub, a_eq))
    if not (a_ub.ndim == a_eq.ndim == 2 and a_ub.shape[1] == a_eq.shape[1] == n):
        raise ValueError("constraint matrix shapes do not match")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a_ub)) and np.all(np.isfinite(a_eq))):
        raise ValueError("LP data must be finite")
    return c, a_ub, a_eq


def _rhs_arrays(a_ub, a_eq, b_ub, b_eq):
    """One right-hand side as float arrays, checked against the checked
    ``a_ub`` and ``a_eq``."""
    b_ub, b_eq = (np.zeros(0) if b is None else np.asarray(b, dtype=float) for b in (b_ub, b_eq))
    if (b_ub.size, b_eq.size) != (a_ub.shape[0], a_eq.shape[0]):
        raise ValueError("constraint matrix shapes do not match")
    if not (np.all(np.isfinite(b_ub)) and np.all(np.isfinite(b_eq))):
        raise ValueError("LP data must be finite")
    return b_ub, b_eq


def _solution(tableau: np.ndarray, basis: list[int], c: np.ndarray) -> LpResult:
    x = np.zeros(c.size)
    for i in range(len(basis)):
        if basis[i] < c.size:
            x[basis[i]] = tableau[i, -1]
    np.clip(x, 0.0, None, out=x)
    return LpResult(status="optimal", x=x, objective=float(np.dot(c, x)))


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
        return "unbounded", None
    return "optimal", _Optimum(tableau, basis, signs, identity, eligible)


def solve_lp(
    c: np.ndarray,
    a_ub: np.ndarray | None = None,
    b_ub: np.ndarray | None = None,
    a_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
) -> LpResult:
    """Two-phase simplex over non-negative variables: the sequence of one
    right-hand side."""
    return solve_lp_sequence(c, a_ub, a_eq, [(b_ub, b_eq)])[0]


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


def _warm_solve(
    best: _Optimum, b_ub: np.ndarray, b_eq: np.ndarray
) -> tuple[str, _Optimum | None]:
    """Re-optimise a copy of ``best`` for a new right-hand side.

    Returns ("optimal", optimum), ("infeasible", None), or ("cold", None)
    where only a cold solve can tell.
    """
    tableau = best.tableau.copy()
    basis = list(best.basis)
    m = len(basis)
    inverse = tableau[:m, best.identity]
    signed = best.signs * np.concatenate([b_ub, b_eq])
    # B^-1 b' as elementwise products added in a fixed order, so the bits do
    # not depend on the CPU kernel the way a BLAS matrix-vector product does.
    values = np.zeros(m)
    for i in signed.nonzero()[0]:
        values += inverse[:, i] * signed[i]
    tableau[:m, -1] = values
    row = _run_dual_simplex(tableau, basis, best.eligible)
    if row is not None:
        # Minus this row of B^-1, divided by its largest entry (at least 1),
        # is a dual point of every phase-1 LP of this right-hand side, so
        # their optimum is at least the violation below.  Phase 1 rounds the
        # same violation differently (downlink2 at scale 1.5 + 1e-6/3: 1e-7
        # plus 1.1e-16 here, at most 1e-7 there), so only a violation above
        # twice its threshold is decided here; a smaller one is solved cold.
        scale = max(1.0, float(np.abs(tableau[row, best.identity]).max()))
        if -tableau[row, -1] / scale > 2.0 * PHASE1_TOL:
            return "infeasible", None
        return "cold", None
    # Ties within TOL in the ratio test can leave a reduced cost just below
    # -TOL; primal pivots restore the cold solve's optimality test.
    if _run_simplex(tableau, basis, best.eligible) == "unbounded":
        return "cold", None
    # An artificial can stay basic on a redundant row; away from zero it
    # means the rows are now inconsistent, which phase 1 decides.
    if any(
        not best.eligible[j] and abs(tableau[i, -1]) > TOL for i, j in enumerate(basis)
    ):
        return "cold", None
    return "optimal", _Optimum(tableau, basis, best.signs, best.identity, best.eligible)


def solve_lp_sequence(
    c: np.ndarray,
    a_ub: np.ndarray | None,
    a_eq: np.ndarray | None,
    rhs: Iterable[tuple[np.ndarray | None, np.ndarray | None]],
) -> list[LpResult]:
    """The LP of ``c``, ``a_ub`` and ``a_eq`` for each ``(b_ub, b_eq)`` in turn.

    The fixed data are converted and checked once, each right-hand side as
    it comes; mis-shaped or non-finite data raise ``ValueError``.
    Right-hand sides are solved cold (two-phase) until one is optimal; each
    later one starts from the last optimal tableau: its basic values become
    ``B^-1 b'`` under the row signs of that tableau's own normalisation, and
    dual-simplex pivots restore primal feasibility.  Where the warm path's
    evidence is marginal (an infeasibility certificate worth at most twice
    the phase-1 threshold, or a basic artificial away from zero), that point
    is solved cold, so its status is the cold solve's.  Neither such a point
    nor one found infeasible moves the warm start.
    Values can differ from the cold solve's in the last digits, and at a
    degenerate optimum ``x`` can be another optimal vertex.
    """
    c, a_ub, a_eq = _lp_matrices(c, a_ub, a_eq)
    results: list[LpResult] = []
    best: _Optimum | None = None
    for b_ub, b_eq in rhs:
        b_ub, b_eq = _rhs_arrays(a_ub, a_eq, b_ub, b_eq)
        status, opt = ("cold", None) if best is None else _warm_solve(best, b_ub, b_eq)
        if status == "cold":
            status, opt = _two_phase(c, a_ub, b_ub, a_eq, b_eq)
            if best is None:  # a fall-back's optimum is not a warm start
                best = opt
        elif opt is not None:
            best = opt
        results.append(LpResult(status, None, None) if opt is None
                       else _solution(opt.tableau, opt.basis, c))
    return results
