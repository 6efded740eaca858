"""Exact capacity-region oracle via a linear program over state-only policies.

A state-only (randomized) policy is a conditional distribution p[omega][action]
chosen independently of backlogs.  Under the stationary distribution pi of the
network-state chain, the long-run expected attributes are linear in p, so the
minimum achievable cost subject to the constraint functions and to queue
supportability (arrival rate plus expected transfers no larger than expected
service, per queue) is an LP:

    minimize    f(x_bar)
    subject to  g_l(x_bar) <= 0                       for each constraint l
                lambda_k + y_bar_k - b_bar_k <= 0     for each queue k
                p[omega][.] a probability vector      for each state

Membership of an arrival-rate vector in the capacity region is feasibility of
that system; the strict-feasibility margin (the largest d such that every
inequality can be pushed down to -d/2) is one extra LP variable.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .network import Scenario
from .processes import mixing_time
from .simplex import LpResult, SimplexError, solve_lp_sequence

if TYPE_CHECKING:  # pragma: no cover
    from .controller import DriftConstants

__all__ = [
    "CapacityReport",
    "PerformanceBounds",
    "PolicyLp",
    "build_lp",
    "solve_fopt",
    "performance_bounds",
]

FEAS_TOL = 1e-9


class CapacityReport(NamedTuple):
    feasible: bool
    f_opt: float
    d_max: float
    policy: tuple[np.ndarray, ...] | None  # per state, its action probabilities
    binding_constraints: tuple[str, ...]
    routing_outer_bound: bool  # LP ignores backlog coupling when routing exists


class PerformanceBounds(NamedTuple):
    c_0: float
    T_eps: int
    backlog_bound: float
    cost_bound: float


class PolicyLp(NamedTuple):
    """LP data over flattened policy variables for one arrival-rate vector.

    Only the queue rows' right-hand side depends on the rates, so ``at``
    moves the LP to another rate vector without rebuilding it.
    """

    scenario: Scenario
    lambdas: np.ndarray
    c: np.ndarray  # one variable per real action, in (omega, action) order
    c0: float
    a_ub: np.ndarray
    b_ub: np.ndarray
    row_names: list[str]
    a_eq: np.ndarray
    b_eq: np.ndarray

    def at(self, lambdas: Sequence[float]) -> "PolicyLp":
        """The same LP with the queue rows' right-hand side set to ``-lambdas``."""
        lams = np.asarray(lambdas, dtype=float)
        if lams.shape != (self.scenario.n_queues,):
            raise ValueError("lambda vector length must equal K")
        if np.any(lams < 0):
            raise ValueError("arrival rates must be non-negative")
        b_ub = self.b_ub.copy()
        b_ub[self.scenario.n_constraints :] = -lams
        return self._replace(lambdas=lams, b_ub=b_ub)

    def policy_from(self, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per state, its slice of ``x`` clipped at 0 and scaled to sum to 1,
        or the uniform row where nothing is left."""
        dists = []
        pos = 0
        for n_act in map(len, self.scenario.names):
            row = np.clip(x[pos : pos + n_act], 0.0, None)
            total = row.sum()
            dists.append(row / total if total > 0 else np.full(n_act, 1.0 / n_act))
            pos += n_act
        return tuple(dists)

    def sweep(
        self, scales: Sequence[float]
    ) -> tuple[CapacityReport, list[tuple[bool, float, float]]]:
        """The report at ``self.lambdas``, and ``(feasible, f_opt, d_max)`` at
        ``s * self.lambdas`` for each scale s, without the policy or the
        binding rows.

        The points share everything but the queue rows' right-hand side, so
        the cost LP is one warm-started sequence that opens with the cold
        solve at ``self.lambdas``, and the margin LP (one more variable d,
        every inequality pushed to <= -d/2) is another over the feasible
        points.  Feasibility is the cold solve's; a scale's ``f_opt`` and
        ``d_max`` can differ from it in the last digits.  Arithmetic past
        the float range raises ``FloatingPointError``.
        """
        with np.errstate(over="raise", invalid="raise"):
            points = [self, *(self.at(s * self.lambdas) for s in scales)]
            costs = solve_lp_sequence(
                self.c, self.a_ub, self.a_eq, [(p.b_ub, p.b_eq) for p in points]
            )
            feasible = [_cost_feasible(result) for result in costs]
            c = np.zeros(self.c.size + 1)
            c[-1] = -1.0  # maximize d
            margins = iter(
                solve_lp_sequence(
                    c,
                    np.hstack([self.a_ub, np.full((self.a_ub.shape[0], 1), 0.5)]),
                    np.hstack([self.a_eq, np.zeros((self.a_eq.shape[0], 1))]),
                    [(p.b_ub, p.b_eq) for p, ok in zip(points, feasible) if ok],
                )
            )
            rows = [
                (True, self.c0 + float(result.objective), _margin_value(next(margins)))
                if ok
                else (False, math.nan, 0.0)
                for result, ok in zip(costs, feasible)
            ]
            policy, binding = None, ()
            if feasible[0]:
                x = costs[0].x
                slack = self.b_ub - self.a_ub @ x
                policy = self.policy_from(x)
                binding = tuple(
                    name
                    for name, s, rhs in zip(self.row_names, slack, self.b_ub)
                    if s <= FEAS_TOL * (1.0 + abs(rhs))
                )
        report = CapacityReport(*rows[0], policy, binding, bool(self.scenario.routing))
        return report, rows[1:]

    def solve(self) -> CapacityReport:
        """Minimum-cost state-only policy, with feasibility and margin report."""
        return self.sweep(())[0]


def _cost_feasible(result: LpResult) -> bool:
    if result.status == "unbounded":
        raise SimplexError(
            "policy LP reported unbounded; finite action tables cannot produce "
            "an unbounded objective, so the scenario is malformed"
        )
    return result.status == "optimal"


def _margin_value(result: LpResult) -> float:
    if result.status == "infeasible":
        return 0.0
    if result.status == "unbounded":
        raise SimplexError("margin LP unbounded; scenario tables are malformed")
    return max(float(result.x[-1]), 0.0)


def build_lp(scenario: Scenario, lambdas: Sequence[float] | None = None) -> PolicyLp:
    """Assemble the state-only-policy LP of ``scenario`` from its arrays."""
    pi = scenario.stationary()

    # One variable per real action, in (omega, action) order.
    real = scenario.real
    w_of_var = np.nonzero(real)[0]
    n = w_of_var.size

    # Per-variable expected contributions, weighted by pi.  ``x_cols`` is
    # copied to C order: ``coeffs[r] @ x_cols`` on a transposed view would
    # take another BLAS kernel, which can round differently.
    pi_of_var = pi[w_of_var][:, None]
    x_cols = np.ascontiguousarray((pi_of_var * scenario.x[real]).T)
    net_cols = (pi_of_var * scenario.net[real]).T  # y_bar - b_bar coefficients

    n_g = scenario.n_constraints
    k = scenario.n_queues
    a_ub = np.zeros((n_g + k, n))
    b_ub = np.zeros(n_g + k)  # ``at`` sets the queue rows to -lambda
    for l in range(n_g):  # row 0 of c0 and coeffs is the cost
        a_ub[l] = scenario.coeffs[1 + l] @ x_cols
    b_ub[:n_g] = -scenario.c0[1:]
    a_ub[n_g:] = net_cols
    row_names = [f"g[{l}]" for l in range(n_g)] + [f"queue[{q}]" for q in range(k)]

    a_eq = np.zeros((scenario.omega_chain.n_states, n))
    a_eq[w_of_var, np.arange(n)] = 1.0
    b_eq = np.ones(scenario.omega_chain.n_states)

    lp = PolicyLp(
        scenario=scenario,
        lambdas=np.zeros(k),
        c=scenario.coeffs[0] @ x_cols,
        c0=float(scenario.c0[0]),
        a_ub=a_ub,
        b_ub=b_ub,
        row_names=row_names,
        a_eq=a_eq,
        b_eq=b_eq,
    )
    return lp.at(scenario.lambdas if lambdas is None else lambdas)


def solve_fopt(
    scenario: Scenario, lambdas: Sequence[float] | None = None
) -> CapacityReport:
    """Minimum-cost state-only policy, with feasibility and margin report."""
    return build_lp(scenario, lambdas).solve()


def performance_bounds(
    scenario: Scenario,
    v_param: float,
    epsilon: float,
    drift: "DriftConstants",
) -> PerformanceBounds:
    """Closed-form backlog and cost bounds for the penalty-weighted controller.

    The backlog bound is ``(T B + (T-1) D + V (f_max - f_min)) / (d_max/4)``
    and the cost bound is ``f_opt + c_0 epsilon + (B T_eps + D (T_eps-1))/V``
    with ``c_0 = 4 f_max / d_max + 1``; the approximation slack C of the
    general bounds is 0 because the controller's argmin is exact.
    ``epsilon`` must lie in ``(0, d_max/4]``; ``T_eps`` is the chain's
    mixing time at that gap, which is ``drift.T`` when ``epsilon`` equals
    ``drift.delta``.  Every other constant comes from ``drift``, so a V-sweep
    solves no LP here.
    """
    if drift.d_max <= 0:
        raise ValueError("bounds require a strictly interior rate vector (d_max > 0)")
    if not (0.0 < epsilon <= drift.d_max / 4.0 + 1e-15):
        raise ValueError(f"epsilon must lie in (0, d_max/4] = (0, {drift.d_max / 4}]")
    c_0 = 4.0 * drift.f_max / drift.d_max + 1.0
    if epsilon == drift.delta:
        t_eps = drift.T
    else:
        t_eps = mixing_time(scenario.omega_chain, epsilon)
    backlog_bound = (
        drift.T * drift.B + (drift.T - 1) * drift.D + v_param * (drift.f_max - drift.f_min)
    ) / (drift.d_max / 4.0)
    if v_param > 0:
        overshoot = (drift.B * t_eps + drift.D * (t_eps - 1)) / v_param
    else:
        overshoot = math.inf
    cost_bound = drift.f_opt + c_0 * epsilon + overshoot
    return PerformanceBounds(
        c_0=c_0, T_eps=t_eps, backlog_bound=backlog_bound, cost_bound=cost_bound
    )
