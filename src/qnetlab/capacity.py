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
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .network import Scenario, evaluate_action, validate
from .processes import mixing_time
from .simplex import SimplexError, solve_lp

if TYPE_CHECKING:  # pragma: no cover
    from .controller import DriftConstants

__all__ = [
    "OmegaOnlyPolicy",
    "CapacityReport",
    "PerformanceBounds",
    "PolicyLp",
    "build_lp",
    "solve_fopt",
    "slater_dmax",
    "lambda_in_capacity",
    "performance_bounds",
]

FEAS_TOL = 1e-9


@dataclass(frozen=True)
class OmegaOnlyPolicy:
    """Conditional action distributions, one probability vector per state."""

    distributions: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        for w, dist in enumerate(self.distributions):
            if np.any(dist < -FEAS_TOL) or abs(dist.sum() - 1.0) > 1e-6:
                raise ValueError(f"policy row {w} is not a probability vector")


@dataclass(frozen=True)
class CapacityReport:
    feasible: bool
    f_opt: float
    d_max: float
    policy: OmegaOnlyPolicy | None
    binding_constraints: tuple[str, ...]
    routing_outer_bound: bool  # LP ignores backlog coupling when routing exists


@dataclass(frozen=True)
class PerformanceBounds:
    c_0: float
    T_eps: int
    backlog_bound: float
    cost_bound: float


@dataclass
class PolicyLp:
    """LP data over flattened policy variables for one arrival-rate vector.

    Only the queue rows' right-hand side depends on the rates, so ``at``
    moves the LP to another rate vector without rebuilding it.
    """

    scenario: Scenario
    lambdas: np.ndarray
    pi: np.ndarray
    var_index: list[tuple[int, int]]  # flat index -> (omega, action)
    c: np.ndarray
    c0: float
    a_ub: np.ndarray
    b_ub: np.ndarray
    row_names: list[str]
    a_eq: np.ndarray
    b_eq: np.ndarray

    @property
    def n_vars(self) -> int:
        return len(self.var_index)

    def at(self, lambdas: Sequence[float]) -> "PolicyLp":
        """The same LP with the queue rows' right-hand side set to ``-lambdas``."""
        lams = np.asarray(lambdas, dtype=float)
        if lams.shape != (self.scenario.n_queues,):
            raise ValueError("lambda vector length must equal K")
        if np.any(lams < 0):
            raise ValueError("arrival rates must be non-negative")
        b_ub = self.b_ub.copy()
        b_ub[self.scenario.n_constraints :] = -lams
        return replace(self, lambdas=lams, b_ub=b_ub)

    def policy_from(self, x: np.ndarray) -> OmegaOnlyPolicy:
        dists = []
        pos = 0
        for acts in self.scenario.actions:
            row = np.clip(x[pos : pos + len(acts)], 0.0, None)
            total = row.sum()
            dists.append(row / total if total > 0 else np.full(len(acts), 1.0 / len(acts)))
            pos += len(acts)
        return OmegaOnlyPolicy(distributions=tuple(dists))

    def margin(self) -> float:
        """Largest margin d with every inequality pushed to <= -d/2 (0 at or
        outside the boundary)."""
        c = np.zeros(self.n_vars + 1)
        c[-1] = -1.0  # maximize d
        a_ub = np.hstack([self.a_ub, np.full((self.a_ub.shape[0], 1), 0.5)])
        a_eq = np.hstack([self.a_eq, np.zeros((self.a_eq.shape[0], 1))])
        result = solve_lp(c, a_ub, self.b_ub, a_eq, self.b_eq)
        if result.status == "infeasible":
            return 0.0
        if result.status == "unbounded":
            raise SimplexError("margin LP unbounded; scenario tables are malformed")
        return max(float(result.x[-1]), 0.0)

    def solve(self) -> CapacityReport:
        """Minimum-cost state-only policy, with feasibility and margin report."""
        result = solve_lp(self.c, self.a_ub, self.b_ub, self.a_eq, self.b_eq)
        if result.status == "unbounded":
            raise SimplexError(
                "policy LP reported unbounded; finite action tables cannot produce "
                "an unbounded objective, so the scenario is malformed"
            )
        routing_flag = bool(self.scenario.routing)
        if result.status == "infeasible":
            return CapacityReport(
                feasible=False,
                f_opt=math.nan,
                d_max=0.0,
                policy=None,
                binding_constraints=(),
                routing_outer_bound=routing_flag,
            )
        x = result.x
        slack = self.b_ub - self.a_ub @ x
        binding = tuple(
            name
            for name, s, rhs in zip(self.row_names, slack, self.b_ub)
            if s <= FEAS_TOL * (1.0 + abs(rhs))
        )
        return CapacityReport(
            feasible=True,
            f_opt=self.c0 + float(result.objective),
            d_max=self.margin(),
            policy=self.policy_from(x),
            binding_constraints=binding,
            routing_outer_bound=routing_flag,
        )


def build_lp(scenario: Scenario, lambdas: Sequence[float] | None = None) -> PolicyLp:
    """Assemble the state-only-policy LP for a validated scenario."""
    validate(scenario)
    pi = scenario.stationary()

    var_index: list[tuple[int, int]] = []
    for w, acts in enumerate(scenario.actions):
        var_index.extend((w, i) for i in range(len(acts)))
    n = len(var_index)

    # Per-variable expected contributions, weighted by pi.
    x_cols = np.zeros((scenario.n_attributes, n))
    net_cols = np.zeros((scenario.n_queues, n))  # y_bar - b_bar coefficients
    for j, (w, i) in enumerate(var_index):
        y, b, x, _, _ = evaluate_action(scenario, w, i)
        x_cols[:, j] = pi[w] * x
        net_cols[:, j] = pi[w] * (y - b)

    n_g = scenario.n_constraints
    k = scenario.n_queues
    a_ub = np.zeros((n_g + k, n))
    b_ub = np.zeros(n_g + k)  # ``at`` sets the queue rows to -lambda
    row_names: list[str] = []
    for l, g in enumerate(scenario.constraints):
        a_ub[l] = g.coeffs @ x_cols
        b_ub[l] = -g.c0
        row_names.append(f"g[{l}]")
    for q in range(k):
        a_ub[n_g + q] = net_cols[q]
        row_names.append(f"queue[{q}]")

    a_eq = np.zeros((scenario.omega_chain.n_states, n))
    for j, (w, _) in enumerate(var_index):
        a_eq[w, j] = 1.0
    b_eq = np.ones(scenario.omega_chain.n_states)

    lp = PolicyLp(
        scenario=scenario,
        lambdas=np.zeros(k),
        pi=pi,
        var_index=var_index,
        c=scenario.cost.coeffs @ x_cols,
        c0=scenario.cost.c0,
        a_ub=a_ub,
        b_ub=b_ub,
        row_names=row_names,
        a_eq=a_eq,
        b_eq=b_eq,
    )
    return lp.at(scenario.lambdas if lambdas is None else lambdas)


def slater_dmax(scenario: Scenario, lambdas: Sequence[float] | None = None) -> float:
    """Largest margin d with every inequality pushed to <= -d/2 (0 at/outside
    the boundary)."""
    return build_lp(scenario, lambdas).margin()


def lambda_in_capacity(scenario: Scenario, lambdas: Sequence[float]) -> bool:
    """Is the arrival-rate vector supportable (closed region, zero slack)?"""
    lp = build_lp(scenario, lambdas)
    result = solve_lp(np.zeros(lp.n_vars), lp.a_ub, lp.b_ub, lp.a_eq, lp.b_eq)
    return result.status == "optimal"


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
        t_eps = mixing_time(scenario.omega_chain, epsilon).T
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
