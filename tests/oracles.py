"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the implementation paths it checks:
stationary distributions come from power iteration, mixing times from
repeated dense powering, the capacity optimum from grid search over
state-conditional action distributions, and controller decisions from an
explicit exhaustive loop.  The closed-loop reference replays one run slot by
slot through ``network_step``, the library's one-slot transition, on a path
drawn by ``sample_path_by_chase``, the per-replication index chase that
``processes.sample_paths`` must match bit for bit; so the batched kernel and
the lockstep sampler are both checked against the plain recursion.  The simplex's
pivot, entering and leaving rules are kept here as row-by-row loops, the
reference its array versions must match bit for bit.  The row-at-a-time
CSV writer (``csv`` module, ``cli._fmt`` per value) is the byte reference
for ``cli.write_csv``'s column-wise formatting.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

from qnetlab.cli import _fmt
from qnetlab.controller import DppRunResult, compile_tables, dpp_select_action
from qnetlab.network import Scenario, evaluate_action, network_step
from qnetlab.processes import ArrivalSpec, FiniteMarkovChain, make_rng
from qnetlab.queues import CompositeState
from qnetlab.simplex import TOL

GRID_GUARD = 20_000_000


def stationary_by_power(transition: np.ndarray, iters: int = 20_000) -> np.ndarray:
    v = np.full(transition.shape[0], 1.0 / transition.shape[0])
    for _ in range(iters):
        nxt = v @ transition
        if np.max(np.abs(nxt - v)) < 1e-14:
            return nxt
        v = nxt
    return v


def mixing_time_by_powering(
    transition: np.ndarray, delta: float, cap: int = 100_000
) -> int:
    pi = stationary_by_power(transition)
    for t in range(1, cap + 1):
        power = np.linalg.matrix_power(transition, t)
        max_tv = 0.5 * np.max(np.abs(power - pi[None, :]).sum(axis=1))
        if max_tv <= delta:
            return t
    raise AssertionError("oracle: chain did not mix within cap")


def _simplex_grid(n_actions: int, step: float) -> np.ndarray:
    """All distributions over n_actions with coordinates on a step grid."""
    if n_actions == 1:
        return np.array([[1.0]])
    ticks = np.round(np.arange(0.0, 1.0 + step / 2, step), 12)
    if n_actions == 2:
        return np.column_stack([1.0 - ticks, ticks])
    rows = []
    for combo in itertools.product(ticks, repeat=n_actions - 1):
        rest = 1.0 - sum(combo)
        if rest >= -1e-12:
            rows.append(list(combo) + [max(rest, 0.0)])
    return np.asarray(rows)


def grid_fopt(
    scenario: Scenario,
    lambdas: np.ndarray | None = None,
    step: float = 1e-3,
    feas_slack: float = 1e-9,
) -> float:
    """Grid search over state-only policies; returns the best feasible cost.

    Raises if no grid point is feasible.
    """
    pi = stationary_by_power(scenario.omega_chain.transition)
    lams = scenario.lambdas if lambdas is None else np.asarray(lambdas, dtype=float)
    n_states = scenario.omega_chain.n_states

    per_state_x = []  # candidate-indexed expected x contribution
    per_state_net = []  # candidate-indexed expected (y - b) contribution
    n_candidates = []
    for w in range(n_states):
        acts = scenario.actions[w]
        rows = [evaluate_action(scenario, w, i) for i in range(len(acts))]
        x_tab = np.array([r[2] for r in rows]).reshape(len(acts), -1)
        net_tab = np.array([r[0] - r[1] for r in rows])
        grid = _simplex_grid(len(acts), step)
        per_state_x.append(pi[w] * grid @ x_tab)
        per_state_net.append(pi[w] * grid @ net_tab)
        n_candidates.append(grid.shape[0])

    total = math.prod(n_candidates)
    if total > GRID_GUARD:
        raise AssertionError(f"oracle grid too large: {total} combinations")

    mesh = np.meshgrid(*[np.arange(n) for n in n_candidates], indexing="ij")
    idx = [m.reshape(-1) for m in mesh]
    x_bar = np.zeros((total, scenario.n_attributes))
    net_bar = np.zeros((total, scenario.n_queues))
    for w in range(n_states):
        x_bar += per_state_x[w][idx[w]]
        net_bar += per_state_net[w][idx[w]]

    feasible = np.ones(total, dtype=bool)
    for g in scenario.constraints:
        feasible &= (g.c0 + x_bar @ g.coeffs) <= feas_slack
    for k in range(scenario.n_queues):
        feasible &= (lams[k] + net_bar[:, k]) <= feas_slack
    if not np.any(feasible):
        raise AssertionError("oracle: no feasible grid point")
    costs = scenario.cost.c0 + x_bar @ scenario.cost.coeffs
    return float(np.min(costs[feasible]))


def exhaustive_dpp_argmin(
    scenario: Scenario,
    omega: int,
    q: np.ndarray,
    z: np.ndarray,
    v_weight: float,
) -> int:
    """Lowest-index exact minimizer of the penalty-plus-differential score."""
    best_index = 0
    best_score = math.inf
    for i in range(len(scenario.actions[omega])):
        y, b, _, f_value, g_values = evaluate_action(scenario, omega, i)
        score = v_weight * f_value
        for l in range(len(z)):
            score += z[l] * g_values[l]
        for k in range(len(q)):
            score += q[k] * (y[k] - b[k])
        if score < best_score:
            best_score = score
            best_index = i
    return best_index


def sample_path_by_chase(
    chain: FiniteMarkovChain,
    arrival_specs: list[ArrivalSpec],
    seed: int,
    horizon: int,
    replication: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """One replication's state path and arrival indices, one slot at a time.

    The same draws as ``sample_path``: ``horizon`` uniforms, then each
    queue's arrivals.  One ``searchsorted`` per state gives every slot's
    successor of every state, and a Python loop chases them.
    """
    rng = make_rng(seed, replication)
    u = rng.random(horizon)
    top = chain.n_states - 1
    cdf = np.cumsum(chain.transition, axis=1)
    succ = np.empty((horizon, chain.n_states), dtype=np.min_scalar_type(top))
    for s, row in enumerate(cdf):
        succ[:, s] = np.minimum(np.searchsorted(row, u, side="right"), top)
    state = min(int(np.searchsorted(np.cumsum(chain.initial), u[0], side="right")), top)
    path = np.empty(horizon, dtype=succ.dtype)
    path[0] = state
    for t in range(1, horizon):
        state = int(succ[t, state])
        path[t] = state
    index = [spec.sample_index(rng, horizon) for spec in arrival_specs]
    dtype = np.result_type(np.uint8, *index)
    return path, np.array(index, dtype=dtype).reshape(len(index), horizon)


def replay_with_network_step(
    scenario: Scenario,
    v_weight: float,
    seed: int,
    horizon: int,
    replication: int = 0,
    mode: str = "respect",
) -> DppRunResult:
    """Closed-loop reference: one ``dpp_select_action`` and one
    ``network_step`` per slot, on the replication's sampled path."""
    k, n_l, m = scenario.n_queues, scenario.n_constraints, scenario.n_attributes
    omega_path, arrival_index = sample_path_by_chase(
        scenario.omega_chain, scenario.arrivals, seed, horizon, replication
    )
    arrivals = np.array(
        [spec.table[idx] for spec, idx in zip(scenario.arrivals, arrival_index)]
    ).reshape(k, horizon)
    tables = compile_tables(scenario)
    state = CompositeState.zeros(k, n_l)
    q_path = np.zeros((horizon + 1, k))
    z_path = np.zeros((horizon + 1, n_l))
    action_path = np.zeros(horizon, dtype=np.int64)
    x_path = np.zeros((horizon, m))
    f_path = np.zeros(horizon)
    g_path = np.zeros((horizon, n_l))
    for t in range(horizon):
        w = int(omega_path[t])
        a_idx = dpp_select_action(scenario, w, state, v_weight, tables)
        state, record = network_step(
            scenario, state, w, a_idx, arrivals[:, t], mode=mode
        )
        action_path[t] = a_idx
        x_path[t] = record.x
        f_path[t] = record.f_value
        g_path[t] = record.g_values
        q_path[t + 1] = state.queues
        z_path[t + 1] = state.virtuals
    return DppRunResult(
        horizon=horizon,
        q_path=q_path,
        z_path=z_path,
        omega_path=omega_path,
        action_path=action_path,
        x_path=x_path,
        f_path=f_path,
        g_path=g_path,
        arrivals=arrivals,
    )


def write_csv_by_rows(path, header, rows) -> None:
    """CSV through the ``csv`` module, one row and one ``_fmt`` per value at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def trace_rows(run: DppRunResult, limit: int):
    """The ``trace.csv`` rows of the first ``limit`` slots, one slot at a time."""
    for t in range(min(run.horizon, limit)):
        row: list[object] = [t]
        row += [float(v) for v in run.q_path[t]]
        row += [float(v) for v in run.z_path[t]]
        row += [int(run.omega_path[t]), int(run.action_path[t])]
        row += [float(v) for v in run.x_path[t]]
        row += [float(run.f_path[t])]
        row += [float(v) for v in run.g_path[t]]
        yield row


def pivot_by_rows(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]


def bland_entering_by_scan(costs: np.ndarray, eligible: np.ndarray) -> int | None:
    for j in np.flatnonzero(eligible):
        if costs[j] < -TOL:
            return int(j)
    return None


def bland_leaving_by_scan(tableau: np.ndarray, col: int, basis: list[int]) -> int | None:
    m = tableau.shape[0] - 1
    best_row = None
    best_ratio = np.inf
    for i in range(m):
        a = tableau[i, col]
        if a > TOL:
            ratio = tableau[i, -1] / a
            if ratio < best_ratio - TOL or (
                abs(ratio - best_ratio) <= TOL
                and (best_row is None or basis[i] < basis[best_row])
            ):
                best_ratio = ratio
                best_row = i
    return best_row
