"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the implementation paths it checks:
stationary distributions come from power iteration, mixing times from
repeated dense powering, the capacity optimum from grid search over
state-conditional action distributions, and controller decisions from an
explicit exhaustive loop.  ``scenario_args`` and ``build_scenario`` make a
``Scenario`` from per-action ``(name, y, b, x)`` records and ``(c0,
coeffs)`` pairs, for the tests' hand-made and fuzzed scenarios.
``evaluate_action`` evaluates one (omega, action) pair straight from the
scenario's input arrays, in Python floats; it is the reference for the
scenario's compiled arrays, and the per-action loops of ``validate``,
``build_lp`` and ``drift_constants`` that read those arrays with array ops
are kept here on top of it.  The closed-loop reference replays one run slot
by slot through ``network_step``, the one-slot transition, on a path drawn
by ``sample_path_by_chase``, the per-replication index chase that
``processes.sample_paths`` must match bit for bit (``stacked_sample_paths``
stacks the sampler's time blocks for that comparison); so the batched kernel
and the lockstep sampler are both checked against the plain recursion.
``single_queue_path`` builds one queue's backlog path by the reflection
identity, with no slot loop at all: the kernel's lanes on a single queue
with integer work must equal it bit for bit.  The simplex's pivot and
leaving rule are kept here as row-by-row loops, and a whole primal pass with
its Dantzig-then-Bland entering rule as scans (``run_simplex_by_scan``): the
reference its array versions must match bit for bit.  The row-at-a-time
CSV writer (``csv`` module, ``cli._fmt`` per value) is the byte reference
for ``cli.write_csv``'s column-wise formatting.  ``markov_bound_violations``
checks the Markov inequality that every stability verdict must satisfy.  The
``one_shot_*`` generators build the random counter-examples' whole backlog
matrices, which the library reduces to their column sums and per-replication
flags without building (mean-not-rate's by its slot-by-slot law; its
spike-to-spike draw is ``gap_mean_not_rate``, one uniform at a time), and
``strong_not_rate_path`` the deterministic one's whole path, which the
library keeps as its spike times.  ``queue_step``, ``virtual_queue_step``,
``conservation_check`` and ``lyapunov_value`` are the scalar recursions and
accounting that ``network_step`` and the sample-path checks build on.
``estimate_verdict``
is the verdict of a whole (replications x horizon) backlog array, the
reference for ``stability.VerdictReducer``, which sees the backlogs one time
block at a time; ``TotalsCollector`` is the kernel consumer that keeps that
array.
"""

from __future__ import annotations

import csv
import itertools
import math
from functools import partial
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from qnetlab import simplex
from qnetlab.cli import _fmt
from qnetlab.controller import DppRunResult
from qnetlab.network import MODES, Scenario, ScenarioError
from qnetlab.processes import ArrivalSpec, FiniteMarkovChain, make_rng, sample_paths
from qnetlab.simplex import TOL
from qnetlab.stability import (
    StabilityVerdict,
    _check_verdict_horizon,
    _verdict,
    cex_strong_not_rate,
)

GRID_GUARD = 20_000_000


# ---------------------------------------------------------------------------
# per-action references for the compiled tables and their readers
# ---------------------------------------------------------------------------


def scenario_args(
    actions: Sequence[Sequence[tuple]],
    cost: tuple[float, Sequence[float]],
    constraints: Sequence[tuple[float, Sequence[float]]] = (),
    *,
    chain: FiniteMarkovChain | None = None,
    arrivals: Sequence[ArrivalSpec] | None = None,
    routing: Sequence[tuple[int, int]] | None = None,
    name: str = "test",
) -> dict:
    """The ``Scenario`` constructor's arguments for per-action records.

    ``actions[w]`` lists state w's actions as ``(name, y, b, x)``; ``cost``
    and each constraint are ``(constant, coefficients)``.  The tables are
    padded with zeros to the longest list.  The chain defaults to one state
    and the arrivals to Bernoulli(0.1) per queue.
    """
    k, m = len(actions[0][0][1]), len(actions[0][0][3])
    n_a = max(map(len, actions))
    y, b, x = (np.zeros((len(actions), n_a, width)) for width in (k, k, m))
    for w, acts in enumerate(actions):
        for i, (_, *vecs) in enumerate(acts):
            y[w, i], b[w, i], x[w, i] = vecs
    functions = [cost, *constraints]
    return dict(
        name=name,
        omega_chain=chain or FiniteMarkovChain(np.array([[1.0]]), np.array([1.0])),
        names=tuple(tuple(act[0] for act in acts) for acts in actions),
        y=y,
        b=b,
        x=x,
        c0=np.array([c for c, _ in functions], dtype=float),
        coeffs=np.array([row for _, row in functions], dtype=float).reshape(len(functions), m),
        arrivals=list(arrivals or [ArrivalSpec(kind="bernoulli", rate=0.1, p=0.1)] * k),
        routing=None if routing is None else list(routing),
    )


def build_scenario(*args, **kwargs) -> Scenario:
    """``Scenario`` of ``scenario_args(*args, **kwargs)``."""
    return Scenario(**scenario_args(*args, **kwargs))


def affine_value(c0: float, coeffs: Sequence[float], x: Sequence[float]) -> float:
    """``c0 + (coeffs[0] x[0] + coeffs[1] x[1] + ...)`` in Python floats, the
    products added in that order; the empty sum is 0.0."""
    products = [float(c) * float(v) for c, v in zip(coeffs, x)]
    total = products[0] if products else 0.0
    for product in products[1:]:
        total += product
    return float(c0) + total


def evaluate_action(
    scenario: Scenario, omega: int, action_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, np.ndarray]:
    """Offered quantities and affine evaluations for one (omega, action),
    from the scenario's input arrays.

    The offered arrival vector folds in endogenous routing: queue ``k``
    receives its table ``y_k`` plus the offered service of every queue routed
    into it.  Row 0 of ``c0``/``coeffs`` is the cost, the rest the
    constraints.
    """
    y, b, x = (t[omega, action_index].copy() for t in (scenario.y, scenario.b, scenario.x))
    for src, dst in scenario.routing:
        y[dst] += b[src]
    values = [affine_value(c, row, x) for c, row in zip(scenario.c0, scenario.coeffs)]
    return y, b, x, values[0], np.asarray(values[1:], dtype=float)


def validate_by_actions(scenario) -> None:
    """``network.validate`` as one loop per group over the (omega, action)
    pairs: the table inputs from the input arrays, then the evaluated values
    from ``evaluate_action``.  ``scenario`` needs only what those read: a
    built ``Scenario`` or the constructor's arguments."""
    pairs = [(w, i) for w, acts in enumerate(scenario.names) for i in range(len(acts))]
    for w, i in pairs:
        for key in "ybx":
            if not np.all(np.isfinite(getattr(scenario, key)[w, i])):
                raise ScenarioError(f"actions[{w}][{i}].{key}", "table entries must be finite")
        if np.any(scenario.y[w, i] < 0) or np.any(scenario.b[w, i] < 0):
            raise ScenarioError(f"actions[{w}][{i}]", "offered y and b must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):
        for w, i in pairs:
            y, _, _, f_value, g_values = evaluate_action(scenario, w, i)
            for arr, what in ((y, "y"), (g_values, "g")):
                if not np.all(np.isfinite(arr)):
                    raise ScenarioError(
                        f"actions[{w}][{i}]", f"non-finite {what} table entry"
                    )
            if not math.isfinite(f_value):
                raise ScenarioError(f"actions[{w}][{i}]", "non-finite cost value")


def lp_by_actions(
    scenario: Scenario, lambdas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``c``, ``a_ub``, ``b_ub`` and ``a_eq`` of ``capacity.build_lp``, one
    column per (omega, action) from ``evaluate_action``."""
    pi = scenario.stationary()
    var_index = [(w, i) for w, acts in enumerate(scenario.names) for i in range(len(acts))]
    n, n_g, k = len(var_index), scenario.n_constraints, scenario.n_queues
    x_cols = np.zeros((scenario.n_attributes, n))
    net_cols = np.zeros((k, n))
    for j, (w, i) in enumerate(var_index):
        y, b, x, _, _ = evaluate_action(scenario, w, i)
        x_cols[:, j] = pi[w] * x
        net_cols[:, j] = pi[w] * (y - b)
    a_ub = np.zeros((n_g + k, n))
    b_ub = np.zeros(n_g + k)
    for l in range(n_g):
        a_ub[l] = scenario.coeffs[1 + l] @ x_cols
        b_ub[l] = -scenario.c0[1 + l]
    for q in range(k):
        a_ub[n_g + q] = net_cols[q]
        b_ub[n_g + q] = -lambdas[q]
    a_eq = np.zeros((scenario.omega_chain.n_states, n))
    for j, (w, _) in enumerate(var_index):
        a_eq[w, j] = 1.0
    return scenario.coeffs[0] @ x_cols, a_ub, b_ub, a_eq


def drift_by_actions(scenario: Scenario) -> tuple[float, float, float, float]:
    """``B``, ``D``, ``f_min`` and ``f_max`` of ``controller.drift_constants``,
    from one ``evaluate_action`` per (omega, action)."""
    pi = scenario.stationary()
    lams = scenario.lambdas
    a2 = np.array([spec.second_moment() for spec in scenario.arrivals])
    b_total = 0.0
    d_total = 0.0
    f_min = math.inf
    f_max = -math.inf
    for w in range(scenario.omega_chain.n_states):
        n_act = len(scenario.names[w])
        rows = [evaluate_action(scenario, w, i) for i in range(n_act)]
        for r in rows:
            f_min = min(f_min, r[3])
            f_max = max(f_max, r[3])
        y = np.array([r[0] for r in rows])  # (n_act, K)
        b = np.array([r[1] for r in rows])
        g = np.array([r[4] for r in rows]).reshape(n_act, -1)
        ay2 = a2[None, :] + 2.0 * lams[None, :] * y + y**2
        ayb2 = a2[None, :] + 2.0 * lams[None, :] * (y + b) + (y + b) ** 2
        b_total += pi[w] * (
            0.5 * np.max(b**2, axis=0).sum()
            + 0.5 * np.max(ay2, axis=0).sum()
            + np.max(g**2, axis=0).sum()
        )
        d_total += pi[w] * (
            np.max(ayb2, axis=0).sum() + np.max(g**2, axis=0).sum()
        )
    return float(b_total), float(d_total), f_min, f_max


# ---------------------------------------------------------------------------
# stability verdict invariant
# ---------------------------------------------------------------------------


def markov_bound_violations(verdict) -> int:
    """Count grid points violating g(M) <= strong_metric / M.

    The bound is the Markov inequality applied to the same empirical measure,
    so the count must be zero on any ensemble.
    """
    bound = verdict.strong_metric / verdict.m_grid
    return int(np.sum(verdict.g_curve > bound + 1e-15))


def estimate_verdict(backlog: np.ndarray) -> StabilityVerdict:
    """The four stability notions from backlog paths ``backlog[r, t]``, one
    row per replication, slots ``t = 0..horizon-1``: two passes over the
    whole array.  Slopes and means first (row sums in numpy's order), then
    the tail counts on the M-grid those means fix, one sort per row."""
    q = np.asarray(backlog, dtype=float)
    if q.ndim != 2:
        raise ValueError("backlog must be a (n_reps, horizon) matrix")
    if not np.min(q, initial=0.0) >= 0:  # NaN fails too
        raise ValueError("backlogs must be non-negative numbers")
    horizon = q.shape[1]
    _check_verdict_horizon(horizon)
    t_half = max((horizon - 1) // 2, 1)
    return _verdict(q[:, -1], q.sum(axis=1), q[:, : t_half + 1].sum(axis=1), horizon,
                    partial(_counts_at_most, q))


def _counts_at_most(q: np.ndarray, m_grid: np.ndarray) -> np.ndarray:
    """``(n_reps, m)`` counts of each row's values ``<= M``, one sort per row."""
    counts = np.empty((q.shape[0], m_grid.size), dtype=np.intp)
    for r, row in enumerate(q):
        counts[r] = np.searchsorted(np.sort(row), m_grid, side="right")
    return counts


class TotalsCollector:
    """A ``run_dpp_batch`` reducer that keeps every block of totals: the whole
    ``(n_lanes, horizon)`` array the streaming consumers never hold."""

    def __init__(self, n_lanes: int, horizon: int) -> None:
        self.totals, self.seen = np.empty((n_lanes, horizon)), 0

    def add(self, block: np.ndarray) -> None:
        self.totals[:, self.seen : self.seen + block.shape[1]] = block
        self.seen += block.shape[1]


def strong_not_rate_path(horizon: int) -> np.ndarray:
    """The whole path of ``stability.cex_strong_not_rate``: Q(t) = t at its
    spike times, else 0."""
    spikes = cex_strong_not_rate(horizon)
    path = np.zeros(horizon)
    path[spikes] = spikes
    return path


def one_shot_rate_not_mean(seed: int, horizon: int, n_reps: int) -> np.ndarray:
    """The doubling counter-example's whole (n_reps, horizon) backlog,
    Q(t) = 4^t while t < T, from the draws of ``stability.cex_rate_not_mean``."""
    rng = make_rng(seed, 0)
    t_stop = rng.geometric(0.5, size=n_reps)
    t_idx = np.arange(horizon)
    values = np.exp2(2.0 * t_idx)
    return np.where(t_idx[None, :] < t_stop[:, None], values[None, :], 0.0)


def one_shot_mean_not_rate(seed: int, horizon: int, n_reps: int) -> np.ndarray:
    """The spiking counter-example's whole (n_reps, horizon) backlog by its
    slot-by-slot law: one uniform per (replication, slot), slot ``t`` spiking
    below ``1/t``.  Same law as ``stability.cex_mean_not_rate``, other
    draws."""
    rng = make_rng(seed, 0)
    t_idx = np.arange(horizon, dtype=float)
    u = rng.random((n_reps, horizon))
    with np.errstate(divide="ignore"):
        prob = np.where(t_idx > 0, 1.0 / np.maximum(t_idx, 1.0), 0.0)
    backlog = np.where(u < prob[None, :], t_idx[None, :], 0.0)
    backlog[:, 0] = 0.0
    return backlog


def gap_mean_not_rate(seed: int, horizon: int, n_reps: int, chunk: int) -> np.ndarray:
    """The whole (n_reps, horizon) backlog of ``stability.cex_mean_not_rate``
    with ``chunk`` replications per chunk, one scalar uniform at a time.

    Within a chunk, each round visits the replications whose last spike lies
    below ``horizon`` in index order, and each draws one uniform to jump from
    its spike ``t`` to ``floor(t / (1 - u)) + 1``."""
    rng = make_rng(seed, 0)
    backlog = np.zeros((n_reps, horizon))
    for r0 in range(0, n_reps, chunk):
        last = {r: 1 for r in range(r0, min(n_reps, r0 + chunk))}  # every one spikes at 1
        while last:
            for r, t in list(last.items()):
                backlog[r, t] = t
                nxt = math.floor(t / (1.0 - rng.random())) + 1
                if nxt < horizon:
                    last[r] = nxt
                else:
                    del last[r]
    return backlog


# ---------------------------------------------------------------------------
# scalar queue and virtual-queue recursions
# ---------------------------------------------------------------------------
#
# The single-queue update is ``q' = max(q - b, 0) + a`` where ``a`` is the work
# arriving in the slot and ``b`` the service offered by the server.  The actual
# work removed is ``min(b, q)``, which is what sample-path conservation accounts
# against.  Virtual queues use ``z' = max(z + g, 0)`` with a signed per-slot
# value ``g``.  These are pure value-to-value maps, the scalar reference for
# the kernel's slot update and for ``network_step`` below.

# Accumulated floating-point slack allowed per slot in conservation checks,
# sized so a 1e4-slot trace stays within 1e-9 (values up to ~1e6).
CONSERVATION_TOL_PER_SLOT = 1e-13
CONSERVATION_TOL_FLOOR = 1e-12


class SlotIO(NamedTuple):
    """One slot of queue input/output accounting.

    ``actual_service`` is ``min(offered_service, backlog-at-slot-start)``;
    ``negative_part`` is ``-min(offered_service, 0)`` and is zero for ordinary
    (non-negative) servers.
    """

    arrival: float
    offered_service: float
    actual_service: float
    negative_part: float


class CompositeState:
    """Actual queue backlogs plus virtual-queue backlogs, as float vectors."""

    def __init__(self, queues: np.ndarray, virtuals: np.ndarray) -> None:
        self.queues = np.asarray(queues, dtype=float)
        self.virtuals = np.asarray(virtuals, dtype=float)
        if self.queues.ndim != 1 or self.virtuals.ndim != 1:
            raise ValueError("queues and virtuals must be 1-d vectors")
        if np.any(self.queues < 0) or np.any(self.virtuals < 0):
            raise ValueError("backlogs must be non-negative")

    @classmethod
    def zeros(cls, n_queues: int, n_virtuals: int) -> "CompositeState":
        return cls(np.zeros(n_queues), np.zeros(n_virtuals))

    def copy(self) -> "CompositeState":
        return CompositeState(self.queues.copy(), self.virtuals.copy())


def queue_step(q: float, a: float, b: float) -> tuple[float, SlotIO]:
    """Advance one queue by one slot: ``q' = max(q - b, 0) + a``.

    ``b`` may be negative (then it acts as an extra arrival inside the max);
    ``a`` must be non-negative.  Returns the next backlog and the slot's
    accounting record.
    """
    if not (math.isfinite(q) and math.isfinite(a) and math.isfinite(b)):
        raise ValueError("queue_step requires finite inputs")
    if q < 0:
        raise ValueError(f"backlog must be non-negative, got {q}")
    if a < 0:
        raise ValueError(f"arrival must be non-negative, got {a}")
    q, a, b = float(q), float(a), float(b)
    q_next = max(q - b, 0.0) + a
    io = SlotIO(
        arrival=a,
        offered_service=b,
        actual_service=min(b, q),
        negative_part=max(-b, 0.0),
    )
    return q_next, io


def virtual_queue_step(z: float, g_val: float) -> float:
    """Advance a virtual queue: ``z' = max(z + g, 0)``."""
    if not (math.isfinite(z) and math.isfinite(g_val)):
        raise ValueError("virtual_queue_step requires finite inputs")
    if z < 0:
        raise ValueError(f"virtual backlog must be non-negative, got {z}")
    return max(z + g_val, 0.0)


def conservation_check(
    trace: Sequence[SlotIO] | Iterable[SlotIO], q0: float, q_final: float
) -> tuple[bool, float]:
    """Check sample-path conservation over a trace of slot records.

    For a trace produced by repeated ``queue_step`` from ``q0``, the final
    backlog must equal ``q0 + sum(arrivals) - sum(actual service)``.  Returns
    ``(ok, residual)`` where ``residual`` is the signed discrepancy; ``ok``
    allows only floating-point accumulation error (1e-9 per 1e4 slots).
    """
    trace = list(trace)
    total_in = math.fsum(io.arrival for io in trace)
    total_out = math.fsum(io.actual_service for io in trace)
    residual = (q_final - q0) - (total_in - total_out)
    tol = max(CONSERVATION_TOL_FLOOR, CONSERVATION_TOL_PER_SLOT * len(trace))
    return abs(residual) <= tol, residual


def lyapunov_value(state: CompositeState) -> float:
    """Quadratic state norm: half the squared length of all backlogs."""
    return 0.5 * float(np.dot(state.queues, state.queues)) + 0.5 * float(
        np.dot(state.virtuals, state.virtuals)
    )


# ---------------------------------------------------------------------------
# the one-slot transition and the per-state argmin
# ---------------------------------------------------------------------------


class StepRecord(NamedTuple):
    omega_index: int
    action_index: int
    arrivals: np.ndarray
    y_offered: np.ndarray
    b_offered: np.ndarray
    y_actual: np.ndarray
    b_actual: np.ndarray
    x: np.ndarray
    f_value: float
    g_values: np.ndarray


def network_step(
    scenario: Scenario,
    state: CompositeState,
    omega: int,
    action_index: int,
    arrivals: np.ndarray,
    mode: str = "respect",
) -> tuple[CompositeState, StepRecord]:
    """Advance all queues and virtual queues by one slot.

    ``respect``: actual service is clamped to slot-start backlog,
    ``b_act = min(b, Q)``; routed transfers deliver the clamped amounts; the
    update is the equality form ``Q' = Q - b_act + y_act + a``.

    ``clamped``: the max[.,0] form ``Q' = max(Q - b, 0) + y + a`` with offered
    quantities (transfer feasibility ignored).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if not 0 <= action_index < len(scenario.names[omega]):
        raise IndexError(f"action {action_index} out of range for omega {omega}")
    arrivals = np.asarray(arrivals, dtype=float)
    if arrivals.shape != (scenario.n_queues,):
        raise ValueError("arrivals vector length must equal K")

    q = state.queues
    y_offered, b_offered, x, f_value, g_values = evaluate_action(
        scenario, omega, action_index
    )

    if mode == "respect":
        b_actual = np.minimum(b_offered, q)
        y_actual = scenario.y[omega, action_index].copy()
        for src, dst in scenario.routing:
            y_actual[dst] += b_actual[src]
        q_next = (q - b_actual) + y_actual + arrivals
    else:
        b_actual = np.minimum(b_offered, q)
        y_actual = y_offered.copy()
        q_next = np.maximum(q - b_offered, 0.0) + y_actual + arrivals

    z_next = np.array(
        [virtual_queue_step(z, g) for z, g in zip(state.virtuals, g_values)]
    )
    record = StepRecord(
        omega_index=omega,
        action_index=action_index,
        arrivals=arrivals.copy(),
        y_offered=y_offered,
        b_offered=b_offered,
        y_actual=y_actual,
        b_actual=b_actual,
        x=x,
        f_value=f_value,
        g_values=g_values,
    )
    return CompositeState(q_next, z_next), record


def dpp_select_action(
    scenario: Scenario,
    omega: int,
    state: CompositeState,
    v_weight: float,
) -> int:
    """Exact argmin of the score over the state's action list:
    ``(V f + pad) + sum_t [g | net][:, t] * [Z; Q][t]``, the products added
    one term at a time in the order ``t = 0..L+K-1`` (the kernel's order;
    the kernel adds ``V f + pad`` last, which gives the same bits, as IEEE
    addition commutes).

    ``np.argmin`` returns the first minimizer, which is the lowest-index tie
    rule, so runs are reproducible.
    """
    columns = np.concatenate([scenario.g[omega], scenario.net[omega]], axis=1)
    state_vec = np.concatenate([state.virtuals, state.queues])
    products = columns * state_vec
    total = products[:, 0]
    for t in range(1, state_vec.size):
        total = total + products[:, t]
    scores = (v_weight * scenario.f[omega] + scenario.pad[omega]) + total
    return int(np.argmin(scores))


def single_queue_path(
    arrivals: np.ndarray, services: np.ndarray, q0: float = 0.0
) -> np.ndarray:
    """Backlog path of ``q' = max(q - b, 0) + a`` for t = 0..len(arrivals).

    Vectorized via the reflection identity
    ``Q(t) = max(Q(0) + S(t), S(t) + max_{s<t}[a(s) - S(s+1)])`` with
    ``S(t) = sum_{tau<t} (a - b)``; equals the slot recursion exactly for
    integer-valued work and to rounding error otherwise.
    """
    a = np.asarray(arrivals, dtype=float)
    b = np.asarray(services, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("arrivals and services must be 1-d arrays of equal length")
    s = np.cumsum(a - b)  # S(1..n)
    peak = np.maximum.accumulate(a - s) + s
    return np.concatenate([[q0], np.maximum(s + q0, peak)])


def stationary_by_power(transition: np.ndarray, iters: int = 20_000) -> np.ndarray:
    v = np.full(transition.shape[0], 1.0 / transition.shape[0])
    for _ in range(iters):
        nxt = v @ transition
        if np.max(np.abs(nxt - v)) < 1e-14:
            return nxt
        v = nxt
    return v


def irreducibility_error_by_search(chain: FiniteMarkovChain) -> str | None:
    """The reducible-chain message from one depth-first search per start
    state, in index order: the first start that misses a state names the
    missed labels, sorted by ``str``.  ``None`` for an irreducible chain."""
    support = chain.transition > 0
    for start in range(chain.n_states):
        seen, frontier = {start}, [start]
        while frontier:
            for j in np.flatnonzero(support[frontier.pop()]):
                if int(j) not in seen:
                    seen.add(int(j))
                    frontier.append(int(j))
        if len(seen) < chain.n_states:
            names = sorted((chain.labels[j] for j in range(chain.n_states) if j not in seen),
                           key=str)
            return f"chain is reducible: states {names} unreachable from {chain.labels[start]}"
    return None


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
        n_act = len(scenario.names[w])
        rows = [evaluate_action(scenario, w, i) for i in range(n_act)]
        x_tab = np.array([r[2] for r in rows]).reshape(n_act, -1)
        net_tab = np.array([r[0] - r[1] for r in rows])
        grid = _simplex_grid(n_act, step)
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
    for c0, coeffs in zip(scenario.c0[1:], scenario.coeffs[1:]):
        feasible &= (c0 + x_bar @ coeffs) <= feas_slack
    for k in range(scenario.n_queues):
        feasible &= (lams[k] + net_bar[:, k]) <= feas_slack
    if not np.any(feasible):
        raise AssertionError("oracle: no feasible grid point")
    costs = scenario.c0[0] + x_bar @ scenario.coeffs[0]
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
    for i in range(len(scenario.names[omega])):
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

    The draws of one replication of ``processes.sample_paths``: ``horizon``
    uniforms from stream 0, and queue ``k``'s arrivals from stream ``1 + k``.
    One ``searchsorted`` per state gives every slot's successor of every
    state, and a Python loop chases them.
    """
    u = make_rng(seed, replication, 0).random(horizon)
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
    index = [
        spec.sample_index(make_rng(seed, replication, 1 + k), horizon)
        for k, spec in enumerate(arrival_specs)
    ]
    dtype = np.result_type(np.uint8, *index)
    return path, np.array(index, dtype=dtype).reshape(len(index), horizon)


def stacked_sample_paths(
    chain: FiniteMarkovChain,
    arrival_specs: list[ArrivalSpec],
    seed: int,
    horizon: int,
    replications: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Every block of ``processes.sample_paths``, stacked: the whole
    ``(horizon, R)`` state paths and ``(horizon, R, K)`` arrival indices."""
    blocks = list(sample_paths(chain, arrival_specs, seed, horizon, replications))
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


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
    k, n_l = scenario.n_queues, scenario.n_constraints
    omega_path, arrival_index = sample_path_by_chase(
        scenario.omega_chain, scenario.arrivals, seed, horizon, replication
    )
    arrivals = np.array(
        [spec.table[idx] for spec, idx in zip(scenario.arrivals, arrival_index)]
    ).reshape(k, horizon)
    state = CompositeState.zeros(k, n_l)
    q_path = np.zeros((horizon + 1, k))
    z_path = np.zeros((horizon + 1, n_l))
    action_path = np.zeros(horizon, dtype=np.int64)
    for t in range(horizon):
        w = int(omega_path[t])
        a_idx = dpp_select_action(scenario, w, state, v_weight)
        state, _ = network_step(scenario, state, w, a_idx, arrivals[:, t], mode=mode)
        action_path[t] = a_idx
        q_path[t + 1] = state.queues
        z_path[t + 1] = state.virtuals
    return DppRunResult(
        horizon=horizon,
        q_path=q_path,
        z_path=z_path,
        omega_path=omega_path,
        action_path=action_path,
    )


def write_csv_by_rows(path, header, rows) -> None:
    """CSV through the ``csv`` module, one row and one ``_fmt`` per value at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def trace_rows(scenario: Scenario, run: DppRunResult, limit: int):
    """The ``trace.csv`` rows of the first ``limit`` slots of ``run``, a run
    of ``scenario``, one slot at a time."""
    for t in range(min(run.horizon, limit)):
        w, a = int(run.omega_path[t]), int(run.action_path[t])
        row: list[object] = [t]
        row += [float(v) for v in run.q_path[t]]
        row += [float(v) for v in run.z_path[t]]
        row += [w, a]
        row += [float(v) for v in scenario.x[w, a]]
        row += [float(scenario.f[w, a])]
        row += [float(v) for v in scenario.g[w, a]]
        yield row


def pivot_by_rows(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]


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


def run_simplex_by_scan(tableau: np.ndarray, basis: list[int], eligible: np.ndarray) -> str:
    """One primal pass, the reference for ``simplex._run_simplex``.

    The entering column is the first eligible one of least reduced cost below
    -TOL (Dantzig's rule), until ``simplex.DEGENERATE_STREAK`` pivots in a
    row leave the entering variable at most TOL; from then on it is the
    first eligible one below -TOL (Bland's rule).  Pivots go through
    ``simplex._pivot``, so a test can swap in ``pivot_by_rows`` and record
    them.
    """
    streak = 0
    for _ in range(50_000 + 100 * tableau.size):
        bland = streak >= simplex.DEGENERATE_STREAK
        col, least = None, -TOL
        for j in np.flatnonzero(eligible):
            if tableau[-1, j] < least:
                col, least = int(j), tableau[-1, j]
                if bland:
                    break
        if col is None:
            return "optimal"
        row = bland_leaving_by_scan(tableau, col, basis)
        if row is None:
            return "unbounded"
        simplex._pivot(tableau, row, col)
        basis[row] = col
        if not bland:
            streak = streak + 1 if tableau[row, -1] <= TOL else 0
    raise simplex.SimplexError("pivot limit exceeded; tableau did not converge")
