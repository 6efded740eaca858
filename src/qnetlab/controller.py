"""Penalty-weighted backpressure controller (drift-plus-penalty).

Every slot, given the observed network state and the current actual and
virtual backlogs, the controller picks the action minimizing

    V * f(x(action)) + sum_l Z_l * g_l(x(action))
                     + sum_k Q_k * (y_k(action) - b_k(action))

over the finite action set of the current state.  The minimization is exact
(action sets are enumerated).  Decisions ignore backlog feasibility on
purpose; the network transition applies the clamp.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import capacity
from .network import MODES, Scenario, evaluate_action
from .processes import mixing_time, sample_paths
from .queues import CompositeState
from .stability import TraceEnsemble, single_queue_path

__all__ = [
    "DriftConstants",
    "DppRunResult",
    "DppBatchResult",
    "compile_tables",
    "dpp_select_action",
    "is_uncontrolled_single_queue",
    "run_dpp_batch",
    "drift_constants",
]

_BLOCK_BYTES = 1 << 18  # per-block table gathers in run_dpp_batch


class DppTables(NamedTuple):
    """Per-state action tables, indexed ``[omega, action]`` and padded to the
    largest action count: padded entries are zero and carry ``pad = +inf``.

    Scores add ``pad`` to ``V f`` (never multiply it by V, so V = 0 cannot
    turn it into NaN): a padded action scores +inf and is never chosen.
    """

    f: np.ndarray    # (S, A)
    pad: np.ndarray  # (S, A): 0 on real actions, +inf on padding
    g: np.ndarray    # (S, A, L)
    net: np.ndarray  # (S, A, K): offered y (with routed offered b) minus offered b
    b: np.ndarray    # (S, A, K): offered service
    y: np.ndarray    # (S, A, K): table y, without routed transfers
    x: np.ndarray    # (S, A, M)


def compile_tables(scenario: Scenario) -> DppTables:
    n_s, n_a = scenario.omega_chain.n_states, max(map(len, scenario.actions))
    k, n_l, m = scenario.n_queues, scenario.n_constraints, scenario.n_attributes
    f, pad = np.zeros((n_s, n_a)), np.full((n_s, n_a), np.inf)
    g, x = np.zeros((n_s, n_a, n_l)), np.zeros((n_s, n_a, m))
    net, b, y = (np.zeros((n_s, n_a, k)) for _ in range(3))
    for w, acts in enumerate(scenario.actions):
        for i, act in enumerate(acts):
            y_offered, b[w, i], x[w, i], f[w, i], g[w, i] = evaluate_action(scenario, w, i)
            net[w, i] = y_offered - b[w, i]
            y[w, i] = act.y
            pad[w, i] = 0.0
    return DppTables(f=f, pad=pad, g=g, net=net, b=b, y=y, x=x)


def _dot(tables: np.ndarray, cols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``tables[i] @ cols[i]`` into ``out[i]`` for every lane ``i``; ``cols``
    and ``out`` carry a trailing unit axis.

    ``np.matmul`` makes the same BLAS call per lane as ``table @ vec`` makes
    for one state, so a lane and the single-state selection round alike.
    """
    return np.matmul(tables, cols, out=out)


def dpp_select_action(
    scenario: Scenario,
    omega: int,
    state: CompositeState,
    v_weight: float,
    tables: DppTables | None = None,
) -> int:
    """Exact argmin of the score over the state's action list.

    ``np.argmin`` returns the first minimizer, which is the lowest-index tie
    rule, so runs are reproducible.
    """
    tab = tables or compile_tables(scenario)
    scores = (
        v_weight * tab.f[omega]
        + tab.pad[omega]
        + tab.g[omega] @ state.virtuals
        + tab.net[omega] @ state.queues
    )
    return int(np.argmin(scores))


class DppRunResult:
    """Closed-loop run output: per-slot records plus achieved time averages
    (``avg_cost``, ``avg_g``, ``avg_backlog_sum``, ``q_slopes``, ``z_slopes``,
    derived from the records)."""

    def __init__(
        self,
        horizon: int,
        q_path: np.ndarray,       # (horizon + 1, K); slot-start backlogs
        z_path: np.ndarray,       # (horizon + 1, L)
        omega_path: np.ndarray,   # (horizon,)
        action_path: np.ndarray,  # (horizon,)
        x_path: np.ndarray,       # (horizon, M)
        f_path: np.ndarray,       # (horizon,)
        g_path: np.ndarray,       # (horizon, L)
        arrivals: np.ndarray,     # (K, horizon)
    ) -> None:
        self.horizon = t = horizon
        self.q_path = q_path
        self.z_path = z_path
        self.omega_path = omega_path
        self.action_path = action_path
        self.x_path = x_path
        self.f_path = f_path
        self.g_path = g_path
        self.arrivals = arrivals
        self.avg_cost = float(self.f_path.mean())
        self.avg_g = self.g_path.mean(axis=0)
        self.avg_backlog_sum = float(
            (self.q_path[:t].sum(axis=1) + self.z_path[:t].sum(axis=1)).mean()
        )
        self.q_slopes = self.q_path[t] / t
        self.z_slopes = self.z_path[t] / t

    def queue_ensemble(self, k: int) -> TraceEnsemble:
        return TraceEnsemble(backlog=self.q_path[: self.horizon, k][None, :])

    def total_backlog_ensemble(self) -> TraceEnsemble:
        total = self.q_path[: self.horizon].sum(axis=1) + self.z_path[
            : self.horizon
        ].sum(axis=1)
        return TraceEnsemble(backlog=total[None, :])


class DppBatchResult(NamedTuple):
    """Per-lane outputs of ``run_dpp_batch``; lane ``i`` runs
    ``v_weights[i]`` on replication ``replications[i]``."""

    totals: np.ndarray  # (lanes, horizon): slot-start sum of Q (+ sum of Z if asked)
    avg_cost: np.ndarray  # (lanes,)
    avg_g: np.ndarray  # (lanes, L)
    runs: list[DppRunResult]  # full records of the first ``record`` lanes


def is_uncontrolled_single_queue(scenario: Scenario) -> bool:
    """True when the scenario has no decisions to make and integer work: one
    queue, no constraints, one action per state, and integer ``b``, ``y``
    and arrival values.  ``run_dpp_batch`` then builds each backlog path by
    the reflection identity, which equals the slot recursion exactly for
    integer work."""
    if scenario.n_queues != 1 or scenario.n_constraints != 0:
        return False
    if any(len(acts) != 1 for acts in scenario.actions):
        return False
    work = np.concatenate(
        [v for acts in scenario.actions for v in (acts[0].b, acts[0].y)]
        + [spec.table for spec in scenario.arrivals]
    )
    return bool(np.all(work == np.round(work)))


def run_dpp_batch(
    scenario: Scenario,
    v_weights: Sequence[float],
    replications: Sequence[int],
    seed: int,
    horizon: int,
    mode: str = "respect",
    record: int = 0,
    with_virtual: bool = False,
) -> DppBatchResult:
    """Run the closed loop for every lane at once, one step per slot.

    A lane is one (V, replication) pair.  Each replication is sampled once,
    compactly, and lanes that share it share its path.  Per lane, the
    results equal a run of the slot recursion alone: scores, updates and
    reductions follow the single-run order.  The first ``record`` lanes are
    also returned in full; ``with_virtual`` adds the sum of Z to ``totals``,
    whose row means are then ``DppRunResult.avg_backlog_sum``.  When
    ``is_uncontrolled_single_queue`` holds, each replication's backlog path
    comes from the reflection identity (``single_queue_path``) instead of
    the slot loop, with ``y`` added to the arrivals.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    v = np.asarray(v_weights, dtype=float)[:, None]
    if not np.all(np.isfinite(v) & (v >= 0)):
        raise ValueError("v_weight must be finite and >= 0")
    reps, lane_rep = np.unique(np.asarray(replications, dtype=np.int64), return_inverse=True)
    n, k, n_l = v.shape[0], scenario.n_queues, scenario.n_constraints
    tab = compile_tables(scenario)
    n_a = tab.f.shape[1]
    f_flat, g_flat, x_flat = (
        a.reshape(tab.f.size, *a.shape[2:]) for a in (tab.f, tab.g, tab.x)
    )
    # One gather per slot fetches the chosen actions' b, y and g together.
    byg_flat = np.concatenate([tab.b, tab.y, tab.g], axis=2).reshape(tab.f.size, 2 * k + n_l)
    arrival_table = np.zeros((k, max(s.table.size for s in scenario.arrivals)))
    for q_idx, spec in enumerate(scenario.arrivals):
        arrival_table[q_idx, : spec.table.size] = spec.table
    queue_ix = np.arange(k)

    omega, arrival_ix = sample_paths(scenario.omega_chain, scenario.arrivals, seed, horizon, reps)
    totals = np.empty((n, horizon))
    actions = np.zeros((horizon, n), dtype=np.min_scalar_type(n_a - 1))
    q_rec, z_rec = np.zeros((record, horizon + 1, k)), np.zeros((record, horizon + 1, n_l))
    if is_uncontrolled_single_queue(scenario):
        for j in range(reps.size):
            w = omega[:, j]
            q = single_queue_path(tab.y[w, 0, 0] + arrival_table[0, arrival_ix[:, j, 0]],
                                  tab.b[w, 0, 0])
            totals[lane_rep == j] = q[:horizon]
            q_rec[lane_rep[:record] == j, :, 0] = q
    else:
        block = max(1, _BLOCK_BYTES // (8 * n * n_a * (k + n_l + 2)))
        # Slot-start backlogs of one block: q_buf[j] is the state at slot t0 + j.
        # The column views' trailing unit axis is what the stacked products take.
        q_buf, z_buf = np.zeros((block + 1, n, k)), np.zeros((block + 1, n, n_l))
        q_col, z_col = q_buf[..., None], z_buf[..., None]
        a_buf = np.empty((block, n), dtype=np.intp)
        # Per-slot scratch, overwritten every slot.
        gz_col, nq_col = np.empty((n, n_a, 1)), np.empty((n, n_a, 1))
        gz, nq, scores = gz_col[..., 0], nq_col[..., 0], np.empty((n, n_a))
        sel, byg = np.empty(n, dtype=np.intp), np.empty((n, 2 * k + n_l))
        b_offered, y, g = byg[:, :k], byg[:, k : 2 * k], byg[:, 2 * k :]
        kept = np.empty((n, k))
        clamped = mode == "clamped"
        moved = b_offered if clamped else np.empty((n, k))
        routes = [(y[:, dst], moved[:, src]) for src, dst in scenario.routing]
        for t0 in range(0, horizon, block):
            # Gather one block of slots' tables at once; the slot loop then slices.
            w = omega[t0 : t0 + block, lane_rep].astype(np.intp)
            vf, g_w, net_w = v * tab.f[w] + tab.pad[w], tab.g[w], tab.net[w]
            arrivals = arrival_table[queue_ix, arrival_ix[t0 : t0 + block, lane_rep]]
            # Per-slot views, one tuple per slot; zip stops at the block's last slot.
            slots = zip(w * n_a, vf, g_w, net_w, arrivals, a_buf, q_buf, q_buf[1:], q_col,
                        z_buf, z_buf[1:], z_col)
            for base, vf_j, g_j, net_j, arr_j, a_j, q, q_next, q_c, z, z_next, z_c in slots:
                _dot(g_j, z_c, gz_col)
                _dot(net_j, q_c, nq_col)
                np.add(vf_j, gz, out=scores)
                np.add(scores, nq, out=scores)
                np.add(base, scores.argmin(axis=1, out=a_j), out=sel)
                byg_flat.take(sel, axis=0, out=byg, mode="clip")
                if clamped:
                    np.maximum(np.subtract(q, b_offered, out=kept), 0.0, out=kept)
                else:
                    np.subtract(q, np.minimum(b_offered, q, out=moved), out=kept)
                for dst, src in routes:
                    dst += src
                np.add(np.add(kept, y, out=q_next), arr_j, out=q_next)
                np.maximum(np.add(z, g, out=z_next), 0.0, out=z_next)
            nb = w.shape[0]
            actions[t0 : t0 + nb] = a_buf[:nb]
            totals[:, t0 : t0 + nb] = q_buf[:nb].sum(axis=2).T
            if with_virtual:
                totals[:, t0 : t0 + nb] += z_buf[:nb].sum(axis=2).T
            q_rec[:, t0 + 1 : t0 + nb + 1] = q_buf[1 : nb + 1, :record].transpose(1, 0, 2)
            z_rec[:, t0 + 1 : t0 + nb + 1] = z_buf[1 : nb + 1, :record].transpose(1, 0, 2)
            q_buf[0], z_buf[0] = q_buf[nb], z_buf[nb]

    result = DppBatchResult(totals, np.empty(n), np.empty((n, n_l)), runs=[])
    for i in range(n):
        r, sel = lane_rep[i], omega[:, lane_rep[i]] * np.intp(n_a) + actions[:, i]
        result.avg_cost[i] = f_flat[sel].mean()
        result.avg_g[i] = g_flat[sel].mean(axis=0)
        if i < record:
            result.runs.append(DppRunResult(
                horizon=horizon,
                q_path=q_rec[i],
                z_path=z_rec[i],
                omega_path=omega[:, r].copy(),
                action_path=actions[:, i].astype(np.int64),
                x_path=x_flat[sel],
                f_path=f_flat[sel],
                g_path=g_flat[sel],
                arrivals=arrival_table[queue_ix[:, None], arrival_ix[:, r].T],
            ))
    return result


class DriftConstants(NamedTuple):
    """Diagnostic constants for the T-slot drift analysis.

    ``B`` bounds half the worst-case second moments of service and of
    arrivals-plus-transfers (plus constraint values squared); ``D`` bounds the
    cross terms accumulated over a frame; ``T`` is the chain's mixing time at
    total-variation gap ``delta`` (``d_max / 4`` by default; NaN when not
    known).  ``f_opt`` is the LP optimum (NaN outside the capacity region)
    and ``f_min``/``f_max`` the cost extremes over all tables.  The runtime
    algorithm never uses these; they only feed the reported bounds.
    """

    B: float
    D: float
    T: int
    d_max: float
    f_opt: float
    f_min: float
    f_max: float
    delta: float = float("nan")


def drift_constants(
    scenario: Scenario,
    delta: float | None = None,
    report: capacity.CapacityReport | None = None,
) -> DriftConstants:
    """Compute B, D from the tables, T from the chain's mixing time, and the
    cost constants from one ``solve_fopt`` and the same pass over the actions.

    Second moments take the worst action per state and average over the
    stationary distribution; arrival moments are analytic.  The default
    frame gap is ``d_max / 4``, which requires a strictly interior
    arrival-rate vector; passing ``delta`` explicitly lifts that requirement.
    A caller that already holds ``solve_fopt(scenario)`` passes it as
    ``report``, and no LP is solved here.
    """
    cap = capacity.solve_fopt(scenario) if report is None else report
    d_max = cap.d_max
    if delta is None:
        if d_max <= 0:
            raise ValueError(
                "drift constants need d_max > 0 to set the frame gap; the "
                "arrival-rate vector is not interior to the capacity region "
                "(pass delta explicitly to override)"
            )
        delta = d_max / 4.0
    pi = scenario.stationary()
    lams = scenario.lambdas
    a2 = np.array([spec.second_moment() for spec in scenario.arrivals])

    b_total = 0.0
    d_total = 0.0
    # Builtin min/max in validate's (omega, action) order: the same bits and
    # signed zeros as its f_min and f_max.
    f_min = math.inf
    f_max = -math.inf
    for w in range(scenario.omega_chain.n_states):
        n_act = len(scenario.actions[w])
        rows = [evaluate_action(scenario, w, i) for i in range(n_act)]
        for r in rows:
            f_min = min(f_min, r[3])
            f_max = max(f_max, r[3])
        y = np.array([r[0] for r in rows])  # (n_act, K)
        b = np.array([r[1] for r in rows])
        g = np.array([r[4] for r in rows]).reshape(n_act, -1)
        # E[(a + y)^2 | action] with independent arrivals: E[a^2] + 2 lam y + y^2
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
    t_mix = mixing_time(scenario.omega_chain, delta).T
    return DriftConstants(
        B=float(b_total), D=float(d_total), T=t_mix, d_max=d_max,
        f_opt=cap.f_opt, f_min=f_min, f_max=f_max, delta=delta,
    )
