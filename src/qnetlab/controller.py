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

from typing import NamedTuple, Sequence

import numpy as np

from . import capacity
from .network import MODES, Scenario
from .processes import mixing_time, sample_paths
from .stability import VerdictReducer, _reflection

__all__ = [
    "DriftConstants",
    "DppRunResult",
    "DppBatchResult",
    "has_integer_work",
    "is_uncontrolled_single_queue",
    "run_dpp_batch",
    "drift_constants",
]

_BLOCK_BYTES = 1 << 18  # per-block table gathers in run_dpp_batch


def _dot(tables: np.ndarray, cols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``tables[i] @ cols[i]`` into ``out[i]`` for every lane ``i``; ``cols``
    and ``out`` carry a trailing unit axis.

    ``np.matmul`` makes the same BLAS call per lane as ``table @ vec`` makes
    for one state, so a lane rounds like the per-state argmin that
    ``tests/oracles.py`` keeps as the reference.
    """
    return np.matmul(tables, cols, out=out)


class DppRunResult(NamedTuple):
    """One lane's closed-loop run in full: per-slot records."""

    horizon: int
    q_path: np.ndarray       # (horizon + 1, K); slot-start backlogs
    z_path: np.ndarray       # (horizon + 1, L)
    omega_path: np.ndarray   # (horizon,)
    action_path: np.ndarray  # (horizon,)
    x_path: np.ndarray       # (horizon, M)
    f_path: np.ndarray       # (horizon,)
    g_path: np.ndarray       # (horizon, L)
    arrivals: np.ndarray     # (K, horizon)


class DppBatchResult(NamedTuple):
    """Per-lane outputs of ``run_dpp_batch``; lane ``i`` runs
    ``v_weights[i]`` on replication ``replications[i]``.  A ``verdict`` run
    returns its ``reducer`` in place of the first three."""

    totals: np.ndarray | None  # (lanes, horizon): slot-start sum of Q (+ sum of Z if asked)
    avg_cost: np.ndarray | None  # (lanes,)
    avg_g: np.ndarray | None  # (lanes, L)
    runs: list[DppRunResult]  # records of the first ``record`` lanes
    reducer: VerdictReducer | None = None


def has_integer_work(scenario: Scenario, mode: str = "respect") -> bool:
    """True when every backlog the slot recursion produces is a whole number:
    integer ``b``, ``y`` (``y_offered`` in clamped mode) and arrival values.
    The slot-start backlog sums are then integers too, which is what
    ``stability.VerdictReducer`` needs."""
    tab = scenario.tables
    y = tab.y_offered if mode == "clamped" else tab.y
    work = np.concatenate([tab.b.ravel(), y.ravel(), *(s.table for s in scenario.arrivals)])
    return bool(np.all(work == np.round(work)))


def is_uncontrolled_single_queue(scenario: Scenario) -> bool:
    """True when the scenario has no decisions to make and integer work: one
    queue, no constraints, one action per state, and ``has_integer_work``.
    ``run_dpp_batch`` then builds each backlog path by the reflection
    identity, which equals the slot recursion exactly for integer work."""
    tab = scenario.tables
    if scenario.n_queues != 1 or scenario.n_constraints != 0 or tab.f.shape[1] != 1:
        return False
    return has_integer_work(scenario)


def run_dpp_batch(
    scenario: Scenario,
    v_weights: Sequence[float],
    replications: Sequence[int],
    seed: int,
    horizon: int,
    mode: str = "respect",
    record: int = 0,
    with_virtual: bool = False,
    verdict: bool = False,
    record_slots: int | None = None,
) -> DppBatchResult:
    """Run the closed loop for every lane at once, one step per slot.

    A lane is one (V, replication) pair.  Each replication is sampled once,
    compactly and one time block at a time, and lanes that share it share
    its path.  Per lane, the results equal a run of the slot recursion
    alone: scores, updates and reductions follow the single-run order.  The
    first ``record`` lanes are also returned in full, or their first
    ``record_slots`` slots; ``with_virtual`` adds the sum of Z to
    ``totals``, whose row means are then the time-average backlog sums.
    When ``is_uncontrolled_single_queue`` holds, each replication's backlog
    path comes from the reflection identity of ``single_queue_path``, block
    by block from the backlog the previous block ended with, instead of the
    slot loop, with ``y`` added to the arrivals.

    With ``verdict``, which needs ``has_integer_work`` and no
    ``with_virtual``, each time block of totals goes to a
    ``stability.VerdictReducer`` and is dropped: the result carries the
    reducer, and neither totals nor actions nor cost averages are kept.
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
    if not 0 <= record <= n:
        raise ValueError(f"record must lie in [0, {n}], the number of lanes; got {record}")
    if verdict and (with_virtual or not has_integer_work(scenario, mode)):
        raise ValueError("verdict runs need integer work and no virtual queues in the totals")
    tab = scenario.tables
    n_a, clamped = tab.f.shape[1], mode == "clamped"
    # Clamped mode moves all offered service, so its routed transfers are y_offered's.
    f_flat, g_flat, x_flat, b_flat, y_flat = (
        a.reshape(tab.f.size, *a.shape[2:])
        for a in (tab.f, tab.g, tab.x, tab.b, tab.y_offered if clamped else tab.y)
    )
    arrival_table = np.zeros((k, max(s.table.size for s in scenario.arrivals)))
    for q_idx, spec in enumerate(scenario.arrivals):
        arrival_table[q_idx, : spec.table.size] = spec.table
    queue_ix = np.arange(k)
    a_dtype = np.min_scalar_type(n_a - 1)

    reducer = VerdictReducer(n, horizon) if verdict else None
    # Whole-horizon arrays only where the cost averages need them.
    totals = None if verdict else np.empty((n, horizon))
    actions_all = None if verdict else np.zeros((horizon, n), dtype=a_dtype)
    n_rec = horizon if record_slots is None else min(horizon, record_slots)
    rec_reps = lane_rep[:record]
    q_rec, z_rec = np.zeros((record, n_rec + 1, k)), np.zeros((record, n_rec + 1, n_l))
    a_rec = np.zeros((n_rec, record), dtype=a_dtype)

    fast = is_uncontrolled_single_queue(scenario)
    if fast:
        y_0, b_0, arrival_0 = tab.y[:, 0, 0], tab.b[:, 0, 0], arrival_table[0]
        rep_lane = np.unique(lane_rep, return_index=True)[1]  # a lane of each replication
    # Slots per block: the slot loop gathers n_a * (k + n_l + 2) table values
    # per lane and slot; the reflection holds about eight float64 arrays.
    block = max(1, _BLOCK_BYTES // (8 * n * (8 if fast else n_a * (k + n_l + 2))))
    # Slot-start backlogs of one block: q_buf[j] is the state at slot t0 + j.
    # The column views' trailing unit axis is what the stacked products take.
    q_buf, z_buf = np.zeros((block + 1, n, k)), np.zeros((block + 1, n, n_l))
    q_col, z_col = q_buf[..., None], z_buf[..., None]
    a_buf = np.zeros((block, n), dtype=np.intp)  # the reflection branch keeps action 0
    # Per-slot scratch, overwritten every slot.
    gz_col, nq_col = np.empty((n, n_a, 1)), np.empty((n, n_a, 1))
    gz, nq, scores = gz_col[..., 0], nq_col[..., 0], np.empty((n, n_a))
    sel, kept = np.empty(n, dtype=np.intp), np.empty((n, k))
    b_offered, y, g = np.empty((n, k)), np.empty((n, k)), np.empty((n, n_l))
    moved = np.empty((n, k))
    routes = [] if clamped else [(y[:, dst], moved[:, src]) for src, dst in scenario.routing]
    arrival_flat, queue_base = arrival_table.ravel(), queue_ix * arrival_table.shape[1]

    t0 = 0
    for omega, arrival_ix in sample_paths(scenario.omega_chain, scenario.arrivals, seed,
                                          horizon, reps):
        nb_s = omega.shape[0]
        if t0 == 0:  # the first block fixes the block size and the index dtypes
            w_rec = np.zeros((n_rec, record), dtype=omega.dtype)
            ix_rec = np.zeros((n_rec, record, k), dtype=arrival_ix.dtype)
            if verdict:
                tot_buf, actions_buf = np.empty((n, nb_s)), np.zeros((nb_s, n), dtype=a_dtype)
            else:
                omega_all = np.empty((horizon, reps.size), dtype=omega.dtype)
        # This block's totals and actions: scratch, or slices of the whole arrays.
        if verdict:
            tot, actions = tot_buf[:, :nb_s], actions_buf[:nb_s]
        else:
            tot, actions = totals[:, t0 : t0 + nb_s], actions_all[t0 : t0 + nb_s]
            omega_all[t0 : t0 + nb_s] = omega
        for j0 in range(0, nb_s, block):
            nb = min(block, nb_s - j0)
            if fast:
                # No decisions: each replication's backlogs by the reflection
                # identity, from the backlog the previous block ended with.
                w = omega[j0 : j0 + nb]
                work = y_0.take(w)
                work += arrival_0.take(arrival_ix[j0 : j0 + nb, :, 0])
                _reflection(work, b_0.take(w), q_buf[0, rep_lane, 0], out=work)
                q_buf[1 : nb + 1, :, 0] = work.take(lane_rep, axis=1)
            else:
                # Gather one block of slots' tables at once; the slot loop then slices.
                w = omega[j0 : j0 + nb].take(lane_rep, axis=1).astype(np.intp)
                vf = np.multiply(v, tab.f.take(w, axis=0))
                vf += tab.pad.take(w, axis=0)
                g_w, net_w = tab.g.take(w, axis=0), tab.net.take(w, axis=0)
                ix = arrival_ix[j0 : j0 + nb].take(lane_rep, axis=1)
                arrivals = arrival_flat.take(ix + queue_base)  # arrival_table[q, ix[..., q]]
                # Per-slot views, one tuple per slot; zip stops at the block's last slot.
                slots = zip(w * n_a, vf, g_w, net_w, arrivals, a_buf, q_buf, q_buf[1:], q_col,
                            z_buf, z_buf[1:], z_col)
                for base, vf_j, g_j, net_j, arr_j, a_j, q, q_next, q_c, z, z_next, z_c in slots:
                    _dot(g_j, z_c, gz_col)
                    _dot(net_j, q_c, nq_col)
                    np.add(vf_j, gz, out=scores)
                    np.add(scores, nq, out=scores)
                    np.add(base, scores.argmin(axis=1, out=a_j), out=sel)
                    b_flat.take(sel, axis=0, out=b_offered, mode="clip")
                    y_flat.take(sel, axis=0, out=y, mode="clip")
                    g_flat.take(sel, axis=0, out=g, mode="clip")
                    if clamped:
                        np.maximum(np.subtract(q, b_offered, out=kept), 0.0, out=kept)
                    else:
                        np.subtract(q, np.minimum(b_offered, q, out=moved), out=kept)
                    for dst, src in routes:
                        dst += src
                    np.add(np.add(kept, y, out=q_next), arr_j, out=q_next)
                    np.maximum(np.add(z, g, out=z_next), 0.0, out=z_next)
            actions[j0 : j0 + nb] = a_buf[:nb]
            tot[:, j0 : j0 + nb] = q_buf[:nb].sum(axis=2).T
            if with_virtual:
                tot[:, j0 : j0 + nb] += z_buf[:nb].sum(axis=2).T
            nb_rec = max(0, min(nb, n_rec - t0 - j0))  # recorded slots of this block
            rows = slice(t0 + j0 + 1, t0 + j0 + nb_rec + 1)
            q_rec[:, rows] = q_buf[1 : nb_rec + 1, :record].transpose(1, 0, 2)
            z_rec[:, rows] = z_buf[1 : nb_rec + 1, :record].transpose(1, 0, 2)
            q_buf[0], z_buf[0] = q_buf[nb], z_buf[nb]
        if verdict:
            reducer.add(t0, tot)
        keep = max(0, min(nb_s, n_rec - t0))  # recorded slots of this sampler block
        w_rec[t0 : t0 + keep] = omega[:keep, rec_reps]
        ix_rec[t0 : t0 + keep] = arrival_ix[:keep, rec_reps]
        a_rec[t0 : t0 + keep] = actions[:keep, :record]
        t0 += nb_s

    runs = []
    for i in range(record):
        sel = w_rec[:, i] * np.intp(n_a) + a_rec[:, i]
        runs.append(DppRunResult(
            horizon=n_rec,
            q_path=q_rec[i],
            z_path=z_rec[i],
            omega_path=w_rec[:, i].copy(),
            action_path=a_rec[:, i].astype(np.int64),
            x_path=x_flat.take(sel, axis=0),
            f_path=f_flat.take(sel),
            g_path=g_flat.take(sel, axis=0),
            arrivals=arrival_table[queue_ix[:, None], ix_rec[:, i].T],
        ))
    if verdict:
        return DppBatchResult(None, None, None, runs, reducer)
    result = DppBatchResult(totals, np.empty(n), np.empty((n, n_l)), runs)
    for i in range(n):
        sel = omega_all[:, lane_rep[i]] * np.intp(n_a) + actions_all[:, i]
        result.avg_cost[i] = f_flat.take(sel).mean()
        result.avg_g[i] = g_flat.take(sel, axis=0).mean(axis=0)
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
    """Compute B, D from the tables, T from the chain's mixing time, ``f_opt``
    from one ``solve_fopt`` and ``f_min``/``f_max`` from the tables.

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

    tab = scenario.tables
    b_total = 0.0
    d_total = 0.0
    for w, n_act in enumerate(map(len, scenario.actions)):
        y, b, g = tab.y_offered[w, :n_act], tab.b[w, :n_act], tab.g[w, :n_act]
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
    t_mix = mixing_time(scenario.omega_chain, delta)
    # Builtin min/max in (omega, action) order: validate's bits and signed zeros.
    f_real = tab.f[tab.real].tolist()
    f_min, f_max = min(f_real), max(f_real)
    return DriftConstants(
        B=float(b_total), D=float(d_total), T=t_mix, d_max=d_max,
        f_opt=cap.f_opt, f_min=f_min, f_max=f_max, delta=delta,
    )
