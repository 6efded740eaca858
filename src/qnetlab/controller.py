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

from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import capacity
from .network import MODES, Scenario
from .processes import mixing_time, sample_paths
from .stability import OrderedSum

__all__ = [
    "DriftConstants",
    "DppRunResult",
    "DppBatchResult",
    "run_dpp_batch",
    "drift_constants",
]

_BLOCK_BYTES = 1 << 18  # per-block table gathers in run_dpp_batch
_SUM_BLOCK_BYTES = 1 << 16  # per chunk of chosen-action values handed to the sums


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
    """Per-lane outputs of ``run_dpp_batch``; lane ``i`` runs ``v_weights[i]``
    on replication ``replications[i]``.  The sums (None in a ``reducer`` run)
    add in numpy's order, so over the horizon they are ``mean``'s bits."""

    backlog_sum: np.ndarray | None  # (lanes,): of the slot-start sum of Q (+ sum of Z if asked)
    cost_sum: np.ndarray | None  # (lanes,): of f
    g_sum: np.ndarray | None  # (lanes, L): of g, as mean(axis=0) adds
    runs: list[DppRunResult]  # records of the first ``record`` lanes
    reducer: object = None  # the ``reducer`` consumer, fed every block


def _check_horizon(horizon: int) -> None:
    if horizon < 2:
        raise ValueError("horizon must be >= 2")


def run_dpp_batch(
    scenario: Scenario,
    v_weights: Sequence[float],
    replications: Sequence[int],
    seed: int,
    horizon: int,
    mode: str = "respect",
    record: int = 0,
    with_virtual: bool = False,
    record_slots: int | None = None,
    reducer: Callable[[int, int], object] | None = None,
) -> DppBatchResult:
    """Run the closed loop for every lane at once, one step per slot.

    A lane is one (V, replication) pair.  Each replication is sampled once,
    compactly and one time block at a time, and lanes that share it share
    its path.  Per lane, the results equal a run of the slot recursion
    alone: scores, updates and reductions follow the single-run order.
    Every scenario runs the same slot update; two cases skip work that the
    compiled shapes make empty, with the same bits.  With one action per
    state (``n_a == 1``) the argmin of one candidate is action 0, so no
    score is computed and the chosen row is the state's.  With no
    constraints (``n_l == 0``) there is no ``g`` to gather and no ``Z`` to
    update.

    Results leave by time block; no array spans the horizon.  Each block's
    per-lane totals of the slot-start backlogs (plus the sum of Z with
    ``with_virtual``) go to ``reducer(n_lanes, horizon).add(t0, totals)``
    if given, else with the costs and ``g`` to the result's sums.  The
    first ``record`` lanes are recorded, or their first ``record_slots``.
    """
    _check_horizon(horizon)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    v = np.asarray(v_weights, dtype=float)[:, None]
    if not np.all(np.isfinite(v) & (v >= 0)):
        raise ValueError("v_weight must be finite and >= 0")
    reps, lane_rep = np.unique(np.asarray(replications, dtype=np.int64), return_inverse=True)
    n, k, n_l = v.shape[0], scenario.n_queues, scenario.n_constraints
    if not 0 <= record <= n:
        raise ValueError(f"record must lie in [0, {n}], the number of lanes; got {record}")
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

    sink = None if reducer is None else reducer(n, horizon)
    sums = [] if sink is not None else [OrderedSum(n, horizon, w) for w in (None, None, n_l)]
    n_rec = horizon if record_slots is None else min(horizon, record_slots)
    rec_reps = lane_rep[:record]
    q_rec, z_rec = np.zeros((record, n_rec + 1, k)), np.zeros((record, n_rec + 1, n_l))
    a_rec = np.zeros((n_rec, record), dtype=a_dtype)

    # Slots per block: the slot loop gathers n_a * (k + n_l + 2) table values
    # per lane and slot.
    block = max(1, _BLOCK_BYTES // (8 * n * n_a * (k + n_l + 2)))
    cols = max(1, _SUM_BLOCK_BYTES // (8 * n * max(1, n_l)))  # slots per chunk of costs and g
    # Slot-start backlogs of one block: q_buf[j] is the state at slot t0 + j.
    # The column views' trailing unit axis is what the stacked products take.
    q_buf, z_buf = np.zeros((block + 1, n, k)), np.zeros((block + 1, n, n_l))
    q_col, z_col = q_buf[..., None], z_buf[..., None]
    a_buf = np.zeros((block, n), dtype=np.intp)  # stays 0 with one action per state
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
            tot_buf, actions_buf = np.empty((n, nb_s)), np.zeros((nb_s, n), dtype=a_dtype)
        tot, actions = tot_buf[:, :nb_s], actions_buf[:nb_s]
        for j0 in range(0, nb_s, block):
            nb = min(block, nb_s - j0)
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
                row = base  # one action per state: it is the argmin
                if n_a > 1:
                    _dot(g_j, z_c, gz_col)
                    _dot(net_j, q_c, nq_col)
                    np.add(vf_j, gz, out=scores)
                    np.add(scores, nq, out=scores)
                    row = np.add(base, scores.argmin(axis=1, out=a_j), out=sel)
                b_flat.take(row, axis=0, out=b_offered, mode="clip")
                y_flat.take(row, axis=0, out=y, mode="clip")
                if clamped:
                    np.maximum(np.subtract(q, b_offered, out=kept), 0.0, out=kept)
                else:
                    np.subtract(q, np.minimum(b_offered, q, out=moved), out=kept)
                for dst, src in routes:
                    dst += src
                np.add(np.add(kept, y, out=q_next), arr_j, out=q_next)
                if n_l:
                    g_flat.take(row, axis=0, out=g, mode="clip")
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
        # Hand the block to the consumers, each lane's values contiguous.
        if sink is not None:
            sink.add(t0, tot)
        else:
            sums[0].add(tot)
            for c0 in range(0, nb_s, cols):
                chosen = omega[c0 : c0 + cols].take(lane_rep, axis=1) * np.intp(n_a)
                chosen += actions[c0 : c0 + cols]
                sums[1].add(f_flat.take(chosen.T))
                sums[2].add(g_flat.take(chosen.T, axis=0))
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
    return DppBatchResult(*([s.total for s in sums] or [None] * 3), runs, sink)


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
