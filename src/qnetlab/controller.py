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

_BLOCK_BYTES = 1 << 18  # per-block buffers of run_dpp_batch's slot loop
_SUM_BLOCK_BYTES = 1 << 16  # per chunk of chosen-action values handed to the sums


def _lane_slot_bytes(n_a: int, k: int, n_l: int) -> int:
    """Bytes per lane and slot of ``run_dpp_batch``'s per-block buffers: score rows
    and ``V f + pad`` (given a choice), indices, arrivals, and the states twice."""
    return 8 * ((n_l + k + 3) * n_a * (n_a > 1) + 3 + 3 * k + 2 * (n_l + k))


class DppRunResult(NamedTuple):
    """One lane's closed-loop run in full: per-slot records.  ``q_path`` and
    ``z_path`` are views of one ``(horizon + 1, L + K)`` record of ``[Z; Q]``."""

    horizon: int
    q_path: np.ndarray       # (horizon + 1, K); slot-start backlogs
    z_path: np.ndarray       # (horizon + 1, L)
    omega_path: np.ndarray   # (horizon,)
    action_path: np.ndarray  # (horizon,)
    x_path: np.ndarray       # (horizon, M)
    f_path: np.ndarray       # (horizon,)
    g_path: np.ndarray       # (horizon, L)


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
    Every scenario runs one slot update on the stacked state ``s = [Z; Q]``,
    lanes innermost.  Scores add the ``[g | net]`` rows times ``s`` in the
    fixed order ``t = 0..L+K-1``, so no BLAS kernel rounds them; the update
    ``s - min([-g | b], s)`` (respect) or ``max(s - [-g | b], 0)`` is
    ``max(Z + g, 0)`` on the ``Z`` rows.  With one action per state the
    argmin is action 0, so no score is computed.  A slot's decision is one
    flat index ``omega * A + action`` per lane, which the update, the sums
    and the records all read.  A value past the float range raises
    ``FloatingPointError``.

    Results leave by time block; no array spans the horizon.  Each block's
    per-lane totals of the slot-start backlogs (plus the sum of Z with
    ``with_virtual``) go to ``reducer(n_lanes, horizon).add(t0, totals)``
    if given, else with the costs and ``g`` to the result's sums.  The
    first ``record`` lanes are recorded, or their first ``record_slots``.
    """
    _check_horizon(horizon)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    v = np.asarray(v_weights, dtype=float)
    if not np.all(np.isfinite(v) & (v >= 0)):
        raise ValueError("v_weight must be finite and >= 0")
    reps, lane_rep = np.unique(np.asarray(replications, dtype=np.int64), return_inverse=True)
    n, k, n_l = v.shape[0], scenario.n_queues, scenario.n_constraints
    if not 0 <= record <= n:
        raise ValueError(f"record must lie in [0, {n}], the number of lanes; got {record}")
    tab = scenario.tables
    n_a, clamped, m = tab.f.shape[1], mode == "clamped", n_l + k
    f_flat, g_flat, x_flat = (a.reshape(tab.f.size, *a.shape[2:]) for a in (tab.f, tab.g, tab.x))
    # One column per (omega, action), lanes innermost after a take: scores read
    # [f | pad | g | net], the update [-g | b | 0 | y].  Clamped mode moves all
    # offered service, so its routed transfers are y_offered's.
    score_tab = np.concatenate([tab.f[..., None], tab.pad[..., None], tab.g, tab.net],
                               axis=2).transpose(2, 1, 0).copy()  # (m + 2, A, S)
    y_tab = tab.y_offered if clamped else tab.y
    update_tab = np.concatenate([-tab.g, tab.b, np.zeros_like(tab.g), y_tab],
                                axis=2).reshape(tab.f.size, 2 * m).T.copy()  # (2m, S * A)
    arrival_table = np.zeros((k, max(s.table.size for s in scenario.arrivals)))
    for q_idx, spec in enumerate(scenario.arrivals):
        arrival_table[q_idx, : spec.table.size] = spec.table
    # The flat index omega * A + action; its dtype holds every index and A.
    c_dtype = np.min_scalar_type(max(tab.f.size - 1, n_a))

    sink = None if reducer is None else reducer(n, horizon)
    sums = [] if sink is not None else [OrderedSum(n, horizon, w) for w in (None, None, n_l)]
    n_rec = horizon if record_slots is None else min(horizon, record_slots)
    s_rec, c_rec = np.zeros((record, n_rec + 1, m)), np.zeros((n_rec, record), dtype=c_dtype)

    block = max(1, _BLOCK_BYTES // (n * _lane_slot_bytes(n_a, k, n_l)))
    cols = max(1, _SUM_BLOCK_BYTES // (8 * n * max(1, n_l)))  # slots per chunk of costs and g
    # Slot-start states s = [Z; Q] of one block: s_buf[j] is the state at slot
    # t0 + j; scores take it with a unit action axis.
    s_buf = np.zeros((block + 1, m, n))
    s_col, q_buf = s_buf[:, :, None], s_buf[:, n_l:]
    # Per-slot scratch, overwritten every slot.
    prod, scores = np.empty((m, n_a, n)), np.empty((n_a, n))
    best, upd = np.empty(n, dtype=c_dtype), np.empty((2 * m, n))
    sub, add, kept, moved = upd[:m], upd[m:], np.empty((m, n)), np.empty((m, n))
    routes = [] if clamped else [(add[n_l + dst], moved[n_l + src])
                                 for src, dst in scenario.routing]
    arrival_flat, queue_base = arrival_table.ravel(), np.arange(k) * arrival_table.shape[1]

    t0 = 0
    # A backlog, score or sum past the float range stops the run.
    with np.errstate(over="raise", invalid="raise"):
        for omega, arrival_ix in sample_paths(scenario.omega_chain, scenario.arrivals, seed,
                                              horizon, reps):
            nb_s = omega.shape[0]
            if t0 == 0:  # the first block fixes the block size
                tot_buf, c_buf = np.empty((n, nb_s)), np.empty((nb_s, n), dtype=c_dtype)
            tot, c_blk = tot_buf[:, :nb_s], c_buf[:nb_s]
            for j0 in range(0, nb_s, block):
                nb = min(block, nb_s - j0)
                # Gather one block of slots' columns at once; the slot loop then slices.
                w = omega[j0 : j0 + nb].take(lane_rep, axis=1)
                c = np.multiply(w, n_a, out=c_blk[j0 : j0 + nb], dtype=c_dtype)
                score_tabs = vfs = [None] * nb
                if n_a > 1:
                    tabs = score_tab.take(w, axis=2)  # (m + 2, A, nb, n)
                    vfs = np.multiply(v, tabs[0]).transpose(1, 0, 2)
                    vfs += tabs[1].transpose(1, 0, 2)
                    score_tabs = tabs[2:].transpose(2, 0, 1, 3)
                ix = arrival_ix[j0 : j0 + nb].take(lane_rep, axis=1) + queue_base
                arrivals = arrival_flat.take(ix.transpose(0, 2, 1))  # arrival_table[q, ix[..., q]]
                # Per-slot views, one tuple per slot; zip stops at the block's last slot.
                slots = zip(c, score_tabs, vfs, arrivals, s_buf, s_col, s_buf[1:], q_buf[1:])
                for row, score_j, vf_j, arr_j, s, s_c, s_next, q_next in slots:
                    if n_a > 1:  # else the state's one action is the argmin
                        # (V f + pad) + sum_t [g | net][t] * s[t], added in the order t = 0..m-1.
                        np.add.reduce(np.multiply(score_j, s_c, out=prod), axis=0, out=scores)
                        np.add(vf_j, scores, out=scores)
                        row += scores.argmin(axis=0, out=best)
                    update_tab.take(row, axis=1, out=upd, mode="clip")
                    if clamped:
                        np.maximum(np.subtract(s, sub, out=kept), 0.0, out=kept)
                    else:
                        np.subtract(s, np.minimum(sub, s, out=moved), out=kept)
                    for dst, src in routes:
                        dst += src
                    np.add(kept, add, out=s_next)
                    np.add(q_next, arr_j, out=q_next)
                # Lanes outermost: each total adds as numpy's sum of one lane's vector.
                lanes = s_buf[:nb].transpose(2, 0, 1).copy()
                tot[:, j0 : j0 + nb] = lanes[..., n_l:].sum(axis=2)
                if with_virtual:
                    tot[:, j0 : j0 + nb] += lanes[..., :n_l].sum(axis=2)
                nb_rec = max(0, min(nb, n_rec - t0 - j0))  # recorded slots of this block
                s_rec[:, t0 + j0 + 1 : t0 + j0 + nb_rec + 1] = (
                    s_buf[1 : nb_rec + 1, :, :record].transpose(2, 0, 1))
                s_buf[0] = s_buf[nb]
            # Hand the block to the consumers, each lane's values contiguous.
            if sink is not None:
                sink.add(t0, tot)
            else:
                sums[0].add(tot)
                for c0 in range(0, nb_s, cols):
                    chosen = c_blk[c0 : c0 + cols].T
                    sums[1].add(f_flat.take(chosen))
                    sums[2].add(g_flat.take(chosen, axis=0))
            keep = max(0, min(nb_s, n_rec - t0))  # recorded slots of this sampler block
            c_rec[t0 : t0 + keep] = c_blk[:keep, :record]
            t0 += nb_s

    runs = []
    for i in range(record):
        omega_path, action_path = divmod(c_rec[:, i].astype(np.int64), n_a)
        runs.append(DppRunResult(
            horizon=n_rec,
            q_path=s_rec[i, :, n_l:],
            z_path=s_rec[i, :, :n_l],
            omega_path=omega_path,
            action_path=action_path,
            x_path=x_flat.take(c_rec[:, i], axis=0),
            f_path=f_flat.take(c_rec[:, i]),
            g_path=g_flat.take(c_rec[:, i], axis=0),
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
