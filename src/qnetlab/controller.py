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
_SLOT_VIEW_BYTES = 1 << 10  # per slot of a block: the ~0.9 kB of views in slot_views


def _lane_slot_bytes(n_a: int, k: int, n_l: int, gather: bool) -> int:
    """Bytes per lane and slot of ``run_dpp_batch``'s per-block buffers: the
    gathered score rows ``[g | net | f | pad]`` if ``gather`` (given a
    choice, on lanes of several replications, or of one whose per-state
    table would not fit in ``_BLOCK_BYTES``), indices, arrivals, and the
    states ``[Z; Q; 1]`` twice.  A one-replication run reads its score rows
    from the per-state table instead; the table counts once against the
    budget, and the blocks get what it leaves."""
    return 8 * ((n_l + k + 2) * n_a * (gather and n_a > 1) + 3 + 3 * k + 2 * (n_l + k + 1))


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
    on replication ``replications[i]``.  The sums are None in a ``reducer``
    run.  ``backlog_sum`` adds the per-slot totals as numpy's sum over time
    does; ``cost_sum`` and ``g_sum`` are each (omega, action)'s count of
    slots times its ``f`` or ``g``, added in (omega, action) order."""

    backlog_sum: np.ndarray | None  # (lanes,): of the slot-start sum of Q (+ sum of Z if asked)
    cost_sum: np.ndarray | None  # (lanes,): of f
    g_sum: np.ndarray | None  # (lanes, L): of g
    runs: list[DppRunResult]  # records of the first ``record`` lanes
    reducer: object = None  # the ``reducer`` consumer, fed every block


def _add_rows(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = rows[:, 0] + rows[:, 1] + ...``, added in row order (numpy's
    reduction over the rows adds pairwise when there is one lane)."""
    out[...] = rows[:, 0] if rows.shape[1] else 0.0
    for i in range(1, rows.shape[1]):
        out += rows[:, i]
    return out


def _route_runs(routing: Sequence[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """``(src, dst, length)`` for each run of consecutive routes ``(src, dst),
    (src + 1, dst + 1), ...``, in list order, so every destination still
    receives its transfers in the order of the routing list."""
    runs: list[tuple[int, int, int]] = []
    for src, dst in routing:
        if runs:
            s0, d0, r = runs[-1]
            if (src, dst) == (s0 + r, d0 + r):
                runs[-1] = (s0, d0, r + 1)
                continue
        runs.append((src, dst, 1))
    return runs


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
    lanes innermost.  The state carries a constant last row, ``[Z; Q; 1]``,
    and a slot's score rows ``[g | net | V f + pad]`` have one of two
    sources, picked from the input.  When every lane runs on one
    replication, each slot finds all lanes in one state, and if the
    ``(S, L+K+1, A, lanes)`` table of every state's rows fits in
    ``_BLOCK_BYTES``, it is built once per run and slot ``t`` reads
    ``table[omega_t]`` in place.  Otherwise each block gathers its lanes'
    ``[g | net | f | pad]`` columns and computes ``V f + pad`` once as the
    last row.  Either way one reduction adds the rows times ``[Z; Q; 1]``
    in the fixed order ``t = 0..L+K``; no BLAS kernel
    rounds them, and as IEEE addition commutes the score is
    ``(V f + pad) + sum_t [g | net][t] * s[t]`` bit for bit.  Both modes
    update by ``s - min([-g | b], s)``, which for ``s >= 0`` is
    ``max(s - [-g | b], 0)`` bit for bit, and ``max(Z + g, 0)`` on the ``Z``
    rows; clamped mode adds the offered ``y_offered`` and takes no routes.
    A run of routes ``(src, dst), (src + 1, dst + 1), ...`` adds as one
    slice, and each destination receives in routing-list order.  With one
    action per state the argmin is action 0, so no score is computed.  A
    slot's decision is one flat index ``omega * A + action`` per lane, held
    as intp so that the update's take reads it as it is; the counts and the
    records read it too.  A value past the float range raises
    ``FloatingPointError``; on the per-state path a ``V f`` past it raises
    as the table is built, for a state the horizon never visits too.

    Results leave by time block; no array spans the horizon.  Each block's
    per-lane totals of the slot-start backlogs, added in queue order (plus
    the sum of Z with ``with_virtual``), go to
    ``reducer(n_lanes, horizon).add(t0, totals)`` if given, else to the
    result's ``backlog_sum``, and each lane counts its slots per (omega,
    action) for ``cost_sum`` and ``g_sum``.  The first ``record`` lanes are
    recorded, or their first ``record_slots``.
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
    f, g, n_sa = scenario.f, scenario.g, scenario.f.size  # n_sa = S * A
    n_a, clamped, m = f.shape[1], mode == "clamped", n_l + k
    f_flat, g_flat, x_flat = (a.reshape(n_sa, *a.shape[2:]) for a in (f, g, scenario.x))
    # One column per (omega, action), lanes innermost after a take: scores read
    # [g | net | f | pad], the update [-g | b | 0 | y].  Clamped mode moves all
    # offered service, so its routed transfers are y_offered's.
    score_tab = np.concatenate([g, scenario.net, f[..., None], scenario.pad[..., None]],
                               axis=2).transpose(2, 1, 0).copy()  # (m + 2, A, S)
    y_tab = scenario.y_offered if clamped else scenario.y
    update_tab = np.concatenate([-g, scenario.b, np.zeros_like(g), y_tab],
                                axis=2).reshape(n_sa, 2 * m).T.copy()  # (2m, S * A)
    arrival_table = np.zeros((k, max(s.table.size for s in scenario.arrivals)))
    for q_idx, spec in enumerate(scenario.arrivals):
        arrival_table[q_idx, : spec.table.size] = spec.table
    # The flat index omega * A + action as recorded; its dtype holds every index and A.
    c_dtype = np.min_scalar_type(max(n_sa - 1, n_a))

    sink = None if reducer is None else reducer(n, horizon)
    backlog_sum = OrderedSum(n, horizon) if sink is None else None
    # Slots per lane and (omega, action), at lane * S * A + omega * A + action.
    counts, lane_base = np.zeros(n * n_sa, dtype=np.int64), np.arange(n) * n_sa
    n_rec = horizon if record_slots is None else min(horizon, record_slots)
    s_rec, c_rec = np.zeros((record, n_rec + 1, m)), np.zeros((n_rec, record), dtype=c_dtype)

    # One replication puts every lane in one state at each slot: the scores
    # read a per-state table if it fits the budget, and the blocks get what
    # it leaves; else each block gathers its lanes' rows.
    table_bytes = 8 * n_sa * (m + 1) * n
    per_state = n_a > 1 and reps.size == 1 and table_bytes <= _BLOCK_BYTES
    gather = n_a > 1 and not per_state
    block = max(1, (_BLOCK_BYTES - per_state * table_bytes)
                // (n * _lane_slot_bytes(n_a, k, n_l, gather) + _SLOT_VIEW_BYTES))
    # Slot-start states s = [Z; Q; 1] of one block: s_buf[j] is the state at
    # slot t0 + j.  Scores take all of it with a unit action axis, so the
    # constant last row adds V f + pad; the update reads and writes [Z; Q].
    s_buf = np.zeros((block + 1, m + 1, n))
    s_buf[:, m] = 1.0
    s_col, zq_buf, q_buf = s_buf[:, :, None], s_buf[:, :m], s_buf[:, n_l:m]
    z_tot = np.empty((block, n)) if with_virtual else None
    # One block's gathered score tables (on the gather path), flat indices and
    # arrivals, in buffers that every block reuses.  The indices are intp,
    # the dtype that the update's take reads without a copy.
    tabs_buf = np.empty((m + 2, n_a, block, n)) if gather else None
    ix_buf, arr_buf = np.empty((block, n), dtype=np.intp), np.empty((block, k, n))
    score_rows = tabs_buf[: m + 1].transpose(2, 0, 1, 3) if gather else [None] * block
    # The views that slot j of a block reads, made once: its index row and
    # arrivals, and the states [Z; Q; 1], [Z; Q] and Q at its start and end.
    slot_views = list(zip(ix_buf, arr_buf, zq_buf, s_col, zq_buf[1:], q_buf[1:]))
    # Per-slot scratch, overwritten every slot.
    prod, scores = np.empty((m + 1, n_a, n)), np.empty((n_a, n))
    best, upd = np.empty(n, dtype=np.intp), np.empty((2 * m, n))
    sub, add, kept, moved = upd[:m], upd[m:], np.empty((m, n)), np.empty((m, n))
    # A run of routes (src, dst), (src + 1, dst + 1), ... adds as one slice.
    routes = [] if clamped else [(add[n_l + dst : n_l + dst + r], moved[n_l + src : n_l + src + r])
                                 for src, dst, r in _route_runs(scenario.routing)]
    arrival_flat, queue_base = arrival_table.ravel(), np.arange(k) * arrival_table.shape[1]

    t0 = 0
    # A backlog, score or sum past the float range stops the run.
    with np.errstate(over="raise", invalid="raise"):
        if per_state:
            # table[omega] holds state omega's rows [g | net | V f + pad],
            # (m + 1, A, lanes), contiguous; V f + pad as the gather path adds it.
            table = np.empty((n_sa // n_a, m + 1, n_a, n))
            table[:, :m] = score_tab[:m].transpose(2, 0, 1)[..., None]
            np.multiply(f[..., None], v, out=table[:, m])
            table[:, m] += scenario.pad[..., None]
            table_rows = list(table)
        for omega, arrival_ix in sample_paths(scenario.omega_chain, scenario.arrivals, seed,
                                              horizon, reps):
            nb_s = omega.shape[0]
            if t0 == 0:  # the first block fixes the block size
                tot_buf = np.empty((n, nb_s))
            tot = tot_buf[:, :nb_s]
            for j0 in range(0, nb_s, block):
                nb = min(block, nb_s - j0)
                # Gather one block of slots' columns at once, into the buffers
                # that the slots read.
                w = omega[j0 : j0 + nb].take(lane_rep, axis=1)
                ix = np.multiply(w, n_a, out=ix_buf[:nb], dtype=np.intp)
                if gather:
                    tabs = tabs_buf[:, :, :nb]
                    score_tab.take(w, axis=2, out=tabs, mode="clip")
                    vf = np.multiply(tabs[m], v, out=tabs[m])  # V f + pad, in the f row
                    vf += tabs[m + 1]
                # One replication: slot j reads its state's table rows in place.
                rows_j = (map(table_rows.__getitem__, omega[j0 : j0 + nb, 0].tolist())
                          if per_state else score_rows[:nb])
                arr_ix = arrival_ix[j0 : j0 + nb].take(lane_rep, axis=1) + queue_base
                # arrival_table[q, arr_ix[..., q]]
                arrival_flat.take(arr_ix.transpose(0, 2, 1), out=arr_buf[:nb], mode="clip")
                for (row, arr_j, s, s_c, s_next, q_next), score_j in zip(slot_views[:nb], rows_j):
                    if n_a > 1:  # else the state's one action is the argmin
                        # sum_t [g | net | V f + pad][t] * [Z; Q; 1][t], added in
                        # the order t = 0..m; IEEE addition commutes, so this is
                        # (V f + pad) + the [g | net] terms added in order.
                        np.add.reduce(np.multiply(score_j, s_c, out=prod), axis=0, out=scores)
                        row += scores.argmin(axis=0, out=best)
                    update_tab.take(row, axis=1, out=upd, mode="clip")
                    np.subtract(s, np.minimum(sub, s, out=moved), out=kept)
                    for dst, src in routes:
                        dst += src
                    np.add(kept, add, out=s_next)
                    np.add(q_next, arr_j, out=q_next)
                # Each lane's total, in queue order, through the transposed view.
                tot_j = _add_rows(q_buf[:nb], out=tot[:, j0 : j0 + nb].T)
                if with_virtual:
                    tot_j += _add_rows(s_buf[:nb, :n_l], out=z_tot[:nb])
                if sink is None:
                    counts += np.bincount((ix + lane_base).ravel(), minlength=counts.size)
                nb_rec = max(0, min(nb, n_rec - t0 - j0))  # recorded slots of this block
                s_rec[:, t0 + j0 + 1 : t0 + j0 + nb_rec + 1] = (
                    zq_buf[1 : nb_rec + 1, :, :record].transpose(2, 0, 1))
                c_rec[t0 + j0 : t0 + j0 + nb_rec] = ix[:nb_rec, :record]
                s_buf[0] = s_buf[nb]
            # Hand the block to the consumers, each lane's values contiguous.
            if sink is not None:
                sink.add(t0, tot)
            else:
                backlog_sum.add(tot)
            t0 += nb_s
        sums = [None] * 3
        if sink is None:
            # Each lane's counts times the tables, added in (omega, action) order.
            counts = counts.reshape(n, -1).T
            sums = [backlog_sum.total, np.cumsum(counts * f_flat[:, None], axis=0)[-1],
                    np.cumsum(counts[..., None] * g_flat[:, None], axis=0)[-1]]

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
    return DppBatchResult(*sums, runs, sink)


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

    b_total = 0.0
    d_total = 0.0
    for w, n_act in enumerate(map(len, scenario.names)):
        y, b, g = scenario.y_offered[w, :n_act], scenario.b[w, :n_act], scenario.g[w, :n_act]
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
    # Builtin min/max in (omega, action) order keep the first zero's sign.
    f_real = scenario.f[scenario.real].tolist()
    f_min, f_max = min(f_real), max(f_real)
    return DriftConstants(
        B=float(b_total), D=float(d_total), T=t_mix, d_max=d_max,
        f_opt=cap.f_opt, f_min=f_min, f_max=f_max, delta=delta,
    )
