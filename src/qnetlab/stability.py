"""Stability diagnostics over trace ensembles.

Four stability notions are estimated from finite traces:

* rate stability        -- per-path backlog slope Q(t)/t -> 0,
* mean rate stability   -- ensemble-mean slope E[Q(t)]/t -> 0,
* steady-state stability-- time-average tail occupancy g(M) -> 0 as M grows,
* strong stability      -- finite time-average expected backlog.

The definitions are asymptotic; this module applies documented finite-horizon
proxies: slopes are read at the final slot, the tail curve g(M)
is evaluated on a geometric M-grid, and strong stability uses a plateau test
on the running average across the final doubling.  The module also ships the
three classic pathological processes that separate the notions, plus the
Bernoulli/Bernoulli/1 closed forms used as golden values.  The two random
ones return only the statistics their report reads (column sums, a count of
replications or a spike flag per replication), never the (replications x
horizon) backlog.  ``VerdictReducer`` estimates a verdict the same way, from
per-replication sums and histograms fed one time block at a time.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .processes import make_rng

__all__ = [
    "VerdictThresholds",
    "StabilityVerdict",
    "VerdictReducer",
    "geometric_checkpoints",
    "single_queue_path",
    "estimate_verdict",
    "bb1_closed_form",
    "cex_rate_not_mean",
    "cex_mean_not_rate",
    "cex_strong_not_rate",
    "verdict_report_items",
    "curve_rows",
]

# Largest time index allowed for the doubling counter-example: values reach
# 2^(2t), and 2^80 is still exactly representable in float64.
RATE_NOT_MEAN_MAX_SLOTS = 41

# Shortest horizon, in slots, that a stability verdict is estimated on.
MIN_VERDICT_HORIZON = 1000

# Float64 uniforms per row block of mean-not-rate's draw: 163 rows at 200
# slots.  Measured on the 100,000 x 200 report, whole-process peak RSS
# 35 MB at 256 KB and 41 MB at 4 MB, with no faster time at 4 MB.
_CEX_BLOCK_BYTES = 1 << 18

# Cells per bincount of VerdictReducer's histograms, and the most bins per
# lane and slot of a chunk that one bincount may count.
_HIST_CHUNK_CELLS = 1 << 15
_HIST_SPAN_PER_SLOT = 4


def geometric_checkpoints(horizon: int) -> np.ndarray:
    """Powers of two below ``horizon`` plus the final slot index."""
    if horizon < 2:
        raise ValueError("horizon must be >= 2 to define checkpoints")
    points = [1 << j for j in range(horizon.bit_length()) if (1 << j) < horizon]
    if points[-1] != horizon - 1:
        points.append(horizon - 1)
    return np.asarray(points, dtype=np.int64)


class VerdictThresholds(NamedTuple):
    """Finite-horizon classification thresholds (documented proxies).

    The steady-state verdict additionally requires the rate slope to pass:
    on a divergent trace the M-grid top (a multiple of the empirical mean)
    outruns the maximum backlog and the tail estimate degenerates to zero, so
    tail decay is only meaningful on non-divergent traces.
    """

    slope_tol: float = 0.01          # rate / mean-rate: final-checkpoint slope
    tail_tol: float = 0.05           # steady-state: g(M_max) at the grid top
    plateau_rel: float = 0.10        # strong: relative drift across last doubling
    m_grid_points: int = 16          # geometric M-grid size
    m_max_multiplier: float = 20.0   # M_max = multiplier * empirical mean backlog
    min_reps_mean_rate: int = 100    # ensemble size needed for E[Q(t)]/t estimates


class StabilityVerdict(NamedTuple):
    """Estimates plus the four-way classification (mean rate: None when the
    ensemble is too small for it)."""

    rate_slope: float
    mean_rate_slope: float | None
    strong_metric: float
    m_grid: np.ndarray
    g_curve: np.ndarray
    h_mean: np.ndarray
    h_p05: np.ndarray
    h_p95: np.ndarray
    rate_stable: bool
    mean_rate_stable: bool | None
    steady_state_stable: bool
    strongly_stable: bool
    running_mean_half: float
    running_mean_full: float
    thresholds: VerdictThresholds


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
    q = np.empty(a.size + 1)
    q[0] = q0
    _reflection(a, b, q0, out=q[1:])
    return q


def _reflection(a: np.ndarray, b: np.ndarray, q0, out: np.ndarray) -> np.ndarray:
    """``Q(1..n)`` of ``q' = max(q - b, 0) + a`` from ``Q(0) = q0``, into
    ``out``: the reflection identity of ``single_queue_path`` along axis 0,
    so a 2-d ``a`` holds one path per column and ``q0`` one start per
    column.  ``out`` may be ``a``."""
    s = np.subtract(a, b)
    np.cumsum(s, axis=0, out=s)  # S(1..n)
    peak = np.subtract(a, s)
    np.maximum.accumulate(peak, axis=0, out=peak)
    np.add(s, peak, out=peak)
    return np.maximum(np.add(s, q0, out=s), peak, out=out)


def _m_grid(mean_backlog: float, thresholds: VerdictThresholds) -> np.ndarray:
    m_max = max(thresholds.m_max_multiplier * mean_backlog, 1.0)
    if m_max <= 1.0:
        return np.array([1.0])
    return np.geomspace(1.0, m_max, thresholds.m_grid_points)


# The two order statistics below give numpy's bits for NaN-free input without
# its NaN checks, which import numpy.ma (10-20 ms and ~1.3 MB of peak RSS per
# process).


def _median(a: np.ndarray) -> np.ndarray | np.float64:
    """``np.median(a, axis=0)``: the middle value, or the mean of the two."""
    n = a.shape[0]
    part = np.partition(a, [(n - 1) // 2, n // 2], axis=0)
    mid = part[n // 2] if n % 2 else part[n // 2 - 1] + part[n // 2]
    # np.mean's sum starts at +0.0, which turns a -0.0 into 0.0.
    return (mid + 0.0) / (2 - n % 2)


def _percentile(a: np.ndarray, q: float) -> np.ndarray:
    """``np.percentile(a, q, axis=0)``, linear method, for a 2-d ``a``."""
    n = a.shape[0]
    v = (n - 1) * (q / 100)
    lo = -1 if v >= n - 1 else math.floor(v)
    hi = -1 if lo == -1 else lo + 1
    g = v - lo
    # numpy's kth list: it decides where 0.0 and -0.0 land among equal values.
    part = np.partition(a, sorted({0, -1, lo, hi}), axis=0)
    below, above = part[lo], part[hi]
    diff = above - below
    # numpy's _lerp: exact at both ends, monotone in g.
    return above - diff * (1 - g) if g >= 0.5 else below + diff * g


def _check_verdict_horizon(horizon: int) -> None:
    """Raise ``ValueError`` when ``horizon`` is below ``MIN_VERDICT_HORIZON``."""
    if horizon < MIN_VERDICT_HORIZON:
        raise ValueError("verdicts need a horizon of at least 1e3 slots")


def estimate_verdict(
    backlog: np.ndarray, thresholds: VerdictThresholds = VerdictThresholds()
) -> StabilityVerdict:
    """Estimate the four stability notions from backlog paths
    ``backlog[r, t]``, one row per replication, slots ``t = 0..horizon-1``.

    Slopes Q(t)/t are read at the final slot.  The mean-rate estimate
    averages the slopes across replications; it is made only when there are
    at least ``thresholds.min_reps_mean_rate`` replications, and is None
    otherwise.

    Two passes over ``backlog``: slopes and means first, then the tail
    curves on the M-grid those means fix.  Sums over replications are taken
    in replication order, so a verdict does not depend on how the ensemble
    was produced.
    """
    q = np.asarray(backlog, dtype=float)
    if q.ndim != 2:
        raise ValueError("backlog must be a (n_reps, horizon) matrix")
    if not np.min(q, initial=0.0) >= 0:  # NaN fails too
        raise ValueError("backlogs must be non-negative numbers")
    horizon = q.shape[1]
    _check_verdict_horizon(horizon)
    t_half = max((horizon - 1) // 2, 1)
    return _verdict(q[:, -1], q.sum(axis=1), q[:, : t_half + 1].sum(axis=1), horizon,
                    partial(_counts_at_most, q), thresholds)


def _counts_at_most(q: np.ndarray, m_grid: np.ndarray) -> np.ndarray:
    """``(n_reps, m)`` counts of each row's values ``<= M``, one sort per row."""
    counts = np.empty((q.shape[0], m_grid.size), dtype=np.intp)
    for r, row in enumerate(q):
        counts[r] = np.searchsorted(np.sort(row), m_grid, side="right")
    return counts


def _verdict(
    final: np.ndarray,
    row_sums: np.ndarray,
    half_sums: np.ndarray,
    horizon: int,
    at_most,
    thresholds: VerdictThresholds,
) -> StabilityVerdict:
    """The verdict from each replication's final backlog, its sum over every
    slot and over slots ``0..t_half``, and ``at_most(m_grid)``: the
    ``(n_reps, m)`` counts of slots with ``Q <= M``."""
    n_reps = final.size
    if n_reps < 1:
        raise ValueError("ensembles need at least one replication")
    t_final = horizon - 1
    t_half = max(t_final // 2, 1)

    # Pass 1: slopes, overall mean, running means for the plateau test.
    finals = final / t_final
    rate_slope = float(_median(finals))
    mean_rate_slope = (
        float(np.mean(finals)) if n_reps >= thresholds.min_reps_mean_rate else None
    )

    def ordered_sum(sums: np.ndarray) -> float:
        return float(np.cumsum(sums)[-1])

    mean_backlog = ordered_sum(row_sums) / (n_reps * horizon)
    strong_metric = mean_backlog  # time average of the ensemble-mean backlog
    running_half = ordered_sum(half_sums) / (n_reps * (t_half + 1))
    running_full = ordered_sum(row_sums) / (n_reps * (t_final + 1))
    plateau = abs(running_full - running_half) <= thresholds.plateau_rel * max(
        running_half, 1e-12
    )

    # Pass 2: per-path tail occupancy h(M) = fraction of slots with Q > M.
    # C order: it fixes the summation order of h_mean.
    m_grid = _m_grid(mean_backlog, thresholds)
    h_per_path = np.empty((n_reps, m_grid.size))
    np.divide(horizon - at_most(m_grid), horizon, out=h_per_path)
    g_curve = np.cumsum(h_per_path, axis=0)[-1] / n_reps
    h_mean = h_per_path.mean(axis=0)
    h_p05 = _percentile(h_per_path, 5)
    h_p95 = _percentile(h_per_path, 95)

    return StabilityVerdict(
        rate_slope=rate_slope,
        mean_rate_slope=mean_rate_slope,
        strong_metric=strong_metric,
        m_grid=m_grid,
        g_curve=g_curve,
        h_mean=h_mean,
        h_p05=h_p05,
        h_p95=h_p95,
        rate_stable=rate_slope <= thresholds.slope_tol,
        mean_rate_stable=(
            None if mean_rate_slope is None else mean_rate_slope <= thresholds.slope_tol
        ),
        steady_state_stable=(
            float(g_curve[-1]) <= thresholds.tail_tol
            and rate_slope <= thresholds.slope_tol
        ),
        strongly_stable=bool(plateau),
        running_mean_half=float(running_half),
        running_mean_full=float(running_full),
        thresholds=thresholds,
    )


class VerdictReducer:
    """``estimate_verdict`` of integer-valued backlogs, fed a time block at a
    time, so the ``(n_lanes, horizon)`` matrix is not held while the
    backlogs span a narrow range.

    Per lane it keeps the sum over every slot and over slots ``0..t_half``,
    the final value and a histogram of the values.  Sums of integers below
    2^53 are exact in any order, and for integer ``Q`` the count of slots
    with ``Q <= M`` is the histogram cumulated up to ``floor(M)``, so
    ``verdict`` returns ``estimate_verdict``'s bits on the whole matrix.
    The histograms' memory grows with the lane count and the largest value,
    not with the horizon.  When a chunk spans more values per lane than
    ``_HIST_SPAN_PER_SLOT`` times its slots, or the histograms would need
    more than ``horizon // 2`` bins, the reducer keeps the values themselves
    instead (at most the whole matrix, as ``estimate_verdict`` takes it):
    the histograms so far expand into the sorted values they count, which
    give the same counts.
    """

    def __init__(self, n_lanes: int, horizon: int) -> None:
        _check_verdict_horizon(horizon)
        self.horizon = horizon
        self.t_half = max((horizon - 1) // 2, 1)
        self.row_sums = np.zeros(n_lanes)
        self.half_sums = np.zeros(n_lanes)
        self.final = np.zeros(n_lanes)
        self.hist: np.ndarray | None = np.zeros((n_lanes, 1), dtype=np.int64)
        self.values: np.ndarray | None = None  # (n_lanes, horizon) once hist is dropped

    def add(self, t0: int, block: np.ndarray) -> None:
        """Take slots ``t0 .. t0 + nb - 1`` of every lane: ``block[i, j]`` is
        lane ``i``'s non-negative integer backlog at slot ``t0 + j``."""
        n, nb = block.shape
        self.row_sums += block.sum(axis=1)
        if t0 <= self.t_half:
            self.half_sums += block[:, : self.t_half + 1 - t0].sum(axis=1)
        if t0 + nb == self.horizon:
            self.final[:] = block[:, -1]
        c0 = 0
        if self.hist is not None:
            cols = max(1, _HIST_CHUNK_CELLS // max(n, 1))
            while c0 < nb and self._count(block[:, c0 : c0 + cols]):
                c0 += cols
            if c0 < nb:
                self._keep_values(t0 + c0)
        if self.values is not None:
            self.values[:, t0 + c0 : t0 + nb] = block[:, c0:]

    def _count(self, chunk: np.ndarray) -> bool:
        """Add one chunk to the histograms: one ``bincount``, each lane's
        values shifted to start at its minimum and offset by its lane.
        False, with nothing added, when the chunk is too wide for that."""
        n, cols = chunk.shape
        v = chunk.astype(np.intp)
        lo, hi = v.min(axis=1), v.max(axis=1)
        if lo.min() < 0:
            raise ValueError("backlogs must be non-negative numbers")
        span = int((hi - lo).max()) + 1
        width = int(lo.max()) + span
        if span > _HIST_SPAN_PER_SLOT * cols or width > self.horizon // 2:
            return False
        v -= (lo - np.arange(0, n * span, span))[:, None]
        counts = np.bincount(v.ravel(), minlength=n * span).reshape(n, span)
        if width > self.hist.shape[1]:
            grown = np.zeros((n, min(max(width, 2 * self.hist.shape[1]), self.horizon // 2)),
                             dtype=np.int64)
            grown[:, : self.hist.shape[1]] = self.hist
            self.hist = grown
        rows = np.arange(n)[:, None]
        self.hist[rows, lo[:, None] + np.arange(span)] += counts
        return True

    def _keep_values(self, seen: int) -> None:
        """Drop the histograms for the values: each lane's first ``seen``
        slots become the sorted values its histogram counts."""
        self.values = np.empty((self.final.size, self.horizon))
        bins = np.arange(self.hist.shape[1], dtype=float)
        for row, counts in zip(self.values, self.hist):
            row[:seen] = bins.repeat(counts)
        self.hist = None

    @classmethod
    def concat(cls, parts: Sequence[VerdictReducer]) -> VerdictReducer:
        """One reducer whose lanes are those of ``parts``, in order; it keeps
        values if any part does."""
        merged = cls(0, parts[0].horizon)
        for name in ("row_sums", "half_sums", "final"):
            setattr(merged, name, np.concatenate([getattr(part, name) for part in parts]))
        if any(part.values is not None for part in parts):
            for part in parts:
                if part.values is None:
                    part._keep_values(part.horizon)
            merged.hist, merged.values = None, np.concatenate([part.values for part in parts])
            return merged
        width = max(part.hist.shape[1] for part in parts)
        merged.hist = np.concatenate(
            [np.pad(part.hist, ((0, 0), (0, width - part.hist.shape[1]))) for part in parts])
        return merged

    def verdict(self, thresholds: VerdictThresholds = VerdictThresholds()) -> StabilityVerdict:
        """``estimate_verdict`` of the backlogs added so far, which must
        cover every slot of the horizon."""
        if self.values is not None:
            return _verdict(self.final, self.row_sums, self.half_sums, self.horizon,
                            partial(_counts_at_most, self.values), thresholds)
        top = self.hist.shape[1] - 1

        def at_most(m_grid: np.ndarray) -> np.ndarray:
            # One prefix sum per grid point: no cumulated copy of the bins.
            cols = np.minimum(m_grid, top).astype(np.intp)
            return np.stack([self.hist[:, : c + 1].sum(axis=1) for c in cols], axis=1)

        return _verdict(self.final, self.row_sums, self.half_sums, self.horizon, at_most,
                        thresholds)


def bb1_closed_form(lam: float, mu: float) -> tuple[float, float]:
    """Steady-state mean backlog and mean delay of the Bernoulli/Bernoulli/1
    queue with arrival rate ``lam`` and service rate ``mu``.

    ``Q_bar = lam (1 - lam) / (mu - lam)``, ``W_bar = (1 - lam) / (mu - lam)``.
    """
    if not (0.0 <= lam < 1.0 and 0.0 < mu <= 1.0):
        raise ValueError("need lam in [0, 1) and mu in (0, 1]")
    if lam >= mu:
        raise ValueError("no steady state: closed forms require lam < mu")
    return lam * (1.0 - lam) / (mu - lam), (1.0 - lam) / (mu - lam)


def cex_rate_not_mean(seed: int, horizon: int, n_reps: int) -> tuple[np.ndarray, int]:
    """Rate-stable but not mean-rate-stable: Q(t) = 4^t while t < T, else 0.

    T is geometric with Pr[T > t] = 2^-t, so E[Q(t)] = 2^t diverges while
    every individual path is eventually zero.  Horizon is capped so values
    (up to 2^80) stay exactly representable.

    All ``n_reps`` stopping times are drawn, in replication order, from one
    ``make_rng(seed, 0)`` stream.  Returns the (n_reps, horizon) backlog's
    column sums, ``4^t * #{T > t}``, and the count of replications still
    running at ``horizon - 1`` (whose last value is ``4^(horizon - 1)``; every
    other is 0); the matrix itself is never built.
    """
    if not (2 <= horizon <= RATE_NOT_MEAN_MAX_SLOTS):
        raise ValueError(
            f"horizon must be in [2, {RATE_NOT_MEAN_MAX_SLOTS}] slots "
            "(backlogs reach 2^(2t))"
        )
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    rng = make_rng(seed, 0)
    t_stop = rng.geometric(0.5, size=n_reps)  # support {1, 2, ...}
    values = np.exp2(2.0 * np.arange(horizon))
    stopped = np.cumsum(np.bincount(np.minimum(t_stop, horizon), minlength=horizon + 1))
    column_sums = values * (n_reps - stopped[:horizon])
    return column_sums, int(n_reps - stopped[horizon - 1])


def cex_mean_not_rate(seed: int, horizon: int, n_reps: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean-rate-stable but not rate-stable: independent slots with
    Q(t) = t w.p. 1/t, else 0, so E[Q(t)] = 1 while spikes Q(t) = t recur.

    One uniform per (replication, slot) comes from one ``make_rng(seed, 0)``
    stream in row-major order: replication 0's ``horizon`` slots, then
    replication 1's, and so on; slot ``t`` spikes when its uniform is below
    ``1/t`` (never at t = 0).  The uniforms are drawn in row blocks of
    ``_CEX_BLOCK_BYTES``, which continue that order.  Returns the
    (n_reps, horizon) backlog's column sums, ``t * #{Q(t) = t}``, and per
    replication whether it spiked in ``[horizon // 2, horizon)``.
    """
    if horizon < 10:
        raise ValueError("horizon must be >= 10")
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    rng = make_rng(seed, 0)
    t_idx = np.arange(horizon, dtype=float)
    prob = np.zeros(horizon)
    prob[1:] = 1.0 / t_idx[1:]
    rows = max(1, _CEX_BLOCK_BYTES // (8 * horizon))
    hits = np.zeros(horizon, dtype=np.int64)
    spiked = np.empty(n_reps, dtype=bool)
    for r0 in range(0, n_reps, rows):
        spikes = rng.random((min(rows, n_reps - r0), horizon)) < prob
        hits += spikes.sum(axis=0)
        spikes[:, horizon // 2 :].any(axis=1, out=spiked[r0 : r0 + spikes.shape[0]])
    return hits * t_idx, spiked


def cex_strong_not_rate(horizon: int) -> np.ndarray:
    """Strongly stable but not rate-stable: the deterministic path Q(t) = t at
    powers of two, else 0.  The running average tends to 2 while
    Q(2^n)/2^n = 1.

    ``horizon`` must be a power of two plus one so the trace ends exactly at
    a spike.
    """
    if horizon < 3 or not _is_power_of_two(horizon - 1):
        raise ValueError("horizon must be a power of two plus one")
    path = np.zeros(horizon)
    t = 1
    while t < horizon:
        path[t] = float(t)
        t *= 2
    return path


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def verdict_report_items(verdict: StabilityVerdict) -> list[tuple[str, object]]:
    """Flat key=value items for the report file."""
    items: list[tuple[str, object]] = [
        ("rate_slope", verdict.rate_slope),
        ("mean_rate_slope", verdict.mean_rate_slope),
        ("strong_metric", verdict.strong_metric),
        ("g_at_m_max", float(verdict.g_curve[-1])),
        ("m_max", float(verdict.m_grid[-1])),
        ("running_mean_half", verdict.running_mean_half),
        ("running_mean_full", verdict.running_mean_full),
        ("rate_stable", verdict.rate_stable),
        ("mean_rate_stable", verdict.mean_rate_stable),
        ("steady_state_stable", verdict.steady_state_stable),
        ("strongly_stable", verdict.strongly_stable),
        ("threshold_slope", verdict.thresholds.slope_tol),
        ("threshold_tail", verdict.thresholds.tail_tol),
        ("threshold_plateau_rel", verdict.thresholds.plateau_rel),
    ]
    return items


def curve_rows(verdict: StabilityVerdict) -> list[tuple[float, float, float, float, float]]:
    """Rows (M, g, h_mean, h_p05, h_p95) for the curves CSV."""
    return [
        (
            float(verdict.m_grid[i]),
            float(verdict.g_curve[i]),
            float(verdict.h_mean[i]),
            float(verdict.h_p05[i]),
            float(verdict.h_p95[i]),
        )
        for i in range(verdict.m_grid.size)
    ]
