"""Stability diagnostics over trace ensembles.

Four stability notions are estimated from finite traces:

* rate stability        -- per-path backlog slope Q(t)/t -> 0,
* mean rate stability   -- ensemble-mean slope E[Q(t)]/t -> 0,
* steady-state stability-- time-average tail occupancy g(M) -> 0 as M grows,
* strong stability      -- finite time-average expected backlog.

The definitions are asymptotic; this module applies documented finite-horizon
proxies: slopes are read at the final slot, the tail curve g(M) is
evaluated on a fixed quarter-octave M-grid, and strong stability uses a
plateau test on the running average across the final doubling.
``VerdictReducer`` estimates a verdict from backlogs fed one time block at a
time, in one pass, never from a (replications x horizon) array;
``OrderedSum`` gives its sums numpy's bits.
The module also ships the three classic pathological processes that
separate the notions, plus the Bernoulli/Bernoulli/1 closed forms used as
golden values.  The counter-examples return only the statistics their
report reads (column sums, a count of replications, a spike flag per
replication, or the spike times), never the backlog itself.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .processes import make_rng

__all__ = [
    "StabilityVerdict",
    "VerdictReducer",
    "OrderedSum",
    "geometric_checkpoints",
    "bb1_closed_form",
    "cex_rate_not_mean",
    "cex_mean_not_rate",
    "cex_strong_not_rate",
    "verdict_report_items",
]

# Largest time index allowed for the doubling counter-example: values reach
# 2^(2t), and 2^80 is still exactly representable in float64.
RATE_NOT_MEAN_MAX_SLOTS = 41

# Shortest horizon, in slots, that a stability verdict is estimated on.
MIN_VERDICT_HORIZON = 1000

# Bytes per chunk of mean-not-rate's replications, each holding about five
# 8-byte values per round (times, indices, uniforms, survivors): 6,553 of them.
_CEX_BLOCK_BYTES, _CEX_REP_BYTES = 1 << 18, 40

# Cells per chunk that VerdictReducer keys and counts by one bincount.
_COUNT_CHUNK_CELLS = 1 << 15

# numpy's pairwise float sum: spans of at most this many values are one
# leaf, summed by one np.add.reduce (pairwise_sum in loops_utils.h.src).
_PAIRWISE_LEAF = 128


def geometric_checkpoints(horizon: int) -> np.ndarray:
    """Powers of two below ``horizon`` plus the final slot index."""
    if horizon < 2:
        raise ValueError("horizon must be >= 2 to define checkpoints")
    points = [1 << j for j in range(horizon.bit_length()) if (1 << j) < horizon]
    if points[-1] != horizon - 1:
        points.append(horizon - 1)
    return np.asarray(points, dtype=np.int64)


# Finite-horizon classification thresholds (documented proxies).  The
# steady-state verdict reads g at M_max, the first grid point at or above
# M_MAX_MULTIPLIER times the mean backlog, and also requires the rate slope to
# pass.  By Markov's inequality on the pooled empirical measure,
# g(M) <= mean / M, so g(M_max) <= 1 / M_MAX_MULTIPLIER = TAIL_TOL: the tail
# test always passes, and the steady-state verdict is the rate verdict.
SLOPE_TOL = 0.01          # rate / mean-rate: final-checkpoint slope
TAIL_TOL = 0.05           # steady-state: g(M_max) at the grid top
PLATEAU_REL = 0.10        # strong: relative drift across last doubling
M_MAX_MULTIPLIER = 20.0   # M_max >= multiplier * empirical mean backlog
MIN_REPS_MEAN_RATE = 100  # ensemble size needed for E[Q(t)]/t estimates


class StabilityVerdict(NamedTuple):
    """Estimates plus the four-way classification (mean rate: None when the
    ensemble is too small for it).  ``strong_metric`` is also the running
    mean over the whole horizon, and ``g_curve`` the mean of the per-path
    tail fractions whose percentiles are ``h_p05`` and ``h_p95``."""

    rate_slope: float
    mean_rate_slope: float | None
    strong_metric: float
    m_grid: np.ndarray
    g_curve: np.ndarray
    h_p05: np.ndarray
    h_p95: np.ndarray
    rate_stable: bool
    mean_rate_stable: bool | None
    steady_state_stable: bool
    strongly_stable: bool
    running_mean_half: float


def _grid_keys(values: np.ndarray) -> np.ndarray:
    """Per value, the least ``i`` with ``value <= M_i`` on the quarter-octave
    grid ``M_i = 2^(i//4) (1 + (i%4)/4)``, from frexp's ``value = m 2^e``, m
    in [0.5, 1): ``4 (e - 1) + ceil(8m - 4) = 4e + ceil(8m) - 8``, at least
    0, as floats.  Every step is exact, and infinity stays infinite."""
    m, e = np.frexp(values)
    key = np.ceil(np.multiply(m, 8.0, out=m), out=m)
    key += 4 * e - 8
    return np.maximum(key, 0.0, out=key)


def _m_grid(mean_backlog: float) -> np.ndarray:
    """``M_0 = 1 .. M_max``, the first grid point >= multiplier * mean: each an
    exact power of two times 1, 1.25, 1.5 or 1.75.  An infinite mean raises
    ``OverflowError``."""
    i = np.arange(int(_grid_keys(np.array([M_MAX_MULTIPLIER * mean_backlog]))[0]) + 1)
    return np.ldexp(1 + (i % 4) / 4, i // 4)


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


def _verdict(
    final: np.ndarray,
    row_sums: np.ndarray,
    half_sums: np.ndarray,
    horizon: int,
    at_most,
) -> StabilityVerdict:
    """The verdict from each replication's final backlog, its sum over every
    slot and over slots ``0..t_half``, and ``at_most(m_grid)``: the
    ``(n_reps, m)`` counts of slots with ``Q <= M`` on the first m points of
    the quarter-octave grid."""
    n_reps = final.size
    if n_reps < 1:
        raise ValueError("ensembles need at least one replication")
    t_final = horizon - 1
    t_half = max(t_final // 2, 1)

    def ordered_sum(sums: np.ndarray) -> float:
        return float(np.cumsum(sums)[-1])

    # A sum over replications past the float range raises
    # ``FloatingPointError``, as the kernel's sums do.
    with np.errstate(over="raise", invalid="raise"):
        # Pass 1: slopes, overall mean, running means for the plateau test.
        finals = final / t_final
        rate_slope = float(_median(finals))
        mean_rate_slope = float(np.mean(finals)) if n_reps >= MIN_REPS_MEAN_RATE else None

        # The time average of the ensemble-mean backlog: the running mean over
        # the whole horizon.
        mean_backlog = ordered_sum(row_sums) / (n_reps * horizon)
        running_half = ordered_sum(half_sums) / (n_reps * (t_half + 1))
        plateau = abs(mean_backlog - running_half) <= PLATEAU_REL * max(running_half, 1e-12)

        # Pass 2: per-path tail occupancy h(M) = fraction of slots with Q > M,
        # and its mean over replications, added in replication order.
        m_grid = _m_grid(mean_backlog)
        h_per_path = (horizon - at_most(m_grid)) / horizon
        g_curve = np.cumsum(h_per_path, axis=0)[-1] / n_reps
        h_p05 = _percentile(h_per_path, 5)
        h_p95 = _percentile(h_per_path, 95)

    return StabilityVerdict(
        rate_slope=rate_slope,
        mean_rate_slope=mean_rate_slope,
        strong_metric=mean_backlog,
        m_grid=m_grid,
        g_curve=g_curve,
        h_p05=h_p05,
        h_p95=h_p95,
        rate_stable=rate_slope <= SLOPE_TOL,
        mean_rate_stable=None if mean_rate_slope is None else mean_rate_slope <= SLOPE_TOL,
        steady_state_stable=float(g_curve[-1]) <= TAIL_TOL and rate_slope <= SLOPE_TOL,
        strongly_stable=bool(plateau),
        running_mean_half=float(running_half),
    )


class OrderedSum:
    """Each row's sum of ``n`` values fed a block of columns at a time, with
    the bits of numpy's sum of the whole row.  numpy sums at most
    ``_PAIRWISE_LEAF`` values as one leaf and splits more at ``n // 2``
    rounded down to a multiple of 8; the walk descends that tree one leaf at
    a time, keeping the right halves still to come on ``todo`` (-1 marks a
    merge), so its state is O(log n).  Each leaf is summed once its last
    value arrives, then merged up the tree.  ``total`` is set once all ``n``
    are in.  Block rows must be contiguous."""

    def __init__(self, rows: int, n: int) -> None:
        self.n, self.seen, self.todo, self.stack, self.total = n, 0, [n], [], None
        self.carry, self.filled = np.empty((rows, min(n, _PAIRWISE_LEAF))), 0
        self._descend()

    def _descend(self) -> None:
        """Merge what the finished leaf completes, then split down to the next
        leaf, whose length becomes ``size``."""
        while self.todo and self.todo[-1] == -1:
            self.todo.pop()
            self.stack[-2:] = [self.stack[-2] + self.stack[-1]]
        if not self.todo:
            self.total, self.carry = self.stack[0], None
            return
        m = self.todo.pop()
        while m > _PAIRWISE_LEAF:
            half = m // 2 - m // 2 % 8
            self.todo += [-1, m - half]
            m = half
        self.size = m

    def add(self, block: np.ndarray) -> None:
        """Take the next ``block.shape[1]`` values of every row."""
        nb = block.shape[1]
        if self.seen + nb > self.n:
            raise ValueError(f"more than the {self.n} values this sum was made for")
        self.seen += nb
        j = 0
        while j < nb:
            size = self.size
            take = min(size - self.filled, nb - j)
            if take == size:  # the whole leaf is in this block
                value = np.add.reduce(block[:, j : j + size], axis=1)
            else:
                self.carry[:, self.filled : self.filled + take] = block[:, j : j + take]
                self.filled += take
                if self.filled < size:
                    return
                value = np.add.reduce(self.carry[:, :size], axis=1)
                self.filled = 0
            j += take
            self.stack.append(value)
            self._descend()


class VerdictReducer:
    """The stability verdict of backlogs fed a time block at a time, in one
    pass.  Per lane it keeps the final value, the sums over every slot and
    over slots ``0..t_half``, and the count of slots per key: the least grid
    index ``i`` with ``Q <= M_i`` (see ``_grid_keys``).  Counts are exact
    integers, so any cut into blocks or lanes gives the same bits."""

    def __init__(self, n_lanes: int, horizon: int) -> None:
        _check_verdict_horizon(horizon)
        self.horizon, self.t_half = horizon, max((horizon - 1) // 2, 1)
        self.sums = OrderedSum(n_lanes, horizon)
        self.half_sums = OrderedSum(n_lanes, self.t_half + 1)
        self.final = np.zeros(n_lanes)
        self.counts = np.zeros((n_lanes, 1), dtype=np.intp)  # grows to the largest key

    def add(self, t0: int, block: np.ndarray) -> None:
        """Take slots ``t0 .. t0 + nb - 1`` of every lane: ``block[i, j]`` is
        lane ``i``'s finite non-negative backlog at slot ``t0 + j``."""
        n, nb = block.shape
        if not block.min(initial=0.0) >= 0:  # NaN fails too
            raise ValueError("backlogs must be non-negative numbers")
        if block.max(initial=0.0) == math.inf:
            raise ValueError("backlogs must be finite")
        self.sums.add(block)
        if t0 <= self.t_half:
            self.half_sums.add(block[:, : self.t_half + 1 - t0])
        cols = max(1, _COUNT_CHUNK_CELLS // max(n, 1))
        for c0 in range(0, nb, cols):
            key = _grid_keys(block[:, c0 : c0 + cols]).astype(np.intp)
            width = max(self.counts.shape[1], int(key.max()) + 1)
            if width > self.counts.shape[1]:
                self.counts = np.pad(self.counts, ((0, 0), (0, width - self.counts.shape[1])))
            key += np.arange(0, n * width, width)[:, None]  # bin lane * width + key
            self.counts += np.bincount(key.ravel(), minlength=n * width).reshape(n, width)
        if t0 + nb == self.horizon:
            self.final[:] = block[:, -1]

    @classmethod
    def concat(cls, parts: Sequence[VerdictReducer]) -> VerdictReducer:
        """One reducer of the lanes of ``parts``, in order."""
        merged = cls(0, parts[0].horizon)
        for name in ("sums", "half_sums"):
            getattr(merged, name).total = np.concatenate([getattr(p, name).total for p in parts])
        merged.final = np.concatenate([part.final for part in parts])
        width = max(part.counts.shape[1] for part in parts)
        merged.counts = np.concatenate(
            [np.pad(part.counts, ((0, 0), (0, width - part.counts.shape[1]))) for part in parts])
        return merged

    def verdict(self) -> StabilityVerdict:
        """The verdict of every slot's backlogs."""
        at_most = np.cumsum(self.counts, axis=1)  # slots with Q <= M_i, per lane
        width = at_most.shape[1]
        return _verdict(self.final, self.sums.total, self.half_sums.total, self.horizon,
                        lambda m_grid: at_most[:, np.minimum(np.arange(m_grid.size), width - 1)])


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

    The draw jumps from spike to spike.  Every replication spikes at slot 1;
    after a spike at ``t`` no slot in ``t+1 .. s-1`` spikes w.p. ``t/(s-1)``,
    so the next spike is at ``floor(t / U) + 1`` with ``U = 1 - u`` in (0, 1].
    Replications advance in lockstep rounds, in chunks of
    ``_CEX_BLOCK_BYTES // _CEX_REP_BYTES``: each round draws one uniform ``u``
    per replication of the chunk still below ``horizon``, in replication
    order, from one ``make_rng(seed, 0)`` stream.  Returns the
    (n_reps, horizon) backlog's column sums, ``t * #{Q(t) = t}``, and per
    replication whether it spiked in ``[horizon // 2, horizon)``.
    """
    if horizon < 10:
        raise ValueError("horizon must be >= 10")
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    rng = make_rng(seed, 0)
    chunk = max(1, _CEX_BLOCK_BYTES // _CEX_REP_BYTES)
    hits = np.zeros(horizon, dtype=np.int64)
    spiked = np.zeros(n_reps, dtype=bool)
    for r0 in range(0, n_reps, chunk):
        rep = np.arange(r0, min(n_reps, r0 + chunk))
        t = np.ones(rep.size)
        while rep.size:
            hits += np.bincount(t.astype(np.intp), minlength=horizon)
            t = np.floor(t / (1.0 - rng.random(rep.size))) + 1.0
            alive = t < horizon
            rep, t = rep[alive], t[alive]
            spiked[rep[t >= horizon // 2]] = True
    return hits * np.arange(horizon, dtype=float), spiked


def cex_strong_not_rate(horizon: int) -> np.ndarray:
    """Strongly stable but not rate-stable: the deterministic path Q(t) = t at
    powers of two, else 0.  The running average tends to 2 while
    Q(2^n)/2^n = 1.

    ``horizon`` must be a power of two plus one, so the trace ends at a
    spike.  Returns the spike times ``1, 2, 4, ..., horizon - 1``.
    """
    if horizon < 3 or not _is_power_of_two(horizon - 1):
        raise ValueError("horizon must be a power of two plus one")
    return 1 << np.arange((horizon - 1).bit_length(), dtype=np.int64)


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
        ("running_mean_full", verdict.strong_metric),
        ("rate_stable", verdict.rate_stable),
        ("mean_rate_stable", verdict.mean_rate_stable),
        ("steady_state_stable", verdict.steady_state_stable),
        ("strongly_stable", verdict.strongly_stable),
        ("threshold_slope", SLOPE_TOL),
        ("threshold_tail", TAIL_TOL),
        ("threshold_plateau_rel", PLATEAU_REL),
    ]
    return items
