"""Stability diagnostics over trace ensembles.

Four stability notions are estimated from finite traces:

* rate stability        -- per-path backlog slope Q(t)/t -> 0,
* mean rate stability   -- ensemble-mean slope E[Q(t)]/t -> 0,
* steady-state stability-- time-average tail occupancy g(M) -> 0 as M grows,
* strong stability      -- finite time-average expected backlog.

The definitions are asymptotic; this module applies documented finite-horizon
proxies: slopes are read at geometric checkpoint times, the tail curve g(M)
is evaluated on a geometric M-grid, and strong stability uses a plateau test
on the running average across the final doubling.  The module also ships the
three classic pathological processes that separate the notions, plus the
Bernoulli/Bernoulli/1 closed forms used as golden values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .processes import make_rng

__all__ = [
    "TraceEnsemble",
    "VerdictThresholds",
    "StabilityVerdict",
    "BB1Params",
    "InsufficientReplicationsError",
    "geometric_checkpoints",
    "single_queue_path",
    "estimate_verdict",
    "bb1_closed_form",
    "cex_rate_not_mean",
    "cex_mean_not_rate",
    "cex_strong_not_rate",
    "verdict_report_items",
    "curve_rows",
    "markov_bound_violations",
]

ALL_ESTIMATORS = ("rate", "mean_rate", "steady_state", "strong")

# Largest time index allowed for the doubling counter-example: values reach
# 2^(2t), and 2^80 is still exactly representable in float64.
RATE_NOT_MEAN_MAX_SLOTS = 41


class InsufficientReplicationsError(ValueError):
    """Raised when an estimator needs more replications than the ensemble has."""


@dataclass
class TraceEnsemble:
    """Backlog sample paths: ``backlog[r, t]`` for slots ``t = 0..horizon-1``.

    ``checkpoints`` are the geometric times (powers of two plus the final
    slot) at which slope estimates are read.
    """

    backlog: np.ndarray
    checkpoints: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))

    def __post_init__(self) -> None:
        self.backlog = np.asarray(self.backlog, dtype=float)
        if self.backlog.ndim != 2:
            raise ValueError("backlog must be a (n_reps, horizon) matrix")
        if not np.min(self.backlog, initial=0.0) >= 0:  # NaN fails too
            raise ValueError("backlogs must be non-negative numbers")
        if self.checkpoints.size == 0:
            self.checkpoints = geometric_checkpoints(self.horizon)

    @property
    def n_reps(self) -> int:
        return self.backlog.shape[0]

    @property
    def horizon(self) -> int:
        return self.backlog.shape[1]


def geometric_checkpoints(horizon: int) -> np.ndarray:
    """Powers of two below ``horizon`` plus the final slot index."""
    if horizon < 2:
        raise ValueError("horizon must be >= 2 to define checkpoints")
    points = [1 << j for j in range(horizon.bit_length()) if (1 << j) < horizon]
    if points[-1] != horizon - 1:
        points.append(horizon - 1)
    return np.asarray(points, dtype=np.int64)


@dataclass(frozen=True)
class VerdictThresholds:
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


@dataclass
class StabilityVerdict:
    """Estimates plus the four-way classification (None = not requested)."""

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
    checkpoints: np.ndarray
    slopes_at_checkpoints: np.ndarray


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
    s = np.concatenate(([0.0], np.cumsum(a - b)))
    u = a - s[1:]
    running_max = np.maximum.accumulate(u)
    q = np.empty(a.size + 1)
    q[0] = q0
    q[1:] = np.maximum(q0 + s[1:], s[1:] + running_max)
    return q


def _m_grid(mean_backlog: float, thresholds: VerdictThresholds) -> np.ndarray:
    m_max = max(thresholds.m_max_multiplier * mean_backlog, 1.0)
    if m_max <= 1.0:
        return np.array([1.0])
    return np.geomspace(1.0, m_max, thresholds.m_grid_points)


def estimate_verdict(
    ensemble: TraceEnsemble,
    thresholds: VerdictThresholds = VerdictThresholds(),
    estimators: Sequence[str] | None = None,
) -> StabilityVerdict:
    """Estimate the four stability notions from a trace ensemble.

    ``estimators`` selects which classifications are requested (default all).
    The mean-rate estimator averages Q(t)/t across replications and needs at
    least ``thresholds.min_reps_mean_rate`` of them; requesting it with fewer
    raises ``InsufficientReplicationsError``.

    Two passes over ``ensemble.backlog``: slopes and means first, then the
    tail curves on the M-grid those means fix.  Sums over replications are
    taken in replication order, so a verdict does not depend on how the
    ensemble was produced.
    """
    requested = tuple(estimators) if estimators is not None else ALL_ESTIMATORS
    unknown = set(requested) - set(ALL_ESTIMATORS)
    if unknown:
        raise ValueError(f"unknown estimators {sorted(unknown)}")
    q, checkpoints = ensemble.backlog, ensemble.checkpoints
    n_reps, horizon = q.shape
    if horizon < 1000:
        raise ValueError("verdicts need a horizon of at least 1e3 slots")
    if n_reps < 1:
        raise ValueError("ensembles need at least one replication")
    if "mean_rate" in requested and n_reps < thresholds.min_reps_mean_rate:
        raise InsufficientReplicationsError(
            f"mean-rate estimation needs >= {thresholds.min_reps_mean_rate} "
            f"replications, got {n_reps}"
        )
    t_final = int(checkpoints[-1])
    t_half = max(t_final // 2, 1)

    # Pass 1: slopes, overall mean, running means for the plateau test.
    finals = q[:, t_final] / t_final
    rate_slope = float(np.median(finals))
    slopes_at_checkpoints = np.median(q[:, checkpoints] / checkpoints, axis=0)
    mean_rate_slope = float(np.mean(finals)) if "mean_rate" in requested else None

    def ordered_sum(row_sums: np.ndarray) -> float:
        return float(np.cumsum(row_sums)[-1])

    mean_backlog = ordered_sum(q.sum(axis=1)) / (n_reps * horizon)
    strong_metric = mean_backlog  # time average of the ensemble-mean backlog
    running_half = ordered_sum(q[:, : t_half + 1].sum(axis=1)) / (n_reps * (t_half + 1))
    running_full = ordered_sum(q[:, : t_final + 1].sum(axis=1)) / (n_reps * (t_final + 1))
    plateau = abs(running_full - running_half) <= thresholds.plateau_rel * max(
        running_half, 1e-12
    )

    # Pass 2: per-path tail occupancy h(M) = fraction of slots with Q > M.
    m_grid = _m_grid(mean_backlog, thresholds)
    h_per_path = np.empty((n_reps, m_grid.size))
    for r, row in enumerate(q):
        above = horizon - np.searchsorted(np.sort(row), m_grid, side="right")
        h_per_path[r] = above / horizon
    g_curve = np.cumsum(h_per_path, axis=0)[-1] / n_reps
    h_mean = h_per_path.mean(axis=0)
    h_p05 = np.percentile(h_per_path, 5, axis=0)
    h_p95 = np.percentile(h_per_path, 95, axis=0)

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
        checkpoints=checkpoints,
        slopes_at_checkpoints=slopes_at_checkpoints,
    )


@dataclass(frozen=True)
class BB1Params:
    """Bernoulli/Bernoulli/1 parameters; closed forms need lam < mu."""

    lam: float
    mu: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lam < 1.0 and 0.0 < self.mu <= 1.0):
            raise ValueError("need lam in [0, 1) and mu in (0, 1]")


def bb1_closed_form(params: BB1Params) -> tuple[float, float]:
    """Steady-state mean backlog and mean delay of the B/B/1 queue.

    ``Q_bar = lam (1 - lam) / (mu - lam)``, ``W_bar = (1 - lam) / (mu - lam)``.
    """
    if params.lam >= params.mu:
        raise ValueError("no steady state: closed forms require lam < mu")
    q_bar = params.lam * (1.0 - params.lam) / (params.mu - params.lam)
    w_bar = (1.0 - params.lam) / (params.mu - params.lam)
    return q_bar, w_bar


def cex_rate_not_mean(seed: int, horizon: int, n_reps: int) -> TraceEnsemble:
    """Rate-stable but not mean-rate-stable: Q(t) = 4^t while t < T, else 0.

    T is geometric with Pr[T > t] = 2^-t, so E[Q(t)] = 2^t diverges while
    every individual path is eventually zero.  Horizon is capped so values
    (up to 2^80) stay exactly representable.
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
    t_idx = np.arange(horizon)
    values = np.exp2(2.0 * t_idx)
    backlog = np.where(t_idx[None, :] < t_stop[:, None], values[None, :], 0.0)
    return TraceEnsemble(backlog=backlog, checkpoints=geometric_checkpoints(horizon))


def cex_mean_not_rate(seed: int, horizon: int, n_reps: int) -> TraceEnsemble:
    """Mean-rate-stable but not rate-stable: independent slots with
    Q(t) = t w.p. 1/t, else 0, so E[Q(t)] = 1 while spikes Q(t) = t recur."""
    if horizon < 10:
        raise ValueError("horizon must be >= 10")
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    rng = make_rng(seed, 0)
    t_idx = np.arange(horizon, dtype=float)
    u = rng.random((n_reps, horizon))
    with np.errstate(divide="ignore"):
        prob = np.where(t_idx > 0, 1.0 / np.maximum(t_idx, 1.0), 0.0)
    backlog = np.where(u < prob[None, :], t_idx[None, :], 0.0)
    backlog[:, 0] = 0.0
    return TraceEnsemble(backlog=backlog)


def cex_strong_not_rate(horizon: int) -> TraceEnsemble:
    """Strongly stable but not rate-stable: deterministic Q(t) = t at powers
    of two, else 0.  The running average tends to 2 while Q(2^n)/2^n = 1.

    ``horizon`` must be a power of two plus one so the trace ends exactly at
    a spike.
    """
    if horizon < 3 or not _is_power_of_two(horizon - 1):
        raise ValueError("horizon must be a power of two plus one")
    backlog = np.zeros((1, horizon))
    t = 1
    while t < horizon:
        backlog[0, t] = float(t)
        t *= 2
    return TraceEnsemble(backlog=backlog)


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


def markov_bound_violations(verdict: StabilityVerdict) -> int:
    """Count grid points violating g(M) <= strong_metric / M.

    The bound is the Markov inequality applied to the same empirical measure,
    so the count must be zero on any ensemble.
    """
    bound = verdict.strong_metric / verdict.m_grid
    return int(np.sum(verdict.g_curve > bound + 1e-15))
