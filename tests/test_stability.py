from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetlab.cli import override_lambdas, override_mu
from qnetlab.controller import run_dpp_batch
from qnetlab.network import load_scenario
from qnetlab.processes import make_rng
from qnetlab.queues import queue_step
from qnetlab.stability import (
    BB1Params,
    InsufficientReplicationsError,
    TraceEnsemble,
    VerdictThresholds,
    bb1_closed_form,
    cex_mean_not_rate,
    cex_rate_not_mean,
    cex_strong_not_rate,
    estimate_verdict,
    geometric_checkpoints,
    markov_bound_violations,
    single_queue_path,
)

SEED = 20240601


def _bb1_ensemble(lam, mu, horizon, n_reps, seed):
    """Bernoulli(lam) arrivals against a Bernoulli(mu) server: the bb1
    fixture run through the batched kernel."""
    scenario = override_lambdas(override_mu(load_scenario("bb1.json"), mu), [lam])
    batch = run_dpp_batch(scenario, [0.0] * n_reps, range(n_reps), seed, horizon)
    return TraceEnsemble(backlog=batch.totals)


# ---------------------------------------------------------------------------
# fast path generator
# ---------------------------------------------------------------------------


def test_single_queue_path_matches_recursion_exactly_on_integer_work():
    rng = make_rng(SEED, 0)
    a = (rng.random(5000) < 0.45).astype(float)
    b = (rng.random(5000) < 0.5).astype(float)
    fast = single_queue_path(a, b)
    q = 0.0
    for t in range(a.size):
        assert fast[t] == q
        q, _ = queue_step(q, a[t], b[t])
    assert fast[-1] == q


def test_single_queue_path_matches_recursion_on_float_work():
    rng = make_rng(SEED, 1)
    a = rng.random(2000) * 1.3
    b = rng.random(2000) * 1.5
    fast = single_queue_path(a, b, q0=2.5)
    q = 2.5
    for t in range(a.size):
        assert fast[t] == pytest.approx(q, abs=1e-9)
        q, _ = queue_step(q, a[t], b[t])


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_bb1_closed_form_values():
    assert bb1_closed_form(BB1Params(0.3, 0.5)) == pytest.approx((1.05, 3.5))
    assert bb1_closed_form(BB1Params(0.25, 0.75)) == pytest.approx((0.375, 1.5))


def test_bb1_closed_form_vanishing_arrivals():
    q_bar, _ = bb1_closed_form(BB1Params(1e-12, 0.5))
    assert q_bar == pytest.approx(0.0, abs=1e-11)


def test_bb1_closed_form_requires_subcritical_load():
    with pytest.raises(ValueError, match="steady state"):
        bb1_closed_form(BB1Params(0.5, 0.5))
    with pytest.raises(ValueError):
        BB1Params(1.5, 0.5)


def test_bb1_simulation_approaches_closed_form():
    ens = _bb1_ensemble(0.3, 0.5, horizon=200_000, n_reps=4, seed=SEED)
    q_bar, _ = bb1_closed_form(BB1Params(0.3, 0.5))
    assert ens.backlog.mean() == pytest.approx(q_bar, rel=0.05)


# ---------------------------------------------------------------------------
# verdict estimation
# ---------------------------------------------------------------------------


def test_checkpoints_are_powers_of_two_plus_final():
    cps = geometric_checkpoints(100)
    assert list(cps) == [1, 2, 4, 8, 16, 32, 64, 99]
    assert list(geometric_checkpoints(129)) == [1, 2, 4, 8, 16, 32, 64, 128]


def test_verdict_on_stable_bb1():
    ens = _bb1_ensemble(0.3, 0.5, horizon=100_000, n_reps=100, seed=SEED)
    verdict = estimate_verdict(ens)
    assert verdict.rate_stable
    assert verdict.mean_rate_stable
    assert verdict.steady_state_stable
    assert verdict.strongly_stable
    assert verdict.strong_metric == pytest.approx(1.05, rel=0.1)


def test_verdict_on_overloaded_bb1():
    ens = _bb1_ensemble(0.6, 0.5, horizon=100_000, n_reps=100, seed=SEED)
    verdict = estimate_verdict(ens)
    assert verdict.rate_slope == pytest.approx(0.10, abs=0.01)
    assert not verdict.rate_stable
    assert not verdict.mean_rate_stable
    assert not verdict.steady_state_stable
    assert not verdict.strongly_stable


def test_verdict_on_critical_bb1_rate_stable_but_not_strong():
    ens = _bb1_ensemble(0.5, 0.5, horizon=100_000, n_reps=100, seed=SEED)
    verdict = estimate_verdict(ens)
    assert verdict.rate_stable
    assert not verdict.strongly_stable  # running mean still growing ~ sqrt(t)


def reference_verdict(backlog, checkpoints, thresholds):
    """The verdict's estimates computed path by path, in two plain passes."""
    n_reps, horizon = backlog.shape
    t_final = int(checkpoints[-1])
    t_half = max(t_final // 2, 1)
    finals, cp_slopes = [], []
    total = to_half = to_final = 0.0
    for q in backlog:
        finals.append(q[t_final] / t_final)
        cp_slopes.append(q[checkpoints] / checkpoints)
        total += float(q.sum())
        to_half += float(q[: t_half + 1].sum())
        to_final += float(q[: t_final + 1].sum())
    mean = total / (n_reps * horizon)
    m_max = max(thresholds.m_max_multiplier * mean, 1.0)
    m_grid = (
        np.geomspace(1.0, m_max, thresholds.m_grid_points) if m_max > 1.0 else np.array([1.0])
    )
    h = np.array([[(q > m).mean() for m in m_grid] for q in backlog])
    g = np.zeros(m_grid.size)
    for row in h:
        g += row
    g /= n_reps
    rate_slope = float(np.median(finals))
    half = to_half / (n_reps * (t_half + 1))
    full = to_final / (n_reps * (t_final + 1))
    tol = thresholds.slope_tol
    return {
        "rate_slope": rate_slope,
        "mean_rate_slope": float(np.mean(finals)),
        "strong_metric": mean,
        "m_grid": m_grid,
        "g_curve": g,
        "h_mean": h.mean(axis=0),
        "h_p05": np.percentile(h, 5, axis=0),
        "h_p95": np.percentile(h, 95, axis=0),
        "rate_stable": rate_slope <= tol,
        "mean_rate_stable": float(np.mean(finals)) <= tol,
        "steady_state_stable": g[-1] <= thresholds.tail_tol and rate_slope <= tol,
        "strongly_stable": abs(full - half) <= thresholds.plateau_rel * max(half, 1e-12),
        "running_mean_half": half,
        "running_mean_full": full,
        "thresholds": thresholds,
        "checkpoints": checkpoints,
        "slopes_at_checkpoints": np.median(cp_slopes, axis=0),
    }


@given(
    n_reps=st.integers(1, 5),
    horizon=st.integers(1000, 2500),
    scale=st.sampled_from([0.0, 1.0, 3.0, 40.0, 1e6]),
    integer=st.booleans(),
    n_checkpoints=st.integers(0, 6),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_verdict_matches_per_path_reference(n_reps, horizon, scale, integer, n_checkpoints, seed):
    # Integer paths put values exactly on M-grid points (M = 1 always is one),
    # where "Q > M" must not count them.  Explicit checkpoints that stop
    # before the final slot are what cex_rate_not_mean passes.
    rng = make_rng(seed, 0)
    q = rng.random((n_reps, horizon)) * scale * rng.random((n_reps, 1))
    if integer:
        q = np.floor(q)
    if n_checkpoints:
        cps = np.unique(rng.integers(1, horizon, size=n_checkpoints))
        ens = TraceEnsemble(backlog=q, checkpoints=cps)
    else:
        ens = TraceEnsemble(backlog=q)
    thresholds = VerdictThresholds(min_reps_mean_rate=1)
    verdict = estimate_verdict(ens, thresholds)
    expected = reference_verdict(q, ens.checkpoints, thresholds)
    assert set(expected) == {f.name for f in fields(verdict)}
    for name, value in expected.items():
        got = getattr(verdict, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(got, value), name
        else:
            assert got == value, name


def test_mean_rate_estimator_needs_replications():
    ens = _bb1_ensemble(0.3, 0.5, horizon=2000, n_reps=5, seed=SEED)
    with pytest.raises(InsufficientReplicationsError):
        estimate_verdict(ens)
    verdict = estimate_verdict(ens, estimators=("rate", "steady_state", "strong"))
    assert verdict.mean_rate_slope is None
    assert verdict.mean_rate_stable is None


@pytest.mark.parametrize("bad", [-1.0, np.nan])
def test_ensemble_rejects_negative_or_nan_backlogs(bad):
    backlog = np.zeros((2, 1000))
    backlog[1, 7] = bad
    with pytest.raises(ValueError, match="non-negative"):
        TraceEnsemble(backlog=backlog)


def test_verdict_rejects_short_horizons():
    ens = TraceEnsemble(backlog=np.zeros((2, 100)))
    with pytest.raises(ValueError, match="horizon"):
        estimate_verdict(ens)


def test_g_and_h_curves_are_well_formed():
    ens = _bb1_ensemble(0.45, 0.5, horizon=50_000, n_reps=16, seed=SEED)
    verdict = estimate_verdict(ens, estimators=("rate", "steady_state", "strong"))
    g = verdict.g_curve
    assert np.all((0.0 <= g) & (g <= 1.0))
    assert np.all(np.diff(g) <= 1e-15)  # non-increasing in M
    assert np.all((0.0 <= verdict.h_mean) & (verdict.h_mean <= 1.0))
    assert np.all(np.diff(verdict.h_mean) <= 1e-15)
    assert np.all(verdict.h_p05 <= verdict.h_mean + 1e-15)
    assert np.all(verdict.h_mean <= verdict.h_p95 + 1e-15)
    assert markov_bound_violations(verdict) == 0


def test_rate_stable_classification_implies_offered_rate_balance():
    # On a rate-stable-classified ensemble the time average of a - b cannot
    # exceed the slope threshold (conservation lower-bounds the slope).
    lam, mu = 0.4, 0.5
    rng = make_rng(SEED, 3)
    horizon = 50_000
    a = (rng.random(horizon) < lam).astype(float)
    b = (rng.random(horizon) < mu).astype(float)
    path = single_queue_path(a, b)
    ens = TraceEnsemble(backlog=path[None, :horizon])
    verdict = estimate_verdict(ens, estimators=("rate",))
    assert verdict.rate_stable
    assert (a.mean() - b.mean()) <= verdict.thresholds.slope_tol


# ---------------------------------------------------------------------------
# counter-examples
# ---------------------------------------------------------------------------


def test_cex_rate_not_mean_signature():
    ens = cex_rate_not_mean(SEED, horizon=41, n_reps=50_000)
    # Ensemble mean of Q(6)/6 tracks 2^6 / 6.
    assert ens.backlog[:, 6].mean() / 6.0 == pytest.approx(2**6 / 6.0, rel=0.1)
    # Every path is zero from its stopping time onward.
    alive = ens.backlog > 0
    first_zero = np.argmin(alive, axis=1)
    for r in (0, 17, 25_000):
        assert not alive[r, first_zero[r] :].any()
    # Per-path slope at the final slot vanishes.
    assert np.median(ens.backlog[:, 40] / 40.0) == 0.0
    # Values are exact powers of two up to 2^80.
    assert ens.backlog.max() <= 2.0**80


def test_cex_rate_not_mean_guards_horizon():
    with pytest.raises(ValueError, match="horizon"):
        cex_rate_not_mean(SEED, horizon=64, n_reps=10)


def test_cex_mean_not_rate_signature():
    ens = cex_mean_not_rate(SEED, horizon=200, n_reps=50_000)
    assert ens.backlog[:, 100].mean() == pytest.approx(1.0, abs=0.1)
    assert ens.backlog[:, 150].mean() == pytest.approx(1.0, abs=0.1)
    # Fraction of paths spiking in [t, 2t) stays bounded away from zero;
    # independent-slot oracle: 1 - prod(1 - 1/tau).
    window = ens.backlog[:, 100:200] > 0
    frac = window.any(axis=1).mean()
    expected = 1.0 - np.prod(1.0 - 1.0 / np.arange(100, 200))
    assert frac == pytest.approx(expected, abs=0.02)
    assert frac > 0.4


def test_cex_mean_not_rate_slope_vanishes_at_ten_thousand_slots():
    # E[Q(t)]/t = 1/t, so the ensemble slope at t = 10^4 sits near 1e-4.
    ens = cex_mean_not_rate(SEED, horizon=10_001, n_reps=2000)
    slope = ens.backlog[:, 10_000].mean() / 10_000
    # Estimator s.e. is (sqrt(t)/sqrt(reps))/t ~ 2.2e-4; assert the order.
    assert slope <= 1e-3
    verdict = estimate_verdict(
        ens,
        thresholds=VerdictThresholds(min_reps_mean_rate=1),
    )
    assert verdict.mean_rate_stable


def test_cex_strong_not_rate_signature():
    horizon = 2**14 + 1
    ens = cex_strong_not_rate(horizon)
    path = ens.backlog[0]
    running = path.sum() / horizon
    assert running == pytest.approx((2**15 - 1) / (2**14 + 1), abs=1e-12)
    for n in range(0, 15):
        assert path[2**n] / 2**n == 1.0
    nonzero = np.flatnonzero(path)
    assert list(nonzero) == [2**n for n in range(0, 15)]


def test_cex_strong_not_rate_rejects_bad_horizon():
    with pytest.raises(ValueError, match="power of two"):
        cex_strong_not_rate(1000)


def test_markov_bound_holds_on_counterexamples():
    thresholds = VerdictThresholds(min_reps_mean_rate=1)
    for ens in (
        cex_mean_not_rate(SEED, horizon=2000, n_reps=200),
        cex_strong_not_rate(2**11 + 1),
    ):
        verdict = estimate_verdict(ens, thresholds=thresholds)
        assert markov_bound_violations(verdict) == 0
