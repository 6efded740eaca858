import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    TotalsCollector,
    estimate_verdict,
    markov_bound_violations,
    one_shot_mean_not_rate,
    one_shot_rate_not_mean,
    queue_step,
    single_queue_path,
    strong_not_rate_path,
)
from qnetlab import stability
from qnetlab.cli import override_lambdas, override_mu
from qnetlab.controller import run_dpp_batch
from qnetlab.network import load_scenario
from qnetlab.processes import make_rng
from qnetlab.stability import (
    StabilityVerdict,
    bb1_closed_form,
    cex_rate_not_mean,
    cex_strong_not_rate,
    geometric_checkpoints,
)

SEED = 20240601


def _bb1_ensemble(lam, mu, horizon, n_reps, seed):
    """Bernoulli(lam) arrivals against a Bernoulli(mu) server: the bb1
    fixture run through the batched kernel, its totals collected whole."""
    scenario = override_lambdas(override_mu(load_scenario("bb1.json"), mu), [lam])
    return run_dpp_batch(scenario, [0.0] * n_reps, range(n_reps), seed, horizon,
                         reducer=TotalsCollector).reducer.totals


# ---------------------------------------------------------------------------
# reflection-identity reference
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
    assert bb1_closed_form(0.3, 0.5) == pytest.approx((1.05, 3.5))
    assert bb1_closed_form(0.25, 0.75) == pytest.approx((0.375, 1.5))


def test_bb1_closed_form_vanishing_arrivals():
    q_bar, _ = bb1_closed_form(1e-12, 0.5)
    assert q_bar == pytest.approx(0.0, abs=1e-11)


def test_bb1_closed_form_requires_subcritical_load():
    with pytest.raises(ValueError, match="steady state"):
        bb1_closed_form(0.5, 0.5)
    with pytest.raises(ValueError, match="need lam"):
        bb1_closed_form(1.5, 0.5)


def test_bb1_simulation_approaches_closed_form():
    backlog = _bb1_ensemble(0.3, 0.5, horizon=200_000, n_reps=4, seed=SEED)
    q_bar, _ = bb1_closed_form(0.3, 0.5)
    assert backlog.mean() == pytest.approx(q_bar, rel=0.05)


# ---------------------------------------------------------------------------
# verdict estimation
# ---------------------------------------------------------------------------


def test_checkpoints_are_powers_of_two_plus_final():
    cps = geometric_checkpoints(100)
    assert list(cps) == [1, 2, 4, 8, 16, 32, 64, 99]
    assert list(geometric_checkpoints(129)) == [1, 2, 4, 8, 16, 32, 64, 128]


def test_verdict_on_stable_bb1():
    verdict = estimate_verdict(_bb1_ensemble(0.3, 0.5, horizon=100_000, n_reps=100, seed=SEED))
    assert verdict.rate_stable
    assert verdict.mean_rate_stable
    assert verdict.steady_state_stable
    assert verdict.strongly_stable
    assert verdict.strong_metric == pytest.approx(1.05, rel=0.1)


def test_verdict_on_overloaded_bb1():
    verdict = estimate_verdict(_bb1_ensemble(0.6, 0.5, horizon=100_000, n_reps=100, seed=SEED))
    assert verdict.rate_slope == pytest.approx(0.10, abs=0.01)
    assert not verdict.rate_stable
    assert not verdict.mean_rate_stable
    assert not verdict.steady_state_stable
    assert not verdict.strongly_stable


def test_verdict_on_critical_bb1_rate_stable_but_not_strong():
    verdict = estimate_verdict(_bb1_ensemble(0.5, 0.5, horizon=100_000, n_reps=100, seed=SEED))
    assert verdict.rate_stable
    assert not verdict.strongly_stable  # running mean still growing ~ sqrt(t)


def quarter_octave_grid(target):
    """``M_i = 2^(i//4) (1 + (i%4)/4)`` from ``M_0 = 1`` up to the first
    point at or above ``target``."""
    grid = [1.0]
    while grid[-1] < target:
        i = len(grid)
        grid.append(2.0 ** (i // 4) * (1 + (i % 4) / 4))
    return np.array(grid)


def reference_verdict(backlog, checkpoints):
    """The verdict's estimates computed path by path, in two plain passes."""
    n_reps, horizon = backlog.shape
    t_final = int(checkpoints[-1])
    t_half = max(t_final // 2, 1)
    finals = []
    total = to_half = to_final = 0.0
    for q in backlog:
        finals.append(q[t_final] / t_final)
        total += float(q.sum())
        to_half += float(q[: t_half + 1].sum())
        to_final += float(q[: t_final + 1].sum())
    mean = total / (n_reps * horizon)
    m_grid = quarter_octave_grid(stability.M_MAX_MULTIPLIER * mean)
    h = np.array([[(q > m).mean() for m in m_grid] for q in backlog])
    g = np.zeros(m_grid.size)
    for row in h:
        g += row
    g /= n_reps
    rate_slope = float(np.median(finals))
    half = to_half / (n_reps * (t_half + 1))
    full = to_final / (n_reps * (t_final + 1))
    tol = stability.SLOPE_TOL
    mean_rate = float(np.mean(finals)) if n_reps >= stability.MIN_REPS_MEAN_RATE else None
    # g is the mean of the per-path tail fractions, and the running mean over
    # the whole horizon is the mean backlog.
    assert np.array_equal(g, h.mean(axis=0)) and full == mean
    return {
        "rate_slope": rate_slope,
        "mean_rate_slope": mean_rate,
        "strong_metric": mean,
        "m_grid": m_grid,
        "g_curve": g,
        "h_p05": np.percentile(h, 5, axis=0),
        "h_p95": np.percentile(h, 95, axis=0),
        "rate_stable": rate_slope <= tol,
        "mean_rate_stable": None if mean_rate is None else mean_rate <= tol,
        "steady_state_stable": g[-1] <= stability.TAIL_TOL and rate_slope <= tol,
        "strongly_stable": abs(full - half) <= stability.PLATEAU_REL * max(half, 1e-12),
        "running_mean_half": half,
    }


@given(
    # Small ensembles leave the mean-rate notion out; from MIN_REPS_MEAN_RATE
    # replications on its slope is estimated too.
    n_reps=st.one_of(st.integers(1, 5), st.integers(stability.MIN_REPS_MEAN_RATE, 120)),
    horizon=st.integers(1000, 2500),
    scale=st.sampled_from([0.0, 1.0, 3.0, 40.0, 1e6]),
    integer=st.booleans(),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_verdict_matches_per_path_reference(n_reps, horizon, scale, integer, seed):
    # Integer paths put values exactly on M-grid points (M = 1 always is one),
    # where "Q > M" must not count them.
    rng = make_rng(seed, 0)
    q = rng.random((n_reps, horizon)) * scale * rng.random((n_reps, 1))
    if integer:
        q = np.floor(q)
    verdict = estimate_verdict(q)
    expected = reference_verdict(q, geometric_checkpoints(horizon))
    assert set(expected) == set(StabilityVerdict._fields)
    for name, value in expected.items():
        got = getattr(verdict, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(got, value), name
        else:
            assert got == value, name


def test_mean_rate_estimator_needs_replications():
    # Below MIN_REPS_MEAN_RATE replications the mean-rate notion is not
    # estimated; at it, it is.  The per-path notions are estimated either way.
    backlog = _bb1_ensemble(0.3, 0.5, horizon=2000, n_reps=stability.MIN_REPS_MEAN_RATE,
                            seed=SEED)
    verdict = estimate_verdict(backlog[:-1])
    assert verdict.mean_rate_slope is None
    assert verdict.mean_rate_stable is None
    assert verdict.rate_stable and verdict.steady_state_stable
    enough = estimate_verdict(backlog)
    assert enough.mean_rate_slope == float(np.mean(backlog[:, -1] / (backlog.shape[1] - 1)))
    assert enough.mean_rate_stable


@pytest.mark.parametrize("bad", [-1.0, np.nan])
def test_ensemble_rejects_negative_or_nan_backlogs(bad):
    backlog = np.zeros((2, 1000))
    backlog[1, 7] = bad
    with pytest.raises(ValueError, match="non-negative"):
        estimate_verdict(backlog)


def test_verdict_rejects_short_horizons():
    with pytest.raises(ValueError, match="horizon"):
        estimate_verdict(np.zeros((2, 100)))


def test_g_and_h_curves_are_well_formed():
    verdict = estimate_verdict(_bb1_ensemble(0.45, 0.5, horizon=50_000, n_reps=16, seed=SEED))
    g = verdict.g_curve
    assert np.all((0.0 <= g) & (g <= 1.0))
    assert np.all(np.diff(g) <= 1e-15)  # non-increasing in M
    assert np.all(verdict.h_p05 <= g + 1e-15)
    assert np.all(g <= verdict.h_p95 + 1e-15)
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
    verdict = estimate_verdict(path[None, :horizon])
    assert verdict.rate_stable
    assert (a.mean() - b.mean()) <= stability.SLOPE_TOL


# ---------------------------------------------------------------------------
# counter-examples
# ---------------------------------------------------------------------------


def test_cex_rate_not_mean_signature():
    backlog = one_shot_rate_not_mean(SEED, horizon=41, n_reps=50_000)
    # Ensemble mean of Q(6)/6 tracks 2^6 / 6.
    assert backlog[:, 6].mean() / 6.0 == pytest.approx(2**6 / 6.0, rel=0.1)
    # Every path is zero from its stopping time onward.
    alive = backlog > 0
    first_zero = np.argmin(alive, axis=1)
    for r in (0, 17, 25_000):
        assert not alive[r, first_zero[r] :].any()
    # Per-path slope at the final slot vanishes.
    assert np.median(backlog[:, 40] / 40.0) == 0.0
    # Values are exact powers of two up to 2^80.
    assert backlog.max() <= 2.0**80


def test_cex_rate_not_mean_guards_horizon():
    with pytest.raises(ValueError, match="horizon"):
        cex_rate_not_mean(SEED, horizon=64, n_reps=10)


def test_cex_mean_not_rate_signature():
    backlog = one_shot_mean_not_rate(SEED, horizon=200, n_reps=50_000)
    assert backlog[:, 100].mean() == pytest.approx(1.0, abs=0.1)
    assert backlog[:, 150].mean() == pytest.approx(1.0, abs=0.1)
    # Fraction of paths spiking in [t, 2t) stays bounded away from zero;
    # independent-slot oracle: 1 - prod(1 - 1/tau).
    window = backlog[:, 100:200] > 0
    frac = window.any(axis=1).mean()
    expected = 1.0 - np.prod(1.0 - 1.0 / np.arange(100, 200))
    assert frac == pytest.approx(expected, abs=0.02)
    assert frac > 0.4


def test_cex_mean_not_rate_slope_vanishes_at_ten_thousand_slots():
    # E[Q(t)]/t = 1/t, so the ensemble slope at t = 10^4 sits near 1e-4.
    backlog = one_shot_mean_not_rate(SEED, horizon=10_001, n_reps=2000)
    slope = backlog[:, 10_000].mean() / 10_000
    # Estimator s.e. is (sqrt(t)/sqrt(reps))/t ~ 2.2e-4; assert the order.
    assert slope <= 1e-3
    verdict = estimate_verdict(backlog)
    assert verdict.mean_rate_stable


def test_cex_strong_not_rate_signature():
    horizon = 2**14 + 1
    path = strong_not_rate_path(horizon)
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
    for backlog in (
        one_shot_mean_not_rate(SEED, horizon=2000, n_reps=200),
        strong_not_rate_path(2**11 + 1)[None, :],
    ):
        verdict = estimate_verdict(backlog)
        assert markov_bound_violations(verdict) == 0


# ---------------------------------------------------------------------------
# order statistics: numpy's bits without numpy.ma
# ---------------------------------------------------------------------------

# Ties, signed zeros, subnormals and values next to the overflow threshold.
EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e308]


def sample_matrix(data, shape):
    """Entries drawn from a few edge values and arbitrary finite floats, so
    that ties are common; a seeded generator fills the matrix quickly."""
    pool = data.draw(st.lists(
        st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=12,
    ))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    return np.array(pool)[rng.integers(0, len(pool), size=shape)]


def same_bits(ours, theirs) -> bool:
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    return ours.dtype == theirs.dtype and ours.shape == theirs.shape and (
        ours.tobytes() == theirs.tobytes()
    )


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 300), cols=st.integers(0, 4), data=st.data())
def test_median_has_numpys_bits(n, cols, data):
    # cols = 0: a 1-d array against np.median(axis=None); otherwise axis 0.
    a = sample_matrix(data, (n,) if cols == 0 else (n, cols))
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.median(a) if cols == 0 else np.median(a, axis=0)
        got = stability._median(a)
    assert same_bits(got, expected)


@settings(max_examples=300, deadline=None)
@given(
    # n = 20 j + 11 puts q = 5 and 95 exactly halfway between two ranks.
    n=st.one_of(st.integers(1, 300), st.integers(0, 14).map(lambda j: 20 * j + 11)),
    cols=st.integers(1, 4),
    q=st.sampled_from([5, 95]),
    kind=st.sampled_from(["edge", "fraction", "normal"]),
    data=st.data(),
)
def test_percentile_has_numpys_bits(n, cols, q, kind, data):
    # "fraction": tail fractions k / horizon, as estimate_verdict's h(M) rows.
    if kind == "edge":
        a = sample_matrix(data, (n, cols))
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        horizon = data.draw(st.integers(1, 10_000))
        a = (rng.integers(0, horizon + 1, size=(n, cols)) / horizon if kind == "fraction"
             else rng.standard_normal((n, cols)))
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.percentile(a, q, axis=0)
        got = stability._percentile(a, q)
    assert same_bits(got, expected)


def test_percentile_places_signed_zeros_like_numpy():
    # Which of the equal values 0.0 and -0.0 lands at a rank depends on the
    # partition's kth list; with only the two interpolated ranks it is 0.0.
    a = np.array([[-0.0], [0.0], [-0.0], [-0.0], [-1.0]])
    assert same_bits(stability._percentile(a, 95), np.percentile(a, 95, axis=0))


def left_to_right(a, axis):
    """``a``'s slices along ``axis`` added by ``functools.reduce``, one
    ``+`` after another; +0.0 for an empty axis."""
    rows = np.moveaxis(a, axis, 0)
    return functools.reduce(operator.add, rows) if len(rows) else np.zeros(rows.shape[1:])


@settings(max_examples=300, deadline=None)
@given(shape=st.lists(st.integers(0, 5), min_size=1, max_size=3), data=st.data())
def test_in_order_sum_adds_left_to_right_along_every_axis(shape, data):
    # Signed zeros, subnormals, the float extremes and arbitrary floats, so
    # that sums cancel, round and overflow to inf.
    a = sample_matrix(data, tuple(shape))
    for axis in range(a.ndim):
        with np.errstate(over="ignore", invalid="ignore"):
            want = left_to_right(a, axis)
            got = stability._in_order_sum(a, axis)
            # The kernel's form: into a strided view of a larger buffer.
            out = np.full(want.shape[::-1] + (2,), np.nan)[..., 0].T
            into = stability._in_order_sum(a, axis, out=out)
        assert same_bits(got, want)
        assert into is out and same_bits(out, want)


def test_in_order_sum_is_not_numpys_pairwise_sum():
    # np.sum adds these 16 values in eight interleaved partial sums: each of
    # seven pairs of 2^-53 survives as 2^-52, while left to right every
    # 2^-53 rounds away against 1.0.
    a = np.array([1.0] + [2.0**-53] * 15)
    assert stability._in_order_sum(a, 0) == 1.0
    assert np.sum(a) != 1.0
    # 200 such sums at once, 8 or more per value added: one numpy add per value.
    rows = np.tile(a, (200, 1))
    assert np.all(stability._in_order_sum(rows, 1) == 1.0)
    assert np.all(np.sum(rows, axis=1) != 1.0)
    # Cancellation, a lone -0.0 (a reduction starts from +0.0 and returns
    # 0.0) and an empty axis.
    assert stability._in_order_sum(np.array([1.0, 1e100, -1e100]), 0) == 0.0
    assert same_bits(stability._in_order_sum(np.array([-0.0]), 0), np.float64(-0.0))
    assert same_bits(stability._in_order_sum(np.empty((3, 0, 2)), 1), np.zeros((3, 2)))


def test_in_order_sum_raises_on_overflow():
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        stability._in_order_sum(np.array([[1e308], [1e308]]), 0)
