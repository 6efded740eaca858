"""The counter-example reports from their sufficient statistics.

The counter-example reports never hold the (replications x horizon) matrix:
``stability.cex_rate_not_mean`` returns only its column sums and a count of
replications, ``stability.cex_mean_not_rate`` its column sums and one flag
per replication, and mean-not-rate jumps from spike to spike, in chunks of
replications.  These tests pin what byte identity with the full-matrix code
rests on: the statistics equal those of the whole matrices in ``oracles``
(mean-not-rate's drawn one uniform at a time, at every chunk size), the
spike-to-spike draw keeps the slot-by-slot law, the reports equal the
full-matrix formulas, and the commands stay small in memory.  The memory
guard also covers ``simulate``, whose sampler and CSV writer work in bounded
blocks too.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gap_mean_not_rate, one_shot_rate_not_mean
from peak_rss import needs_wait4, peak_rss_mb
from qnetlab import stability
from qnetlab.cli import _cex_report, _fmt, _two_valued_median


def set_chunk(monkeypatch, reps):
    """``reps`` replications per chunk of mean-not-rate's draw."""
    monkeypatch.setattr(stability, "_CEX_BLOCK_BYTES", stability._CEX_REP_BYTES * reps)


# ---------------------------------------------------------------------------
# draw order
# ---------------------------------------------------------------------------


def rate_not_mean_statistics(backlog):
    return backlog.sum(axis=0), np.count_nonzero(backlog[:, -1])


def mean_not_rate_statistics(backlog):
    horizon = backlog.shape[1]
    return backlog.sum(axis=0), (backlog[:, horizon // 2 :] > 0).any(axis=1)


# Each at a long horizon and at a short one, where every column is reached.
DRAWS = [
    ("rate-not-mean", stability.cex_rate_not_mean, one_shot_rate_not_mean,
     rate_not_mean_statistics, (41, 4)),
    ("mean-not-rate", stability.cex_mean_not_rate, partial(gap_mean_not_rate, chunk=7),
     mean_not_rate_statistics, (37, 10)),
]


@pytest.mark.parametrize("name, draw, one_shot, statistics, horizons", DRAWS,
                         ids=[d[0] for d in DRAWS])
@pytest.mark.parametrize("seed", [0, 3, 12345, 2**40 + 7])
def test_stacked_blocks_equal_one_shot_draw(monkeypatch, name, draw, one_shot, statistics,
                                            horizons, seed):
    # The statistics of the chunked draw are those of one whole matrix, bit
    # for bit.  7 replications per chunk: 7 full chunks and a last one of 1.
    n_reps = 50
    for horizon in horizons:
        set_chunk(monkeypatch, 7)
        got = draw(seed, horizon, n_reps)
        expected = statistics(one_shot(seed, horizon, n_reps))
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            if isinstance(e, np.ndarray):
                assert g.dtype == e.dtype and g.shape == e.shape
                assert g.tobytes() == e.tobytes()
            else:  # a count of replications
                assert type(g) is int and g == e


@pytest.mark.parametrize("chunk", [1, 2, 5, 49, 50, 64])
def test_gap_draw_equals_one_uniform_at_a_time_at_every_chunk_size(monkeypatch, chunk):
    # Lockstep rounds over a chunk draw the reference's uniforms in its order:
    # one replication per chunk, a ragged last chunk, one chunk, and more
    # room than replications.
    set_chunk(monkeypatch, chunk)
    got = stability.cex_mean_not_rate(11, 200, 50)
    expected = mean_not_rate_statistics(gap_mean_not_rate(11, 200, 50, chunk))
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and g.tobytes() == e.tobytes()


def test_gap_draw_keeps_the_slot_by_slot_law():
    # Slot t spikes w.p. 1/t, independently: each count of spikes at t is
    # Binomial(n, 1/t), and the window [100, 200) holds a spike w.p.
    # 1 - prod(1 - 1/t).
    n, horizon = 100_000, 200
    column_sums, spiked = stability.cex_mean_not_rate(5, horizon, n)
    t = np.arange(1, horizon)
    hits = column_sums[1:] / t
    assert column_sums[0] == 0.0 and np.all(hits == np.round(hits))
    p = 1.0 / t
    assert np.all(np.abs(hits - n * p) <= 5.0 * np.sqrt(n * p * (1.0 - p)))
    window = 1.0 - np.prod(1.0 - 1.0 / np.arange(100, 200))
    assert abs(spiked.mean() - window) <= 0.01


@pytest.mark.parametrize("seed", range(1, 21))
def test_mean_not_rate_signature_holds_at_seeds_1_to_20(seed):
    checks, _, ok = _cex_report("mean-not-rate", seed)
    assert ok is True and ("signature_ok", True) in checks


@pytest.mark.parametrize("draw", [stability.cex_rate_not_mean, stability.cex_mean_not_rate])
def test_cex_draws_reject_bad_sizes(draw):
    with pytest.raises(ValueError, match="n_reps"):
        draw(1, 20, 0)
    with pytest.raises(ValueError, match="horizon"):
        draw(1, 1, 10)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def full_matrix_report(name, backlog):
    """Checks and profile of ``_cex_report`` by the full-matrix formulas."""
    checks = [("command", "counterexample"), ("name", name)]
    if name == "rate-not-mean":
        mean6 = float(backlog[:, 6].mean() / 6.0)
        frac_zero_at_40 = float((backlog[:, 40] == 0.0).mean())
        slope_final = float(np.median(backlog[:, 40] / 40.0))
        ok = (
            abs(mean6 - (2.0**6) / 6.0) <= 0.1 * (2.0**6) / 6.0
            and frac_zero_at_40 >= 0.99
            and slope_final <= 1e-9
        )
        checks += [
            ("mean_Q6_over_6", mean6),
            ("expected_mean_Q6_over_6", (2.0**6) / 6.0),
            ("fraction_zero_at_t40", frac_zero_at_40),
            ("median_final_slope", slope_final),
        ]
    else:
        mean100 = float(backlog[:, 100].mean())
        spikes = float((backlog[:, 100:200] > 0).any(axis=1).mean())
        expected_spikes = 1.0 - float(np.prod(1.0 - 1.0 / np.arange(100, 200)))
        ok = abs(mean100 - 1.0) <= 0.1 and abs(spikes - expected_spikes) <= 0.02
        checks += [
            ("mean_Q100", mean100),
            ("spike_fraction_window_100_200", spikes),
            ("expected_spike_fraction", expected_spikes),
        ]
    checks.append(("signature_ok", ok))
    mean_path = backlog.mean(axis=0)
    cum = np.cumsum(mean_path)
    profile = [
        [int(t), float(mean_path[t]), float(cum[t] / (t + 1))]
        for t in stability.geometric_checkpoints(backlog.shape[1])
    ]
    return checks, profile, ok


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 11])
def test_two_valued_median_is_the_sample_median(n):
    # Rate-not-mean's median final slope comes from a count: every middle
    # position, odd and even n, and c = n / 2, where the two middle order
    # statistics differ.
    top = 4.0**40 / 40.0
    for c in range(n + 1):
        sample = np.array([top] * c + [0.0] * (n - c))
        got = _two_valued_median(n - c, c, top)
        assert repr(got) == repr(float(stability._median(sample)))
        assert repr(got) == repr(float(np.median(sample)))


def formatted(checks, profile):
    return [(k, _fmt(v)) for k, v in checks], [[_fmt(v) for v in row] for row in profile]


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["rate-not-mean", "mean-not-rate"]),
    seed=st.integers(0, 2**63 - 1),
    n_reps=st.integers(1, 60),
    chunk=st.integers(1, 9),
)
def test_blocked_report_equals_full_matrix_formulas(name, seed, n_reps, chunk):
    horizon, whole = (
        (41, one_shot_rate_not_mean) if name == "rate-not-mean"
        else (200, partial(gap_mean_not_rate, chunk=chunk))
    )
    with pytest.MonkeyPatch.context() as mp:
        set_chunk(mp, chunk)
        got = _cex_report(name, seed, n_reps)
    expected = full_matrix_report(name, whole(seed, horizon, n_reps))
    assert formatted(*got[:2]) == formatted(*expected[:2])
    assert got[2] == expected[2]


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


RSS_CEILING_MB = 120  # whole process; the full-matrix mean-not-rate took ~361 MB


@needs_wait4
@pytest.mark.parametrize("name", ["rate-not-mean", "mean-not-rate", "strong-not-rate"])
def test_counterexample_peak_rss_is_bounded(tmp_path, name):
    peak_mb = peak_rss_mb("counterexample", name, "--out", str(tmp_path))
    assert peak_mb <= RSS_CEILING_MB, f"{name}: peak RSS {peak_mb:.1f} MB"


SIMULATE_RSS_CEILING_MB = 80  # the benchmark's dpp-ensemble command peaks near 42 MB


@needs_wait4
def test_simulate_peak_rss_is_bounded(tmp_path):
    # Guards the lockstep sampler's blocks and the CSV writer's row blocks.
    peak_mb = peak_rss_mb("simulate", "downlink2.json", "--horizon", "3000", "--reps", "100",
                          "--out", str(tmp_path))
    assert peak_mb <= SIMULATE_RSS_CEILING_MB, f"simulate: peak RSS {peak_mb:.1f} MB"
