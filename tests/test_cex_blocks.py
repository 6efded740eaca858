"""The counter-example reports from their sufficient statistics.

The counter-example reports never hold the (replications x horizon) matrix:
``stability.cex_rate_not_mean`` returns only its column sums and a count of
replications, ``stability.cex_mean_not_rate`` its column sums and one flag
per replication, and mean-not-rate draws its uniforms in row blocks.  These
tests pin what byte identity with the full-matrix code rests on: the
statistics equal those of the one-shot matrices in ``oracles``, the reports
equal the full-matrix formulas, and the commands stay small in memory.  The memory guard also covers ``simulate``,
whose sampler and CSV writer work in bounded blocks too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import one_shot_mean_not_rate, one_shot_rate_not_mean
from peak_rss import needs_wait4, peak_rss_mb
from qnetlab import stability
from qnetlab.cli import _cex_report, _fmt, _two_valued_median


def set_block_rows(monkeypatch, rows, horizon):
    monkeypatch.setattr(stability, "_CEX_BLOCK_BYTES", 8 * horizon * rows)


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
    ("mean-not-rate", stability.cex_mean_not_rate, one_shot_mean_not_rate,
     mean_not_rate_statistics, (37, 10)),
]


@pytest.mark.parametrize("name, draw, one_shot, statistics, horizons", DRAWS,
                         ids=[d[0] for d in DRAWS])
@pytest.mark.parametrize("seed", [0, 3, 12345, 2**40 + 7])
def test_stacked_blocks_equal_one_shot_draw(monkeypatch, name, draw, one_shot, statistics,
                                            horizons, seed):
    # The statistics of the blocked draw are those of one one-shot matrix,
    # bit for bit.  7 rows per block: 7 full blocks and a last one of 1 row.
    n_reps = 50
    for horizon in horizons:
        set_block_rows(monkeypatch, 7, horizon)
        got = draw(seed, horizon, n_reps)
        expected = statistics(one_shot(seed, horizon, n_reps))
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            if isinstance(e, np.ndarray):
                assert g.dtype == e.dtype and g.shape == e.shape
                assert g.tobytes() == e.tobytes()
            else:  # a count of replications
                assert type(g) is int and g == e


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
    rows=st.integers(1, 9),
)
def test_blocked_report_equals_full_matrix_formulas(name, seed, n_reps, rows):
    horizon, one_shot = (
        (41, one_shot_rate_not_mean) if name == "rate-not-mean" else (200, one_shot_mean_not_rate)
    )
    with pytest.MonkeyPatch.context() as mp:
        set_block_rows(mp, rows, horizon)
        got = _cex_report(name, seed, n_reps)
    expected = full_matrix_report(name, one_shot(seed, horizon, n_reps))
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
