"""``simulate`` and ``stability`` by time block.

With integer work the kernel hands each time block of backlog totals to a
``stability.VerdictReducer`` and drops it, so no (replications x horizon)
array is held.  These tests pin what byte identity with the whole-array
path rests on: the reducer's verdict equals ``estimate_verdict`` on the
whole matrix, bit for bit, however the matrix is cut into blocks and lanes;
a verdict run of the kernel equals a whole-array run; the recorded lane's
first slots are those of a full record; and the commands stay small in
memory at horizons where the whole arrays did not.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peak_rss import needs_wait4, peak_rss_mb
from qnetlab import controller, stability
from qnetlab.cli import override_lambdas, override_mu
from qnetlab.network import fixture_path, load_scenario
from qnetlab.processes import ArrivalSpec
from qnetlab.stability import VerdictReducer, estimate_verdict


def same_verdict(ours, theirs) -> bool:
    """Every field equal bit for bit (arrays by bytes, floats by repr)."""
    for a, b in zip(ours, theirs):
        if isinstance(a, np.ndarray):
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                return False
        elif repr(a) != repr(b):
            return False
    return True


def reduce_in_blocks(backlog, cuts):
    """A reducer fed ``backlog`` in time blocks that end at ``cuts``."""
    reducer = VerdictReducer(*backlog.shape)
    for t0, t1 in zip([0, *cuts], [*cuts, backlog.shape[1]]):
        reducer.add(t0, backlog[:, t0:t1])
    return reducer


@st.composite
def integer_backlogs(draw):
    """Integer backlogs as floats: random walks reflected at 0, all-zero
    lanes, and sparse large values."""
    n = draw(st.integers(1, 12))
    horizon = draw(st.integers(1000, 2500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    walk = np.cumsum(rng.integers(-2, 3, size=(n, horizon)), axis=1)
    backlog = walk - np.minimum.accumulate(walk, axis=1)
    backlog[rng.random(n) < 0.2] = 0  # idle lanes
    if draw(st.booleans()):  # rare bursts far above the walk
        spikes = rng.random((n, horizon)) < 0.001
        backlog[spikes] += rng.integers(1, 60_000, size=int(spikes.sum()))
    return backlog.astype(float)


@settings(max_examples=60, deadline=None)
@given(backlog=integer_backlogs(), data=st.data())
def test_reducer_equals_whole_array_verdict(backlog, data):
    horizon = backlog.shape[1]
    cuts = data.draw(st.lists(st.integers(1, horizon - 1), max_size=8), label="cuts")
    cuts = sorted(set(cuts))
    expected = estimate_verdict(backlog)
    assert same_verdict(reduce_in_blocks(backlog, cuts).verdict(), expected)
    # Lanes split in two parts, each reduced on its own (as --workers does),
    # pickled across, and merged in lane order.
    split = data.draw(st.integers(1, max(1, backlog.shape[0] - 1)), label="split")
    parts = [reduce_in_blocks(part, cuts) for part in (backlog[:split], backlog[split:])
             if part.size]
    merged = VerdictReducer.concat([pickle.loads(pickle.dumps(part)) for part in parts])
    assert same_verdict(merged.verdict(), expected)


def test_reducer_equals_whole_array_verdict_with_thresholds():
    rng = np.random.default_rng(5)
    backlog = rng.integers(0, 40, size=(150, 1500)).astype(float)
    thresholds = stability.VerdictThresholds(m_grid_points=7, m_max_multiplier=3.0)
    reducer = reduce_in_blocks(backlog, [1, 749, 750, 751, 1499])
    assert same_verdict(reducer.verdict(thresholds), estimate_verdict(backlog, thresholds))


def test_reducer_chunks_cover_every_cell(monkeypatch):
    # Chunks of 7 cells: one column per chunk at 3 lanes and more, several
    # columns per chunk below.
    # Values 0..3 span at most 4 bins, narrow enough for one-slot chunks.
    monkeypatch.setattr(stability, "_HIST_CHUNK_CELLS", 7)
    backlog = np.random.default_rng(1).integers(0, 4, size=(5, 1200)).astype(float)
    for n in (1, 2, 5):
        reducer = reduce_in_blocks(backlog[:n], [100, 1100])
        assert reducer.values is None
        assert same_verdict(reducer.verdict(), estimate_verdict(backlog[:n]))


def test_reducer_keeps_values_once_the_range_is_wide():
    # Narrow for 700 slots, then jumps of 1,000: one chunk spans too many
    # values per slot, and the histograms so far turn into sorted values.
    rng = np.random.default_rng(3)
    backlog = rng.integers(0, 5, size=(4, 1600)).astype(float)
    backlog[:, 700:] += 1000.0 * rng.integers(0, 30, size=(4, 900))
    dense = VerdictReducer(4, 1600)
    dense.add(0, backlog[:, :700])
    assert dense.values is None
    switched = reduce_in_blocks(backlog, [700, 1000])
    assert switched.hist is None and switched.values is not None
    expected = estimate_verdict(backlog)
    assert same_verdict(switched.verdict(), expected)
    # Lanes reduced apart: one part still histograms, the other keeps values.
    narrow = reduce_in_blocks(backlog[:2, :1000] % 7, [])
    assert narrow.values is None
    wide = reduce_in_blocks(backlog[2:, :1000], [])
    assert wide.values is not None
    merged = VerdictReducer.concat([narrow, wide])
    whole = np.concatenate([backlog[:2, :1000] % 7, backlog[2:, :1000]])
    assert same_verdict(merged.verdict(), estimate_verdict(whole))


def test_reducer_keeps_values_when_the_histograms_would_outgrow_them():
    # A slow climb to 5,000 within 2,000 slots: every chunk is narrow, but
    # the histograms would need more bins than half the horizon.
    backlog = np.tile(np.arange(2000) * 2.5 // 1, (3, 1))
    reducer = reduce_in_blocks(backlog, [500, 900, 1500])
    assert reducer.values is not None
    assert same_verdict(reducer.verdict(), estimate_verdict(backlog))


def test_reducer_rejects_negative_backlogs_and_short_horizons():
    with pytest.raises(ValueError, match="non-negative"):
        VerdictReducer(2, 1000).add(0, np.full((2, 10), -1.0))
    with pytest.raises(ValueError, match="horizon"):
        VerdictReducer(2, 999)


# ---------------------------------------------------------------------------
# the kernel's two consumers
# ---------------------------------------------------------------------------


def bb1(lam, mu):
    return override_lambdas(override_mu(load_scenario("bb1.json"), mu), [lam])


KERNEL_CASES = {
    "downlink2": (lambda: load_scenario("downlink2.json"), "respect"),
    "downlink2-clamped": (lambda: load_scenario("downlink2.json"), "clamped"),
    "bb1": (lambda: bb1(0.3, 0.5), "respect"),
    "bb1-unstable": (lambda: bb1(0.9, 0.5), "respect"),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_verdict_run_equals_whole_array_run(monkeypatch, case):
    make, mode = KERNEL_CASES[case]
    scenario = make()
    assert controller.has_integer_work(scenario, mode)
    # Small sampler blocks: many blocks, a short last one.
    monkeypatch.setattr("qnetlab.processes._SAMPLE_BLOCK_BYTES", 40_000)
    args = (scenario, [2.0] * 6 + [0.0], [0, 1, 2, 3, 4, 5, 2], 17, 1301, mode)
    whole = controller.run_dpp_batch(*args, record=2)
    streamed = controller.run_dpp_batch(*args, record=2, verdict=True, record_slots=450)
    assert streamed.totals is None and streamed.avg_cost is None and streamed.avg_g is None
    assert same_verdict(streamed.reducer.verdict(), estimate_verdict(whole.totals))
    for full, kept in zip(whole.runs, streamed.runs):
        assert kept.horizon == 450
        for name in ("q_path", "z_path"):
            assert np.array_equal(getattr(kept, name), getattr(full, name)[:451])
        for name in ("omega_path", "action_path", "x_path", "f_path", "g_path"):
            want = getattr(full, name)[:450]
            assert getattr(kept, name).dtype == want.dtype
            assert np.array_equal(getattr(kept, name), want)
        assert np.array_equal(kept.arrivals, full.arrivals[:, :450])


def test_verdict_run_needs_integer_work():
    half = load_scenario("downlink2.json")
    half = half._replace(arrivals=[
        ArrivalSpec(kind="bernoulli", rate=spec.p * 0.5, p=spec.p, size=0.5)
        for spec in half.arrivals
    ])
    assert not controller.has_integer_work(half)
    with pytest.raises(ValueError, match="integer work"):
        controller.run_dpp_batch(half, [1.0], [0], 1, 1000, verdict=True)
    with pytest.raises(ValueError, match="integer work"):
        controller.run_dpp_batch(load_scenario("downlink2.json"), [1.0], [0], 1, 1000,
                                 with_virtual=True, verdict=True)


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


STREAM_RSS_CEILING_MB = 55  # whole process; the whole-array path took 110 and 242 MB


@needs_wait4
@pytest.mark.parametrize("argv", [
    ["downlink2.json", "--horizon", "60000"],
    ["bb1.json", "--lambda", "0.3", "--mu", "0.5", "--horizon", "200000"],
], ids=["downlink2", "bb1"])
def test_long_simulate_peak_rss_does_not_grow_with_the_horizon(tmp_path, argv):
    peak_mb = peak_rss_mb("simulate", *argv, "--reps", "100", "--out", str(tmp_path))
    assert peak_mb <= STREAM_RSS_CEILING_MB, f"simulate {argv[0]}: peak RSS {peak_mb:.1f} MB"


@needs_wait4
def test_wide_backlog_range_peak_rss_stays_bounded(tmp_path):
    # Arrivals of 1,000 units against unit service: backlogs reach ~10^6,
    # whose histograms would take gigabytes; the reducer keeps the values.
    spec = json.loads(fixture_path("downlink2").read_text())
    for arrival in spec["arrivals"]:
        arrival["size"], arrival["rate"] = 1000.0, 1000.0 * arrival["p"]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec))
    peak_mb = peak_rss_mb("simulate", str(path), "--horizon", "3000", "--reps", "100",
                          "--out", str(tmp_path / "out"))
    assert peak_mb <= STREAM_RSS_CEILING_MB, f"peak RSS {peak_mb:.1f} MB"
