"""Every command by time block.

The kernel hands each time block of backlog totals to its consumers and
drops it, so no (replications x horizon) array is held.  These tests pin
what byte identity with the whole-array formulas rests on: ``OrderedSum``
adds in numpy's order however the values are cut into blocks, with state
that does not grow with the horizon; the
reducer's verdict equals ``estimate_verdict`` on the whole matrix, bit for
bit, however the matrix is cut into blocks and lanes, with values on the
quarter-octave tail grid, one ulp either side of it, zeros of both signs,
subnormals and values up to 2^60; a verdict run of the kernel equals a
whole-array run, in one kernel pass; the recorded lane's first slots are
those of a full record; and the commands stay small in memory at horizons
where the whole arrays did not.
"""

from __future__ import annotations

import argparse
import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import TotalsCollector, estimate_verdict
from peak_rss import needs_wait4, peak_rss_mb
from qnetlab import cli, controller, stability
from qnetlab.cli import override_lambdas, override_mu
from qnetlab.network import fixture_path, load_scenario
from qnetlab.processes import ArrivalSpec
from qnetlab.stability import OrderedSum, VerdictReducer


def same_verdict(ours, theirs) -> bool:
    """Every field equal bit for bit (arrays by bytes, floats by repr)."""
    for a, b in zip(ours, theirs):
        if isinstance(a, np.ndarray):
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                return False
        elif repr(a) != repr(b):
            return False
    return True


def feed_in_blocks(consumer, backlog, cuts):
    """``consumer`` fed ``backlog`` in time blocks that end at ``cuts``."""
    for t0, t1 in zip([0, *cuts], [*cuts, backlog.shape[1]]):
        consumer.add(backlog[:, t0:t1])
    return consumer


def reduce_in_blocks(backlog, cuts):
    """A reducer fed ``backlog`` in time blocks that end at ``cuts``."""
    return feed_in_blocks(VerdictReducer(*backlog.shape), backlog, cuts)


def reduced_verdict(backlog, cuts):
    return reduce_in_blocks(backlog, cuts).verdict()


# ---------------------------------------------------------------------------
# ordered sums
# ---------------------------------------------------------------------------


@st.composite
def spread_values(draw, lengths):
    """``(rows, n)`` floats spanning 16 decades of both signs with exact
    zeros of both signs, and cuts into column blocks."""
    rows, n = draw(st.integers(1, 3)), draw(lengths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rows, n)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    if draw(st.booleans()):
        values[rng.random(shape) < 0.1] = 0.0
        values[rng.random(shape) < 0.1] = -0.0
    n_cuts = draw(st.integers(0, 12))
    cuts = np.unique(rng.integers(1, max(n, 2), size=n_cuts)) if n > 1 else []
    return values, [int(c) for c in cuts]


def ordered_sum(values, cuts):
    total = OrderedSum(*values.shape)
    for t0, t1 in zip([0, *cuts], [*cuts, values.shape[1]]):
        total.add(values[:, t0:t1])
    return total.total


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


LENGTHS = st.one_of(st.integers(1, 600), st.integers(10**4, 10**6))


@settings(max_examples=80, deadline=None)
@given(case=spread_values(LENGTHS))
def test_ordered_sum_has_numpys_bits(case):
    values, cuts = case
    total = ordered_sum(values, cuts)
    n = values.shape[1]
    for row, got in zip(values, total):
        assert same_bits(np.float64(got), row.sum())
        assert same_bits(np.float64(got / n), row.mean())
    assert same_bits(total, values.sum(axis=1))


def test_ordered_sum_survives_a_pickle_midway_and_refuses_extra_values():
    values = np.random.default_rng(2).standard_normal((3, 1000))
    total = OrderedSum(3, 1000)
    for t0 in range(0, 1000, 300):  # a leaf straddles every cut
        total = pickle.loads(pickle.dumps(total))
        total.add(values[:, t0 : t0 + 300])
    assert same_bits(total.total, values.sum(axis=1))
    with pytest.raises(ValueError, match="1000 values"):
        total.add(values[:, :1])
    unfinished = OrderedSum(1, 1000)
    unfinished.add(values[:1, :999])
    assert unfinished.total is None


def test_ordered_sum_state_does_not_grow_with_the_horizon():
    # The walk holds one leaf's carry and two pending entries per tree level,
    # never a plan of every leaf (23.6 MB for a reducer at 10^7 slots).
    tracemalloc.start()
    try:
        VerdictReducer(100, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"{peak} bytes"
    assert len(OrderedSum(1, 10**12).todo) <= 80


# ---------------------------------------------------------------------------
# the verdict reducer
# ---------------------------------------------------------------------------


# Points of the quarter-octave tail grid, 2^k (1 + j/4) up to 2^60, and the
# floats one ulp either side of each; then zeros of both signs and the least
# subnormal.
GRID_POINTS = np.array([2.0**k * (1 + j / 4) for k in range(61) for j in range(4)])
EDGE_VALUES = np.concatenate([GRID_POINTS, np.nextafter(GRID_POINTS, 0.0),
                              np.nextafter(GRID_POINTS, np.inf), [0.0, -0.0, 5e-324]])


@st.composite
def reducer_backlogs(draw):
    """Backlogs as floats: random walks reflected at 0, all-zero lanes, and
    sparse large values; whole numbers, or halves of them; and at times
    sparse values on and next to the tail grid, up to 2^60."""
    n = draw(st.integers(1, 12))
    horizon = draw(st.integers(1000, 2500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    walk = np.cumsum(rng.integers(-2, 3, size=(n, horizon)), axis=1)
    backlog = walk - np.minimum.accumulate(walk, axis=1)
    backlog[rng.random(n) < 0.2] = 0  # idle lanes
    if draw(st.booleans()):  # rare bursts far above the walk
        spikes = rng.random((n, horizon)) < 0.001
        backlog[spikes] += rng.integers(1, 60_000, size=int(spikes.sum()))
    backlog = backlog * (0.5 if draw(st.booleans()) else 1.0)
    if draw(st.booleans()):  # grid edges up to 2^top
        edges = EDGE_VALUES[EDGE_VALUES <= 2.0 ** draw(st.integers(0, 60))]
        cells = rng.random((n, horizon)) < 0.02
        backlog[cells] = rng.choice(edges, size=int(cells.sum()))
    return backlog


@settings(max_examples=60, deadline=None)
@given(backlog=reducer_backlogs(), data=st.data())
def test_reducer_equals_whole_array_verdict(backlog, data):
    horizon = backlog.shape[1]
    cuts = data.draw(st.lists(st.integers(1, horizon - 1), max_size=8), label="cuts")
    cuts = sorted(set(cuts))
    expected = estimate_verdict(backlog)
    assert same_verdict(reduced_verdict(backlog, cuts), expected)
    # Lanes split in two parts, each reduced on its own (as --workers does),
    # pickled across, and merged in lane order.
    split = data.draw(st.integers(1, max(1, backlog.shape[0] - 1)), label="split")
    parts = [reduce_in_blocks(part, cuts) for part in (backlog[:split], backlog[split:])
             if part.size]
    merged = VerdictReducer.concat([pickle.loads(pickle.dumps(part)) for part in parts])
    assert same_verdict(merged.verdict(), expected)


def test_reducer_equals_whole_array_verdict_with_thresholds():
    # The verdict reads the grid up to 20 x the mean backlog.  Values below
    # it end the counted keys short of the grid top, and the grid reads the
    # last count past them; one spike far above it counts keys past the top.
    rng = np.random.default_rng(5)
    backlog = rng.integers(0, 40, size=(150, 1500)).astype(float)
    spiked = backlog.copy()
    spiked[3, 700] = 2.0**30
    for values, above in ((backlog, False), (spiked, True)):
        for scale in (1.0, 0.25):  # whole numbers, then quarters
            reducer = reduce_in_blocks(values * scale, [1, 749, 750, 751, 1499])
            verdict = reducer.verdict()
            assert (reducer.counts.shape[1] > verdict.m_grid.size) == above
            assert verdict.mean_rate_slope is not None  # 150 replications
            assert same_verdict(verdict, estimate_verdict(values * scale))


def test_reducer_rejects_negative_backlogs_and_short_horizons():
    with pytest.raises(ValueError, match="non-negative"):
        VerdictReducer(2, 1000).add(np.full((2, 10), -1.0))
    with pytest.raises(ValueError, match="finite"):
        VerdictReducer(2, 1000).add(np.full((2, 10), np.inf))
    with pytest.raises(ValueError, match="horizon"):
        VerdictReducer(2, 999)


def test_reducer_refuses_an_infinite_mean_backlog():
    # Finite backlogs whose sum overflows: the grid top is not a number, and
    # the CLI reports the OverflowError as an error line.
    reducer = VerdictReducer(4, 1000)
    with np.errstate(over="ignore"):
        reducer.add(np.full((4, 1000), 1e306))
        with pytest.raises(OverflowError, match="infinity"):
            reducer.verdict()


# ---------------------------------------------------------------------------
# the kernel's consumers
# ---------------------------------------------------------------------------


def bb1(lam, mu):
    return override_lambdas(override_mu(load_scenario("bb1.json"), mu), [lam])


def halved(scenario):
    """``scenario`` with arrivals of half a unit: backlogs are not whole numbers."""
    return scenario._replace(arrivals=[
        ArrivalSpec(kind="bernoulli", rate=spec.p * 0.5, p=spec.p, size=0.5)
        for spec in scenario.arrivals
    ])


KERNEL_CASES = {
    "downlink2": (lambda: load_scenario("downlink2.json"), "respect"),
    "downlink2-clamped": (lambda: load_scenario("downlink2.json"), "clamped"),
    "bb1": (lambda: bb1(0.3, 0.5), "respect"),
    "bb1-unstable": (lambda: bb1(0.9, 0.5), "respect"),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_verdict_run_equals_whole_array_run(monkeypatch, case):
    # Small sampler blocks: many blocks, a short last one.
    monkeypatch.setattr("qnetlab.processes._SAMPLE_BLOCK_BYTES", 40_000)
    make, mode = KERNEL_CASES[case]
    args = (make(), [2.0] * 6 + [0.0], [0, 1, 2, 3, 4, 5, 2], 17, 1301, mode)
    whole = controller.run_dpp_batch(*args, record=2, reducer=TotalsCollector)
    streamed = controller.run_dpp_batch(*args, record=2, record_slots=450,
                                        reducer=VerdictReducer)
    expected = estimate_verdict(whole.reducer.totals)
    assert same_verdict(streamed.reducer.verdict(), expected)
    for full, kept in zip(whole.runs, streamed.runs):
        assert kept.horizon == 450
        for name in ("q_path", "z_path"):
            assert np.array_equal(getattr(kept, name), getattr(full, name)[:451])
        for name in ("omega_path", "action_path"):
            want = getattr(full, name)[:450]
            assert getattr(kept, name).dtype == want.dtype
            assert np.array_equal(getattr(kept, name), want)


ONE_PASS_CASES = {
    "halved-downlink2": (lambda: halved(load_scenario("downlink2.json")), "respect"),
    "halved-downlink2-clamped": (lambda: halved(load_scenario("downlink2.json")), "clamped"),
    "bb1-unstable": (lambda: bb1(0.9, 0.5), "respect"),
}


@pytest.mark.parametrize("case", sorted(ONE_PASS_CASES))
def test_verdict_run_takes_one_kernel_pass(tmp_path, monkeypatch, case):
    # Backlogs that are not whole numbers, or that grow without bound, are
    # counted on the same pass.  Chunks of 20 cells put two slots of the 7
    # lanes in each chunk, with chunk edges that cross the sampler's blocks.
    monkeypatch.setattr("qnetlab.processes._SAMPLE_BLOCK_BYTES", 40_000)
    monkeypatch.setattr(stability, "_COUNT_CHUNK_CELLS", 20)
    make, mode = ONE_PASS_CASES[case]
    scenario = make()
    whole = controller.run_dpp_batch(scenario, [2.0] * 7, range(7), 17, 1301, mode,
                                     reducer=TotalsCollector)
    calls = []
    real_run = controller.run_dpp_batch

    def counted(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(controller, "run_dpp_batch", counted)
    monkeypatch.setattr(cli, "_load_with_overrides", lambda args: scenario)
    args = argparse.Namespace(cmd="stability", V=2.0, reps=7, seed=17, horizon=1301, mode=mode,
                              workers=1, trace_limit=10, out=str(tmp_path))
    _, verdict, _, _ = cli._verdict_run(args, record=False)
    assert len(calls) == 1
    assert same_verdict(verdict, estimate_verdict(whole.reducer.totals))


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


STREAM_RSS_CEILING_MB = 55  # whole process; the whole-array path took 109 to 242 MB


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
    # which one count per quarter octave covers in ~80 keys per lane.
    spec = json.loads(fixture_path("downlink2").read_text())
    for arrival in spec["arrivals"]:
        arrival["size"], arrival["rate"] = 1000.0, 1000.0 * arrival["p"]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec))
    peak_mb = peak_rss_mb("simulate", str(path), "--horizon", "3000", "--reps", "100",
                          "--out", str(tmp_path / "out"))
    assert peak_mb <= STREAM_RSS_CEILING_MB, f"peak RSS {peak_mb:.1f} MB"


@needs_wait4
@pytest.mark.parametrize("argv", [
    # 400 lanes x 20,000 slots: 109 MB with whole (lanes, horizon) arrays.
    ["sweep-v", "downlink2.json", "--V", "1,10,100,1000", "--reps", "100",
     "--horizon", "20000"],
    # 231 MB with whole arrays.
    ["bb1", "--lambda", "0.3", "--mu", "0.5", "--simulate", "--horizon", "200000",
     "--reps", "100"],
    # An unstable queue: its backlogs grow with the horizon, their tail
    # counts by a few keys (175 MB when whole-number histograms grew by
    # doubling).
    ["simulate", "bb1.json", "--lambda", "0.9", "--mu", "0.5", "--horizon", "200000",
     "--reps", "100", "--seed", "7"],
], ids=["sweep-v", "bb1-simulate", "simulate-unstable"])
def test_every_command_streams(tmp_path, argv):
    peak_mb = peak_rss_mb(*argv, "--out", str(tmp_path))
    assert peak_mb <= STREAM_RSS_CEILING_MB, f"{argv[0]}: peak RSS {peak_mb:.1f} MB"
