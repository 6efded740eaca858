"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are stated
inline next to each check.  The bound comparisons in criterion 9 are property
checks (measured values dominated by the closed-form bounds); the analysis
constants themselves are loose by design and are not reproduced.
"""

import numpy as np
import pytest

from oracles import (
    CompositeState,
    TotalsCollector,
    dpp_select_action,
    estimate_verdict,
    exhaustive_dpp_argmin,
    grid_fopt,
    markov_bound_violations,
    one_shot_mean_not_rate,
    one_shot_rate_not_mean,
    single_queue_path,
    strong_not_rate_path,
)
from qnetlab.capacity import performance_bounds, solve_fopt
from qnetlab.cli import main
from qnetlab.controller import drift_constants, run_dpp_batch
from qnetlab.network import load_scenario
from qnetlab.processes import make_rng

SEED = 987654321

# Every ensemble produced by criteria 1-9 records its Markov-bound violation
# count here; criterion 10 asserts the total is zero.
MARKOV_LEDGER: list[tuple[str, int]] = []


def _report(number: int, description: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number:2d} [{status}] {description}")
    assert not failures, "; ".join(failures)


def _record_markov(name: str, q: np.ndarray) -> None:
    """Direct check of g(M) <= strong_metric / M on the backlog's own grid."""
    mean = float(q.mean())
    # The verdict's quarter-octave grid, M_i = 2^(i//4) (1 + (i%4)/4), up
    # to the first point at or above 20 x mean.
    grid = [1.0]
    while grid[-1] < 20.0 * mean:
        i = len(grid)
        grid.append(2.0 ** (i // 4) * (1 + (i % 4) / 4))
    violations = 0
    for m in grid:
        g = float((q > m).mean())
        if g > mean / m + 1e-15:
            violations += 1
    MARKOV_LEDGER.append((name, violations))


def _record_markov_verdict(name: str, verdict) -> None:
    MARKOV_LEDGER.append((name, markov_bound_violations(verdict)))


def _bb1_paths(lam: float, mu: float, horizon: int, n_reps: int, seed: int) -> np.ndarray:
    """B/B/1 backlog paths; replication r draws its arrivals, then its
    services, from substream r."""
    backlog = np.empty((n_reps, horizon))
    for r in range(n_reps):
        rng = make_rng(seed, r)
        a = (rng.random(horizon - 1) < lam).astype(float)
        b = (rng.random(horizon - 1) < mu).astype(float)
        backlog[r] = single_queue_path(a, b)[:horizon]
    return backlog


def test_criterion_01_bb1_golden_backlog():
    horizon, n_reps = 1_000_000, 20
    verdict = estimate_verdict(_bb1_paths(0.3, 0.5, horizon, n_reps, SEED))
    target = 0.3 * (1 - 0.3) / (0.5 - 0.3)  # 1.05
    failures = []
    if not abs(verdict.strong_metric - target) <= 0.05 * target:
        failures.append(
            f"time-average backlog {verdict.strong_metric:.4f} not within 5% of {target}"
        )
    _record_markov_verdict("bb1-0.3-0.5", verdict)
    _report(1, f"B/B/1 golden backlog {verdict.strong_metric:.4f} vs 1.05 +/- 5%", failures)


def test_criterion_02_overload_slope():
    horizon, n_reps = 1_000_000, 5
    backlog = _bb1_paths(0.6, 0.5, horizon, n_reps, SEED + 1)
    finals = backlog[:, horizon - 1] / (horizon - 1)
    failures = [
        f"path {r}: Q(t)/t = {slope:.4f} outside 0.10 +/- 0.01"
        for r, slope in enumerate(finals)
        if not abs(slope - 0.10) <= 0.01
    ]
    verdict = estimate_verdict(backlog)
    _record_markov_verdict("bb1-0.6-0.5", verdict)
    _report(2, f"overload slope per path ~ {finals.mean():.4f} vs 0.10 +/- 0.01", failures)


def test_criterion_03_boundary_rate_stable_not_strong():
    horizon, n_reps = 1_000_000, 4
    backlog = _bb1_paths(0.5, 0.5, horizon, n_reps, SEED + 2)
    verdict = estimate_verdict(backlog)
    finals = backlog[:, horizon - 1] / (horizon - 1)
    failures = []
    if not np.all(finals <= 0.01):
        failures.append(f"some Q(t)/t exceeds 0.01: {finals}")
    if verdict.strongly_stable:
        failures.append(
            "plateau test passed but the running average must still be growing "
            f"(half {verdict.running_mean_half:.2f}, full {verdict.strong_metric:.2f})"
        )
    _record_markov_verdict("bb1-0.5-0.5", verdict)
    _report(3, "critical-load queue: rate slope <= 0.01, strong plateau fails", failures)


def test_criterion_04_rate_not_mean_counterexample():
    backlog = one_shot_rate_not_mean(SEED + 3, 41, n_reps=100_000)
    mean6 = float(backlog[:, 6].mean()) / 6.0
    target = 2.0**6 / 6.0  # E[Q(6)] = 2^6
    frac_zero = float((backlog[:, 40] == 0.0).mean())
    failures = []
    if not abs(mean6 - target) <= 0.10 * target:
        failures.append(f"ensemble mean Q(6)/6 = {mean6:.3f} not within 10% of {target:.3f}")
    if not frac_zero >= 0.99:
        failures.append(f"only {frac_zero:.4f} of paths have Q(40) = 0")
    _record_markov("cex-rate-not-mean", backlog)
    _report(4, f"doubling counterexample: mean Q(6)/6 = {mean6:.2f}, zeros at 40 = {frac_zero:.3f}", failures)


def test_criterion_05_mean_not_rate_counterexample():
    backlog = one_shot_mean_not_rate(SEED + 4, 200, n_reps=100_000)
    mean100 = float(backlog[:, 100].mean())
    failures = []
    if not abs(mean100 - 1.0) <= 0.1:
        failures.append(f"ensemble mean Q(100) = {mean100:.3f} not within 1.0 +/- 0.1")
    # Recurring spikes: every quarter of the horizon sees spikes somewhere in
    # the ensemble, and the per-path spike fraction over [100, 200) matches
    # the independent-slot product form.
    spikes_per_slot = (backlog > 0).sum(axis=0)
    for lo in (1, 50, 100, 150):
        if spikes_per_slot[lo : lo + 50].sum() == 0:
            failures.append(f"no spikes in window [{lo}, {lo + 50})")
    frac = float((backlog[:, 100:200] > 0).any(axis=1).mean())
    expected = 1.0 - float(np.prod(1.0 - 1.0 / np.arange(100, 200)))
    if not abs(frac - expected) <= 0.02:
        failures.append(f"window spike fraction {frac:.3f} vs derived {expected:.3f}")
    _record_markov("cex-mean-not-rate", backlog)
    _report(5, f"spiking counterexample: mean Q(100) = {mean100:.3f}, spikes recur", failures)


def test_criterion_06_strong_not_rate_counterexample():
    horizon = 2**20 + 1
    path = strong_not_rate_path(horizon)
    running = float(path.sum()) / horizon
    target = (2.0**21 - 1.0) / (2.0**20 + 1.0)
    failures = []
    if not abs(running - target) <= 1e-9:
        failures.append(f"running average {running!r} != closed form {target!r}")
    if not abs(running - 2.0) <= 0.005 * 2.0:
        failures.append(f"running average {running:.6f} not within 0.5% of 2")
    bad_spikes = [n for n in range(21) if path[2**n] / 2**n != 1.0]
    if bad_spikes:
        failures.append(f"Q(2^n)/2^n != 1 at n in {bad_spikes}")
    verdict = estimate_verdict(path[None, :])
    _record_markov_verdict("cex-strong-not-rate", verdict)
    _report(6, f"power-of-two counterexample: running average {running:.6f} ~ 2", failures)


def test_criterion_07_dpp_argmin_oracle_equivalence():
    # The per-state argmin on the compiled tables is a test oracle, kept
    # out of the package.
    assert dpp_select_action.__module__ == "oracles"
    scenario = load_scenario("downlink2.json")
    rng = make_rng(SEED + 5, 0)
    mismatches = 0
    for trial in range(10_000):
        w = int(rng.integers(0, 3))
        q = rng.random(2) * float(rng.choice([1.0, 50.0, 5000.0]))
        z = rng.random(1) * float(rng.choice([1.0, 200.0]))
        v = float(rng.random() * 100.0)
        if trial % 100 == 0:
            q = np.zeros(2)  # exercise the tie rule
            z = np.zeros(1)
            v = 0.0
        state = CompositeState(q, z)
        ours = dpp_select_action(scenario, w, state, v)
        if ours != exhaustive_dpp_argmin(scenario, w, q, z, v):
            mismatches += 1
    failures = [f"{mismatches} / 10000 selections differ"] if mismatches else []
    _report(7, "controller argmin equals exhaustive minimization on 10^4 states", failures)


def test_criterion_08_lp_grid_crosscheck():
    failures = []
    for name in ("bb1.json", "downlink2.json"):
        scenario = load_scenario(name)
        assert scenario.omega_chain.n_states <= 3
        report = solve_fopt(scenario)
        grid_value = grid_fopt(scenario, step=1e-3)
        tol = 1e-3 * (1.0 + abs(report.f_opt))
        if not abs(report.f_opt - grid_value) <= tol:
            failures.append(
                f"{name}: simplex {report.f_opt:.6f} vs grid {grid_value:.6f} (tol {tol:.1e})"
            )
    _report(8, "simplex f_opt matches 1e-3 grid search on both fixtures", failures)


def test_criterion_09_controller_performance_suite():
    scenario = load_scenario("downlink2.json")
    cap = solve_fopt(scenario)
    drift = drift_constants(scenario)
    epsilon = drift.d_max / 4.0
    horizon = 150_000
    v_list = (1.0, 10.0, 100.0)
    noise = 0.01  # Monte-Carlo slack for the monotonicity / approach checks
    failures = []
    costs = []
    # One 3-lane kernel call: the three V values share replication 0's path.
    # Totals include the virtual queues: their row means are the time-average
    # backlog sums that the bound covers.
    batch = run_dpp_batch(scenario, v_list, [0] * len(v_list), SEED + 6, horizon, record=3,
                          with_virtual=True, reducer=TotalsCollector)
    totals = batch.reducer.totals
    for i, (v_param, run) in enumerate(zip(v_list, batch.runs)):
        avg_cost, avg_g = batch.cost_sum[i] / horizon, batch.g_sum[i] / horizon
        avg_backlog = totals[i].mean()
        costs.append(avg_cost)
        if not np.all(avg_g <= 0.01):
            failures.append(f"V={v_param}: time-avg g {avg_g} above 0.01")
        slopes = np.concatenate([run.q_path[horizon], run.z_path[horizon]]) / horizon
        if not np.all(slopes <= 0.01):
            failures.append(f"V={v_param}: backlog slopes {slopes} above 0.01")
        bounds = performance_bounds(scenario, v_param, epsilon, drift)
        if not avg_backlog <= bounds.backlog_bound:
            failures.append(
                f"V={v_param}: measured backlog {avg_backlog:.2f} exceeds "
                f"bound {bounds.backlog_bound:.2f}"
            )
        if not avg_cost <= bounds.cost_bound:
            failures.append(
                f"V={v_param}: measured cost {avg_cost:.4f} exceeds "
                f"bound {bounds.cost_bound:.4f}"
            )
        for k in range(scenario.n_queues):
            _record_markov(f"dpp-V{v_param}-queue{k}", run.q_path[:horizon, k][None, :])
        _record_markov(f"dpp-V{v_param}-total", totals[i][None, :])
    if not (costs[1] <= costs[0] + noise and costs[2] <= costs[1] + noise):
        failures.append(f"avg cost not non-increasing in V: {costs}")
    if not (cap.f_opt - noise <= costs[-1] <= cap.f_opt + 0.05):
        failures.append(
            f"cost at V=100 ({costs[-1]:.4f}) does not approach f_opt {cap.f_opt:.4f} from above"
        )
    _report(9, f"controller suite: costs {np.round(costs, 4)} -> f_opt {cap.f_opt}", failures)


def test_criterion_10_markov_bound_zero_violations():
    failures = []
    if len(MARKOV_LEDGER) < 10:
        failures.append(f"only {len(MARKOV_LEDGER)} ensembles were checked")
    for name, violations in MARKOV_LEDGER:
        if violations:
            failures.append(f"{name}: {violations} grid points violate g(M) <= mean/M")
    _report(10, f"Markov bound g(M) <= mean/M on {len(MARKOV_LEDGER)} ensembles", failures)


def test_criterion_11_cli_determinism(tmp_path):
    failures = []
    sim_args = [
        "simulate",
        "bb1.json",
        "--lambda",
        "0.3",
        "--mu",
        "0.5",
        "--horizon",
        "20000",
        "--reps",
        "4",
        "--seed",
        "7",
    ]
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / f"sim-{sub}"
        assert main(sim_args + ["--out", str(out)]) == 0
        outs.append(out)
    for name in ("trace.csv", "curves.csv", "report.txt"):
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
            failures.append(f"simulate outputs differ: {name}")

    cap_outs = []
    for sub in ("a", "b"):
        out = tmp_path / f"cap-{sub}"
        assert main(["capacity", "downlink2.json", "--sweep-scale", "0.4,1.0,1.6", "--out", str(out)]) == 0
        cap_outs.append(out)
    for name in ("capacity.txt", "capacity_sweep.csv"):
        if (cap_outs[0] / name).read_bytes() != (cap_outs[1] / name).read_bytes():
            failures.append(f"capacity outputs differ: {name}")
    _report(11, "repeated CLI runs produce byte-identical outputs", failures)
