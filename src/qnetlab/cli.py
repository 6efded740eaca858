"""Command-line orchestration: scenario loading, replication fan-out, V-sweeps,
report/CSV emission, and counter-example regression.

Every command is a pure function of (scenario file, flags, seed): re-running
with the same inputs writes byte-identical outputs.  Reports are flat
``key=value`` text; traces and curves are CSV with fixed column order.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Iterable, NoReturn, Sequence

import numpy as np

from . import capacity as capacity_mod
from . import controller, stability
from .network import Scenario, ScenarioError, fixture_path, load_scenario
from .processes import _MASK64, ArrivalSpec, FiniteMarkovChain
from .simplex import SimplexError
from .stability import StabilityVerdict, bb1_closed_form, verdict_report_items

DEFAULT_SEED = 12345
CSV_BLOCK_CELLS = 4096  # cells formatted per row block in write_csv: bounds its strings
COUNTEREXAMPLES = ("rate-not-mean", "mean-not-rate", "strong-not-rate")


# ---------------------------------------------------------------------------
# formatting helpers
# ---------------------------------------------------------------------------


def _fmt(value: object) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "n/a"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    if isinstance(value, (list, tuple)):
        return ";".join(_fmt(v) for v in value)
    return str(value)


def _lines(items: Iterable[tuple[str, object]]) -> list[str]:
    """One ``key=value`` line per report item: a report's lines, and the
    stdout lines of the commands that echo theirs."""
    return [f"{key}={_fmt(value)}" for key, value in items]


def write_report(path: Path, items: Iterable[tuple[str, object]]) -> None:
    path.write_text("".join(line + "\n" for line in _lines(items)))


def _fmt_column(values: Sequence[object]) -> list[str]:
    """``_fmt`` of every value; a numeric array is formatted through ``tolist``."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return list(map(repr, values.tolist()))
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    return [_fmt(v) for v in values]


def write_csv(path: Path, header: Sequence[str], columns: Sequence[Sequence[object]]) -> None:
    """Write equal-length columns as CSV rows, formatted a row block at a time.

    A block holds about ``CSV_BLOCK_CELLS`` cells.  Cells are ``_fmt`` of
    each value: numbers, booleans and ``n/a``, none of which needs quoting.
    """
    n_rows = len(columns[0]) if columns else 0
    block = max(1, CSV_BLOCK_CELLS // max(1, len(columns)))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, block):
            cells = [_fmt_column(col[lo : lo + block]) for col in columns]
            fh.write("".join([",".join(row) + "\n" for row in zip(*cells)]))


# ---------------------------------------------------------------------------
# scenario overrides
# ---------------------------------------------------------------------------


def parse_lambda_flag(raw: str, k: int) -> list[float]:
    values = parse_entries(raw, "--lambda")
    if len(values) == 1 and k > 1:
        values = values * k
    if len(values) != k:
        raise ValueError(f"--lambda needs 1 or {k} comma-separated values")
    return values


def override_lambdas(scenario: Scenario, lams: Sequence[float]) -> Scenario:
    """Replace every arrival process with Bernoulli(lambda_k) unit arrivals."""
    arrivals = [
        ArrivalSpec(kind="bernoulli", rate=lam, p=lam, size=1.0) for lam in lams
    ]
    return scenario._replace(arrivals=arrivals)


def override_mu(scenario: Scenario, mu: float) -> Scenario:
    """Reparameterize a two-state i.i.d. server chain to ON-probability mu.

    Only meaningful for scenarios shaped like the ``bb1`` fixture (two states
    whose rows are identical and whose tables differ only via the ON state).
    """
    chain = scenario.omega_chain
    if chain.n_states != 2 or not np.allclose(chain.transition[0], chain.transition[1]):
        raise ScenarioError(
            "omega_chain", "--mu requires a two-state i.i.d. server chain (bb1 shape)"
        )
    if not (0.0 <= mu <= 1.0):
        raise ValueError("--mu must lie in [0, 1]")
    row = np.array([1.0 - mu, mu])
    new_chain = FiniteMarkovChain(
        transition=np.vstack([row, row]), initial=row.copy(), labels=chain.labels
    )
    return scenario._replace(omega_chain=new_chain)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def run_lanes(
    scenario: Scenario,
    v_weights: Sequence[float],
    replications: Sequence[int],
    args: argparse.Namespace,
    record: int = 0,
    with_virtual: bool = False,
    record_slots: int | None = None,
    reducer=stability.OrderedSum,
) -> controller.DppBatchResult:
    """Run (V, replication) lanes through the batched kernel.

    With ``--workers N`` the lanes split into N contiguous blocks, one kernel
    call per worker process; the per-lane sums and the ``reducer``
    consumers' lanes come back in lane order.
    """
    bounds = np.linspace(0, len(v_weights), min(args.workers, len(v_weights)) + 1).astype(int)
    jobs = [
        (scenario, v_weights[lo:hi], replications[lo:hi], args.seed, args.horizon,
         args.mode, record if lo == 0 else 0, with_virtual, record_slots, reducer)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    if len(jobs) == 1:
        return controller.run_dpp_batch(*jobs[0])
    # Imported here: a one-worker run, the common case, never pays for it.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
        parts = list(pool.map(controller.run_dpp_batch, *zip(*jobs)))
    cost_sum, g_sum = (np.concatenate([part[i] for part in parts]) for i in range(2))
    reducer = type(parts[0].reducer).concat([part.reducer for part in parts])
    return controller.DppBatchResult(cost_sum, g_sum, parts[0].runs, reducer)


# ---------------------------------------------------------------------------
# trace CSV
# ---------------------------------------------------------------------------


def trace_header(scenario: Scenario) -> list[str]:
    cols = ["t"]
    cols += [f"Q_{k + 1}" for k in range(scenario.n_queues)]
    cols += [f"Z_{l + 1}" for l in range(scenario.n_constraints)]
    cols += ["omega", "action"]
    cols += [f"x_{m + 1}" for m in range(scenario.n_attributes)]
    cols += ["f"]
    cols += [f"g_{l + 1}" for l in range(scenario.n_constraints)]
    return cols


def trace_columns(scenario: Scenario, run: controller.DppRunResult, limit: int) -> list:
    """The ``trace_header`` columns of the first ``limit`` slots of ``run``,
    a run of ``scenario``: its tables at each slot's (omega, action)."""
    n = min(run.horizon, limit)
    taken = run.omega_path[:n], run.action_path[:n]
    return [
        np.arange(n),
        *run.q_path[:n].T,
        *run.z_path[:n].T,
        *taken,
        *scenario.x[taken].T,
        scenario.f[taken],
        *scenario.g[taken].T,
    ]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _load_with_overrides(args: argparse.Namespace) -> Scenario:
    scenario = load_scenario(args.scenario)
    if args.mu is not None:
        scenario = override_mu(scenario, args.mu)
    if args.lam is not None:
        lams = parse_lambda_flag(args.lam, scenario.n_queues)
        scenario = override_lambdas(scenario, lams)
    return scenario


def _check_out(out: Path) -> None:
    """Fail before a run whose ``--out`` could not be made after it: ``out``,
    or its nearest existing ancestor, is not a directory."""
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"--out {out}: {existing} is not a directory")


def _run_items(args: argparse.Namespace, scenario: Scenario) -> list[tuple[str, object]]:
    """The leading report items of an ensemble run of ``scenario``."""
    return [
        ("command", args.cmd),
        ("scenario", scenario.name),
        ("seed", args.seed & _MASK64),  # the seed the draws use
        ("horizon", args.horizon),
        ("reps", args.reps),
    ]


def _verdict_run(
    args: argparse.Namespace, record: bool
) -> tuple[Scenario, StabilityVerdict, controller.DppRunResult | None, dict[str, object]]:
    """The shared part of ``simulate`` and ``stability``: load the scenario
    and run the ensemble.  Returns the stability verdict on the total actual
    backlog of every replication, the first ``--trace-limit`` slots of
    replication 0 when ``record``, and the ``curves.csv`` file.  The totals
    stream into a verdict reducer block by block, in one kernel pass.  A
    horizon too short for a verdict fails before anything runs."""
    scenario = _load_with_overrides(args)
    stability._check_verdict_horizon(args.horizon)
    batch = run_lanes(scenario, [args.V] * args.reps, range(args.reps), args, int(record),
                      reducer=stability.VerdictReducer,
                      record_slots=args.trace_limit if record else 0)
    verdict, run = batch.reducer.verdict(), (batch.runs[0] if record else None)
    # g is the mean of the per-path tail fractions: it is the h_mean column too.
    curves = (["M", "g", "h_mean", "h_p05", "h_p95"],
              [verdict.m_grid, verdict.g_curve, verdict.g_curve, verdict.h_p05, verdict.h_p95])
    return scenario, verdict, run, {"curves.csv": curves}


def cmd_simulate(args: argparse.Namespace) -> tuple[int, dict[str, object], list[str]]:
    scenario, verdict, trace_run, files = _verdict_run(args, record=True)
    columns = trace_columns(scenario, trace_run, args.trace_limit)
    files["trace.csv"] = (trace_header(scenario), columns)
    files["report.txt"] = _run_items(args, scenario) + [
        ("mode", args.mode),
        ("V", args.V),
        ("controller", "dpp"),
        ("mean_backlog", verdict.strong_metric),
        *verdict_report_items(verdict),
    ]
    stable_count = sum(map(bool, (verdict.rate_stable, verdict.mean_rate_stable,
                                  verdict.steady_state_stable, verdict.strongly_stable)))
    out = Path(args.out)
    return 0, files, [
        f"verdict: stable x{stable_count}",
        f"mean backlog: {verdict.strong_metric:.6g}",
        f"wrote {out / 'report.txt'}, {out / 'trace.csv'}, {out / 'curves.csv'}",
    ]


def cmd_stability(args: argparse.Namespace) -> tuple[int, dict[str, object], list[str]]:
    scenario, verdict, _, files = _verdict_run(args, record=False)
    items = verdict_report_items(verdict)
    files["report.txt"] = _run_items(args, scenario) + items
    return 0, files, _lines(items)


def parse_entries(raw: str, flag: str) -> list[float]:
    """A comma-separated list for ``flag``; every entry finite and >= 0."""
    values = []
    for entry in raw.split(","):
        try:
            value = float(entry)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{flag} entry {entry!r} is not a finite non-negative number")
        values.append(value)
    return values


def cmd_capacity(args: argparse.Namespace) -> tuple[int, dict[str, object], list[str]]:
    scales = [] if args.sweep_scale is None else parse_entries(args.sweep_scale, "--sweep-scale")
    scenario = load_scenario(args.scenario)
    if args.mu is not None:
        scenario = override_mu(scenario, args.mu)
    lams = (
        parse_lambda_flag(args.lam, scenario.n_queues) if args.lam is not None else None
    )
    lp = capacity_mod.build_lp(scenario, lams)
    report, sweep_rows = lp.sweep(scales)
    items: list[tuple[str, object]] = [
        ("command", "capacity"),
        ("scenario", scenario.name),
        ("lambda", list(scenario.lambdas if lams is None else lams)),
        ("feasible", report.feasible),
        ("f_opt", report.f_opt),
        ("d_max", report.d_max),
        ("binding_constraints", list(report.binding_constraints)),
        ("routing_outer_bound", report.routing_outer_bound),
    ]
    if report.policy is not None:
        for w, dist in enumerate(report.policy):
            label = scenario.omega_chain.labels[w]
            for name, prob in zip(scenario.names[w], dist):
                items.append((f"policy[{label}][{name}]", float(prob)))
    files: dict[str, object] = {"capacity.txt": items}
    lines = _lines(items)
    if scales:
        rows = [
            [scale, *[float(v) for v in scale * lp.lambdas], feasible, f_opt, d_max]
            for scale, (feasible, f_opt, d_max) in zip(scales, sweep_rows)
        ]
        header = ["scale"] + [f"lambda_{k + 1}" for k in range(scenario.n_queues)] + [
            "feasible",
            "f_opt",
            "d_max",
        ]
        files["capacity_sweep.csv"] = (header, list(zip(*rows)))
        lines.append(f"wrote {Path(args.out) / 'capacity_sweep.csv'}")
    return 0, files, lines


def cmd_sweep_v(args: argparse.Namespace) -> tuple[int, dict[str, object], list[str]]:
    v_list = parse_entries(args.V_list, "--V")
    controller._check_horizon(args.horizon)
    scenario = _load_with_overrides(args)
    cap = capacity_mod.solve_fopt(scenario)
    if not cap.feasible or cap.d_max <= 0.0:
        print(
            "error: V-sweep needs a strictly interior arrival-rate vector "
            f"(in_capacity={str(cap.feasible).lower()}, d_max={cap.d_max})",
            file=sys.stderr,
        )
        return 1, {}, []
    drift = controller.drift_constants(scenario, report=cap)
    epsilon = drift.d_max / 4.0

    batch = run_lanes(
        scenario,
        [v for v in v_list for _ in range(args.reps)],
        list(range(args.reps)) * len(v_list),
        args,
        with_virtual=True,
    )
    rows = []
    for i, v_param in enumerate(v_list):
        lanes = slice(i * args.reps, (i + 1) * args.reps)
        avg_backlog = float(np.mean(batch.reducer.total[lanes] / args.horizon))
        avg_cost = float(np.mean(batch.cost_sum[lanes] / args.horizon))
        avg_g = np.mean(batch.g_sum[lanes] / args.horizon, axis=0)
        bounds = capacity_mod.performance_bounds(scenario, v_param, epsilon, drift)
        rows.append(
            [v_param, avg_backlog, avg_cost]
            + [float(g) for g in avg_g]
            + [bounds.backlog_bound, bounds.cost_bound]
        )
    header = (
        ["V", "avg_backlog", "avg_cost"]
        + [f"g_avg_{l + 1}" for l in range(scenario.n_constraints)]
        + ["backlog_bound", "cost_bound"]
    )
    files = {
        "sweep.csv": (header, list(zip(*rows))),
        "sweep_report.txt": _run_items(args, scenario) + [
            ("f_opt", cap.f_opt),
            ("d_max", cap.d_max),
            ("B", drift.B),
            ("D", drift.D),
            ("T", drift.T),
            ("epsilon", epsilon),
        ],
    }
    return 0, files, [f"wrote {Path(args.out) / 'sweep.csv'} ({len(rows)} rows)"]


def _cex_report(
    name: str, seed: int, n_reps: int = 100_000
) -> tuple[list[tuple[str, object]], list, bool]:
    """Regenerate a counter-example and check its documented signature.

    The random ensembles come as the few statistics the checks read, never
    as the (replications x horizon) backlog.  Every backlog value is ``t``,
    ``4^t`` or 0, so a column sum is that value times a count below 2^17, an
    exact float64: the sums, the means and the profile have the bits of the
    full-matrix formulas.  Rate-not-mean's last column holds only 0 and
    ``4^40``, so its zero fraction and median come from one count.
    """
    checks: list[tuple[str, object]] = [("command", "counterexample"), ("name", name)]
    if name == "rate-not-mean":
        horizon = 41
        column_sums, running = stability.cex_rate_not_mean(seed, horizon, n_reps)
        mean6 = float(column_sums[6] / n_reps / 6.0)
        frac_zero_at_40 = (n_reps - running) / n_reps
        slope_final = _two_valued_median(n_reps - running, running, 4.0**40 / 40.0)
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
        profile = _mean_profile_rows(column_sums, n_reps, horizon)
    elif name == "mean-not-rate":
        horizon = 200
        column_sums, spiked = stability.cex_mean_not_rate(seed, horizon, n_reps)
        mean100 = float(column_sums[100] / n_reps)
        spikes = float(spiked.mean())
        expected_spikes = 1.0 - float(np.prod(1.0 - 1.0 / np.arange(100, 200)))
        ok = abs(mean100 - 1.0) <= 0.1 and abs(spikes - expected_spikes) <= 0.02
        checks += [
            ("mean_Q100", mean100),
            ("spike_fraction_window_100_200", spikes),
            ("expected_spike_fraction", expected_spikes),
        ]
        profile = _mean_profile_rows(column_sums, n_reps, horizon)
    elif name == "strong-not-rate":
        horizon = 2**20 + 1
        # Q(t) = t at the spike times t = 2^n, else 0: the running sum through
        # a spike is 2t - 1, exact in float64; the last spike ends the path.
        spikes = stability.cex_strong_not_rate(horizon).tolist()
        running_sums = [2.0 * t - 1.0 for t in spikes]
        running = running_sums[-1] / horizon
        target = (2.0**21 - 1.0) / (2.0**20 + 1.0)
        spikes_exact = spikes == [2**n for n in range(0, 21)]
        ok = abs(running - target) <= 1e-12 and abs(running - 2.0) <= 0.005 * 2.0 and spikes_exact
        checks += [
            ("running_average", running),
            ("running_average_target", target),
            ("rate_slope_at_powers_of_two", 1.0),
            ("spikes_exact", spikes_exact),
        ]
        # The geometric checkpoints are the spike times.
        profile = [[t, float(t), s / (t + 1)] for t, s in zip(spikes, running_sums)]
    else:
        raise ValueError(
            f"unknown counterexample {name!r}; choose from {', '.join(COUNTEREXAMPLES)}"
        )
    checks.append(("signature_ok", ok))
    return checks, profile, ok


def _two_valued_median(n_zero: int, n_top: int, top: float) -> float:
    """``stability._median`` of ``n_zero`` zeros and ``n_top`` copies of
    ``top > 0``, from its two middle order statistics."""
    n = n_zero + n_top

    def order(i: int) -> float:
        return top if i >= n_zero else 0.0

    mid = order(n // 2) if n % 2 else order(n // 2 - 1) + order(n // 2)
    return (mid + 0.0) / (2 - n % 2)


def _mean_profile_rows(column_sums: np.ndarray, n_reps: int, horizon: int) -> list[list[object]]:
    """Rows (t, E[Q(t)], running mean of E[Q]) at the geometric checkpoints."""
    mean_path = column_sums / n_reps
    cum = np.cumsum(mean_path)
    return [[int(t), float(mean_path[t]), float(cum[t] / (t + 1))]
            for t in stability.geometric_checkpoints(horizon)]


def cmd_counterexample(args: argparse.Namespace) -> tuple[int, dict[str, object], list[str]]:
    checks, profile, ok = _cex_report(args.name, args.seed)
    files = {
        "report.txt": checks,
        "profile.csv": (["t", "mean_backlog", "running_mean"], list(zip(*profile))),
    }
    return 0 if ok else 1, files, _lines(checks)


def cmd_bb1(args: argparse.Namespace) -> tuple[int, dict[str, object], list[str]]:
    q_bar, w_bar = bb1_closed_form(args.lam, args.mu)
    if args.simulate:
        controller._check_horizon(args.horizon)  # before the run
    items: list[tuple[str, object]] = [
        ("command", "bb1"),
        ("lambda", args.lam),
        ("mu", args.mu),
        ("Q_bar", q_bar),
        ("W_bar", w_bar),
    ]
    if args.simulate:
        bb1 = override_mu(load_scenario(fixture_path("bb1")), args.mu)
        batch = controller.run_dpp_batch(
            override_lambdas(bb1, [args.lam]), [0.0] * args.reps, range(args.reps),
            args.seed, args.horizon,
        )
        # Integer backlogs: every sum is exact, so the order of the lanes' sums is free.
        total = batch.reducer.total.sum()
        items.append(("measured_mean_backlog", float(total / (args.reps * args.horizon))))
    return 0, ({} if args.out is None else {"bb1.txt": items}), _lines(items)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _weight(raw: str) -> float:
    """``--V`` of ``simulate`` and ``stability``: one finite weight >= 0."""
    try:
        (value,) = parse_entries(raw, "--V")
    except ValueError:  # a bad entry, or more than one
        raise argparse.ArgumentTypeError(f"{raw!r} is not a finite non-negative number") from None
    return value


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _add_scenario(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario")
    parser.add_argument("--lambda", dest="lam", default=None)
    parser.add_argument("--mu", type=float, default=None)


def _add_common(parser: argparse.ArgumentParser, *, reps_default: int) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--horizon", type=_positive_int, default=100_000)
    parser.add_argument("--reps", type=_positive_int, default=reps_default)
    parser.add_argument("--mode", choices=("respect", "clamped"), default="respect")
    parser.add_argument("--out", default="out")
    parser.add_argument("--workers", type=_positive_int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnetlab",
        description="Discrete-time queueing-network laboratory",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a scenario and classify stability")
    _add_scenario(p_sim)
    p_sim.add_argument("--V", type=_weight, default=10.0)
    p_sim.add_argument("--trace-limit", type=_positive_int, default=10_000)
    _add_common(p_sim, reps_default=100)
    p_sim.set_defaults(func=cmd_simulate)

    p_stab = sub.add_parser("stability", help="stability verdict and tail curves only")
    _add_scenario(p_stab)
    p_stab.add_argument("--V", type=_weight, default=10.0)
    _add_common(p_stab, reps_default=100)
    p_stab.set_defaults(func=cmd_stability)

    p_cap = sub.add_parser("capacity", help="capacity-region LP report")
    _add_scenario(p_cap)
    p_cap.add_argument("--sweep-scale", default=None)
    p_cap.add_argument("--out", default="out")
    p_cap.set_defaults(func=cmd_capacity)

    p_sweep = sub.add_parser("sweep-v", help="sweep the performance weight V")
    _add_scenario(p_sweep)
    p_sweep.add_argument("--V", dest="V_list", default="1,10,100")
    _add_common(p_sweep, reps_default=1)
    p_sweep.set_defaults(func=cmd_sweep_v)

    p_cex = sub.add_parser("counterexample", help="regenerate a pathological process")
    p_cex.add_argument("name")
    p_cex.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_cex.add_argument("--out", default="out")
    p_cex.set_defaults(func=cmd_counterexample)

    p_bb1 = sub.add_parser("bb1", help="Bernoulli/Bernoulli/1 closed forms")
    p_bb1.add_argument("--lambda", dest="lam", type=float, required=True)
    p_bb1.add_argument("--mu", type=float, required=True)
    p_bb1.add_argument("--simulate", action="store_true")
    p_bb1.add_argument("--horizon", type=_positive_int, default=100_000)
    p_bb1.add_argument("--reps", type=_positive_int, default=20)
    p_bb1.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_bb1.add_argument("--out", default=None)
    p_bb1.set_defaults(func=cmd_bb1)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command's lifecycle, the same for every command: check
    ``--out``, run the command, make ``--out`` when the command returns
    files, write them in order (a ``.csv`` name through ``write_csv``, any
    other through ``write_report``), then print its stdout lines.  So a
    bad ``--out`` is reported before any input is read, and a run that
    fails, in the command or in a write, prints nothing to stdout: one
    stderr line and exit status 2."""
    args = build_parser().parse_args(argv)
    out = None if args.out is None else Path(args.out)
    try:
        if out is not None:
            _check_out(out)
        status, files, lines = args.func(args)
        if files:
            out.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            if name.endswith(".csv"):
                write_csv(out / name, *content)
            else:
                write_report(out / name, content)
        for line in lines:
            print(line)
        return status
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ArithmeticError, SimplexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """The process entry of ``python -m qnetlab.cli`` and the ``qnetlab``
    console script: ``main()``, then an exit that skips interpreter
    finalization.

    Unloading numpy at exit costs a command 15-30 ms after its last output
    file is closed.  Every output file is closed by its writer and every
    worker pool is joined by its ``with`` block, so only stdout and stderr
    are flushed here, and a stdout whose reader has gone reports the error
    the way ``main`` reports one: one stderr line and exit status 2.  An
    uncaught exception, or argparse's ``SystemExit``, takes the normal exit.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
