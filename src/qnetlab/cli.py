"""Command-line orchestration: scenario loading, replication fan-out, V-sweeps,
report/CSV emission, and counter-example regression.

Every command is a pure function of (scenario file, flags, seed): re-running
with the same inputs writes byte-identical outputs.  Reports are flat
``key=value`` text; traces and curves are CSV with fixed column order.
"""

from __future__ import annotations

import argparse
import csv
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import capacity as capacity_mod
from . import controller, stability
from .network import Scenario, ScenarioError, fixture_path, load_scenario, validate
from .processes import ArrivalSpec, FiniteMarkovChain
from .simplex import SimplexError
from .stability import (
    BB1Params,
    StabilityVerdict,
    TraceEnsemble,
    VerdictThresholds,
    bb1_closed_form,
    curve_rows,
    estimate_verdict,
    verdict_report_items,
)

DEFAULT_SEED = 12345
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


def write_report(path: Path, items: Iterable[tuple[str, object]]) -> None:
    lines = [f"{key}={_fmt(value)}\n" for key, value in items]
    path.write_text("".join(lines))


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _echo(*parts: object) -> None:
    print(" ".join(str(p) for p in parts))


# ---------------------------------------------------------------------------
# scenario overrides
# ---------------------------------------------------------------------------


def parse_lambda_flag(raw: str, k: int) -> list[float]:
    values = [float(v) for v in raw.split(",")]
    if len(values) == 1 and k > 1:
        values = values * k
    if len(values) != k:
        raise ValueError(f"--lambda needs 1 or {k} comma-separated values")
    if any(v < 0 for v in values):
        raise ValueError("--lambda entries must be non-negative")
    return values


def override_lambdas(scenario: Scenario, lams: Sequence[float]) -> Scenario:
    """Replace every arrival process with Bernoulli(lambda_k) unit arrivals."""
    arrivals = [
        ArrivalSpec(kind="bernoulli", rate=lam, p=lam, size=1.0) for lam in lams
    ]
    return replace(scenario, arrivals=arrivals)


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
    return replace(scenario, omega_chain=new_chain)


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
) -> controller.DppBatchResult:
    """Run (V, replication) lanes through the batched kernel.

    With ``--workers N`` the lanes split into N contiguous blocks, one kernel
    call per worker process; results come back in lane order.
    """
    bounds = np.linspace(0, len(v_weights), min(args.workers, len(v_weights)) + 1).astype(int)
    jobs = [
        (scenario, v_weights[lo:hi], replications[lo:hi], args.seed, args.horizon,
         args.mode, record if lo == 0 else 0, with_virtual)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    if len(jobs) == 1:
        return controller.run_dpp_batch(*jobs[0])
    with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
        parts = list(pool.map(controller.run_dpp_batch, *zip(*jobs)))
    return controller.DppBatchResult(
        totals=np.concatenate([part.totals for part in parts]),
        avg_cost=np.concatenate([part.avg_cost for part in parts]),
        avg_g=np.concatenate([part.avg_g for part in parts]),
        runs=parts[0].runs,
    )


def ensemble_verdict(
    scenario: Scenario, args: argparse.Namespace, record: bool
) -> tuple[StabilityVerdict, controller.DppRunResult | None]:
    """Stability verdict on the total actual backlog of every replication,
    plus replication 0 in full when ``record``."""
    batch = run_lanes(scenario, [args.V] * args.reps, range(args.reps), args, int(record))
    thresholds = VerdictThresholds()
    estimators = list(stability.ALL_ESTIMATORS)
    if args.reps < thresholds.min_reps_mean_rate:
        estimators.remove("mean_rate")
    verdict = estimate_verdict(TraceEnsemble(backlog=batch.totals), thresholds, estimators)
    return verdict, (batch.runs[0] if record else None)


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


def trace_rows(run: controller.DppRunResult, limit: int) -> Iterable[list[object]]:
    n = min(run.horizon, limit)
    for t in range(n):
        row: list[object] = [t]
        row += [float(v) for v in run.q_path[t]]
        row += [float(v) for v in run.z_path[t]]
        row += [int(run.omega_path[t]), int(run.action_path[t])]
        row += [float(v) for v in run.x_path[t]]
        row += [float(run.f_path[t])]
        row += [float(v) for v in run.g_path[t]]
        yield row


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _load_with_overrides(args: argparse.Namespace) -> Scenario:
    scenario = load_scenario(args.scenario)
    if getattr(args, "mu", None) is not None:
        scenario = override_mu(scenario, args.mu)
    if getattr(args, "lam", None) is not None:
        lams = parse_lambda_flag(args.lam, scenario.n_queues)
        scenario = override_lambdas(scenario, lams)
    return scenario


def _verdict_run(
    args: argparse.Namespace, record: bool
) -> tuple[Scenario, StabilityVerdict, controller.DppRunResult | None, list[tuple[str, object]]]:
    """The shared part of ``simulate`` and ``stability``: load and validate
    the scenario, run the ensemble, write ``curves.csv``.  Returns the
    verdict, replication 0 when ``record``, and the report's leading items."""
    scenario = _load_with_overrides(args)
    validate(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    verdict, run = ensemble_verdict(scenario, args, record)
    write_csv(out / "curves.csv", ["M", "g", "h_mean", "h_p05", "h_p95"], curve_rows(verdict))
    head: list[tuple[str, object]] = [
        ("command", args.cmd),
        ("scenario", scenario.name),
        ("seed", args.seed),
        ("horizon", args.horizon),
        ("reps", args.reps),
    ]
    return scenario, verdict, run, head


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario, verdict, trace_run, items = _verdict_run(args, record=True)
    out = Path(args.out)
    write_csv(
        out / "trace.csv",
        trace_header(scenario),
        trace_rows(trace_run, args.trace_limit),
    )
    fast = controller.is_uncontrolled_single_queue(scenario)
    items += [
        ("mode", args.mode),
        ("V", args.V),
        ("controller", "fast-single-queue" if fast else "dpp"),
        ("mean_backlog", verdict.strong_metric),
    ]
    items += verdict_report_items(verdict)
    write_report(out / "report.txt", items)

    stable_count = sum(
        1
        for flag in (
            verdict.rate_stable,
            verdict.mean_rate_stable,
            verdict.steady_state_stable,
            verdict.strongly_stable,
        )
        if flag
    )
    _echo(f"verdict: stable x{stable_count}")
    _echo(f"mean backlog: {verdict.strong_metric:.6g}")
    _echo(f"wrote {out / 'report.txt'}, {out / 'trace.csv'}, {out / 'curves.csv'}")
    return 0


def cmd_stability(args: argparse.Namespace) -> int:
    _, verdict, _, items = _verdict_run(args, record=False)
    write_report(Path(args.out) / "report.txt", items + verdict_report_items(verdict))
    for key, value in verdict_report_items(verdict):
        _echo(f"{key}={_fmt(value)}")
    return 0


def cmd_capacity(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if getattr(args, "mu", None) is not None:
        scenario = override_mu(scenario, args.mu)
    lams = (
        parse_lambda_flag(args.lam, scenario.n_queues) if args.lam is not None else None
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    lp = capacity_mod.build_lp(scenario, lams)
    report = lp.solve()
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
        for w, dist in enumerate(report.policy.distributions):
            label = scenario.omega_chain.labels[w]
            for i, prob in enumerate(dist):
                name = scenario.actions[w][i].name
                items.append((f"policy[{label}][{name}]", float(prob)))
    write_report(out / "capacity.txt", items)
    for key, value in items:
        _echo(f"{key}={_fmt(value)}")

    if args.sweep_scale:
        scales = [float(s) for s in args.sweep_scale.split(",")]
        rows = []
        for scale in scales:
            lam_vec = scale * lp.lambdas
            rep = lp.at(lam_vec).solve()
            rows.append(
                [scale, *[float(v) for v in lam_vec], rep.feasible, rep.f_opt, rep.d_max]
            )
        header = ["scale"] + [f"lambda_{k + 1}" for k in range(scenario.n_queues)] + [
            "feasible",
            "f_opt",
            "d_max",
        ]
        write_csv(out / "capacity_sweep.csv", header, rows)
        _echo(f"wrote {out / 'capacity_sweep.csv'}")
    return 0


def cmd_sweep_v(args: argparse.Namespace) -> int:
    scenario = _load_with_overrides(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    cap = capacity_mod.solve_fopt(scenario)
    if not cap.feasible or cap.d_max <= 0.0:
        print(
            "error: V-sweep needs a strictly interior arrival-rate vector "
            f"(lambda_in_capacity={str(cap.feasible).lower()}, d_max={cap.d_max})",
            file=sys.stderr,
        )
        return 1
    drift = controller.drift_constants(scenario, report=cap)
    epsilon = drift.d_max / 4.0

    v_list = [float(v) for v in args.V_list.split(",")]
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
        avg_backlog = float(np.mean(batch.totals[lanes].mean(axis=1)))
        avg_cost = float(np.mean(batch.avg_cost[lanes]))
        avg_g = np.mean(batch.avg_g[lanes], axis=0)
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
    write_csv(out / "sweep.csv", header, rows)
    write_report(
        out / "sweep_report.txt",
        [
            ("command", "sweep-v"),
            ("scenario", scenario.name),
            ("seed", args.seed),
            ("horizon", args.horizon),
            ("reps", args.reps),
            ("f_opt", cap.f_opt),
            ("d_max", cap.d_max),
            ("B", drift.B),
            ("D", drift.D),
            ("T", drift.T),
            ("epsilon", epsilon),
        ],
    )
    _echo(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return 0


def _cex_report(name: str, seed: int) -> tuple[list[tuple[str, object]], list, bool]:
    """Regenerate a counter-example and check its documented signature."""
    checks: list[tuple[str, object]] = [("command", "counterexample"), ("name", name)]
    if name == "rate-not-mean":
        ens = stability.cex_rate_not_mean(seed, horizon=41, n_reps=100_000)
        mean6 = float(ens.backlog[:, 6].mean() / 6.0)
        frac_zero_at_40 = float((ens.backlog[:, 40] == 0.0).mean())
        slope_final = float(np.median(ens.backlog[:, 40] / 40.0))
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
        profile = _mean_profile_rows(ens)
    elif name == "mean-not-rate":
        ens = stability.cex_mean_not_rate(seed, horizon=200, n_reps=100_000)
        mean100 = float(ens.backlog[:, 100].mean())
        spikes = float((ens.backlog[:, 100:200] > 0).any(axis=1).mean())
        expected_spikes = 1.0 - float(np.prod(1.0 - 1.0 / np.arange(100, 200)))
        ok = abs(mean100 - 1.0) <= 0.1 and abs(spikes - expected_spikes) <= 0.02
        checks += [
            ("mean_Q100", mean100),
            ("spike_fraction_window_100_200", spikes),
            ("expected_spike_fraction", expected_spikes),
        ]
        profile = _mean_profile_rows(ens)
    elif name == "strong-not-rate":
        horizon = 2**20 + 1
        ens = stability.cex_strong_not_rate(horizon)
        path = ens.backlog[0]
        running = float(path.sum() / horizon)
        target = (2.0**21 - 1.0) / (2.0**20 + 1.0)
        spikes_exact = all(path[2**n] / 2**n == 1.0 for n in range(0, 21))
        ok = abs(running - target) <= 1e-12 and abs(running - 2.0) <= 0.005 * 2.0 and spikes_exact
        checks += [
            ("running_average", running),
            ("running_average_target", target),
            ("rate_slope_at_powers_of_two", 1.0),
            ("spikes_exact", spikes_exact),
        ]
        profile = _mean_profile_rows(ens)
    else:
        raise ValueError(f"unknown counterexample {name!r}")
    checks.append(("signature_ok", ok))
    return checks, profile, ok


def _mean_profile_rows(ens: stability.TraceEnsemble) -> list[list[object]]:
    mean_path = ens.backlog.mean(axis=0)
    cum = np.cumsum(mean_path)
    return [
        [int(t), float(mean_path[t]), float(cum[t] / (t + 1))]
        for t in ens.checkpoints
    ]


def cmd_counterexample(args: argparse.Namespace) -> int:
    if args.name not in COUNTEREXAMPLES:
        print(
            f"error: unknown counterexample {args.name!r}; "
            f"choose from {', '.join(COUNTEREXAMPLES)}",
            file=sys.stderr,
        )
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    checks, profile, ok = _cex_report(args.name, args.seed)
    write_report(out / "report.txt", checks)
    write_csv(out / "profile.csv", ["t", "mean_backlog", "running_mean"], profile)
    for key, value in checks:
        _echo(f"{key}={_fmt(value)}")
    return 0 if ok else 1


def cmd_bb1(args: argparse.Namespace) -> int:
    try:
        q_bar, w_bar = bb1_closed_form(BB1Params(lam=args.lam, mu=args.mu))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
        items.append(("measured_mean_backlog", float(batch.totals.mean())))
    for key, value in items:
        _echo(f"{key}={_fmt(value)}")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_report(out / "bb1.txt", items)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


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
    p_sim.add_argument("scenario")
    p_sim.add_argument("--lambda", dest="lam", default=None)
    p_sim.add_argument("--mu", type=float, default=None)
    p_sim.add_argument("--V", type=float, default=10.0)
    p_sim.add_argument("--trace-limit", type=_positive_int, default=10_000)
    _add_common(p_sim, reps_default=100)
    p_sim.set_defaults(func=cmd_simulate)

    p_stab = sub.add_parser("stability", help="stability verdict and tail curves only")
    p_stab.add_argument("scenario")
    p_stab.add_argument("--lambda", dest="lam", default=None)
    p_stab.add_argument("--mu", type=float, default=None)
    p_stab.add_argument("--V", type=float, default=10.0)
    _add_common(p_stab, reps_default=100)
    p_stab.set_defaults(func=cmd_stability)

    p_cap = sub.add_parser("capacity", help="capacity-region LP report")
    p_cap.add_argument("scenario")
    p_cap.add_argument("--lambda", dest="lam", default=None)
    p_cap.add_argument("--mu", type=float, default=None)
    p_cap.add_argument("--sweep-scale", default=None)
    p_cap.add_argument("--out", default="out")
    p_cap.set_defaults(func=cmd_capacity)

    p_sweep = sub.add_parser("sweep-v", help="sweep the performance weight V")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--lambda", dest="lam", default=None)
    p_sweep.add_argument("--mu", type=float, default=None)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError, ArithmeticError, SimplexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
