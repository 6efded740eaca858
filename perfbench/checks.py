"""Correctness checks on one iteration's CLI outputs.

Usage: python perfbench/checks.py WORKLOAD ITERATION_DIR WORK_DIR

Prints a JSON list of ``[command, problem]`` pairs (empty when every check
passes).  Runs in its own process, outside the timed region, with
``PYTHONPATH=<checkout>/src`` so that qnetlab, numpy and scipy stay out of
the benchmark process.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import workloads as wl

BB1_TOL = 0.05  # relative tolerance on the closed-form B/B/1 mean backlog
LP_TOL = 1e-7
VERDICT_FLAGS = ("rate_stable", "mean_rate_stable", "steady_state_stable", "strongly_stable")


def read_report(path: Path) -> dict[str, str]:
    pairs = (line.split("=", 1) for line in path.read_text().splitlines() if "=" in line)
    return {k: v for k, v in pairs}


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def verdict_problems(report: dict[str, str]) -> list[str]:
    return [f"{flag}={report.get(flag)}, expected true" for flag in VERDICT_FLAGS
            if report.get(flag) != "true"]


def check_dpp(out: Path, work: Path) -> list[tuple[str, str]]:
    """All four verdicts hold and the mean backlog respects the DPP bound."""
    from qnetlab import capacity, controller, network

    report = read_report(out / "simulate" / "report.txt")
    problems = verdict_problems(report)
    scenario = network.load_scenario("downlink2.json")
    drift = controller.drift_constants(scenario)
    bound = capacity.performance_bounds(
        scenario, float(report["V"]), drift.d_max / 4.0, drift).backlog_bound
    mean = float(report["mean_backlog"])
    if not mean <= bound:
        problems.append(f"mean_backlog {mean} above backlog_bound {bound}")
    rows = len(read_csv(out / "simulate" / "trace.csv"))
    if rows != min(wl.DPP_HORIZON, 10_000):
        problems.append(f"trace.csv has {rows} rows")
    return [("simulate", p) for p in problems]


def check_bb1(out: Path, work: Path) -> list[tuple[str, str]]:
    """Mean backlog near the closed form; every counter-example signature holds."""
    lam, mu = wl.BB1_LAMBDA, wl.BB1_MU
    closed_form = lam * (1.0 - lam) / (mu - lam)
    report = read_report(out / "simulate" / "report.txt")
    problems = [("simulate", p) for p in verdict_problems(report)]
    mean = float(report["mean_backlog"])
    if not abs(mean - closed_form) <= BB1_TOL * closed_form:
        problems.append(("simulate", f"mean_backlog {mean} not within {BB1_TOL:.0%} "
                         f"of closed form {closed_form}"))
    for name in wl.CEX_NAMES:
        if read_report(out / f"cex-{name}" / "report.txt").get("signature_ok") != "true":
            problems.append((f"cex-{name}", "signature_ok is not true"))
    return problems


def close(a: float, b: float) -> bool:
    return abs(a - b) <= LP_TOL * max(1.0, abs(b))


def check_relay(out: Path, work: Path) -> list[tuple[str, str]]:
    """Capacity answers match linprog; each V-sweep row is within its bounds."""
    expected = json.loads((work / wl.RELAY_EXPECTED).read_text())
    problems = []
    report = read_report(out / "capacity" / "capacity.txt")
    _, f_opt, d_max = expected["base"]
    if report["feasible"] != "true" or not close(float(report["f_opt"]), f_opt) \
            or not close(float(report["d_max"]), d_max):
        problems.append(("capacity", f"base point disagrees with linprog "
                         f"(f_opt={f_opt!r}, d_max={d_max!r})"))
    rows = read_csv(out / "capacity" / "capacity_sweep.csv")
    if len(rows) != len(expected["scales"]):
        problems.append(("capacity", f"capacity_sweep.csv has {len(rows)} rows"))
    for row, (feasible, f_opt, d_max) in zip(rows, expected["points"]):
        got_f = float(row["f_opt"])
        ok = (row["feasible"] == "true") == feasible and (
            (not feasible and math.isnan(got_f))
            or (close(got_f, f_opt) and close(float(row["d_max"]), d_max))
        )
        if not ok:
            problems.append(("capacity", f"{row} vs linprog feasible={feasible} "
                             f"f_opt={f_opt!r} d_max={d_max!r}"))
    sweep = read_csv(out / "sweep-v" / "sweep.csv")
    if len(sweep) != len(wl.RELAY_V):
        problems.append(("sweep-v", f"sweep.csv has {len(sweep)} rows"))
    for row in sweep:
        if not (float(row["avg_backlog"]) <= float(row["backlog_bound"])
                and float(row["avg_cost"]) <= float(row["cost_bound"])):
            problems.append(("sweep-v", f"V={row['V']} breaks its bound: {row}"))
    return problems


CHECKS = {"dpp-ensemble": check_dpp, "bb1-diagnose": check_bb1, "oracle-relay": check_relay}


if __name__ == "__main__":
    name, out_dir, work_dir = sys.argv[1:4]
    print(json.dumps(CHECKS[name](Path(out_dir), Path(work_dir))))
