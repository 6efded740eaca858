"""The three benchmark workloads: the CLI commands each one runs.

Every command is a fresh ``python -m qnetlab.cli ...`` process with
``--workers 1`` (where the command takes it) and the benchmark seed as its
``--seed``.  This module uses the standard library only: the benchmark
process must stay small, because a child's peak RSS can be no lower than
its parent's RSS at fork time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

DPP_HORIZON = 3000  # rate slope ~ mean backlog / horizon (~0.007) must stay under 0.01
BB1_HORIZON = 5000
RELAY_HORIZON = 10_000
REPS = 100  # the mean-rate estimator needs >= 100 replications
BB1_LAMBDA, BB1_MU = 0.3, 0.5
CEX_NAMES = ("rate-not-mean", "mean-not-rate", "strong-not-rate")
RELAY_V = (1.0, 10.0, 100.0, 1000.0)
RELAY_SCENARIO = "relay8.json"
RELAY_EXPECTED = "relay8.expected.json"


class PrepareError(RuntimeError):
    """A workload's inputs could not be generated."""


@dataclass
class Command:
    name: str  # also the name of its output directory
    argv: list[str]  # arguments after ``python -m qnetlab.cli``, without --out
    outputs: tuple[str, ...]
    reps: int = 0  # replications simulated (reps x number of V values)
    slot_reps: int = 0  # simulated slot-replications
    lp_points: int = 0  # capacity-sweep points


@dataclass
class Workload:
    name: str
    commands: list[Command]
    scenarios: list[str]  # what the set-up probe loads
    info: dict = field(default_factory=dict)


def dpp_ensemble(seed: int, workdir: Path) -> Workload:
    cmd = Command(
        "simulate",
        ["simulate", "downlink2.json", "--horizon", str(DPP_HORIZON), "--reps", str(REPS),
         "--seed", str(seed), "--workers", "1"],
        ("report.txt", "trace.csv", "curves.csv"),
        reps=REPS,
        slot_reps=DPP_HORIZON * REPS,
    )
    return Workload("dpp-ensemble", [cmd], ["downlink2.json"])


def bb1_diagnose(seed: int, workdir: Path) -> Workload:
    simulate = Command(
        "simulate",
        ["simulate", "bb1.json", "--lambda", str(BB1_LAMBDA), "--mu", str(BB1_MU),
         "--horizon", str(BB1_HORIZON), "--reps", str(REPS), "--seed", str(seed),
         "--workers", "1"],
        ("report.txt", "trace.csv", "curves.csv"),
        reps=REPS,
        slot_reps=BB1_HORIZON * REPS,
    )
    cex = [
        Command(f"cex-{name}", ["counterexample", name, "--seed", str(seed)],
                ("report.txt", "profile.csv"))
        for name in CEX_NAMES
    ]
    return Workload("bb1-diagnose", [simulate, *cex], ["bb1.json"])


def oracle_relay(seed: int, workdir: Path) -> Workload:
    """Generate the seeded relay scenario (and its linprog answers) first."""
    gen = subprocess.run([sys.executable, str(HERE / "relay.py"), str(seed), str(workdir)],
                         capture_output=True, text=True, timeout=120)
    if gen.returncode != 0:
        raise PrepareError(f"relay scenario generation failed: {gen.stderr.strip()[-500:]}")
    scenario = workdir / RELAY_SCENARIO
    expected = json.loads((workdir / RELAY_EXPECTED).read_text())
    scales = expected["scales"]
    commands = [
        Command(
            "capacity",
            ["capacity", str(scenario), "--sweep-scale", ",".join(repr(s) for s in scales)],
            ("capacity.txt", "capacity_sweep.csv"),
            lp_points=len(scales),
        ),
        Command(
            "sweep-v",
            ["sweep-v", str(scenario), "--V", ",".join(str(v) for v in RELAY_V),
             "--reps", "1", "--horizon", str(RELAY_HORIZON), "--seed", str(seed),
             "--workers", "1", "--mode", "respect"],
            ("sweep.csv", "sweep_report.txt"),
            reps=len(RELAY_V),
            slot_reps=RELAY_HORIZON * len(RELAY_V),
        ),
    ]
    info = {
        "lp_points": len(scales),
        "lp_points_feasible": sum(p[0] for p in expected["points"]),
        "f_opt": expected["base"][1],
        "d_max": expected["base"][2],
    }
    return Workload("oracle-relay", commands, [str(scenario)], info)


WORKLOADS = {"dpp-ensemble": dpp_ensemble, "bb1-diagnose": bb1_diagnose,
             "oracle-relay": oracle_relay}
