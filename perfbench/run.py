"""qnetlab benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qnetlab checkout.  Every CLI command is a fresh
``python -m qnetlab.cli`` process with ``PYTHONPATH=<checkout>/src``.  The
workload's command sequence is repeated until one more repetition would
overrun ``--seconds`` by more than half its length (it runs at least once);
the first repetition's outputs are checked after the timed loop.

Times that carry a bound are in reference seconds: every child process is
followed by a short fixed pure-Python calibration loop, and the child's wall
time is rescaled by ``REF_UNIT_S`` over the mean loop time measured just
before and just after it.  The shared host's speed swings (up to 1.5x for
minutes) then cancel, and the program's own speed stays.

``--trace 0`` reports the end-to-end metrics: medians over iterations of
``wall_ref_s``, ``slot_reps_per_ref_s`` and ``peak_rss_mb``, and the median
of several fresh set-up processes as ``setup_s``.  ``--trace 1`` alternates
untraced iterations with traced ones (``perfbench/traced.py``) and reports
the per-layer metrics, which include the raw ``wall_s`` and
``slot_reps_per_s``.  The last stdout line is the result object; the line
before it carries details (environment, per-command p50/p90, sha256 of every
output file, span shares).  Exits 2 without a result when the checkout's
``src/`` does not provide qnetlab.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES_FIRST = 5
CAL_SECONDS = 0.25  # calibration after every child process
CAL_LOOP = 50_000  # one calibration unit: ~4 ms on a 2.1 GHz Xeon vCPU
REF_UNIT_S = 0.004  # the reference speed: one calibration unit in 4 ms
COMMAND_TIMEOUT_S = 150.0
SETUP_CODE = (
    "import sys\nimport qnetlab.cli\nfrom qnetlab.network import load_scenario\n"
    "for p in sys.argv[1:]:\n    load_scenario(p)\n"
)
# Per-layer metrics: (module.function, stats).  calls/busy_s/self_s come from
# spans; the rest are derived in layer_metrics().
LAYER_STATS = {
    "processes.sample_path": ("calls", "busy_s", "self_s", "us_per_slot"),
    "processes.mixing_time": ("calls",),
    "processes.stationary_distribution": ("calls",),
    "controller.run_dpp": ("calls", "busy_s", "self_s", "us_per_slot_rep", "result_mb"),
    "controller.drift_constants": ("calls", "busy_s"),
    "controller.compile_tables": ("calls",),
    "stability.estimate_verdict_streaming": ("busy_s", "self_s"),
    "stability.single_queue_path": ("us_per_slot",),
    "stability.cex_rate_not_mean": ("busy_s",),
    "stability.cex_mean_not_rate": ("busy_s",),
    "stability.cex_strong_not_rate": ("busy_s",),
    "capacity.solve_fopt": ("calls", "busy_s"),
    "capacity.slater_dmax": ("calls", "busy_s"),
    "capacity.build_lp": ("calls", "busy_s"),
    "capacity.performance_bounds": ("calls", "busy_s"),
    "simplex.solve_lp": ("calls", "busy_s", "self_s", "p50_ms", "p90_ms", "n"),
    "network.load_scenario": ("calls", "busy_s"),
    "network.validate": ("calls", "busy_s"),
    "cli.write_csv": ("busy_s",),
    "cli.write_report": ("busy_s",),
    "queues.queue_step": ("calls",),
    "queues.virtual_queue_step": ("calls",),
    "queues.conservation_check": ("calls",),
    "queues.lyapunov_value": ("calls",),
}
LP_STATUSES = ("optimal", "infeasible", "unbounded")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no qnetlab under src/)."""


def child_env() -> dict[str, str]:
    """The caller's environment with qnetlab taken from this checkout.

    Bytecode caching is switched back on whatever the caller set, so that
    commands import compiled modules as an installed package would, and the
    figures do not depend on the caller's PYTHONDONTWRITEBYTECODE.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str], cwd: Path, stderr_path: Path) -> tuple[float, int, float]:
    """Run one process to completion: (wall seconds, exit code, peak RSS MiB)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def calibration_unit() -> int:
    s = 0
    for i in range(CAL_LOOP):
        s += (i * i) % 7
    return s


def calibrate() -> float:
    """Mean seconds per calibration unit over ``CAL_SECONDS``."""
    n, t0 = 0, time.perf_counter()
    while True:
        calibration_unit()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= CAL_SECONDS:
            return elapsed / n


def environment() -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", "import qnetlab, numpy; print(qnetlab.__file__); print(numpy.__version__)"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0:
        raise SetupError(f"cannot import qnetlab from {SRC}: {probe.stderr.strip()[-300:]}")
    qnetlab_file, numpy_version = probe.stdout.split()
    if not Path(qnetlab_file).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"qnetlab resolves to {qnetlab_file}, outside {SRC}")
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = git.stdout.strip() or None
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_1m": os.getloadavg()[0],
        "qnetlab_file": qnetlab_file,
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs iterations of one workload and keeps what the metrics need."""

    def __init__(self, workload: workloads.Workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.failed: set[tuple[str, str]] = set()  # (iteration, command)
        self.reference: dict[str, str] | None = None  # sha256 by output file
        self.first: tuple[str, Path] | None = None  # (tag, outputs) awaiting checks
        self.iterations = 0
        self.cal_units = [calibrate()]  # mean calibration-unit seconds, in run order
        self.setup_raw: list[float] = []  # wall seconds of the set-up probes

    def measure(self, argv: list[str], cwd: Path, stderr_path: Path):
        """Run one child, then calibrate: (reference s, wall s, exit code, RSS MiB)."""
        wall, code, rss = run_child(argv, cwd, stderr_path)
        self.cal_units.append(calibrate())
        ref = wall * 2.0 * REF_UNIT_S / (self.cal_units[-2] + self.cal_units[-1])
        return ref, wall, code, rss

    def probe_setup(self) -> float:
        """One fresh process that imports the CLI and loads the scenarios
        (reference seconds)."""
        argv = [sys.executable, "-c", SETUP_CODE, *self.workload.scenarios]
        ref, wall, code, _ = self.measure(argv, self.workdir, self.workdir / "setup.stderr")
        if code != 0:
            err = (self.workdir / "setup.stderr").read_text()[-300:]
            raise SetupError(f"set-up probe failed: {err}")
        self.setup_raw.append(wall)
        return ref

    def fail(self, tag: str, command: str, message: str) -> None:
        self.failed.add((tag, command))
        self.failures.append(f"{tag}/{command}: {message}")

    def iterate(self, traced: bool) -> dict:
        """Run the command sequence once; return per-command times (reference
        and raw), peak RSS and spans."""
        tag = f"{'t' if traced else 'u'}{self.iterations}"
        self.iterations += 1
        it_dir = self.workdir / tag
        out: dict[str, Path] = {}
        result = {"walls": {}, "raw": {}, "rss": {}, "spans": {}}
        for cmd in self.workload.commands:
            out[cmd.name] = it_dir / cmd.name
            out[cmd.name].mkdir(parents=True)
            cli_args = cmd.argv + ["--out", str(out[cmd.name])]
            spans_file = it_dir / f"{cmd.name}.spans.json"
            if traced:
                argv = [sys.executable, str(HERE / "traced.py"), str(spans_file), *cli_args]
            else:
                argv = [sys.executable, "-m", "qnetlab.cli", *cli_args]
            ref, wall, code, rss = self.measure(argv, it_dir, it_dir / f"{cmd.name}.stderr")
            self.attempted += 1
            result["walls"][cmd.name] = ref
            result["raw"][cmd.name] = wall
            result["rss"][cmd.name] = rss
            missing = [f for f in cmd.outputs if not (out[cmd.name] / f).is_file()]
            if code != 0 or missing:
                err = (it_dir / f"{cmd.name}.stderr").read_text()[-400:]
                self.fail(tag, cmd.name, f"exit {code}, missing {missing}: {err}")
            if spans_file.is_file():
                result["spans"][cmd.name] = json.loads(spans_file.read_text())["spans"]
        self.compare_outputs(tag, it_dir, out)
        if self.first is None or self.first[1] != it_dir:
            shutil.rmtree(it_dir)
        return result

    def compare_outputs(self, tag: str, out_root: Path, out: dict[str, Path]) -> None:
        """Keep the first iteration for check_first(); later ones must
        reproduce its bytes."""
        hashes = {
            f"{cmd.name}/{f}": sha256(out[cmd.name] / f)
            for cmd in self.workload.commands
            for f in cmd.outputs
            if (out[cmd.name] / f).is_file()
        }
        if self.reference is None:
            self.reference = hashes
            self.first = (tag, out_root)
            return
        for key, digest in self.reference.items():
            if hashes.get(key) != digest:
                command, file = key.split("/", 1)
                self.fail(tag, command, f"{file} differs from the first iteration")

    def check_first(self) -> None:
        """Run the output checks on the first iteration, then drop its files."""
        tag, out_root = self.first
        check = subprocess.run(
            [sys.executable, str(HERE / "checks.py"), self.workload.name,
             str(out_root), str(self.workdir)],
            cwd=self.workdir, env=child_env(), capture_output=True, text=True,
            timeout=COMMAND_TIMEOUT_S,
        )
        shutil.rmtree(out_root)
        if check.returncode != 0:  # outputs unreadable: no command counts as correct
            for cmd in self.workload.commands:
                self.fail(tag, cmd.name, "check crashed: " + check.stderr.strip()[-500:])
            return
        for name, problem in json.loads(check.stdout):
            self.fail(tag, name, problem)


def quantiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"n": 1, "p50": values[0], "p90": values[0]}
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return {"n": len(values), "p50": statistics.median(values), "p90": cuts[8]}


def run_loop(runner: Runner, seconds: float, traced_too: bool):
    """Repeat iterations until the next one would overrun ``seconds`` by
    more than half its length, so that runs end near ``seconds`` on average.

    Set-up probes are spread over the run (a few first, then one after each
    iteration) so that ``setup_s`` samples the same machine state as the
    iterations do.  Returns (untraced iterations, traced iterations, set-up
    times).
    """
    runner.probe_setup()  # warm-up: compiles bytecode once, not timed
    runner.setup_raw.clear()
    setup = [runner.probe_setup() for _ in range(SETUP_PROBES_FIRST)]
    start = time.perf_counter()
    plain, traced = [], []
    last = {False: 0.0, True: 0.0}
    kinds = [False, True] if traced_too else [False]
    while True:
        for kind in kinds:
            t0 = time.perf_counter()
            (traced if kind else plain).append(runner.iterate(kind))
            setup.append(runner.probe_setup())
            last[kind] = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if elapsed + sum(last[k] for k in kinds) / 2 > seconds:
            return plain, traced, setup


def throughput(workload, plain: list[dict], key: str) -> tuple[float, float]:
    """Medians over iterations of the sequence time and of the slot-reps per
    second of the simulating commands, from ``it[key]`` times."""
    sims = [c for c in workload.commands if c.slot_reps]
    walls = [sum(it[key].values()) for it in plain]
    rates = [sum(c.slot_reps for c in sims) / sum(it[key][c.name] for c in sims)
             for it in plain]
    return statistics.median(walls), statistics.median(rates)


def end_to_end(workload, plain: list[dict], setup: list[float]) -> dict[str, float]:
    wall, rate = throughput(workload, plain, "walls")
    return {
        "wall_ref_s": wall,
        "slot_reps_per_ref_s": rate,
        "peak_rss_mb": statistics.median(max(it["rss"].values()) for it in plain),
        "setup_s": statistics.median(setup),
    }


def empty_row() -> dict:
    return {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [], "extra": []}


def span_table(spans: list[list]) -> dict[str, dict]:
    """calls, busy (outermost spans only), self and per-span data by name,
    for the spans of one command (span ids are only unique within one)."""
    by_id = {s[0]: s for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[4] - s[3]
    table: dict[str, dict] = defaultdict(empty_row)
    for s in spans:
        row = table[s[2]]
        dur = s[4] - s[3]
        row["calls"] += 1
        row["self_s"] += dur - child[s[0]]
        row["durations"].append(dur)
        row["extra"].append(s[5])
        parent, nested = s[1], False
        while parent >= 0:
            if by_id[parent][2] == s[2]:
                nested = True
                break
            parent = by_id[parent][1]
        if not nested:
            row["busy_s"] += dur
    return table


def layer_metrics(workload, it: dict) -> dict[str, float]:
    """Per-layer values for one traced iteration (all its commands)."""
    table: dict[str, dict] = defaultdict(empty_row)
    for spans in it["spans"].values():
        for name, row in span_table(spans).items():
            total = table[name]
            for key in total:
                total[key] += row[key]
    values: dict[str, float] = {}
    for name, stats in LAYER_STATS.items():
        row = table[name]
        for stat in stats:
            if stat in ("calls", "busy_s", "self_s"):
                values[f"{name}.{stat}"] = row[stat]
            elif stat == "n":
                values[f"{name}.n"] = len(row["durations"])
            elif stat in ("p50_ms", "p90_ms"):
                d = row["durations"]
                values[f"{name}.{stat}"] = 1e3 * quantiles(d)[stat[:3]] if d else 0.0

    def per_slot(name: str) -> float:
        """Busy microseconds per slot passed to the calls (0 if never called)."""
        row = table[name]
        slots = sum(e if isinstance(e, int) else e[0] for e in row["extra"])
        return 1e6 * row["busy_s"] / slots if slots else 0.0

    values["processes.sample_path.us_per_slot"] = per_slot("processes.sample_path")
    values["controller.run_dpp.us_per_slot_rep"] = per_slot("controller.run_dpp")
    values["stability.single_queue_path.us_per_slot"] = per_slot("stability.single_queue_path")
    values["controller.run_dpp.result_mb"] = sum(
        e[1] for e in table["controller.run_dpp"]["extra"]) / 2**20
    status = Counter(table["simplex.solve_lp"]["extra"])
    for st in LP_STATUSES:
        values[f"simplex.solve_lp.status_{st}"] = status[st]
    reps = sum(c.reps for c in workload.commands)
    values["stability.paths_per_rep"] = table["processes.sample_path"]["calls"] / reps
    values["cli.bytes_written"] = sum(
        sum(table[n]["extra"]) for n in ("cli.write_csv", "cli.write_report"))
    return values


def per_layer(workload, runner: Runner, plain: list[dict], traced: list[dict]):
    """Per-layer values (medians over traced iterations) and the top self
    times per command."""
    layer = [layer_metrics(workload, it) for it in traced]
    metrics = {}
    for name in layer[0]:
        values = [v[name] for v in layer]
        # Counts stay whole numbers: the lower median is one of the values.
        mid = statistics.median_low if all(isinstance(x, int) for x in values) else statistics.median
        metrics[name] = mid(values)
    plain_wall = statistics.median(sum(it["walls"].values()) for it in plain)
    traced_wall = statistics.median(sum(it["walls"].values()) for it in traced)
    metrics["trace_overhead_ratio"] = traced_wall / plain_wall
    metrics["wall_s"], metrics["slot_reps_per_s"] = throughput(workload, plain, "raw")
    lp_cmds = [c for c in workload.commands if c.lp_points]
    metrics["capacity_points_per_s"] = statistics.median(
        sum(c.lp_points for c in lp_cmds) / sum(it["raw"][c.name] for c in lp_cmds)
        for it in plain) if lp_cmds else 0.0
    metrics["fail_ratio"] = len(runner.failed) / runner.attempted
    # Largest self times per command, from the first traced iteration.
    top = {}
    for cmd, spans in traced[0]["spans"].items():
        table = span_table(spans)
        total = sum(r["self_s"] for r in table.values())
        ranked = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:5]
        top[cmd] = [[name, round(row["self_s"], 4), round(row["self_s"] / total, 3)]
                    for name, row in ranked]
    return metrics, {"top_self_s": top}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "qnetlab" / "cli.py").is_file():
        print(f"error: no qnetlab sources under {SRC}", file=sys.stderr)
        return 2
    base = ROOT / ".perfbench-work"
    workdir = base / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        env = environment()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(workload, workdir)
        plain, traced, setup = run_loop(runner, args.seconds, traced_too=bool(args.trace))
        runner.check_first()
        if args.trace:
            values, extra = per_layer(workload, runner, plain, traced)
        else:
            values, extra = end_to_end(workload, plain, setup), {}
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        spec = declared["per_layer" if args.trace else "end_to_end"]
        if set(values) != {m["name"] for m in spec}:
            raise RuntimeError("computed metrics do not match BENCHMARK.json: "
                               f"{sorted(set(values) ^ {m['name'] for m in spec})}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
        per_command = {
            c.name: quantiles([it["raw"][c.name] for it in plain]) for c in workload.commands
        }
        per_command_ref = {
            c.name: quantiles([it["walls"][c.name] for it in plain]) for c in workload.commands
        }
        details = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": env, "workload_info": workload.info,
            "iterations": {"untraced": len(plain), "traced": len(traced)},
            "command_wall_s": per_command, "command_ref_s": per_command_ref,
            "setup_wall_s": quantiles(runner.setup_raw), "setup_ref_s": quantiles(setup),
            "iteration_wall_s": [sum(it["raw"].values()) for it in plain],
            "iteration_ref_s": [sum(it["walls"].values()) for it in plain],
            "calibration_unit_ms": {**quantiles([1e3 * u for u in runner.cal_units]),
                                    "mean": 1e3 * statistics.fmean(runner.cal_units),
                                    "reference": 1e3 * REF_UNIT_S},
            "outputs_sha256": runner.reference, "failures": runner.failures, **extra,
        }
    except (SetupError, workloads.PrepareError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
