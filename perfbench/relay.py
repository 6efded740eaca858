"""Seeded generator for the ``oracle-relay`` scenario, and an independent LP
oracle built on ``scipy.optimize.linprog`` that checks qnetlab's simplex.

The scenario is a routed relay network: K = 8 queues, a 16-state Markov
channel chain (rows differ, so it is not i.i.d.), 12 actions per state,
three routing pairs (source queues 0-2 forward into relay queues 4-6),
L = 2 average constraints and an affine power cost.  Nothing here imports
qnetlab: the oracle reads the same JSON the CLI reads and builds the
state-only-policy LP from the paper's definition on its own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

import workloads as wl

K, S, A, L, M = 8, 16, 12, 2, 3
# The channel chain and action tables come from this fixed seed; the run seed
# draws the arrival-rate direction.  Redrawing the tables per seed moved the
# simplex pivot count of the 60-point sweep by ~21% (IQR/median over seeds
# 101-110), against ~6% when only the rates move, and that spread would read
# as timing noise between runs.
STRUCTURE_SEED = 1003
ROUTING = ((0, 4), (1, 5), (2, 6))
# The base rate vector sits at this share of the capacity boundary along its
# direction, so the sweep crosses the boundary near scale 1/BASE_SHARE.
BASE_SHARE = 0.6
SWEEP_POINTS = 60
SWEEP_LO, SWEEP_HI = 0.3, 1.5  # sweep range as multiples of the boundary scale


class ScenarioNotInterior(RuntimeError):
    """The generated rate vector is not strictly inside the capacity region."""


def _stationary(transition: np.ndarray) -> np.ndarray:
    n = transition.shape[0]
    a = np.vstack([transition.T - np.eye(n), np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    return pi


class PolicyLp:
    """Rows of the state-only-policy LP for one scenario dict.

    Variables are p[w][i] in scenario order.  ``g_rows`` are the constraint
    rows ``g_l <= 0``; ``net_rows`` give one supportability row per queue,
    ``lambda_k + sum pi p (y_k + routed b - b_k) <= 0``.
    """

    def __init__(self, scenario: dict):
        transition = np.asarray(scenario["omega_chain"]["transition"], float)
        pi = _stationary(transition)
        k = scenario["dimensions"]["K"]
        cost = np.asarray(scenario["cost"]["c"], float)
        self.c0 = float(scenario["cost"]["c0"])
        cons = scenario.get("constraints", [])
        pairs = [(r["src"], r["dst"]) for r in scenario.get("routing", [])]
        obj, g_cols, net_cols, eq = [], [], [], []
        for w, acts in enumerate(scenario["actions"]):
            for act in acts:
                b = np.asarray(act["b"], float)
                y = np.asarray(act["y"], float).copy()
                for src, dst in pairs:
                    y[dst] += b[src]
                x = np.asarray(act["x"], float)
                obj.append(pi[w] * float(cost @ x))
                g_cols.append([pi[w] * float(np.dot(g["d"], x)) for g in cons])
                net_cols.append(pi[w] * (y - b))
                eq.append(w)
        n = len(obj)
        self.c = np.asarray(obj)
        self.g_rows = np.asarray(g_cols, float).reshape(n, len(cons)).T
        self.g_rhs = np.asarray([-float(g["d0"]) for g in cons])
        self.net_rows = np.asarray(net_cols).T.reshape(k, n)
        self.a_eq = np.zeros((len(scenario["actions"]), n))
        self.a_eq[eq, np.arange(n)] = 1.0
        self.b_eq = np.ones(len(scenario["actions"]))

    def _ub(self, lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a_ub = np.vstack([self.g_rows, self.net_rows])
        b_ub = np.concatenate([self.g_rhs, -np.asarray(lambdas, float)])
        return a_ub, b_ub

    def _lp(self, a_ub, b_ub, extra_col=None):
        """linprog over p >= 0 with one distribution per channel state.

        Without ``extra_col`` it minimises the expected cost.  With it, it
        adds one variable t >= 0 whose column in ``a_ub`` is ``extra_col``
        and maximises t (t is the last entry of ``res.x``).
        """
        c, a_eq = self.c, self.a_eq
        if extra_col is not None:
            c = np.zeros(self.c.size + 1)
            c[-1] = -1.0
            a_ub = np.hstack([a_ub, np.asarray(extra_col, float)[:, None]])
            a_eq = np.hstack([a_eq, np.zeros((a_eq.shape[0], 1))])
        return linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=self.b_eq,
                       bounds=(0, None), method="highs")

    def solve(self, lambdas) -> tuple[bool, float, float]:
        """``(feasible, f_opt, d_max)`` for one rate vector (f_opt NaN if
        infeasible, d_max 0 at or outside the boundary)."""
        res = self._lp(*self._ub(lambdas))
        if res.status == 2:
            return False, float("nan"), 0.0
        if res.status != 0:
            raise RuntimeError(f"linprog failed: {res.message}")
        return True, self.c0 + float(res.fun), self.margin(lambdas)

    def margin(self, lambdas) -> float:
        """Largest d with every inequality row pushed to ``<= -d/2``."""
        a_ub, b_ub = self._ub(lambdas)
        res = self._lp(a_ub, b_ub, np.full(a_ub.shape[0], 0.5))
        if res.status == 2:
            return 0.0
        if res.status != 0:
            raise RuntimeError(f"linprog failed: {res.message}")
        return max(float(res.x[-1]), 0.0)

    def boundary_scale(self, direction) -> float:
        """Largest sigma with ``sigma * direction`` supportable."""
        a_ub, b_ub = self._ub(np.zeros(self.net_rows.shape[0]))
        res = self._lp(a_ub, b_ub, np.concatenate([np.zeros(self.g_rows.shape[0]), direction]))
        if res.status != 0:
            raise RuntimeError(f"boundary LP failed: {res.message}")
        return float(res.x[-1])


def _chain(rng: np.random.Generator) -> list[list[float]]:
    """Sticky random chain: every entry positive (irreducible, aperiodic)."""
    rows = []
    for w in range(S):
        row = np.round(0.65 * rng.dirichlet(np.full(S, 0.8)), 4)
        row[w] = 0.0
        row[w] = 1.0 - row.sum()
        rows.append([float(v) for v in row])
    return rows


def _actions(rng: np.random.Generator) -> list[list[dict]]:
    actions = []
    for w in range(S):
        rate = rng.choice([0.0, 1.0, 2.0], size=K, p=[0.3, 0.5, 0.2])
        if np.count_nonzero(rate) < 3:
            rate[rng.choice(K, size=3, replace=False)] = 1.0
        up = np.flatnonzero(rate)
        acts = [{"name": "idle", "y": [0.0] * K, "b": [0.0] * K, "x": [0.0] * M}]
        for i in range(1, A):
            served = rng.choice(up, size=min(int(rng.integers(1, 4)), up.size), replace=False)
            b = np.zeros(K)
            b[served] = rate[served]
            power = float(np.round(np.sum(0.5 + rng.random(served.size)), 3))
            acts.append({
                "name": "serve-" + "-".join(str(int(k) + 1) for k in sorted(served)),
                "y": [0.0] * K,
                "b": [float(v) for v in b],
                "x": [power, float(served.size), float(b.sum())],
            })
        actions.append(acts)
    return actions


def generate(seed: int) -> tuple[dict, list[float]]:
    """Build the relay scenario for ``seed`` and its capacity-sweep scales.

    Raises ``ScenarioNotInterior`` when linprog finds the drawn rate vector
    on or outside the capacity boundary (d_max <= 0); it never re-draws.
    """
    tables = np.random.default_rng(STRUCTURE_SEED)
    scenario = {
        "name": "relay8",
        "dimensions": {"K": K, "L": L, "M": M},
        "omega_chain": {
            "labels": [f"c{w:02d}" for w in range(S)],
            "transition": _chain(tables),
            "initial": [1.0 / S] * S,
        },
        "actions": _actions(tables),
        "cost": {"c0": 0.0, "c": [1.0, 0.0, 0.0]},
        "constraints": [
            {"d0": -1.2, "d": [0.0, 1.0, 0.0]},  # average links in use
            {"d0": -2.4, "d": [0.0, 0.0, 1.0]},  # average transmitted work
        ],
        "routing": [{"src": s, "dst": d} for s, d in ROUTING],
    }
    relay = {dst for _, dst in ROUTING}
    rng = np.random.default_rng(seed & 0xFFFF_FFFF_FFFF_FFFF)  # any int, as the CLI takes
    direction = np.where(
        [k in relay for k in range(K)], rng.uniform(0.1, 0.3, K), rng.uniform(0.5, 1.0, K)
    )
    lp = PolicyLp(scenario)
    lambdas = np.round(BASE_SHARE * lp.boundary_scale(direction) * direction, 4)
    scenario["arrivals"] = [
        {"kind": "bernoulli", "p": float(v), "size": 1.0, "rate": float(v)} for v in lambdas
    ]
    d_max = lp.margin(lambdas)
    if not d_max > 0.0:
        raise ScenarioNotInterior(
            f"seed {seed}: generated rate vector has d_max={d_max!r} (not interior)"
        )
    sigma = lp.boundary_scale(lambdas)
    # Grid points sit half a step either side of the boundary, never on it.
    step = (SWEEP_HI - SWEEP_LO) / SWEEP_POINTS
    scales = [sigma * (SWEEP_LO + step * (i + 0.5)) for i in range(SWEEP_POINTS)]
    return scenario, scales


def main(seed: int, workdir: Path) -> None:
    """Write the scenario and linprog's answers for the base point and every
    sweep point (computed here, outside the benchmark's timed region)."""
    scenario, scales = generate(seed)
    (workdir / wl.RELAY_SCENARIO).write_text(json.dumps(scenario, indent=1) + "\n")
    lp = PolicyLp(scenario)
    base = [a["rate"] for a in scenario["arrivals"]]

    def answer(lambdas):
        feasible, f_opt, d_max = lp.solve(lambdas)
        return [feasible, f_opt if feasible else None, d_max]

    expected = {
        "scales": scales,
        "base": answer(base),
        "points": [answer([s * v for v in base]) for s in scales],
    }
    (workdir / wl.RELAY_EXPECTED).write_text(json.dumps(expected) + "\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), Path(sys.argv[2]))
