"""Controlled multi-queue network: scenario schema, action evaluation, and
the one-slot transition.

A scenario is a static description of the network: the state chain for
``omega``, a finite action list per state, per-(action, state) service and
transfer tables, an affine cost on the attribute vector, affine constraint
functions, arrival processes, and optional endogenous routing (service of one
queue feeding another).

Two transition modes are provided.  ``respect`` uses equality dynamics with a
feasibility clamp: a queue may forward or serve at most its slot-start
content, resolved in one pass (same-slot arrivals are not forwardable).
``clamped`` applies the max[.,0] form with offered quantities, ignoring
transfer feasibility.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .processes import ArrivalSpec, FiniteMarkovChain, stationary_distribution
from .queues import CompositeState, virtual_queue_step

__all__ = [
    "Action",
    "AffineFunction",
    "Scenario",
    "ScenarioValidation",
    "StepRecord",
    "ScenarioError",
    "load_scenario",
    "fixture_path",
    "validate",
    "evaluate_action",
    "network_step",
]

MODES = ("respect", "clamped")


class ScenarioError(ValueError):
    """Schema or consistency error in a scenario description.

    ``location`` is a JSON-ish path into the offending field.
    """

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


@dataclass(frozen=True)
class AffineFunction:
    """``value(x) = c0 + coeffs . x``."""

    c0: float
    coeffs: np.ndarray

    def __call__(self, x: np.ndarray) -> float:
        return self.c0 + float(np.dot(self.coeffs, x))


@dataclass(frozen=True)
class Action:
    """One control action's offered quantities at one network state."""

    name: str
    y: np.ndarray  # offered exogenous-style transfers into each queue
    b: np.ndarray  # offered service per queue
    x: np.ndarray  # attribute vector


@dataclass
class Scenario:
    name: str
    n_queues: int
    n_constraints: int
    n_attributes: int
    omega_chain: FiniteMarkovChain
    actions: list[list[Action]]
    cost: AffineFunction
    constraints: list[AffineFunction]
    arrivals: list[ArrivalSpec]
    routing: list[tuple[int, int]] = field(default_factory=list)  # (src, dst)

    def __post_init__(self) -> None:
        k, m = self.n_queues, self.n_attributes
        if len(self.actions) != self.omega_chain.n_states:
            raise ScenarioError("actions", "need one action list per omega state")
        for w, acts in enumerate(self.actions):
            if not acts:
                raise ScenarioError(f"actions[{w}]", "action list is empty")
            for i, act in enumerate(acts):
                loc = f"actions[{w}][{i}]"
                if act.y.shape != (k,) or act.b.shape != (k,) or act.x.shape != (m,):
                    raise ScenarioError(loc, "table vector lengths do not match K/M")
                for key in ("y", "b", "x"):
                    if not np.all(np.isfinite(getattr(act, key))):
                        raise ScenarioError(f"{loc}.{key}", "table entries must be finite")
                if np.any(act.y < 0) or np.any(act.b < 0):
                    raise ScenarioError(loc, "offered y and b must be non-negative")
        if len(self.constraints) != self.n_constraints:
            raise ScenarioError("constraints", "need one affine function per constraint")
        named = [(f"constraints[{l}]", g) for l, g in enumerate(self.constraints)]
        for loc, fn in [("cost", self.cost), *named]:
            if fn.coeffs.shape != (m,):
                raise ScenarioError(loc, "coefficient length must equal M")
            if not (math.isfinite(fn.c0) and np.all(np.isfinite(fn.coeffs))):
                raise ScenarioError(loc, "constant and coefficients must be finite")
        if len(self.arrivals) != k:
            raise ScenarioError("arrivals", "need one arrival spec per queue")
        seen_pairs: set[tuple[int, int]] = set()
        for j, (src, dst) in enumerate(self.routing):
            loc = f"routing[{j}]"
            if not (0 <= src < k and 0 <= dst < k):
                raise ScenarioError(loc, "src/dst must be valid queue indices")
            if src == dst:
                raise ScenarioError(loc, "a queue cannot feed itself")
            if (src, dst) in seen_pairs:
                raise ScenarioError(loc, f"duplicate routing pair ({src}, {dst})")
            seen_pairs.add((src, dst))

    @property
    def lambdas(self) -> np.ndarray:
        return np.asarray([spec.rate for spec in self.arrivals], dtype=float)

    def routed_sources(self, dst: int) -> list[int]:
        return [s for (s, d) in self.routing if d == dst]

    def stationary(self) -> np.ndarray:
        return stationary_distribution(self.omega_chain).pi


@dataclass(frozen=True)
class ScenarioValidation:
    sigma2: float
    f_min: float
    f_max: float


@dataclass(frozen=True)
class StepRecord:
    omega_index: int
    action_index: int
    arrivals: np.ndarray
    y_offered: np.ndarray
    b_offered: np.ndarray
    y_actual: np.ndarray
    b_actual: np.ndarray
    x: np.ndarray
    f_value: float
    g_values: np.ndarray


def evaluate_action(
    scenario: Scenario, omega: int, action_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, np.ndarray]:
    """Offered quantities and affine evaluations for one (omega, action).

    The offered arrival vector folds in endogenous routing: queue ``k``
    receives its table ``y_k`` plus the offered service of every queue routed
    into it.
    """
    act = scenario.actions[omega][action_index]
    y = act.y.copy()
    for src, dst in scenario.routing:
        y[dst] += act.b[src]
    x = act.x
    f_value = scenario.cost(x)
    g_values = np.asarray([g(x) for g in scenario.constraints], dtype=float)
    return y, act.b.copy(), x.copy(), f_value, g_values


def validate(scenario: Scenario) -> ScenarioValidation:
    """Worst-case second moment and cost extremes over all tables.

    ``sigma2`` is the max second moment over every (omega, action) of offered
    y, offered b, and each constraint value, together with the arrival
    processes' analytic second moments.  ``f_min``/``f_max`` are the extreme
    cost values over all (omega, action).
    """
    sigma2 = 0.0
    f_min = math.inf
    f_max = -math.inf
    # Tables whose products overflow give inf or NaN here, which the
    # finiteness checks below report; numpy's warning would only precede them.
    with np.errstate(over="ignore", invalid="ignore"):
        for w in range(scenario.omega_chain.n_states):
            for i in range(len(scenario.actions[w])):
                y, b, x, f_value, g_values = evaluate_action(scenario, w, i)
                for arr, what in ((y, "y"), (b, "b"), (x, "x"), (g_values, "g")):
                    if not np.all(np.isfinite(arr)):
                        raise ScenarioError(
                            f"actions[{w}][{i}]", f"non-finite {what} table entry"
                        )
                if not math.isfinite(f_value):
                    raise ScenarioError(f"actions[{w}][{i}]", "non-finite cost value")
                sigma2 = max(
                    sigma2,
                    float(np.max(y**2, initial=0.0)),
                    float(np.max(b**2, initial=0.0)),
                    float(np.max(g_values**2, initial=0.0)),
                )
                f_min = min(f_min, f_value)
                f_max = max(f_max, f_value)
    for k, spec in enumerate(scenario.arrivals):
        try:
            sigma2 = max(sigma2, spec.second_moment())
        except ValueError as exc:
            raise ScenarioError(f"arrivals[{k}]", str(exc)) from exc
    return ScenarioValidation(sigma2=sigma2, f_min=f_min, f_max=f_max)


def network_step(
    scenario: Scenario,
    state: CompositeState,
    omega: int,
    action_index: int,
    arrivals: np.ndarray,
    mode: str = "respect",
) -> tuple[CompositeState, StepRecord]:
    """Advance all queues and virtual queues by one slot.

    ``respect``: actual service is clamped to slot-start backlog,
    ``b_act = min(b, Q)``; routed transfers deliver the clamped amounts; the
    update is the equality form ``Q' = Q - b_act + y_act + a``.

    ``clamped``: the max[.,0] form ``Q' = max(Q - b, 0) + y + a`` with offered
    quantities (transfer feasibility ignored).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if not 0 <= action_index < len(scenario.actions[omega]):
        raise IndexError(f"action {action_index} out of range for omega {omega}")
    arrivals = np.asarray(arrivals, dtype=float)
    if arrivals.shape != (scenario.n_queues,):
        raise ValueError("arrivals vector length must equal K")

    act = scenario.actions[omega][action_index]
    q = state.queues
    y_offered, b_offered, x, f_value, g_values = evaluate_action(
        scenario, omega, action_index
    )

    if mode == "respect":
        b_actual = np.minimum(b_offered, q)
        y_actual = act.y.copy()
        for src, dst in scenario.routing:
            y_actual[dst] += b_actual[src]
        q_next = (q - b_actual) + y_actual + arrivals
    else:
        b_actual = np.minimum(b_offered, q)
        y_actual = y_offered.copy()
        q_next = np.maximum(q - b_offered, 0.0) + y_actual + arrivals

    z_next = np.array(
        [virtual_queue_step(z, g) for z, g in zip(state.virtuals, g_values)]
    )
    record = StepRecord(
        omega_index=omega,
        action_index=action_index,
        arrivals=arrivals.copy(),
        y_offered=y_offered,
        b_offered=b_offered,
        y_actual=y_actual,
        b_actual=b_actual,
        x=x,
        f_value=f_value,
        g_values=g_values,
    )
    return CompositeState(q_next, z_next), record


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def fixture_path(name: str) -> Path:
    """Path of a shipped scenario fixture (``bb1`` or ``downlink2``)."""
    stem = name[:-5] if name.endswith(".json") else name
    ref = resources.files("qnetlab").joinpath(f"fixtures/{stem}.json")
    with resources.as_file(ref) as p:
        return Path(p)


def _expect(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise ScenarioError(where, "expected an object")
    if key not in obj:
        raise ScenarioError(where, f"missing required key {key!r}")
    return obj[key]


def _number(raw: Any, where: str) -> float:
    """A JSON number as a float; booleans are not numbers here."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ScenarioError(where, "expected a number")
    return float(raw)


def _integer(raw: Any, where: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ScenarioError(where, "expected an integer")
    return raw


def _float_list(raw: Any, where: str) -> list[float]:
    if not isinstance(raw, list):
        raise ScenarioError(where, "expected a list of numbers")
    return [_number(v, where) for v in raw]


def _parse_arrival(raw: dict, where: str) -> ArrivalSpec:
    kind = _expect(raw, "kind", where)
    rate = _number(_expect(raw, "rate", where), f"{where}.rate")
    try:
        if kind == "bernoulli":
            return ArrivalSpec(
                kind="bernoulli",
                rate=rate,
                p=_number(_expect(raw, "p", where), f"{where}.p"),
                size=_number(raw.get("size", 1.0), f"{where}.size"),
            )
        if kind == "deterministic":
            return ArrivalSpec(
                kind="deterministic",
                rate=rate,
                values=tuple(_float_list(_expect(raw, "values", where), where)),
            )
        if kind == "iid_table":
            return ArrivalSpec(
                kind="iid_table",
                rate=rate,
                values=tuple(_float_list(_expect(raw, "values", where), where)),
                probs=tuple(_float_list(_expect(raw, "probs", where), where)),
            )
        if kind == "counterexample":
            return ArrivalSpec(
                kind="counterexample", rate=rate, tag=str(_expect(raw, "tag", where))
            )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(where, str(exc)) from exc
    raise ScenarioError(where, f"unknown arrival kind {kind!r}")


def scenario_from_dict(data: dict, name_hint: str = "scenario") -> Scenario:
    dims = _expect(data, "dimensions", "dimensions")
    k, n_constraints, m = (
        _integer(_expect(dims, key, "dimensions"), f"dimensions.{key}") for key in "KLM"
    )
    if k < 1 or n_constraints < 0 or m < 0:
        raise ScenarioError("dimensions", "need K >= 1, L >= 0, M >= 0")

    chain_raw = _expect(data, "omega_chain", "omega_chain")
    try:
        chain = FiniteMarkovChain(
            transition=np.asarray(_expect(chain_raw, "transition", "omega_chain"), float),
            initial=np.asarray(_expect(chain_raw, "initial", "omega_chain"), float),
            labels=tuple(chain_raw.get("labels", ())),
        )
    except ValueError as exc:
        raise ScenarioError("omega_chain", str(exc)) from exc

    actions_raw = _expect(data, "actions", "actions")
    if not isinstance(actions_raw, list):
        raise ScenarioError("actions", "expected a list (one action list per state)")
    actions: list[list[Action]] = []
    for w, acts_raw in enumerate(actions_raw):
        acts = []
        if not isinstance(acts_raw, list):
            raise ScenarioError(f"actions[{w}]", "expected a list of action objects")
        for i, raw in enumerate(acts_raw):
            where = f"actions[{w}][{i}]"
            y, b, x = (np.asarray(_float_list(_expect(raw, key, where), f"{where}.{key}"))
                       for key in ("y", "b", "x"))
            acts.append(Action(name=str(raw.get("name", f"a{i}")), y=y, b=b, x=x))
        actions.append(acts)

    cost_raw = _expect(data, "cost", "cost")
    cost = AffineFunction(
        c0=_number(_expect(cost_raw, "c0", "cost"), "cost.c0"),
        coeffs=np.asarray(_float_list(_expect(cost_raw, "c", "cost"), "cost")),
    )
    constraints = []
    for l, raw in enumerate(data.get("constraints", [])):
        where = f"constraints[{l}]"
        constraints.append(
            AffineFunction(
                c0=_number(_expect(raw, "d0", where), f"{where}.d0"),
                coeffs=np.asarray(_float_list(_expect(raw, "d", where), where)),
            )
        )
    arrivals = [
        _parse_arrival(raw, f"arrivals[{i}]")
        for i, raw in enumerate(_expect(data, "arrivals", "arrivals"))
    ]
    routing = [
        tuple(_integer(_expect(raw, key, f"routing[{j}]"), f"routing[{j}].{key}")
              for key in ("src", "dst"))
        for j, raw in enumerate(data.get("routing", []))
    ]
    return Scenario(
        name=str(data.get("name", name_hint)),
        n_queues=k,
        n_constraints=n_constraints,
        n_attributes=m,
        omega_chain=chain,
        actions=actions,
        cost=cost,
        constraints=constraints,
        arrivals=arrivals,
        routing=routing,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario JSON file; bare fixture names resolve to shipped files."""
    p = Path(path)
    if not p.exists():
        candidate = fixture_path(p.name)
        if candidate.exists():
            p = candidate
        else:
            raise FileNotFoundError(f"scenario file not found: {path}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{p}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    if not isinstance(data, dict):
        raise ScenarioError(str(p), "top-level JSON value must be an object")
    return scenario_from_dict(data, name_hint=p.stem)
