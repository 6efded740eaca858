"""Controlled multi-queue network: scenario schema, compiled action tables
and validation.

A scenario is a static description of the network: the state chain for
``omega``, a finite action list per state, per-(action, state) service and
transfer tables, an affine cost on the attribute vector, affine constraint
functions, arrival processes, and optional endogenous routing (service of one
queue feeding another).

Every (omega, action) pair is evaluated once, when the scenario is built,
into ``Scenario.tables``: padded per-state arrays that validation, the
policy LP, the drift constants and the closed-loop kernel all read.

The two transition modes (``MODES``) are applied by
``controller.run_dpp_batch``.  ``respect`` uses equality dynamics with a
feasibility clamp: a queue may forward or serve at most its slot-start
content, resolved in one pass (same-slot arrivals are not forwardable).
``clamped`` applies the max[.,0] form with offered quantities, ignoring
transfer feasibility.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from .processes import ArrivalSpec, FiniteMarkovChain, stationary_distribution

__all__ = [
    "Action",
    "AffineFunction",
    "Scenario",
    "ScenarioTables",
    "ScenarioError",
    "compile_tables",
    "load_scenario",
    "fixture_path",
    "validate",
]

MODES = ("respect", "clamped")


class ScenarioError(ValueError):
    """Schema or consistency error in a scenario description.

    ``location`` is a JSON-ish path into the offending field.
    """

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


class AffineFunction(NamedTuple):
    """``value(x) = c0 + coeffs . x``."""

    c0: float
    coeffs: np.ndarray

    def __call__(self, x: np.ndarray) -> float:
        return self.c0 + float(np.dot(self.coeffs, x))


class Action(NamedTuple):
    """One control action's offered quantities at one network state."""

    name: str
    y: np.ndarray  # offered exogenous-style transfers into each queue
    b: np.ndarray  # offered service per queue
    x: np.ndarray  # attribute vector


class ScenarioTables(NamedTuple):
    """Per-state action tables, indexed ``[omega, action]`` and padded to the
    largest action count.  A state's real actions are a prefix of its row;
    padded entries are zero and carry ``pad = +inf``.

    Scores add ``pad`` to ``V f`` (never multiply it by V, so V = 0 cannot
    turn it into NaN): a padded action scores +inf and is never chosen.
    """

    f: np.ndarray    # (S, A): cost f(x)
    pad: np.ndarray  # (S, A): 0 on real actions, +inf on padding
    g: np.ndarray    # (S, A, L): constraint values g_l(x)
    net: np.ndarray  # (S, A, K): y_offered - b
    b: np.ndarray    # (S, A, K): offered service
    y: np.ndarray    # (S, A, K): table y, without routed transfers
    x: np.ndarray    # (S, A, M)
    y_offered: np.ndarray  # (S, A, K): table y plus routed offered b

    @property
    def real(self) -> np.ndarray:
        """``(S, A)`` mask of the real actions; indexing with it gives them
        in (omega, action) order."""
        return self.pad == 0.0


def compile_tables(scenario: Scenario) -> ScenarioTables:
    """Evaluate every (omega, action) pair of ``scenario`` into padded tables.

    The offered arrival vector folds in endogenous routing: queue ``dst``
    receives its table ``y`` plus the offered service of every queue routed
    into it, added in routing-list order.  ``f`` and ``g`` are the affine
    functions evaluated action by action.  Entries that overflow become inf
    or NaN without a warning; the constructor's ``validate`` then rejects
    them.
    """
    n_s, n_a = scenario.omega_chain.n_states, max(map(len, scenario.actions))
    k, n_l, m = scenario.n_queues, scenario.n_constraints, scenario.n_attributes
    f, pad = np.zeros((n_s, n_a)), np.full((n_s, n_a), np.inf)
    g, x = np.zeros((n_s, n_a, n_l)), np.zeros((n_s, n_a, m))
    b, y = np.zeros((n_s, n_a, k)), np.zeros((n_s, n_a, k))
    with np.errstate(over="ignore", invalid="ignore"):
        for w, acts in enumerate(scenario.actions):
            for i, act in enumerate(acts):
                y[w, i], b[w, i], x[w, i] = act.y, act.b, act.x
                f[w, i] = scenario.cost(act.x)
                g[w, i] = [fn(act.x) for fn in scenario.constraints]
                pad[w, i] = 0.0
        y_offered = y.copy()
        for src, dst in scenario.routing:
            y_offered[:, :, dst] += b[:, :, src]
        net = y_offered - b
    return ScenarioTables(f=f, pad=pad, g=g, net=net, b=b, y=y, x=x, y_offered=y_offered)


class Scenario:
    def __init__(
        self,
        name: str,
        n_queues: int,
        n_constraints: int,
        n_attributes: int,
        omega_chain: FiniteMarkovChain,
        actions: list[list[Action]],
        cost: AffineFunction,
        constraints: list[AffineFunction],
        arrivals: list[ArrivalSpec],
        routing: list[tuple[int, int]] | None = None,  # (src, dst) pairs; None: no routing
    ) -> None:
        self.name = name
        self.n_queues = n_queues
        self.n_constraints = n_constraints
        self.n_attributes = n_attributes
        self.omega_chain = omega_chain
        self.actions = actions
        self.cost = cost
        self.constraints = constraints
        self.arrivals = arrivals
        self.routing = [] if routing is None else routing
        k, m = n_queues, n_attributes
        if len(self.actions) != self.omega_chain.n_states:
            raise ScenarioError("actions", "need one action list per omega state")
        for w, acts in enumerate(self.actions):
            if not acts:
                raise ScenarioError(f"actions[{w}]", "action list is empty")
            for i, act in enumerate(acts):
                if act.y.shape != (k,) or act.b.shape != (k,) or act.x.shape != (m,):
                    raise ScenarioError(f"actions[{w}][{i}]",
                                        "table vector lengths do not match K/M")
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
        if "tables" not in vars(self):  # else passed on by _replace
            self.tables = compile_tables(self)
            validate(self)

    def _replace(self, **changes: Any) -> Scenario:
        """A new scenario with some constructor arguments changed, checked
        again; named like the ``_replace`` of the NamedTuple records.  The
        tables are passed on when only ``arrivals`` or ``omega_chain`` change:
        ``compile_tables`` reads neither, beyond the state count that the
        constructor checks against the action lists, so neither the compile
        nor ``validate`` runs again."""
        args = {key: value for key, value in vars(self).items() if key != "tables"}
        new = Scenario.__new__(Scenario)
        if changes.keys() <= {"arrivals", "omega_chain"}:
            new.tables = self.tables
        new.__init__(**{**args, **changes})
        return new

    @property
    def lambdas(self) -> np.ndarray:
        return np.asarray([spec.rate for spec in self.arrivals], dtype=float)

    def stationary(self) -> np.ndarray:
        return stationary_distribution(self.omega_chain)


# A value fault per column of ``validate``'s table: the location's suffix and
# the message.  The first four are the table inputs, the last three the
# evaluated values.
_VALUE_FAULTS = (
    (".y", "table entries must be finite"),
    (".b", "table entries must be finite"),
    (".x", "table entries must be finite"),
    ("", "offered y and b must be non-negative"),
    ("", "non-finite y table entry"),
    ("", "non-finite g table entry"),
    ("", "non-finite cost value"),
)


def validate(scenario: Scenario) -> None:
    """Check the values of every real (omega, action) in ``scenario.tables``.

    Two groups, each in (omega, action) order: first the table inputs (a
    ``y``, ``b`` or ``x`` entry that is not finite, checked in that order,
    then a negative ``y`` or ``b``), then the evaluated values (the routed
    offer ``y_offered``, then ``g``, then the cost).  Raises
    ``ScenarioError`` at the first offender.  ``Scenario`` runs it once,
    right after ``compile_tables``.
    """
    tab = scenario.tables
    real = tab.real
    y, b, x, y_offered, g, f = (a[real] for a in (tab.y, tab.b, tab.x, tab.y_offered, tab.g, tab.f))
    # One row per real action, one column per fault.  A NaN compares as not
    # negative, and without a warning.
    bad = np.column_stack(
        [~np.isfinite(t).all(axis=1) for t in (y, b, x)]
        + [(y < 0).any(axis=1) | (b < 0).any(axis=1)]
        + [~np.isfinite(t).all(axis=1) for t in (y_offered, g)] + [~np.isfinite(f)]
    )
    for group in (slice(0, 4), slice(4, 7)):  # inputs, then evaluated values
        hit = bad[:, group].any(axis=1)
        if hit.any():
            j = int(np.argmax(hit))
            w, i = np.argwhere(real)[j].tolist()
            suffix, message = _VALUE_FAULTS[group.start + int(np.argmax(bad[j, group]))]
            raise ScenarioError(f"actions[{w}][{i}]{suffix}", message)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def fixture_path(name: str) -> Path:
    """Path of a shipped scenario fixture (``bb1`` or ``downlink2``)."""
    stem = name[:-5] if name.endswith(".json") else name
    return Path(__file__).parent / "fixtures" / f"{stem}.json"


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


def _list(raw: Any, where: str) -> list:
    if not isinstance(raw, list):
        raise ScenarioError(where, "expected a list")
    return raw


def _float_list(raw: Any, where: str) -> list[float]:
    return [_number(v, where) for v in _list(raw, where)]


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
    rows = [_float_list(row, f"omega_chain.transition[{i}]") for i, row in enumerate(
        _list(_expect(chain_raw, "transition", "omega_chain"), "omega_chain.transition"))]
    for i, row in enumerate(rows):
        if len(row) != len(rows):
            raise ScenarioError(f"omega_chain.transition[{i}]",
                                f"expected {len(rows)} entries, one per state, got {len(row)}")
    initial = _float_list(_expect(chain_raw, "initial", "omega_chain"), "omega_chain.initial")
    try:
        chain = FiniteMarkovChain(
            transition=rows,
            initial=initial,
            labels=tuple(_list(chain_raw.get("labels", []), "omega_chain.labels")),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError("omega_chain", str(exc)) from exc

    actions: list[list[Action]] = []
    for w, acts_raw in enumerate(_list(_expect(data, "actions", "actions"), "actions")):
        acts = []
        for i, raw in enumerate(_list(acts_raw, f"actions[{w}]")):
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
    for l, raw in enumerate(_list(data.get("constraints", []), "constraints")):
        where = f"constraints[{l}]"
        constraints.append(
            AffineFunction(
                c0=_number(_expect(raw, "d0", where), f"{where}.d0"),
                coeffs=np.asarray(_float_list(_expect(raw, "d", where), where)),
            )
        )
    arrivals = [
        _parse_arrival(raw, f"arrivals[{i}]")
        for i, raw in enumerate(_list(_expect(data, "arrivals", "arrivals"), "arrivals"))
    ]
    routing = [
        tuple(_integer(_expect(raw, key, f"routing[{j}]"), f"routing[{j}].{key}")
              for key in ("src", "dst"))
        for j, raw in enumerate(_list(data.get("routing", []), "routing"))
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
    except RecursionError:
        raise ScenarioError(str(p), "JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ScenarioError(str(p), "top-level JSON value must be an object")
    return scenario_from_dict(data, name_hint=p.stem)
