"""Controlled multi-queue network: scenario schema, compiled action tables
and validation.

A scenario is a static description of the network, held as its tables: the
state chain for ``omega``; per state, its action names and its actions'
service, transfer and attribute rows, in ``(S, A, .)`` arrays padded to
the longest action list; the affine cost and constraint functions of the
attributes, as one ``(c0, coeffs)`` pair whose row 0 is the cost; arrival
processes; and optional endogenous routing (service of one queue feeding
another).  The constructor adds what is derived from them, once, as more of
the scenario's arrays; validation, the policy LP, the drift constants and
the closed-loop kernel all read the scenario's arrays.

The two transition modes (``MODES``) are applied by
``controller.run_dpp_batch``.  ``respect`` uses equality dynamics with a
feasibility clamp: a queue may forward or serve at most its slot-start
content, resolved in one pass (same-slot arrivals are not forwardable).
``clamped`` applies the max[.,0] form with offered quantities, ignoring
transfer feasibility.
"""

from __future__ import annotations

import inspect
import json
import math
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .processes import ArrivalSpec, FiniteMarkovChain, stationary_distribution

__all__ = [
    "Scenario",
    "ScenarioError",
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


def _real(names: Sequence[Sequence[str]], n_a: int) -> np.ndarray:
    """``(S, A)`` mask of the real actions: state w's first ``len(names[w])``."""
    return np.arange(n_a) < np.array([len(acts) for acts in names])[:, None]


def compile_tables(
    scenario: Scenario,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Derive ``(f, pad, g, net, y_offered)`` from the scenario's arrays.

    ``f`` ``(S, A)`` and ``g`` ``(S, A, L)`` are rows 0 and 1.. of ``c0 +
    (coeffs[:, 0] x_0 + ...)``, the products added in attribute order by a
    ``cumsum``: no BLAS kernel rounds them, and unlike ``np.add.reduce`` it
    neither starts from +0.0 nor turns pairwise when the other axes hold one
    element.  ``pad`` ``(S, A)`` is 0 on the real actions and +inf on the
    padding, where every other array is zero.  Queue ``dst`` is offered its
    table ``y`` plus the offered service of every queue routed into it,
    added in routing-list order: ``y_offered`` ``(S, A, K)``, and ``net =
    y_offered - b``.  Overflows become inf or NaN without a warning; the
    constructor's ``validate`` rejects them.
    """
    y, b, x, real = scenario.y, scenario.b, scenario.x, scenario.real
    with np.errstate(over="ignore", invalid="ignore"):
        terms = x[:, :, None, :] * scenario.coeffs  # (S, A, 1 + L, M)
        sums = np.cumsum(terms, axis=3)[..., -1] if terms.shape[3] else 0.0
        fg = np.where(real[..., None], scenario.c0 + sums, 0.0)
        y_offered = y.copy()
        for src, dst in scenario.routing:
            y_offered[:, :, dst] += b[:, :, src]
        net = y_offered - b
    return fg[..., 0], np.where(real, 0.0, np.inf), fg[..., 1:], net, y_offered


def _check_functions(c0: Sequence[float], coeffs: Sequence[Sequence[float]], m: int) -> None:
    """The cost (row 0), then each constraint: its coefficient count, then
    that its constant and coefficients are finite."""
    for r, (const, row) in enumerate(zip(c0, coeffs)):
        loc = "cost" if r == 0 else f"constraints[{r - 1}]"
        if len(row) != m:
            raise ScenarioError(loc, "coefficient length must equal M")
        if not (math.isfinite(const) and np.all(np.isfinite(row))):
            raise ScenarioError(loc, "constant and coefficients must be finite")


class Scenario:
    """``names[w]`` holds state w's action names, one per action.  ``y``, ``b``
    ``(S, A, K)`` and ``x`` ``(S, A, M)`` are zero past a state's last
    action; ``c0`` ``(1 + L,)`` and ``coeffs`` ``(1 + L, M)`` hold the cost
    (row 0) and the L constraints.  K, L and M are read off these shapes.

    The constructor adds the ``(S, A)`` mask ``real`` of the real actions
    (indexing with it gives them in (omega, action) order) and the arrays of
    ``compile_tables``: ``f``, ``pad``, ``g``, ``net`` and ``y_offered``.
    Scores add ``pad`` to ``V f`` (never multiply it by V, so V = 0 cannot
    turn it into NaN): a padded action scores +inf and is never chosen."""

    def __init__(
        self, name: str, omega_chain: FiniteMarkovChain, names: Sequence[Sequence[str]],
        y: np.ndarray, b: np.ndarray, x: np.ndarray, c0: np.ndarray, coeffs: np.ndarray,
        arrivals: list[ArrivalSpec],
        routing: list[tuple[int, int]] | None = None,  # (src, dst) pairs; None: no routing
    ) -> None:
        self.name = name
        self.omega_chain = omega_chain
        self.names = names
        self.y, self.b, self.x = y, b, x
        self.c0, self.coeffs = c0, coeffs
        self.arrivals = arrivals
        self.routing = [] if routing is None else routing
        if len(names) != omega_chain.n_states:
            raise ScenarioError("actions", "need one action list per omega state")
        for w, acts in enumerate(names):
            if not acts:
                raise ScenarioError(f"actions[{w}]", "action list is empty")
        n_s, n_a = len(names), max(map(len, names))
        if not (y.ndim == x.ndim == 3 and y.shape == b.shape == (n_s, n_a, y.shape[2])
                and x.shape[:2] == (n_s, n_a) and y.shape[2] >= 1):
            raise ScenarioError("actions", "y, b and x must be (S, A, K), (S, A, K) and "
                                           "(S, A, M) arrays, with K >= 1")
        self.real = _real(names, n_a)
        if any(t[~self.real].any() for t in (y, b, x)):
            raise ScenarioError("actions", "entries past a state's last action must be zero")
        if not (c0.ndim == 1 and coeffs.ndim == 2 and 1 <= len(c0) == len(coeffs)):
            raise ScenarioError("constraints", "need one affine function per constraint")
        _check_functions(c0, coeffs, x.shape[2])
        if len(self.arrivals) != self.n_queues:
            raise ScenarioError("arrivals", "need one arrival spec per queue")
        seen_pairs: set[tuple[int, int]] = set()
        for j, (src, dst) in enumerate(self.routing):
            loc = f"routing[{j}]"
            if not (0 <= src < self.n_queues and 0 <= dst < self.n_queues):
                raise ScenarioError(loc, "src/dst must be valid queue indices")
            if src == dst:
                raise ScenarioError(loc, "a queue cannot feed itself")
            if (src, dst) in seen_pairs:
                raise ScenarioError(loc, f"duplicate routing pair ({src}, {dst})")
            seen_pairs.add((src, dst))
        self.f, self.pad, self.g, self.net, self.y_offered = compile_tables(self)
        validate(self)

    def _replace(self, **changes: Any) -> Scenario:
        """A new scenario with some constructor arguments changed, built and
        checked by the constructor; named like the ``_replace`` of the
        NamedTuple records."""
        args = {key: getattr(self, key) for key in inspect.signature(Scenario).parameters}
        return Scenario(**{**args, **changes})

    n_queues = property(lambda self: self.y.shape[2])  # K
    n_constraints = property(lambda self: self.c0.shape[0] - 1)  # L
    n_attributes = property(lambda self: self.x.shape[2])  # M

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
    """Check the values of every real (omega, action) in the scenario's arrays.

    Two groups, each in (omega, action) order: first the table inputs (a
    ``y``, ``b`` or ``x`` entry that is not finite, checked in that order,
    then a negative ``y`` or ``b``), then the evaluated values (the routed
    offer ``y_offered``, then ``g``, then the cost ``f``).  Raises
    ``ScenarioError`` at the first offender.  ``Scenario`` runs it once,
    right after ``compile_tables``.
    """
    real = scenario.real
    y, b, x, y_offered, g, f = (a[real] for a in (scenario.y, scenario.b, scenario.x,
                                                  scenario.y_offered, scenario.g, scenario.f))
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
            return ArrivalSpec(kind, rate, p=_number(_expect(raw, "p", where), f"{where}.p"),
                               size=_number(raw.get("size", 1.0), f"{where}.size"))
        if kind in ("deterministic", "iid_table"):
            values = tuple(_float_list(_expect(raw, "values", where), where))
            if kind == "deterministic":
                return ArrivalSpec(kind, rate, values=values)
            probs = tuple(_float_list(_expect(raw, "probs", where), where))
            return ArrivalSpec(kind, rate, values=values, probs=probs)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(where, str(exc)) from exc
    raise ScenarioError(where, f"unknown arrival kind {kind!r}")


def _affine(raw: Any, where: str, const: str, coeffs: str) -> tuple[float, list[float]]:
    return (_number(_expect(raw, const, where), f"{where}.{const}"),
            _float_list(_expect(raw, coeffs, where), where))


def _name(raw: Any, where: str, *, key: bool) -> str:
    """A name written into the reports: a string with no line break, and no
    ``=`` when it goes into a report key (a label or an action name)."""
    if not isinstance(raw, str):
        raise ScenarioError(where, "expected a string")
    if raw.splitlines() not in ([], [raw]):
        raise ScenarioError(where, "a name must not contain a line break")
    if key and "=" in raw:
        raise ScenarioError(where, "a label or action name must not contain '='")
    return raw


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
    labels = tuple(
        _name(label, f"omega_chain.labels[{i}]", key=True)
        for i, label in enumerate(_list(chain_raw.get("labels", []), "omega_chain.labels"))
    )
    try:
        chain = FiniteMarkovChain(transition=rows, initial=initial, labels=labels)
    except ValueError as exc:
        raise ScenarioError("omega_chain", str(exc)) from exc

    # Per state, one (name, y, b, x) list per action.
    states = []
    for w, acts_raw in enumerate(_list(_expect(data, "actions", "actions"), "actions")):
        acts = []
        for i, raw in enumerate(_list(acts_raw, f"actions[{w}]")):
            where = f"actions[{w}][{i}]"
            vecs = [_float_list(_expect(raw, key, where), f"{where}.{key}") for key in "ybx"]
            acts.append((_name(raw.get("name", f"a{i}"), f"{where}.name", key=True), *vecs))
        states.append(acts)

    # (constant, coefficients) of the cost, then of each constraint.
    functions = [_affine(_expect(data, "cost", "cost"), "cost", "c0", "c")] + [
        _affine(raw, f"constraints[{l}]", "d0", "d")
        for l, raw in enumerate(_list(data.get("constraints", []), "constraints"))
    ]
    arrivals = [
        _parse_arrival(raw, f"arrivals[{i}]")
        for i, raw in enumerate(_list(_expect(data, "arrivals", "arrivals"), "arrivals"))
    ]
    routing = [
        tuple(_integer(_expect(raw, key, f"routing[{j}]"), f"routing[{j}].{key}")
              for key in ("src", "dst"))
        for j, raw in enumerate(_list(data.get("routing", []), "routing"))
    ]
    name = _name(data.get("name", name_hint), "name", key=False)

    # The shapes, in the constructor's order, before any array is allocated:
    # the arrays take their sizes from lengths checked here, not from the
    # dimensions alone.
    if len(states) != chain.n_states:
        raise ScenarioError("actions", "need one action list per omega state")
    for w, acts in enumerate(states):
        if not acts:
            raise ScenarioError(f"actions[{w}]", "action list is empty")
        for i, (_, *vecs) in enumerate(acts):
            if list(map(len, vecs)) != [k, k, m]:
                raise ScenarioError(f"actions[{w}][{i}]", "table vector lengths do not match K/M")
    if len(functions) != 1 + n_constraints:
        raise ScenarioError("constraints", "need one affine function per constraint")
    c0, coeffs = zip(*functions)
    _check_functions(c0, coeffs, m)

    names = tuple(tuple(act[0] for act in acts) for acts in states)
    real = _real(names, max(map(len, names)))
    y, b, x = (np.zeros((*real.shape, width)) for width in (k, k, m))
    _, *columns = zip(*(act for acts in states for act in acts))
    for table, column in zip((y, b, x), columns):
        table[real] = column
    return Scenario(name, chain, names, y, b, x, np.array(c0),
                    np.array(coeffs).reshape(len(c0), m), arrivals, routing)


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
