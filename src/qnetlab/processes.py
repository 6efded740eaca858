"""Stochastic process generation: the network-state Markov chain, arrival
processes, and the seeded RNG contract.

Randomness comes from numpy's PCG64 generator.  Replication ``r`` of a run
with master seed ``s`` draws from an independent substream seeded with
``splitmix64(s XOR r)``; the SplitMix64 finalizer is a bijection on 64-bit
integers, so distinct replications always get distinct substream seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "FiniteMarkovChain",
    "StationaryDistribution",
    "MixingReport",
    "ArrivalSpec",
    "ReducibleChainError",
    "PeriodicChainError",
    "splitmix64",
    "substream_seed",
    "make_rng",
    "stationary_distribution",
    "mixing_time",
    "sample_path",
]

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10

_MASK64 = (1 << 64) - 1
_CHASE_BLOCK = 4096  # slots per index-chase block: bounds the list temporaries


class ReducibleChainError(ValueError):
    """Raised when a chain is not irreducible."""


class PeriodicChainError(ValueError):
    """Raised when an aperiodic chain is required but the chain is periodic."""


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer: one avalanche round on a 64-bit integer."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def substream_seed(master_seed: int, replication: int) -> int:
    """Substream seed for one replication: splitmix64(seed XOR replication)."""
    if replication < 0:
        raise ValueError("replication index must be non-negative")
    return splitmix64((master_seed & _MASK64) ^ (replication & _MASK64))


def make_rng(master_seed: int, replication: int = 0) -> np.random.Generator:
    """PCG64 generator for one replication substream."""
    return np.random.Generator(np.random.PCG64(substream_seed(master_seed, replication)))


@dataclass(frozen=True)
class StationaryDistribution:
    pi: np.ndarray


@dataclass(frozen=True)
class MixingReport:
    """Least horizon T at which every start state is within ``delta`` of
    stationarity in total variation, with the max-TV decay curve up to T."""

    delta: float
    T: int
    tv_curve: tuple[tuple[int, float], ...]


@dataclass
class FiniteMarkovChain:
    """Row-stochastic transition matrix plus an initial distribution."""

    transition: np.ndarray
    initial: np.ndarray
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        self.transition = np.asarray(self.transition, dtype=float)
        self.initial = np.asarray(self.initial, dtype=float)
        p, pi0 = self.transition, self.initial
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("transition must be a square matrix")
        n = p.shape[0]
        if pi0.shape != (n,):
            raise ValueError("initial distribution length must match state count")
        if not np.all((p >= 0) & (p <= 1)):
            raise ValueError("transition entries must be finite and lie in [0, 1]")
        row_err = np.abs(p.sum(axis=1) - 1.0)
        if np.any(row_err > ROW_SUM_TOL):
            bad = int(np.argmax(row_err))
            raise ValueError(f"transition row {bad} sums to {p[bad].sum()!r}, not 1")
        if not (np.all(pi0 >= 0) and abs(pi0.sum() - 1.0) <= ROW_SUM_TOL):
            raise ValueError("initial distribution must be a probability vector")
        if not self.labels:
            self.labels = tuple(f"s{i}" for i in range(n))
        elif len(self.labels) != n:
            raise ValueError("labels length must match state count")

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @classmethod
    def iid(cls, probs: Sequence[float], labels: Sequence[str] = ()) -> "FiniteMarkovChain":
        """Memoryless chain: every row equals ``probs``."""
        probs = np.asarray(probs, dtype=float)
        return cls(np.tile(probs, (len(probs), 1)), probs.copy(), tuple(labels))

    def reachable_from(self, start: int) -> set[int]:
        support = self.transition > 0
        seen = {start}
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j in np.flatnonzero(support[i]):
                if int(j) not in seen:
                    seen.add(int(j))
                    frontier.append(int(j))
        return seen

    def require_irreducible(self) -> None:
        n = self.n_states
        for i in range(n):
            missing = set(range(n)) - self.reachable_from(i)
            if missing:
                names = sorted(self.labels[j] for j in missing)
                raise ReducibleChainError(
                    f"chain is reducible: states {names} unreachable from {self.labels[i]}"
                )

    def period(self) -> int:
        """Period of an irreducible chain (gcd of cycle lengths)."""
        self.require_irreducible()
        n = self.n_states
        dist = [-1] * n
        dist[0] = 0
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                for j in np.flatnonzero(self.transition[i] > 0):
                    if dist[int(j)] < 0:
                        dist[int(j)] = dist[i] + 1
                        nxt.append(int(j))
            frontier = nxt
        g = 0
        for i in range(n):
            for j in np.flatnonzero(self.transition[i] > 0):
                g = math.gcd(g, dist[i] + 1 - dist[int(j)])
        return abs(g)


def stationary_distribution(chain: FiniteMarkovChain) -> StationaryDistribution:
    """Solve ``pi P = pi``, ``sum(pi) = 1`` by Gaussian elimination.

    The last balance equation (redundant for a stochastic matrix) is replaced
    with the normalization row.
    """
    chain.require_irreducible()
    n = chain.n_states
    a = chain.transition.T - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(a, rhs)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    if np.max(np.abs(pi @ chain.transition - pi)) > STATIONARY_TOL:
        raise ArithmeticError("stationary distribution failed its fixed-point check")
    return StationaryDistribution(pi=pi)


def mixing_time(
    chain: FiniteMarkovChain, delta: float, max_steps: int = 1_000_000
) -> MixingReport:
    """Least T with ``max_i TV(P^T[i, :], pi) <= delta``, by matrix powering.

    Exact powering (no simulation noise) keeps the reported T deterministic.
    Periodic chains never mix in this sense and are rejected; randomize over
    the period first if that is intended.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if chain.period() != 1:
        raise PeriodicChainError(
            "chain is periodic; mixing to stationarity requires aperiodicity "
            "(randomize over the period to make the chain stationary)"
        )
    pi = stationary_distribution(chain).pi
    power = chain.transition.copy()
    curve: list[tuple[int, float]] = []
    for t in range(1, max_steps + 1):
        max_tv = float(0.5 * np.max(np.abs(power - pi[None, :]).sum(axis=1)))
        curve.append((t, max_tv))
        if max_tv <= delta:
            return MixingReport(delta=delta, T=t, tv_curve=tuple(curve))
        power = power @ chain.transition
    raise ArithmeticError(f"chain did not mix to delta={delta} within {max_steps} steps")


@dataclass(frozen=True)
class ArrivalSpec:
    """Declarative arrival process for one queue.

    Kinds:
      * ``bernoulli``: ``size`` units arrive with probability ``p`` each slot.
      * ``deterministic``: ``values`` repeat cyclically.
      * ``iid_table``: i.i.d. draws from ``values`` with probabilities ``probs``.
      * ``counterexample``: a named pathological backlog process; it prescribes
        backlogs directly, so it cannot be sampled as arrivals here (the
        stability module generates those traces).

    ``rate`` is the declared mean work per slot and must match the analytic
    mean of the generator.
    """

    kind: str
    rate: float
    p: float = 0.0
    size: float = 1.0
    values: tuple[float, ...] = ()
    probs: tuple[float, ...] = ()
    tag: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("bernoulli", "deterministic", "iid_table", "counterexample"):
            raise ValueError(f"unknown arrival kind {self.kind!r}")
        if self.rate < 0 or not math.isfinite(self.rate):
            raise ValueError("declared rate must be a non-negative finite real")
        mean = self.analytic_mean()
        if mean is not None and abs(mean - self.rate) > 1e-12 * (1.0 + abs(mean)):
            raise ValueError(
                f"declared rate {self.rate} does not match analytic mean {mean}"
            )

    def analytic_mean(self) -> float | None:
        if self.kind == "bernoulli":
            if not (0.0 <= self.p <= 1.0 and 0.0 <= self.size < math.inf):
                raise ValueError("bernoulli arrivals need p in [0,1] and a finite size >= 0")
            return self.p * self.size
        if self.kind == "deterministic":
            if not self.values:
                raise ValueError("deterministic arrivals need a non-empty sequence")
            if any(v < 0 or not math.isfinite(v) for v in self.values):
                raise ValueError("deterministic arrival values must be non-negative")
            return float(np.mean(self.values))
        if self.kind == "iid_table":
            if len(self.values) != len(self.probs) or not self.values:
                raise ValueError("iid_table needs matching non-empty values/probs")
            if not all(0.0 <= v < math.inf for v in self.values):
                raise ValueError("iid_table arrival values must be finite and non-negative")
            if not (all(p >= 0 for p in self.probs) and abs(sum(self.probs) - 1.0) <= 1e-12):
                raise ValueError("iid_table probs must form a probability vector")
            return float(np.dot(self.values, self.probs))
        return None  # counterexample: mean is documentation only

    def second_moment(self) -> float:
        """Analytic E[a^2]; for deterministic sequences the worst slot."""
        if self.kind == "bernoulli":
            return self.p * self.size**2
        if self.kind == "deterministic":
            return float(max(v**2 for v in self.values))
        if self.kind == "iid_table":
            return float(np.dot(np.square(self.values), self.probs))
        raise ValueError("counterexample arrivals have no table second moment")

    @property
    def table(self) -> np.ndarray:
        """Work values that ``sample_index`` indexes into."""
        return np.array((0.0, self.size) if self.kind == "bernoulli" else self.values)

    def sample_index(self, rng: np.random.Generator, horizon: int) -> np.ndarray:
        """Per-slot indices into ``table``, in the smallest unsigned dtype."""
        if self.kind == "bernoulli":
            return (rng.random(horizon) < self.p).view(np.uint8)
        dtype = np.min_scalar_type(len(self.values) - 1)
        if self.kind == "deterministic":
            return (np.arange(horizon) % len(self.values)).astype(dtype)
        if self.kind == "iid_table":
            return rng.choice(len(self.values), size=horizon, p=self.probs).astype(dtype)
        raise ValueError(
            f"counterexample arrival {self.tag!r} prescribes backlogs, not arrivals; "
            "generate it with the stability counterexample tools"
        )

    def sample(self, rng: np.random.Generator, horizon: int) -> np.ndarray:
        return self.table[self.sample_index(rng, horizon)]


def sample_omega_path(
    chain: FiniteMarkovChain, rng: np.random.Generator, horizon: int
) -> np.ndarray:
    """Sample a state-index path of length ``horizon`` from the chain.

    One ``searchsorted`` per state gives every slot's successor of every
    state; the path then chases those indices (an i.i.d. chain's path is
    the first state's successor column).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    u = rng.random(horizon)
    top = chain.n_states - 1  # guard: u can tie the imperfectly-summed cdf top
    cdf = np.cumsum(chain.transition, axis=1)
    succ = np.empty((horizon, chain.n_states), dtype=np.min_scalar_type(top))
    for s, row in enumerate(cdf):
        succ[:, s] = np.minimum(np.searchsorted(row, u, side="right"), top)
    state = min(int(np.searchsorted(np.cumsum(chain.initial), u[0], side="right")), top)
    path = succ[:, 0].copy()
    path[0] = state
    if np.any(chain.transition != chain.transition[0]):
        n_s = chain.n_states
        for start in range(1, horizon, _CHASE_BLOCK):
            flat, chased = succ[start : start + _CHASE_BLOCK].ravel().tolist(), []
            for row in range(0, len(flat), n_s):
                state = flat[row + state]
                chased.append(state)
            path[start : start + len(chased)] = chased
    return path


def sample_path(
    chain: FiniteMarkovChain,
    arrival_specs: Sequence[ArrivalSpec],
    seed: int,
    horizon: int,
    replication: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one replication's network-state path and arrivals, compactly.

    Deterministic in ``(chain, arrival_specs, seed, horizon, replication)``:
    the state path's uniforms are drawn first, then each queue's arrivals in
    queue order.  Returns ``(omega_path, arrival_index)``; the work arriving
    to queue ``k`` at slot ``t`` is
    ``arrival_specs[k].table[arrival_index[k, t]]``.  Both arrays use the
    smallest unsigned dtype that holds their values.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rng = make_rng(seed, replication)
    omega = sample_omega_path(chain, rng, horizon)
    index = [spec.sample_index(rng, horizon) for spec in arrival_specs]
    dtype = np.result_type(np.uint8, *index)
    return omega, np.array(index, dtype=dtype).reshape(len(index), horizon)
