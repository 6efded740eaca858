"""Stochastic process generation: the network-state Markov chain, arrival
processes, and the seeded RNG contract.

Randomness comes from numpy's PCG64 generator, seeded through numpy's
``SeedSequence``.  Stream ``j`` of replication ``r`` under master seed ``s``
is child ``(r, j)`` of the ``SeedSequence(s mod 2**64)`` spawn tree, so every
(seed, replication, stream) triple has its own stream and seeds that differ
mod 2**64 never share a replication.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "FiniteMarkovChain",
    "ArrivalSpec",
    "ReducibleChainError",
    "PeriodicChainError",
    "make_rng",
    "stationary_distribution",
    "mixing_time",
    "sample_paths",
]

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10

_MASK64 = (1 << 64) - 1
_SAMPLE_BLOCK_BYTES = 1 << 20  # per time block of sample_paths: its uniforms and maps
_RANK_BUCKETS = 4096  # buckets of the table that ranks uniforms among cdf values


class ReducibleChainError(ValueError):
    """Raised when a chain is not irreducible."""


class PeriodicChainError(ValueError):
    """Raised when an aperiodic chain is required but the chain is periodic."""


def make_rng(master_seed: int, replication: int = 0, stream: int = 0) -> np.random.Generator:
    """PCG64 generator for stream ``stream`` of replication ``replication``:
    child ``(replication, stream)`` of ``SeedSequence(master_seed mod 2**64)``.
    Each index must lie in [0, 2**32), one word of the spawn key, so that no
    two index pairs share a key."""
    if not (0 <= replication < 1 << 32 and 0 <= stream < 1 << 32):
        raise ValueError("replication and stream indices must lie in [0, 2**32)")
    key = np.random.SeedSequence(master_seed & _MASK64, spawn_key=(replication, stream))
    return np.random.Generator(np.random.PCG64(key))


class FiniteMarkovChain:
    """Row-stochastic transition matrix plus an initial distribution."""

    def __init__(
        self, transition: np.ndarray, initial: np.ndarray, labels: tuple[str, ...] = ()
    ) -> None:
        self.transition = p = np.asarray(transition, dtype=float)
        self.initial = pi0 = np.asarray(initial, dtype=float)
        self.labels = labels
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
            raise ValueError(f"transition row {bad} sums to {float(p[bad].sum())!r}, not 1")
        if not (np.all(pi0 >= 0) and abs(pi0.sum() - 1.0) <= ROW_SUM_TOL):
            raise ValueError("initial distribution must be a probability vector")
        if not self.labels:
            self.labels = tuple(f"s{i}" for i in range(n))
        elif len(self.labels) != n:
            raise ValueError("labels length must match state count")

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    def require_irreducible(self) -> None:
        # reach[i, j]: j is reachable from i; squaring doubles the path length
        # covered until the closure stops growing.
        reach = (self.transition > 0) | np.eye(self.n_states, dtype=bool)
        while not np.array_equal(closer := reach @ reach, reach):
            reach = closer
        for i, row in enumerate(reach):
            if not row.all():
                # By str, so that labels of mixed types sort too.
                names = sorted((self.labels[j] for j in np.flatnonzero(~row)), key=str)
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


def stationary_distribution(chain: FiniteMarkovChain) -> np.ndarray:
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
    return pi


def mixing_time(chain: FiniteMarkovChain, delta: float, max_steps: int = 1_000_000) -> int:
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
    pi = stationary_distribution(chain)
    power = chain.transition.copy()
    for t in range(1, max_steps + 1):
        if 0.5 * np.max(np.abs(power - pi[None, :]).sum(axis=1)) <= delta:
            return t
        power = power @ chain.transition
    raise ArithmeticError(f"chain did not mix to delta={delta} within {max_steps} steps")


class ArrivalSpec:
    """Declarative arrival process for one queue.

    Kinds:
      * ``bernoulli``: ``size`` units arrive with probability ``p`` each slot.
      * ``deterministic``: ``values`` repeat cyclically.
      * ``iid_table``: i.i.d. draws from ``values`` with probabilities ``probs``.

    ``rate`` is the declared mean work per slot and must match the analytic
    mean of the generator.
    """

    def __init__(
        self,
        kind: str,
        rate: float,
        p: float = 0.0,
        size: float = 1.0,
        values: tuple[float, ...] = (),
        probs: tuple[float, ...] = (),
    ) -> None:
        self.kind = kind
        self.rate = rate
        self.p = p
        self.size = size
        self.values = values
        self.probs = probs
        if self.kind not in ("bernoulli", "deterministic", "iid_table"):
            raise ValueError(f"unknown arrival kind {self.kind!r}")
        if self.rate < 0 or not math.isfinite(self.rate):
            raise ValueError("declared rate must be a non-negative finite real")
        mean = self.analytic_mean()
        if abs(mean - self.rate) > 1e-12 * (1.0 + abs(mean)):
            raise ValueError(
                f"declared rate {self.rate} does not match analytic mean {mean}"
            )

    def analytic_mean(self) -> float:
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
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("iid_table needs matching non-empty values/probs")
        if not all(0.0 <= v < math.inf for v in self.values):
            raise ValueError("iid_table arrival values must be finite and non-negative")
        if not (all(p >= 0 for p in self.probs) and abs(sum(self.probs) - 1.0) <= 1e-12):
            raise ValueError("iid_table probs must form a probability vector")
        return float(np.dot(self.values, self.probs))

    def second_moment(self) -> float:
        """Analytic E[a^2]; for deterministic sequences the worst slot."""
        if self.kind == "bernoulli":
            return self.p * self.size**2
        if self.kind == "deterministic":
            return float(max(v**2 for v in self.values))
        return float(np.dot(np.square(self.values), self.probs))

    @property
    def table(self) -> np.ndarray:
        """Work values that ``sample_index`` indexes into."""
        return np.array((0.0, self.size) if self.kind == "bernoulli" else self.values)

    def sample_index(
        self, rng: np.random.Generator | None, horizon: int, start: int = 0
    ) -> np.ndarray:
        """Indices into ``table`` for ``horizon`` slots from slot ``start``, in
        the smallest unsigned dtype.  Random kinds take the next ``horizon``
        outputs of ``rng``; ``deterministic`` reads no stream."""
        if self.kind == "bernoulli":
            return (rng.random(horizon) < self.p).view(np.uint8)
        dtype = np.min_scalar_type(len(self.values) - 1)
        if self.kind == "deterministic":
            return (np.arange(start, start + horizon) % len(self.values)).astype(dtype)
        return rng.choice(len(self.values), size=horizon, p=self.probs).astype(dtype)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for NaN-free input, without the masked-array
    check (and the import of numpy.ma) that numpy's version makes."""
    ordered = np.sort(values, axis=None)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _rank_table(cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bucket table that ranks uniforms among the sorted ``cuts`` (see ``_ranks``).

    Bucket ``b`` holds the uniforms ``u`` with ``floor(u * _RANK_BUCKETS) = b``.
    ``base[b]`` counts the cuts at or below the bucket's lower edge, in the
    smallest unsigned dtype that holds ``cuts.size``;
    ``inside[i, b]`` is the ``i``-th cut strictly inside the bucket, or 2.0
    (above every uniform) where there is none.  Scaling by a power of two is
    exact, so every bucket index and edge is too.
    """
    edges = np.arange(_RANK_BUCKETS) / _RANK_BUCKETS
    base = np.searchsorted(cuts, edges, side="right").astype(np.min_scalar_type(cuts.size))
    scaled = cuts * _RANK_BUCKETS
    bucket = scaled.astype(np.intp)
    inner = (cuts < 1.0) & (scaled != bucket)  # cuts on an edge are in ``base``
    cut, bucket = cuts[inner], bucket[inner]
    order = np.arange(cut.size) - np.searchsorted(bucket, bucket)  # within the bucket
    inside = np.full((order.max(initial=-1) + 1, _RANK_BUCKETS), 2.0)
    inside[order, bucket] = cut
    return base, inside


def _ranks(table: tuple[np.ndarray, np.ndarray], u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cuts, u, side="right")`` for uniforms ``u`` in [0, 1),
    from ``_rank_table(cuts)``: one lookup, then one compare per cut that
    shares a bucket."""
    base, inside = table
    bucket = np.empty(u.shape, dtype=np.intp)
    np.multiply(u, _RANK_BUCKETS, out=bucket, casting="unsafe")  # truncates: the floor
    rank = base.take(bucket)
    for row in inside:
        rank += row.take(bucket) <= u
    return rank


def sample_paths(
    chain: FiniteMarkovChain,
    arrival_specs: Sequence[ArrivalSpec],
    seed: int,
    horizon: int,
    replications: Sequence[int],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Draw several replications' network-state paths and arrivals together,
    one time block at a time.

    Replication ``r`` draws ``horizon`` uniforms for its state path from
    ``make_rng(seed, r, 0)`` and queue ``k``'s arrivals from
    ``make_rng(seed, r, 1 + k)``.  The uniform of slot 0 picks the initial
    state from ``chain.initial``; the uniform of slot ``t >= 1`` picks the
    successor of the state at ``t - 1`` from its transition row (the first
    state whose cumulative probability exceeds it, capped at the last
    state).  Yields ``(omega, arrival_index)`` for consecutive blocks of
    slots, of shapes ``(nb, R)`` and ``(nb, R, K)``, column ``j`` for
    ``replications[j]``; the work arriving to queue ``k`` at the block's
    slot ``i`` is ``arrival_specs[k].table[arrival_index[i, j, k]]``.  Both
    arrays use the smallest unsigned dtype that holds their values.

    All replications advance in lockstep (``_SAMPLE_BLOCK_BYTES`` bounds a
    block's temporaries; chunked draws continue each stream exactly).
    Within a block the per-slot successor maps are composed over strides of
    about ``sqrt(block / 5)`` slots, so Python steps through the stride
    starts only; the chase is integer indexing, hence exact.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rngs = [make_rng(seed, int(r)) for r in replications]
    n_r, n_s, top = len(rngs), chain.n_states, chain.n_states - 1
    w_dtype = np.min_scalar_type(top)
    # A uniform's rank among the sorted distinct cdf values picks its
    # successor of every state: succ[rank, s].  The top guard catches a
    # uniform at or above a row's imperfectly-summed last value.
    cdf = np.cumsum(chain.transition, axis=1)
    cuts = _sorted_unique(cdf)
    ranks = _rank_table(cuts)
    succ = np.zeros((cuts.size + 1, n_s), dtype=w_dtype)
    for s, row in enumerate(cdf):
        succ[1:, s] = np.minimum(np.searchsorted(row, cuts, side="right"), top)
    markov = bool(np.any(chain.transition != chain.transition[0]))
    block = max(1, _SAMPLE_BLOCK_BYTES // (max(n_r, 1) * (16 + n_s * w_dtype.itemsize)))
    ix_dtype = np.min_scalar_type(max([1, *(spec.table.size - 1 for spec in arrival_specs)]))
    arrival_rngs = [
        None if spec.kind == "deterministic"  # draws nothing
        else [make_rng(seed, int(r), 1 + k) for r in replications]
        for k, spec in enumerate(arrival_specs)
    ]

    def states(t0: int, nb: int, prev: np.ndarray | None) -> np.ndarray:
        """State paths of slots ``t0 .. t0 + nb - 1``, following ``prev``,
        the previous block's; its temporaries die on return."""
        stride = max(1, math.isqrt(nb // 5)) if markov else nb
        n_c = -(-nb // stride)  # strides in the block; the last is padded
        u = np.zeros((n_r, n_c * stride))
        for row, rng in zip(u, rngs):
            rng.random(nb, out=row[:nb])
        if t0 == 0:
            first = np.searchsorted(np.cumsum(chain.initial), u[:, 0], side="right")
            first = np.minimum(first, top)
        if not markov:
            omega = succ[:, 0].take(_ranks(ranks, u.T))
            if t0 == 0:
                omega[0] = first
            return omega
        # maps[i, c, r] is replication r's successor map at slot
        # t0 + c*stride + i; slot 0's map sends every state to the initial one.
        u = u.T.reshape(n_c, stride, n_r).swapaxes(0, 1)
        maps = np.empty((stride, n_c, n_r, n_s), dtype=w_dtype)
        for i in range(stride):
            succ.take(_ranks(ranks, u[i]), axis=0, out=maps[i], mode="clip")
        if t0 == 0:
            maps[0, 0] = first[:, None]
        flat = maps.reshape(stride, -1)
        offset = np.arange(0, n_c * n_r * n_s, n_s).reshape(n_c, n_r)  # of map (c, r) in flat[i]
        # comp[c, r, s]: the state after stride c from state s, composed map
        # by map over every stride at once, as an offset into flat[i].
        comp = maps[0] + offset[..., None]
        for i in range(1, stride):
            np.add(flat[i].take(comp), offset[..., None], out=comp)
        # Step through the stride starts, with states as offsets r*S + state
        # into one stride's maps, from the previous block's last state.
        # Block 0's entry state is never read.
        comp = (comp - offset[:, :1, None]).reshape(n_c, -1)
        cur = offset[0] + (prev[-1] if t0 else 0)
        entries = [cur]
        for c in range(n_c - 1):
            cur = comp[c].take(cur)
            entries.append(cur)
        # Chase every stride from its entry state, all strides at once.
        cur = np.add(entries, offset - offset[0])
        path = np.empty((n_c, stride, n_r), dtype=w_dtype)
        for i in range(stride):
            path[:, i] = state = flat[i].take(cur)
            np.add(state, offset, out=cur)
        return path.reshape(-1, n_r)[:nb]

    omega = None
    for t0 in range(0, horizon, block):
        nb = min(block, horizon - t0)
        omega = states(t0, nb, omega)
        index = np.empty((nb, n_r, len(arrival_specs)), dtype=ix_dtype)
        for k, (spec, queue_rngs) in enumerate(zip(arrival_specs, arrival_rngs)):
            if queue_rngs is None:
                index[:, :, k] = spec.sample_index(None, nb, t0)[:, None]
            else:
                for j, rng in enumerate(queue_rngs):
                    index[:, j, k] = spec.sample_index(rng, nb)
        yield omega, index
