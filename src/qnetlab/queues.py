"""Exact discrete-time queue and virtual-queue recursions.

The single-queue update is ``q' = max(q - b, 0) + a`` where ``a`` is the work
arriving in the slot and ``b`` the service offered by the server.  The actual
work removed is ``min(b, q)``, which is what sample-path conservation accounts
against.  Virtual queues use ``z' = max(z + g, 0)`` with a signed per-slot
value ``g``.

All functions here are pure value-to-value maps with no shared state.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "SlotIO",
    "CompositeState",
    "queue_step",
    "virtual_queue_step",
    "conservation_check",
    "lyapunov_value",
]

# Accumulated floating-point slack allowed per slot in conservation checks,
# sized so a 1e4-slot trace stays within 1e-9 (values up to ~1e6).
CONSERVATION_TOL_PER_SLOT = 1e-13
CONSERVATION_TOL_FLOOR = 1e-12


class SlotIO(NamedTuple):
    """One slot of queue input/output accounting.

    ``actual_service`` is ``min(offered_service, backlog-at-slot-start)``;
    ``negative_part`` is ``-min(offered_service, 0)`` and is zero for ordinary
    (non-negative) servers.
    """

    arrival: float
    offered_service: float
    actual_service: float
    negative_part: float


class CompositeState:
    """Actual queue backlogs plus virtual-queue backlogs, as float vectors."""

    def __init__(self, queues: np.ndarray, virtuals: np.ndarray) -> None:
        self.queues = np.asarray(queues, dtype=float)
        self.virtuals = np.asarray(virtuals, dtype=float)
        if self.queues.ndim != 1 or self.virtuals.ndim != 1:
            raise ValueError("queues and virtuals must be 1-d vectors")
        if np.any(self.queues < 0) or np.any(self.virtuals < 0):
            raise ValueError("backlogs must be non-negative")

    @classmethod
    def zeros(cls, n_queues: int, n_virtuals: int) -> "CompositeState":
        return cls(np.zeros(n_queues), np.zeros(n_virtuals))

    def copy(self) -> "CompositeState":
        return CompositeState(self.queues.copy(), self.virtuals.copy())


def queue_step(q: float, a: float, b: float) -> tuple[float, SlotIO]:
    """Advance one queue by one slot: ``q' = max(q - b, 0) + a``.

    ``b`` may be negative (then it acts as an extra arrival inside the max);
    ``a`` must be non-negative.  Returns the next backlog and the slot's
    accounting record.
    """
    if not (math.isfinite(q) and math.isfinite(a) and math.isfinite(b)):
        raise ValueError("queue_step requires finite inputs")
    if q < 0:
        raise ValueError(f"backlog must be non-negative, got {q}")
    if a < 0:
        raise ValueError(f"arrival must be non-negative, got {a}")
    q, a, b = float(q), float(a), float(b)
    q_next = max(q - b, 0.0) + a
    io = SlotIO(
        arrival=a,
        offered_service=b,
        actual_service=min(b, q),
        negative_part=max(-b, 0.0),
    )
    return q_next, io


def virtual_queue_step(z: float, g_val: float) -> float:
    """Advance a virtual queue: ``z' = max(z + g, 0)``."""
    if not (math.isfinite(z) and math.isfinite(g_val)):
        raise ValueError("virtual_queue_step requires finite inputs")
    if z < 0:
        raise ValueError(f"virtual backlog must be non-negative, got {z}")
    return max(z + g_val, 0.0)


def conservation_check(
    trace: Sequence[SlotIO] | Iterable[SlotIO], q0: float, q_final: float
) -> tuple[bool, float]:
    """Check sample-path conservation over a trace of slot records.

    For a trace produced by repeated ``queue_step`` from ``q0``, the final
    backlog must equal ``q0 + sum(arrivals) - sum(actual service)``.  Returns
    ``(ok, residual)`` where ``residual`` is the signed discrepancy; ``ok``
    allows only floating-point accumulation error (1e-9 per 1e4 slots).
    """
    trace = list(trace)
    total_in = math.fsum(io.arrival for io in trace)
    total_out = math.fsum(io.actual_service for io in trace)
    residual = (q_final - q0) - (total_in - total_out)
    tol = max(CONSERVATION_TOL_FLOOR, CONSERVATION_TOL_PER_SLOT * len(trace))
    return abs(residual) <= tol, residual


def lyapunov_value(state: CompositeState) -> float:
    """Quadratic state norm: half the squared length of all backlogs."""
    return 0.5 * float(np.dot(state.queues, state.queues)) + 0.5 * float(
        np.dot(state.virtuals, state.virtuals)
    )
