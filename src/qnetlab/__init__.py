"""qnetlab: a discrete-time stochastic queueing-network laboratory.

Simulate multi-queue networks under penalty-weighted backpressure control,
diagnose four notions of queue stability from trace ensembles, and verify
controller performance against an exact state-only-policy LP oracle for the
network capacity region.
"""

import os

# Set before the first import of numpy: OpenBLAS reads it once, at load.
# The package's parallelism is --workers processes, and every BLAS call a
# command makes is tiny (per-lane gemv on n_a x (K+L) tables, the simplex
# tableau, S <= 16 solves), so a second BLAS thread costs only its start-up:
# a fresh `python -c "import numpy"` takes 0.190 instead of 0.233 s (median
# wall time, 2-CPU x86-64 host, OpenBLAS 0.3.31).  A caller's own value is
# kept; a process that loaded numpy before qnetlab keeps the pool it has.
# No output byte depends on the thread count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .capacity import (
    CapacityReport,
    OmegaOnlyPolicy,
    PerformanceBounds,
    build_lp,
    performance_bounds,
    solve_fopt,
)
from .controller import (
    DppBatchResult,
    DppRunResult,
    DriftConstants,
    drift_constants,
    run_dpp_batch,
)
from .network import (
    Scenario,
    ScenarioError,
    fixture_path,
    load_scenario,
    validate,
)
from .processes import (
    ArrivalSpec,
    FiniteMarkovChain,
    make_rng,
    mixing_time,
    stationary_distribution,
)
from .queues import (
    CompositeState,
    SlotIO,
    conservation_check,
    lyapunov_value,
    queue_step,
    virtual_queue_step,
)
from .stability import (
    StabilityVerdict,
    VerdictThresholds,
    bb1_closed_form,
    cex_strong_not_rate,
)

__version__ = "0.1.0"
