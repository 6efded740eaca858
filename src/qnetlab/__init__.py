"""qnetlab: a discrete-time stochastic queueing-network laboratory.

Simulate multi-queue networks under penalty-weighted backpressure control,
diagnose four notions of queue stability from trace ensembles, and verify
controller performance against an exact state-only-policy LP oracle for the
network capacity region.
"""

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
    substream_seed,
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
    estimate_verdict,
    single_queue_path,
)

__version__ = "0.1.0"
