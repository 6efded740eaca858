"""Metamorphic relations of the closed-loop kernel and the policy LP.

Each relation transforms a scenario so that the drift-plus-penalty run and
the LP optimum must move in a known way, bit for bit, and checks both on the
fixtures and on the fuzzed scenarios of ``test_controller``:

* cost x 2^j with V x 2^-j: ``V f`` keeps its bits, so the action, Q and Z
  paths do; ``cost_sum`` and ``f_opt`` are exactly 2^j times theirs;
* an appended copy of each state's action 0 that costs 1 more: its score is
  never below action 0's, and ties go to the lower index, so it is never
  chosen; the paths and ``cost_sum`` keep their bits, and the LP's optimum
  ``f_opt`` and margin ``d_max`` do too;
* a constraint's constant lowered by delta > 0 (loosened): the feasible
  policies only grow, so the LP never turns infeasible, ``f_opt`` never
  rises and ``d_max`` never falls.

The kernel's side holds bit for bit on every scenario, and the LP's on the
fixtures.  On the fuzzed scenarios the LP's side holds to within its
tolerance only: the simplex prices at an absolute tolerance
(``simplex.TOL``) that does not scale with the costs, and an extra column
can change the rounding of its pivots (one-action states read an ``f_opt``
of 0.0, and 7.5e-20 with the copies).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qnetlab.capacity import solve_fopt
from qnetlab.controller import run_dpp_batch
from qnetlab.network import load_scenario
from qnetlab.processes import ReducibleChainError
from qnetlab.simplex import TOL
from test_controller import fuzzed_scenarios

RELAY8 = Path(__file__).parent / "fixtures" / "relay8.json"
FIXTURES = ["downlink2.json", RELAY8]


def scaled_cost(scenario, j):
    """``scenario`` with its cost function times 2^j."""
    c0, coeffs = scenario.c0.copy(), scenario.coeffs.copy()
    c0[0] *= 2.0**j
    coeffs[0] *= 2.0**j
    return scenario._replace(c0=c0, coeffs=coeffs)


def with_costlier_copy(scenario):
    """``scenario`` with a copy of action 0 appended to every state's actions.
    A new last attribute is 1 on the copies, with cost coefficient 1 and
    constraint coefficients 0, so a copy's cost is action 0's plus 1.  It is
    -0.0 on every other action: its products are -0.0, and adding -0.0 leaves
    every other action's cost and constraint values as they were, signed
    zeros included."""
    n_s, n_a = scenario.f.shape
    sizes = [len(acts) for acts in scenario.names]
    shape = (n_s, max(sizes) + 1)
    y, b = np.zeros(shape + scenario.y.shape[2:]), np.zeros(shape + scenario.b.shape[2:])
    x = np.zeros(shape + (scenario.n_attributes + 1,))
    y[:, :n_a], b[:, :n_a], x[:, :n_a, :-1] = scenario.y, scenario.b, scenario.x
    x[:, :n_a, -1] = np.where(scenario.real, -0.0, 0.0)
    for w, n in enumerate(sizes):
        y[w, n], b[w, n], x[w, n, :-1] = scenario.y[w, 0], scenario.b[w, 0], scenario.x[w, 0]
        x[w, n, -1] = 1.0
    coeffs = np.column_stack([scenario.coeffs, np.eye(len(scenario.c0))[:, 0]])
    names = [[*acts, f"{acts[0]}-costlier"] for acts in scenario.names]
    return scenario._replace(names=names, y=y, b=b, x=x, coeffs=coeffs)


def lp_report(scenario):
    """``solve_fopt``'s report, or None when the chain is reducible (the LP
    needs its unique stationary distribution)."""
    try:
        return solve_fopt(scenario)
    except ReducibleChainError:
        return None


def runs(scenario, v_weights, n_reps, seed, horizon, mode):
    """Every (V, replication) lane of one recorded batch."""
    lanes_v = [v for v in v_weights for _ in range(n_reps)]
    lanes_rep = list(range(n_reps)) * len(v_weights)
    return run_dpp_batch(scenario, lanes_v, lanes_rep, seed, horizon, mode,
                         record=len(lanes_v), with_virtual=True)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_paths(batch, other):
    assert same_bits(batch.reducer.total, other.reducer.total)
    for run, twin in zip(batch.runs, other.runs, strict=True):
        for name in ("omega_path", "action_path", "q_path", "z_path"):
            assert same_bits(getattr(run, name), getattr(twin, name)), name


def assert_cost_scaling(scenario, j, v_weights, n_reps, seed, horizon, mode):
    """The kernel's side of the relation; returns the pairs of LP answers
    that must agree: ``f_opt`` times 2^j and the scaled scenario's (none on
    a reducible chain)."""
    scaled = scaled_cost(scenario, j)
    batch = runs(scenario, v_weights, n_reps, seed, horizon, mode)
    twin = runs(scaled, [v * 2.0**-j for v in v_weights], n_reps, seed, horizon, mode)
    assert_same_paths(batch, twin)
    assert same_bits(twin.cost_sum, batch.cost_sum * 2.0**j)
    assert same_bits(twin.g_sum, batch.g_sum)
    ours, theirs = lp_report(scenario), lp_report(scaled)
    return [] if ours is None else [(ours.f_opt * 2.0**j, theirs.f_opt)]


def assert_costlier_copy_unused(scenario, v_weights, n_reps, seed, horizon, mode):
    """The kernel's side of the relation; returns the pairs of LP answers
    that must agree: ``f_opt`` and ``d_max`` without and with the copies."""
    copied = with_costlier_copy(scenario)
    batch = runs(scenario, v_weights, n_reps, seed, horizon, mode)
    twin = runs(copied, v_weights, n_reps, seed, horizon, mode)
    assert_same_paths(batch, twin)
    assert same_bits(twin.cost_sum, batch.cost_sum)
    ours, theirs = lp_report(scenario), lp_report(copied)
    return [] if ours is None else [(ours.f_opt, theirs.f_opt), (ours.d_max, theirs.d_max)]


def assert_close(pairs, tol):
    """Each pair equal bit for bit, or within ``tol``."""
    for want, got in pairs:
        assert same_bits(got, want) or abs(got - want) <= tol, (got, want)


@pytest.mark.parametrize("mode", ["respect", "clamped"])
@pytest.mark.parametrize("j", [-3, 1, 4])
@pytest.mark.parametrize("fixture", FIXTURES)
def test_cost_scaling_on_the_fixtures(fixture, j, mode):
    pairs = assert_cost_scaling(load_scenario(fixture), j, [0.0, 0.7, 20.0], 2, 5, 300, mode)
    assert_close(pairs, 0.0)


@pytest.mark.parametrize("mode", ["respect", "clamped"])
@pytest.mark.parametrize("fixture", FIXTURES)
def test_costlier_copy_on_the_fixtures(fixture, mode):
    pairs = assert_costlier_copy_unused(load_scenario(fixture), [0.0, 0.7, 20.0], 2, 5, 300, mode)
    assert_close(pairs, 0.0)


# Weights of 0 or at least 1e-3, so that V x 2^-j is a normal number.
WEIGHTS = st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 50.0)), min_size=1, max_size=3)


@given(scenario=fuzzed_scenarios(), j=st.integers(-4, 4), v_weights=WEIGHTS,
       n_reps=st.integers(1, 2), mode=st.sampled_from(("respect", "clamped")),
       seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_cost_scaling_on_fuzzed_scenarios(scenario, j, v_weights, n_reps, mode, seed):
    # Scaling by 2^j is exact in the normal range only: the relation needs a
    # cost table that scales exactly, with no nonzero cost, scaled or not,
    # near the subnormals (a cost of 2.2e-309 lost its last bits).
    costs = np.abs(np.concatenate([scenario.f, scenario.f * 2.0**j]))
    assume(np.all((costs == 0) | (costs >= 2.0**-960)))
    assume(same_bits(scaled_cost(scenario, j).f, scenario.f * 2.0**j))
    pairs = assert_cost_scaling(scenario, j, v_weights, n_reps, seed, 40, mode)
    # A reduced cost within a factor 2^|j| of TOL can end the scaled LP at
    # another vertex, within about TOL of the optimum (a degenerate example
    # read 6.8e-10 against 0.0).
    assert_close(pairs, 10 * TOL * max(1.0, 2.0**j))


@given(scenario=fuzzed_scenarios(), v_weights=WEIGHTS, n_reps=st.integers(1, 2),
       mode=st.sampled_from(("respect", "clamped")), seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_costlier_copy_on_fuzzed_scenarios(scenario, v_weights, n_reps, mode, seed):
    assert_close(assert_costlier_copy_unused(scenario, v_weights, n_reps, seed, 40, mode), 10 * TOL)


def loosened(scenario, row, delta):
    """``scenario`` with constraint ``row``'s constant lowered by ``delta``."""
    c0 = scenario.c0.copy()
    c0[1 + row] -= delta
    return scenario._replace(c0=c0)


def assert_loosening_keeps_the_lp(scenario, deltas, tol):
    """Each constraint loosened by each of ``deltas``: ``feasible`` never
    turns false, ``f_opt`` never rises and ``d_max`` never falls, within
    ``tol`` times the larger of 1 and the values compared."""
    ours = lp_report(scenario)
    if ours is None:
        return
    for row in range(scenario.n_constraints):
        for delta in deltas:
            theirs = solve_fopt(loosened(scenario, row, delta))
            slack = tol * max(1.0, abs(ours.d_max), abs(theirs.d_max))
            assert theirs.d_max >= ours.d_max - slack, (row, delta, ours, theirs)
            if ours.feasible:
                assert theirs.feasible, (row, delta, ours, theirs)
                slack = tol * max(1.0, abs(ours.f_opt), abs(theirs.f_opt))
                assert theirs.f_opt <= ours.f_opt + slack, (row, delta, ours, theirs)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_loosening_a_constraint_on_the_fixtures(fixture):
    assert_loosening_keeps_the_lp(load_scenario(fixture), [2.0**-20, 0.1, 1.0, 8.0], 1e-12)


@given(scenario=fuzzed_scenarios(), delta=st.floats(2.0**-20, 8.0))
@settings(max_examples=40, deadline=None)
def test_loosening_a_constraint_on_fuzzed_scenarios(scenario, delta):
    assert_loosening_keeps_the_lp(scenario, [delta], 10 * TOL)
