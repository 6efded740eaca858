from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    irreducibility_error_by_search,
    mixing_time_by_powering,
    sample_path_by_chase,
    stacked_sample_paths,
    stationary_by_power,
)
from qnetlab import processes
from qnetlab.network import load_scenario
from qnetlab.processes import (
    ArrivalSpec,
    FiniteMarkovChain,
    PeriodicChainError,
    ReducibleChainError,
    make_rng,
    mixing_time,
    stationary_distribution,
)


RELAY8 = str(Path(__file__).parent / "fixtures" / "relay8.json")


def iid_chain(probs) -> FiniteMarkovChain:
    """Memoryless chain: every row equals ``probs``, which is also the start."""
    probs = np.asarray(probs, dtype=float)
    return FiniteMarkovChain(np.tile(probs, (probs.size, 1)), probs)


def draw_arrivals(spec: ArrivalSpec, seed: int, horizon: int) -> np.ndarray:
    """``horizon`` slots of work from ``spec`` on the substream ``make_rng(seed, 0)``."""
    return spec.table[spec.sample_index(make_rng(seed, 0), horizon)]


def two_state(p01: float, p10: float) -> FiniteMarkovChain:
    return FiniteMarkovChain(
        transition=np.array([[1 - p01, p01], [p10, 1 - p10]]),
        initial=np.array([0.5, 0.5]),
    )


# ---------------------------------------------------------------------------
# chain validation
# ---------------------------------------------------------------------------


def test_rejects_non_stochastic_rows():
    with pytest.raises(ValueError, match="sums to"):
        FiniteMarkovChain(np.array([[0.5, 0.6], [0.5, 0.5]]), np.array([1.0, 0.0]))


def test_rejects_entries_outside_unit_interval():
    with pytest.raises(ValueError):
        FiniteMarkovChain(np.array([[1.5, -0.5], [0.5, 0.5]]), np.array([1.0, 0.0]))


def test_reducible_chain_error_names_unreachable_states():
    chain = FiniteMarkovChain(
        transition=np.array([[1.0, 0.0], [0.5, 0.5]]),
        initial=np.array([0.5, 0.5]),
        labels=("sink", "transient"),
    )
    with pytest.raises(ReducibleChainError, match="transient"):
        stationary_distribution(chain)


def test_reducible_chain_with_mixed_labels_names_them_sorted_by_str():
    # States 1 and 2 cannot be reached from state 0.  Their labels, "a" and
    # None, do not compare with each other; they sort by their str forms.
    chain = FiniteMarkovChain(
        transition=np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]),
        initial=np.array([1.0, 0.0, 0.0]),
        labels=(1, "a", None),
    )
    with pytest.raises(ReducibleChainError) as err:
        chain.require_irreducible()
    assert str(err.value) == "chain is reducible: states [None, 'a'] unreachable from 1"
    assert str(err.value) == irreducibility_error_by_search(chain)


@given(n=st.integers(1, 7), density=st.floats(0.0, 0.6), seed=st.integers(0, 2**32))
@settings(max_examples=200)
def test_irreducibility_check_matches_search_per_start_state(n, density, seed):
    # Sparse random supports, each row given at least one successor, and
    # labels out of index order, so that the sorting of the names shows.
    rng = make_rng(seed, 0)
    raw = rng.random((n, n)) * (rng.random((n, n)) < density)
    raw[np.arange(n), rng.integers(0, n, size=n)] += 1.0
    labels = tuple(f"s{j}" for j in rng.permutation(n))
    chain = FiniteMarkovChain(raw / raw.sum(axis=1, keepdims=True), np.full(n, 1.0 / n), labels)
    expected = irreducibility_error_by_search(chain)
    if expected is None:
        chain.require_irreducible()
    else:
        with pytest.raises(ReducibleChainError) as err:
            chain.require_irreducible()
        assert str(err.value) == expected


# ---------------------------------------------------------------------------
# stationary distribution
# ---------------------------------------------------------------------------


def test_stationary_single_state():
    chain = FiniteMarkovChain(np.array([[1.0]]), np.array([1.0]))
    assert stationary_distribution(chain) == pytest.approx([1.0])


def test_stationary_symmetric_two_state():
    pi = stationary_distribution(two_state(0.5, 0.5))
    assert pi == pytest.approx([0.5, 0.5])


def test_stationary_asymmetric_two_state_hand_oracle():
    # Balance: pi0 * 0.2 = pi1 * 0.8 and pi0 + pi1 = 1 -> (0.8, 0.2).
    pi = stationary_distribution(two_state(0.2, 0.8))
    assert pi == pytest.approx([0.8, 0.2], abs=1e-12)


def test_stationary_matches_power_iteration_on_random_chains():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        raw = rng.random((n, n)) + 0.05  # strictly positive -> irreducible
        p = raw / raw.sum(axis=1, keepdims=True)
        chain = FiniteMarkovChain(p, np.full(n, 1.0 / n))
        pi = stationary_distribution(chain)
        assert pi == pytest.approx(stationary_by_power(p), abs=1e-9)
        assert pi @ p == pytest.approx(pi, abs=1e-10)


# ---------------------------------------------------------------------------
# mixing time
# ---------------------------------------------------------------------------


def test_mixing_iid_chain_is_one_step():
    chain = iid_chain([0.25, 0.75])
    for delta in (0.5, 0.01, 1e-6):
        assert mixing_time(chain, delta) == 1


def test_mixing_symmetric_half_chain_is_one_step():
    assert mixing_time(two_state(0.5, 0.5), 0.01) == 1


def test_mixing_slow_chain_matches_powering_oracle():
    chain = two_state(0.1, 0.1)
    t_mix = mixing_time(chain, 0.01)
    assert type(t_mix) is int
    # The oracle returns the least t whose powered chain is within delta.
    assert t_mix == mixing_time_by_powering(chain.transition, 0.01) > 1


def test_mixing_rejects_periodic_chain():
    flip = FiniteMarkovChain(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
    with pytest.raises(PeriodicChainError, match="randomiz"):
        mixing_time(flip, 0.1)


def test_mixing_rejects_bad_delta():
    with pytest.raises(ValueError):
        mixing_time(two_state(0.5, 0.5), 0.0)


# ---------------------------------------------------------------------------
# RNG contract
# ---------------------------------------------------------------------------


def test_make_rng_is_a_child_of_the_seed_sequence_spawn_tree():
    for seed, rep, stream in [(1234, 0, 0), (1234, 7, 2), (0, 3, 1), (2**64 - 1, 0, 5)]:
        child = np.random.SeedSequence(seed).spawn(rep + 1)[rep].spawn(stream + 1)[stream]
        want = np.random.Generator(np.random.PCG64(child)).random(8)
        assert np.array_equal(make_rng(seed, rep, stream).random(8), want)
    assert make_rng(1234, 7).random() == make_rng(1234, 7, 0).random()


def test_streams_are_distinct_over_seeds_replications_and_streams():
    # Seeds 0-127, replications 0-99 and streams 0-2: no two of the 38,400
    # generators share a first output, so no seed aliases another's draws.
    firsts = {
        make_rng(seed, rep, stream).bit_generator.random_raw()
        for seed in range(128)
        for rep in range(100)
        for stream in range(3)
    }
    assert len(firsts) == 128 * 100 * 3


def test_make_rng_takes_indices_of_one_key_word():
    make_rng(5, 2**32 - 1, 2**32 - 1)
    for rep, stream in [(-1, 0), (0, -1), (2**32, 0), (0, 2**32)]:
        with pytest.raises(ValueError, match=r"2\*\*32"):
            make_rng(5, rep, stream)


def test_seeds_are_taken_mod_two_to_the_64():
    assert make_rng(-1, 3, 1).random() == make_rng(2**64 - 1, 3, 1).random()
    assert make_rng(2**64 + 5, 2).random() == make_rng(5, 2).random()


def test_substreams_pass_pairwise_correlation_check():
    a = make_rng(99, 0).random(100_000)
    b = make_rng(99, 1).random(100_000)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


def test_sample_path_is_bit_identical_for_fixed_seed():
    chain = two_state(0.3, 0.4)
    specs = [ArrivalSpec(kind="bernoulli", rate=0.2, p=0.2)]
    w1, a1 = stacked_sample_paths(chain, specs, seed=5, horizon=1000, replications=[0])
    w2, a2 = stacked_sample_paths(chain, specs, seed=5, horizon=1000, replications=[0])
    assert np.array_equal(w1, w2) and np.array_equal(a1, a2)
    w3, _ = stacked_sample_paths(chain, specs, seed=6, horizon=1000, replications=[0])
    assert not np.array_equal(w1, w3)


def test_sample_path_rejects_zero_horizon():
    chain = two_state(0.3, 0.4)
    with pytest.raises(ValueError):
        stacked_sample_paths(chain, [], seed=5, horizon=0, replications=[0])


@st.composite
def chains(draw):
    """Chains of 1-16 states: i.i.d. or Markov rows of small integer weights
    (so with zero-probability entries), or uniform rows ``1/S``, whose float
    sum falls short of 1 for some S (0.1 x 10 sums to 0.9999999999999999)."""
    n = draw(st.integers(1, 16))

    def row():
        if draw(st.booleans()):
            return np.full(n, 1.0 / n)
        weights = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), float)
        weights[draw(st.integers(0, n - 1))] += 1.0
        return weights / weights.sum()

    initial = row()
    if draw(st.booleans()):
        return iid_chain(initial)
    return FiniteMarkovChain(np.array([row() for _ in range(n)]), initial)


ARRIVAL_SPECS = [
    ArrivalSpec(kind="bernoulli", rate=0.3, p=0.3),
    ArrivalSpec(kind="deterministic", rate=1.0, values=(0.0, 1.0, 2.0)),
    ArrivalSpec(kind="iid_table", rate=0.75, values=(0.0, 1.0, 2.0), probs=(0.5, 0.25, 0.25)),
]


@settings(max_examples=150, deadline=None)
@given(
    chain=chains(),
    specs=st.lists(st.sampled_from(ARRIVAL_SPECS), max_size=3),
    replications=st.lists(st.integers(0, 2**20), min_size=1, max_size=7, unique=True),
    block=st.integers(1, 100),
    data=st.data(),
)
def test_lockstep_sampler_matches_per_replication_chase(chain, specs, replications, block,
                                                        data):
    # Blocks of ``block`` slots; horizons from 1 to three blocks plus one
    # cover partial last blocks, padded strides and block-boundary chases.
    horizon = data.draw(st.integers(1, 3 * block + 1), label="horizon")
    n_s = chain.n_states
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(processes, "_SAMPLE_BLOCK_BYTES", block * len(replications) * (16 + n_s))
        omega, index = stacked_sample_paths(chain, specs, 77, horizon, replications)
    assert omega.shape == (horizon, len(replications))
    assert index.shape == (horizon, len(replications), len(specs))
    for j, rep in enumerate(replications):
        want_omega, want_index = sample_path_by_chase(chain, specs, 77, horizon, rep)
        assert omega.dtype == want_omega.dtype and index.dtype == want_index.dtype
        assert omega[:, j].tobytes() == want_omega.tobytes()
        assert index[:, j].T.tobytes() == want_index.tobytes()


@settings(max_examples=200, deadline=None)
@given(chain=chains())
def test_sorted_unique_of_cdf_rows_is_numpys_unique(chain):
    # The rows have zero-probability entries (repeated cdf values) or a float
    # sum short of 1; the sampler's cut values must be np.unique's, bit for bit.
    cdf = np.cumsum(chain.transition, axis=1)
    assert processes._sorted_unique(cdf).tobytes() == np.unique(cdf).tobytes()


def test_lockstep_sampler_with_default_blocks():
    # One block of 5000 slots, chased in strides of 31; 0.1 summed ten times
    # is 0.9999999999999999, and row 3 has zero-probability entries.
    transition = np.full((10, 10), 0.1)
    transition[3] = [0.0, 0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]
    chain = FiniteMarkovChain(transition, np.full(10, 0.1))
    assert np.cumsum(transition[0])[-1] < 1.0
    omega, _ = stacked_sample_paths(chain, [], 5, 5000, [4, 1, 9])
    for j, rep in enumerate([4, 1, 9]):
        assert np.array_equal(omega[:, j], sample_path_by_chase(chain, [], 5, 5000, rep)[0])
    # A replication's path does not depend on the others drawn with it.
    assert np.array_equal(stacked_sample_paths(chain, [], 5, 5000, [1])[0][:, 0], omega[:, 1])


RANK_CHAINS = {
    "downlink2": lambda: load_scenario("downlink2.json").omega_chain,
    "relay8": lambda: load_scenario(RELAY8).omega_chain,
    "iid": lambda: iid_chain([0.1, 0.25, 0.0, 0.4, 0.25]),
}


@pytest.mark.parametrize("name", sorted(RANK_CHAINS))
def test_bucket_ranks_equal_searchsorted(name):
    # The sampler ranks its uniforms by bucket table; every rank must be
    # searchsorted's: on random uniforms, on every cut and its float
    # neighbours, and on the bucket edges k / 4096 and theirs.
    cuts = processes._sorted_unique(np.cumsum(RANK_CHAINS[name]().transition, axis=1))
    edges = np.arange(processes._RANK_BUCKETS) / processes._RANK_BUCKETS
    points = np.concatenate([cuts, edges])
    probes = np.concatenate([
        make_rng(7, 0).random(200_000),
        points, np.nextafter(points, 0.0), np.nextafter(points, 1.0), [0.0],
    ])
    u = probes[(probes >= 0.0) & (probes < 1.0)]  # the range of Generator.random
    table = processes._rank_table(cuts)
    expected = np.searchsorted(cuts, u, side="right")
    assert np.array_equal(processes._ranks(table, u), expected)
    # The same on a strided 2-d view, which is what the sampler passes.
    grid = u[: u.size // 4 * 4].reshape(4, -1).T
    assert np.array_equal(processes._ranks(table, grid), expected[: grid.size].reshape(4, -1).T)


def test_bucket_table_holds_cuts_sharing_a_bucket():
    # Three cuts inside one bucket, one on an edge and one at 1.
    cuts = np.array([0.0, 0.25, 0.2500001, 0.2500002, 0.2500003, 0.6, 1.0])
    base, inside = processes._rank_table(cuts)
    assert inside.shape == (3, processes._RANK_BUCKETS)
    u = np.concatenate([cuts[:-1], np.nextafter(cuts[:-1], 1.0), np.linspace(0.25, 0.2501, 999)])
    got = processes._ranks((base, inside), u)
    assert np.array_equal(got, np.searchsorted(cuts, u, side="right"))


def test_bernoulli_mean_clt_bound():
    spec = ArrivalSpec(kind="bernoulli", rate=0.3, p=0.3)
    draws = draw_arrivals(spec, 11, 1_000_000)
    assert abs(draws.mean() - 0.3) < 0.002


def test_state_occupancy_matches_stationary():
    chain = two_state(0.2, 0.8)
    omega, _ = stacked_sample_paths(chain, [], seed=17, horizon=1_000_000, replications=[0])
    occupancy = np.bincount(omega[:, 0], minlength=2) / omega.size
    assert occupancy == pytest.approx([0.8, 0.2], abs=0.005)


# ---------------------------------------------------------------------------
# arrival specs
# ---------------------------------------------------------------------------


def test_declared_rate_must_match_analytic_mean():
    with pytest.raises(ValueError, match="analytic mean"):
        ArrivalSpec(kind="bernoulli", rate=0.5, p=0.3)
    with pytest.raises(ValueError, match="analytic mean"):
        ArrivalSpec(kind="iid_table", rate=0.9, values=(0.0, 2.0), probs=(0.5, 0.5))
    ArrivalSpec(kind="iid_table", rate=1.0, values=(0.0, 2.0), probs=(0.5, 0.5))


def test_deterministic_arrivals_cycle():
    spec = ArrivalSpec(kind="deterministic", rate=1.5, values=(1.0, 2.0))
    out = draw_arrivals(spec, 0, 5)
    assert list(out) == [1.0, 2.0, 1.0, 2.0, 1.0]
    assert spec.second_moment() == 4.0


def test_iid_table_sampling_and_moments():
    spec = ArrivalSpec(
        kind="iid_table", rate=0.75, values=(0.0, 1.0, 2.0), probs=(0.5, 0.25, 0.25)
    )
    draws = draw_arrivals(spec, 3, 200_000)
    assert draws.mean() == pytest.approx(0.75, abs=0.01)
    assert spec.second_moment() == pytest.approx(0.25 + 4 * 0.25)


def test_counterexample_kind_cannot_be_sampled():
    # Counter-examples prescribe backlogs, not arrivals, so they are no
    # arrival kind at all.
    with pytest.raises(ValueError, match="unknown arrival kind 'counterexample'"):
        ArrivalSpec(kind="counterexample", rate=0.0)
