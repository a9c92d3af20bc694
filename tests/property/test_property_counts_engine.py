"""Property-based tests (hypothesis) on the counts engine's window sampler.

The counts engine advances whole scheduler windows at once, so its contract
has two halves that property testing pins down better than example tests:

* **Exactness** -- :meth:`CountsSimulation.pair_distribution` must equal the
  brute-force agent-level ordered-pair law (uniform and biased schedulers),
  and the sampled event counts within a window must match that law
  statistically (chi-squared).
* **Feasibility** -- every accepted window is a batch of interactions on
  distinct agents, so population size, the silent-n-state barrier invariant
  (Lemma 2.3), fratricide leader conservation, and bounded-epidemic level
  monotonicity must all hold across *every* window boundary, not just at
  convergence.

Both counts engines scatter their per-window flows through
:func:`~repro.engine.counts_simulation.pair_flows`; the last test pins it,
byte for byte, to the two sequential ``np.add.at`` calls it replaced.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.adversary.schedulers import SchedulerSpec
from repro.core.fratricide import FratricideLeaderElection, FratricideState
from repro.core.silent_n_state import (
    SilentNStateSSR,
    SilentNStateState,
    barrier_invariant_holds,
    find_barrier_rank,
)
from repro.engine.compiled import ProtocolCompiler
from repro.engine.configuration import Configuration
from repro.engine.counts_simulation import CountsSimulation, dense_pair_terms, pair_flows
from repro.engine.rng import make_rng
from repro.engine.protocol import PopulationProtocol
from repro.engine.state import AgentState
from repro.processes.bounded_epidemic import UNREACHED, BoundedEpidemicProtocol, LevelState
from repro.processes.epidemic import TwoWayEpidemicProtocol


class CoinFlipState(AgentState):
    def __init__(self, bit: int):
        self.bit = int(bit)

    def signature(self):
        return self.bit


class LazyEpidemicProtocol(PopulationProtocol):
    """Randomized fixture: an infected initiator infects with probability p.

    Mirrors the equivalence matrix's randomized member so the chi-squared
    below covers the branch-probability channel, not just pair selection.
    """

    name = "lazy-epidemic"

    def __init__(self, n: int, p: float = 0.25):
        super().__init__(n)
        self.p = p

    def initial_state(self, agent_id, rng):
        return CoinFlipState(1 if agent_id == 0 else 0)

    def transition(self, initiator, responder, rng):
        if initiator.bit == 1 and responder.bit == 0 and rng.random() < self.p:
            responder.bit = 1

    def is_correct(self, configuration):
        return all(state.bit == 1 for state in configuration)

    def enumerate_states(self):
        return [CoinFlipState(0), CoinFlipState(1)]

    def transition_branches(self, initiator, responder):
        if initiator.bit == 1 and responder.bit == 0:
            return [
                (self.p, CoinFlipState(1), CoinFlipState(1)),
                (1.0 - self.p, CoinFlipState(1), CoinFlipState(0)),
            ]
        return [(1.0, initiator, responder)]


@st.composite
def rank_multisets(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    ranks = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n))
    return n, ranks


SEEDS = st.integers(min_value=0, max_value=2**16)


def state_vector(simulation):
    """Collapse the (class, state) matrix to a per-state count vector."""
    return simulation.class_state_matrix.sum(axis=0)


# -- feasibility: conservation laws across every window ----------------------------------


class TestWindowFeasibility:
    @given(rank_multisets(), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_population_is_conserved_by_every_window(self, data, seed):
        """After every window: counts non-negative and summing to ``n``."""
        n, ranks = data
        protocol = SilentNStateSSR(n)
        simulation = CountsSimulation(
            protocol,
            configuration=Configuration([SilentNStateState(rank) for rank in ranks]),
            rng=make_rng(seed),
            record_windows=True,
        )
        simulation.run(30 * n)
        assert simulation.window_log, "run recorded no windows"
        for window in simulation.window_log:
            vector = window["counts_after"].sum(axis=0)
            assert vector.min() >= 0
            assert vector.sum() == n

    @given(rank_multisets(), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_barrier_invariant_holds_after_every_window(self, data, seed):
        """Lemma 2.3 across window boundaries, not just at convergence."""
        n, ranks = data
        protocol = SilentNStateSSR(n)
        compiled = ProtocolCompiler().compile(protocol)
        rank_of = np.array([state.rank for state in compiled.states])
        simulation = CountsSimulation(
            protocol,
            configuration=Configuration([SilentNStateState(rank) for rank in ranks]),
            rng=make_rng(seed),
            compiled=compiled,
            record_windows=True,
        )
        initial = np.zeros(n, dtype=np.int64)
        np.add.at(initial, rank_of, state_vector(simulation))
        barrier = find_barrier_rank(initial.tolist())
        simulation.run(30 * n)
        for window in simulation.window_log:
            counts = np.zeros(n, dtype=np.int64)
            np.add.at(counts, rank_of, window["counts_after"].sum(axis=0))
            assert barrier_invariant_holds(counts.tolist(), barrier)

    @given(
        st.integers(min_value=2, max_value=64),
        st.integers(min_value=1, max_value=64),
        SEEDS,
    )
    @settings(max_examples=40, deadline=None)
    def test_fratricide_never_loses_its_last_leader(self, followers, leaders, seed):
        """``L, L -> L, F`` can only halve leaders, never annihilate them.

        The regression behind this property: a tau-leap window that draws two
        ``(L, L)`` events against ``c_L = 2`` would kill both leaders -- the
        matching-feasibility check must reject such windows.
        """
        n = followers + leaders
        protocol = FratricideLeaderElection(n)
        compiled = ProtocolCompiler().compile(protocol)
        leader_index = compiled.encode_state(FratricideState(leader=True))
        configuration = Configuration(
            [FratricideState(leader=agent < leaders) for agent in range(n)]
        )
        simulation = CountsSimulation(
            protocol,
            configuration=configuration,
            rng=make_rng(seed),
            compiled=compiled,
            record_windows=True,
        )
        simulation.run(40 * n)
        previous = leaders
        for window in simulation.window_log:
            current = int(window["counts_after"].sum(axis=0)[leader_index])
            assert 1 <= current <= previous
            previous = current

    @given(st.integers(min_value=4, max_value=16), SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_bounded_epidemic_levels_only_improve(self, n, seed):
        """Per-agent levels only decrease, so for every threshold ``t`` the
        number of agents at level <= ``t`` is non-decreasing across windows."""
        protocol = BoundedEpidemicProtocol(n, k=1)
        compiled = ProtocolCompiler().compile(protocol)
        level_of = np.array([state.level for state in compiled.states])
        order = np.argsort(level_of, kind="stable")
        simulation = CountsSimulation(
            protocol,
            configuration=Configuration(
                [LevelState(0 if agent == 0 else UNREACHED) for agent in range(n)]
            ),
            rng=make_rng(seed),
            compiled=compiled,
            record_windows=True,
        )
        simulation.run(20 * n)
        previous = None
        for window in simulation.window_log:
            cumulative = np.cumsum(window["counts_after"].sum(axis=0)[order])
            if previous is not None:
                assert (cumulative >= previous).all()
            previous = cumulative


# -- exactness: the cell-pair law equals the agent-level law -----------------------------


def brute_force_pair_law(simulation, states_by_agent, weights):
    """O(n^2) agent-level ordered-pair probabilities, folded to cell pairs."""
    classes, states, pair_prob, _ = simulation.pair_distribution()
    index_of = {(int(g), int(s)): k for k, (g, s) in enumerate(zip(classes, states))}
    unique = np.unique(np.asarray(weights, dtype=np.float64))
    expected = np.zeros_like(pair_prob)
    total = float(np.sum(weights))
    for i, (state_i, weight_i) in enumerate(zip(states_by_agent, weights)):
        cell_i = index_of[(int(np.searchsorted(unique, weight_i)), state_i)]
        for j, (state_j, weight_j) in enumerate(zip(states_by_agent, weights)):
            if i == j:
                continue
            cell_j = index_of[(int(np.searchsorted(unique, weight_j)), state_j)]
            expected[cell_i, cell_j] += (weight_i / total) * (
                weight_j / (total - weight_i)
            )
    return pair_prob, expected


class TestPairDistributionExactness:
    @given(
        st.lists(st.booleans(), min_size=2, max_size=10).filter(any),
        SEEDS,
    )
    @settings(max_examples=50, deadline=None)
    def test_uniform_pair_law_matches_brute_force(self, infected_bits, seed):
        n = len(infected_bits)
        protocol = TwoWayEpidemicProtocol(n)
        compiled = ProtocolCompiler().compile(protocol)
        rng = make_rng(seed)
        states_by_agent = [
            compiled.encode_state(protocol.initial_state(0 if bit else n - 1, rng))
            for bit in infected_bits
        ]
        simulation = CountsSimulation(
            protocol, indices=np.array(states_by_agent), rng=rng, compiled=compiled
        )
        pair_prob, expected = brute_force_pair_law(
            simulation, states_by_agent, np.ones(n)
        )
        assert float(pair_prob.sum()) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(pair_prob, expected, atol=1e-12)

    @given(
        st.lists(st.booleans(), min_size=3, max_size=8).filter(any),
        st.lists(st.sampled_from([1.0, 2.0, 5.0]), min_size=3, max_size=8),
        SEEDS,
    )
    @settings(max_examples=50, deadline=None)
    def test_biased_pair_law_matches_brute_force(self, infected_bits, raw_weights, seed):
        n = len(infected_bits)
        weights = (raw_weights * n)[:n]
        protocol = TwoWayEpidemicProtocol(n)
        compiled = ProtocolCompiler().compile(protocol)
        rng = make_rng(seed)
        states_by_agent = [
            compiled.encode_state(protocol.initial_state(0 if bit else n - 1, rng))
            for bit in infected_bits
        ]
        simulation = CountsSimulation(
            protocol,
            indices=np.array(states_by_agent),
            rng=rng,
            compiled=compiled,
            scheduler_spec=SchedulerSpec(kind="biased", weights=tuple(weights)),
        )
        pair_prob, expected = brute_force_pair_law(simulation, states_by_agent, weights)
        assert float(pair_prob.sum()) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(pair_prob, expected, atol=1e-12)


class TestWindowSamplerStatistics:
    @pytest.mark.parametrize("seed", [11, 193, 4242])
    def test_event_counts_match_the_frozen_law(self, seed):
        """Chi-squared: one window's (pair, branch) event counts follow
        ``K * P[pair]/q * branch_prob`` -- the frozen multinomial the
        window-sampling contract promises."""
        n = 200_000
        protocol = LazyEpidemicProtocol(n, p=0.25)
        compiled = ProtocolCompiler().compile(protocol)
        rng = make_rng(seed)
        infected = compiled.encode_state(CoinFlipState(1))
        susceptible = compiled.encode_state(CoinFlipState(0))
        counts = np.zeros(compiled.num_states, dtype=np.int64)
        counts[infected] = n // 2
        counts[susceptible] = n - n // 2
        simulation = CountsSimulation(
            protocol, counts=counts, rng=rng, compiled=compiled, record_windows=True
        )
        classes, states, pair_prob, active = simulation.pair_distribution()
        active_prob = np.where(active, pair_prob, 0.0)
        q = float(active_prob.sum())
        state_of_cell = {k: int(s) for k, s in enumerate(states)}
        simulation.run(50_000)
        window = next(w for w in simulation.window_log if len(w["events"]))
        hits = int(window["events"][:, 6].sum())

        observed = {}
        for class_i, state_i, class_j, state_j, out_i, out_j, produced in window["events"]:
            observed[(state_i, state_j, out_i, out_j)] = (
                observed.get((state_i, state_j, out_i, out_j), 0) + produced
            )
        expected = {}
        branch_prob = simulation._branch_probability
        for x in range(len(states)):
            for y in range(len(states)):
                if active_prob[x, y] <= 0.0:
                    continue
                row = state_of_cell[x] * compiled.num_states + state_of_cell[y]
                for branch in range(branch_prob.shape[1]):
                    probability = branch_prob[row, branch]
                    if probability <= 0.0:
                        continue
                    out_i = simulation._branch_initiator[row, branch]
                    out_j = simulation._branch_responder[row, branch]
                    key = (state_of_cell[x], state_of_cell[y], int(out_i), int(out_j))
                    expected[key] = expected.get(key, 0.0) + hits * (
                        active_prob[x, y] / q
                    ) * float(probability)

        assert set(observed) <= set(expected)
        keys = sorted(expected)
        observed_array = np.array([observed.get(key, 0) for key in keys], dtype=float)
        expected_array = np.array([expected[key] for key in keys])
        assert (expected_array > 20).all(), "window too small for the chi-squared"
        result = stats.chisquare(observed_array, expected_array)
        assert result.pvalue > 1e-9, (
            f"event counts diverge from the frozen law (p={result.pvalue:.2e})"
        )


# -- the shared scatter: bit-identical to sequential np.add.at ----------------------------

#: Floats of mixed magnitude (and both zeros), so repeated cells round
#: differently under any other summation order.
MIXED_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.tuples(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), st.integers(-60, 60)
    ).map(lambda pair: pair[0] * 2.0 ** pair[1]),
)
#: Integers past 2**53 (where float64 rounds), small enough that no cell overflows.
BIG_INTS = st.one_of(st.just(0), st.integers(min_value=-(2**56), max_value=2**56))


@st.composite
def scatter_cases(draw):
    """``(form, rows, states, first, second, weights)``: each side a
    ``(row, state)`` index pair that broadcasts to ``weights``, zeros included.

    ``per-trial`` is the per-trial engine's 1-D term list, with separate row
    indices for the two sides (its ``class_x`` / ``class_y``); ``batched``
    and ``branched`` are the batched engine's dense ``(rows, pairs)`` and
    ``(rows, pairs, branches)`` arrays, whose row is the leading index.
    """
    rows = draw(st.integers(min_value=1, max_value=4))
    states = draw(st.integers(min_value=1, max_value=4))
    elements, dtype = draw(
        st.sampled_from([(MIXED_FLOATS, np.float64), (BIG_INTS, np.int64)])
    )
    form = draw(st.sampled_from(["per-trial", "batched", "branched"]))
    terms = draw(st.integers(min_value=0, max_value=12))
    trailing = (terms, draw(st.integers(1, 3))) if form == "branched" else (terms,)

    def indices(bound, shape):
        size = int(np.prod(shape))
        values = draw(st.lists(st.integers(0, bound - 1), min_size=size, max_size=size))
        return np.array(values, dtype=np.int64).reshape(shape)

    if form == "per-trial":
        weight_shape = trailing
        row_first, row_second = indices(rows, trailing), indices(rows, trailing)
    else:
        weight_shape = (rows,) + trailing
        row_first = row_second = np.arange(rows).reshape((rows,) + (1,) * len(trailing))
    count = int(np.prod(weight_shape))
    weights = np.array(
        draw(st.lists(elements, min_size=count, max_size=count)), dtype=dtype
    ).reshape(weight_shape)
    first = (row_first, indices(states, trailing))
    second = (row_second, indices(states, trailing))
    return form, rows, states, first, second, weights


@settings(max_examples=300, deadline=None)
@given(case=scatter_cases())
@example(  # first side then second: 1e16 + 1 + 1 rounds to 1e16, 1 + 1 + 1e16 does not
    case=("batched", 1, 2, (np.zeros((1, 1), np.int64), np.array([0, 1, 1])),
          (np.zeros((1, 1), np.int64), np.array([1, 0, 0])), np.array([[1e16, 1.0, 1.0]])),
)
@example(  # separate row indices per side, and an int64 weight float64 cannot hold
    case=("per-trial", 2, 2, (np.array([0, 1]), np.array([1, 1])),
          (np.array([1, 1]), np.array([0, 1])), np.array([2**53 + 1, 3], dtype=np.int64)),
)
@example(  # empty input
    case=("batched", 3, 2, (np.arange(3)[:, None], np.zeros(0, np.int64)),
          (np.arange(3)[:, None], np.zeros(0, np.int64)), np.zeros((3, 0))),
)
def test_pair_flows_equals_sequential_add_at(case):
    """The shared scatter equals ``np.add.at`` on the first side, then on the
    second, over the full dense inputs zeros included -- byte for byte, for
    floats (per-cell summation order) and for int64 past 2**53.  Dense
    inputs go through ``dense_pair_terms`` as the batched engine's do; the
    per-trial engine's 1-D terms go straight in as flat indices."""
    form, rows, states, first, second, weights = case
    expected = np.zeros((rows, states), dtype=weights.dtype)
    np.add.at(expected, first, weights)
    np.add.at(expected, second, weights)
    if form == "per-trial":
        flat = [row * states + state for row, state in (first, second)]
        flows = pair_flows((rows, states), flat[0], flat[1], weights)
    else:
        terms = dense_pair_terms(weights, first[1].ravel(), second[1].ravel(), states)
        flows = pair_flows((rows, states), *terms)
    assert flows.dtype == expected.dtype and flows.shape == expected.shape
    assert np.array_equal(flows.view(np.uint8), expected.view(np.uint8))
