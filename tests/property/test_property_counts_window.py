"""The trial-batched counts window against its dense form.

:meth:`CountsTrialBatchSimulation._advance` builds each window's law in two
buffers it allocates once per run, and draws over the drawable pairs only:
those some live trial can draw, plus the last pair of the support.  This
file keeps the form it replaced as a reference: a law over every pair of the
static support in fresh arrays each round, and the removal flows, the
multinomial, the feasibility check, the branch split and the produced flows
over all of them.

Both are fed identical engines, live sets and budgets, on deterministic and
branched tables with one to four trial rows, from occupancies that often
leave the support's last pair empty in every row.  After several rounds they
must leave the same count matrix, the same applied counts and the same PCG64
state.  Each binomial's success probabilities, the trials' law totals capped
at 1, must agree bit for bit too: a total summed in another order can differ
in its last bit and still draw the same counts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.propagate_reset import ResetWaveProtocol
from repro.engine.compiled import ProtocolCompiler
from repro.engine.counts_simulation import (
    DEFAULT_DRIFT_CAP,
    _HARD_WINDOW_CAP,
    dense_pair_terms,
    pair_flows,
)
from repro.engine.protocol import PopulationProtocol
from repro.engine.state import AgentState
from repro.engine.trial_batch import CountsTrialBatchSimulation


def reference_advance(self, live, budget):
    """The dense window over the whole static support (telemetry left out)."""
    support = self._support
    x, y = support["x"], support["y"]
    num_states = self.compiled.num_states
    n = self.protocol.n
    rng = self.rng
    count = len(live)
    cells = self._matrix[live].astype(np.float64)
    probs = cells[:, x] * (cells[:, y] - support["diagonal"]) / (float(n) * float(n - 1))
    np.maximum(probs, 0.0, out=probs)
    total_active = probs.sum(axis=1)

    removal = pair_flows(cells.shape, *dense_pair_terms(probs, x, y, num_states))
    with np.errstate(divide="ignore", invalid="ignore"):
        allowance = np.where(removal > 0.0, cells / removal, np.inf)
    drift_window = DEFAULT_DRIFT_CAP * allowance.min(axis=1)
    windows = np.minimum(budget, _HARD_WINDOW_CAP)
    capped = np.maximum(np.minimum(drift_window, 1e18), 1.0).astype(np.int64)
    windows = np.where(total_active > 0.0, np.minimum(windows, capped), windows)

    events = np.zeros((count, len(x)), dtype=np.int64)
    consumed = np.zeros((count, num_states), dtype=np.int64)
    sample = np.nonzero(total_active > 0.0)[0]
    while len(sample):
        pvals = probs[sample] / total_active[sample, None]
        hits = rng.binomial(windows[sample], np.minimum(total_active[sample], 1.0))
        drawn = rng.multinomial(hits, pvals)
        used = pair_flows(
            (len(sample), num_states), *dense_pair_terms(drawn, x, y, num_states)
        )
        overdrawn = (used > self._matrix[live[sample]]).any(axis=1)
        feasible = ~overdrawn
        events[sample[feasible]] = drawn[feasible]
        consumed[sample[feasible]] = used[feasible]
        windows[sample[overdrawn]] = np.maximum(windows[sample[overdrawn]] // 2, 1)
        sample = sample[overdrawn]

    if support["num_branches"] > 1:
        events = rng.multinomial(events, support["branch_pvals"])
    outputs = [side.ravel() for side in support["outputs"]]
    produced = pair_flows(cells.shape, *dense_pair_terms(events, *outputs, num_states))
    self._matrix[live] += produced - consumed
    self._applied[live] += windows


class RecordingGenerator(np.random.Generator):
    """PCG64 from ``seed``, keeping the success probabilities of every
    ``binomial`` call."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.totals = []

    def binomial(self, n, p, size=None):
        self.totals.append(np.array(p, dtype=np.float64))
        return super().binomial(n, p, size)


class TableState(AgentState):
    def __init__(self, value: int):
        self.value = value

    def signature(self):
        return self.value

    def clone(self):
        return TableState(self.value)


class RandomTableProtocol(PopulationProtocol):
    """``states`` states and a seeded random table: about a third of the
    pairs change nothing, and with ``branched`` some pairs have two or three
    outcomes, each declared through ``transition_branches``."""

    name = "random-table"

    def __init__(self, n: int, states: int, seed: int, branched: bool):
        super().__init__(n)
        self.states = states
        self.seed = seed
        self.branched = branched
        rng = np.random.default_rng(seed)
        self.table = {}
        for a in range(states):
            for b in range(states):
                if rng.random() < 0.35:
                    self.table[(a, b)] = [(1.0, a, b)]
                    continue
                width = int(rng.integers(2, 4)) if branched and rng.random() < 0.5 else 1
                weights = rng.random(width) + 0.1
                self.table[(a, b)] = [
                    (float(w), int(rng.integers(states)), int(rng.integers(states)))
                    for w in weights / weights.sum()
                ]

    def initial_state(self, agent_id, rng):
        return TableState(0)

    def transition(self, initiator, responder, rng):
        branches = self.table[(initiator.value, responder.value)]
        pick = rng.choice(len(branches), p=[p for p, _, _ in branches])
        _, initiator.value, responder.value = branches[pick]

    def transition_branches(self, initiator, responder):
        return [
            (p, TableState(a), TableState(b))
            for p, a, b in self.table[(initiator.value, responder.value)]
        ]

    def is_correct(self, configuration):
        return False

    def enumerate_states(self):
        return [TableState(value) for value in range(self.states)]


#: Small populations, and large ones whose law terms are fine enough that a
#: total summed in another order often differs in its last bit.
POPULATIONS = st.one_of(
    st.integers(min_value=2, max_value=400), st.integers(min_value=10**4, max_value=10**6)
)


@st.composite
def batches(draw):
    """A table, a ``(T, S)`` count matrix, a generator seed and the rounds'
    live sets and budgets."""
    if draw(st.booleans()):
        protocol = RandomTableProtocol(
            n=draw(POPULATIONS),
            states=draw(st.integers(min_value=2, max_value=10)),
            seed=draw(st.integers(min_value=0, max_value=2**16)),
            branched=draw(st.booleans()),
        )
    else:
        protocol = ResetWaveProtocol(
            draw(POPULATIONS),
            rmax=draw(st.integers(min_value=1, max_value=6)),
            dmax=draw(st.integers(min_value=1, max_value=6)),
        )
    compiled = ProtocolCompiler().compile(protocol)
    num_states, n = compiled.num_states, protocol.n
    trials = draw(st.integers(min_value=1, max_value=4))
    # Empty states are common, and the last state is often empty in every
    # row, which empties the support's last pair for every trial.
    empty_last = draw(st.booleans()) and num_states > 1
    rows = []
    for _ in range(trials):
        occupied = draw(
            st.lists(st.booleans(), min_size=num_states, max_size=num_states).filter(
                lambda mask: any(mask[: num_states - 1] if empty_last else mask)
            )
        )
        if empty_last:
            occupied[-1] = False
        states = [state for state, on in enumerate(occupied) if on]
        split = np.random.default_rng(draw(st.integers(0, 2**16))).multinomial(
            n, np.full(len(states), 1.0 / len(states))
        )
        row = np.zeros(num_states, dtype=np.int64)
        row[states] = split
        rows.append(row)
    rounds = [
        (
            sorted(draw(st.sets(st.integers(0, trials - 1), min_size=1))),
            draw(st.integers(min_value=1, max_value=50 * n)),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=6)))
    ]
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return protocol, compiled, np.array(rows), seed, rounds


@given(batches())
@settings(max_examples=150, deadline=None)
def test_window_matches_the_dense_reference(case):
    protocol, compiled, counts, seed, rounds = case
    kernel = CountsTrialBatchSimulation(
        protocol, counts, rng=RecordingGenerator(seed), compiled=compiled
    )
    dense = CountsTrialBatchSimulation(
        protocol, counts, rng=RecordingGenerator(seed), compiled=compiled
    )
    for live, budget in rounds:
        live = np.array(live, dtype=np.int64)
        budgets = np.full(len(live), budget, dtype=np.int64)
        kernel._advance(live, budgets.copy())
        reference_advance(dense, live, budgets.copy())
        np.testing.assert_array_equal(kernel.count_rows, dense.count_rows)
        np.testing.assert_array_equal(kernel._applied, dense._applied)
        assert kernel.rng.bit_generator.state == dense.rng.bit_generator.state
        assert len(kernel.rng.totals) == len(dense.rng.totals)
        for ours, theirs in zip(kernel.rng.totals, dense.rng.totals):
            assert ours.tobytes() == theirs.tobytes()
    assert (kernel.count_rows.sum(axis=1) == protocol.n).all()
