"""Stop checks read per-state arrays built once per table.

A counts-vector stop predicate (``compiled_predicates()``) maps the state
histogram through per-state arrays: which states are Resetting, Settled,
leaders.  The table is fixed, so those arrays are too.  These tests count
reads of the state field each predicate inspects: ``k`` stop checks on one
table (and on its memo twin) read it once per state per array, not ``k``
times per state.
"""

import numpy as np
import pytest

from repro.core.fratricide import FratricideLeaderElection, FratricideState
from repro.core.optimal_silent import SETTLED, OptimalSilentSSR, OptimalSilentState
from repro.core.propagate_reset import RESETTING, ResetWaveProtocol, ResetWaveState
from repro.derandomize.synthetic_coin import SyntheticCoinProtocol, SyntheticCoinState
from repro.engine.compiled import ProtocolCompiler
from repro.engine.core import resolve_stop
from repro.processes.roll_call import RollCallProtocol, RollCallState

CHECKS = 5


class CountingField:
    """A data descriptor that counts reads of one field of a state class."""

    def __init__(self, cls, name):
        self.name = name
        #: The class's own descriptor (a property), or None for a plain field.
        self.inner = vars(cls).get(name)
        self.reads = 0

    def __get__(self, state, owner=None):
        if state is None:
            return self
        self.reads += 1
        if self.inner is not None:
            return self.inner.__get__(state, owner)
        return state.__dict__[self.name]

    def __set__(self, state, value):
        state.__dict__[self.name] = value


def settled_ranking(protocol, compiled):
    """Every agent Settled with a distinct rank: the predicate reads both arrays."""
    counts = np.zeros(compiled.num_states, dtype=np.int64)
    for rank in range(1, protocol.n + 1):
        settled = OptimalSilentState(role=SETTLED, rank=rank, children=0)
        counts[compiled.encode_state(settled)] = 1
    return counts


def spread(protocol, compiled):
    """``n`` agents spread over the states, one per state while they last."""
    counts = np.zeros(compiled.num_states, dtype=np.int64)
    for agent in range(protocol.n):
        counts[agent % compiled.num_states] += 1
    return counts


#: ``id -> (protocol factory, state class, field, stop kind, counts, arrays)``.
CASES = {
    "optimal-silent": (
        lambda: OptimalSilentSSR(4, rmax_multiplier=1.0, dmax_factor=2.0, emax_factor=2.0),
        OptimalSilentState, "role", "correct", settled_ranking, 2,
    ),
    "reset-wave": (
        lambda: ResetWaveProtocol(1_000), ResetWaveState, "role", "correct", spread, 1,
    ),
    "fratricide": (
        lambda: FratricideLeaderElection(6), FratricideState, "leader", "correct", spread, 1,
    ),
    "roll-call": (
        lambda: RollCallProtocol(4), RollCallState, "roster", "correct", spread, 1,
    ),
    "synthetic-coin": (
        lambda: SyntheticCoinProtocol(8, bits_needed=2),
        SyntheticCoinState, "done", "correct", spread, 1,
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_stop_checks_build_each_state_array_once(case, monkeypatch):
    make, state_class, field, kind, make_counts, arrays = CASES[case]
    protocol, twin_protocol = make(), make()
    compiled = ProtocolCompiler().compile(protocol)
    twin = ProtocolCompiler().compile(twin_protocol)  # a memo hit, bound to the twin
    assert twin is not compiled and twin.states is compiled.states
    counts = make_counts(protocol, compiled)
    decoded = compiled.decode_configuration(np.repeat(np.arange(len(counts)), counts))
    expected = protocol.is_correct(decoded)
    _, on_table = resolve_stop(protocol, compiled, kind)
    _, on_twin = resolve_stop(twin_protocol, twin, kind)

    counter = CountingField(state_class, field)
    monkeypatch.setattr(state_class, field, counter, raising=False)
    for _ in range(CHECKS):
        assert on_table(counts) == expected
        assert on_twin(counts) == expected
    assert counter.reads == arrays * compiled.num_states


def test_state_array_is_read_only_and_keyed():
    compiled = ProtocolCompiler().compile(ResetWaveProtocol(1_000))
    mask = compiled.state_array("resetting", lambda state: state.role == RESETTING)
    assert mask.tolist() == [state.role == RESETTING for state in compiled.states]
    assert compiled.state_array("resetting", lambda state: True) is mask
    with pytest.raises(ValueError, match="read-only"):
        mask[0] = False
