"""Symmetric protocols are probed once per unordered state pair.

A protocol that declares ``symmetric_transition`` promises that
``transition(b, a)`` gives the outcome of ``transition(a, b)`` with the two
agents swapped.  The compiler then probes only pairs ``(i, j)`` with
``j >= i`` and fills entry ``(j, i)`` by swapping the outcome of ``(i, j)``.
The tables and the interning order must be exactly those of the full probe
loop, which these tests check by digest with the declaration masked.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core.propagate_reset import ResetWaveProtocol
from repro.engine.compiled import CompilationError, ProtocolCompiler, clear_compile_memo
from repro.engine.protocol import PopulationProtocol
from repro.engine.state import AgentState
from repro.processes.bounded_epidemic import BoundedEpidemicProtocol
from repro.processes.epidemic import EpidemicState, TwoWayEpidemicProtocol
from tests.engine.test_compile_pins import table_digest


class CountState(AgentState):
    def __init__(self, value: int):
        self.value = value

    def signature(self):
        return self.value

    def clone(self):
        return CountState(self.value)


class MirroredCounter(PopulationProtocol):
    """``transition(a, b) = (h(a, b), h(b, a))`` for a lopsided ``h``, which is
    symmetric by construction.  Closing from the one seed state ``0`` takes
    several rounds, and the mirror of a pair lands on states interned out of
    index order."""

    name = "mirrored-counter"
    symmetric_transition = True

    def __init__(self, n: int, modulus: int = 11):
        super().__init__(n)
        self.modulus = modulus

    def _h(self, a: int, b: int) -> int:
        return (3 * a + b + 1) % self.modulus

    def initial_state(self, agent_id, rng):
        return CountState(0)

    def transition(self, initiator, responder, rng):
        initiator.value, responder.value = (
            self._h(initiator.value, responder.value),
            self._h(responder.value, initiator.value),
        )

    def is_correct(self, configuration):
        return False

    def enumerate_states(self):
        return [CountState(0)]


class LeaderFollower(MirroredCounter):
    """Mis-declared: two agents in one state leave in two different states."""

    name = "leader-follower"
    symmetric_transition = True

    def transition(self, initiator, responder, rng):
        initiator.value, responder.value = 1, 0

    def enumerate_states(self):
        return [CountState(0), CountState(1)]


class BranchedAndSymmetric(MirroredCounter):
    name = "branched-and-symmetric"

    def transition_branches(self, initiator, responder):
        return [(1.0, initiator, responder)]


class OneWayEpidemic(TwoWayEpidemicProtocol):
    """Overrides ``transition()`` without re-declaring the flag: only the
    responder catches the infection, so the table is not symmetric."""

    def transition(self, initiator, responder, rng):
        if initiator.infected:
            responder.infected = True


class Probed:
    """Counts ``transition()`` calls of one protocol instance."""

    def __init__(self, protocol):
        self.calls = 0
        transition = protocol.transition

        def counted(initiator, responder, rng):
            self.calls += 1
            transition(initiator, responder, rng)

        protocol.transition = counted


def compile_fresh(protocol):
    clear_compile_memo()
    return ProtocolCompiler().compile(protocol)


#: Every protocol of the package that declares the flag, at sizes that
#: compile quickly; the n = 10^5 wave is the perfbench compile.
DECLARED = {
    "reset-wave-n1e3": lambda: ResetWaveProtocol(1_000),
    "reset-wave-n1e5": lambda: ResetWaveProtocol(100_000),
    "reset-wave-r3-d5": lambda: ResetWaveProtocol(50, rmax=3, dmax=5),
    "two-way-epidemic": lambda: TwoWayEpidemicProtocol(10),
    "bounded-epidemic": lambda: BoundedEpidemicProtocol(12, k=3),
    "mirrored-counter": lambda: MirroredCounter(10),
}


@pytest.mark.parametrize("case", sorted(DECLARED))
def test_declared_protocols_compile_to_the_full_probe_table(case):
    protocol = DECLARED[case]()
    cls = type(protocol)
    assert vars(cls)["symmetric_transition"] is True
    probed = Probed(protocol)
    symmetric = compile_fresh(protocol)
    symmetric_calls = probed.calls
    with mock.patch.object(cls, "symmetric_transition", False):
        masked = compile_fresh(protocol)
    clear_compile_memo()

    assert table_digest(symmetric) == table_digest(masked)
    states = symmetric.num_states
    # Two probe seeds per probed pair.
    assert symmetric_calls == 2 * states * (states + 1) // 2
    assert probed.calls - symmetric_calls == 2 * states * states
    square = (states, states)
    np.testing.assert_array_equal(
        symmetric.result_initiator.reshape(square),
        symmetric.result_responder.reshape(square).T,
    )


def test_mirrored_counter_needs_several_closure_rounds():
    protocol = MirroredCounter(10)
    compiled = compile_fresh(protocol)
    clear_compile_memo()
    order = [state.value for state in compiled.states]
    # Interned in closure order, not value order.
    assert sorted(order) == list(range(11))
    assert order[:5] == [0, 1, 2, 4, 5]


def test_diagonal_guard_rejects_a_misdeclared_protocol():
    with pytest.raises(CompilationError, match="leaves two different states"):
        compile_fresh(LeaderFollower(6))
    clear_compile_memo()


def test_symmetry_and_branches_together_are_rejected():
    with pytest.raises(CompilationError, match="both symmetric_transition and"):
        compile_fresh(BranchedAndSymmetric(6))
    clear_compile_memo()


def test_an_override_of_transition_must_redeclare_the_flag():
    compiled = compile_fresh(OneWayEpidemic(8))
    clear_compile_memo()
    susceptible = compiled.encode_state(EpidemicState(False))
    infected = compiled.encode_state(EpidemicState(True))
    states = compiled.num_states
    responder = compiled.result_responder.reshape(states, states)
    initiator = compiled.result_initiator.reshape(states, states)
    assert responder[infected, susceptible] == infected
    assert initiator[susceptible, infected] == susceptible
