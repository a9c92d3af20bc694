"""The classic initialized leader election ``L, L -> L, F``.

From the all-leaders configuration, whenever two leaders meet the responder
becomes a follower; a unique leader remains after ``~ n`` parallel time.  The
protocol is *not* self-stabilizing: from a configuration with zero leaders it
can never create one.  It appears in the paper both as the motivating example
of why self-stabilization is hard (Section 1) and as the slow leader election
run during the dormant phase of ``Optimal-Silent-SSR`` (Lemma 4.2).
"""

from __future__ import annotations

import numpy as np

from repro.engine.configuration import Configuration
from repro.engine.protocol import PopulationProtocol
from repro.engine.state import AgentState


class FratricideState(AgentState):
    """State of an agent: a single ``leader`` bit."""

    def __init__(self, leader: bool = True):
        self.leader = bool(leader)

    def signature(self):
        return self.leader


class FratricideLeaderElection(PopulationProtocol):
    """One-bit initialized leader election (``L, L -> L, F``)."""

    name = "fratricide-leader-election"

    def initial_state(self, agent_id: int, rng: np.random.Generator) -> FratricideState:
        return FratricideState(leader=True)

    def random_state(self, rng: np.random.Generator) -> FratricideState:
        return FratricideState(leader=bool(rng.integers(0, 2)))

    def transition(
        self, initiator: FratricideState, responder: FratricideState, rng: np.random.Generator
    ) -> None:
        if initiator.leader and responder.leader:
            responder.leader = False

    def is_correct(self, configuration: Configuration) -> bool:
        return configuration.count_where(lambda state: state.leader) == 1

    def has_stabilized(self, configuration: Configuration) -> bool:
        # With at most one leader the configuration can never change again.
        return self.is_correct(configuration)

    def leader_count(self, configuration: Configuration) -> int:
        """Number of agents currently marked as leaders."""
        return configuration.count_where(lambda state: state.leader)

    def all_followers_configuration(self) -> Configuration:
        """The leaderless configuration from which the protocol can never recover.

        Used in tests and examples to demonstrate that the initialized
        protocol fails the self-stabilization requirement.
        """
        return Configuration([FratricideState(leader=False) for _ in range(self.n)])

    def theoretical_state_count(self) -> int:
        return 2

    # -- compiled-engine support ---------------------------------------------------

    def enumerate_states(self):
        """The full two-state space: leader and follower."""
        return [FratricideState(leader=True), FratricideState(leader=False)]

    def compiled_predicates(self):
        def unique_leader(counts, compiled):
            leaders = compiled.state_array("leader", lambda state: state.leader)
            return int(counts[leaders].sum()) == 1

        # A unique leader can never be destroyed (L, F pairs are null), so
        # correctness and stabilization coincide.
        return {"correct": unique_leader, "stabilized": unique_leader}


__all__ = ["FratricideLeaderElection", "FratricideState"]
