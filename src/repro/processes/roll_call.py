"""The roll-call process (Lemma 2.9).

Every agent starts with a roster containing only its own unique ID and rosters
merge by union whenever two agents interact.  ``R_n``, the number of
interactions until every roster contains all ``n`` IDs, satisfies
``E[R_n] ~ 1.5 n ln n`` and ``P[R_n > 3 n ln n] < 1/n``.

This process is exactly how ``Sublinear-Time-SSR`` propagates the set of
names, so its constants show up directly in that protocol's running time.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engine.configuration import Configuration
from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import RngLike, make_rng
from repro.engine.state import AgentState


class RollCallState(AgentState):
    """State of an agent in the roll-call process: its ID and known roster."""

    def __init__(self, agent_id: int, roster: Optional[frozenset] = None):
        self.agent_id = agent_id
        self.roster = roster if roster is not None else frozenset({agent_id})

    def signature(self):
        return (self.agent_id, self.roster)

    def clone(self) -> "RollCallState":
        # The roster is an immutable frozenset, so a shallow copy is exact.
        return RollCallState(self.agent_id, self.roster)


class RollCallProtocol(PopulationProtocol):
    """Agent-level roll call: ``a.roster, b.roster <- a.roster | b.roster``."""

    name = "roll-call"

    def initial_state(self, agent_id: int, rng: np.random.Generator) -> RollCallState:
        return RollCallState(agent_id)

    def transition(
        self, initiator: RollCallState, responder: RollCallState, rng: np.random.Generator
    ) -> None:
        merged = initiator.roster | responder.roster
        initiator.roster = merged
        responder.roster = merged

    def is_correct(self, configuration: Configuration) -> bool:
        return all(len(state.roster) == self.n for state in configuration)

    def minimum_roster_size(self, configuration: Configuration) -> int:
        """Smallest roster size in ``configuration`` (n means complete)."""
        return min(len(state.roster) for state in configuration)

    # -- compiled-engine support ---------------------------------------------------

    def enumerate_states(self):
        """Seed states: each agent knowing only itself.

        The compiler closes the set under roster union, reaching all
        ``n * 2^(n-1)`` states ``(id, roster containing id)``, so compiling
        roll call is only feasible for small ``n`` (the compiler's
        ``max_states`` cap guards larger populations).
        """
        return [RollCallState(agent_id) for agent_id in range(self.n)]

    def compiled_predicates(self):
        def all_rosters_full(counts, compiled):
            incomplete = compiled.state_array(
                "roster incomplete", lambda state: len(state.roster) < self.n
            )
            return int(counts[incomplete].sum()) == 0

        return {"correct": all_rosters_full}


def simulate_roll_call_interactions(n: int, rng: RngLike = None) -> int:
    """Sample ``R_n``: interactions until every roster contains all ``n`` IDs.

    The rosters are represented as bitmask integers so each interaction is a
    couple of integer ORs; unlike the plain epidemic there is no useful
    jump-chain shortcut because the ``n`` parallel epidemics are correlated.
    """
    if n < 1:
        raise ValueError(f"population size must be positive, got {n}")
    if n == 1:
        return 0
    rng = make_rng(rng)
    full = (1 << n) - 1
    rosters = [1 << i for i in range(n)]
    incomplete = n
    interactions = 0
    batch = max(256, 4 * n)
    while incomplete:
        initiators = rng.integers(0, n, size=batch)
        responders = rng.integers(0, n - 1, size=batch)
        responders = responders + (responders >= initiators)
        for i, j in zip(initiators.tolist(), responders.tolist()):
            interactions += 1
            merged = rosters[i] | rosters[j]
            if merged == full:
                if rosters[i] != full:
                    incomplete -= 1
                if rosters[j] != full:
                    incomplete -= 1
                rosters[i] = full
                rosters[j] = full
                if incomplete == 0:
                    return interactions
            else:
                rosters[i] = merged
                rosters[j] = merged
    return interactions


__all__ = ["RollCallProtocol", "RollCallState", "simulate_roll_call_interactions"]
