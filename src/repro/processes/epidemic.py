"""The two-way epidemic process (Lemma 2.7, Corollary 2.8).

Agents carry a boolean ``infected`` flag; when any two agents interact both
end up infected if either was.  Starting from a single infected agent, the
number of interactions ``T_n`` until everyone is infected satisfies
``E[T_n] = (n - 1) * H_{n-1} ~ n ln n`` and
``P[T_n > 3 n ln n] < 1 / n^2`` (Corollary 2.8).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.engine.configuration import Configuration
from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import RngLike, make_rng
from repro.engine.state import AgentState


class EpidemicState(AgentState):
    """State of an agent in the two-way epidemic: a single ``infected`` flag."""

    def __init__(self, infected: bool = False):
        self.infected = bool(infected)

    def clone(self) -> "EpidemicState":
        return EpidemicState(self.infected)


class TwoWayEpidemicProtocol(PopulationProtocol):
    """Agent-level two-way epidemic: ``a.infected, b.infected <- a or b``."""

    name = "two-way-epidemic"
    symmetric_transition = True

    def __init__(self, n: int, initially_infected: int = 1):
        super().__init__(n)
        if not 1 <= initially_infected <= n:
            raise ValueError(
                f"initially_infected must be in [1, {n}], got {initially_infected}"
            )
        self.initially_infected = initially_infected

    def initial_state(self, agent_id: int, rng: np.random.Generator) -> EpidemicState:
        return EpidemicState(infected=agent_id < self.initially_infected)

    def transition(
        self, initiator: EpidemicState, responder: EpidemicState, rng: np.random.Generator
    ) -> None:
        if initiator.infected or responder.infected:
            initiator.infected = True
            responder.infected = True

    def is_correct(self, configuration: Configuration) -> bool:
        return all(state.infected for state in configuration)

    def infected_count(self, configuration: Configuration) -> int:
        """Number of infected agents in ``configuration``."""
        return configuration.count_where(lambda state: state.infected)

    def theoretical_state_count(self) -> int:
        return 2

    # -- compiled-engine support ---------------------------------------------------

    def enumerate_states(self):
        """The full two-state space: susceptible and infected."""
        return [EpidemicState(False), EpidemicState(True)]

    def compiled_predicates(self):
        def all_infected(counts, compiled):
            susceptible = compiled.encode_state(EpidemicState(False))
            return int(counts[susceptible]) == 0

        return {"correct": all_infected}


def simulate_epidemic_interactions(
    n: int,
    rng: RngLike = None,
    initially_infected: int = 1,
) -> int:
    """Sample ``T_n``: interactions until the epidemic covers the population.

    Uses the exact jump-chain decomposition: while ``k`` agents are infected,
    the next infection happens after a Geometric number of interactions with
    success probability ``2 k (n - k) / (n (n - 1))`` (either ordering of an
    infected/uninfected pair spreads the infection).
    """
    if n < 1:
        raise ValueError(f"population size must be positive, got {n}")
    if not 1 <= initially_infected <= n:
        raise ValueError(f"initially_infected must be in [1, {n}], got {initially_infected}")
    rng = make_rng(rng)
    total_pairs = n * (n - 1)
    interactions = 0
    for k in range(initially_infected, n):
        success_probability = 2.0 * k * (n - k) / total_pairs
        interactions += int(rng.geometric(success_probability))
    return interactions


__all__ = ["EpidemicState", "TwoWayEpidemicProtocol", "simulate_epidemic_interactions"]
