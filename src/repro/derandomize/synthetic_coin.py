"""The time-multiplexed synthetic coin (Section 6).

Each agent toggles between the roles ``Alg`` and ``Flip`` on every interaction.
An agent that needs a random bit waits until it is in role ``Alg`` while its
partner is in role ``Flip``; the bit is 1 if the agent was the interaction's
initiator and 0 if it was the responder.  Because the scheduler picks the
ordered pair uniformly at random and the roles are determined by interaction
parity (independent of the partner's identity and of previous harvested bits),
the harvested bits are independent and unbiased.  Each agent harvests a bit
once every 4 interactions in expectation, so collecting ``k`` bits costs
``O(k)`` interactions per agent -- the constant-factor slowdown quoted in
Section 6.

The demonstration protocol below has every agent collect ``bits_needed`` bits;
tests verify unbiasedness and the expected harvesting rate, which is what the
paper's protocols rely on when dormant agents regenerate their random names.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.engine.configuration import Configuration
from repro.engine.protocol import PopulationProtocol
from repro.engine.state import AgentState

#: Role in which an agent may harvest a random bit.
ALG = "Alg"
#: Role in which an agent serves as the coin for its partner.
FLIP = "Flip"


def expected_interactions_per_bit() -> float:
    """Expected number of an agent's interactions per harvested bit (= 4).

    The agent must be in role ``Alg`` (probability 1/2 by parity) and its
    partner in role ``Flip`` (probability ~1/2, independent), so a bit is
    harvested in roughly one out of four of its interactions.
    """
    return 4.0


class SyntheticCoinState(AgentState):
    """State of an agent collecting synthetic-coin bits."""

    def __init__(self, coin_role: str = ALG, bits: str = "", bits_needed: int = 0):
        self.coin_role = coin_role
        self.bits = bits
        self.bits_needed = bits_needed
        # Bookkeeping (excluded from the signature): interactions participated in.
        self._interactions = 0

    @property
    def done(self) -> bool:
        """``True`` once the agent has harvested all the bits it needs."""
        return len(self.bits) >= self.bits_needed

    @property
    def interactions(self) -> int:
        """Number of interactions this agent has participated in."""
        return self._interactions


class SyntheticCoinProtocol(PopulationProtocol):
    """Every agent harvests ``bits_needed`` unbiased bits from the scheduler."""

    name = "synthetic-coin"

    def __init__(self, n: int, bits_needed: int = 8):
        super().__init__(n)
        if bits_needed < 0:
            raise ValueError(f"bits_needed must be non-negative, got {bits_needed}")
        self.bits_needed = bits_needed

    def initial_state(self, agent_id: int, rng: np.random.Generator) -> SyntheticCoinState:
        # Half the population starts in each role so the very first interactions
        # already mix roles; the exact split does not affect unbiasedness.
        role = ALG if agent_id % 2 == 0 else FLIP
        return SyntheticCoinState(coin_role=role, bits_needed=self.bits_needed)

    def random_state(self, rng: np.random.Generator) -> SyntheticCoinState:
        state = SyntheticCoinState(
            coin_role=ALG if rng.integers(0, 2) else FLIP, bits_needed=self.bits_needed
        )
        harvested = int(rng.integers(0, self.bits_needed + 1))
        state.bits = "".join("1" if rng.integers(0, 2) else "0" for _ in range(harvested))
        return state

    def transition(
        self,
        initiator: SyntheticCoinState,
        responder: SyntheticCoinState,
        rng: np.random.Generator,
    ) -> None:
        # Harvest bits based on the roles *before* this interaction's toggle.
        if initiator.coin_role == ALG and responder.coin_role == FLIP and not initiator.done:
            initiator.bits += "1"  # the harvesting agent was the initiator: heads
        if responder.coin_role == ALG and initiator.coin_role == FLIP and not responder.done:
            responder.bits += "0"  # the harvesting agent was the responder: tails
        for agent in (initiator, responder):
            agent.coin_role = FLIP if agent.coin_role == ALG else ALG
            agent._interactions += 1

    def is_correct(self, configuration: Configuration) -> bool:
        return all(state.done for state in configuration)

    def harvested_bits(self, configuration: Configuration) -> List[str]:
        """All bits harvested so far, one string per agent."""
        return [state.bits for state in configuration]

    def theoretical_state_count(self) -> int:
        return 2 * sum(2**k for k in range(self.bits_needed + 1))

    # -- compiled-engine support ---------------------------------------------------

    def enumerate_states(self):
        """Every (role, harvested-bit-string) combination.

        The space has ``2 * (2^(bits_needed+1) - 1)`` states, so only small
        ``bits_needed`` values compile within the default ``max_states`` cap
        (the tables are quadratic in the state count).  The per-agent
        ``interactions`` bookkeeping counter is excluded from signatures and
        is not tracked by the compiled engine.
        """
        states = []
        for role in (ALG, FLIP):
            for harvested in range(self.bits_needed + 1):
                for pattern in range(2**harvested):
                    bits = format(pattern, f"0{harvested}b") if harvested else ""
                    state = SyntheticCoinState(
                        coin_role=role, bits=bits, bits_needed=self.bits_needed
                    )
                    states.append(state)
        return states

    def compiled_predicates(self):
        def all_done(counts, compiled):
            undone = compiled.state_array("undone", lambda state: not state.done)
            return int(counts[undone].sum()) == 0

        return {"correct": all_done, "stabilized": all_done}


__all__ = [
    "ALG",
    "FLIP",
    "SyntheticCoinProtocol",
    "SyntheticCoinState",
    "expected_interactions_per_bit",
]
