"""Protocol 2: the ``Propagate-Reset`` subprotocol.

``Propagate-Reset`` gives agents a way to restart the whole population after
some agent detects an error (e.g. a rank or name collision).  An agent that
detects an error becomes *triggered* (``resetcount = R_max``); the positive
``resetcount`` then spreads by epidemic while decrementing
(``max(a - 1, b - 1, 0)``), pushing every agent into the Resetting role.
Agents whose ``resetcount`` reaches 0 become *dormant* and count a
``delaytimer`` down from ``D_max``; the delay lets the entire population go
dormant before anyone wakes up, so each agent resets exactly once per wave.
The first agent whose timer expires executes the host protocol's ``Reset``
(the *awakening* configuration), and awakening then spreads by epidemic:
a computing agent immediately wakes any dormant agent it meets.

The host protocol supplies two callbacks:

* ``enter_resetting`` -- initialize the host's Resetting-role fields when an
  agent enters the role (e.g. ``Optimal-Silent-SSR`` sets ``leader = L`` so
  the dormant phase can run its slow fratricide leader election).
* ``reset`` -- the host's ``Reset`` subroutine (Protocol 4 or 6), which moves
  the agent back to a computing role.

Crucially, agents retain no memory of having reset: nothing prevents a later
wave, which is what makes the mechanism usable from adversarial states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.engine.configuration import Configuration
from repro.engine.protocol import PopulationProtocol
from repro.engine.state import AgentState

#: Role label used by every protocol that embeds ``Propagate-Reset``.
RESETTING = "Resetting"

#: Role label for agents executing the (trivial) host protocol of
#: :class:`ResetWaveProtocol`.
COMPUTING = "Computing"

StateCallback = Callable[[AgentState, np.random.Generator], None]


@dataclass
class ResettingFields:
    """Documentation holder for the fields ``Propagate-Reset`` relies on.

    Host state classes are expected to expose:

    * ``role`` -- equals :data:`RESETTING` while the agent is resetting,
    * ``resetcount`` -- integer in ``{0, ..., R_max}`` (only meaningful while
      resetting; ``R_max`` = triggered, positive = propagating, 0 = dormant),
    * ``delaytimer`` -- integer in ``{0, ..., D_max}`` (only meaningful while
      dormant).
    """

    role: str
    resetcount: int
    delaytimer: int


def default_rmax(n: int, multiplier: float = 60.0) -> int:
    """The paper's choice ``R_max = 60 ln n`` (rounded up, at least 1)."""
    if n < 2:
        raise ValueError(f"population size must be at least 2, got {n}")
    return max(1, math.ceil(multiplier * math.log(n)))


class PropagateReset:
    """Executable form of Protocol 2, shared by both of the paper's protocols."""

    def __init__(
        self,
        rmax: int,
        dmax: int,
        reset: StateCallback,
        enter_resetting: Optional[StateCallback] = None,
    ):
        if rmax < 1:
            raise ValueError(f"R_max must be positive, got {rmax}")
        if dmax < 1:
            raise ValueError(f"D_max must be positive, got {dmax}")
        self.rmax = rmax
        self.dmax = dmax
        self._reset = reset
        self._enter_resetting = enter_resetting

    # -- per-agent classification (terminology of Section 3) -----------------------

    @staticmethod
    def is_resetting(state: AgentState) -> bool:
        """``True`` iff the agent is in the Resetting role."""
        return getattr(state, "role", None) == RESETTING

    @staticmethod
    def is_computing(state: AgentState) -> bool:
        """``True`` iff the agent is executing the outside protocol."""
        return getattr(state, "role", None) != RESETTING

    def is_triggered(self, state: AgentState) -> bool:
        """``True`` iff the agent has just detected an error (``resetcount = R_max``)."""
        return self.is_resetting(state) and state.resetcount >= self.rmax

    @staticmethod
    def is_propagating(state: AgentState) -> bool:
        """``True`` iff the agent is spreading the reset (``resetcount > 0``)."""
        return PropagateReset.is_resetting(state) and state.resetcount > 0

    @staticmethod
    def is_dormant(state: AgentState) -> bool:
        """``True`` iff the agent is waiting out the delay (``resetcount = 0``)."""
        return PropagateReset.is_resetting(state) and state.resetcount == 0

    # -- entering the role ----------------------------------------------------------

    def enter(self, state: AgentState, rng: np.random.Generator, triggered: bool) -> None:
        """Put ``state`` into the Resetting role.

        ``triggered=True`` corresponds to an agent that just detected an error
        (``resetcount = R_max``); ``triggered=False`` to an agent recruited by
        a propagating neighbour (dormant with a fresh delay timer).
        """
        state.role = RESETTING
        if self._enter_resetting is not None:
            self._enter_resetting(state, rng)
        state.resetcount = self.rmax if triggered else 0
        state.delaytimer = self.dmax

    def trigger(self, state: AgentState, rng: np.random.Generator) -> None:
        """Shorthand for :meth:`enter` with ``triggered=True``."""
        self.enter(state, rng, triggered=True)

    # -- the interaction rule (Protocol 2) -------------------------------------------

    def interact(self, a: AgentState, b: AgentState, rng: np.random.Generator) -> None:
        """Apply ``Propagate-Reset`` to an interacting pair.

        At least one of ``a``, ``b`` must be in the Resetting role; the rule is
        symmetric in the two agents.
        """
        if not (self.is_resetting(a) or self.is_resetting(b)):
            raise ValueError("Propagate-Reset requires at least one Resetting agent")

        just_became_dormant = set()

        # Lines 1-2: a propagating agent recruits a computing partner.
        for agent, partner in ((a, b), (b, a)):
            if (
                self.is_resetting(agent)
                and agent.resetcount > 0
                and self.is_computing(partner)
            ):
                self.enter(partner, rng, triggered=False)
                just_became_dormant.add(id(partner))

        # Lines 3-4: both Resetting -> the resetcount fields propagate downward.
        if self.is_resetting(a) and self.is_resetting(b):
            new_value = max(a.resetcount - 1, b.resetcount - 1, 0)
            for agent in (a, b):
                if agent.resetcount > 0 and new_value == 0:
                    just_became_dormant.add(id(agent))
                agent.resetcount = new_value

        # Lines 5-11: dormant agents handle delay timers and possibly awaken.
        # The awaken-by-epidemic condition looks at whether the partner was
        # computing *before* any Reset executed in this interaction, so a
        # single interaction wakes at most the agents whose own condition
        # holds (no cascade within one interaction).
        partner_was_resetting = {id(a): self.is_resetting(b), id(b): self.is_resetting(a)}
        for agent, partner in ((a, b), (b, a)):
            if not self.is_dormant(agent):
                continue
            if id(agent) in just_became_dormant:
                agent.delaytimer = self.dmax
            else:
                agent.delaytimer = max(agent.delaytimer - 1, 0)
            if agent.delaytimer == 0 or not partner_was_resetting[id(agent)]:
                self._reset(agent, rng)

    # -- configuration-level classification (used in proofs, tests, experiments) -----

    def fully_computing(self, configuration: Configuration) -> bool:
        """All agents are executing the outside protocol."""
        return all(self.is_computing(state) for state in configuration)

    def fully_dormant(self, configuration: Configuration) -> bool:
        """All agents are dormant."""
        return all(self.is_dormant(state) for state in configuration)

    def fully_propagating(self, configuration: Configuration) -> bool:
        """All agents are propagating (or triggered)."""
        return all(self.is_propagating(state) for state in configuration)

    def partially_triggered(self, configuration: Configuration) -> bool:
        """Some agent is triggered."""
        return any(self.is_triggered(state) for state in configuration)

    def partially_computing(self, configuration: Configuration) -> bool:
        """Some agent is computing."""
        return any(self.is_computing(state) for state in configuration)


# -- Propagate-Reset as a standalone protocol ---------------------------------------


class ResetWaveState(AgentState):
    """State of an agent in :class:`ResetWaveProtocol`.

    Computing agents carry no further fields; resetting agents carry the
    ``resetcount`` / ``delaytimer`` counters of Protocol 2.  The signature
    normalizes stale counter values on computing agents so the state space is
    exactly ``1 + (R_max + 1) * (D_max + 1)`` states.
    """

    def __init__(self, role: str = COMPUTING, resetcount: int = 0, delaytimer: int = 0):
        self.role = role
        self.resetcount = int(resetcount)
        self.delaytimer = int(delaytimer)

    def signature(self):
        if self.role != RESETTING:
            return (COMPUTING,)
        return (RESETTING, self.resetcount, self.delaytimer)

    def clone(self) -> "ResetWaveState":
        return ResetWaveState(self.role, self.resetcount, self.delaytimer)


class ResetWaveProtocol(PopulationProtocol):
    """Protocol 2 run standalone: a reset wave over a trivial host protocol.

    The host ``Reset`` simply returns the agent to the Computing role and
    nothing ever (re-)triggers an error, so from any initial configuration the
    wave propagates, the population goes dormant, and an awakening epidemic
    returns everyone to Computing -- after which the configuration is stable.
    This isolates the ``Propagate-Reset`` dynamics of Section 3 for
    experiments and benchmarks, and its small state space (``R_max * D_max``
    scale, independent of ``n``) makes it the paper-faithful workload for the
    compiled batch engine at millions of agents.
    """

    name = "reset-wave"
    symmetric_transition = True

    def __init__(self, n: int, rmax: Optional[int] = None, dmax: Optional[int] = None):
        super().__init__(n)
        default = max(1, math.ceil(math.log(n)))
        self.rmax = int(rmax) if rmax is not None else default
        self.dmax = int(dmax) if dmax is not None else default
        self.machinery = PropagateReset(self.rmax, self.dmax, reset=self._reset)

    @staticmethod
    def _reset(state: AgentState, rng: np.random.Generator) -> None:
        state.role = COMPUTING
        state.resetcount = 0
        state.delaytimer = 0

    # -- configurations ------------------------------------------------------------

    def initial_state(self, agent_id: int, rng: np.random.Generator) -> ResetWaveState:
        return ResetWaveState()

    def random_state(self, rng: np.random.Generator) -> ResetWaveState:
        if rng.random() < 0.5:
            return ResetWaveState()
        return ResetWaveState(
            RESETTING,
            resetcount=int(rng.integers(0, self.rmax + 1)),
            delaytimer=int(rng.integers(0, self.dmax + 1)),
        )

    def triggered_state(self) -> ResetWaveState:
        """A freshly triggered agent (``resetcount = R_max``)."""
        return ResetWaveState(RESETTING, resetcount=self.rmax, delaytimer=self.dmax)

    def triggered_configuration(self) -> Configuration:
        """Every agent triggered at once: the start of a maximal wave."""
        return Configuration([self.triggered_state() for _ in range(self.n)])

    # -- dynamics ------------------------------------------------------------------

    def transition(
        self,
        initiator: ResetWaveState,
        responder: ResetWaveState,
        rng: np.random.Generator,
    ) -> None:
        if self.machinery.is_computing(initiator) and self.machinery.is_computing(responder):
            return
        self.machinery.interact(initiator, responder, rng)

    # -- predicates ----------------------------------------------------------------

    def is_correct(self, configuration: Configuration) -> bool:
        return self.machinery.fully_computing(configuration)

    def has_stabilized(self, configuration: Configuration) -> bool:
        # With no error detection a fully computing configuration is inert.
        return self.is_correct(configuration)

    def is_silent(self, configuration: Configuration) -> bool:
        return self.is_correct(configuration)

    def theoretical_state_count(self) -> int:
        return 1 + (self.rmax + 1) * (self.dmax + 1)

    # -- compiled-engine support ---------------------------------------------------

    def enumerate_states(self):
        """The full declared space: Computing plus every counter combination."""
        states = [ResetWaveState()]
        for resetcount in range(self.rmax + 1):
            for delaytimer in range(self.dmax + 1):
                states.append(ResetWaveState(RESETTING, resetcount, delaytimer))
        return states

    def compiled_predicates(self):
        def fully_computing(counts, compiled):
            resetting = compiled.state_array("resetting", lambda state: state.role == RESETTING)
            return int(counts[resetting].sum()) == 0

        return {
            "correct": fully_computing,
            "stabilized": fully_computing,
            "silent": fully_computing,
        }


__all__ = [
    "COMPUTING",
    "PropagateReset",
    "RESETTING",
    "ResetWaveProtocol",
    "ResetWaveState",
    "ResettingFields",
    "default_rmax",
]
