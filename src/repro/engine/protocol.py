"""Abstract base class for population protocols.

A protocol specifies, for a fixed population size ``n`` (the paper proves SSLE
protocols must be strongly nonuniform, i.e. hardcode ``n``):

* the *clean* initial state of each agent,
* the transition applied when an ordered pair (initiator, responder) interacts,
* the correctness predicate of a configuration (e.g. "unique ranks"),
* optionally: a stabilization predicate, a silence test, and an adversarial
  state sampler used to generate arbitrary initial configurations for
  self-stabilization experiments.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.configuration import Configuration
from repro.engine.rng import make_rng
from repro.engine.state import AgentState


class PopulationProtocol(abc.ABC):
    """Base class for all protocols in the library."""

    #: Human-readable protocol name (used in reports and benchmarks).
    name: str = "population-protocol"

    #: ``True`` when ``transition(b, a)`` always gives the outcome of
    #: ``transition(a, b)`` with the two agents swapped.  The compiler then
    #: probes each unordered state pair once and mirrors the other entry.  It
    #: reads the declaration from the class that defines ``transition()``, so
    #: a subclass that overrides ``transition()`` must re-declare it.
    #: Randomized protocols that declare :meth:`transition_branches` cannot
    #: declare it.
    symmetric_transition: bool = False

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"population size must be at least 2, got {n}")
        self._n = int(n)

    @property
    def n(self) -> int:
        """Population size (number of agents)."""
        return self._n

    # -- configuration construction --------------------------------------------

    @abc.abstractmethod
    def initial_state(self, agent_id: int, rng: np.random.Generator) -> AgentState:
        """Return the clean initial state of agent ``agent_id``."""

    def initial_configuration(self, rng: Optional[np.random.Generator] = None) -> Configuration:
        """Return the clean initial configuration (all agents in their initial state)."""
        rng = make_rng(rng)
        return Configuration([self.initial_state(i, rng) for i in range(self.n)])

    def random_state(self, rng: np.random.Generator) -> AgentState:
        """Return an arbitrary (adversarially choosable) state.

        Used to build arbitrary initial configurations for self-stabilization
        experiments.  Protocols that support adversarial starts override this.
        """
        raise NotImplementedError(f"{self.name} does not define adversarial states")

    def random_configuration(self, rng: Optional[np.random.Generator] = None) -> Configuration:
        """Return a configuration of independently sampled adversarial states."""
        rng = make_rng(rng)
        return Configuration([self.random_state(rng) for _ in range(self.n)])

    # -- dynamics ----------------------------------------------------------------

    @abc.abstractmethod
    def transition(
        self,
        initiator: AgentState,
        responder: AgentState,
        rng: np.random.Generator,
    ) -> None:
        """Apply one interaction, mutating the two states in place.

        The scheduler passes the *initiator* first and the *responder* second,
        matching the asymmetric interactions the paper allows.
        """

    # -- predicates ----------------------------------------------------------------

    @abc.abstractmethod
    def is_correct(self, configuration: Configuration) -> bool:
        """Return ``True`` if ``configuration`` is correct for the task."""

    def has_stabilized(self, configuration: Configuration) -> bool:
        """Return ``True`` if ``configuration`` is *stably* correct.

        The default conservatively requires correctness only; protocols where
        correctness does not imply stability (e.g. protocols that can destroy a
        correct configuration) override this with a protocol-specific check.
        """
        return self.is_correct(configuration)

    def is_silent(self, configuration: Configuration) -> bool:
        """Return ``True`` if no applicable transition changes the configuration.

        The default checks every ordered pair of *distinct state values*
        present in the configuration by applying the transition to clones and
        comparing signatures.  This is exact for deterministic transitions and
        adequate for the silent protocols in this library; probabilistic
        protocols should override it.
        """
        distinct = {}
        for state in configuration:
            distinct.setdefault(self.state_signature(state), state)
        representatives = list(distinct.values())
        probe_rng = make_rng(0)
        for left in representatives:
            for right in representatives:
                if left is right:
                    # Need two agents in that state for a self-interaction.
                    count = sum(
                        1
                        for state in configuration
                        if self.state_signature(state) == self.state_signature(left)
                    )
                    if count < 2:
                        continue
                a, b = left.clone(), right.clone()
                self.transition(a, b, probe_rng)
                if (
                    self.state_signature(a) != self.state_signature(left)
                    or self.state_signature(b) != self.state_signature(right)
                ):
                    return False
        return True

    # -- compiled-engine hooks -----------------------------------------------------

    def enumerate_states(self) -> Optional[Sequence[AgentState]]:
        """Seed states for the compiled engine's state-space enumeration.

        Return a finite list of states whose closure under the transition
        relation is the protocol's reachable state space (the compiler closes
        the set breadth-first, so returning seeds that only *generate* the
        space is fine, as is over-approximating with unreachable-but-valid
        states).  Return ``None`` (the default) when the state space is not
        enumerable -- the protocol then only runs on the per-interaction loop
        engine.  See :mod:`repro.engine.compiled`.
        """
        return None

    def transition_branches(
        self, initiator: AgentState, responder: AgentState
    ) -> Optional[List[Tuple[float, AgentState, AgentState]]]:
        """Explicit randomized branches for the compiled engine.

        Randomized protocols return ``[(probability, initiator', responder'),
        ...]`` with probabilities summing to 1; the compiler stores them in
        the table's branch-probability channel.  The arguments are throwaway
        clones -- implementations may mutate and return them.  Return ``None``
        (the default) when ``transition()`` is deterministic; the compiler
        then derives the single branch by probing.
        """
        return None

    def compiled_factors(self) -> Optional[Sequence["PopulationProtocol"]]:
        """Component protocols whose compiled tables compose to this protocol's.

        Product-structured protocols (every agent carries one sub-state per
        component, every interaction applies each component's transition to
        its layer independently) return their component protocols here; the
        compiler then compiles each component separately and combines the
        resulting tables with the product construction -- state space
        ``S = prod(S_k)``, branch probabilities multiplied across layers --
        instead of re-deriving every composed transition by probing, which
        would cost ``O(S^2)`` Python calls.  Implementations must also
        override :meth:`compose_state` so the compiler can materialize
        exemplar product states.  Raise
        :class:`~repro.engine.compiled.CompilationError` to reject
        compilation with a protocol-specific message (e.g. when a coupling
        between the layers breaks the product structure).  Return ``None``
        (the default) for protocols that are not products.
        """
        return None

    def compose_state(self, factor_states: Sequence[AgentState]) -> AgentState:
        """Build this protocol's product state from one state per factor.

        Only meaningful together with :meth:`compiled_factors`; receives
        freshly cloned component states (one per factor, in the same order)
        and returns the combined :class:`AgentState`.
        """
        raise NotImplementedError(
            f"{self.name} declares no compiled factors, so it cannot compose states"
        )

    def compiled_predicates(
        self,
    ) -> Dict[str, Callable[[np.ndarray, object], bool]]:
        """Fast stop-condition predicates on the compiled state-count vector.

        Return a dict mapping any of ``"correct"``, ``"stabilized"``,
        ``"silent"`` to callables ``(counts, compiled) -> bool`` where
        ``counts`` is the length-``S`` state histogram and ``compiled`` the
        :class:`~repro.engine.compiled.CompiledProtocol`.  Without an entry
        the batch engine decodes the configuration and calls the regular
        predicate -- correct but ``O(n)`` per check, so protocols meant for
        million-agent runs should provide the counts form.
        """
        return {}

    # -- state accounting ----------------------------------------------------------

    def state_signature(self, state: AgentState) -> Hashable:
        """Hashable canonical encoding of ``state`` (for counting distinct states)."""
        return state.signature()

    def theoretical_state_count(self) -> Optional[int]:
        """Number of states the protocol uses, if known in closed form."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


__all__ = ["PopulationProtocol"]
