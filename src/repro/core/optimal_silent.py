"""Protocols 3 + 4: ``Optimal-Silent-SSR``.

The paper's silent self-stabilizing ranking protocol with O(n) states and
Theta(n) expected parallel time (Theorem 4.3), optimal for silent protocols by
Observation 2.6.  The moving parts are:

* **error detection** -- two Settled agents with the same rank, or an
  Unsettled agent whose ``errorcount`` reaches 0, trigger a global reset;
* **``Propagate-Reset``** (Protocol 2) with ``D_max = Theta(n)``, whose long
  dormant phase hosts a slow fratricide leader election ``L, L -> L, F``
  (all agents enter the Resetting role as ``L``);
* **``Reset``** (Protocol 4) -- the surviving leader becomes Settled with
  rank 1, everyone else Unsettled;
* **binary-tree rank assignment** (Lemma 4.1, Figure 1) -- each Settled agent
  of rank ``r`` recruits up to two Unsettled agents into ranks ``2r`` and
  ``2r + 1`` (nodes of the full binary tree on ``{1, ..., n}``).

Pseudocode note: Protocol 3 line 9 states the child-slot condition as
``2 * i.rank + i.children < n``; a child rank of exactly ``n`` is a valid node
of the full binary tree, so this implementation uses ``<= n`` (with the strict
inequality the final rank could never be assigned and the protocol would reset
forever).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.problems import is_valid_ranking
from repro.core.propagate_reset import RESETTING, PropagateReset, default_rmax
from repro.engine.configuration import Configuration
from repro.engine.protocol import PopulationProtocol
from repro.engine.state import _ATOMIC_TYPES, AgentState

#: Role labels.
SETTLED = "Settled"
UNSETTLED = "Unsettled"

#: Leader-election markers used during the dormant phase.
LEADER = "L"
FOLLOWER = "F"


class OptimalSilentState(AgentState):
    """State of an ``Optimal-Silent-SSR`` agent.

    Only the fields of the current role are meaningful; the others are ``None``
    (the paper's "role" device for keeping the state count additive).
    """

    def __init__(
        self,
        role: str = UNSETTLED,
        rank: Optional[int] = None,
        children: Optional[int] = None,
        errorcount: Optional[int] = None,
        leader: Optional[str] = None,
        resetcount: Optional[int] = None,
        delaytimer: Optional[int] = None,
    ):
        self.role = role
        self.rank = rank
        self.children = children
        self.errorcount = errorcount
        self.leader = leader
        self.resetcount = resetcount
        self.delaytimer = delaytimer

    def signature(self):
        if self.role == SETTLED:
            return (SETTLED, self.rank, self.children)
        if self.role == UNSETTLED:
            return (UNSETTLED, self.errorcount)
        return (RESETTING, self.leader, self.resetcount, self.delaytimer)

    def clone(self) -> "OptimalSilentState":
        # The compiler clones both states of every probe.  Copying the field
        # dict is exact while every field is a scalar, which is all this class
        # assigns; a subclass or a container value takes the general copy.
        fields = self.__dict__
        if type(self) is OptimalSilentState and _ATOMIC_TYPES.issuperset(
            map(type, fields.values())
        ):
            twin = object.__new__(OptimalSilentState)
            twin.__dict__ = fields.copy()
            return twin
        return AgentState.clone(self)


class OptimalSilentSSR(PopulationProtocol):
    """The linear-time, linear-state, silent self-stabilizing ranking protocol."""

    name = "Optimal-Silent-SSR"

    def __init__(
        self,
        n: int,
        rmax_multiplier: float = 60.0,
        dmax_factor: float = 8.0,
        emax_factor: float = 20.0,
    ):
        """Create the protocol for population size ``n``.

        Parameters
        ----------
        rmax_multiplier:
            ``R_max = rmax_multiplier * ln n`` (paper value 60).
        dmax_factor:
            ``D_max = dmax_factor * n``; the dormant phase must be long enough
            for the slow leader election to finish with constant probability.
        emax_factor:
            ``E_max = emax_factor * n``; how long an Unsettled agent waits for
            a rank before declaring an error.
        """
        super().__init__(n)
        self.rmax = default_rmax(n, rmax_multiplier)
        self.dmax = max(1, math.ceil(dmax_factor * n))
        self.emax = max(1, math.ceil(emax_factor * n))
        self.reset_machinery = PropagateReset(
            rmax=self.rmax,
            dmax=self.dmax,
            reset=self._reset,
            enter_resetting=self._enter_resetting,
        )

    # -- role changes ---------------------------------------------------------------

    @staticmethod
    def _enter_resetting(state: OptimalSilentState, rng: np.random.Generator) -> None:
        """Initialize Resetting-role fields: every entering agent starts as ``L``."""
        state.rank = None
        state.children = None
        state.errorcount = None
        state.leader = LEADER

    def _reset(self, state: OptimalSilentState, rng: np.random.Generator) -> None:
        """Protocol 4: leaders become Settled with rank 1, followers Unsettled."""
        if state.leader == LEADER:
            state.role = SETTLED
            state.rank = 1
            state.children = 0
            state.errorcount = None
        else:
            state.role = UNSETTLED
            state.errorcount = self.emax
            state.rank = None
            state.children = None
        state.leader = None
        state.resetcount = None
        state.delaytimer = None

    def _trigger_both(
        self, a: OptimalSilentState, b: OptimalSilentState, rng: np.random.Generator
    ) -> None:
        """Lines 6-7 / 17-18: both agents become triggered Resetting leaders."""
        self.reset_machinery.trigger(a, rng)
        self.reset_machinery.trigger(b, rng)

    # -- configurations ---------------------------------------------------------------

    def initial_state(self, agent_id: int, rng: np.random.Generator) -> OptimalSilentState:
        """Clean start: all agents dormant leaders, as right after a reset wave.

        A self-stabilizing protocol has no distinguished initial state; this
        choice (every agent Resetting, dormant, marked ``L`` with a fresh delay
        timer) is the configuration a full reset produces and lets the default
        simulation exercise the leader election + ranking pipeline directly.
        """
        return OptimalSilentState(
            role=RESETTING, leader=LEADER, resetcount=0, delaytimer=self.dmax
        )

    def random_state(self, rng: np.random.Generator) -> OptimalSilentState:
        """Adversarial state: any role with any in-range field values."""
        role = (SETTLED, UNSETTLED, RESETTING)[int(rng.integers(0, 3))]
        if role == SETTLED:
            return OptimalSilentState(
                role=SETTLED,
                rank=int(rng.integers(1, self.n + 1)),
                children=int(rng.integers(0, 3)),
            )
        if role == UNSETTLED:
            return OptimalSilentState(
                role=UNSETTLED, errorcount=int(rng.integers(0, self.emax + 1))
            )
        return OptimalSilentState(
            role=RESETTING,
            leader=LEADER if rng.integers(0, 2) else FOLLOWER,
            resetcount=int(rng.integers(0, self.rmax + 1)),
            delaytimer=int(rng.integers(0, self.dmax + 1)),
        )

    def stable_configuration(self) -> Configuration:
        """The unique silent configuration: Settled agents with ranks 1..n."""
        states = []
        for rank in range(1, self.n + 1):
            children = sum(1 for child in (2 * rank, 2 * rank + 1) if child <= self.n)
            states.append(OptimalSilentState(role=SETTLED, rank=rank, children=children))
        return Configuration(states)

    def single_leader_awakening_configuration(self) -> Configuration:
        """One Settled rank-1 agent plus ``n - 1`` Unsettled agents.

        This is the configuration reached after a *successful* reset (a unique
        dormant leader awakened); the binary-tree rank assignment of Lemma 4.1
        starts here.
        """
        states = [OptimalSilentState(role=SETTLED, rank=1, children=0)]
        states.extend(
            OptimalSilentState(role=UNSETTLED, errorcount=self.emax) for _ in range(self.n - 1)
        )
        return Configuration(states)

    def duplicate_rank_configuration(self, rank: int = 1) -> Configuration:
        """All agents Settled, every one holding the same rank (worst collision)."""
        if not 1 <= rank <= self.n:
            raise ValueError(f"rank must be in [1, {self.n}], got {rank}")
        return Configuration(
            [OptimalSilentState(role=SETTLED, rank=rank, children=2) for _ in range(self.n)]
        )

    def all_dormant_configuration(self, leaders: Optional[int] = None) -> Configuration:
        """Every agent dormant (Resetting, ``resetcount = 0``) with fresh timers.

        ``leaders`` controls how many carry ``leader = L`` (default: all, the
        state right after a reset wave has swept the population).
        """
        if leaders is None:
            leaders = self.n
        if not 0 <= leaders <= self.n:
            raise ValueError(f"leaders must be in [0, {self.n}], got {leaders}")
        states = []
        for index in range(self.n):
            states.append(
                OptimalSilentState(
                    role=RESETTING,
                    leader=LEADER if index < leaders else FOLLOWER,
                    resetcount=0,
                    delaytimer=self.dmax,
                )
            )
        return Configuration(states)

    # -- the transition (Protocol 3) ----------------------------------------------------

    def transition(
        self,
        initiator: OptimalSilentState,
        responder: OptimalSilentState,
        rng: np.random.Generator,
    ) -> None:
        a, b = initiator, responder
        resetting = self.reset_machinery.is_resetting

        # Lines 1-4: resetting branch, plus the slow leader election L, L -> L, F.
        if resetting(a) or resetting(b):
            self.reset_machinery.interact(a, b, rng)
            if resetting(a) and resetting(b) and a.leader == LEADER and b.leader == LEADER:
                b.leader = FOLLOWER

        # Lines 5-7: rank collision between two Settled agents triggers a reset.
        if a.role == SETTLED and b.role == SETTLED and a.rank == b.rank:
            self._trigger_both(a, b, rng)

        # Lines 8-12: binary-tree rank assignment of Unsettled agents.
        for settled, unsettled in ((a, b), (b, a)):
            if (
                settled.role == SETTLED
                and unsettled.role == UNSETTLED
                and settled.children < 2
                and 2 * settled.rank + settled.children <= self.n
            ):
                unsettled.role = SETTLED
                unsettled.children = 0
                unsettled.rank = 2 * settled.rank + settled.children
                unsettled.errorcount = None
                settled.children += 1

        # Lines 13-18: Unsettled agents count down their error budget.
        for agent in (a, b):
            if agent.role == UNSETTLED:
                agent.errorcount = max(agent.errorcount - 1, 0)
                if agent.errorcount == 0:
                    self._trigger_both(a, b, rng)

    # -- predicates ------------------------------------------------------------------

    def is_correct(self, configuration: Configuration) -> bool:
        if any(state.role != SETTLED for state in configuration):
            return False
        return is_valid_ranking((state.rank for state in configuration), self.n)

    def has_stabilized(self, configuration: Configuration) -> bool:
        # A correct configuration is silent (only Settled agents, all ranks
        # distinct), and no transition applies to it, so it is stable.
        return self.is_correct(configuration)

    def is_silent(self, configuration: Configuration) -> bool:
        # Unsettled and Resetting agents always change state when they
        # interact (counters decrement or the role changes), so the silent
        # configurations are exactly the correct ones.
        return self.is_correct(configuration)

    def theoretical_state_count(self) -> int:
        settled = 3 * self.n  # rank x children
        unsettled = self.emax + 1
        resetting = 2 * (self.rmax + 1 + self.dmax + 1)  # leader x (propagating / dormant)
        return settled + unsettled + resetting

    # -- compiled-engine support ---------------------------------------------------

    def enumerate_states(self):
        """The full declared space, covering every adversarial start.

        Over-approximates the paper's reachable count
        (:meth:`theoretical_state_count`) by enumerating ``resetcount`` and
        ``delaytimer`` independently -- adversarial initial states may combine
        them arbitrarily, and the compiled engine must encode any
        configuration :meth:`random_state` can produce.  The space is
        ``3 n + E_max + 1 + 2 (R_max + 1)(D_max + 1)`` states: compilation is
        only practical with reduced constants (small ``rmax_multiplier``,
        ``dmax_factor``, ``emax_factor``), since the tables are quadratic in
        the state count.
        """
        states = []
        for rank in range(1, self.n + 1):
            for children in range(3):
                states.append(OptimalSilentState(role=SETTLED, rank=rank, children=children))
        for errorcount in range(self.emax + 1):
            states.append(OptimalSilentState(role=UNSETTLED, errorcount=errorcount))
        for leader in (LEADER, FOLLOWER):
            for resetcount in range(self.rmax + 1):
                for delaytimer in range(self.dmax + 1):
                    states.append(
                        OptimalSilentState(
                            role=RESETTING,
                            leader=leader,
                            resetcount=resetcount,
                            delaytimer=delaytimer,
                        )
                    )
        return states

    def compiled_predicates(self):
        n = self.n

        def valid_ranking(counts, compiled):
            settled = compiled.state_array("settled", lambda state: state.role == SETTLED)
            if int(counts[~settled].sum()) != 0:
                return False
            ranks = compiled.state_array(
                "settled rank",
                lambda state: state.rank if state.role == SETTLED else 0,
                np.int64,
            )
            per_rank = np.bincount(ranks[settled], weights=counts[settled], minlength=n + 1)
            # All n agents Settled with every rank in 1..n held at most once
            # is exactly a permutation (pigeonhole).
            return bool((per_rank[1 : n + 1] <= 1).all())

        # Correct, stabilized, and silent coincide (see the predicates above).
        return {
            "correct": valid_ranking,
            "stabilized": valid_ranking,
            "silent": valid_ranking,
        }

    # -- diagnostics -------------------------------------------------------------------

    def role_counts(self, configuration: Configuration) -> dict:
        """Count agents per role (for traces and experiments)."""
        counts = {SETTLED: 0, UNSETTLED: 0, RESETTING: 0}
        for state in configuration:
            counts[state.role] = counts.get(state.role, 0) + 1
        return counts

    def settled_ranks(self, configuration: Configuration) -> list:
        """Ranks of all Settled agents (with repetitions)."""
        return [state.rank for state in configuration if state.role == SETTLED]


__all__ = [
    "FOLLOWER",
    "LEADER",
    "OptimalSilentSSR",
    "OptimalSilentState",
    "SETTLED",
    "UNSETTLED",
]
