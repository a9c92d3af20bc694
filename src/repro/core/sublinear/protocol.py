"""Protocols 5 + 6: the top level of ``Sublinear-Time-SSR``.

Each agent is either *Collecting* (running the ranking logic) or *Resetting*
(inside ``Propagate-Reset``).  Collecting agents merge rosters of names,
assign themselves the lexicographic rank of their name once the roster is
full, and run the collision detector on every interaction; a detected
collision or an oversized roster (a "ghost name" betrayed by the pigeonhole
principle) triggers a global reset.  While a reset propagates, names are
cleared; dormant agents rebuild a fresh random name one bit per interaction,
so an awakening configuration holds unique names with high probability
(Lemma 5.1).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.problems import is_valid_ranking
from repro.core.propagate_reset import RESETTING, PropagateReset, default_rmax
from repro.core.sublinear.collision import (
    CollisionDetector,
    DirectCollisionDetector,
    HistoryTreeCollisionDetector,
)
from repro.core.sublinear.history_tree import TreeNode
from repro.core.sublinear.names import name_length, random_name
from repro.engine.configuration import Configuration
from repro.engine.protocol import PopulationProtocol
from repro.engine.state import AgentState

#: Role label of agents executing the ranking logic.
COLLECTING = "Collecting"


class SublinearState(AgentState):
    """State of a ``Sublinear-Time-SSR`` agent."""

    def __init__(
        self,
        role: str = COLLECTING,
        name: str = "",
        rank: Optional[int] = None,
        roster: Optional[frozenset] = None,
        tree: Optional[TreeNode] = None,
        resetcount: Optional[int] = None,
        delaytimer: Optional[int] = None,
    ):
        self.role = role
        self.name = name
        self.rank = rank
        self.roster = roster
        self.tree = tree
        self.resetcount = resetcount
        self.delaytimer = delaytimer

    def signature(self):
        if self.role == COLLECTING:
            tree_signature = self.tree.signature() if self.tree is not None else None
            return (COLLECTING, self.name, self.rank, self.roster, tree_signature)
        return (RESETTING, self.name, self.resetcount, self.delaytimer)


class SublinearTimeSSR(PopulationProtocol):
    """The sublinear-time self-stabilizing ranking protocol (Theorem 5.7).

    Parameters
    ----------
    n:
        Population size.
    depth:
        The path-depth parameter ``H``.  ``0`` selects direct collision
        detection (the Theta(n)-time variant); ``None`` selects
        ``H = ceil(log2 n)``, the time-optimal O(log n) regime.
    rmax_multiplier:
        ``R_max = rmax_multiplier * ln n`` (paper value 60).
    dmax:
        ``D_max``; defaults to ``2 R_max + 4 * (name length) + 8``, which is
        ``Theta(log n)`` and long enough for dormant agents to draw a full
        fresh name with high probability.
    sync_values, timer_max, timer_multiplier:
        Forwarded to :class:`HistoryTreeCollisionDetector` (``S_max`` and
        ``T_H``).
    """

    name = "Sublinear-Time-SSR"

    def __init__(
        self,
        n: int,
        depth: Optional[int] = None,
        rmax_multiplier: float = 60.0,
        dmax: Optional[int] = None,
        sync_values: Optional[int] = None,
        timer_max: Optional[int] = None,
        timer_multiplier: float = 8.0,
    ):
        super().__init__(n)
        if depth is None:
            depth = max(1, math.ceil(math.log2(n)))
        if depth < 0:
            raise ValueError(f"depth H must be non-negative, got {depth}")
        self.depth = depth
        self.name_length = name_length(n)
        self.rmax = default_rmax(n, rmax_multiplier)
        self.dmax = dmax if dmax is not None else 2 * self.rmax + 4 * self.name_length + 8
        if self.dmax < 1:
            raise ValueError(f"D_max must be positive, got {self.dmax}")
        if depth == 0:
            self.detector: CollisionDetector = DirectCollisionDetector()
        else:
            self.detector = HistoryTreeCollisionDetector(
                n,
                depth,
                sync_values=sync_values,
                timer_max=timer_max,
                timer_multiplier=timer_multiplier,
            )
        self.reset_machinery = PropagateReset(
            rmax=self.rmax,
            dmax=self.dmax,
            reset=self._reset,
            enter_resetting=self._enter_resetting,
        )

    # -- role changes ---------------------------------------------------------------------

    @staticmethod
    def _enter_resetting(state: SublinearState, rng: np.random.Generator) -> None:
        """Entering the Resetting role drops the Collecting-role fields."""
        state.rank = None
        state.roster = None
        state.tree = None

    def _reset(self, state: SublinearState, rng: np.random.Generator) -> None:
        """Protocol 6: return to Collecting, knowing only one's own name."""
        state.role = COLLECTING
        state.roster = frozenset({state.name})
        state.tree = self.detector.fresh_tree(state.name)
        state.rank = None
        state.resetcount = None
        state.delaytimer = None

    # -- configurations ----------------------------------------------------------------------

    def _collecting_state(self, name: str) -> SublinearState:
        return SublinearState(
            role=COLLECTING,
            name=name,
            roster=frozenset({name}),
            tree=self.detector.fresh_tree(name),
        )

    def initial_state(self, agent_id: int, rng: np.random.Generator) -> SublinearState:
        """Clean start: Collecting with a fresh uniformly random name."""
        return self._collecting_state(random_name(rng, self.name_length))

    def random_state(self, rng: np.random.Generator) -> SublinearState:
        """Adversarial state: either role, arbitrary name / counters."""
        if rng.integers(0, 4) == 0:
            name = random_name(rng, int(rng.integers(0, self.name_length + 1)))
            return SublinearState(
                role=RESETTING,
                name=name,
                resetcount=int(rng.integers(0, self.rmax + 1)),
                delaytimer=int(rng.integers(0, self.dmax + 1)),
            )
        name = random_name(rng, self.name_length)
        state = self._collecting_state(name)
        state.rank = int(rng.integers(1, self.n + 1))
        return state

    def unique_names_configuration(
        self, rng: Optional[np.random.Generator] = None
    ) -> Configuration:
        """Every agent Collecting with a distinct random name and singleton roster."""
        from repro.engine.rng import make_rng

        rng = make_rng(rng)
        names = set()
        while len(names) < self.n:
            names.add(random_name(rng, self.name_length))
        return Configuration([self._collecting_state(name) for name in sorted(names)])

    def planted_collision_configuration(
        self, rng: Optional[np.random.Generator] = None, duplicates: int = 2
    ) -> Configuration:
        """Unique names except ``duplicates`` agents share one name.

        This is the adversarial situation ``Detect-Name-Collision`` exists for:
        the duplicated agents never need to meet directly for the error to be
        found.
        """
        if not 2 <= duplicates <= self.n:
            raise ValueError(f"duplicates must be in [2, {self.n}], got {duplicates}")
        configuration = self.unique_names_configuration(rng)
        shared = configuration[0].name
        for index in range(1, duplicates):
            configuration[index] = self._collecting_state(shared)
        return configuration

    def ghostly_configuration(
        self, rng: Optional[np.random.Generator] = None, ghosts: int = 1
    ) -> Configuration:
        """Unique agent names, but one roster contains names no agent holds."""
        from repro.engine.rng import make_rng

        rng = make_rng(rng)
        configuration = self.unique_names_configuration(rng)
        real_names = {state.name for state in configuration}
        ghost_names = set()
        while len(ghost_names) < ghosts:
            candidate = random_name(rng, self.name_length)
            if candidate not in real_names:
                ghost_names.add(candidate)
        haunted = configuration[0]
        haunted.roster = frozenset(haunted.roster | ghost_names)
        return configuration

    def ranked_configuration(self, rng: Optional[np.random.Generator] = None) -> Configuration:
        """A stabilized configuration: unique names, full rosters, correct ranks."""
        configuration = self.unique_names_configuration(rng)
        all_names = frozenset(state.name for state in configuration)
        ordered = sorted(all_names)
        for state in configuration:
            state.roster = all_names
            state.rank = ordered.index(state.name) + 1
        return configuration

    # -- the transition (Protocol 5) --------------------------------------------------------

    def transition(
        self,
        initiator: SublinearState,
        responder: SublinearState,
        rng: np.random.Generator,
    ) -> None:
        a, b = initiator, responder
        if a.role == COLLECTING and b.role == COLLECTING:
            collision = self.detector.detect(a, b, rng)
            union = a.roster | b.roster
            if collision or len(union) > self.n:
                self.reset_machinery.trigger(a, rng)
                self.reset_machinery.trigger(b, rng)
                return
            a.roster = union
            b.roster = union
            if len(union) == self.n:
                ordered = sorted(union)
                for agent in (a, b):
                    agent.rank = ordered.index(agent.name) + 1
            return

        # Some agent is Resetting: run Propagate-Reset, then handle names.
        self.reset_machinery.interact(a, b, rng)
        for agent in (a, b):
            if agent.role != RESETTING:
                continue
            if agent.resetcount > 0:
                agent.name = ""  # clear names while propagating the reset signal
            elif len(agent.name) < self.name_length:
                agent.name += "1" if rng.integers(0, 2) else "0"

    # -- predicates ---------------------------------------------------------------------------

    def is_correct(self, configuration: Configuration) -> bool:
        if any(state.role != COLLECTING for state in configuration):
            return False
        return is_valid_ranking((state.rank for state in configuration), self.n)

    def has_stabilized(self, configuration: Configuration) -> bool:
        """Correct ranks, unique full-length names, and complete rosters.

        From such a configuration reached after a clean reset no collision is
        ever falsely detected (Lemma 5.4), so the ranks never change again.
        The check does not audit the history trees themselves; adversarially
        planted tree data could still trigger one more reset (Lemma 5.5
        bounds how long such data survives), which experiments treat as part
        of the stabilization time by starting from adversarial configurations.
        """
        if not self.is_correct(configuration):
            return False
        names = [state.name for state in configuration]
        if len(set(names)) != self.n or any(len(name) != self.name_length for name in names):
            return False
        full_roster = frozenset(names)
        return all(state.roster == full_roster for state in configuration)

    def is_silent(self, configuration: Configuration) -> bool:
        """The protocol is non-silent whenever ``H >= 1`` (Observation 2.6).

        History trees and sync values keep changing forever, so only the
        degenerate direct-detection variant can be silent, and even that keeps
        no-op interactions only.  We conservatively report ``False``.
        """
        return False

    def theoretical_state_count(self) -> Optional[int]:
        return None

    def theoretical_state_bits(self) -> float:
        """Approximate per-agent memory in bits: ``O(n^H log n)`` for ``H >= 1``."""
        base = self.name_length + math.log2(self.n) + math.log2(self.n ** 3 + 1) * self.n
        return base + self.detector.state_bits(self.n)

    # -- diagnostics -----------------------------------------------------------------------------

    def role_counts(self, configuration: Configuration) -> dict:
        """Count agents per role."""
        counts = {COLLECTING: 0, RESETTING: 0}
        for state in configuration:
            counts[state.role] = counts.get(state.role, 0) + 1
        return counts

    def distinct_names(self, configuration: Configuration) -> int:
        """Number of distinct names currently held by agents."""
        return len({state.name for state in configuration})

    def max_tree_size(self, configuration: Configuration) -> int:
        """Largest history-tree node count in the configuration (0 if untracked)."""
        sizes = [
            state.tree.node_count()
            for state in configuration
            if state.role == COLLECTING and state.tree is not None
        ]
        return max(sizes, default=0)


__all__ = ["COLLECTING", "SublinearState", "SublinearTimeSSR"]
