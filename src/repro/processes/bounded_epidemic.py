"""The bounded epidemic / level propagation process (Lemmas 2.10 and 2.11).

A source agent has ``level = 0`` and everyone else ``level = infinity``;
on an interaction both agents update ``level <- min(own, other + 1)``.
``tau_k`` is the first (parallel) time at which a fixed target agent has
``level <= k``, i.e. the target has heard from the source through a chain of
at most ``k`` interactions.  The paper shows ``E[tau_k] <= k n^{1/k}`` for
constant ``k`` (Lemma 2.10) and ``tau_{3 log2 n} <= 3 ln n`` with high
probability (Lemma 2.11).  This is the mechanism behind the running time of
``Detect-Name-Collision`` for each choice of the depth parameter ``H``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.engine.configuration import Configuration
from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import RngLike, make_rng
from repro.engine.state import AgentState

#: Sentinel "infinite" level; any value larger than any path length works.
UNREACHED = 1 << 30


class LevelState(AgentState):
    """State of an agent in the bounded epidemic: its current ``level``."""

    def __init__(self, level: int = UNREACHED):
        self.level = level


class BoundedEpidemicProtocol(PopulationProtocol):
    """Agent-level bounded epidemic: ``level <- min(own, other + 1)`` both ways."""

    name = "bounded-epidemic"
    symmetric_transition = True

    def __init__(self, n: int, source: int = 0, target: int = 1, k: int = 1):
        super().__init__(n)
        if source == target:
            raise ValueError("source and target must be distinct agents")
        if not (0 <= source < n and 0 <= target < n):
            raise ValueError("source and target must be valid agent ids")
        if k < 1:
            raise ValueError(f"level bound k must be positive, got {k}")
        self.source = source
        self.target = target
        self.k = k

    def initial_state(self, agent_id: int, rng: np.random.Generator) -> LevelState:
        return LevelState(level=0 if agent_id == self.source else UNREACHED)

    def transition(
        self, initiator: LevelState, responder: LevelState, rng: np.random.Generator
    ) -> None:
        initiator.level = self._clamp(min(initiator.level, responder.level + 1))
        responder.level = self._clamp(min(responder.level, initiator.level + 1))

    def _clamp(self, level: int) -> int:
        """Normalize any level ``>= n`` to the :data:`UNREACHED` sentinel.

        Finite levels never exceed ``n - 1`` in a real execution (a finite
        level ``m`` requires at least ``m + 1`` agents already carrying finite
        levels, and levels only decrease per agent), so the clamp never alters
        a run; it only closes the *pairwise* state space -- without it the
        compiler's closure would chase the unreachable ladder ``n, n+1, ...``
        produced by pairing level ``n - 1`` with an unreached agent.
        """
        return UNREACHED if level >= self.n else level

    def is_correct(self, configuration: Configuration) -> bool:
        """Correct once the target has heard from the source via <= k hops."""
        return configuration[self.target].level <= self.k

    # -- compiled-engine support ---------------------------------------------------

    def enumerate_states(self):
        """Levels ``0 .. n-1`` plus the unreached sentinel (``n + 1`` states).

        The correctness predicate names a specific *agent* (the target), which
        a state-count vector cannot express, so the protocol declares no
        ``compiled_predicates``; the batch engine decodes the configuration
        for its stop checks (exact, ``O(n)`` per check).
        """
        return [LevelState(level) for level in range(self.n)] + [LevelState(UNREACHED)]


def simulate_level_hitting_times(
    n: int,
    max_level: int,
    rng: RngLike = None,
    source: int = 0,
    target: Optional[int] = None,
) -> Dict[int, int]:
    """Simulate one run and return ``{k: interactions until target.level <= k}``.

    Records, for every ``k`` in ``1 .. max_level``, the first interaction after
    which the target's level is at most ``k``.  A single run therefore yields
    the full hitting-time curve ``tau_1, ..., tau_max_level``.
    """
    if n < 2:
        raise ValueError(f"population size must be at least 2, got {n}")
    if max_level < 1:
        raise ValueError(f"max_level must be positive, got {max_level}")
    rng = make_rng(rng)
    if target is None:
        target = (source + 1) % n
    if target == source:
        raise ValueError("source and target must be distinct agents")

    levels = np.full(n, UNREACHED, dtype=np.int64)
    levels[source] = 0
    hitting: Dict[int, int] = {}
    interactions = 0
    batch = max(1024, 4 * n)
    while len(hitting) < max_level:
        initiators = rng.integers(0, n, size=batch)
        responders = rng.integers(0, n - 1, size=batch)
        responders = responders + (responders >= initiators)
        for i, j in zip(initiators.tolist(), responders.tolist()):
            interactions += 1
            li, lj = levels[i], levels[j]
            if lj + 1 < li:
                levels[i] = lj + 1
            if levels[i] + 1 < lj:
                levels[j] = levels[i] + 1
            if i == target or j == target:
                target_level = int(levels[target])
                for k in range(max(1, target_level), max_level + 1):
                    if k >= target_level and k not in hitting:
                        hitting[k] = interactions
                if len(hitting) >= max_level:
                    break
    return hitting


def simulate_bounded_epidemic_levels(
    n: int,
    k: int,
    rng: RngLike = None,
) -> int:
    """Sample ``tau_k`` (in interactions) for a single pair (source, target)."""
    hitting = simulate_level_hitting_times(n, max_level=k, rng=rng)
    return hitting[k]


__all__ = [
    "BoundedEpidemicProtocol",
    "LevelState",
    "UNREACHED",
    "simulate_bounded_epidemic_levels",
    "simulate_level_hitting_times",
]
