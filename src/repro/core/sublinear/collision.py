"""Protocol 7: ``Detect-Name-Collision``.

The detector is the time-critical component of ``Sublinear-Time-SSR``: it must
flag two agents carrying the same name within ``O(T_H)`` parallel time without
requiring them to meet directly, while *never* flagging a collision once the
population holds unique names and has gone through a clean reset.

Two implementations are provided:

* :class:`HistoryTreeCollisionDetector` -- the paper's depth-``H`` history-tree
  scheme (Protocols 7 + 8).
* :class:`DirectCollisionDetector` -- the degenerate ``H = 0`` scheme that only
  compares the two interacting agents' names, giving the Theta(n)-time silent
  variant discussed in Section 5.3.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

import numpy as np

from repro.core.sublinear.history_tree import TreeNode, check_path_consistency


class CollisionDetector(abc.ABC):
    """Interface of a name-collision detector plugged into ``Sublinear-Time-SSR``."""

    @abc.abstractmethod
    def fresh_tree(self, name: str) -> Optional[TreeNode]:
        """The tree an agent holds right after ``Reset`` (``None`` if unused)."""

    @abc.abstractmethod
    def detect(self, a, b, rng: np.random.Generator) -> bool:
        """Run the detector on an interacting pair of Collecting agents.

        Returns ``True`` if a name collision is declared.  May update the
        agents' detector state (history trees) as a side effect.
        """

    def state_bits(self, n: int) -> float:
        """Approximate number of bits of detector state per agent."""
        return 0.0


class DirectCollisionDetector(CollisionDetector):
    """``H = 0``: declare a collision only when the two names are equal."""

    def fresh_tree(self, name: str) -> Optional[TreeNode]:
        return None

    def detect(self, a, b, rng: np.random.Generator) -> bool:
        return a.name == b.name


class HistoryTreeCollisionDetector(CollisionDetector):
    """Protocols 7 + 8: indirect collision detection through history trees.

    Parameters
    ----------
    n:
        Population size.
    depth:
        The parameter ``H`` (maximum tree depth, ``>= 1``).
    sync_values:
        ``S_max``; defaults to ``2 n^2`` as in the paper (``Theta(n^2)``).
    timer_max:
        ``T_H``; defaults to ``ceil(timer_multiplier * (H + 1) * n^(1/(H+1)))``,
        which is ``Theta(H n^(1/(H+1)))`` for constant ``H`` and
        ``Theta(log n)`` once ``H = Theta(log n)`` (the paper's two regimes).
    timer_multiplier:
        Safety factor applied to the default ``T_H``.
    """

    def __init__(
        self,
        n: int,
        depth: int,
        sync_values: Optional[int] = None,
        timer_max: Optional[int] = None,
        timer_multiplier: float = 8.0,
    ):
        if n < 2:
            raise ValueError(f"population size must be at least 2, got {n}")
        if depth < 1:
            raise ValueError(f"history-tree depth H must be at least 1, got {depth}")
        self.n = n
        self.depth = depth
        self.sync_values = sync_values if sync_values is not None else max(4, 2 * n * n)
        if self.sync_values < 2:
            raise ValueError(f"S_max must be at least 2, got {self.sync_values}")
        if timer_max is not None:
            self.timer_max = timer_max
        else:
            self.timer_max = math.ceil(
                timer_multiplier * (depth + 1) * n ** (1.0 / (depth + 1))
            )
        if self.timer_max < 1:
            raise ValueError(f"T_H must be positive, got {self.timer_max}")

    def fresh_tree(self, name: str) -> TreeNode:
        return TreeNode.singleton(name)

    def detect(self, a, b, rng: np.random.Generator) -> bool:
        # Lines 1-4: check every live history each agent holds about the other.
        for owner, partner in ((a, b), (b, a)):
            for path in owner.tree.live_paths_to(partner.name):
                if not check_path_consistency(partner.tree, path, owner.name):
                    return True

        # Line 5: agree on a fresh sync value for this interaction.
        sync = int(rng.integers(1, self.sync_values + 1))

        # Lines 6-14, one walk per tree: each agent receives the other's
        # pre-interaction tree already truncated, pruned and aged; line 11
        # drops the new edge when the partner carries the owner's name.
        a_snapshot = a.tree.snapshot(self.depth - 1, b.name)
        b_snapshot = b.tree.snapshot(self.depth - 1, a.name)
        timer = max(self.timer_max - 1, 0)
        for owner, partner_snapshot, partner in ((a, b_snapshot, b), (b, a_snapshot, a)):
            owner.tree.prune_and_age(owner.name, partner.name)
            if partner_snapshot.name != owner.name:
                owner.tree.attach(partner_snapshot, sync, timer)
        return False

    def state_bits(self, n: int) -> float:
        """``O(n^H log n)`` bits: the dominant memory cost of the protocol."""
        per_node_bits = math.log2(max(2, n ** 3))  # name
        per_edge_bits = math.log2(self.sync_values) + math.log2(self.timer_max + 1)
        max_nodes = sum(max(1, (n - 1)) ** d for d in range(self.depth + 1))
        return max_nodes * (per_node_bits + per_edge_bits)


__all__ = [
    "CollisionDetector",
    "DirectCollisionDetector",
    "HistoryTreeCollisionDetector",
]
