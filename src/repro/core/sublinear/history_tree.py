"""The per-agent history tree used by ``Detect-Name-Collision`` (Protocol 7).

Each agent stores a tree of depth at most ``H`` whose root is labelled with
the agent's own name.  An edge ``u --sync/timer--> v`` records: "when ``u``
last interacted with ``v`` (as far as the tree's owner has heard), they agreed
on the value ``sync``"; ``timer`` counts the owner's interactions since the
owner learned this and gates which paths may be *checked* (stale information
may still be used to *answer* checks, which is essential for safety --
Lemma 5.5).  Every root-to-leaf path is simply labelled: no name repeats along
a path (the same name may appear in unrelated branches).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple


class TreeEdge:
    """An edge of a history tree: a sync value, a freshness timer, and a child node."""

    __slots__ = ("sync", "timer", "child")

    def __init__(self, sync: int, timer: int, child: "TreeNode"):
        self.sync = sync
        self.timer = timer
        self.child = child

    def __repr__(self) -> str:
        return f"TreeEdge(sync={self.sync}, timer={self.timer}, child={self.child.name!r})"


class TreeNode:
    """A node of a history tree, labelled by an agent name."""

    __slots__ = ("name", "edges")

    def __init__(self, name: str, edges: Optional[List[TreeEdge]] = None):
        self.name = name
        self.edges: List[TreeEdge] = edges if edges is not None else []

    # -- construction ---------------------------------------------------------------

    @classmethod
    def singleton(cls, name: str) -> "TreeNode":
        """A tree containing only the root (the state right after ``Reset``)."""
        return cls(name)

    def copy(self, max_depth: Optional[int] = None) -> "TreeNode":
        """Deep copy, truncated so the copy's depth is at most ``max_depth``.

        ``max_depth = 0`` keeps only the root; ``None`` copies everything.
        """
        node = TreeNode(self.name)
        if max_depth is None or max_depth > 0:
            next_depth = None if max_depth is None else max_depth - 1
            node.edges = [
                TreeEdge(edge.sync, edge.timer, edge.child.copy(next_depth))
                for edge in self.edges
            ]
        return node

    # -- measurements ----------------------------------------------------------------

    def node_count(self) -> int:
        """Total number of nodes in the tree."""
        return 1 + sum(edge.child.node_count() for edge in self.edges)

    def depth(self) -> int:
        """Depth of the tree (0 for a singleton)."""
        if not self.edges:
            return 0
        return 1 + max(edge.child.depth() for edge in self.edges)

    def iter_edges(self) -> Iterator[TreeEdge]:
        """Iterate over all edges in the tree (pre-order)."""
        for edge in self.edges:
            yield edge
            yield from edge.child.iter_edges()

    def is_simply_labelled(self) -> bool:
        """``True`` iff no root-to-leaf path repeats a name."""
        return self._simply_labelled(frozenset({self.name}))

    def _simply_labelled(self, seen: frozenset) -> bool:
        for edge in self.edges:
            if edge.child.name in seen:
                return False
            if not edge.child._simply_labelled(seen | {edge.child.name}):
                return False
        return True

    # -- mutations used by Protocol 7 ---------------------------------------------------

    def attach(self, subtree: "TreeNode", sync: int, timer: int) -> None:
        """Line 9-10: attach ``subtree`` under the root via a new edge."""
        self.edges.append(TreeEdge(sync, timer, subtree))

    def snapshot(self, max_depth: int, receiver: str) -> "TreeNode":
        """Lines 6 and 11-14 on a copy sent to ``receiver``, in one walk.

        Like :meth:`copy`, but without subtrees named ``receiver`` below the
        root and with every timer already aged by one (floored at 0).
        """
        node = TreeNode(self.name)
        if max_depth > 0:
            node.edges = [
                TreeEdge(
                    edge.sync,
                    edge.timer - 1 if edge.timer > 0 else 0,
                    edge.child.snapshot(max_depth - 1, receiver),
                )
                for edge in self.edges
                if edge.child.name != receiver
            ]
        return node

    def prune_and_age(self, owner: str, partner: Optional[str] = None) -> None:
        """Lines 7-8 and 11-14 in one walk over the edges the tree already has:
        drop the depth-1 subtree named ``partner`` and every subtree named
        ``owner``, and age each kept timer by one (floored at 0)."""
        kept = []
        for edge in self.edges:
            child = edge.child
            if child.name == owner or child.name == partner:
                continue
            edge.timer = edge.timer - 1 if edge.timer > 0 else 0
            if child.edges:
                child.prune_and_age(owner)
            kept.append(edge)
        self.edges = kept

    def zero_all_timers(self) -> None:
        """Set every edge timer to 0 (used to model fully stale adversarial data)."""
        for edge in self.iter_edges():
            edge.timer = 0

    # -- queries used by Protocols 7 and 8 ------------------------------------------------

    def live_paths_to(self, target_name: str) -> List[List[TreeEdge]]:
        """All root paths with every timer positive whose last node is ``target_name``.

        Each returned path is the list of edges ``(e_1, ..., e_p)`` from the
        root; these are exactly the "histories about ``target_name`` that
        aren't outdated" of Protocol 7, line 2.
        """
        paths: List[List[TreeEdge]] = []
        self._collect_live_paths(target_name, [], paths)
        return paths

    def _collect_live_paths(
        self, target_name: str, prefix: List[TreeEdge], paths: List[List[TreeEdge]]
    ) -> None:
        for edge in self.edges:
            if edge.timer <= 0:
                continue
            current = prefix + [edge]
            if edge.child.name == target_name:
                paths.append(current)
            if edge.child.edges:
                edge.child._collect_live_paths(target_name, current, paths)

    def max_live_timer(self) -> int:
        """Largest edge timer in the tree (0 if the tree has no edges)."""
        return max((edge.timer for edge in self.iter_edges()), default=0)

    # -- canonical form ---------------------------------------------------------------------

    def signature(self) -> Tuple:
        """Hashable canonical encoding (used for state counting)."""
        return (
            self.name,
            tuple(
                sorted(
                    (edge.sync, edge.timer, edge.child.signature()) for edge in self.edges
                )
            ),
        )

    def __repr__(self) -> str:
        return f"TreeNode(name={self.name!r}, children={len(self.edges)})"


def check_path_consistency(
    partner_tree: TreeNode,
    path: Sequence[TreeEdge],
    owner_name: str,
) -> bool:
    """Protocol 8: can the partner explain the owner's path about it?

    ``path`` is a root path ``(e_1, ..., e_p)`` in the owner's tree whose last
    node carries the partner's name; ``owner_name`` is the label of the
    owner's root.  The partner's tree is searched for the *reversed* path: a
    descent from its root through nodes labelled with the path's node names in
    reverse order.  The path is consistent (returns ``True``) if some edge
    along such a descent carries the same sync value as the corresponding edge
    of ``path``; it is inconsistent (returns ``False``) if no sync value ever
    matches -- in particular if the partner has never even heard of the
    previous node on the path.

    Compared to the paper's pseudocode, which examines a single longest
    reversed suffix, this implementation accepts a match on *any* reversed
    descent.  This is never stricter than the paper's rule, so the safety
    guarantees (Lemmas 5.4 and 5.5) carry over, and a freshly renamed impostor
    still has no matching sync values with probability ``1 - O(1/S_max)`` per
    edge, preserving fast detection (Lemma 5.6).
    """
    if not path:
        return True
    node_names = [owner_name] + [edge.child.name for edge in path]
    return _descend(partner_tree, node_names, list(path), len(path))


def _descend(node: TreeNode, node_names: List[str], path: List[TreeEdge], k: int) -> bool:
    if k == 0:
        return False
    target = node_names[k - 1]
    for edge in node.edges:
        if edge.child.name != target:
            continue
        if edge.sync == path[k - 1].sync:
            return True
        if _descend(edge.child, node_names, path, k - 1):
            return True
    return False


__all__ = ["TreeEdge", "TreeNode", "check_path_consistency"]
