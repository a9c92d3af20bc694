"""Tests for the history-tree data structure (Protocols 7 and 8 internals)."""

import pytest

from repro.core.sublinear.history_tree import TreeEdge, TreeNode, check_path_consistency
from tests.property.test_property_history_tree import (
    decrement_timers,
    remove_depth_one_child,
    remove_subtrees_named,
)


def chain_tree(names, syncs, timers=None):
    """Build a path-shaped tree root -> names[0] -> names[1] -> ..."""
    root = TreeNode.singleton(names[0])
    node = root
    for index, child_name in enumerate(names[1:]):
        child = TreeNode.singleton(child_name)
        timer = timers[index] if timers is not None else 5
        node.attach(child, sync=syncs[index], timer=timer)
        node = child
    return root


class TestBasics:
    def test_singleton(self):
        tree = TreeNode.singleton("a")
        assert tree.node_count() == 1 and tree.depth() == 0 and list(tree.iter_edges()) == []

    def test_attach_and_counts(self):
        tree = TreeNode.singleton("a")
        tree.attach(TreeNode.singleton("b"), sync=1, timer=3)
        tree.attach(TreeNode.singleton("c"), sync=2, timer=3)
        assert tree.node_count() == 3 and tree.depth() == 1

    def test_copy_is_deep(self):
        tree = chain_tree(["a", "b", "c"], [1, 2])
        copy = tree.copy()
        copy.edges[0].child.name = "z"
        assert tree.edges[0].child.name == "b"

    def test_copy_truncates_depth(self):
        tree = chain_tree(["a", "b", "c", "d"], [1, 2, 3])
        assert tree.copy(max_depth=1).depth() == 1
        assert tree.copy(max_depth=0).node_count() == 1
        assert tree.copy(max_depth=None).depth() == 3

    def test_signature_ignores_edge_order(self):
        left = TreeNode.singleton("a")
        left.attach(TreeNode.singleton("b"), sync=1, timer=1)
        left.attach(TreeNode.singleton("c"), sync=2, timer=1)
        right = TreeNode.singleton("a")
        right.attach(TreeNode.singleton("c"), sync=2, timer=1)
        right.attach(TreeNode.singleton("b"), sync=1, timer=1)
        assert left.signature() == right.signature()


class TestMutations:
    """Protocol 7's mutators: the line-by-line reference, then the one-walk forms."""

    def test_remove_depth_one_child(self):
        tree = TreeNode.singleton("a")
        tree.attach(TreeNode.singleton("b"), sync=1, timer=1)
        tree.attach(TreeNode.singleton("c"), sync=2, timer=1)
        remove_depth_one_child(tree, "b")
        assert [edge.child.name for edge in tree.edges] == ["c"]

    def test_remove_depth_one_child_keeps_deeper_nodes(self):
        tree = chain_tree(["a", "b", "c"], [1, 2])
        remove_depth_one_child(tree, "c")  # c is at depth 2, must survive
        assert tree.node_count() == 3

    def test_remove_subtrees_named_removes_at_any_depth(self):
        tree = chain_tree(["a", "b", "c", "d"], [1, 2, 3])
        remove_subtrees_named(tree, "c")
        assert tree.node_count() == 2  # a -> b only

    def test_decrement_timers_floors_at_zero(self):
        tree = chain_tree(["a", "b", "c"], [1, 2], timers=[1, 0])
        decrement_timers(tree)
        assert [edge.timer for edge in tree.iter_edges()] == [0, 0]

    def test_prune_and_age_removes_depth_one_partner(self):
        tree = TreeNode.singleton("a")
        tree.attach(TreeNode.singleton("b"), sync=1, timer=1)
        tree.attach(TreeNode.singleton("c"), sync=2, timer=1)
        tree.prune_and_age("a", "b")
        assert [edge.child.name for edge in tree.edges] == ["c"]

    def test_prune_and_age_keeps_deeper_partner_nodes(self):
        tree = chain_tree(["a", "b", "c"], [1, 2])
        tree.prune_and_age("a", "c")  # c is at depth 2, must survive
        assert tree.node_count() == 3

    def test_prune_and_age_removes_owner_subtrees_at_any_depth(self):
        tree = chain_tree(["a", "b", "c", "d"], [1, 2, 3])
        tree.prune_and_age("c")
        assert tree.node_count() == 2  # a -> b only

    def test_prune_and_age_floors_timers_at_zero(self):
        tree = chain_tree(["a", "b", "c"], [1, 2], timers=[1, 0])
        tree.prune_and_age("a")
        assert [edge.timer for edge in tree.iter_edges()] == [0, 0]

    def test_snapshot_truncates_prunes_and_ages(self):
        tree = chain_tree(["a", "b", "c", "d"], [1, 2, 3], timers=[3, 0, 3])
        snapshot = tree.snapshot(2, "z")
        assert [(edge.sync, edge.timer) for edge in snapshot.iter_edges()] == [(1, 2), (2, 0)]
        assert tree.snapshot(2, "c").node_count() == 2  # a -> b only
        assert tree.snapshot(0, "z").node_count() == 1
        assert [edge.timer for edge in tree.iter_edges()] == [3, 0, 3]  # source untouched

    def test_snapshot_shares_no_nodes(self):
        tree = chain_tree(["a", "b", "c"], [1, 2])
        snapshot = tree.snapshot(2, "z")
        assert snapshot.depth() == 2
        tree_nodes = {id(tree)} | {id(edge.child) for edge in tree.iter_edges()}
        assert id(snapshot) not in tree_nodes
        assert all(id(edge.child) not in tree_nodes for edge in snapshot.iter_edges())

    def test_zero_all_timers(self):
        tree = chain_tree(["a", "b", "c"], [1, 2])
        tree.zero_all_timers()
        assert tree.max_live_timer() == 0

    def test_simply_labelled_detection(self):
        good = chain_tree(["a", "b", "c"], [1, 2])
        assert good.is_simply_labelled()
        bad = chain_tree(["a", "b", "a"], [1, 2])
        assert not bad.is_simply_labelled()

    def test_same_name_in_different_branches_is_simply_labelled(self):
        tree = TreeNode.singleton("a")
        tree.attach(chain_tree(["b", "d"], [1]), sync=1, timer=1)
        tree.attach(chain_tree(["c", "d"], [2]), sync=2, timer=1)
        assert tree.is_simply_labelled()


class TestLivePaths:
    def test_finds_path_to_target(self):
        tree = chain_tree(["a", "b", "c"], [1, 2])
        paths = tree.live_paths_to("c")
        assert len(paths) == 1
        assert [edge.sync for edge in paths[0]] == [1, 2]

    def test_expired_timer_blocks_path(self):
        tree = chain_tree(["a", "b", "c"], [1, 2], timers=[5, 0])
        assert tree.live_paths_to("c") == []

    def test_multiple_paths_to_same_name(self):
        tree = TreeNode.singleton("a")
        tree.attach(chain_tree(["b", "d"], [7]), sync=1, timer=3)
        tree.attach(chain_tree(["c", "d"], [8]), sync=2, timer=3)
        assert len(tree.live_paths_to("d")) == 2

    def test_no_path_to_unknown_name(self):
        tree = chain_tree(["a", "b"], [1])
        assert tree.live_paths_to("z") == []


class TestCheckPathConsistency:
    def test_direct_edge_match_is_consistent(self):
        # a has path a -> b with sync 1; b has a -> edge back to a with sync 1.
        a_tree = chain_tree(["a", "b"], [1])
        b_tree = chain_tree(["b", "a"], [1])
        path = a_tree.live_paths_to("b")[0]
        assert check_path_consistency(b_tree, path, "a")

    def test_mismatched_sync_is_inconsistent(self):
        a_tree = chain_tree(["a", "b"], [1])
        b_tree = chain_tree(["b", "a"], [9])
        path = a_tree.live_paths_to("b")[0]
        assert not check_path_consistency(b_tree, path, "a")

    def test_partner_with_no_knowledge_is_inconsistent(self):
        a_tree = chain_tree(["a", "b"], [1])
        b_tree = TreeNode.singleton("b")
        path = a_tree.live_paths_to("b")[0]
        assert not check_path_consistency(b_tree, path, "a")

    def test_figure2_left_example(self):
        """d's path d->c->b->a matches a's suffix a->b on the final sync value."""
        d_tree = chain_tree(["d", "c", "b", "a"], [3, 2, 1])
        a_tree = chain_tree(["a", "b"], [1])
        path = d_tree.live_paths_to("a")[0]
        assert check_path_consistency(a_tree, path, "d")

    def test_figure2_right_example(self):
        """After a and b re-sync (value 7), a's deeper edge b->c (sync 2) still matches."""
        d_tree = chain_tree(["d", "c", "b", "a"], [3, 2, 1])
        a_tree = chain_tree(["a", "b", "c"], [7, 2])
        path = d_tree.live_paths_to("a")[0]
        assert check_path_consistency(a_tree, path, "d")

    def test_figure2_right_example_with_no_matching_sync(self):
        d_tree = chain_tree(["d", "c", "b", "a"], [3, 2, 1])
        a_tree = chain_tree(["a", "b", "c"], [7, 9])  # neither 7 nor 9 matches 1 or 2
        path = d_tree.live_paths_to("a")[0]
        assert not check_path_consistency(a_tree, path, "d")

    def test_empty_path_is_consistent(self):
        assert check_path_consistency(TreeNode.singleton("b"), [], "a")
