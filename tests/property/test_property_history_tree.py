"""Property-based tests on the history-tree collision detector.

The two properties mirror the paper's key lemmas:

* structural invariants (simple labelling, bounded depth, no self-references)
  survive arbitrary interaction sequences,
* **safety** (Lemma 5.4): starting from singleton trees with unique names, no
  interaction sequence ever triggers a false collision detection.

It also holds the line-by-line form of Protocol 7's exchange (lines 6-14: copy,
drop-and-attach, prune, age) that the detector's one-walk-per-tree exchange
must equal exactly: same return value, same trees in edge order, same random
stream.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sublinear.collision import HistoryTreeCollisionDetector
from repro.core.sublinear.history_tree import TreeNode, check_path_consistency
from repro.core.sublinear.protocol import SublinearState
from repro.engine.rng import make_rng

# -- the line-by-line reference ----------------------------------------------------------


def remove_depth_one_child(tree, name):
    """Line 7-8: remove any depth-1 subtree whose root is labelled ``name``."""
    tree.edges = [edge for edge in tree.edges if edge.child.name != name]


def remove_subtrees_named(tree, name):
    """Line 11-12: remove every subtree (at any depth) rooted at a node labelled ``name``."""
    tree.edges = [edge for edge in tree.edges if edge.child.name != name]
    for edge in tree.edges:
        remove_subtrees_named(edge.child, name)


def decrement_timers(tree):
    """Line 13-14: decrement every edge timer (floored at 0)."""
    for edge in tree.iter_edges():
        edge.timer = max(edge.timer - 1, 0)


def reference_live_paths(node, target_name, prefix):
    """Line 2: every live root path ending at ``target_name``, leaves visited too."""
    paths = []
    for edge in node.edges:
        if edge.timer <= 0:
            continue
        current = prefix + [edge]
        if edge.child.name == target_name:
            paths.append(current)
        paths.extend(reference_live_paths(edge.child, target_name, current))
    return paths


def reference_detect(detector, a, b, rng):
    """``HistoryTreeCollisionDetector.detect`` as Protocol 7 reads, line by line."""
    for owner, partner in ((a, b), (b, a)):
        for path in reference_live_paths(owner.tree, partner.name, []):
            if not check_path_consistency(partner.tree, path, owner.name):
                return True
    sync = int(rng.integers(1, detector.sync_values + 1))
    a_snapshot = a.tree.copy(detector.depth - 1)
    b_snapshot = b.tree.copy(detector.depth - 1)
    for owner, partner_snapshot, partner in ((a, b_snapshot, b), (b, a_snapshot, a)):
        remove_depth_one_child(owner.tree, partner.name)
        owner.tree.attach(partner_snapshot, sync, detector.timer_max)
    for owner in (a, b):
        remove_subtrees_named(owner.tree, owner.name)
    for owner in (a, b):
        decrement_timers(owner.tree)
    return False


def encode(tree):
    """A tree as nested ``(name, [(sync, timer, child), ...])`` in edge order."""
    return (tree.name, [(edge.sync, edge.timer, encode(edge.child)) for edge in tree.edges])


def node_ids(tree):
    return {id(tree)} | {id(edge.child) for edge in tree.iter_edges()}


def collecting(name, tree):
    return SublinearState(role="Collecting", name=name, roster=frozenset({name}), tree=tree)


def make_agents(count, detector):
    agents = []
    for index in range(count):
        name = f"agent{index}"
        agents.append(
            SublinearState(
                role="Collecting",
                name=name,
                roster=frozenset({name}),
                tree=detector.fresh_tree(name),
            )
        )
    return agents


@st.composite
def interaction_schedules(draw):
    count = draw(st.integers(min_value=3, max_value=7))
    length = draw(st.integers(min_value=1, max_value=60))
    schedule = []
    for _ in range(length):
        i = draw(st.integers(min_value=0, max_value=count - 1))
        j = draw(st.integers(min_value=0, max_value=count - 2))
        schedule.append((i, j + (j >= i)))
    return count, schedule


class TestHistoryTreeProperties:
    @given(interaction_schedules(), st.integers(min_value=1, max_value=3), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_safety_no_false_positives_from_clean_start(self, data, depth, seed):
        count, schedule = data
        detector = HistoryTreeCollisionDetector(count, depth=depth)
        agents = make_agents(count, detector)
        rng = make_rng(seed)
        for i, j in schedule:
            assert not detector.detect(agents[i], agents[j], rng)

    @given(interaction_schedules(), st.integers(min_value=1, max_value=3), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_structural_invariants_hold_throughout(self, data, depth, seed):
        count, schedule = data
        detector = HistoryTreeCollisionDetector(count, depth=depth)
        agents = make_agents(count, detector)
        rng = make_rng(seed)
        for i, j in schedule:
            detector.detect(agents[i], agents[j], rng)
            for agent in (agents[i], agents[j]):
                assert agent.tree.is_simply_labelled()
                assert agent.tree.depth() <= depth
                assert agent.tree.name == agent.name
                assert all(
                    edge.child.name != agent.name for edge in agent.tree.iter_edges()
                )
                assert all(
                    0 <= edge.timer <= detector.timer_max for edge in agent.tree.iter_edges()
                )

    @given(interaction_schedules(), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_duplicate_names_are_never_missed_forever(self, data, seed):
        """A weaker liveness sanity check: with a duplicate present, running
        the schedule plus a guaranteed intermediary meeting detects it."""
        count, schedule = data
        detector = HistoryTreeCollisionDetector(count + 1, depth=1)
        agents = make_agents(count, detector)
        impostor = SublinearState(
            role="Collecting",
            name=agents[0].name,
            roster=frozenset({agents[0].name}),
            tree=detector.fresh_tree(agents[0].name),
        )
        rng = make_rng(seed)
        detected = False
        for i, j in schedule:
            if detector.detect(agents[i], agents[j], rng):
                detected = True
        # Force the canonical detection chain: agent0 -> witness -> impostor.
        witness = agents[1]
        detected = detected or detector.detect(agents[0], witness, rng)
        detected = detected or detector.detect(witness, impostor, rng)
        assert detected


# -- the one-walk exchange equals the line-by-line reference -----------------------------

#: Four names, so partner-named and owner-named nodes turn up at every depth.
NAMES = ("a", "b", "c", "d")


@st.composite
def history_trees(draw, root, depth, timer_max):
    """Arbitrary (not necessarily simply labelled) trees of depth <= ``depth``."""
    tree = TreeNode(root)
    if depth > 0:
        for name in draw(st.lists(st.sampled_from(NAMES), max_size=3)):
            tree.attach(
                draw(history_trees(name, depth - 1, timer_max)),
                sync=draw(st.integers(1, 3)),
                timer=draw(st.sampled_from((-1, 0, 1, 2, timer_max))),
            )
    return tree


@st.composite
def exchanges(draw):
    """``(H, T_H, [agent_a, agent_b])``; the two names may be equal."""
    depth = draw(st.integers(1, 3))
    timer_max = draw(st.sampled_from((1, 2, 5)))
    agents = []
    for _ in range(2):
        name = draw(st.sampled_from(NAMES))
        tree = draw(history_trees(name, draw(st.integers(0, 4)), timer_max))
        agents.append(collecting(name, tree))
    return depth, timer_max, agents


class TestOneWalkExchange:
    @given(exchanges(), st.integers(0, 2**16))
    @settings(max_examples=300, deadline=None)
    def test_detect_equals_line_by_line_reference(self, exchange, seed):
        """Same result, trees (in edge order) and stream; no node shared."""
        depth, timer_max, agents = exchange
        detector = HistoryTreeCollisionDetector(
            8, depth=depth, sync_values=3, timer_max=timer_max
        )
        fused, reference = copy.deepcopy(agents), copy.deepcopy(agents)
        fused_rng, reference_rng = make_rng(seed), make_rng(seed)
        detected = detector.detect(*fused, fused_rng)
        assert detected == reference_detect(detector, *reference, reference_rng)
        assert [encode(agent.tree) for agent in fused] == [
            encode(agent.tree) for agent in reference
        ]
        assert fused_rng.bit_generator.state == reference_rng.bit_generator.state
        assert not node_ids(fused[0].tree) & node_ids(fused[1].tree)
