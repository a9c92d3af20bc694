"""Unit tests for the AgentState base class."""

import copy
import importlib
import pickle
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.adversary.byzantine import TaggedState
from repro.core.composition import ComposedProtocol, ComposedState
from repro.core.epsilon_consensus import EpsilonConsensusProtocol, EpsilonConsensusState
from repro.core.fratricide import FratricideLeaderElection, FratricideState
from repro.core.initialized_ranking import (
    InitializedLeaderDrivenRanking,
    InitializedRankingState,
)
from repro.core.observation25 import ThreeAgentSSLEWithoutRanking, ThreeAgentState
from repro.core.optimal_silent import OptimalSilentSSR, OptimalSilentState
from repro.core.propagate_reset import ResetWaveProtocol, ResetWaveState
from repro.core.silent_n_state import SilentNStateSSR, SilentNStateState
from repro.core.sublinear import SublinearTimeSSR
from repro.core.sublinear.protocol import SublinearState
from repro.derandomize.synthetic_coin import SyntheticCoinProtocol, SyntheticCoinState
from repro.engine.rng import make_rng
from repro.engine.state import AgentState, _freeze
from repro.processes.bounded_epidemic import BoundedEpidemicProtocol, LevelState
from repro.processes.epidemic import EpidemicState, TwoWayEpidemicProtocol
from repro.processes.roll_call import RollCallProtocol, RollCallState


class Example(AgentState):
    def __init__(self, rank=0, tags=None, _cache=None):
        self.rank = rank
        self.tags = tags if tags is not None else []
        self._cache = _cache


class TestFields:
    def test_fields_excludes_private_attributes(self):
        state = Example(rank=3, _cache="hidden")
        assert state.fields() == {"rank": 3, "tags": []}

    def test_fields_reflect_mutation(self):
        state = Example(rank=1)
        state.rank = 7
        assert state.fields()["rank"] == 7


class TestSignatureAndEquality:
    def test_equal_states_have_equal_signatures(self):
        assert Example(rank=2, tags=[1, 2]).signature() == Example(rank=2, tags=[1, 2]).signature()

    def test_different_states_have_different_signatures(self):
        assert Example(rank=2).signature() != Example(rank=3).signature()

    def test_private_fields_do_not_affect_signature(self):
        assert Example(rank=2, _cache="a").signature() == Example(rank=2, _cache="b").signature()

    def test_equality_and_hash(self):
        a, b = Example(rank=5), Example(rank=5)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Example(rank=6)

    def test_equality_against_non_state(self):
        assert Example(rank=1) != 42

    def test_different_types_are_not_equal(self):
        class Other(AgentState):
            def __init__(self):
                self.rank = 1

        assert Example(rank=1) != Other()

    def test_signature_is_hashable_with_nested_containers(self):
        state = Example(rank=1, tags=[{"a": 1}, {2, 3}, (4, [5])])
        hash(state.signature())


class TestClone:
    def test_clone_is_deep(self):
        state = Example(rank=1, tags=[1, 2])
        copy = state.clone()
        copy.tags.append(3)
        assert state.tags == [1, 2]

    def test_clone_preserves_equality(self):
        state = Example(rank=4, tags=["x"])
        assert state.clone() == state


class TestCloneContract:
    """The default clone copies the field dict and deep-copies the rest."""

    def test_nested_fields_are_independent(self):
        state = Example(rank=1, tags=[[1], {"a": [2]}, Example(rank=2, tags=[3])])
        twin = state.clone()
        twin.tags[0].append(9)
        twin.tags[1]["a"].append(9)
        twin.tags[2].tags.append(9)
        assert state.tags == [[1], {"a": [2]}, Example(rank=2, tags=[3])]
        assert twin.tags[2] is not state.tags[2]

    def test_aliasing_between_fields_is_preserved(self):
        shared = [1, 2]
        state = Example(rank=1, tags=shared, _cache=shared)
        twin = state.clone()
        assert twin.tags is twin._cache
        assert twin.tags is not shared

    def test_self_reference_points_at_the_clone(self):
        state = Example(rank=1)
        state.tags = [state]
        twin = state.clone()
        assert twin.tags[0] is twin

    def test_private_fields_are_copied(self):
        state = Example(rank=1, _cache={"hits": [1]})
        twin = state.clone()
        assert twin._cache == {"hits": [1]}
        assert twin._cache is not state._cache

    def test_scalars_are_shared_not_copied(self):
        big = 10**30
        state = Example(rank=big, tags=None, _cache="text")
        twin = state.clone()
        assert twin.rank is big and twin._cache is state._cache

    def test_tagged_state_clones_through_getattr(self):
        state = TaggedState(1, OptimalSilentState(role="Settled", rank=3, children=0))
        twin = state.clone()
        assert type(twin) is TaggedState
        assert twin.base is not state.base
        assert twin.signature() == state.signature()
        assert twin.rank == 3  # reads still fall through to the base state

    @pytest.mark.parametrize(
        "hook", ["__getstate__", "__setstate__", "__deepcopy__", "__reduce__", "__slots__"]
    )
    def test_copy_hooks_keep_deepcopy(self, hook, monkeypatch):
        calls = []
        real_deepcopy = copy.deepcopy

        def recording_deepcopy(value, memo=None):
            calls.append(value)
            return real_deepcopy(value, memo)

        namespace = {"__init__": lambda self: setattr(self, "rank", 1)}
        if hook == "__slots__":
            namespace["__slots__"] = ("extra",)
        elif hook == "__getstate__":
            namespace[hook] = lambda self: dict(vars(self))
        elif hook == "__setstate__":
            namespace[hook] = lambda self, state: vars(self).update(state)
        elif hook == "__deepcopy__":
            namespace[hook] = lambda self, memo: type(self)()
        else:
            namespace[hook] = lambda self: (type(self), ())
        cls = type("Hooked", (Example,), namespace)
        assert cls._clone_by_deepcopy
        assert type("Child", (cls,), {})._clone_by_deepcopy
        monkeypatch.setattr(copy, "deepcopy", recording_deepcopy)
        state = cls()
        twin = state.clone()
        assert calls and calls[0] is state
        assert type(twin) is cls and twin.rank == 1

    def test_plain_subclasses_take_the_dict_path(self):
        assert not Example._clone_by_deepcopy
        assert not TaggedState._clone_by_deepcopy


def _source_state_classes():
    """Every AgentState subclass defined under ``src/repro``."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    found, pending = set(), [AgentState]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                pending.append(sub)
    return {cls for cls in found if cls.__module__.startswith("repro.")}


def _states(protocol, start):
    """States a protocol reaches: random starts evolved by a few transitions."""

    def build(seed):
        rng = make_rng(seed)
        population = [start(protocol, rng) for _ in range(3)]
        for _ in range(int(rng.integers(0, 8))):
            i, j = rng.choice(3, size=2, replace=False)
            protocol.transition(population[i], population[j], rng)
        return population[int(rng.integers(3))]

    return st.integers(0, 2**32 - 1).map(build)


def _random(protocol):
    return _states(protocol, lambda protocol, rng: protocol.random_state(rng))


def _enumerated(protocol):
    def start(protocol, rng):
        choices = protocol.enumerate_states()
        return choices[int(rng.integers(len(choices)))].clone()

    return _states(protocol, start)


#: One state source per AgentState subclass in ``src/``.
STATE_SOURCES = {
    ComposedState: _random(ComposedProtocol(FratricideLeaderElection(6), SilentNStateSSR(6))),
    EpidemicState: _enumerated(TwoWayEpidemicProtocol(6)),
    EpsilonConsensusState: _random(EpsilonConsensusProtocol(8)),
    FratricideState: _random(FratricideLeaderElection(6)),
    InitializedRankingState: _random(InitializedLeaderDrivenRanking(8)),
    LevelState: _enumerated(BoundedEpidemicProtocol(6)),
    OptimalSilentState: _random(OptimalSilentSSR(8)),
    ResetWaveState: _random(ResetWaveProtocol(16)),
    RollCallState: _enumerated(RollCallProtocol(4)),
    SilentNStateState: _random(SilentNStateSSR(8)),
    SublinearState: _random(SublinearTimeSSR(6, depth=2, rmax_multiplier=2.5)),
    SyntheticCoinState: _random(SyntheticCoinProtocol(8, bits_needed=3)),
    TaggedState: st.builds(TaggedState, st.integers(0, 2), _random(OptimalSilentSSR(8))),
    ThreeAgentState: _random(ThreeAgentSSLEWithoutRanking()),
}

_ATOMIC = (int, float, bool, str, bytes, type(None))


def test_every_source_state_class_has_a_source():
    assert set(STATE_SOURCES) == _source_state_classes()


@pytest.mark.parametrize("state_class", list(STATE_SOURCES), ids=lambda cls: cls.__name__)
def test_default_clone_matches_deepcopy(state_class):
    @settings(max_examples=30, deadline=None)
    @given(STATE_SOURCES[state_class])
    def check(state):
        assert type(state) is state_class
        twin, reference = AgentState.clone(state), copy.deepcopy(state)
        assert type(twin) is state_class
        assert list(vars(twin)) == list(vars(reference))
        for name, value in vars(state).items():
            # Shared exactly where deepcopy shares (scalars, all-atomic tuples).
            assert (vars(twin)[name] is value) == (vars(reference)[name] is value)
            if type(value) not in _ATOMIC:
                assert vars(twin)[name] is not value or isinstance(value, tuple)
        assert pickle.dumps(twin) == pickle.dumps(reference)
        assert state.clone() == state  # an override, where there is one, agrees

    check()


class TestFreeze:
    def test_freeze_dict_is_order_insensitive(self):
        assert _freeze({"a": 1, "b": 2}) == _freeze({"b": 2, "a": 1})

    def test_freeze_handles_nested_state(self):
        inner = Example(rank=9)
        assert _freeze([inner]) == (inner.signature(),)


class TestRepr:
    def test_repr_contains_fields(self):
        text = repr(Example(rank=3))
        assert "rank=3" in text and "Example" in text
