"""The compile memo: one table per protocol content, never shared wrongly.

``ProtocolCompiler.compile`` keeps its last finished table keyed by the
compiler settings, the protocol class and ``pickle.dumps(protocol)``.  These tests pin
what that key may and may not share, and gate the memo on a counter (the
second compile calls ``transition()`` zero times) rather than on a clock.
The autouse fixture in ``tests/conftest.py`` empties the memo around every
test.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.optimal_silent import OptimalSilentSSR
from repro.core.silent_n_state import SilentNStateSSR
from repro.engine import compiled as compiled_module
from repro.engine.compiled import CompilationError, ProtocolCompiler
from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import make_rng
from repro.engine.state import AgentState
from repro.processes.bounded_epidemic import BoundedEpidemicProtocol
from repro.telemetry import metrics
ARRAYS = ("result_initiator", "result_responder", "changes", "packed_result")


@pytest.fixture
def transitions(monkeypatch):
    """Count ``transition()`` calls of a protocol class (patched on the class,
    so the instances' pickled content -- the memo key -- is unchanged)."""

    def install(cls):
        calls = []
        original = cls.transition

        def counting(self, initiator, responder, rng):
            calls.append(1)
            return original(self, initiator, responder, rng)

        monkeypatch.setattr(cls, "transition", counting)
        return calls

    return install


def small_optimal_silent(dmax_factor: float = 2.0) -> OptimalSilentSSR:
    """Optimal-Silent-SSR at n=4 with tiny constants: a table of under 100 states."""
    return OptimalSilentSSR(4, rmax_multiplier=1.0, dmax_factor=dmax_factor, emax_factor=2.0)


def compile_outcomes(build):
    """Run ``build`` with telemetry on; return ``repro_compiles_total`` by outcome."""
    metrics.reset_registry()
    with metrics.telemetry_session():
        build()
    outcomes = {
        sample["labels"]["outcome"]: sample["value"]
        for sample in metrics.registry().snapshot()["samples"]
        if sample["name"] == "repro_compiles_total"
    }
    metrics.reset_registry()
    return outcomes


def assert_same_table(left, right):
    assert left.num_states == right.num_states
    assert [left.protocol.state_signature(s) for s in left.states] == [
        right.protocol.state_signature(s) for s in right.states
    ]
    for name in ARRAYS:
        np.testing.assert_array_equal(getattr(left, name), getattr(right, name))


class BitState(AgentState):
    def __init__(self, bit: int):
        self.bit = int(bit)


class CoinProtocol(PopulationProtocol):
    """Sets the responder's bit with a fair coin, branches declared: a randomized table."""

    name = "coin"

    def initial_state(self, agent_id, rng):
        return BitState(0)

    def transition(self, initiator, responder, rng):
        responder.bit = int(rng.random() < 0.5)

    def transition_branches(self, initiator, responder):
        return [(0.5, initiator, BitState(0)), (0.5, initiator.clone(), BitState(1))]

    def is_correct(self, configuration):
        return True

    def enumerate_states(self):
        return [BitState(0), BitState(1)]


class DrawRecorder(PopulationProtocol):
    """Deterministic whatever the draw, but records the first draw of every probe."""

    name = "draw-recorder"
    draws = []

    def initial_state(self, agent_id, rng):
        return BitState(0)

    def transition(self, initiator, responder, rng):
        DrawRecorder.draws.append(rng.random())
        responder.bit = initiator.bit

    def is_correct(self, configuration):
        return True

    def enumerate_states(self):
        return [BitState(0), BitState(1)]


class LambdaHolder(SilentNStateSSR):
    """A Silent-n-state protocol carrying an attribute pickle refuses."""

    def __init__(self, n):
        super().__init__(n)
        self.hook = lambda state: state


class TestSharing:
    def test_equal_protocols_share_one_table(self, transitions):
        calls = transitions(SilentNStateSSR)
        first_protocol, second_protocol = SilentNStateSSR(12), SilentNStateSSR(12)
        first = ProtocolCompiler().compile(first_protocol)
        built_calls = len(calls)
        assert built_calls > 0
        second = ProtocolCompiler().compile(second_protocol)
        assert len(calls) == built_calls  # the counter gate: no transition() at all
        for name in ARRAYS:
            assert getattr(second, name) is getattr(first, name)
        assert second.states is first.states
        assert first.protocol is first_protocol
        assert second.protocol is second_protocol

    def test_hit_equals_a_fresh_compile(self):
        memoized = ProtocolCompiler().compile(small_optimal_silent())
        hit = ProtocolCompiler().compile(small_optimal_silent())
        compiled_module.clear_compile_memo()
        fresh = ProtocolCompiler().compile(small_optimal_silent())
        assert fresh.result_initiator is not memoized.result_initiator
        assert_same_table(hit, fresh)

    def test_outcomes_are_counted(self):
        def build():
            ProtocolCompiler().compile(SilentNStateSSR(6))
            ProtocolCompiler().compile(SilentNStateSSR(6))
            ProtocolCompiler().compile(LambdaHolder(6))

        assert compile_outcomes(build) == {"built": 1, "memo_hit": 1, "unkeyed": 1}

    @pytest.mark.parametrize(
        "cls,make,low,high",
        [
            (OptimalSilentSSR, small_optimal_silent, 2, 3),
            (BoundedEpidemicProtocol, lambda value: BoundedEpidemicProtocol(20, k=value), 1, 2),
        ],
        ids=["optimal-silent-dmax_factor", "bounded-epidemic-k"],
    )
    def test_never_shared_across_constructor_parameters(
        self, cls, make, low, high, transitions
    ):
        calls = transitions(cls)
        first = ProtocolCompiler().compile(make(low))
        before = len(calls)
        second = ProtocolCompiler().compile(make(high))
        assert len(calls) > before  # built, not looked up
        assert second.result_initiator is not first.result_initiator
        compiled_module.clear_compile_memo()
        assert_same_table(second, ProtocolCompiler().compile(make(high)))

    @pytest.mark.parametrize(
        "settings",
        [{"max_states": 100}, {"probe_seeds": (11, 17, 23)}, {"probability_tolerance": 1e-6}],
        ids=["max_states", "probe_seeds", "probability_tolerance"],
    )
    def test_never_shared_across_compiler_settings(self, settings, transitions):
        calls = transitions(SilentNStateSSR)
        first = ProtocolCompiler().compile(SilentNStateSSR(8))
        before = len(calls)
        second = ProtocolCompiler(**settings).compile(SilentNStateSSR(8))
        assert len(calls) > before
        assert second.result_initiator is not first.result_initiator
        assert_same_table(first, second)

    def test_only_the_last_table_is_held(self, transitions):
        calls = transitions(SilentNStateSSR)
        compiler = ProtocolCompiler()
        compiler.compile(SilentNStateSSR(6))
        compiler.compile(SilentNStateSSR(7))
        before = len(calls)
        compiler.compile(SilentNStateSSR(7))
        assert len(calls) == before
        compiler.compile(SilentNStateSSR(6))
        assert len(calls) > before


class TestNotMemoized:
    def test_unpicklable_protocol_compiles_every_call(self, transitions):
        calls = transitions(SilentNStateSSR)
        first = ProtocolCompiler().compile(LambdaHolder(6))
        before = len(calls)
        second = ProtocolCompiler().compile(LambdaHolder(6))
        assert len(calls) == 2 * before
        assert second.result_initiator is not first.result_initiator
        assert_same_table(first, second)
        assert compiled_module._last_table is None

    def test_compilation_error_is_raised_again(self, transitions):
        calls = transitions(SilentNStateSSR)
        compiler = ProtocolCompiler(max_states=10)
        with pytest.raises(CompilationError, match="max_states"):
            compiler.compile(SilentNStateSSR(32))
        before = len(calls)
        with pytest.raises(CompilationError, match="max_states"):
            compiler.compile(SilentNStateSSR(32))
        assert len(calls) == 2 * before
        assert compiled_module._last_table is None


class TestReadOnly:
    def test_memoized_arrays_reject_writes(self):
        compiled = ProtocolCompiler().compile(SilentNStateSSR(6))
        for name in ARRAYS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(compiled, name)[0] = 0

    def test_branch_channel_rejects_writes(self):
        compiled = ProtocolCompiler().compile(CoinProtocol(4))
        assert compiled.branch_cumprob is not None
        with pytest.raises(ValueError, match="read-only"):
            compiled.branch_cumprob[0, 0] = 0.5


class TestThreads:
    def test_threads_get_equal_tables(self):
        """Eight threads (more than cores), two protocols, fast switching."""
        makers = [small_optimal_silent, lambda: SilentNStateSSR(20)]
        references = [ProtocolCompiler().compile(make()) for make in makers]
        compiled_module.clear_compile_memo()
        barrier = threading.Barrier(8)
        tables, errors = [None] * 8, []

        def work(slot):
            try:
                barrier.wait(timeout=30)
                tables[slot] = ProtocolCompiler().compile(makers[slot % 2]())
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for slot, table in enumerate(tables):
            assert_same_table(references[slot % 2], table)


class TestProbes:
    def test_every_probe_sees_a_freshly_seeded_stream(self):
        DrawRecorder.draws = []
        ProtocolCompiler(probe_seeds=(11, 17)).compile(DrawRecorder(4))
        first_draws = {make_rng(11).random(), make_rng(17).random()}
        assert len(DrawRecorder.draws) == 2 * 4  # two probes per ordered pair
        assert set(DrawRecorder.draws) == first_draws
