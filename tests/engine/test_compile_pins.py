"""Pinned compiled tables: exact arrays, interning order and probe work.

The compiler suites compare tables with ``delta()``, with each other and
across engines, so a change that reorders the state list or the probes the
same way everywhere can pass them.  Each case here compiles one protocol and
compares a sha256 with a literal recorded before the probe loop was rewritten.
The digest covers ``result_initiator``, ``result_responder``, ``changes``,
``packed_result``, ``branch_cumprob`` (when present) and the list of state
signatures in index order, so it pins the tables and the interning order.

The cases cover the generic closure (Optimal-Silent-SSR at the stress
constants, the reset wave at two sizes, Silent-n-state, fratricide, roll
call, the synthetic coin, the bounded epidemic), explicit branches (the lazy
epidemic), a product compiled from its factors, a composition closed by
probing its factors' branches, and Byzantine overlay tables.  Two more pin
the errors a randomized and an oversized protocol raise, and where.

The work-done checks count generator rewinds: a probe generator is reset to
its seeded start only when the previous probe drew from it.
"""

import hashlib

import numpy as np
import pytest

from repro.adversary.byzantine import ByzantineSpec, build_byzantine_overlay
from repro.core.composition import ComposedProtocol
from repro.core.fratricide import FratricideLeaderElection
from repro.core.propagate_reset import ResetWaveProtocol
from repro.core.silent_n_state import SilentNStateSSR
from repro.derandomize.synthetic_coin import SyntheticCoinProtocol
from repro.engine import compiled as compiled_module
from repro.engine.compiled import CompilationError, ProtocolCompiler
from repro.experiments.stress_experiments import make_stress_protocol
from repro.processes.bounded_epidemic import BoundedEpidemicProtocol
from repro.processes.roll_call import RollCallProtocol
from tests.engine.test_compiled import LazyEpidemicProtocol

#: Array channels of a table and the byte layout each is digested in.
CHANNELS = (
    ("result_initiator", "<i4"),
    ("result_responder", "<i4"),
    ("changes", "|b1"),
    ("packed_result", "<i8"),
    ("branch_cumprob", "<f8"),
)


def canonical(value):
    """A signature with every set replaced by a sorted tuple (hash-seed free)."""
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((canonical(item) for item in value), key=repr)))
    if isinstance(value, tuple):
        return tuple(canonical(item) for item in value)
    return value


def table_digest(compiled) -> str:
    digest = hashlib.sha256()
    for name, layout in CHANNELS:
        array = getattr(compiled, name)
        if array is None:
            continue
        digest.update(f"{name}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array, dtype=layout).tobytes())
    signatures = [canonical(compiled.protocol.state_signature(s)) for s in compiled.states]
    digest.update(repr(signatures).encode())
    return digest.hexdigest()


class ProbedComposition(ComposedProtocol):
    """A product the compiler closes by probing instead of composing: every
    pair's branches come from ``transition_branches``, whose deterministic
    layer is derived with ``probe_deterministic_branch``."""

    def compiled_factors(self):
        return None


class Copycat(LazyEpidemicProtocol):
    """Deterministic, but draws (and ignores the draw) when the initiator has bit 1."""

    name = "copycat"

    def transition(self, initiator, responder, rng):
        if initiator.bit == 1:
            rng.random()
        responder.bit = initiator.bit

    def transition_branches(self, initiator, responder):
        return None


def overlay(strategy):
    def build():
        protocol = SilentNStateSSR(6)
        base = ProtocolCompiler().compile(protocol)
        spec = ByzantineSpec(fraction=0.25, strategy=strategy)
        return build_byzantine_overlay(protocol, base, spec).compiled

    return build


#: ``id -> (build, states, sha256)``.
PINS = {
    "optimal-silent-stress-n8": (
        lambda: ProtocolCompiler().compile(make_stress_protocol("optimal-silent", 8)),
        185,
        "0d0f4974f2e13180c6024254f9fef3146f534118427e483f8ac4d00a0c8ad4e3",
    ),
    "reset-wave-n1e3": (
        lambda: ProtocolCompiler().compile(ResetWaveProtocol(1_000)),
        65,
        "d247b537b203d50322bd4ff7ed65bac5e9114458a031109f73beb01f4fddd90c",
    ),
    "reset-wave-n1e5": (
        lambda: ProtocolCompiler().compile(ResetWaveProtocol(100_000)),
        170,
        "fa457a6eaf1a137bc4fc70abb3e79ac07cdd426ba9e69b95e4df8fb2b3056ecb",
    ),
    "silent-n-state-n8": (
        lambda: ProtocolCompiler().compile(SilentNStateSSR(8)),
        8,
        "03161ac155e241e75a5405ec47c58f609ea54c46e9d449be56138c9a0bc25baa",
    ),
    "fratricide-n6": (
        lambda: ProtocolCompiler().compile(FratricideLeaderElection(6)),
        2,
        "bdd62e99f0248aeb8e10c193ced884f128696b033dfa34baf2b0d0467fd22d2d",
    ),
    "roll-call-n4": (
        lambda: ProtocolCompiler().compile(RollCallProtocol(4)),
        32,
        "8af91ff3f999a04afa22e5cd26a4e27b1e1f5dadfe85f7c224a97d2181711403",
    ),
    "synthetic-coin-n8-bits3": (
        lambda: ProtocolCompiler().compile(SyntheticCoinProtocol(8, bits_needed=3)),
        30,
        "2d92967f86bb8d336f15565d242232137fc3ed265181d2d58779a7b1d890297d",
    ),
    "bounded-epidemic-n20-k2": (
        lambda: ProtocolCompiler().compile(BoundedEpidemicProtocol(20, k=2)),
        21,
        "8942706af0e41b0ab182b0290f572680b6211420c63ec91e1fa162554197a491",
    ),
    "lazy-epidemic-explicit-branches": (
        lambda: ProtocolCompiler().compile(LazyEpidemicProtocol(10, p=0.25)),
        2,
        "4cb8dca8e6fd82c946fa666de444fd15bf6a59b9cf32003be064fdcb41701921",
    ),
    "composed-product-fratricide-x-silent-n-state": (
        lambda: ProtocolCompiler().compile(
            ComposedProtocol(FratricideLeaderElection(6), SilentNStateSSR(6))
        ),
        12,
        "5d595315941a1342ddc37f52cd7306d809331b2029fd9910edcde8df614e34c6",
    ),
    "composed-by-probing-lazy-x-fratricide": (
        lambda: ProtocolCompiler().compile(
            ProbedComposition(LazyEpidemicProtocol(6, p=0.25), FratricideLeaderElection(6))
        ),
        4,
        "30783c8a875da0e857f1a780e054ec3012c1b23b94b957032e1f9fb55e1add2b",
    ),
    "copycat-draws-on-some-probes": (
        lambda: ProtocolCompiler().compile(Copycat(4)),
        2,
        "0ad5e445eebadbc318548cc6ba593330ebb1d3c6390aaa2ffbf02462bb586e69",
    ),
    "byzantine-worst-case": (
        overlay("worst_case"),
        12,
        "565286d3fb67bdafdb8003cff60234f3bfb2e6a012d63c8dc5a12ca5dac12087",
    ),
    "byzantine-cheat-then-punish": (
        overlay("cheat_then_punish"),
        18,
        "acf017ab8819249815fec50bba1c58d4b39e1833526b9e883e6879642bed3a00",
    ),
}


@pytest.mark.parametrize("case", list(PINS))
def test_table_is_pinned(case):
    build, states, expected = PINS[case]
    compiled = build()
    assert compiled.num_states == states
    assert table_digest(compiled) == expected


def test_randomized_transition_raises_at_the_same_pair():
    # Only the pair (infected, susceptible) draws; the first draws of seeds
    # 11 and 17 (0.129, 0.845) fall on either side of p = 0.25.
    with pytest.raises(CompilationError) as raised:
        ProtocolCompiler().compile(LazyEpidemicProtocol(10, declare_branches=False))
    assert str(raised.value) == (
        "lazy-epidemic: transition() is randomized (probe outcomes differ for pair "
        "BitState(bit=1), BitState(bit=0)); implement transition_branches() to "
        "expose the branch probabilities"
    )


def test_oversized_closure_raises_after_the_same_probes(monkeypatch):
    calls = []
    transition = RollCallProtocol.transition

    def counting(self, initiator, responder, rng):
        calls.append(1)
        return transition(self, initiator, responder, rng)

    monkeypatch.setattr(RollCallProtocol, "transition", counting)
    with pytest.raises(CompilationError) as raised:
        ProtocolCompiler(max_states=20).compile(RollCallProtocol(4))
    assert str(raised.value) == "roll-call: state space exceeds max_states=20 during closure"
    assert len(calls) == 50


class CountingPCG64(np.random.PCG64):
    """PCG64 that counts assignments to ``state``: the compiler's rewinds."""

    assignments = 0

    @property
    def state(self):
        return np.random.PCG64.state.__get__(self)

    @state.setter
    def state(self, value):
        CountingPCG64.assignments += 1
        np.random.PCG64.state.__set__(self, value)


@pytest.fixture
def rewinds(monkeypatch):
    """Build every probe generator on a :class:`CountingPCG64`; read the count."""
    monkeypatch.setattr(
        compiled_module, "make_rng", lambda seed: np.random.Generator(CountingPCG64(seed))
    )
    CountingPCG64.assignments = 0
    return lambda: CountingPCG64.assignments


class TestRewinds:
    @pytest.mark.parametrize(
        "make,states",
        [(lambda: SilentNStateSSR(8), 8), (lambda: ResetWaveProtocol(1_000), 65)],
        ids=["silent-n-state", "reset-wave"],
    )
    def test_a_deterministic_compile_rewinds_no_generator(self, make, states, rewinds):
        # Rewinding both generators before every probe would make this 2 S^2.
        compiled = ProtocolCompiler().compile(make())
        assert compiled.num_states == states
        assert rewinds() == 0

    def test_rewinds_follow_only_the_probes_that_drew(self, rewinds):
        # Copycat draws on the pairs (1, 0) and (1, 1), probed third and
        # fourth with two generators each: the probes of (1, 1) follow a
        # probe that drew, so each generator is rewound once.
        compiled = ProtocolCompiler().compile(Copycat(4))
        assert compiled.num_states == 2
        assert rewinds() == 2
