"""Pinned loop-engine runs: the exact outcome, final states and random stream.

Each case runs one protocol on the loop engine from a fixed seed until it
stabilizes, then on for a fixed number of interactions, and compares three
things with literals recorded from the line-by-line Protocol 7 exchange:

* ``(interactions, reason)`` of the stabilization run;
* a sha256 of the final configuration in a canonical encoding;
* the generator's PCG64 state integer.

A speedup of the transitions, the reset machinery or the scheduler must leave
all three unchanged.  Rosters are frozensets, whose ``repr`` order depends on
``PYTHONHASHSEED``, so the encoding sorts them; history trees are encoded in
edge order, which the protocol defines.
"""

import hashlib
import math

import pytest

from repro.adversary.initial_configs import corrupted_tree_configuration
from repro.core.optimal_silent import OptimalSilentSSR
from repro.core.propagate_reset import ResetWaveProtocol
from repro.core.sublinear import SublinearTimeSSR
from repro.core.sublinear.history_tree import TreeNode
from repro.engine.rng import make_rng
from repro.engine.simulation import Simulation


def canonical(value):
    """Field values with a fixed encoding: sorted sets, trees in edge order."""
    if isinstance(value, TreeNode):
        edges = [(edge.sync, edge.timer, canonical(edge.child)) for edge in value.edges]
        return (value.name, edges)
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return value


def configuration_digest(configuration):
    states = [
        sorted((field, canonical(value)) for field, value in state.fields().items())
        for state in configuration
    ]
    return hashlib.sha256(repr(states).encode()).hexdigest()


def sublinear(n, depth, start):
    def build(rng):
        protocol = SublinearTimeSSR(n, depth=depth, rmax_multiplier=3.0)
        if start == "planted":
            return protocol, protocol.planted_collision_configuration(rng)
        if start == "random":
            return protocol, protocol.random_configuration(rng)
        return protocol, corrupted_tree_configuration(protocol, rng)

    return build


def optimal_silent_random(rng):
    protocol = OptimalSilentSSR(16)
    return protocol, protocol.random_configuration(rng)


def reset_wave_triggered(rng):
    protocol = ResetWaveProtocol(50)
    return protocol, protocol.triggered_configuration()


#: id -> (build(rng) -> (protocol, start), seed, interactions after stabilizing,
#: ((interactions, reason), final-state sha256, generator state)).
PINS = {
    "sublinear-planted-n16-H1": (
        sublinear(16, 1, "planted"), 7, 2048, (
            (720, "stabilized"),
            "bb7caad6427dff01a6e3855642042db43c3a53dbca0c5dc0e2d4a644e7d937eb",
            205693360522149577432421427374765237471,
        ),
    ),
    "sublinear-random-n12-Hlog": (
        sublinear(12, math.ceil(math.log2(12)), "random"), 11, 48, (
            (468, "stabilized"),
            "7fe19816b2f51f9ccd24994e1efd164b95727cb5273ee1f66f45749c823aa1e0",
            123195170497543002115626699941325834169,
        ),
    ),
    "sublinear-corrupted-n16-H2": (
        sublinear(16, 2, "corrupted"), 13, 512, (
            (752, "stabilized"),
            "60c1f09210fad92ae91b4cfcb471a4cbbf8aec89813c1ebbe4e7feaebc924f79",
            151772248214783518408597812395363922754,
        ),
    ),
    "sublinear-direct-n16-H0": (
        sublinear(16, 0, "planted"), 17, 2048, (
            (1056, "stabilized"),
            "91394636eee3e6d3f951532b357f46d4cf5aa0b0492eee065021cf810a23be1c",
            71808090803850001264500123609107688571,
        ),
    ),
    "optimal-silent-random-n16": (
        optimal_silent_random, 19, 256, (
            (2864, "stabilized"),
            "812ecb66905653c1a9f697673716b0b7b7c8f399c31c9bce4005934e6c67d25f",
            186688905828096943233309962415710429478,
        ),
    ),
    "reset-wave-triggered-n50": (
        reset_wave_triggered, 23, 200, (
            (350, "stabilized"),
            "b67ea71b04a1680b11782419d322083a35f72fb34121f1f86ea5eecec0b374f7",
            219481301138995873145458787674327516304,
        ),
    ),
}


def fingerprint(build, seed, extra):
    rng = make_rng(seed)
    protocol, configuration = build(rng)
    simulation = Simulation(protocol, configuration=configuration, rng=rng)
    result = simulation.run_until_stabilized(
        max_interactions=100 * protocol.n ** 2, check_interval=protocol.n
    )
    simulation.run(extra)
    return (
        (result.interactions, result.reason),
        configuration_digest(simulation.configuration),
        rng.bit_generator.state["state"]["state"],
    )


@pytest.mark.parametrize("case", sorted(PINS))
def test_loop_run_matches_pin(case):
    build, seed, extra, expected = PINS[case]
    assert fingerprint(build, seed, extra) == expected
