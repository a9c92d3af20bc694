"""Pinned trial-batched runs: exact results, final rows and random streams.

The rest of the trial-batch suite compares the batched engines with
themselves (batch sizes, worker layouts, a trial run alone), so a change that
alters the stream in the same way everywhere passes it.  Each case here runs
one batch from fixed seeds and compares three things with literals recorded
before the batched check loop moved into the engine core:

* every trial's ``(interactions, stopped, reason)``;
* a sha256 of the final ``state_rows`` (compiled) or ``count_rows`` (counts);
* the PCG64 state integer of every trial generator (compiled) or of the one
  batch generator (counts).

The cases cover the two-way epidemic, branch draws (the lazy epidemic), a
stop predicate that decodes an identity-dependent configuration, interaction
caps with a custom ``check_interval``, ``max_interactions=0`` with a trial
that is correct from the start, and the all-triggered reset wave on counts.
"""

import hashlib

import numpy as np
import pytest

from repro.core.propagate_reset import ResetWaveProtocol
from repro.engine.compiled import ProtocolCompiler
from repro.engine.rng import spawn_rngs
from repro.engine.run_config import RunConfig
from repro.engine.trial_batch import CountsTrialBatchSimulation, TrialBatchSimulation
from repro.processes.bounded_epidemic import BoundedEpidemicProtocol
from repro.processes.epidemic import TwoWayEpidemicProtocol
from tests.engine.test_engine_equivalence import LazyEpidemicProtocol


class DecodedEpidemic(TwoWayEpidemicProtocol):
    """The two-way epidemic without its counts fast path: every stop check
    decodes a configuration (identity-free, so exact on counts as well)."""

    def compiled_predicates(self):
        return {}


def rows_digest(rows) -> str:
    return hashlib.sha256(np.ascontiguousarray(rows, dtype="<i8").tobytes()).hexdigest()


def generator_state(rng) -> int:
    return rng.bit_generator.state["state"]["state"]


def outcome(results):
    return [(result.interactions, result.stopped, result.reason) for result in results]


def compiled_run(protocol, seed, trials, stop="correct", rows=None, **config):
    """Seed each trial from its own generator, as the harness does, then run."""
    rngs = spawn_rngs(seed, trials)
    if rows is None:
        configurations = [protocol.initial_configuration(rng) for rng in rngs]
        simulation = TrialBatchSimulation(protocol, rngs, configurations=configurations)
    else:
        simulation = TrialBatchSimulation(protocol, rngs, indices=np.asarray(rows))
    results = simulation.run(RunConfig(engine="compiled", stop=stop, **config))
    return (
        outcome(results),
        rows_digest(simulation.state_rows),
        [generator_state(rng) for rng in rngs],
    )


def counts_run(protocol, seed, counts, stop="correct", **config):
    rng = np.random.default_rng(seed)
    simulation = CountsTrialBatchSimulation(protocol, np.asarray(counts), rng=rng)
    results = simulation.run(RunConfig(engine="counts", stop=stop, **config))
    return outcome(results), rows_digest(simulation.count_rows), [generator_state(rng)]


def one_infected_rows(n, trials, *, all_infected=()):
    """Epidemic index rows (state 1 = infected): agent 0 infected, or everyone."""
    rows = np.zeros((trials, n), dtype=np.int32)
    rows[:, 0] = 1
    rows[list(all_infected)] = 1
    return rows


def reset_wave_counts(n, trials):
    """Every agent freshly triggered, in every trial (a maximal wave)."""
    protocol = ResetWaveProtocol(n)
    compiled = ProtocolCompiler().compile(protocol)
    counts = np.zeros((trials, compiled.num_states), dtype=np.int64)
    counts[:, compiled.encode_state(protocol.triggered_state())] = n
    return counts


CASES = {
    "compiled-epidemic": lambda: compiled_run(TwoWayEpidemicProtocol(256), 41, 4),
    "compiled-lazy-epidemic-branches": lambda: compiled_run(
        LazyEpidemicProtocol(64, p=0.25), 43, 4
    ),
    "compiled-bounded-epidemic-decoded": lambda: compiled_run(
        BoundedEpidemicProtocol(48, k=2), 47, 3
    ),
    "compiled-cap-custom-check": lambda: compiled_run(
        TwoWayEpidemicProtocol(64), 53, 4, max_interactions=300, check_interval=37
    ),
    "compiled-cap-zero": lambda: compiled_run(
        TwoWayEpidemicProtocol(32), 59, 3,
        rows=one_infected_rows(32, 3, all_infected=(1,)), max_interactions=0,
    ),
    "counts-reset-wave-n1e4": lambda: counts_run(
        ResetWaveProtocol(10_000), 61, reset_wave_counts(10_000, 2)
    ),
    "counts-lazy-epidemic-branches": lambda: counts_run(
        LazyEpidemicProtocol(1000, p=0.25), 67, [[999, 1]] * 4
    ),
    "counts-cap-custom-check": lambda: counts_run(
        TwoWayEpidemicProtocol(10_000), 71, [[9_999, 1]] * 3,
        max_interactions=20_000, check_interval=3_001,
    ),
    "counts-decoded-predicate": lambda: counts_run(
        DecodedEpidemic(500), 73, [[499, 1], [0, 500], [490, 10]]
    ),
}


#: id -> (per-trial (interactions, stopped, reason), final-rows sha256,
#: generator state integers).
PINS = {
    "compiled-bounded-epidemic-decoded": (
        [
            (96, True, "correct"),
            (432, True, "correct"),
            (288, True, "correct"),
        ],
        "64c65721f7478ce631213a87cb3404192b21140ca59ed62953827eb92f63c048",
        [
            114903204644998806208002677141896049246,
            232901339587373092339808135065092770373,
            279460995209538738003412967622258930112,
        ],
    ),
    "compiled-cap-custom-check": (
        [
            (296, True, "correct"),
            (259, True, "correct"),
            (300, False, "cap"),
            (300, False, "cap"),
        ],
        "d6b3c7ff5acbb8070805098796e67ecd242126740aa17cb264670027d147a378",
        [
            283798735559924053199239272150023130872,
            512807499077109721919639870202964464,
            97567221525136644907650073875313153815,
            197087340764174578438902360412251899821,
        ],
    ),
    "compiled-cap-zero": (
        [
            (0, False, "cap"),
            (0, True, "correct"),
            (0, False, "cap"),
        ],
        "8678a9487b78a976d23d0852f787c34d73174b4e545abeaf4157d1fc9299dd8c",
        [
            158718872457838647325222535807074689792,
            23449219741479156209499611189451306464,
            40067964699382521687589355771314580112,
        ],
    ),
    "compiled-epidemic": (
        [
            (1792, True, "correct"),
            (1792, True, "correct"),
            (1792, True, "correct"),
            (1792, True, "correct"),
        ],
        "bbddeafcfd3170bd6f6ce9e912a0dae026d243f2364b3d76791e06e0881c397c",
        [
            44796118759209215764668841075925561898,
            135029992959227891271475788725814589148,
            207422308484903156636416373122592492293,
            189117880595269454068728836770193548460,
        ],
    ),
    "compiled-lazy-epidemic-branches": (
        [
            (2112, True, "correct"),
            (2944, True, "correct"),
            (2048, True, "correct"),
            (2624, True, "correct"),
        ],
        "924ae03b6111734d8ab1d2d4c88ec6a7da5ba6612c50b2f0e3c27d0511980e0f",
        [
            112367549722046132993925817406302834324,
            31527261214441325427791826735501769638,
            169676253753578266892709406613066968537,
            8515845295888992843968265114705724112,
        ],
    ),
    "counts-cap-custom-check": (
        [
            (20000, False, "cap"),
            (20000, False, "cap"),
            (20000, False, "cap"),
        ],
        "f82ed346f051aac285f7ff5f031c082ce88ec203ce3472c2269b533c514c29fc",
        [
            28359468821625310815013709922324510927,
        ],
    ),
    "counts-decoded-predicate": (
        [
            (3000, True, "correct"),
            (0, True, "correct"),
            (2500, True, "correct"),
        ],
        "6d92245516c049e1e66c1cc06686733e501765f28044efafa8ee5dce90c075e9",
        [
            84887176303894605763961051542877661849,
        ],
    ),
    "counts-lazy-epidemic-branches": (
        [
            (56000, True, "correct"),
            (56000, True, "correct"),
            (58000, True, "correct"),
            (60000, True, "correct"),
        ],
        "fa745febf1d5f84a1ad6ca721527a745dfa523b9ea9e3f565ce604cd798cdf22",
        [
            249387002344424008014920887826626971936,
        ],
    ),
    "counts-reset-wave-n1e4": (
        [
            (210000, True, "correct"),
            (210000, True, "correct"),
        ],
        "c9b01333df7c7b268241bbb2d47289f9688e9d91b3e86768decebd872bdca0ad",
        [
            188994588281534055991691803384022547128,
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_run_matches_pin(case):
    assert CASES[case]() == PINS[case]
