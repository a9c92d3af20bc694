"""The trial-batched counts window allocates nothing the size of its law.

The window law covers every pair of the static active support for every live
trial: K * T float64 values, 817,200 bytes for the n = 10^6 reset wave's
51,075 pairs and two trials.  Blocks that size sit above glibc's default
mmap threshold, so allocating them afresh every round makes the engine's
cost depend on what an earlier stage of the process happened to free.  The
engine builds the law in two buffers allocated once, in ``__init__``, and
sizes every other per-round array by the pairs it can draw.

tracemalloc sees NumPy's data allocations.  Each round is traced from the
memory held when it starts, and its peak must stay below one K * T float64
block.  The run covers the wave's first 4 * 10^6 interactions per trial
(about 160 rounds, a few hundred drawable pairs each), where a round's own
draws need some tens of kilobytes.
"""

import tracemalloc

import numpy as np

from repro.core.propagate_reset import ResetWaveProtocol
from repro.engine.compiled import ProtocolCompiler
from repro.engine.run_config import RunConfig
from repro.engine.trial_batch import CountsTrialBatchSimulation


def test_no_round_allocates_a_law_sized_block():
    protocol = ResetWaveProtocol(10**6)
    compiled = ProtocolCompiler().compile(protocol)
    trials = 2
    counts = np.zeros((trials, compiled.num_states), dtype=np.int64)
    counts[:, compiled.encode_state(protocol.triggered_state())] = protocol.n
    simulation = CountsTrialBatchSimulation(protocol, counts, rng=7, compiled=compiled)
    law_block = int(np.count_nonzero(compiled.changes)) * trials * 8
    assert law_block == 817_200

    peaks = []
    advance = simulation._advance

    def traced(live, budget):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        advance(live, budget)
        peaks.append(tracemalloc.get_traced_memory()[1] - held)

    simulation._advance = traced
    tracemalloc.start()
    try:
        results = simulation.run(RunConfig(stop="correct", max_interactions=4 * 10**6))
    finally:
        tracemalloc.stop()

    assert [result.interactions for result in results] == [4 * 10**6] * trials
    assert len(peaks) > 100
    assert max(peaks[1:]) < law_block, max(peaks[1:])
