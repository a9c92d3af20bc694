"""Experiment E14: the synthetic coin of Section 6.

Measures the empirical bias of the harvested bits and the number of
interactions an agent needs per bit (expected 4), confirming that the paper's
protocols can be derandomized without changing their asymptotic running
times.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.derandomize.synthetic_coin import (
    SyntheticCoinProtocol,
    expected_interactions_per_bit,
)
from repro.engine.rng import spawn_rngs
from repro.engine.run_config import RunConfig
from repro.engine.simulation import Simulation
from repro.experiments.api import experiment_runner, read_params, require_loop_engine


@experiment_runner("synthetic_coin")
def run_synthetic_coin(params: Mapping, run: RunConfig) -> List[Dict]:
    """Bias and harvesting rate of the time-multiplexed synthetic coin."""
    require_loop_engine(run)
    opts = read_params(params, ns=(16, 64, 256), bits_needed=16)
    ns, bits_needed = opts["ns"], opts["bits_needed"]
    rows: List[Dict] = []
    rng_streams = spawn_rngs(run.seed, len(ns))
    for n, n_rng in zip(ns, rng_streams):
        protocol = SyntheticCoinProtocol(n, bits_needed=bits_needed)
        simulation = Simulation(protocol, rng=n_rng)
        result = simulation.run_until_correct(
            max_interactions=500 * n * bits_needed, check_interval=n
        )
        ones = 0
        total_bits = 0
        total_interactions = 0
        for state in simulation.configuration:
            ones += state.bits.count("1")
            total_bits += len(state.bits)
            total_interactions += state.interactions
        rows.append(
            {
                "n": n,
                "bits per agent": bits_needed,
                "completed": result.stopped,
                "parallel time": result.parallel_time,
                "fraction of ones": ones / total_bits if total_bits else 0.0,
                "interactions per bit": total_interactions / total_bits if total_bits else 0.0,
                "expected interactions per bit": expected_interactions_per_bit(),
            }
        )
    return rows


__all__ = ["run_synthetic_coin"]
