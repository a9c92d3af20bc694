"""Experiment E12: the "states" column of Table 1 and Theorem 2.1.

For each protocol we report the closed-form state count where one exists and
the number of distinct states actually observed in executions, demonstrating
the qualitative separation: ``n`` states for Protocol 1, ``O(n)`` for
``Optimal-Silent-SSR``, and rapidly exploding state usage for the
history-tree protocol as ``H`` grows.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.analysis.state_space import count_observed_states
from repro.core.optimal_silent import OptimalSilentSSR
from repro.core.silent_n_state import SilentNStateSSR
from repro.core.sublinear import SublinearTimeSSR
from repro.engine.rng import spawn_rngs
from repro.engine.run_config import RunConfig
from repro.experiments.api import experiment_runner, read_params, require_loop_engine
from repro.experiments.optimal_silent_experiments import PRACTICAL_CONSTANTS
from repro.experiments.sublinear_experiments import PRACTICAL_RMAX_MULTIPLIER


@experiment_runner("state_complexity")
def run_state_space(params: Mapping, run: RunConfig) -> List[Dict]:
    """Observed distinct states per protocol, per population size."""
    require_loop_engine(run)
    opts = read_params(params, ns=(8, 16, 32), interactions_factor=30, sublinear_depth=1)
    ns, interactions_factor = opts["ns"], opts["interactions_factor"]
    sublinear_depth = opts["sublinear_depth"]
    rows: List[Dict] = []
    rng_streams = spawn_rngs(run.seed, len(ns))
    for n, n_rng in zip(ns, rng_streams):
        protocol_rngs = spawn_rngs(n_rng, 3)
        interactions = interactions_factor * n

        baseline = SilentNStateSSR(n)
        rows.append(
            {
                "protocol": baseline.name,
                "n": n,
                "observed states": count_observed_states(
                    baseline,
                    configuration=baseline.worst_case_configuration(),
                    interactions=interactions,
                    rng=protocol_rngs[0],
                ),
                "theoretical states": baseline.theoretical_state_count(),
            }
        )

        optimal = OptimalSilentSSR(n, **PRACTICAL_CONSTANTS)
        rows.append(
            {
                "protocol": optimal.name,
                "n": n,
                "observed states": count_observed_states(
                    optimal, interactions=interactions, rng=protocol_rngs[1]
                ),
                "theoretical states": optimal.theoretical_state_count(),
            }
        )

        sublinear = SublinearTimeSSR(
            n, depth=sublinear_depth, rmax_multiplier=PRACTICAL_RMAX_MULTIPLIER
        )
        rows.append(
            {
                "protocol": f"{sublinear.name} (H={sublinear.depth})",
                "n": n,
                "observed states": count_observed_states(
                    sublinear,
                    configuration=sublinear.unique_names_configuration(protocol_rngs[2]),
                    interactions=interactions,
                    rng=protocol_rngs[2],
                ),
                "theoretical states": f"~2^{sublinear.theoretical_state_bits():.0f}",
            }
        )
    return rows


__all__ = ["run_state_space"]
