"""Experiment E1: reproduce Table 1.

For each protocol (the Cai-Izumi-Wada baseline, ``Optimal-Silent-SSR``, and
``Sublinear-Time-SSR`` in its constant-``H`` and ``H = Theta(log n)``
regimes) the harness measures expected and tail stabilization times from
adversarial starting configurations, together with the state usage, and
prints them next to the asymptotic entries of the paper's Table 1.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional

from repro.adversary.initial_configs import optimal_silent_adversarial_configuration
from repro.core.optimal_silent import OptimalSilentSSR
from repro.core.silent_n_state import SilentNStateSSR, simulate_silent_n_state
from repro.core.sublinear import SublinearTimeSSR
from repro.engine.results import TrialStatistics
from repro.engine.rng import spawn_rngs
from repro.engine.run_config import RunConfig
from repro.engine.simulation import Simulation
from repro.experiments.api import experiment_runner, read_params, require_loop_engine
from repro.experiments.optimal_silent_experiments import PRACTICAL_CONSTANTS
from repro.experiments.sublinear_experiments import PRACTICAL_RMAX_MULTIPLIER


def _measure_silent_n_state(n: int, trials: int, rng) -> Dict:
    times = []
    for trial_rng in spawn_rngs(rng, trials):
        initial_ranks = trial_rng.integers(0, n, size=n).tolist()
        times.append(simulate_silent_n_state(n, initial_ranks=initial_ranks, rng=trial_rng) / n)
    stats = TrialStatistics.from_values("silent-n-state", n, times)
    return {
        "protocol": "Silent-n-state-SSR [21]",
        "n": n,
        "trials": trials,
        "mean time": stats.mean,
        "p90 time": stats.quantile(0.9),
        "states": SilentNStateSSR(n).theoretical_state_count(),
        "silent": True,
        "paper expected time": "Theta(n^2)",
        "paper states": "n",
    }


def _measure_optimal_silent(n: int, trials: int, rng, paper_constants: bool) -> Dict:
    times = []
    for trial_rng in spawn_rngs(rng, trials):
        protocol = (
            OptimalSilentSSR(n) if paper_constants else OptimalSilentSSR(n, **PRACTICAL_CONSTANTS)
        )
        configuration = optimal_silent_adversarial_configuration(protocol, trial_rng)
        simulation = Simulation(protocol, configuration=configuration, rng=trial_rng)
        result = simulation.run_until_stabilized(check_interval=n)
        times.append(result.parallel_time)
    stats = TrialStatistics.from_values("optimal-silent", n, times)
    protocol = OptimalSilentSSR(n) if paper_constants else OptimalSilentSSR(n, **PRACTICAL_CONSTANTS)
    return {
        "protocol": "Optimal-Silent-SSR (Sec. 4)",
        "n": n,
        "trials": trials,
        "mean time": stats.mean,
        "p90 time": stats.quantile(0.9),
        "states": protocol.theoretical_state_count(),
        "silent": True,
        "paper expected time": "Theta(n)",
        "paper states": "O(n)",
    }


def _measure_sublinear(n: int, trials: int, rng, depth: Optional[int]) -> Dict:
    times = []
    for trial_rng in spawn_rngs(rng, trials):
        protocol = SublinearTimeSSR(
            n, depth=depth, rmax_multiplier=PRACTICAL_RMAX_MULTIPLIER
        )
        configuration = protocol.planted_collision_configuration(trial_rng)
        simulation = Simulation(protocol, configuration=configuration, rng=trial_rng)
        result = simulation.run_until_stabilized(
            max_interactions=100 * n * n, check_interval=n
        )
        times.append(result.parallel_time)
    stats = TrialStatistics.from_values("sublinear", n, times)
    protocol = SublinearTimeSSR(n, depth=depth, rmax_multiplier=PRACTICAL_RMAX_MULTIPLIER)
    effective_depth = protocol.depth
    if effective_depth >= math.log2(n):
        label = "Sublinear-Time-SSR (H = Theta(log n))"
        paper_time = "Theta(log n)"
        paper_states = "exp(O(n^{log n} log n))"
    else:
        label = f"Sublinear-Time-SSR (H = {effective_depth})"
        paper_time = "Theta(H n^{1/(H+1)})"
        paper_states = "Theta(n^{Theta(n^H)} log n)"
    return {
        "protocol": label,
        "n": n,
        "trials": trials,
        "mean time": stats.mean,
        "p90 time": stats.quantile(0.9),
        "states": f"~2^{protocol.theoretical_state_bits():.0f}",
        "silent": False,
        "paper expected time": paper_time,
        "paper states": paper_states,
    }


@experiment_runner("table1")
def run_table1(params: Mapping, run: RunConfig) -> List[Dict]:
    """Measure every Table 1 row for each population size in ``ns``."""
    require_loop_engine(run)
    opts = read_params(
        params, ns=(16, 32), trials=5, paper_constants=False, sublinear_constant_depth=1
    )
    ns, trials = opts["ns"], opts["trials"]
    paper_constants = opts["paper_constants"]
    sublinear_constant_depth = opts["sublinear_constant_depth"]
    rows: List[Dict] = []
    rng_streams = spawn_rngs(run.seed, len(ns))
    for n, n_rng in zip(ns, rng_streams):
        protocol_rngs = spawn_rngs(n_rng, 4)
        rows.append(_measure_silent_n_state(n, trials, protocol_rngs[0]))
        rows.append(_measure_optimal_silent(n, trials, protocol_rngs[1], paper_constants))
        rows.append(_measure_sublinear(n, trials, protocol_rngs[2], sublinear_constant_depth))
        rows.append(_measure_sublinear(n, trials, protocol_rngs[3], None))
    return rows


__all__ = ["run_table1"]
