"""Experiments E3 and E13: the paper's lower bounds.

* E3 (Observation 2.6): any *silent* SSLE protocol needs Omega(n) time.  The
  witness configuration is the protocol's silent single-leader configuration
  with one extra copy of the leader state: nothing can happen until the two
  leaders meet directly, which takes ``>= n/3`` expected parallel time.
* E13 (Section 1.1): any SSLE protocol needs Omega(log n) time, because from
  the all-leaders configuration ``n - 1`` agents must each interact at least
  once (a coupon-collector argument).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping

from repro.adversary.initial_configs import duplicate_leader_silent_configuration
from repro.core.fratricide import FratricideLeaderElection
from repro.core.optimal_silent import OptimalSilentSSR
from repro.core.propagate_reset import RESETTING
from repro.engine.results import TrialStatistics
from repro.engine.rng import spawn_rngs
from repro.engine.run_config import RunConfig
from repro.engine.simulation import Simulation
from repro.experiments.api import experiment_runner, read_params, require_loop_engine
from repro.experiments.optimal_silent_experiments import PRACTICAL_CONSTANTS
from repro.processes.coupon_collector import simulate_all_agents_interact
from repro.processes.fratricide_process import simulate_fratricide_interactions


@experiment_runner("silent_lower_bound")
def run_silent_lower_bound(params: Mapping, run: RunConfig) -> List[Dict]:
    """E3: time until the duplicated leader is noticed in ``Optimal-Silent-SSR``.

    From the stable configuration plus a duplicated rank-1 agent, the first
    state change requires the two rank-1 agents to meet, after which the
    protocol resets.  The measured waiting time is compared against the
    Observation 2.6 lower bound of ``n / 3``.
    """
    require_loop_engine(run)
    opts = read_params(params, ns=(16, 32, 64, 128), trials=20)
    ns, trials = opts["ns"], opts["trials"]
    rows: List[Dict] = []
    rng_streams = spawn_rngs(run.seed, len(ns))
    for n, n_rng in zip(ns, rng_streams):
        times: List[float] = []
        for trial_rng in spawn_rngs(n_rng, trials):
            protocol = OptimalSilentSSR(n, **PRACTICAL_CONSTANTS)
            configuration = duplicate_leader_silent_configuration(protocol)
            simulation = Simulation(protocol, configuration=configuration, rng=trial_rng)
            result = simulation.run_until(
                lambda config: any(state.role == RESETTING for state in config),
                max_interactions=200 * n * n,
                check_interval=max(1, n // 4),
                reason="collision-noticed",
            )
            times.append(result.parallel_time)
        stats = TrialStatistics.from_values(f"silent-lb (n={n})", n, times)
        rows.append(
            {
                "n": n,
                "trials": trials,
                "mean time to notice": stats.mean,
                "lower bound n/3": n / 3.0,
                "mean / (n/3)": stats.mean / (n / 3.0),
            }
        )
    return rows


@experiment_runner("log_lower_bound")
def run_log_lower_bound(params: Mapping, run: RunConfig) -> List[Dict]:
    """E13: Omega(log n) for any SSLE protocol, via the all-leaders configuration.

    Reports (a) the coupon-collector time for all agents to interact at least
    once -- the lower bound itself, ``~ 0.5 ln n`` parallel time -- and (b) the
    convergence time of the one-bit fratricide election from all leaders,
    showing that the bound is far from tight for that particular protocol.
    """
    require_loop_engine(run)
    opts = read_params(params, ns=(64, 256, 1024), trials=100)
    ns, trials = opts["ns"], opts["trials"]
    rows: List[Dict] = []
    rng_streams = spawn_rngs(run.seed, len(ns))
    for n, n_rng in zip(ns, rng_streams):
        interact = TrialStatistics.from_values(
            f"all-interact (n={n})",
            n,
            [simulate_all_agents_interact(n, n_rng) / n for _ in range(trials)],
        )
        fratricide = TrialStatistics.from_values(
            f"fratricide (n={n})",
            n,
            [simulate_fratricide_interactions(n, rng=n_rng) / n for _ in range(trials)],
        )
        rows.append(
            {
                "n": n,
                "trials": trials,
                "mean all-interact time": interact.mean,
                "0.5 ln n": 0.5 * math.log(n),
                "mean fratricide time": fratricide.mean,
                "fratricide / n": fratricide.mean / n,
            }
        )
    return rows


@experiment_runner("fratricide_failure")
def run_fratricide_failure(params: Mapping, run: RunConfig) -> List[Dict]:
    """Companion to E3/E13: the initialized protocol is not self-stabilizing.

    From the all-followers configuration the fratricide protocol can never
    elect a leader; the run confirms zero leaders persist for the whole
    horizon, motivating the paper's reset-based constructions.
    """
    require_loop_engine(run)
    opts = read_params(params, n=32, horizon_factor=50.0)
    n, horizon_factor = opts["n"], opts["horizon_factor"]
    protocol = FratricideLeaderElection(n)
    configuration = protocol.all_followers_configuration()
    simulation = Simulation(protocol, configuration=configuration, rng=run.seed)
    simulation.run(int(horizon_factor * n))
    leaders = protocol.leader_count(simulation.configuration)
    return [
        {
            "n": n,
            "horizon (parallel time)": horizon_factor,
            "leaders at end": leaders,
            "self-stabilizing": leaders == 1,
        }
    ]


__all__ = ["run_fratricide_failure", "run_log_lower_bound", "run_silent_lower_bound"]
