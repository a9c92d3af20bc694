"""Ablations of the protocols' tunable constants.

The paper fixes several constants asymptotically (``R_max = 60 ln n``,
``D_max = Theta(n)`` or ``Theta(log n)``, ``T_H = Theta(H n^{1/(H+1)})``,
``S_max = Theta(n^2)``) and the correctness/time proofs lean on them.  These
ablations quantify what each constant buys at simulable sizes:

* ``run_dormancy_ablation`` -- Lemma 4.2 needs the dormant phase of
  ``Optimal-Silent-SSR`` to be long enough for the slow fratricide election to
  finish; too small a ``D_max`` means frequent multi-leader awakenings, extra
  reset epochs, and a longer stabilization time.
* ``run_timer_ablation`` -- Lemma 5.6 needs ``T_H`` (the edge-timer horizon of
  ``Detect-Name-Collision``) to be at least the order of the bounded-epidemic
  hitting time tau_{H+1}; too small a ``T_H`` makes detection paths expire
  before they can be checked and slows detection down.
* ``run_sync_range_ablation`` -- Lemma 5.6 also needs ``S_max`` large enough
  that a fresh impostor rarely guesses a matching sync value; a tiny ``S_max``
  does not break safety but allows coincidental "consistent" answers and hence
  slower detection.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.core.optimal_silent import OptimalSilentSSR
from repro.core.propagate_reset import RESETTING
from repro.core.sublinear import SublinearTimeSSR
from repro.engine.results import TrialStatistics
from repro.engine.rng import spawn_rngs
from repro.engine.run_config import RunConfig
from repro.engine.simulation import Simulation
from repro.experiments.api import experiment_runner, read_params, require_loop_engine


@experiment_runner("ablation_dormancy")
def run_dormancy_ablation(params: Mapping, run: RunConfig) -> List[Dict]:
    """Stabilization time of Optimal-Silent-SSR as a function of ``D_max / n``."""
    require_loop_engine(run)
    opts = read_params(params, n=32, dmax_factors=(1.0, 2.0, 4.0, 8.0), trials=8)
    n, dmax_factors, trials = opts["n"], opts["dmax_factors"], opts["trials"]
    rows: List[Dict] = []
    factor_rngs = spawn_rngs(run.seed, len(dmax_factors))
    for factor, factor_rng in zip(dmax_factors, factor_rngs):
        times: List[float] = []
        for trial_rng in spawn_rngs(factor_rng, trials):
            protocol = OptimalSilentSSR(
                n, rmax_multiplier=4.0, dmax_factor=factor, emax_factor=16.0
            )
            configuration = protocol.random_configuration(trial_rng)
            simulation = Simulation(protocol, configuration=configuration, rng=trial_rng)
            result = simulation.run_until_stabilized(max_interactions=4000 * n * n)
            times.append(result.parallel_time)
        stats = TrialStatistics.from_values(f"dormancy (factor={factor})", n, times)
        rows.append(
            {
                "n": n,
                "D_max / n": factor,
                "trials": trials,
                "mean stabilization time": stats.mean,
                "max stabilization time": stats.maximum,
            }
        )
    return rows


@experiment_runner("ablation_timer")
def run_timer_ablation(params: Mapping, run: RunConfig) -> List[Dict]:
    """Collision-detection time of Sublinear-Time-SSR as a function of ``T_H``."""
    require_loop_engine(run)
    opts = read_params(params, n=20, depth=1, timer_multipliers=(0.5, 2.0, 8.0), trials=8)
    n, depth, trials = opts["n"], opts["depth"], opts["trials"]
    timer_multipliers = opts["timer_multipliers"]
    rows: List[Dict] = []
    multiplier_rngs = spawn_rngs(run.seed, len(timer_multipliers))
    for multiplier, multiplier_rng in zip(timer_multipliers, multiplier_rngs):
        detection_times: List[float] = []
        for trial_rng in spawn_rngs(multiplier_rng, trials):
            protocol = SublinearTimeSSR(
                n, depth=depth, rmax_multiplier=3.0, timer_multiplier=multiplier
            )
            configuration = protocol.planted_collision_configuration(trial_rng)
            simulation = Simulation(protocol, configuration=configuration, rng=trial_rng)
            result = simulation.run_until(
                lambda config: any(state.role == RESETTING for state in config),
                max_interactions=400 * n * n,
                check_interval=max(1, n // 2),
                reason="collision-detected",
            )
            detection_times.append(result.parallel_time)
        protocol = SublinearTimeSSR(
            n, depth=depth, rmax_multiplier=3.0, timer_multiplier=multiplier
        )
        stats = TrialStatistics.from_values(f"timer (x{multiplier})", n, detection_times)
        rows.append(
            {
                "n": n,
                "H": depth,
                "timer multiplier": multiplier,
                "T_H": protocol.detector.timer_max,
                "trials": trials,
                "mean detection time": stats.mean,
                "max detection time": stats.maximum,
            }
        )
    return rows


@experiment_runner("ablation_sync_range")
def run_sync_range_ablation(params: Mapping, run: RunConfig) -> List[Dict]:
    """Collision-detection time as a function of ``S_max`` (0 = paper default 2 n^2)."""
    require_loop_engine(run)
    opts = read_params(params, n=20, depth=1, sync_values=(2, 8, 0), trials=8)
    n, depth, trials = opts["n"], opts["depth"], opts["trials"]
    sync_values = opts["sync_values"]
    rows: List[Dict] = []
    value_rngs = spawn_rngs(run.seed, len(sync_values))
    for value, value_rng in zip(sync_values, value_rngs):
        effective = value if value else None
        detection_times: List[float] = []
        for trial_rng in spawn_rngs(value_rng, trials):
            protocol = SublinearTimeSSR(
                n, depth=depth, rmax_multiplier=3.0, sync_values=effective
            )
            configuration = protocol.planted_collision_configuration(trial_rng)
            simulation = Simulation(protocol, configuration=configuration, rng=trial_rng)
            result = simulation.run_until(
                lambda config: any(state.role == RESETTING for state in config),
                max_interactions=400 * n * n,
                check_interval=max(1, n // 2),
                reason="collision-detected",
            )
            detection_times.append(result.parallel_time)
        protocol = SublinearTimeSSR(n, depth=depth, rmax_multiplier=3.0, sync_values=effective)
        stats = TrialStatistics.from_values(f"sync (S={value})", n, detection_times)
        rows.append(
            {
                "n": n,
                "H": depth,
                "S_max": protocol.detector.sync_values,
                "trials": trials,
                "mean detection time": stats.mean,
            }
        )
    return rows


__all__ = ["run_dormancy_ablation", "run_sync_range_ablation", "run_timer_ablation"]
