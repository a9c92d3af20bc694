"""Experiments E9 and E10: ``Sublinear-Time-SSR``.

* E9 (Theorem 5.7, Table 1 rows 3-4): stabilization time as a function of the
  depth parameter ``H``.  Starting from a planted name collision (the
  situation the detector exists for), larger ``H`` should detect and recover
  faster, with ``H = 0`` (direct detection) the slowest and
  ``H = Theta(log n)`` the fastest.
* E10 (Lemmas 5.4 / 5.5, Figure 2): safety.  After a clean configuration no
  collision is ever falsely detected; adversarially corrupted history trees
  cause at most a bounded disruption and the protocol still stabilizes.

History trees have no enumerable state space, so no table engine runs these
experiments: they refuse ``--engine compiled|counts`` before any seeding.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.adversary.initial_configs import corrupted_tree_configuration
from repro.analysis.theory import predicted_parallel_time
from repro.core.propagate_reset import RESETTING
from repro.core.sublinear import SublinearTimeSSR
from repro.engine.hooks import CountingHook
from repro.engine.results import TrialStatistics
from repro.engine.rng import spawn_rngs
from repro.engine.run_config import RunConfig
from repro.engine.simulation import Simulation
from repro.experiments.api import experiment_runner, read_params, require_loop_engine

#: Reduced reset constant used by default; the paper's R_max = 60 ln n adds a
#: large additive overhead that hides the H-dependence at simulable sizes.
PRACTICAL_RMAX_MULTIPLIER = 3.0


def _make_protocol(
    n: int,
    depth: Optional[int],
    rmax_multiplier: float,
    timer_multiplier: float = 8.0,
) -> SublinearTimeSSR:
    return SublinearTimeSSR(
        n,
        depth=depth,
        rmax_multiplier=rmax_multiplier,
        timer_multiplier=timer_multiplier,
    )


@experiment_runner("sublinear_tradeoff")
def run_sublinear_tradeoff(params: Mapping, run: RunConfig) -> List[Dict]:
    """E9: stabilization time from a planted name collision, per depth ``H``.

    ``None`` in ``depths`` selects ``H = ceil(log2 n)`` (the O(log n) regime).
    """
    require_loop_engine(run)
    opts = read_params(
        params,
        n=24,
        depths=(0, 1, 2, None),
        trials=10,
        rmax_multiplier=PRACTICAL_RMAX_MULTIPLIER,
        max_time_factor=60.0,
    )
    n, depths, trials = opts["n"], opts["depths"], opts["trials"]
    rmax_multiplier, max_time_factor = opts["rmax_multiplier"], opts["max_time_factor"]
    rows: List[Dict] = []
    rng_streams = spawn_rngs(run.seed, len(depths))
    for depth, depth_rng in zip(depths, rng_streams):
        times: List[float] = []
        detection_times: List[float] = []
        for trial_rng in spawn_rngs(depth_rng, trials):
            protocol = _make_protocol(n, depth, rmax_multiplier)
            configuration = protocol.planted_collision_configuration(trial_rng)
            simulation = Simulation(protocol, configuration=configuration, rng=trial_rng)
            cap = int(max_time_factor * n * n)
            # First: how long until the collision is detected (some agent resets)?
            detection = simulation.run_until(
                lambda config: any(state.role == RESETTING for state in config),
                max_interactions=cap,
                check_interval=max(1, n // 2),
                reason="collision-detected",
            )
            detection_times.append(detection.parallel_time)
            # Then: run on until full stabilization (fresh names, full rosters, ranks).
            result = simulation.run_until_stabilized(max_interactions=cap, check_interval=n)
            times.append(result.parallel_time)
        effective_depth = protocol.depth
        stats = TrialStatistics.from_values(f"sublinear (H={effective_depth})", n, times)
        detection_stats = TrialStatistics.from_values(
            f"detection (H={effective_depth})", n, detection_times
        )
        predicted = predicted_parallel_time("sublinear", n, depth=max(effective_depth, 1))
        rows.append(
            {
                "n": n,
                "H": effective_depth,
                "trials": trials,
                "mean detection time": detection_stats.mean,
                "mean stabilization time": stats.mean,
                "max stabilization time": stats.maximum,
                "predicted shape": predicted,
                "T_H": getattr(protocol.detector, "timer_max", 0),
            }
        )
    return rows


@experiment_runner("sublinear_scaling")
def run_sublinear_scaling(params: Mapping, run: RunConfig) -> List[Dict]:
    """E9 (companion): stabilization time vs ``n`` at a fixed depth ``H``."""
    require_loop_engine(run)
    opts = read_params(
        params, ns=(8, 16, 32), depth=1, trials=8,
        rmax_multiplier=PRACTICAL_RMAX_MULTIPLIER,
    )
    ns, depth, trials = opts["ns"], opts["depth"], opts["trials"]
    rmax_multiplier = opts["rmax_multiplier"]
    rows: List[Dict] = []
    rng_streams = spawn_rngs(run.seed, len(ns))
    for n, n_rng in zip(ns, rng_streams):
        times: List[float] = []
        for trial_rng in spawn_rngs(n_rng, trials):
            protocol = _make_protocol(n, depth, rmax_multiplier)
            configuration = protocol.planted_collision_configuration(trial_rng)
            simulation = Simulation(protocol, configuration=configuration, rng=trial_rng)
            result = simulation.run_until_stabilized(
                max_interactions=80 * n * n, check_interval=n
            )
            times.append(result.parallel_time)
        effective_depth = protocol.depth
        stats = TrialStatistics.from_values(f"sublinear (n={n})", n, times)
        rows.append(
            {
                "n": n,
                "H": effective_depth,
                "trials": trials,
                "mean stabilization time": stats.mean,
                "predicted shape": predicted_parallel_time(
                    "sublinear", n, depth=max(effective_depth, 1)
                ),
            }
        )
    return rows


@experiment_runner("history_tree_safety")
def run_safety(params: Mapping, run: RunConfig) -> List[Dict]:
    """E10: no false collision detections from clean configurations.

    From a stabilized configuration (unique names, full rosters, correct
    ranks) the protocol is run for ``horizon_factor * n`` parallel time and
    the number of interactions in which any agent enters the Resetting role is
    counted -- the safety lemmas say it must be zero.  The same horizon is
    then run from a configuration with adversarially corrupted history trees,
    where a bounded number of resets is allowed but the run must end
    stabilized again.
    """
    require_loop_engine(run)
    opts = read_params(
        params, n=16, depth=2, horizon_factor=30.0, trials=5,
        rmax_multiplier=PRACTICAL_RMAX_MULTIPLIER,
    )
    n, depth, trials = opts["n"], opts["depth"], opts["trials"]
    horizon_factor, rmax_multiplier = opts["horizon_factor"], opts["rmax_multiplier"]
    rows: List[Dict] = []
    rng_streams = spawn_rngs(run.seed, trials)
    clean_false_positives = 0
    corrupted_recovered = 0
    corrupted_resets = 0
    for trial_rng in rng_streams:
        # Clean start: count any reset as a false positive.
        protocol = _make_protocol(n, depth, rmax_multiplier)
        configuration = protocol.ranked_configuration(trial_rng)
        resets = CountingHook(
            lambda a, b: a.role == RESETTING or b.role == RESETTING
        )
        simulation = Simulation(protocol, configuration=configuration, rng=trial_rng, hooks=[resets])
        simulation.run(int(horizon_factor * n * n))
        if resets.count > 0:
            clean_false_positives += 1

        # Corrupted trees: must re-stabilize within the horizon.
        protocol = _make_protocol(n, depth, rmax_multiplier)
        configuration = corrupted_tree_configuration(protocol, trial_rng)
        resets = CountingHook(lambda a, b: a.role == RESETTING or b.role == RESETTING)
        simulation = Simulation(protocol, configuration=configuration, rng=trial_rng, hooks=[resets])
        result = simulation.run_until_stabilized(
            max_interactions=int(4 * horizon_factor * n * n), check_interval=n
        )
        corrupted_recovered += int(result.stopped)
        corrupted_resets += int(resets.count > 0)
    rows.append(
        {
            "n": n,
            "H": depth,
            "trials": trials,
            "clean runs with false positives": clean_false_positives,
            "corrupted runs recovered": corrupted_recovered,
            "corrupted runs that reset": corrupted_resets,
        }
    )
    return rows


__all__ = [
    "PRACTICAL_RMAX_MULTIPLIER",
    "run_safety",
    "run_sublinear_scaling",
    "run_sublinear_tradeoff",
]
