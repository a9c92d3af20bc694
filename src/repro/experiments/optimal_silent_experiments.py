"""Experiments E7, E8, E11: ``Optimal-Silent-SSR`` and its ingredients.

* E7 (Lemma 4.1, Figure 1): the leader-driven binary-tree rank assignment
  completes in O(n) parallel time.
* E8 (Theorem 4.3 / Corollary 4.4): the full protocol stabilizes from
  arbitrary adversarial configurations in O(n) expected time.
* E11 (Theorem 3.4 / Corollary 3.5): ``Propagate-Reset`` brings a partially
  triggered population to an awakening configuration within O(D_max) time.

E7 and E8 run through the multi-trial harness, so the ``RunConfig``'s engine
and worker count apply; per-``n`` child seeds are derived from ``run.seed``.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List, Mapping

from repro.adversary.initial_configs import optimal_silent_adversarial_configuration
from repro.analysis.scaling import fit_power_law
from repro.analysis.theory import expected_binary_tree_assignment_time
from repro.core.optimal_silent import OptimalSilentSSR
from repro.core.sublinear import SublinearTimeSSR
from repro.engine.results import TrialStatistics
from repro.engine.rng import spawn_rngs
from repro.engine.run_config import RunConfig
from repro.engine.simulation import Simulation
from repro.experiments.api import experiment_runner, read_params, require_loop_engine
from repro.experiments.harness import measure_parallel_times

#: Reduced constants that keep small-n simulations representative of the
#: asymptotic behaviour (the paper's R_max = 60 ln n swamps n <= 256).
PRACTICAL_CONSTANTS = {"rmax_multiplier": 4.0, "dmax_factor": 6.0, "emax_factor": 16.0}


def _make_protocol(n: int, paper_constants: bool) -> OptimalSilentSSR:
    if paper_constants:
        return OptimalSilentSSR(n)
    return OptimalSilentSSR(n, **PRACTICAL_CONSTANTS)


def _base_seed(run: RunConfig) -> int:
    """Integer root for the per-``n`` seed tuples below."""
    return run.seed if isinstance(run.seed, int) else 0


@experiment_runner("binary_tree_assignment")
def run_binary_tree_assignment(params: Mapping, run: RunConfig) -> List[Dict]:
    """E7: time for one Settled leader to rank the whole population (Lemma 4.1)."""
    opts = read_params(params, ns=(32, 64, 128, 256), trials=20, paper_constants=False)
    ns, trials = opts["ns"], opts["trials"]
    paper_constants = opts["paper_constants"]
    seed = _base_seed(run)
    rows: List[Dict] = []
    mean_times: List[float] = []
    for n in ns:
        statistics = measure_parallel_times(
            protocol_factory=lambda n=n: _make_protocol(n, paper_constants),
            trials=trials,
            run=run.replace(seed=(seed, n), stop="stabilized"),
            configuration_factory=lambda protocol, rng: (
                protocol.single_leader_awakening_configuration()
            ),
            label=f"binary-tree (n={n})",
        )
        mean_times.append(statistics.mean)
        rows.append(
            {
                "n": n,
                "trials": trials,
                "mean time": statistics.mean,
                "max time": statistics.maximum,
                "paper bound O(n)": expected_binary_tree_assignment_time(n),
                "mean / n": statistics.mean / n,
            }
        )
    if len(ns) >= 2:
        exponent, _, r_squared = fit_power_law(list(ns), mean_times)
        for row in rows:
            row["fitted exponent"] = exponent
            row["fit R^2"] = r_squared
    return rows


@experiment_runner("optimal_silent")
def run_optimal_silent_scaling(params: Mapping, run: RunConfig) -> List[Dict]:
    """E8: stabilization time of ``Optimal-Silent-SSR`` across population sizes.

    ``start`` selects the initial configuration: ``"adversarial"`` (independent
    uniformly random states per agent), ``"duplicate-ranks"`` (every agent
    Settled at rank 1), or ``"clean"`` (the protocol's default dormant start).
    """
    opts = read_params(
        params, ns=(16, 32, 64, 128), trials=10, paper_constants=False, start="adversarial"
    )
    ns, trials = opts["ns"], opts["trials"]
    paper_constants, start = opts["paper_constants"], opts["start"]
    starts = {
        "adversarial": lambda protocol, rng: optimal_silent_adversarial_configuration(
            protocol, rng
        ),
        "duplicate-ranks": lambda protocol, rng: protocol.duplicate_rank_configuration(),
        "clean": None,
    }
    if start not in starts:
        raise ValueError(f"unknown start {start!r}")
    seed = _base_seed(run)
    rows: List[Dict] = []
    mean_times: List[float] = []
    for n in ns:
        statistics = measure_parallel_times(
            protocol_factory=lambda n=n: _make_protocol(n, paper_constants),
            trials=trials,
            run=run.replace(
                # crc32, not hash(): str hashing is salted per process, which
                # would break same-seed reproducibility across runs.
                seed=(seed, n, zlib.crc32(start.encode()) % (2**16)),
                stop="stabilized",
            ),
            configuration_factory=starts[start],
            label=f"optimal-silent (n={n})",
        )
        mean_times.append(statistics.mean)
        rows.append(
            {
                "n": n,
                "start": start,
                "trials": trials,
                "mean time": statistics.mean,
                "p90 time": statistics.quantile(0.9),
                "mean / n": statistics.mean / n,
            }
        )
    if len(ns) >= 2:
        exponent, _, r_squared = fit_power_law(list(ns), mean_times)
        for row in rows:
            row["fitted exponent"] = exponent
            row["fit R^2"] = r_squared
    return rows


@experiment_runner("propagate_reset")
def run_propagate_reset(params: Mapping, run: RunConfig) -> List[Dict]:
    """E11: time from a partially triggered configuration back to full computation.

    Uses ``Sublinear-Time-SSR`` (whose ``D_max`` is Theta(log n)) so the
    measured recovery time tracks the O(log n) claim of Theorem 3.4 /
    Corollary 3.5 rather than the deliberately long Theta(n) dormancy of
    ``Optimal-Silent-SSR``.
    """
    require_loop_engine(run)
    opts = read_params(params, ns=(16, 32, 64, 128), trials=20, rmax_multiplier=4.0)
    ns, trials = opts["ns"], opts["trials"]
    rmax_multiplier = opts["rmax_multiplier"]
    rows: List[Dict] = []
    rng_streams = spawn_rngs(run.seed, len(ns))
    for n, n_rng in zip(ns, rng_streams):
        times: List[float] = []
        for _ in range(trials):
            protocol = SublinearTimeSSR(n, depth=1, rmax_multiplier=rmax_multiplier)
            configuration = protocol.unique_names_configuration(n_rng)
            # Trigger a single agent, as an error detection would.
            protocol.reset_machinery.trigger(configuration[0], n_rng)
            simulation = Simulation(protocol, configuration=configuration, rng=n_rng)
            result = simulation.run_until(
                protocol.reset_machinery.fully_computing,
                max_interactions=4000 * n * max(1, protocol.dmax),
                check_interval=n,
                reason="fully-computing",
            )
            times.append(result.parallel_time)
        stats = TrialStatistics.from_values(f"propagate-reset (n={n})", n, times)
        rows.append(
            {
                "n": n,
                "trials": trials,
                "D_max": SublinearTimeSSR(n, depth=1, rmax_multiplier=rmax_multiplier).dmax,
                "mean recovery time": stats.mean,
                "max recovery time": stats.maximum,
                "mean / log2 n": stats.mean / max(1.0, math.log2(n)),
            }
        )
    return rows


__all__ = [
    "PRACTICAL_CONSTANTS",
    "run_binary_tree_assignment",
    "run_optimal_silent_scaling",
    "run_propagate_reset",
]
