"""The batched check loop in the engine core, as both trial-batched engines use it.

``TrialBatchCore.run`` judges every trial of a batch the way
``EngineCore.run_until`` judges one run: a pre-run check, then a check at each
of the trial's own ``check_interval`` boundaries until it stops or hits the
cap.  These tests hold the parts a per-engine copy of that loop got wrong or
could drift on: every check is counted in ``repro_stop_checks_total``, the
pre-run one included, and both engines run the one shared loop.
"""

import numpy as np
import pytest

from repro.engine.run_config import RunConfig, make_simulation
from repro.engine.trial_batch import CountsTrialBatchSimulation, TrialBatchSimulation
from repro.processes.epidemic import TwoWayEpidemicProtocol
from repro.telemetry import metrics

TRIALS = 3


def stop_checks(engine, run):
    """Run ``run()`` with telemetry on; its results and the engine's check count."""
    metrics.reset_registry()
    try:
        with metrics.telemetry_session():
            results = run()
        samples = metrics.registry().snapshot()["samples"]
    finally:
        metrics.reset_registry()
    checks = sum(
        sample["value"]
        for sample in samples
        if sample["name"] == "repro_stop_checks_total"
        and sample["labels"] == {"engine": engine}
    )
    return results, checks


def correct_batch(engine):
    """``TRIALS`` epidemic trials that are all infected (correct) from the start."""
    protocol = TwoWayEpidemicProtocol(8)
    if engine == "compiled":
        rngs = [np.random.default_rng(trial) for trial in range(TRIALS)]
        return TrialBatchSimulation(
            protocol, rngs, indices=np.ones((TRIALS, 8), dtype=np.int32)
        )
    return CountsTrialBatchSimulation(protocol, np.tile([0, 8], (TRIALS, 1)), rng=1)


class TestStopChecks:
    @pytest.mark.parametrize("engine", ["compiled", "counts"])
    def test_pre_run_checks_are_counted(self, engine):
        simulation = correct_batch(engine)
        config = RunConfig(engine=engine, stop="correct")
        results, checks = stop_checks(engine, lambda: simulation.run(config))
        assert [(result.interactions, result.stopped) for result in results] == [
            (0, True)
        ] * TRIALS
        assert checks == TRIALS

    def test_per_trial_engine_counts_the_same(self):
        protocol = TwoWayEpidemicProtocol(8)
        config = RunConfig(engine="compiled", stop="correct")

        def run():
            return [
                make_simulation(protocol, config, counts=np.array([0, 8])).run(config)
                for _ in range(TRIALS)
            ]

        _, checks = stop_checks("compiled", run)
        assert checks == TRIALS

    @pytest.mark.parametrize("engine", ["compiled", "counts"])
    def test_every_boundary_is_counted(self, engine):
        """One pre-run check plus one per boundary: cap 40 at interval 10."""
        protocol = TwoWayEpidemicProtocol(64)
        config = RunConfig(
            engine=engine, stop="correct", max_interactions=40, check_interval=10
        )
        if engine == "compiled":
            rows = np.zeros((TRIALS, 64), dtype=np.int32)
            rows[:, 0] = 1
            rngs = [np.random.default_rng(trial) for trial in range(TRIALS)]
            simulation = TrialBatchSimulation(protocol, rngs, indices=rows)
        else:
            counts = np.tile([63, 1], (TRIALS, 1))
            simulation = CountsTrialBatchSimulation(protocol, counts, rng=2)
        results, checks = stop_checks(engine, lambda: simulation.run(config))
        assert [result.reason for result in results] == ["cap"] * TRIALS
        assert checks == TRIALS * 5


class TestSharedLoop:
    @pytest.mark.parametrize("engine_class", [TrialBatchSimulation, CountsTrialBatchSimulation])
    def test_engines_inherit_the_core_run(self, engine_class):
        from repro.engine.core import TrialBatchCore

        assert issubclass(engine_class, TrialBatchCore)
        assert engine_class.run is TrialBatchCore.run
        # perfbench's tracer wraps each class's own constructor.
        assert "__init__" in vars(engine_class)
