"""Tests for the experiment harness (RunConfig-based API)."""

import pytest

from repro.core.fratricide import FratricideLeaderElection
from repro.core.silent_n_state import SilentNStateSSR
from repro.engine.run_config import RunConfig
from repro.experiments.harness import (
    ExperimentSpec,
    measure_parallel_times,
    sweep_parallel_time,
)
from repro.experiments.result import ExperimentResult


class TestMeasureParallelTimes:
    def test_returns_requested_trial_count(self):
        stats = measure_parallel_times(
            lambda: FratricideLeaderElection(8),
            trials=4,
            run=RunConfig(seed=0, stop="correct"),
        )
        assert stats.trials == 4 and stats.n == 8

    def test_reproducible_with_same_seed(self):
        first = measure_parallel_times(
            lambda: FratricideLeaderElection(8),
            trials=3,
            run=RunConfig(seed=1, stop="correct"),
        )
        second = measure_parallel_times(
            lambda: FratricideLeaderElection(8),
            trials=3,
            run=RunConfig(seed=1, stop="correct"),
        )
        assert first.values == second.values

    def test_configuration_factory(self):
        stats = measure_parallel_times(
            lambda: SilentNStateSSR(6),
            trials=2,
            run=RunConfig(seed=0),
            configuration_factory=lambda protocol, rng: protocol.worst_case_configuration(),
        )
        assert all(value > 0 for value in stats.values)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            measure_parallel_times(lambda: FratricideLeaderElection(8), trials=0)
        with pytest.raises(TypeError, match="run must be a RunConfig"):
            measure_parallel_times(lambda: FratricideLeaderElection(8), 1, 3)
        with pytest.raises(ValueError):
            RunConfig(stop="bogus")
        with pytest.raises(ValueError):
            RunConfig(engine="turbo")

    def test_runconfig_plus_legacy_keywords_is_an_error(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'stop'"):
            measure_parallel_times(
                lambda: FratricideLeaderElection(8),
                trials=1,
                run=RunConfig(seed=0),
                stop="correct",
            )

    def test_compiled_engine(self):
        stats = measure_parallel_times(
            lambda: SilentNStateSSR(12),
            trials=3,
            run=RunConfig(seed=0, engine="compiled"),
            configuration_factory=lambda protocol, rng: protocol.worst_case_configuration(),
        )
        assert stats.trials == 3
        assert all(value > 0 for value in stats.values)

    def test_engines_measure_comparable_times(self):
        loop = measure_parallel_times(
            lambda: SilentNStateSSR(10),
            trials=8,
            run=RunConfig(seed=4, engine="loop"),
            configuration_factory=lambda protocol, rng: protocol.worst_case_configuration(),
        )
        compiled = measure_parallel_times(
            lambda: SilentNStateSSR(10),
            trials=8,
            run=RunConfig(seed=4, engine="compiled"),
            configuration_factory=lambda protocol, rng: protocol.worst_case_configuration(),
        )
        assert 0.3 < compiled.mean / loop.mean < 3.0


class TestSweep:
    def test_one_result_per_population_size(self):
        results = sweep_parallel_time(
            [6, 12],
            lambda n: FratricideLeaderElection(n),
            trials=2,
            run=RunConfig(seed=0, stop="correct"),
        )
        assert [stats.n for stats in results] == [6, 12]

    def test_max_interactions_factory_is_applied(self):
        results = sweep_parallel_time(
            [6],
            lambda n: FratricideLeaderElection(n),
            trials=1,
            run=RunConfig(seed=0, stop="correct"),
            max_interactions_factory=lambda n: 10 * n * n,
        )
        assert results[0].mean <= 10 * 6


class TestExperimentSpec:
    def _spec(self):
        def runner(params, run):
            return [{"trials": params.get("trials", 1), "bonus": params.get("bonus", 0)}]

        return ExperimentSpec(
            identifier="demo",
            title="Demo",
            paper_reference="none",
            runner=runner,
            quick_params={"trials": 1},
            full_params={"trials": 5},
        )

    def test_quick_and_full_scales(self):
        spec = self._spec()
        assert spec.run("quick").rows[0]["trials"] == 1
        assert spec.run("full").rows[0]["trials"] == 5

    def test_overrides(self):
        assert self._spec().run("quick", bonus=7).rows[0]["bonus"] == 7

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            self._spec().run("medium")

    def test_returns_typed_result_with_provenance(self):
        result = self._spec().run("quick", seed=11, jobs=2)
        assert isinstance(result, ExperimentResult)
        assert result.identifier == "demo"
        assert result.title == "Demo"
        assert result.scale == "quick"
        assert result.seed == 11
        assert result.jobs == 2
        assert result.engine == "loop"
        assert result.wall_time >= 0.0
        assert result.columns == ["trials", "bonus"]

    def test_runconfig_and_options_are_mutually_exclusive(self):
        with pytest.raises(TypeError):
            self._spec().run("quick", run=RunConfig(seed=0), seed=3)

    def test_runner_receives_run_config(self):
        received = {}

        def runner(params, run):
            received["run"] = run
            return []

        spec = ExperimentSpec(
            identifier="probe", title="Probe", paper_reference="none", runner=runner
        )
        config = RunConfig(seed=9, engine="compiled", jobs=3)
        spec.run("quick", run=config)
        assert received["run"] is config


class TestTrialBatchFallbackWarning:
    """An ignored ``--trial-batch`` is never silent: run_trials warns once per
    run, naming the reason, and runs the trials one at a time."""

    def _run(self, **config_fields):
        from repro.experiments.harness import run_trials
        from repro.processes.epidemic import TwoWayEpidemicProtocol

        config = RunConfig(
            seed=2, engine="compiled", stop="correct", trial_batch=4, **config_fields
        )
        return run_trials(lambda: TwoWayEpidemicProtocol(16), trials=4, run=config)

    def test_byzantine_fallback_warns_with_reason(self):
        from repro.adversary.byzantine import ByzantineSpec

        with pytest.warns(RuntimeWarning, match="byzantine overlays run per trial"):
            results = self._run(byzantine=ByzantineSpec(fraction=0.25))
        assert len(results) == 4

    def test_scheduler_fallback_warns_with_reason(self):
        from repro.adversary.schedulers import SchedulerSpec

        with pytest.warns(RuntimeWarning, match="adversarial schedulers run per trial"):
            self._run(scheduler=SchedulerSpec(kind="biased", hot_fraction=0.1, hot_weight=3.0))

    def test_fault_campaign_fallback_warns_with_reason(self):
        from repro.adversary.plan import FaultEvent, FaultPlan

        with pytest.warns(RuntimeWarning, match="fault campaigns run per trial"):
            self._run(faults=FaultPlan((FaultEvent(at=5, kind="reset", count=2),)))

    def test_warning_fires_once_per_run(self):
        import warnings as warnings_module

        from repro.adversary.byzantine import ByzantineSpec

        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            self._run(byzantine=ByzantineSpec(fraction=0.25))
        fallback = [w for w in caught if "--trial-batch ignored" in str(w.message)]
        assert len(fallback) == 1

    def test_batchable_config_does_not_warn(self):
        import warnings as warnings_module

        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            self._run()
        assert not [w for w in caught if "--trial-batch" in str(w.message)]


class TestByzantineProvenance:
    def test_spec_run_stamps_byzantine_provenance(self, tmp_path):
        from repro.adversary.byzantine import ByzantineSpec

        spec = ExperimentSpec(
            identifier="probe",
            title="Probe",
            paper_reference="none",
            runner=lambda params, run: [{"x": 1}],
        )
        config = RunConfig(
            seed=1, byzantine=ByzantineSpec(fraction=0.2, strategy="random_reply")
        )
        result = spec.run("quick", run=config)
        assert result.byzantine == {"fraction": 0.2, "strategy": "random_reply"}
        path = result.save(tmp_path / "probe.json")
        assert ExperimentResult.load(path).byzantine == result.byzantine

    def test_byzantine_provenance_defaults_to_none(self):
        spec = ExperimentSpec(
            identifier="probe",
            title="Probe",
            paper_reference="none",
            runner=lambda params, run: [{"x": 1}],
        )
        assert spec.run("quick", run=RunConfig(seed=1)).byzantine is None
