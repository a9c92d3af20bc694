"""Tests for the typed run contract (RunConfig / make_simulation / run(config))."""

import pytest

from repro.core.propagate_reset import ResetWaveProtocol
from repro.core.silent_n_state import SilentNStateSSR
from repro.engine.batch_simulation import BatchSimulation
from repro.engine.run_config import (
    COUNTS_EPOCH_MESSAGE,
    ENGINES,
    STOPS,
    RunConfig,
    make_simulation,
)
from repro.engine.simulation import Simulation


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.engine == "loop"
        assert config.stop == "stabilized"
        assert config.seed is None
        assert config.max_interactions is None
        assert config.check_interval is None
        assert config.jobs == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"engine": "turbo"},
            {"stop": "bogus"},
            {"jobs": 0},
            {"max_interactions": -1},
            {"check_interval": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_frozen(self):
        config = RunConfig()
        with pytest.raises(AttributeError):
            config.engine = "compiled"

    def test_replace_revalidates(self):
        config = RunConfig(seed=3)
        replaced = config.replace(engine="compiled", jobs=4)
        assert replaced.engine == "compiled" and replaced.jobs == 4
        assert replaced.seed == 3
        assert config.engine == "loop"  # original untouched
        with pytest.raises(ValueError):
            config.replace(engine="turbo")

    def test_dict_round_trip(self):
        config = RunConfig(
            engine="compiled", stop="silent", seed=7, max_interactions=100,
            check_interval=5, jobs=2,
        )
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_to_dict_hides_non_serializable_seeds(self):
        import numpy as np

        config = RunConfig(seed=np.random.default_rng(0))
        assert config.to_dict()["seed"] is None

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            RunConfig.from_dict({"engine": "loop", "warp": 9})

    def test_catalogued_constants(self):
        assert ENGINES == ("loop", "compiled", "counts")
        assert STOPS == ("stabilized", "correct", "silent")


class TestFailFastValidation:
    """Unsupported combinations are rejected at construction time, before any
    seeding or simulation work -- never silently mid-run."""

    def test_counts_engine_rejects_epoch_scheduler_at_validation(self):
        from repro.adversary.schedulers import SchedulerSpec

        with pytest.raises(ValueError) as excinfo:
            RunConfig(
                engine="counts",
                scheduler=SchedulerSpec(kind="epoch", blocks=4, split_time=1.0),
            )
        assert str(excinfo.value) == COUNTS_EPOCH_MESSAGE

    def test_counts_simulation_raises_the_same_message_directly(self):
        """Bypassing RunConfig (direct engine construction) hits the identical
        message, so the two rejection paths can never drift apart."""
        from repro.adversary.schedulers import SchedulerSpec
        from repro.engine.counts_simulation import CountsSimulation

        protocol = SilentNStateSSR(8)
        simulation = CountsSimulation(protocol, rng=0)
        config = RunConfig(
            engine="compiled",
            scheduler=SchedulerSpec(kind="epoch", blocks=4, split_time=1.0),
        )
        with pytest.raises(NotImplementedError) as excinfo:
            simulation.run(config)
        assert str(excinfo.value) == COUNTS_EPOCH_MESSAGE

    def test_byzantine_requires_a_spec_instance(self):
        with pytest.raises(TypeError, match="ByzantineSpec"):
            RunConfig(byzantine={"fraction": 0.2})

    def test_byzantine_excludes_fault_campaigns(self):
        from repro.adversary.byzantine import ByzantineSpec
        from repro.adversary.plan import FaultEvent, FaultPlan

        with pytest.raises(ValueError, match="persistent"):
            RunConfig(
                byzantine=ByzantineSpec(fraction=0.2),
                faults=FaultPlan((FaultEvent(at=10, count=2),)),
            )

    def test_byzantine_requires_the_uniform_scheduler(self):
        from repro.adversary.byzantine import ByzantineSpec
        from repro.adversary.schedulers import SchedulerSpec

        with pytest.raises(ValueError, match="uniform"):
            RunConfig(
                byzantine=ByzantineSpec(fraction=0.2),
                scheduler=SchedulerSpec(kind="biased", hot_fraction=0.1, hot_weight=3.0),
            )
        # The explicit uniform spec is fine.
        config = RunConfig(
            byzantine=ByzantineSpec(fraction=0.2),
            scheduler=SchedulerSpec(kind="uniform"),
        )
        assert config.byzantine.fraction == 0.2

    def test_byzantine_excludes_interaction_hooks(self):
        from repro.adversary.byzantine import ByzantineSpec
        from repro.engine.hooks import CountingHook

        with pytest.raises(ValueError, match="overlay"):
            make_simulation(
                SilentNStateSSR(8),
                RunConfig(byzantine=ByzantineSpec(fraction=0.2)),
                hooks=[CountingHook(lambda a, b: True)],
            )

    def test_trial_batch_rejects_byzantine_configs(self):
        from repro.adversary.byzantine import ByzantineSpec
        from repro.engine.compiled import ProtocolCompiler
        from repro.engine.rng import spawn_rngs
        from repro.engine.trial_batch import TrialBatchSimulation

        protocol = SilentNStateSSR(8)
        compiled = ProtocolCompiler().compile(protocol)
        rngs = spawn_rngs(0, 2)
        configurations = [
            SilentNStateSSR(8).initial_configuration(rng) for rng in rngs
        ]
        simulation = TrialBatchSimulation(
            protocol, rngs, configurations=configurations, compiled=compiled
        )
        config = RunConfig(
            engine="compiled",
            byzantine=ByzantineSpec(fraction=0.25),
            trial_batch=2,
        )
        with pytest.raises(NotImplementedError, match="byzantine overlays run per trial"):
            simulation.run(config)

    def test_byzantine_dict_round_trip(self):
        from repro.adversary.byzantine import ByzantineSpec

        config = RunConfig(
            engine="compiled",
            seed=7,
            byzantine=ByzantineSpec(fraction=0.35, strategy="random_reply"),
        )
        restored = RunConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.byzantine.strategy == "random_reply"


class TestMakeSimulation:
    def test_loop_engine(self):
        simulation = make_simulation(SilentNStateSSR(8), RunConfig(seed=0))
        assert isinstance(simulation, Simulation)

    def test_compiled_engine(self):
        simulation = make_simulation(
            SilentNStateSSR(8), RunConfig(seed=0, engine="compiled")
        )
        assert isinstance(simulation, BatchSimulation)

    def test_default_config(self):
        assert isinstance(make_simulation(SilentNStateSSR(8)), Simulation)

    def test_hooks_rejected_on_compiled_engine(self):
        from repro.engine.hooks import CountingHook

        with pytest.raises(ValueError, match="hooks"):
            make_simulation(
                SilentNStateSSR(8),
                RunConfig(engine="compiled"),
                hooks=[CountingHook(lambda a, b: True)],
            )

    def test_explicit_rng_overrides_config_seed(self):
        import numpy as np

        protocol = SilentNStateSSR(8)
        rng = np.random.default_rng(5)
        simulation = make_simulation(protocol, RunConfig(seed=0), rng=rng)
        assert simulation.rng is rng


class TestPolymorphicRun:
    """simulation.run(config) executes the plan on either engine."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_until_stop_condition(self, engine):
        protocol = SilentNStateSSR(10)
        config = RunConfig(engine=engine, stop="stabilized", seed=1)
        simulation = make_simulation(
            protocol, config, configuration=protocol.worst_case_configuration()
        )
        result = simulation.run(config)
        assert result.stopped and result.reason == "stabilized"
        assert result.engine == engine

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cap_is_honoured(self, engine):
        protocol = ResetWaveProtocol(16, rmax=5, dmax=5)
        config = RunConfig(
            engine=engine, stop="silent", seed=0, max_interactions=3, check_interval=1
        )
        simulation = make_simulation(
            protocol, config, configuration=protocol.triggered_configuration()
        )
        result = simulation.run(config)
        assert result.interactions <= 3

    @pytest.mark.parametrize("engine", ENGINES)
    def test_integer_run_still_steps_exactly(self, engine):
        protocol = SilentNStateSSR(8)
        simulation = make_simulation(protocol, RunConfig(engine=engine, seed=0))
        assert simulation.run(25) is None
        assert simulation.interactions == 25

    def test_matches_explicit_run_until_stabilized(self):
        protocol_a = SilentNStateSSR(10)
        protocol_b = SilentNStateSSR(10)
        config = RunConfig(stop="stabilized", seed=9)
        plan = make_simulation(
            protocol_a, config, configuration=protocol_a.worst_case_configuration()
        ).run(config)
        explicit = Simulation(
            protocol_b, configuration=protocol_b.worst_case_configuration(), rng=9
        ).run_until_stabilized()
        assert plan == explicit
