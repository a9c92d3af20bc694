"""Unit tests for the compiled batch engine (repro.engine.batch_simulation)."""

import numpy as np
import pytest

from repro.core.propagate_reset import ResetWaveProtocol
from repro.core.silent_n_state import SilentNStateSSR
from repro.engine.batch_simulation import BatchSimulation
from repro.engine.compiled import CompilationError, ProtocolCompiler
from repro.processes.epidemic import EpidemicState, TwoWayEpidemicProtocol
from repro.processes.roll_call import RollCallProtocol

from test_compiled import LazyEpidemicProtocol


def epidemic_simulation(n: int, rng=0, **kwargs) -> BatchSimulation:
    protocol = TwoWayEpidemicProtocol(n)
    compiled = ProtocolCompiler().compile(protocol)
    indices = np.zeros(n, dtype=np.int32)
    indices[0] = compiled.encode_state(EpidemicState(True))
    return BatchSimulation(protocol, indices=indices, rng=rng, compiled=compiled, **kwargs)


class TestConstruction:
    def test_non_compilable_protocol_raises(self):
        from repro.core.initialized_ranking import InitializedLeaderDrivenRanking

        with pytest.raises(CompilationError):
            BatchSimulation(InitializedLeaderDrivenRanking(8))

    def test_configuration_and_indices_are_exclusive(self):
        protocol = TwoWayEpidemicProtocol(4)
        with pytest.raises(ValueError, match="not both"):
            BatchSimulation(
                protocol,
                configuration=protocol.initial_configuration(),
                indices=np.zeros(4, dtype=np.int32),
            )

    def test_indices_validated(self):
        protocol = TwoWayEpidemicProtocol(4)
        with pytest.raises(ValueError, match="shape"):
            BatchSimulation(protocol, indices=np.zeros(5, dtype=np.int32))
        with pytest.raises(ValueError, match="range"):
            BatchSimulation(protocol, indices=np.full(4, 7, dtype=np.int32))

    def test_foreign_compiled_table_rejected(self):
        compiled = ProtocolCompiler().compile(TwoWayEpidemicProtocol(4))
        with pytest.raises(ValueError, match="compiled table"):
            BatchSimulation(TwoWayEpidemicProtocol(5), compiled=compiled)

    def test_parameter_mismatch_rejected_on_table_reuse(self):
        compiled = ProtocolCompiler().compile(ResetWaveProtocol(32, rmax=4, dmax=4))
        with pytest.raises(ValueError, match="state space differs"):
            BatchSimulation(ResetWaveProtocol(32, rmax=3, dmax=4), compiled=compiled)

    def test_default_start_is_initial_configuration(self):
        protocol = TwoWayEpidemicProtocol(6, initially_infected=2)
        simulation = BatchSimulation(protocol, rng=0)
        assert protocol.infected_count(simulation.configuration) == 2


class TestStepping:
    def test_step_increments_interaction_count(self):
        simulation = epidemic_simulation(8)
        simulation.step()
        assert simulation.interactions == 1

    def test_run_executes_exact_count(self):
        simulation = epidemic_simulation(8)
        simulation.run(123)
        assert simulation.interactions == 123
        simulation.run(77)
        assert simulation.interactions == 200

    def test_run_negative_rejected(self):
        with pytest.raises(ValueError):
            epidemic_simulation(8).run(-1)

    def test_parallel_time(self):
        simulation = epidemic_simulation(10)
        simulation.run(55)
        assert simulation.parallel_time == 5.5

    def test_population_is_conserved(self):
        simulation = epidemic_simulation(64, rng=3)
        for _ in range(10):
            simulation.run(256)
            assert simulation.state_counts.sum() == 64


class TestBatchingInvariants:
    def test_epidemic_infections_are_monotone(self):
        """Batched application must never lose an infection (exactness probe)."""
        simulation = epidemic_simulation(256, rng=5)
        infected = simulation.compiled.encode_state(EpidemicState(True))
        last = int(simulation.state_counts[infected])
        for _ in range(40):
            simulation.run(128)
            now = int(simulation.state_counts[infected])
            assert now >= last
            last = now

    def test_roll_call_rosters_only_grow(self):
        protocol = RollCallProtocol(5)
        simulation = BatchSimulation(protocol, rng=7)
        last = 1
        for _ in range(20):
            simulation.run(8)
            now = protocol.minimum_roster_size(simulation.configuration)
            assert now >= last
            last = now

    def test_counts_match_decoded_configuration(self):
        simulation = epidemic_simulation(128, rng=9)
        simulation.run(500)
        decoded = simulation.configuration
        protocol = simulation.protocol
        infected = simulation.compiled.encode_state(EpidemicState(True))
        assert protocol.infected_count(decoded) == int(simulation.state_counts[infected])


class TestRunUntil:
    def test_run_until_correct_sets_metadata(self):
        simulation = epidemic_simulation(64, rng=1)
        result = simulation.run_until_correct()
        assert result.stopped
        assert result.reason == "correct"
        assert result.engine == "compiled"
        assert simulation.protocol.is_correct(simulation.configuration)

    def test_cap_is_respected(self):
        simulation = epidemic_simulation(64, rng=1)
        result = simulation.run_until(
            predicate=lambda configuration: False, max_interactions=100
        )
        assert not result.stopped
        assert result.reason == "cap"
        assert result.interactions == 100

    def test_exactly_one_predicate_required(self):
        simulation = epidemic_simulation(8)
        with pytest.raises(ValueError, match="exactly one"):
            simulation.run_until()
        with pytest.raises(ValueError, match="exactly one"):
            simulation.run_until(
                predicate=lambda c: True, counts_predicate=lambda counts: True
            )

    def test_run_until_silent_uses_table(self):
        protocol = SilentNStateSSR(12)
        simulation = BatchSimulation(
            protocol, configuration=protocol.worst_case_configuration(), rng=2
        )
        result = simulation.run_until_silent()
        assert result.stopped
        assert protocol.is_silent(simulation.configuration)

    def test_slow_path_predicate_decodes(self):
        protocol = RollCallProtocol(4)
        simulation = BatchSimulation(protocol, rng=3)
        result = simulation.run_until(
            predicate=lambda configuration: protocol.minimum_roster_size(configuration)
            >= 2,
            check_interval=4,
        )
        assert result.stopped


class TestRandomizedProtocol:
    def test_lazy_epidemic_converges(self):
        protocol = LazyEpidemicProtocol(48, p=0.3)
        simulation = BatchSimulation(protocol, rng=11)
        result = simulation.run_until_correct(check_interval=48)
        assert result.stopped
        assert protocol.is_correct(simulation.configuration)

    def test_lazy_epidemic_slower_than_eager(self):
        """The branch-probability channel must actually thin the infections."""
        lazy_times = []
        eager_times = []
        for seed in range(5):
            lazy = BatchSimulation(LazyEpidemicProtocol(64, p=0.1), rng=seed)
            lazy_times.append(lazy.run_until_correct().parallel_time)
            eager = BatchSimulation(LazyEpidemicProtocol(64, p=1.0), rng=seed)
            eager_times.append(eager.run_until_correct().parallel_time)
        assert np.mean(lazy_times) > 2.0 * np.mean(eager_times)


class TestResetWave:
    def test_wave_from_all_triggered_stabilizes(self):
        protocol = ResetWaveProtocol(200, rmax=5, dmax=5)
        simulation = BatchSimulation(
            protocol, configuration=protocol.triggered_configuration(), rng=13
        )
        result = simulation.run_until_stabilized()
        assert result.stopped
        assert protocol.is_correct(simulation.configuration)

    def test_wave_from_adversarial_start_stabilizes(self):
        protocol = ResetWaveProtocol(100, rmax=4, dmax=4)
        simulation = BatchSimulation(
            protocol,
            configuration=protocol.random_configuration(np.random.default_rng(3)),
            rng=17,
        )
        result = simulation.run_until_stabilized()
        assert result.stopped
