"""Unit tests for the Simulation loop and the engine core's stop contract."""

import pytest

from repro.core.fratricide import FratricideLeaderElection
from repro.core.silent_n_state import SilentNStateSSR
from repro.engine.core import DEFAULT_CAP_CUBIC_FACTOR
from repro.engine.run_config import ENGINES, RunConfig, make_simulation
from repro.engine.simulation import Simulation


class TestStepping:
    def test_step_increments_interaction_count(self):
        simulation = Simulation(FratricideLeaderElection(6), rng=0)
        simulation.step()
        assert simulation.interactions == 1

    def test_run_executes_exact_count(self):
        simulation = Simulation(FratricideLeaderElection(6), rng=0)
        simulation.run(123)
        assert simulation.interactions == 123

    def test_run_negative_rejected(self):
        simulation = Simulation(FratricideLeaderElection(6), rng=0)
        with pytest.raises(ValueError):
            simulation.run(-1)

    def test_parallel_time(self):
        simulation = Simulation(FratricideLeaderElection(10), rng=0)
        simulation.run(55)
        assert simulation.parallel_time == 5.5

    def test_mismatched_configuration_rejected(self):
        protocol = FratricideLeaderElection(6)
        other = FratricideLeaderElection(4)
        with pytest.raises(ValueError):
            Simulation(protocol, configuration=other.initial_configuration())


class TestStoppingConditions:
    def test_run_until_correct_fratricide(self):
        protocol = FratricideLeaderElection(16)
        simulation = Simulation(protocol, rng=0)
        result = simulation.run_until_correct()
        assert result.stopped and result.reason == "correct"
        assert protocol.leader_count(simulation.configuration) == 1

    def test_run_until_stabilized_silent_n_state(self):
        protocol = SilentNStateSSR(8)
        simulation = Simulation(
            protocol, configuration=protocol.all_same_rank_configuration(), rng=1
        )
        result = simulation.run_until_stabilized()
        assert result.stopped
        assert protocol.is_correct(simulation.configuration)

    def test_run_until_silent_equals_correct_for_protocol1(self):
        protocol = SilentNStateSSR(6)
        simulation = Simulation(protocol, configuration=protocol.worst_case_configuration(), rng=2)
        result = simulation.run_until_silent()
        assert result.stopped and protocol.is_silent(simulation.configuration)

    def test_cap_is_respected(self):
        protocol = FratricideLeaderElection(8)
        configuration = protocol.all_followers_configuration()
        simulation = Simulation(protocol, configuration=configuration, rng=0)
        result = simulation.run_until_correct(max_interactions=500)
        assert not result.stopped and result.reason == "cap"
        assert simulation.interactions == 500

    def test_predicate_checked_before_first_interaction(self):
        protocol = SilentNStateSSR(5)
        simulation = Simulation(protocol, rng=0)  # clean start is already ranked
        result = simulation.run_until_stabilized()
        assert result.stopped and result.interactions == 0

    def test_invalid_check_interval(self):
        simulation = Simulation(FratricideLeaderElection(6), rng=0)
        with pytest.raises(ValueError):
            simulation.run_until_correct(check_interval=0)

    def test_stop_time_accuracy_within_check_interval(self):
        protocol = FratricideLeaderElection(12)
        simulation = Simulation(protocol, rng=3)
        result = simulation.run_until_correct(check_interval=1)
        # With check_interval=1 the reported count is exact: the configuration
        # one interaction earlier was not yet correct.
        assert result.stopped
        assert result.interactions >= 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_default_cap_is_cubic_in_n(self, engine):
        """Regression: on every engine the default cap is factor * n**3
        (Theta(n^2) parallel time for the quadratic-time baseline)."""
        n = 3
        protocol = FratricideLeaderElection(n)
        configuration = protocol.all_followers_configuration()  # never correct
        simulation = make_simulation(
            protocol, RunConfig(engine=engine, seed=0), configuration=configuration
        )
        result = simulation.run_until_correct(check_interval=10_000)
        assert not result.stopped and result.reason == "cap"
        assert result.interactions == int(DEFAULT_CAP_CUBIC_FACTOR * n**3)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_on_check_fires_where_the_run_continues(self, engine):
        """on_check fires at every check boundary the run continues past,
        and never after the final check (cap or stop)."""
        protocol = FratricideLeaderElection(8)
        configuration = protocol.all_followers_configuration()  # never correct
        simulation = make_simulation(
            protocol, RunConfig(engine=engine, seed=0), configuration=configuration
        )
        seen = []
        simulation.on_check = lambda live: seen.append(live.interactions)
        result = simulation.run_until_correct(max_interactions=50, check_interval=16)
        assert result.reason == "cap" and result.interactions == 50
        assert seen == [0, 16, 32, 48]

        ranked = make_simulation(SilentNStateSSR(5), RunConfig(engine=engine, seed=0))
        ranked.on_check = lambda live: seen.append("after stop")
        result = ranked.run_until_stabilized()  # the clean start is already ranked
        assert result.stopped and result.interactions == 0
        assert seen == [0, 16, 32, 48]

    def test_result_engine_field(self):
        result = Simulation(FratricideLeaderElection(8), rng=0).run_until_correct()
        assert result.engine == "loop"


class TestReproducibility:
    def test_same_seed_same_trajectory(self):
        first = Simulation(FratricideLeaderElection(16), rng=9).run_until_correct()
        second = Simulation(FratricideLeaderElection(16), rng=9).run_until_correct()
        assert first.interactions == second.interactions

    def test_different_seed_usually_differs(self):
        results = {
            Simulation(FratricideLeaderElection(16), rng=seed).run_until_correct().interactions
            for seed in range(5)
        }
        assert len(results) > 1
