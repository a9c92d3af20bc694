"""Tests for the persistent Byzantine overlay (:mod:`repro.adversary.byzantine`).

Four layers, mirroring the engine-equivalence suite:

1. **Spec contract** -- validation, count clamping, serialization round trip.
2. **Table structure** -- exhaustive checks on the extended table: the
   honest/honest block *is* the base table, adversarial indices stay frozen,
   Byzantine/Byzantine pairs are null, ``cheat_then_punish`` flips exactly on
   null base entries.
3. **Selection determinism** -- the adversarial agent set is bit-identical
   across the loop/compiled/counts engines and across ``--jobs`` layouts at
   matched seeds (the acceptance contract of the byzantine experiments).
4. **Outcome law** -- stabilization-time distributions under the overlay are
   KS-indistinguishable across the three engines, and a Hypothesis property
   checks that Byzantine agents never leave their hostile table (and honest
   agents never enter it) over arbitrary strategies, fractions, and seeds.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.adversary.byzantine import (
    BYZANTINE_AGENTS_KEY,
    BYZANTINE_COUNT_KEY,
    BYZANTINE_DIGEST_KEY,
    BYZANTINE_STATE_COUNTS_KEY,
    BYZANTINE_STRATEGIES,
    BYZANTINE_STRATEGY_KEY,
    HONEST_TAG,
    ByzantineSpec,
    TaggedState,
    build_byzantine_overlay,
)
from repro.core.epsilon_consensus import EpsilonConsensusProtocol
from repro.core.silent_n_state import SilentNStateSSR
from repro.engine.compiled import ProtocolCompiler, _as_raw_tables
from repro.engine.rng import make_rng
from repro.engine.run_config import ENGINES, RunConfig, make_simulation
from repro.experiments.harness import run_trials
from repro.processes.epidemic import TwoWayEpidemicProtocol

KS_ALPHA = 0.001


# -- spec contract -------------------------------------------------------------------


class TestByzantineSpec:
    def test_strategies_catalogue(self):
        assert BYZANTINE_STRATEGIES == (
            "worst_case",
            "random_reply",
            "cheat_then_punish",
        )

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_fraction_must_be_in_open_unit_interval(self, fraction):
        with pytest.raises(ValueError, match="fraction"):
            ByzantineSpec(fraction=fraction)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            ByzantineSpec(fraction=0.2, strategy="bogus")

    def test_count_rounds_and_clamps(self):
        assert ByzantineSpec(fraction=0.25).count(12) == 3
        # At least one adversary and at least one honest agent.
        assert ByzantineSpec(fraction=0.01).count(10) == 1
        assert ByzantineSpec(fraction=0.99).count(10) == 9

    def test_dict_round_trip(self):
        spec = ByzantineSpec(fraction=0.35, strategy="cheat_then_punish")
        assert ByzantineSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            ByzantineSpec.from_dict({"fraction": 0.2, "colour": "red"})

    def test_describe_names_fraction_and_strategy(self):
        text = ByzantineSpec(fraction=0.2, strategy="random_reply").describe()
        assert "20%" in text and "random_reply" in text


# -- extended-table structure (exhaustive on small protocols) ------------------------


def overlay_for(protocol, strategy, fraction=0.25):
    compiled = ProtocolCompiler().compile(protocol)
    return build_byzantine_overlay(
        protocol, compiled, ByzantineSpec(fraction=fraction, strategy=strategy)
    )


@pytest.mark.parametrize("strategy", BYZANTINE_STRATEGIES)
class TestOverlayTables:
    def test_honest_block_is_the_base_table(self, strategy):
        """Tag-0/tag-0 entries agree with the base table branch for branch."""
        protocol = SilentNStateSSR(6)
        overlay = overlay_for(protocol, strategy)
        base = _as_raw_tables(overlay.base)
        ext = _as_raw_tables(overlay.compiled)
        size, ext_size = base["num_states"], ext["num_states"]
        assert ext_size == overlay.tags * size
        for a in range(size):
            for b in range(size):
                row, ext_row = a * size + b, a * ext_size + b
                assert bool(ext["changes"][ext_row]) == bool(base["changes"][row])
                base_branches = {
                    (int(base["initiator"][row, k]), int(base["responder"][row, k])): float(
                        base["probability"][row, k]
                    )
                    for k in range(base["initiator"].shape[1])
                    if base["probability"][row, k] > 0
                }
                ext_branches = {}
                for k in range(ext["initiator"].shape[1]):
                    if ext["probability"][ext_row, k] > 0:
                        key = (
                            int(ext["initiator"][ext_row, k]),
                            int(ext["responder"][ext_row, k]),
                        )
                        ext_branches[key] = ext_branches.get(key, 0.0) + float(
                            ext["probability"][ext_row, k]
                        )
                assert ext_branches == pytest.approx(base_branches)

    def test_byzantine_indices_never_reach_honest_tags(self, strategy):
        """No positive-probability branch maps a tagged state back to tag 0.

        This is the table-level form of "Byzantine agents never leave their
        hostile table": every outcome of a tagged participant stays tagged.
        """
        protocol = SilentNStateSSR(6)
        overlay = overlay_for(protocol, strategy)
        ext = _as_raw_tables(overlay.compiled)
        size = overlay.num_base_states
        ext_size = ext["num_states"]
        for a in range(ext_size):
            for b in range(ext_size):
                row = a * ext_size + b
                for k in range(ext["initiator"].shape[1]):
                    if ext["probability"][row, k] <= 0:
                        continue
                    if a >= size:
                        assert int(ext["initiator"][row, k]) >= size
                    if b >= size:
                        assert int(ext["responder"][row, k]) >= size

    def test_honest_outcomes_stay_honest(self, strategy):
        """Symmetrically: an honest participant never acquires a tag."""
        protocol = SilentNStateSSR(6)
        overlay = overlay_for(protocol, strategy)
        ext = _as_raw_tables(overlay.compiled)
        size = overlay.num_base_states
        ext_size = ext["num_states"]
        for a in range(ext_size):
            for b in range(ext_size):
                row = a * ext_size + b
                for k in range(ext["initiator"].shape[1]):
                    if ext["probability"][row, k] <= 0:
                        continue
                    if a < size:
                        assert int(ext["initiator"][row, k]) < size
                    if b < size:
                        assert int(ext["responder"][row, k]) < size

    def test_branch_probabilities_sum_to_one(self, strategy):
        protocol = SilentNStateSSR(6)
        overlay = overlay_for(protocol, strategy)
        ext = _as_raw_tables(overlay.compiled)
        totals = ext["probability"].sum(axis=1)
        assert np.allclose(totals, 1.0)


class TestStrategySpecificTables:
    def test_worst_case_freezes_the_adversary_and_nulls_byz_pairs(self):
        protocol = TwoWayEpidemicProtocol(8)
        overlay = overlay_for(protocol, "worst_case")
        ext = _as_raw_tables(overlay.compiled)
        size, ext_size = overlay.num_base_states, ext["num_states"]
        for a in range(ext_size):
            for b in range(ext_size):
                row = a * ext_size + b
                if a >= size:  # adversarial initiator: its own index is frozen
                    assert all(
                        int(ext["initiator"][row, k]) == a
                        for k in range(ext["initiator"].shape[1])
                        if ext["probability"][row, k] > 0
                    )
                if b >= size:
                    assert all(
                        int(ext["responder"][row, k]) == b
                        for k in range(ext["responder"].shape[1])
                        if ext["probability"][row, k] > 0
                    )
                if a >= size and b >= size:
                    assert not ext["changes"][row]

    def test_worst_case_claim_maximizes_damage_on_epidemic(self):
        """On the epidemic, the worst claim against a susceptible responder is
        'infected' (it flips the responder), and no claim moves an infected
        responder -- so the byz/susceptible entry changes and byz/infected
        does not."""
        protocol = TwoWayEpidemicProtocol(8)
        overlay = overlay_for(protocol, "worst_case")
        compiled = overlay.compiled
        base = overlay.base
        ext = _as_raw_tables(compiled)
        ext_size = ext["num_states"]
        infected = {
            s: base.states[s].infected for s in range(base.num_states)
        }
        for b, is_infected in infected.items():
            row = (overlay.num_base_states + 0) * ext_size + b
            # The two-way epidemic infects in both directions, so any honest
            # partner that can change, does under the worst-case claim.
            assert bool(ext["changes"][row]) == (not is_infected)

    def test_cheat_then_punish_flips_on_null_interactions_only(self):
        protocol = SilentNStateSSR(6)
        overlay = overlay_for(protocol, "cheat_then_punish")
        assert overlay.tags == 3
        base = _as_raw_tables(overlay.base)
        ext = _as_raw_tables(overlay.compiled)
        size, ext_size = overlay.num_base_states, ext["num_states"]
        for a in range(size):
            for b in range(size):
                base_row = a * size + b
                # Cooperating cheater as initiator against an honest responder.
                row = (size + a) * ext_size + b
                outcomes = [
                    (int(ext["initiator"][row, k]), int(ext["responder"][row, k]))
                    for k in range(ext["initiator"].shape[1])
                    if ext["probability"][row, k] > 0
                ]
                if base["changes"][base_row]:
                    # Active base pair: the cheater keeps cooperating (tag 1).
                    assert all(size <= out_i < 2 * size for out_i, _ in outcomes)
                else:
                    # Null base pair: permanent flip to the punish tag (tag 2).
                    assert outcomes == [(2 * size + a, b)]
                assert ext["changes"][row]

    def test_random_reply_merges_duplicate_outcomes(self):
        """The epidemic collapses both claims to at most two outcomes, so the
        byz/honest mixture rows stay within the base branch budget and their
        probabilities are a convex combination over the claims."""
        protocol = TwoWayEpidemicProtocol(8)
        overlay = overlay_for(protocol, "random_reply")
        ext = _as_raw_tables(overlay.compiled)
        size, ext_size = overlay.num_base_states, ext["num_states"]
        susceptible = next(
            s for s in range(size) if not overlay.base.states[s].infected
        )
        row = (size + 0) * ext_size + susceptible
        branches = {
            int(ext["responder"][row, k]): float(ext["probability"][row, k])
            for k in range(ext["responder"].shape[1])
            if ext["probability"][row, k] > 0
        }
        # A random claim is 'infected' half the time: the susceptible honest
        # responder is infected with probability 1/2.
        infected = next(s for s in range(size) if overlay.base.states[s].infected)
        assert branches == pytest.approx({infected: 0.5, susceptible: 0.5})


# -- cross-engine selection determinism ----------------------------------------------


def byzantine_trials(engine, spec, *, seed=11, trials=3, jobs=1):
    """The acceptance harness: identical per-trial seeds on every engine."""
    return run_trials(
        protocol_factory=lambda: SilentNStateSSR(12),
        trials=trials,
        run=RunConfig(
            engine=engine,
            stop="stabilized",
            seed=seed,
            jobs=jobs,
            byzantine=spec,
            max_interactions=40_000,
        ),
        configuration_factory=lambda protocol, rng: protocol.random_configuration(rng),
    )


@pytest.mark.parametrize("strategy", BYZANTINE_STRATEGIES)
class TestSelectionEquivalence:
    def test_marked_state_counts_identical_across_all_engines(self, strategy):
        """The per-state adversary histogram is bit-identical on all three
        engines at matched seeds (the counts engine's whole selection)."""
        spec = ByzantineSpec(fraction=0.25, strategy=strategy)
        per_engine = {
            engine: [
                result.extra[BYZANTINE_STATE_COUNTS_KEY]
                for result in byzantine_trials(engine, spec)
            ]
            for engine in ENGINES
        }
        assert per_engine["loop"] == per_engine["compiled"] == per_engine["counts"]
        for counts_list in per_engine["loop"]:
            assert sum(counts_list) == spec.count(12)

    def test_marked_agent_ids_identical_on_identity_engines(self, strategy):
        """Loop and compiled agree on *which* agents turn Byzantine."""
        spec = ByzantineSpec(fraction=0.25, strategy=strategy)
        loop = byzantine_trials("loop", spec)
        compiled = byzantine_trials("compiled", spec)
        for left, right in zip(loop, compiled):
            assert left.extra[BYZANTINE_AGENTS_KEY] == right.extra[BYZANTINE_AGENTS_KEY]
            assert left.extra[BYZANTINE_DIGEST_KEY] == right.extra[BYZANTINE_DIGEST_KEY]
            assert len(left.extra[BYZANTINE_AGENTS_KEY]) == spec.count(12)

    @pytest.mark.parametrize("engine", ["compiled", "counts"])
    def test_selection_and_results_invariant_under_jobs(self, strategy, engine):
        """--jobs redistributes work, never randomness: same digests, same
        stabilization times for every worker layout."""
        spec = ByzantineSpec(fraction=0.25, strategy=strategy)
        sequential = byzantine_trials(engine, spec, trials=4, jobs=1)
        parallel = byzantine_trials(engine, spec, trials=4, jobs=3)
        assert [r.extra[BYZANTINE_DIGEST_KEY] for r in sequential] == [
            r.extra[BYZANTINE_DIGEST_KEY] for r in parallel
        ]
        assert [r.parallel_time for r in sequential] == [
            r.parallel_time for r in parallel
        ]
        assert [r.stopped for r in sequential] == [r.stopped for r in parallel]


class TestAnnotation:
    def test_extra_keys_present_and_consistent(self):
        spec = ByzantineSpec(fraction=0.3, strategy="worst_case")
        (result,) = byzantine_trials("compiled", spec, trials=1)
        assert result.extra[BYZANTINE_STRATEGY_KEY] == "worst_case"
        assert result.extra[BYZANTINE_COUNT_KEY] == spec.count(12)
        assert sum(result.extra[BYZANTINE_STATE_COUNTS_KEY]) == spec.count(12)
        assert isinstance(result.extra[BYZANTINE_DIGEST_KEY], int)

    def test_counts_engine_has_no_agent_ids(self):
        """Count vectors carry no identities; the counts engine records the
        per-state histogram (cross-engine comparable) but no id list."""
        spec = ByzantineSpec(fraction=0.3, strategy="worst_case")
        (result,) = byzantine_trials("counts", spec, trials=1)
        assert BYZANTINE_AGENTS_KEY not in result.extra
        assert sum(result.extra[BYZANTINE_STATE_COUNTS_KEY]) == spec.count(12)


class TestInstallGuards:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_overlay_installs_once_and_before_any_interaction(self, engine):
        config = RunConfig(
            engine=engine, seed=0, byzantine=ByzantineSpec(fraction=0.25), max_interactions=100
        )
        simulation = make_simulation(TwoWayEpidemicProtocol(12), config)
        simulation.run(config)
        with pytest.raises(RuntimeError, match="already installed"):
            simulation.run(config)
        late = make_simulation(TwoWayEpidemicProtocol(12), config)
        late.run(5)
        with pytest.raises(RuntimeError, match="before any interaction"):
            late.run(config)


# -- outcome-distribution equivalence ------------------------------------------------


class TestOutcomeEquivalence:
    TRIALS = 40
    ENGINE_SEEDS = {"loop": 1234, "compiled": 5678, "counts": 9012}

    def stabilization_times(self, engine, seed):
        results = run_trials(
            protocol_factory=lambda: EpsilonConsensusProtocol(16),
            trials=self.TRIALS,
            run=RunConfig(
                engine=engine,
                stop="stabilized",
                seed=seed,
                byzantine=ByzantineSpec(fraction=0.25, strategy="random_reply"),
                max_interactions=60_000,
            ),
        )
        assert all(result.stopped for result in results)
        return np.asarray([result.parallel_time for result in results])

    def test_engines_agree_on_byzantine_stabilization_law(self):
        """One law, three samplers, under a persistent adversary."""
        times = {
            engine: self.stabilization_times(engine, seed)
            for engine, seed in self.ENGINE_SEEDS.items()
        }
        for first, second in itertools.combinations(self.ENGINE_SEEDS, 2):
            ks = stats.ks_2samp(times[first], times[second])
            assert ks.pvalue > KS_ALPHA, (
                f"byzantine stabilization distributions differ between "
                f"{first} and {second} (KS p={ks.pvalue:.2e})"
            )
            ratio = times[second].mean() / times[first].mean()
            assert 0.5 < ratio < 2.0, (
                f"mean byzantine stabilization times diverge between "
                f"{first} and {second} (ratio {ratio:.2f})"
            )


# -- the hostility invariant (Hypothesis) --------------------------------------------


@st.composite
def byzantine_runs(draw):
    strategy = draw(st.sampled_from(BYZANTINE_STRATEGIES))
    fraction = draw(st.floats(min_value=0.1, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return strategy, fraction, seed


class TestHostilityInvariant:
    @given(byzantine_runs())
    @settings(max_examples=20, deadline=None)
    def test_byzantine_agents_never_leave_the_hostile_table(self, data):
        """Marked agents carry a hostile tag at every step of a loop run,
        honest agents never acquire one, and ``cheat_then_punish`` tags are
        monotone (a punisher never resumes cooperating)."""
        strategy, fraction, seed = data
        spec = ByzantineSpec(fraction=fraction, strategy=strategy)
        protocol = SilentNStateSSR(8)
        rng = make_rng(seed)
        configuration = protocol.random_configuration(rng)
        config = RunConfig(
            engine="loop", stop="stabilized", byzantine=spec, max_interactions=0
        )
        simulation = make_simulation(
            protocol, config, configuration=configuration, rng=rng
        )
        simulation.run(config)  # installs the overlay, runs no interactions
        marked = {int(agent) for agent in simulation._byzantine.marked_ids}
        assert len(marked) == spec.count(8)
        last_tags = {}
        for _ in range(6):
            simulation.run(30)
            for agent, state in enumerate(simulation.configuration):
                assert isinstance(state, TaggedState)
                if agent in marked:
                    assert state.tag != HONEST_TAG
                    if strategy == "cheat_then_punish":
                        assert state.tag >= last_tags.get(agent, 1)
                        last_tags[agent] = state.tag
                else:
                    assert state.tag == HONEST_TAG
