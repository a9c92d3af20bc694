"""Tests for the ``repro stress`` CLI subcommand.

The acceptance contract: stress campaigns run through the normal experiment
machinery, so ``--output`` artifacts round-trip through ``repro report``
byte-for-byte like any other experiment, and ``--engine`` selects either
engine.
"""

import pytest

from repro.cli import main
from repro.experiments.registry import (
    BYZANTINE_EXPERIMENTS,
    STRESS_EXPERIMENTS,
    get_experiment,
)
from repro.experiments.result import ExperimentResult

#: The cheap stress run used by the CLI tests (single trial, tiny bursts).
FAST_ARGS = ["--trials", "1", "--seed", "3"]


class TestStressCommand:
    def test_runs_every_stress_experiment_by_default(self, capsys):
        code = main(["stress"] + FAST_ARGS)
        output = capsys.readouterr().out
        assert code == 0
        for identifier in STRESS_EXPERIMENTS:
            assert f"== {identifier}:" in output
        assert "mean recovery time" in output

    def test_single_experiment_selection(self, capsys):
        code = main(["stress", "recovery_scheduler"] + FAST_ARGS)
        output = capsys.readouterr().out
        assert code == 0
        assert "recovery_scheduler" in output
        assert "recovery_burst" not in output
        assert "biased" in output and "epoch" in output

    def test_population_override(self, capsys):
        code = main(["stress", "recovery_scheduler", "--n", "8"] + FAST_ARGS)
        output = capsys.readouterr().out
        assert code == 0
        assert "\n8 " in output  # the n column reflects the override

    def test_population_override_below_default_burst_sizes(self, capsys):
        # Regression: --n below the scale's largest default burst size used
        # to crash recovery_burst; oversized bursts now clamp to n.
        code = main(["stress", "--n", "8"] + FAST_ARGS)
        output = capsys.readouterr().out
        assert code == 0
        for identifier in STRESS_EXPERIMENTS:
            assert f"== {identifier}:" in output
        # burst_sizes (2, 6, 12) collapse to (2, 6, 8) at n=8.
        assert "12" not in [row.split()[1] for row in output.splitlines() if row.startswith("8 ")]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["stress", "bogus"])

    def test_stress_registry_entries_are_registered(self):
        for identifier in STRESS_EXPERIMENTS:
            spec = get_experiment(identifier)
            assert spec.runner.experiment_identifier == identifier

    def test_unsupported_engine_combo_is_a_clean_error(self, capsys):
        # recovery_scheduler builds an epoch-partition scheduler, which the
        # counts engine rejects at RunConfig validation time; the CLI must
        # surface the message, not a traceback.
        code = main(["stress", "recovery_scheduler", "--engine", "counts"] + FAST_ARGS)
        output = capsys.readouterr().out
        assert code == 2
        assert "error: recovery_scheduler:" in output
        assert "epoch-partition scheduler" in output

    def test_unsupported_scheduler_row_is_refused_before_any_row_runs(
        self, capsys, monkeypatch
    ):
        # The epoch row is the last of three: the uniform and biased rows
        # must not simulate before it is refused.
        from repro.experiments import stress_experiments

        def no_trials(*args, **kwargs):
            raise AssertionError("run_trials was called")

        monkeypatch.setattr(stress_experiments, "run_trials", no_trials)
        code = main(["stress", "recovery_scheduler", "--engine", "counts"] + FAST_ARGS)
        output = capsys.readouterr().out
        assert code == 2
        assert output.startswith("error: recovery_scheduler:")
        assert "Traceback" not in output


class TestStressByzantine:
    def test_byzantine_flag_selects_the_byzantine_families(self, capsys):
        code = main(["stress", "--byzantine", "--n", "8"] + FAST_ARGS)
        output = capsys.readouterr().out
        assert code == 0
        for identifier in BYZANTINE_EXPERIMENTS:
            assert f"== {identifier}:" in output
        for identifier in set(STRESS_EXPERIMENTS) - set(BYZANTINE_EXPERIMENTS):
            assert f"== {identifier}:" not in output
        assert "max tolerated f" in output
        assert "theory phases" in output

    def test_byzantine_flag_rejects_non_byzantine_experiments(self, capsys):
        code = main(["stress", "recovery_burst", "--byzantine"] + FAST_ARGS)
        output = capsys.readouterr().out
        assert code == 2
        assert "not a Byzantine experiment" in output

    def test_byzantine_families_are_stress_experiments(self):
        assert set(BYZANTINE_EXPERIMENTS) <= set(STRESS_EXPERIMENTS)
        for identifier in BYZANTINE_EXPERIMENTS:
            spec = get_experiment(identifier)
            assert spec.runner.experiment_identifier == identifier

    @pytest.mark.parametrize("engine", ["compiled", "counts"])
    def test_byzantine_artifacts_round_trip_on_table_engines(
        self, capsys, tmp_path, engine
    ):
        """The acceptance contract: both byzantine experiments run end to end
        on the table engines, and their artifacts re-render byte-identically
        through ``repro report``."""
        out_dir = tmp_path / engine
        code = main(
            ["stress", "byzantine_tolerance", "--n", "8", "--engine", engine]
            + ["--output", str(out_dir)]
            + FAST_ARGS
        )
        assert code == 0
        run_output = capsys.readouterr().out
        table_block, separator, _ = run_output.partition("-- artifact:")
        assert separator

        result = ExperimentResult.load(out_dir / "byzantine_tolerance.json")
        assert result.engine == engine
        assert {row["protocol"] for row in result.rows} >= {"silent-n-state"}

        assert main(["report", str(out_dir)]) == 0
        assert capsys.readouterr().out == table_block

    def test_epsilon_consensus_reports_theory_columns(self, capsys):
        code = main(["stress", "epsilon_consensus", "--n", "8"] + FAST_ARGS)
        output = capsys.readouterr().out
        assert code == 0
        assert "theory valid (n > 2f)" in output
        assert "time per theory phase" in output


class TestStressArtifacts:
    def test_artifacts_round_trip_through_report(self, capsys, tmp_path):
        code = main(
            ["stress", "recovery_burst", "--output", str(tmp_path)] + FAST_ARGS
        )
        assert code == 0
        run_output = capsys.readouterr().out
        table_block, separator, _ = run_output.partition("-- artifact:")
        assert separator, "stress --output should announce the artifact path"

        artifact = tmp_path / "recovery_burst.json"
        result = ExperimentResult.load(artifact)
        assert result.identifier == "recovery_burst"
        assert result.seed == 3
        assert result.rows

        assert main(["report", str(tmp_path)]) == 0
        report_output = capsys.readouterr().out
        assert report_output == table_block

    def test_artifact_resave_is_byte_identical(self, capsys, tmp_path):
        assert (
            main(["stress", "recovery_scheduler", "--output", str(tmp_path)] + FAST_ARGS)
            == 0
        )
        capsys.readouterr()
        artifact = tmp_path / "recovery_scheduler.json"
        original = artifact.read_bytes()
        ExperimentResult.load(artifact).save(artifact)
        assert artifact.read_bytes() == original
