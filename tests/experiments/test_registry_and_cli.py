"""Tests for the experiment registry and the CLI."""

import importlib
import re

import pytest

from repro.cli import main
from repro.engine.run_config import RunConfig
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments


class TestRegistry:
    def test_all_design_doc_experiments_are_registered(self):
        expected = {
            "table1",
            "silent_n_state_quadratic",
            "silent_lower_bound",
            "log_lower_bound",
            "epidemic",
            "roll_call",
            "bounded_epidemic",
            "binary_tree_assignment",
            "optimal_silent",
            "propagate_reset",
            "sublinear_tradeoff",
            "history_tree_safety",
            "state_complexity",
            "synthetic_coin",
        }
        assert expected <= set(list_experiments())

    def test_every_spec_has_quick_and_full_params(self):
        for spec in EXPERIMENTS.values():
            assert isinstance(spec.quick_params, dict)
            assert isinstance(spec.full_params, dict)
            assert spec.title and spec.paper_reference

    def test_get_experiment_unknown_id(self):
        with pytest.raises(KeyError):
            get_experiment("nonexistent")

    def test_list_is_sorted(self):
        identifiers = list_experiments()
        assert identifiers == sorted(identifiers)

    def test_registration_rejects_mismatched_identifier(self):
        from repro.experiments.harness import ExperimentSpec
        from repro.experiments.registry import _register

        def runner(params, run):
            return []

        runner.experiment_identifier = "something_else"
        with pytest.raises(ValueError, match="something_else"):
            _register(
                ExperimentSpec(
                    identifier="mismatch",
                    title="Mismatch",
                    paper_reference="none",
                    runner=runner,
                )
            )


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "table1" in output and "epidemic" in output

    def test_run_small_experiment(self, capsys):
        code = main(
            ["run", "log_lower_bound", "--scale", "quick", "--seed", "1"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "log_lower_bound" in output and "rows in" in output

    def test_run_markdown_output(self, capsys):
        code = main(["run", "fratricide_failure", "--markdown"])
        assert code == 0
        assert "|" in capsys.readouterr().out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "does_not_exist"]) == 2
        output = capsys.readouterr().out
        assert output.startswith("error: unknown experiment 'does_not_exist'")
        assert "known:" in output

    def test_uncompilable_table_is_a_clean_error(self, capsys):
        assert main(["run", "optimal_silent", "--engine", "compiled"]) == 2
        output = capsys.readouterr().out
        assert output.startswith("error: optimal_silent: ")
        assert "max_states" in output and "try --engine loop" in output
        assert "Traceback" not in output

    @pytest.mark.parametrize("engine", ["compiled", "counts"])
    @pytest.mark.parametrize(
        "identifier", ["sublinear_tradeoff", "sublinear_scaling", "history_tree_safety"]
    )
    def test_loop_only_experiment_rejects_table_engine(
        self, identifier, engine, capsys, monkeypatch, tmp_path
    ):
        """History trees run only on the loop engine: refuse before simulating."""
        from repro.experiments import sublinear_experiments

        def no_simulation(*args, **kwargs):
            raise AssertionError("a Simulation was constructed")

        monkeypatch.setattr(sublinear_experiments, "Simulation", no_simulation)
        argv = ["run", identifier, "--engine", engine, "--scale", "quick", "--seed", "1"]
        assert main(argv + ["--output", str(tmp_path)]) == 2
        output = capsys.readouterr().out
        assert output.startswith(f"error: {identifier}: ")
        assert f"loop engine, not {engine!r}" in output and "try --engine loop" in output
        assert "Traceback" not in output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("engine", ["compiled", "counts"])
    @pytest.mark.parametrize(
        "module, identifier",
        [
            ("table1", "table1"),
            ("ablations", "ablation_dormancy"),
            ("ablations", "ablation_timer"),
            ("ablations", "ablation_sync_range"),
            ("lower_bounds", "silent_lower_bound"),
            ("lower_bounds", "log_lower_bound"),
            ("lower_bounds", "fratricide_failure"),
        ],
    )
    def test_direct_loop_experiment_rejects_table_engine(
        self, module, identifier, engine, capsys, monkeypatch, tmp_path
    ):
        """These runners seed and run loop simulations themselves: refuse a
        table engine before seeding rather than record one that never ran."""
        runner_module = importlib.import_module(f"repro.experiments.{module}")

        def no_seeding(*args, **kwargs):
            raise AssertionError("a trial was seeded or simulated")

        monkeypatch.setattr(runner_module, "Simulation", no_seeding)
        monkeypatch.setattr(runner_module, "spawn_rngs", no_seeding)
        argv = ["run", identifier, "--engine", engine, "--scale", "quick", "--seed", "1"]
        assert main(argv + ["--output", str(tmp_path)]) == 2
        output = capsys.readouterr().out
        assert output.startswith(f"error: {identifier}: ")
        assert f"loop engine, not {engine!r}" in output and "try --engine loop" in output
        assert "Traceback" not in output
        assert list(tmp_path.iterdir()) == []

    def test_run_forwards_jobs_flag(self, capsys):
        from repro.experiments.harness import ExperimentSpec

        spec = ExperimentSpec(
            identifier="jobs_cli_demo",
            title="Jobs CLI demo",
            paper_reference="none",
            runner=lambda params, run: [{"jobs": run.jobs}],
        )
        EXPERIMENTS[spec.identifier] = spec
        try:
            assert main(["run", "jobs_cli_demo", "--jobs", "3"]) == 0
            output = capsys.readouterr().out
            assert "3" in output
        finally:
            del EXPERIMENTS[spec.identifier]

    def test_run_forwards_engine_flag(self, capsys):
        spec_holder = {}

        def runner(params, run):
            spec_holder["config"] = run
            return [{"engine": run.engine}]

        from repro.experiments.harness import ExperimentSpec

        spec = ExperimentSpec(
            identifier="engine_cli_demo",
            title="Engine CLI demo",
            paper_reference="none",
            runner=runner,
        )
        EXPERIMENTS[spec.identifier] = spec
        try:
            assert main(["run", "engine_cli_demo", "--engine", "compiled"]) == 0
            assert spec_holder["config"] == RunConfig(engine="compiled", seed=0)
        finally:
            del EXPERIMENTS[spec.identifier]


class TestCliSeedRegression:
    """--seed makes experiment runs reproducible from the CLI."""

    def _capture(self, capsys, argv):
        """The printed run with its wall-clock seconds blanked (they vary run to run)."""
        assert main(argv) == 0
        return re.sub(r"(-- \d+ rows in )[0-9.]+s --", r"\1?s --", capsys.readouterr().out)

    def test_same_seed_same_table(self, capsys):
        first = self._capture(
            capsys, ["run", "log_lower_bound", "--scale", "quick", "--seed", "7"]
        )
        second = self._capture(
            capsys, ["run", "log_lower_bound", "--scale", "quick", "--seed", "7"]
        )
        assert first == second

    def test_different_seed_different_table(self, capsys):
        first = self._capture(
            capsys, ["run", "log_lower_bound", "--scale", "quick", "--seed", "7"]
        )
        second = self._capture(
            capsys, ["run", "log_lower_bound", "--scale", "quick", "--seed", "8"]
        )
        assert first != second

    def test_seed_reaches_runner_via_run_config(self, capsys):
        from repro.experiments.harness import ExperimentSpec

        seeds = []

        def runner(params, run):
            seeds.append(run.seed)
            return [{"seed": run.seed}]

        spec = ExperimentSpec(
            identifier="seed_cli_demo",
            title="Seed CLI demo",
            paper_reference="none",
            runner=runner,
        )
        EXPERIMENTS[spec.identifier] = spec
        try:
            assert main(["run", "seed_cli_demo", "--seed", "42"]) == 0
            assert main(["run", "seed_cli_demo"]) == 0  # default pins seed 0
            assert seeds == [42, 0]
        finally:
            del EXPERIMENTS[spec.identifier]
