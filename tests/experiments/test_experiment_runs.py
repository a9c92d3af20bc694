"""Smoke tests that each experiment runner produces sensible rows.

These use tiny parameterizations (far below the quick scale) so the full test
suite stays fast; the shape assertions are the ones the benchmarks rely on.
All runners are exercised through the uniform ``runner(params, run)``
contract; the rows under test live on the returned ``ExperimentResult``.
"""

import pytest

from repro.engine.run_config import RunConfig
from repro.experiments.epidemic_experiments import (
    run_all_agents_interact,
    run_bounded_epidemic,
    run_epidemic,
    run_roll_call,
)
from repro.experiments.lower_bounds import (
    run_fratricide_failure,
    run_log_lower_bound,
    run_silent_lower_bound,
)
from repro.experiments.optimal_silent_experiments import (
    run_binary_tree_assignment,
    run_optimal_silent_scaling,
    run_propagate_reset,
)
from repro.experiments.silent_n_state_experiments import run_silent_n_state_scaling
from repro.experiments.state_space_experiments import run_state_space
from repro.experiments.sublinear_experiments import run_safety, run_sublinear_tradeoff
from repro.experiments.synthetic_coin_experiments import run_synthetic_coin
from repro.experiments.table1 import run_table1

RUN = RunConfig(seed=0)


class TestProcessExperiments:
    def test_epidemic_rows_match_prediction(self):
        rows = run_epidemic({"ns": (64, 128), "trials": 50}, RUN).rows
        assert len(rows) == 2
        assert all(0.8 < row["mean / predicted"] < 1.2 for row in rows)

    def test_roll_call_rows(self):
        rows = run_roll_call({"ns": (32, 64), "trials": 15}, RUN).rows
        assert all(row["mean interactions"] > 0 for row in rows)

    def test_all_agents_interact_rows(self):
        rows = run_all_agents_interact({"ns": (64,), "trials": 30}, RUN).rows
        assert 0.5 < rows[0]["mean / predicted"] < 2.0

    def test_bounded_epidemic_rows_respect_bounds(self):
        rows = run_bounded_epidemic(
            {"ns": (64,), "ks": (1, 2), "trials": 10, "include_log_level": False}, RUN
        ).rows
        assert len(rows) == 2
        assert all(row["mean tau_k (parallel)"] <= 2.0 * row["paper bound"] for row in rows)


class TestProtocolExperiments:
    def test_silent_n_state_scaling_fits_quadratic(self):
        rows = run_silent_n_state_scaling({"ns": (16, 32, 64), "trials": 5}, RUN).rows
        assert rows[0]["fitted exponent"] > 1.5

    def test_silent_n_state_invalid_start(self):
        with pytest.raises(ValueError):
            run_silent_n_state_scaling({"start": "bogus"}, RUN)

    def test_binary_tree_assignment_is_roughly_linear(self):
        rows = run_binary_tree_assignment({"ns": (32, 64), "trials": 4}, RUN).rows
        assert all(row["mean time"] > 0 for row in rows)
        assert rows[-1]["fitted exponent"] < 1.8

    def test_optimal_silent_scaling_rows(self):
        rows = run_optimal_silent_scaling({"ns": (12, 24), "trials": 2}, RUN).rows
        assert len(rows) == 2 and all(row["mean time"] > 0 for row in rows)

    def test_optimal_silent_invalid_start(self):
        with pytest.raises(ValueError):
            run_optimal_silent_scaling({"start": "bogus"}, RUN)

    def test_propagate_reset_recovery(self):
        rows = run_propagate_reset({"ns": (12, 24), "trials": 3}, RUN).rows
        assert all(row["mean recovery time"] > 0 for row in rows)

    def test_sublinear_tradeoff_direct_slower_than_tree(self):
        rows = run_sublinear_tradeoff({"n": 16, "depths": (0, 1), "trials": 3}, RUN).rows
        detection = {row["H"]: row["mean detection time"] for row in rows}
        assert set(detection) == {0, 1}
        assert all(value > 0 for value in detection.values())

    def test_safety_rows_have_no_false_positives(self):
        rows = run_safety(
            {"n": 10, "depth": 1, "trials": 2, "horizon_factor": 10.0}, RUN
        ).rows
        assert rows[0]["clean runs with false positives"] == 0


class TestLowerBoundExperiments:
    def test_silent_lower_bound_rows(self):
        rows = run_silent_lower_bound({"ns": (12, 24), "trials": 5}, RUN).rows
        assert all(row["mean time to notice"] > 0 for row in rows)

    def test_log_lower_bound_rows(self):
        rows = run_log_lower_bound({"ns": (64,), "trials": 30}, RUN).rows
        assert rows[0]["mean all-interact time"] > 0

    def test_fratricide_failure_row(self):
        rows = run_fratricide_failure({"n": 16, "horizon_factor": 20.0}, RUN).rows
        assert rows[0]["leaders at end"] == 0
        assert rows[0]["self-stabilizing"] is False


class TestTableAndStateExperiments:
    def test_table1_has_four_rows_per_population_size(self):
        rows = run_table1({"ns": (10,), "trials": 2}, RUN).rows
        assert len(rows) == 4
        assert {row["protocol"] for row in rows} >= {
            "Silent-n-state-SSR [21]",
            "Optimal-Silent-SSR (Sec. 4)",
        }

    def test_state_space_rows(self):
        rows = run_state_space({"ns": (8,), "interactions_factor": 10}, RUN).rows
        assert len(rows) == 3
        observed = {row["protocol"]: row["observed states"] for row in rows}
        assert observed["Silent-n-state-SSR"] <= 8

    def test_synthetic_coin_rows(self):
        rows = run_synthetic_coin({"ns": (16,), "bits_needed": 8}, RUN).rows
        assert rows[0]["completed"]
        assert 0.3 < rows[0]["fraction of ones"] < 0.7


class TestParamValidation:
    """Misspelled experiment parameters fail loudly, as the old signatures did."""

    def test_unknown_param_raises(self):
        with pytest.raises(TypeError, match="trails"):
            run_epidemic({"ns": (32,), "trails": 5}, RUN)

    def test_unknown_override_via_spec_raises(self):
        from repro.experiments.registry import EXPERIMENTS

        with pytest.raises(TypeError, match="trails"):
            EXPERIMENTS["epidemic"].run("quick", trails=5)


class TestCrossProcessReproducibility:
    """Same seed, same rows across interpreter runs (no salted str hashing)."""

    def _rows(self, hash_seed):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import json;"
            "from repro.engine.run_config import RunConfig;"
            "from repro.experiments.optimal_silent_experiments import run_optimal_silent_scaling;"
            "result = run_optimal_silent_scaling({'ns': (10,), 'trials': 2}, RunConfig(seed=1));"
            "print(json.dumps(result.rows))"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        output = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        )
        return json.loads(output.stdout)

    def test_rows_identical_across_hash_seeds(self):
        assert self._rows("1") == self._rows("2")
