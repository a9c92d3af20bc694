"""CLI observability: ``run --trace/--profile``, ``repro trace``, ``repro jobs``."""

import json
import os
import time

import pytest

from repro.cli import main
from repro.telemetry import metrics
from repro.telemetry.tracing import TRACE_FORMAT, read_trace

FAST_RUN = ["run", "epidemic_convergence", "--seed", "3"]


@pytest.fixture(autouse=True)
def clean_telemetry():
    yield
    metrics.reset_registry()
    metrics.disable()
    metrics.set_profiling(False)


class TestRunTrace:
    def test_trace_file_round_trips(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(FAST_RUN + ["--trace", str(trace)]) == 0
        output = capsys.readouterr().out
        assert f"-- trace: {trace}" in output

        records = read_trace(trace)
        kinds = [record["kind"] for record in records]
        assert kinds[0] == "header"
        assert records[0]["format"] == TRACE_FORMAT
        assert "trial" in kinds and "harness_call" in kinds
        assert "experiment" in kinds and "run" in kinds
        assert kinds[-1] == "metrics"  # closing snapshot for repro trace

        run_span = next(r for r in records if r["kind"] == "run")
        assert run_span["experiments"] == ["epidemic_convergence"]
        assert run_span["exit_code"] == 0
        assert run_span["dur"] > 0.0

        assert main(["trace", str(trace)]) == 0
        summary = capsys.readouterr().out
        assert "run_id:" in summary
        assert "interactions/s:" in summary
        assert "epidemic_convergence" in summary
        assert "window histogram" in summary

    def test_profile_prints_stage_breakdown(self, capsys):
        assert main(FAST_RUN + ["--profile"]) == 0
        output = capsys.readouterr().out
        assert "stage breakdown" in output
        assert "table_apply" in output and "stop_check" in output

    def test_profile_reports_compile_stage(self, capsys):
        assert main(FAST_RUN + ["--engine", "compiled", "--profile"]) == 0
        output = capsys.readouterr().out
        stage_rows = output.split("stage breakdown", 1)[1].splitlines()
        assert any(row.split()[:2] == ["compiler", "compile"] for row in stage_rows if row)

    @pytest.mark.parametrize("stage", ["scheduler_draw", "table_apply", "stop_check"])
    def test_profile_reports_batched_counts_stages(self, stage, capsys):
        # counts_table1 runs every trial of an n through CountsTrialBatchSimulation.
        run = ["run", "counts_table1", "--scale", "quick", "--seed", "1", "--profile"]
        assert main(run) == 0
        output = capsys.readouterr().out
        stage_rows = output.split("stage breakdown", 1)[1].splitlines()
        assert any(row.split()[:2] == ["counts", stage] for row in stage_rows if row)

    @pytest.mark.parametrize("stage", ["scheduler_draw", "table_apply", "stop_check"])
    def test_profile_reports_batched_compiled_stages(self, stage, capsys):
        run = FAST_RUN[:2] + ["--engine", "compiled", "--trial-batch", "4", "--seed", "1"]
        assert main(run + ["--profile"]) == 0
        output = capsys.readouterr().out
        stage_rows = output.split("stage breakdown", 1)[1].splitlines()
        assert any(row.split()[:2] == ["compiled", stage] for row in stage_rows if row)

    def test_plain_run_leaves_telemetry_off(self, capsys):
        assert main(FAST_RUN) == 0
        assert not metrics.enabled()
        assert metrics.registry().snapshot()["samples"] == []

    def test_instrumented_flags_restored_after_run(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(FAST_RUN + ["--trace", str(trace), "--profile"]) == 0
        assert not metrics.enabled() and not metrics.profiling()

    def test_traced_artifact_matches_plain(self, tmp_path, capsys):
        plain_dir, traced_dir = tmp_path / "plain", tmp_path / "traced"
        assert main(FAST_RUN + ["--output", str(plain_dir)]) == 0
        assert (
            main(
                FAST_RUN
                + [
                    "--output",
                    str(traced_dir),
                    "--trace",
                    str(tmp_path / "t.jsonl"),
                    "--profile",
                ]
            )
            == 0
        )
        capsys.readouterr()
        plain = json.loads((plain_dir / "epidemic_convergence.json").read_text())
        traced = json.loads((traced_dir / "epidemic_convergence.json").read_text())
        for artifact in (plain, traced):  # wall clock is the one allowed diff
            artifact["wall_time"] = 0.0
            artifact.get("provenance", {}).pop("wall_time", None)
        assert plain == traced


class TestTraceCommand:
    def test_area_restricts_sections(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(FAST_RUN + ["--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", str(trace), "--area", "trials"]) == 0
        output = capsys.readouterr().out
        assert "trials by engine" in output
        assert "run_id:" not in output and "per-phase" not in output

    def test_unknown_area_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(FAST_RUN + ["--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", str(trace), "--area", "bogus"]) == 2
        output = capsys.readouterr().out
        assert output.startswith("error: unknown metric area 'bogus'")
        assert "run, phases, trials, windows" in output

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        assert capsys.readouterr().out.startswith("error: no such trace file")

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "header"}\n{broken\n')
        assert main(["trace", str(bad)]) == 2
        output = capsys.readouterr().out
        assert output.startswith("error:") and "line 2 is not JSON" in output

    def test_wrong_format_header_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"kind": "trial"}) + "\n")
        assert main(["trace", str(bad)]) == 2
        assert "not a repro trace" in capsys.readouterr().out


class TestJobsCommand:
    @pytest.fixture
    def server(self, tmp_path):
        from repro.serve.server import ReproServer

        instance = ReproServer(tmp_path / "queue", port=0, workers=1)
        instance.start()
        yield instance
        instance.stop()

    def _submit_and_wait(self, server):
        from repro.engine.run_config import RunConfig
        from repro.serve.cache import job_payload
        from repro.serve.server import http_json

        payload = job_payload(
            "epidemic_convergence",
            "quick",
            {"ns": [64], "trials": 1},
            RunConfig(seed=2, engine="counts"),
        )
        status, body = http_json("POST", f"{server.url}/jobs", payload)
        assert status == 200
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status, record = http_json("GET", f"{server.url}/jobs/{body['job_id']}")
            if record["state"] in ("done", "failed"):
                return record
            time.sleep(0.02)
        raise TimeoutError("job never finished")

    def test_listing_prints_queue_depths(self, server, capsys):
        record = self._submit_and_wait(server)
        assert record["state"] == "done"
        assert main(["jobs", "--url", server.url]) == 0
        output = capsys.readouterr().out
        assert "queue:" in output
        assert "done=1" in output and "pending=0" in output
        assert record["job_id"] in output
        assert "warning:" not in output

    def test_listing_flags_stale_running_jobs(self, server, capsys):
        self._submit_and_wait(server)
        queue = server.queue
        stale = queue.submit(
            {
                "experiment": "epidemic_convergence",
                "scale": "quick",
                "params": {"ns": [64], "trials": 1},
                "run_config": {"seed": 77, "engine": "counts"},
            }
        )
        claimed = queue.claim(worker_pid=os.getpid())
        # The in-process worker may race us for the claim; pin the record to
        # a dead pid either way so the listing must flag it.
        assert claimed.job_id == stale.job_id
        claimed.worker_pid = 2**22 + 54321
        queue._write(claimed)
        assert main(["jobs", "--url", server.url]) == 0
        output = capsys.readouterr().out
        assert "running=1" in output
        assert f"{stale.job_id[:8]}" in output
        assert "(stale)" in output
        assert "warning: 1 running job(s) have a dead worker pid" in output
        queue.finish(stale.job_id)  # leave the worker thread nothing stale
