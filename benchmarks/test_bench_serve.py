"""Serve-subsystem benchmark: checkpointing must be nearly free.

The serve workers snapshot the in-flight trial at every ``check_interval``
boundary (capture ``checkpoint_state()``, serialize to JSON, atomic write).
The documented budget is **<= 10% overhead** versus the same run with no
checkpoint hook -- cheap enough to leave on for every queued job.  The
compiled engine meets it by encoding its per-agent state vector as one
base64 string instead of a JSON integer list (a memcpy, not a million
int-to-str conversions); the counts engine's vector is O(S) and trivially
cheap.

The gate compares the measured ``overhead_ratio`` (checkpointed wall time /
plain wall time, best of ``REPEATS`` interleaved pairs) against the
committed baseline (``BENCH_serve.json``; re-record with ``BENCH_WRITE=1``)
through ``baseline_ceiling`` capped at 1.10.
"""

import time
from pathlib import Path
from typing import Dict, List

from bench_utils import baseline_ceiling, maybe_emit_bench_artifact

from repro.engine.run_config import RunConfig, make_simulation
from repro.processes.epidemic import TwoWayEpidemicProtocol
from repro.serve.checkpoint import capture_checkpoint

REPEATS = 3

#: (engine, n, check_interval, max_interactions) -- sized so each timed run
#: crosses several checkpoint boundaries yet stays well under a second.
WORKLOADS = (
    ("compiled", 100_000, 500_000, 2_000_000),
    ("counts", 100_000, 250_000, 1_000_000),
)


def _timed_run(engine, n, check_interval, max_interactions, checkpoint_path):
    """One epidemic run; with a path, checkpoint at every boundary."""
    config = RunConfig(
        engine=engine,
        stop="stabilized",
        seed=7,
        check_interval=check_interval,
        max_interactions=max_interactions,
    )
    simulation = make_simulation(TwoWayEpidemicProtocol(n), config)
    checkpoints = [0]
    if checkpoint_path is not None:

        def hook(live):
            checkpoints[0] += 1
            capture_checkpoint(live, config).save(checkpoint_path)

        simulation.on_check = hook
    started = time.perf_counter()
    simulation.run(config)
    return time.perf_counter() - started, checkpoints[0]


def run_checkpoint_overhead(tmp_root: Path) -> List[Dict]:
    rows: List[Dict] = []
    for engine, n, check_interval, max_interactions in WORKLOADS:
        target = tmp_root / f"{engine}.ckpt.json"
        # Interleave the two variants: clock drift and cache warm-up on a
        # shared CI box otherwise land entirely on whichever variant runs
        # second and masquerade as (or hide) checkpoint overhead.
        plain_times, checkpointed_runs = [], []
        for _ in range(REPEATS):
            plain_times.append(
                _timed_run(engine, n, check_interval, max_interactions, None)[0]
            )
            checkpointed_runs.append(
                _timed_run(engine, n, check_interval, max_interactions, target)
            )
        plain = min(plain_times)
        checkpointed, count = min(checkpointed_runs, key=lambda outcome: outcome[0])
        rows.append(
            {
                "engine": engine,
                "n": n,
                "interactions": max_interactions,
                "checkpoints": count,
                "plain (s)": plain,
                "checkpointed (s)": checkpointed,
                "overhead_ratio": checkpointed / plain,
            }
        )
    return rows


def test_checkpoint_overhead_gate(benchmark, tmp_path):
    """Per-boundary checkpointing stays within 10% of the plain run."""
    rows = benchmark.pedantic(
        lambda: run_checkpoint_overhead(tmp_path), rounds=1, iterations=1
    )
    benchmark.extra_info["paper_reference"] = "serve subsystem (docs/ARCHITECTURE.md)"
    benchmark.extra_info["claim"] = (
        "engine checkpoints at every check_interval boundary cost <= 10% "
        "wall time on both table engines"
    )
    benchmark.extra_info["rows"] = [
        {key: (round(value, 4) if isinstance(value, float) else value) for key, value in row.items()}
        for row in rows
    ]
    maybe_emit_bench_artifact(
        "serve",
        rows,
        claim="per-boundary checkpointing costs <= 10% wall time",
        paper_reference="serve subsystem (docs/ARCHITECTURE.md)",
    )
    for row in rows:
        assert row["checkpoints"] >= 2, row  # the run crossed real boundaries
        ceiling = baseline_ceiling(
            "serve",
            "overhead_ratio",
            cap=1.10,
            factor=4.0,
            where={"engine": row["engine"]},
        )
        assert row["overhead_ratio"] <= ceiling, (
            f"{row['engine']} checkpoint overhead {row['overhead_ratio']:.3f} "
            f"exceeds ceiling {ceiling:.3f}"
        )
