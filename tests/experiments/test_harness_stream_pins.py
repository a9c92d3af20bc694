"""Pinned ``run_trials`` outcomes across engines, batching, workers and starts.

``tests/experiments/test_parallel_harness.py`` and the trial-batch suite
compare the harness with itself (one layout against another), so a change
to how ``run_trials`` seeds a trial or orders its results that moves every
layout the same way passes them.  Each case here runs one harness call from
a fixed seed and compares it with literals recorded before the harness's
trial path was merged into one unit runner:

* every trial's ``(interactions, stopped, reason)``;
* the order in which ``on_trial_done`` saw the trials.

The matrix is {compiled, counts} x ``trial_batch`` {1, 3} x ``jobs`` {1, 2}
over four starts -- the protocol's own start (the two-way epidemic), a
``configuration_factory`` and a ``counts_factory`` on the reset wave (both
draw from the trial's generator), and the branched lazy epidemic -- with 7
trials, so the last batch of 3 is short.  ``jobs`` does not enter a pin:
both worker counts must give the same literal.

Two more checks ride along: a trial memo that holds part of a batch replays
only the batches it holds whole, and two CLI runs of ``log_lower_bound``
save the same artifact apart from its wall time.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.propagate_reset import ResetWaveProtocol
from repro.engine.configuration import Configuration
from repro.engine.results import SimulationResult
from repro.engine.run_config import RunConfig
from repro.experiments.harness import run_trials, trial_memo
from repro.processes.epidemic import TwoWayEpidemicProtocol
from tests.engine.test_engine_equivalence import LazyEpidemicProtocol

TRIALS = 7


def random_wave(protocol, rng):
    """A reset-wave start with every agent drawn from the trial's generator."""
    return Configuration([protocol.random_state(rng) for _ in range(protocol.n)])


def partly_triggered(protocol, compiled, rng):
    """A reset-wave count vector whose triggered share the generator draws."""
    counts = np.zeros(compiled.num_states, dtype=np.int64)
    triggered = int(rng.integers(1, protocol.n + 1))
    counts[compiled.encode_state(protocol.triggered_state())] = triggered
    counts[compiled.encode_state(protocol.initial_state(0, rng))] += protocol.n - triggered
    return counts


#: start -> (protocol factory, run_trials keyword arguments).
STARTS = {
    "default": (lambda: TwoWayEpidemicProtocol(60), {}),
    "configuration": (
        lambda: ResetWaveProtocol(40, rmax=4, dmax=4),
        {"configuration_factory": random_wave},
    ),
    "counts": (
        lambda: ResetWaveProtocol(40, rmax=4, dmax=4),
        {"counts_factory": partly_triggered},
    ),
    "branched": (lambda: LazyEpidemicProtocol(40, p=0.3), {}),
}


def harness_call(engine, trial_batch, jobs, start, seed=17):
    """One pinned call: the trials' outcomes and the observer's order."""
    factory, kwargs = STARTS[start]
    seen = []
    results = run_trials(
        factory,
        TRIALS,
        RunConfig(
            engine=engine,
            stop="correct",
            seed=seed,
            check_interval=3,
            jobs=jobs,
            trial_batch=trial_batch,
        ),
        on_trial_done=lambda index, result: seen.append(index),
        **kwargs,
    )
    return [(r.interactions, r.stopped, r.reason) for r in results], seen


def outcome(*interactions):
    return [(count, True, "correct") for count in interactions]


#: (engine, trial_batch, start) -> each trial's (interactions, stopped, reason).
PINS = {
    ('compiled', 1, 'branched'): outcome(1158, 909, 1017, 1008, 1074, 678, 1302),
    ('compiled', 1, 'configuration'): outcome(204, 174, 276, 228, 282, 228, 219),
    ('compiled', 1, 'counts'): outcome(264, 261, 351, 222, 228, 228, 255),
    ('compiled', 1, 'default'): outcome(291, 225, 294, 252, 342, 258, 327),
    ('compiled', 3, 'branched'): outcome(1263, 1083, 1437, 990, 942, 825, 1203),
    ('compiled', 3, 'configuration'): outcome(156, 183, 237, 267, 237, 216, 177),
    ('compiled', 3, 'counts'): outcome(243, 249, 276, 279, 297, 258, 228),
    ('compiled', 3, 'default'): outcome(273, 243, 342, 273, 333, 300, 375),
    ('counts', 1, 'branched'): outcome(1227, 1134, 960, 1095, 1179, 978, 960),
    ('counts', 1, 'configuration'): outcome(201, 204, 219, 171, 255, 216, 222),
    ('counts', 1, 'counts'): outcome(297, 249, 276, 216, 240, 312, 285),
    ('counts', 1, 'default'): outcome(261, 273, 243, 354, 279, 321, 237),
    ('counts', 3, 'branched'): outcome(900, 1050, 1023, 1176, 1164, 1368, 1497),
    ('counts', 3, 'configuration'): outcome(309, 189, 297, 195, 258, 198, 183),
    ('counts', 3, 'counts'): outcome(297, 240, 279, 207, 285, 291, 213),
    ('counts', 3, 'default'): outcome(276, 309, 204, 270, 270, 252, 297),
}


class TestStreamPins:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("start", sorted(STARTS))
    @pytest.mark.parametrize("trial_batch", [1, 3])
    @pytest.mark.parametrize("engine", ["compiled", "counts"])
    def test_pinned(self, engine, trial_batch, start, jobs):
        outcomes, seen = harness_call(engine, trial_batch, jobs, start)
        assert outcomes == PINS[engine, trial_batch, start]
        assert seen == list(range(TRIALS))

    def test_batched_compiled_matches_any_batch_size(self):
        """Batch sizes of 2 and more share one per-trial stream; 1 does not."""
        for start in STARTS:
            assert PINS["compiled", 3, start] == harness_call("compiled", 2, 1, start)[0]
        assert any(PINS["compiled", 1, start] != PINS["compiled", 3, start] for start in STARTS)


class DictMemo:
    """The :func:`trial_memo` duck protocol over a dict, recording what it saw."""

    def __init__(self, held):
        self.held = dict(held)
        self.recorded = []

    def begin_call(self, trials, config):
        return "call0001"

    def lookup(self, call_key, index):
        return self.held.get(index)

    def record(self, call_key, index, result):
        self.recorded.append(index)

    def inflight_checkpoint(self, call_key, index, config):
        return None

    def checkpoint_hook(self, call_key, index, config):
        return None


class TestPartialMemoReplay:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("engine", ["compiled", "counts"])
    def test_only_whole_batches_replay(self, engine, jobs):
        factory, kwargs = STARTS["counts"]
        config = RunConfig(engine=engine, stop="correct", seed=23, trial_batch=3, jobs=jobs)
        uninterrupted = run_trials(factory, TRIALS, config, **kwargs)
        # Trial 5 is held alone from its batch [3, 6): a stand-in result that
        # must not come back, because the batch re-runs whole.
        stand_in = SimulationResult(n=40, interactions=1, stopped=False, reason="cap", engine=engine)
        memo = DictMemo({0: uninterrupted[0], 1: uninterrupted[1], 2: uninterrupted[2], 5: stand_in})
        seen = []
        with trial_memo(memo):
            resumed = run_trials(
                factory,
                TRIALS,
                config,
                on_trial_done=lambda index, result: seen.append(index),
                **kwargs,
            )
        assert resumed == uninterrupted
        assert memo.recorded == [3, 4, 5, 6]
        assert seen == list(range(TRIALS))


class TestCliArtifactRegression:
    """The stricter form of the CLI seed check: saved artifacts, not printed
    tables, compared with only ``provenance.wall_time`` removed."""

    def test_same_seed_same_artifact(self, tmp_path, capsys):
        artifacts = []
        for name in ("first", "second"):
            argv = ["run", "log_lower_bound", "--scale", "quick", "--seed", "7"]
            assert main(argv + ["--output", str(tmp_path / name)]) == 0
            payload = json.loads((tmp_path / name / "log_lower_bound.json").read_text())
            assert payload["provenance"].pop("wall_time") >= 0.0
            artifacts.append(payload)
        capsys.readouterr()
        assert artifacts[0] == artifacts[1]
        assert artifacts[0]["rows"]
