"""Checkpoints record the fixed window sizing and refuse any other.

The compiled engine draws at most ``MAX_WINDOW`` pairs per window; the counts
engine sizes windows by ``DEFAULT_DRIFT_CAP`` with no window bound.  Both
shape the random stream, so checkpoints record them with the values they
always had, and a payload carrying other values cannot be resumed
bit-identically: restoring it raises before any state changes.
"""

import json

import numpy as np
import pytest

from repro.engine.batch_simulation import MAX_WINDOW, BatchSimulation
from repro.engine.counts_simulation import DEFAULT_DRIFT_CAP, CountsSimulation
from repro.processes.epidemic import TwoWayEpidemicProtocol


def captured(simulation):
    """A checkpoint after a short run, through its JSON form."""
    simulation.run_until_correct(max_interactions=128, check_interval=64)
    return json.loads(json.dumps(simulation.checkpoint_state()))


class TestCompiledWindowBound:
    def test_checkpoint_records_max_window(self):
        payload = captured(BatchSimulation(TwoWayEpidemicProtocol(64), rng=1))
        assert MAX_WINDOW == 1 << 16
        assert payload["max_window"] == MAX_WINDOW
        resumed = BatchSimulation(TwoWayEpidemicProtocol(64), rng=2)
        resumed.restore_checkpoint_state(payload)
        assert resumed.interactions == payload["interactions"]

    def test_restore_rejects_another_max_window(self):
        payload = captured(BatchSimulation(TwoWayEpidemicProtocol(64), rng=1))
        payload["max_window"] = 1024
        resumed = BatchSimulation(TwoWayEpidemicProtocol(64), rng=2)
        before = resumed.indices.copy()
        with pytest.raises(ValueError, match="max_window 1024"):
            resumed.restore_checkpoint_state(payload)
        assert resumed.interactions == 0
        assert np.array_equal(resumed.indices, before)


class TestCountsWindowSizing:
    def test_checkpoint_records_drift_cap_and_no_window_bound(self):
        payload = captured(CountsSimulation(TwoWayEpidemicProtocol(64), rng=1))
        assert (payload["drift_cap"], payload["max_window"]) == (DEFAULT_DRIFT_CAP, None)
        resumed = CountsSimulation(TwoWayEpidemicProtocol(64), rng=2)
        resumed.restore_checkpoint_state(payload)
        assert resumed.interactions == payload["interactions"]

    @pytest.mark.parametrize("field, value", [("drift_cap", 0.1), ("max_window", 128)])
    def test_restore_rejects_other_window_sizing(self, field, value):
        payload = captured(CountsSimulation(TwoWayEpidemicProtocol(64), rng=1))
        payload[field] = value
        resumed = CountsSimulation(TwoWayEpidemicProtocol(64), rng=2)
        before = resumed.state_counts.copy()
        with pytest.raises(ValueError, match="window sizing"):
            resumed.restore_checkpoint_state(payload)
        assert resumed.interactions == 0
        assert np.array_equal(resumed.state_counts, before)
