"""The compiled engine's dense path against its per-segment rescan.

:meth:`BatchSimulation._consume_dense` cuts a drawn window into
agent-disjoint segments and applies them in order.  It finds every segment
end from one scan of the window.  This file keeps the form it replaced as a
reference: rescan the rest of the window after every segment and end the
next segment at the first slot whose agent already occurred in it.  Both are
fed identical windows, from identical engines, on deterministic and branched
tables, and must leave the same index array, the same window-sizing EMAs and
the same generator state (a branched table draws one uniform per pair it
applies, so a different segmentation also shows in the stream).

The comparison runs twice: once as NumPy is (fancy assignment keeps the last
write of a repeated index), and once with ``_LAST_WRITE_WINS`` patched off,
which sends ``_scatter_first`` down its ``np.minimum.at`` fallback.
"""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.propagate_reset import ResetWaveProtocol
from repro.core.silent_n_state import SilentNStateSSR
from repro.engine import batch_simulation
from repro.engine.batch_simulation import BatchSimulation
from repro.engine.compiled import ProtocolCompiler
from repro.processes.epidemic import TwoWayEpidemicProtocol
from tests.engine.test_engine_equivalence import LazyEpidemicProtocol

#: name -> protocol factory; the lazy epidemic is the branched table.
PROTOCOLS = {
    "epidemic": TwoWayEpidemicProtocol,
    "lazy-epidemic": functools.partial(LazyEpidemicProtocol, p=0.25),
    "silent-n-state": SilentNStateSSR,
    "reset-wave": ResetWaveProtocol,
}


@functools.lru_cache(maxsize=None)
def table(name, n):
    protocol = PROTOCOLS[name](n)
    return protocol, ProtocolCompiler().compile(protocol)


def reference_consume_dense(simulation, initiators, responders, window):
    """The dense path as a rescan per segment: each scan restarts at the
    conflicting pair and looks at the whole rest of the window."""
    slots = np.empty(2 * window, dtype=np.int64)
    slots[0::2] = initiators
    slots[1::2] = responders
    indices = simulation._indices
    compiled = simulation.compiled
    num_states = compiled.num_states
    changes = compiled.changes
    buffer = simulation._first_active
    start = 0
    while start < window:
        rest = slots[2 * start :]
        positions = simulation._slot_positions[: len(rest)]
        batch_simulation._scatter_first(buffer, rest, positions, sentinel=window)
        duplicate = buffer[rest] != positions
        first = int(duplicate.argmax())
        segment = (first >> 1) if duplicate[first] else window - start
        end = start + segment

        gathered = indices[rest[: 2 * segment]]
        rows = gathered[0::2] * num_states
        rows += gathered[1::2]
        mask = changes[rows]
        changed = int(np.count_nonzero(mask))
        if changed:
            if changed > segment >> 1:
                simulation._apply_packed(rest[: 2 * segment], rows)
            else:
                active = np.nonzero(mask)[0]
                targets = rest[: 2 * segment].reshape(-1, 2)[active].ravel()
                simulation._apply_packed(targets, rows[active])
        simulation._active_fraction += 0.1 * (
            changed / segment - simulation._active_fraction
        )
        simulation._window_ema += 0.25 * (segment - simulation._window_ema)
        start = end
    return window


@st.composite
def dense_windows(draw):
    """A table, a start, engine EMAs and a window of distinct-agent pairs."""
    name = draw(st.sampled_from(sorted(PROTOCOLS)))
    n = draw(st.integers(2, 64))
    window = draw(st.integers(1, 300))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)),
            min_size=window,
            max_size=window,
        )
    )
    initiators = np.array([i for i, _ in pairs], dtype=np.int64)
    shifted = np.array([j for _, j in pairs], dtype=np.int64)
    # The scheduler's shift trick: responders skip their initiator.
    responders = shifted + (shifted >= initiators)
    return {
        "name": name,
        "n": n,
        "start_seed": draw(st.integers(0, 2**32 - 1)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "window_ema": draw(st.floats(1.0, 4096.0)),
        "active_fraction": draw(st.floats(0.0, 1.0)),
        "initiators": initiators,
        "responders": responders,
    }


def engine_for(case):
    protocol, compiled = table(case["name"], case["n"])
    start = np.random.default_rng(case["start_seed"]).integers(
        0, compiled.num_states, size=case["n"]
    )
    simulation = BatchSimulation(protocol, indices=start, rng=case["seed"], compiled=compiled)
    simulation._window_ema = case["window_ema"]
    simulation._active_fraction = case["active_fraction"]
    return simulation


def outcome(simulation, applied):
    return (
        applied,
        simulation.indices.tolist(),
        simulation._window_ema,
        simulation._active_fraction,
        simulation.rng.bit_generator.state,
    )


@pytest.mark.parametrize("last_write_wins", [True, False], ids=["assign", "minimum-at"])
@settings(max_examples=60, deadline=None)
@given(case=dense_windows())
def test_one_scan_equals_per_segment_rescan(last_write_wins, case):
    initiators, responders = case["initiators"], case["responders"]
    window = len(initiators)
    with mock.patch.object(batch_simulation, "_LAST_WRITE_WINS", last_write_wins):
        engine = engine_for(case)
        applied = engine._consume_dense(initiators, responders, window)
        reference = engine_for(case)
        expected = reference_consume_dense(reference, initiators, responders, window)
    assert outcome(engine, applied) == outcome(reference, expected)


def test_a_third_meeting_conflicts_with_the_latest_one():
    """Agent 0 meets agents 1, 2 and 5.  Its second meeting starts a segment,
    and its third meeting conflicts with that one, not with its first, which
    lies before the segment: segments [0, 1), [1, 3) and [3, 4)."""
    case = {
        "name": "epidemic",
        "n": 6,
        "start_seed": 0,
        "seed": 5,
        "window_ema": 512.0,
        "active_fraction": 1.0,
        "initiators": np.array([0, 0, 3, 0], dtype=np.int64),
        "responders": np.array([1, 2, 4, 5], dtype=np.int64),
    }
    engine = engine_for(case)
    engine._consume_dense(case["initiators"], case["responders"], 4)
    reference = engine_for(case)
    reference_consume_dense(reference, case["initiators"], case["responders"], 4)
    ema = 512.0
    for segment in (1, 2, 1):
        ema += 0.25 * (segment - ema)
    assert engine._window_ema == reference._window_ema == ema
