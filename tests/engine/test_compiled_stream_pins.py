"""Pinned per-trial compiled runs: exact results, final indices and streams.

The compiled-engine suites compare :class:`BatchSimulation` with itself
(checkpoint round trips, window sizing) and with the other engines in law, so
a change to how windows are cut into segments that alters the stream the same
way everywhere passes them.  Each case here runs one engine from a fixed seed
and compares six things with literals recorded before the dense path found a
window's segment ends in one scan:

* the interaction count and the stop reason;
* a sha256 of the final state-index array;
* the PCG64 state integer of the engine's generator;
* the two window-sizing EMAs, ``_window_ema`` and ``_active_fraction``, as
  exact floats (they decide how many pairs every later window draws).

The cases cover the all-triggered reset wave at two sizes (dense windows,
then sparse ones), stress Optimal-Silent-SSR at ``n = 8`` from random starts
(dozens of segments per window), the two-way epidemic from one infected
agent (a large first dense window after the sparse start), the lazy epidemic
(a branched table: filtered applies and branch draws), ``recovery_burst``'s
fault plan on the stress table, and a checkpoint taken at a check boundary
and resumed in a fresh engine.  One more pins the rows of
``repro run recovery_burst --engine compiled --scale quick --seed 1``.
"""

import functools
import hashlib
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.propagate_reset import ResetWaveProtocol
from repro.engine.batch_simulation import BatchSimulation
from repro.engine.compiled import ProtocolCompiler
from repro.engine.run_config import RunConfig
from repro.experiments.stress_experiments import _burst_plan, make_stress_protocol
from repro.processes.epidemic import TwoWayEpidemicProtocol
from tests.engine.test_engine_equivalence import LazyEpidemicProtocol


def indices_digest(indices) -> str:
    return hashlib.sha256(np.ascontiguousarray(indices, dtype="<i4").tobytes()).hexdigest()


def observed(simulation, result):
    return (
        result.interactions,
        result.reason,
        indices_digest(simulation.indices),
        simulation.rng.bit_generator.state["state"]["state"],
        simulation._window_ema,
        simulation._active_fraction,
    )


@functools.lru_cache(maxsize=None)
def stress_table():
    protocol = make_stress_protocol("optimal-silent", 8)
    return protocol, ProtocolCompiler().compile(protocol)


def reset_wave(n, seed):
    """Every agent freshly triggered, run to ``correct``."""
    protocol = ResetWaveProtocol(n)
    compiled = ProtocolCompiler().compile(protocol)
    start = np.full(n, compiled.encode_state(protocol.triggered_state()), dtype=np.int32)
    simulation = BatchSimulation(protocol, indices=start, rng=seed, compiled=compiled)
    return simulation, RunConfig(engine="compiled", stop="correct")


def run_reset_wave(n, seed):
    simulation, config = reset_wave(n, seed)
    return observed(simulation, simulation.run(config))


def run_stress_random_start(start_seed, seed):
    """Checks every 128 interactions, so each window of 64 pairs (the floor)
    over 8 agents splits into dozens of segments."""
    protocol, compiled = stress_table()
    configuration = protocol.random_configuration(np.random.default_rng(start_seed))
    simulation = BatchSimulation(
        protocol, configuration=configuration, rng=seed, compiled=compiled
    )
    config = RunConfig(engine="compiled", stop="stabilized", check_interval=128)
    return observed(simulation, simulation.run(config))


def run_epidemic_one_infected(n, seed):
    simulation = BatchSimulation(TwoWayEpidemicProtocol(n), rng=seed)
    return observed(simulation, simulation.run(RunConfig(engine="compiled", stop="correct")))


def run_lazy_epidemic(n, seed):
    simulation = BatchSimulation(LazyEpidemicProtocol(n, p=0.25), rng=seed)
    return observed(simulation, simulation.run(RunConfig(engine="compiled", stop="correct")))


def run_recovery_burst_plan(burst_size, seed):
    """recovery_burst's two corrupt bursts (parallel times 1 and 3) at n = 8."""
    protocol, compiled = stress_table()
    simulation = BatchSimulation(protocol, rng=seed, compiled=compiled)
    plan = _burst_plan(protocol.n, (1.0, 3.0), burst_size)
    result = simulation.run(RunConfig(engine="compiled", stop="stabilized", faults=plan))
    return observed(simulation, result)


def run_checkpoint_resume(n, seed, boundary):
    """Capture at the given check boundary, resume in a fresh engine, finish.

    Pins the capture's interaction count and the resumed run, and checks the
    resumed run against the uninterrupted one.
    """
    captured = []

    def capture(engine):
        captured.append(json.loads(json.dumps(engine.checkpoint_state())))

    simulation, config = reset_wave(n, seed)
    simulation.on_check = capture
    uninterrupted = observed(simulation, simulation.run(config))
    payload = captured[boundary]

    resumed, _ = reset_wave(n, seed + 1)
    resumed.restore_checkpoint_state(payload)
    finished = observed(resumed, resumed.run_until_correct())
    assert finished == uninterrupted
    return payload["interactions"], finished


CASES = {
    "reset-wave-n1e3": lambda: run_reset_wave(1_000, 101),
    "reset-wave-n1e5": lambda: run_reset_wave(100_000, 103),
    "stress-optimal-silent-n8-start0": lambda: run_stress_random_start(0, 107),
    "stress-optimal-silent-n8-start1": lambda: run_stress_random_start(1, 109),
    "stress-optimal-silent-n8-start2": lambda: run_stress_random_start(2, 113),
    "epidemic-n5000-one-infected": lambda: run_epidemic_one_infected(5_000, 127),
    "lazy-epidemic-n3000-branches": lambda: run_lazy_epidemic(3_000, 131),
    "recovery-burst-plan-stress-n8": lambda: run_recovery_burst_plan(4, 137),
    "checkpoint-resume-reset-wave-n2000": lambda: run_checkpoint_resume(2_000, 139, 3),
}


#: id -> (interactions, reason, final-indices sha256, generator state integer,
#: _window_ema, _active_fraction); the checkpoint case prefixes the capture's
#: interaction count.
PINS = {
    "checkpoint-resume-reset-wave-n2000": (
        6000,
        (
            32000,
            "correct",
            "668946bab9868b28489bb906205ee1026045c8bcd3ca62a1bdf733c65491351b",
            329172027964670084482487522730382443965,
            333.95344368065685,
            0.010884232083992989,
        ),
    ),
    "epidemic-n5000-one-infected": (
        45000,
        "correct",
        "498e2fa075689d824a0070a709cfc19fbb2448a01e5e7227bc1788249f653610",
        54268969579642334012294956052133384123,
        564.8033642485407,
        0.009334274014222158,
    ),
    "lazy-epidemic-n3000-branches": (
        216000,
        "correct",
        "e2e1224127a127ab4e3dc00311599c2348364c6d29fdf68cd2de22bfdfc91e37",
        40045118122159641413836813384017437203,
        945.9938147221922,
        0.0008814572515132008,
    ),
    "recovery-burst-plan-stress-n8": (
        216,
        "stabilized",
        "d9ed7cad0660271820cc1dae3f582793731423b5c28b4c1edbfcbbee96d8725e",
        330543347934681900921476581397173936916,
        1.4958127141023727,
        0.40321719501871056,
    ),
    "reset-wave-n1e3": (
        13000,
        "correct",
        "fc19b1997119425765295aeab72d76faa6927d4f83985d328c26f20468d6cc76",
        140018130882763962155156779568001151067,
        125.57466849679705,
        0.021713107717293314,
    ),
    "reset-wave-n1e5": (
        2300000,
        "correct",
        "946cc2661d32ad837bd22fb051ee47ed6012e33a6db1617870fec60691ed7f09",
        229040857105788285016736734961247963946,
        12610.783811347628,
        0.0003311898174284634,
    ),
    "stress-optimal-silent-n8-start0": (
        640,
        "stabilized",
        "9b3e3bfb094f18cf714ab19aed9180d28138651f18edbf12c243c29b2d14b3e6",
        199785462239918941764595883400066280893,
        1.8837209492448994,
        0.016866906344143787,
    ),
    "stress-optimal-silent-n8-start1": (
        256,
        "stabilized",
        "1cf3c4bdbd3586b7d7fc83a121e3c1efe62eaa4ff1e161fbc6401dec573a22c8",
        138575644375885653965819592819533091296,
        17.229795288137737,
        0.051859044140731794,
    ),
    "stress-optimal-silent-n8-start2": (
        256,
        "stabilized",
        "2451cfdae5faadc11e35b20e9962ef88cda4c9638c574beb871e4d3926c2cc52",
        284945905706079736195507483706964481435,
        17.06460775728843,
        0.05013361500779691,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_compiled_run_matches_pin(case):
    assert CASES[case]() == PINS[case]


#: sha256 of the artifact rows (JSON, sorted keys) of
#: ``repro run recovery_burst --engine compiled --scale quick --seed 1``.
RECOVERY_BURST_ROWS = "edbd7c0e9b3fdcb0b98cfdfd869d521df75b37a1e2aa336bd0789f9fcb5c3875"


def test_recovery_burst_quick_rows_match_pin(tmp_path, capsys):
    argv = ["run", "recovery_burst", "--engine", "compiled", "--scale", "quick"]
    assert main(argv + ["--seed", "1", "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = json.loads((tmp_path / "recovery_burst.json").read_text())["rows"]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == RECOVERY_BURST_ROWS
