"""Shared experiment machinery: repeated trials and population-size sweeps.

One :class:`~repro.engine.run_config.RunConfig` describes *how* to execute --
engine, stop condition, seed, caps, worker count -- and flows unchanged from
the CLI through :class:`ExperimentSpec` down to :func:`run_trials`, which
builds each trial's engine via
:func:`~repro.engine.run_config.make_simulation` and executes the plan with
the polymorphic ``simulation.run(config)`` entry point.

Multi-trial measurements embarrassingly parallelize: every trial derives its
random stream from its own ``numpy.random.SeedSequence`` child, so trials are
independent no matter which process executes them.  :func:`run_trials`
exploits this with a ``concurrent.futures.ProcessPoolExecutor`` when
``config.jobs > 1``: results are bit-identical across any ``jobs`` value (the
stream of trial ``i`` depends only on ``(seed, i)``), which
``tests/experiments/test_parallel_harness.py`` enforces.  Worker processes
are forked, so closures (the lambdas experiments pass as factories) and a
pre-compiled transition table are inherited rather than pickled; on platforms
without ``fork`` the harness silently runs sequentially.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.compiled import CompiledProtocol, ProtocolCompiler
from repro.engine.configuration import Configuration
from repro.engine.core import unbatchable_reason
from repro.engine.protocol import PopulationProtocol
from repro.engine.results import SimulationResult, TrialStatistics
from repro.engine.rng import batch_seed_sequence, spawn_seed_sequences
from repro.engine.run_config import ENGINES, STOPS, RunConfig, make_simulation
from repro.engine.trial_batch import CountsTrialBatchSimulation, TrialBatchSimulation
from repro.experiments.api import DEFAULT_EXPERIMENT_SEED, experiment_result
from repro.experiments.result import ExperimentResult
from repro.telemetry import metrics as _metrics
from repro.telemetry import tracing as _tracing

ProtocolFactory = Callable[[int], PopulationProtocol]
ConfigurationFactory = Callable[[PopulationProtocol, np.random.Generator], Configuration]

#: Counts-engine seed factory: ``(protocol, compiled, rng) -> state-count
#: vector`` -- the O(S) way to seed huge populations without building ``n``
#: state objects (forwarded to ``make_simulation(counts=...)``).
CountsFactory = Callable[
    [PopulationProtocol, CompiledProtocol, np.random.Generator], np.ndarray
]

#: Per-trial observer: ``on_trial_done(index, result)``, called in trial
#: order on the coordinating process (also when ``jobs > 1``).
TrialObserver = Callable[[int, SimulationResult], None]

#: A seeded trial, ``(rng, protocol, configuration, counts)`` (see
#: :func:`_seed_trial`).
SeededTrial = Tuple[
    np.random.Generator, PopulationProtocol, Optional[Configuration], Optional[np.ndarray]
]

#: The unit runner of the pooled :func:`run_trials` call, inherited by its
#: forked workers.  Holding it in a module global instead of pickling it lets
#: experiments keep passing plain lambdas as factories.
_POOL_UNIT: Optional[Callable[[int], List[SimulationResult]]] = None

#: The active trial memo (installed via :func:`trial_memo`); ``None`` runs
#: every trial live.  A memo makes :func:`run_trials` durable: finished
#: trials replay from it, the in-flight one checkpoints through it.
_TRIAL_MEMO = None


@contextmanager
def trial_memo(memo):
    """Install a durable trial memo for every :func:`run_trials` call inside.

    ``memo`` implements the duck protocol of
    :class:`repro.serve.worker.TrialMemo`: ``begin_call(trials, config)``
    names each harness call positionally (experiments are deterministic
    call sequences, and inner configs may carry unserializable seeds, so
    *position* is the stable identity); ``lookup``/``record`` replay and
    persist per-trial :class:`~repro.engine.results.SimulationResult`
    records; ``inflight_checkpoint``/``checkpoint_hook`` resume and persist
    the one trial that was interrupted mid-run.  Because trial streams are
    bit-identical for every ``jobs`` value, a memo written under one worker
    count replays correctly under any other.  ``trial_batch`` changes the
    streams (``1`` against larger values, and any value on the counts
    engine), so a memo holds results for one ``trial_batch`` only; serve's
    job digest includes it.
    """
    global _TRIAL_MEMO
    previous = _TRIAL_MEMO
    _TRIAL_MEMO = memo
    try:
        yield memo
    finally:
        _TRIAL_MEMO = previous


def _coerce_run_config(run, caller: str) -> RunConfig:
    """``run`` itself, or the default :class:`RunConfig` when it is ``None``."""
    if run is None:
        return RunConfig()
    if not isinstance(run, RunConfig):
        raise TypeError(f"{caller}: run must be a RunConfig, got {type(run).__name__}")
    return run


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment (used by the registry and CLI).

    ``runner`` follows the uniform contract ``runner(params, run: RunConfig)
    -> ExperimentResult`` (see :mod:`repro.experiments.api`); ``quick_params``
    and ``full_params`` hold only experiment-specific parameters -- execution
    options live on the :class:`RunConfig` that :meth:`run` builds, so
    ``--seed/--engine/--jobs`` apply uniformly to every experiment.
    """

    identifier: str
    title: str
    paper_reference: str
    runner: Callable[[Mapping, RunConfig], ExperimentResult]
    description: str = ""
    quick_params: Dict = field(default_factory=dict)
    full_params: Dict = field(default_factory=dict)

    def run(
        self,
        scale: str = "quick",
        run: Optional[RunConfig] = None,
        *,
        seed: Optional[int] = None,
        engine: Optional[str] = None,
        jobs: Optional[int] = None,
        trial_batch: Optional[int] = None,
        **overrides,
    ) -> ExperimentResult:
        """Run the experiment at the requested scale and return the result.

        Either pass a complete ``run=RunConfig(...)`` or let this method
        build one from ``seed``/``engine``/``jobs``/``trial_batch``
        (defaults: seed 0, loop engine, one worker, per-trial execution).
        ``overrides`` update the scale's experiment parameters.
        """
        if scale not in ("quick", "full"):
            raise ValueError(f"scale must be 'quick' or 'full', got {scale!r}")
        params = dict(self.quick_params if scale == "quick" else self.full_params)
        params.update(overrides)
        if run is not None:
            if seed is not None or engine is not None or jobs is not None or trial_batch is not None:
                raise TypeError(
                    "pass seed/engine/jobs/trial_batch on the RunConfig, not alongside it"
                )
            config = run
        else:
            config = RunConfig(
                seed=DEFAULT_EXPERIMENT_SEED if seed is None else seed,
                engine=engine if engine is not None else "loop",
                jobs=jobs if jobs is not None else 1,
                trial_batch=trial_batch if trial_batch is not None else 1,
            )
        started = time.perf_counter()
        outcome = self.runner(params, config)
        if not isinstance(outcome, ExperimentResult):
            # Undecorated runner returning bare rows: wrap it here so every
            # spec yields the typed record.
            outcome = experiment_result(
                self.identifier, outcome, config, time.perf_counter() - started
            )
        outcome.identifier = outcome.identifier or self.identifier
        outcome.title = self.title
        outcome.paper_reference = self.paper_reference
        outcome.scale = scale
        return outcome


def _seed_trial(
    protocol_factory: Callable[[], PopulationProtocol],
    configuration_factory: Optional[ConfigurationFactory],
    counts_factory: Optional[CountsFactory],
    compiled: Optional[CompiledProtocol],
    seed_seq: np.random.SeedSequence,
) -> SeededTrial:
    """Seed one trial: ``(rng, protocol, configuration, counts)``.

    The one place a trial's generator is built and first drawn from: a fresh
    protocol, then the configuration or counts factory (``None`` for the one
    not given), in the same order on every engine, batch and worker.
    """
    rng = np.random.default_rng(seed_seq)
    protocol = protocol_factory()
    configuration = (
        configuration_factory(protocol, rng) if configuration_factory is not None else None
    )
    counts = counts_factory(protocol, compiled, rng) if counts_factory is not None else None
    return rng, protocol, configuration, counts


def _execute_trial(
    seeded: SeededTrial, config: RunConfig, compiled: Optional[CompiledProtocol], memo_slot=None
) -> SimulationResult:
    """Run one seeded trial on the engine ``config`` names (process-agnostic).

    ``memo_slot`` is ``(memo, call_key, index)`` when a :func:`trial_memo`
    is active: the trial resumes from its persisted in-flight checkpoint
    (if one matches this config) and keeps checkpointing at every
    ``check_interval`` boundary.  Seeding happens first either way -- the
    generator consumption up to ``run()`` must match the uninterrupted
    path exactly; a restore then *overwrites* the generator state.
    """
    rng, protocol, configuration, counts = seeded
    simulation = make_simulation(
        protocol,
        config,
        configuration=configuration,
        rng=rng,
        compiled=compiled,
        counts=counts,
    )
    if memo_slot is not None:
        memo, call_key, index = memo_slot
        if hasattr(simulation, "restore_checkpoint_state"):
            checkpoint = memo.inflight_checkpoint(call_key, index, config)
            if checkpoint is not None:
                try:
                    simulation.restore_checkpoint_state(checkpoint.state)
                except (ValueError, RuntimeError, KeyError):
                    pass  # stale or corrupt checkpoint: run from the start
        if hasattr(simulation, "checkpoint_state"):
            hook = memo.checkpoint_hook(call_key, index, config)
            if hook is not None:
                simulation.on_check = hook
    return simulation.run(config)


def _start_row(seeded: SeededTrial, compiled: CompiledProtocol, engine: str) -> np.ndarray:
    """One seeded trial's start as a row of a trial-batched engine: state
    indices for the compiled engine, a state-count vector for counts."""
    rng, protocol, configuration, counts = seeded
    if counts is not None:
        if engine == "counts":
            return counts
        # Sorted indices: exchangeable under the uniform scheduler, the only
        # one the batched engines run.
        return np.repeat(
            np.arange(compiled.num_states, dtype=np.int32), np.asarray(counts, dtype=np.int64)
        )
    if configuration is None:
        configuration = protocol.initial_configuration(rng)
    indices = compiled.encode_configuration(configuration)
    if engine == "counts":
        return np.bincount(indices, minlength=compiled.num_states)
    return indices


def _execute_trial_batch(
    protocol: PopulationProtocol,
    seeded: Sequence[SeededTrial],
    config: RunConfig,
    compiled: CompiledProtocol,
    batch_seed: np.random.SeedSequence,
) -> List[SimulationResult]:
    """Run seeded trials through the trial-batched form of ``config.engine``.

    The compiled engine goes on drawing from each trial's own generator, so
    its per-trial streams do not depend on the batch.  The counts engine
    samples from one batch-level generator derived from ``batch_seed`` (the
    batch's first trial seed), independent of every trial's generator.
    """
    rows = np.stack([_start_row(trial, compiled, config.engine) for trial in seeded])
    if config.engine == "compiled":
        rngs = [trial[0] for trial in seeded]
        simulation = TrialBatchSimulation(protocol, rngs, indices=rows, compiled=compiled)
    else:
        batch_rng = np.random.default_rng(batch_seed_sequence(batch_seed))
        simulation = CountsTrialBatchSimulation(protocol, rows, rng=batch_rng, compiled=compiled)
    return simulation.run(config)


def _pool_unit(start: int) -> List[SimulationResult]:
    """Pool worker entry point: the unit at ``start`` of the inherited call."""
    if _POOL_UNIT is None:
        raise RuntimeError(
            "worker has no inherited trial context; the parallel harness "
            "requires fork-started workers"
        )
    return _POOL_UNIT(start)


def run_trials(
    protocol_factory: Callable[[], PopulationProtocol],
    trials: int,
    run: Optional[RunConfig] = None,
    *,
    configuration_factory: Optional[ConfigurationFactory] = None,
    counts_factory: Optional[CountsFactory] = None,
    on_trial_done: Optional[TrialObserver] = None,
) -> List[SimulationResult]:
    """Run ``trials`` independent simulations, optionally across processes.

    Returns the per-trial :class:`SimulationResult` records in trial order.
    Trial ``i`` always consumes the generator spawned from the ``i``-th child
    ``SeedSequence`` of ``run.seed``, so the results are **bit-identical for
    every value of ``run.jobs``** -- parallelism redistributes work, never
    randomness.

    ``on_trial_done(index, result)`` is invoked in trial order on the
    coordinating process as results become available -- including the
    ``jobs > 1`` path, where the pool's ordered result stream drives the
    callbacks (so observers need no locking).

    ``run.jobs > 1`` executes trials on a ``ProcessPoolExecutor`` with forked
    workers; factories may be arbitrary closures (they are inherited through
    the fork, not pickled).  With the table-driven engines
    (``engine="compiled"`` / ``engine="counts"``) the protocol is compiled
    once up front and the table shared -- by reference across sequential
    trials, via fork copy-on-write across workers.  On platforms without the
    ``fork`` start method the harness degrades to sequential execution (same
    results, no speedup).

    ``counts_factory`` seeds table-engine trials with a state-count vector
    (O(S) instead of O(n)); it requires a table engine (``"counts"`` or
    ``"compiled"``, where the vector expands to a sorted index array --
    exchangeable under the uniform scheduler) and is mutually exclusive with
    ``configuration_factory``.

    ``run.trial_batch > 1`` slices the trial list into batches of that size
    and advances each batch as one trial-batched engine instance
    (:mod:`repro.engine.trial_batch`); with ``jobs > 1`` each worker process
    runs whole batches.  Compiled-engine per-trial results are bit-identical
    for every ``trial_batch >= 2`` and every ``jobs``; ``trial_batch=1`` runs
    the per-trial engine, another stream with the same law.  Plans that
    :func:`~repro.engine.core.unbatchable_reason` refuses fall back
    to per-trial execution with a ``RuntimeWarning`` naming the reason.
    """
    config = _coerce_run_config(run, caller="run_trials")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if counts_factory is not None:
        if config.engine not in ("counts", "compiled"):
            raise ValueError(
                f"counts_factory requires a table engine, got {config.engine!r}"
            )
        if configuration_factory is not None:
            raise ValueError(
                "pass either configuration_factory or counts_factory, not both"
            )
    seeds = spawn_seed_sequences(config.seed, trials)
    compiled = (
        ProtocolCompiler().compile(protocol_factory())
        if config.engine in ("compiled", "counts")
        else None
    )
    fallback_reason = unbatchable_reason(config)
    batched = config.trial_batch > 1 and fallback_reason is None
    if config.trial_batch > 1 and fallback_reason is not None:
        warnings.warn(
            f"--trial-batch ignored: {fallback_reason}; "
            "running trials one at a time",
            RuntimeWarning,
            stacklevel=2,
        )
    size = config.trial_batch if batched else 1
    units = list(range(0, trials, size))

    # The memo, when installed, names this call positionally and replays any
    # unit (batch or single trial) it holds whole; replays never run a unit.
    memo = _TRIAL_MEMO
    call_key = memo.begin_call(trials, config) if memo is not None else None
    tracer = _tracing.current_tracer()
    call_started = time.perf_counter()

    def seed(index: int) -> SeededTrial:
        return _seed_trial(
            protocol_factory, configuration_factory, counts_factory, compiled, seeds[index]
        )

    def run_unit(start: int) -> List[SimulationResult]:
        """Run the unit starting at trial ``start`` (in a worker when pooled)."""
        if batched:
            protocol = protocol_factory()
            seeded = [seed(index) for index in range(start, min(start + size, trials))]
            return _execute_trial_batch(protocol, seeded, config, compiled, seeds[start])
        memo_slot = (memo, call_key, start) if memo is not None else None
        return [_execute_trial(seed(start), config, compiled, memo_slot)]

    def replay(start: int) -> Optional[List[SimulationResult]]:
        cached = [memo.lookup(call_key, index) for index in range(start, min(start + size, trials))]
        return cached if all(item is not None for item in cached) else None

    replayed = {start: replay(start) for start in units} if memo is not None else {}
    pending = [start for start in units if replayed.get(start) is None]

    def collect(fresh: Iterator[List[SimulationResult]]) -> List[SimulationResult]:
        """Replay or take each unit in trial order; record, count, trace and
        observe every trial.  ``fresh`` yields the pending units in order."""
        results: List[SimulationResult] = []
        for start in units:
            batch = replayed.get(start)
            if batch is None:
                batch = next(fresh)
                if memo is not None:
                    for index, result in enumerate(batch, start):
                        memo.record(call_key, index, result)
            for index, result in enumerate(batch, start):
                results.append(result)
                _metrics.record_trial(result.engine, result.interactions)
                if tracer is not None:
                    tracer.emit(
                        "trial",
                        call=call_key,
                        trial=index,
                        engine=result.engine,
                        n=result.n,
                        interactions=result.interactions,
                        stopped=result.stopped,
                        reason=result.reason,
                    )
                if on_trial_done is not None:
                    on_trial_done(index, result)
        if tracer is not None:
            tracer.emit(
                "harness_call",
                call=call_key,
                trials=trials,
                engine=config.engine,
                jobs=config.jobs,
                dur=round(time.perf_counter() - call_started, 6),
            )
        return results

    context = None
    if config.jobs > 1 and len(pending) > 1:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = None
    if context is None:
        return collect(map(run_unit, pending))

    global _POOL_UNIT
    _POOL_UNIT = run_unit
    try:
        workers = min(config.jobs, len(pending))
        # Batches are the work unit, so the pool schedules them whole.
        chunksize = 1 if batched else max(1, len(pending) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as executor:
            return collect(executor.map(_pool_unit, pending, chunksize=chunksize))
    finally:
        _POOL_UNIT = None


def measure_parallel_times(
    protocol_factory: Callable[[], PopulationProtocol],
    trials: int,
    run: Optional[RunConfig] = None,
    *,
    configuration_factory: Optional[ConfigurationFactory] = None,
    label: str = "",
    on_trial_done: Optional[TrialObserver] = None,
) -> TrialStatistics:
    """Run ``trials`` independent simulations and collect stabilization times.

    A thin wrapper around :func:`run_trials` that accepts a configuration
    factory for adversarial starts and returns :class:`TrialStatistics` of
    the measured parallel times.  Trials that hit the interaction cap
    contribute their (censored) cap time, so results stay conservative rather
    than silently optimistic.

    ``run`` selects engine, stop condition, seed, caps, and worker count; see
    :class:`~repro.engine.run_config.RunConfig` and ``docs/ARCHITECTURE.md``
    for the engine tradeoffs.  With ``engine="compiled"`` the protocol is
    compiled once and the tables are shared across trials, so the factory
    must build identically parameterized protocols every call.
    """
    config = _coerce_run_config(run, caller="measure_parallel_times")
    results = run_trials(
        protocol_factory=protocol_factory,
        trials=trials,
        run=config,
        configuration_factory=configuration_factory,
        on_trial_done=on_trial_done,
    )
    times = [result.parallel_time for result in results]
    n = results[0].n if results else 0
    return TrialStatistics.from_values(label or protocol_factory().name, n, times)


def sweep_parallel_time(
    ns: Sequence[int],
    protocol_factory: ProtocolFactory,
    trials: int,
    run: Optional[RunConfig] = None,
    *,
    configuration_factory: Optional[ConfigurationFactory] = None,
    max_interactions_factory: Optional[Callable[[int], int]] = None,
    label: str = "",
    on_trial_done: Optional[TrialObserver] = None,
) -> List[TrialStatistics]:
    """Measure stabilization time across a sweep of population sizes.

    ``protocol_factory`` receives the population size; the per-``n`` seeds are
    derived from ``run.seed`` so runs are reproducible yet independent.  The
    engine and worker count on ``run`` are forwarded to
    :func:`measure_parallel_times`, so a multi-trial/multi-``n`` sweep
    saturates ``jobs`` cores with either engine.
    """
    config = _coerce_run_config(run, caller="sweep_parallel_time")
    results: List[TrialStatistics] = []
    seeds = spawn_seed_sequences(config.seed, len(ns))
    for n, n_seed in zip(ns, seeds):
        cap = (
            max_interactions_factory(n)
            if max_interactions_factory is not None
            else config.max_interactions
        )
        statistics = measure_parallel_times(
            protocol_factory=lambda n=n: protocol_factory(n),
            trials=trials,
            run=config.replace(
                seed=np.random.default_rng(n_seed), max_interactions=cap
            ),
            configuration_factory=configuration_factory,
            label=f"{label or 'sweep'} (n={n})",
            on_trial_done=on_trial_done,
        )
        results.append(statistics)
    return results


__all__ = [
    "ENGINES",
    "STOPS",
    "ExperimentSpec",
    "RunConfig",
    "measure_parallel_times",
    "run_trials",
    "sweep_parallel_time",
    "trial_memo",
]
