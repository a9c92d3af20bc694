"""The uniform experiment-runner contract.

Every registered experiment runner has the signature::

    runner(params: Mapping, run: RunConfig) -> ExperimentResult

``params`` carries the experiment-specific knobs (population sizes, trial
counts, protocol constants); ``run`` carries the execution options that are
uniform across *all* experiments (seed, engine, jobs, stop, caps) and flow
unchanged from the CLI's ``--seed/--engine/--jobs`` flags.  The
:func:`experiment_runner` decorator adapts a row-producing function to this
contract: it times the call, stamps provenance, and wraps the rows in an
:class:`~repro.experiments.result.ExperimentResult`.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Mapping

from repro.engine.run_config import RunConfig
from repro.experiments.result import ExperimentResult

#: Default seed of experiment entry points, so experiment runs are
#: reproducible unless the caller asks for entropy.
DEFAULT_EXPERIMENT_SEED = 0


def read_params(params: Mapping, **defaults) -> Dict:
    """Apply ``defaults`` to ``params``, rejecting unknown parameter names.

    The uniform contract passes experiment parameters as a mapping, which
    would silently swallow a misspelled key (``trails=100`` running with the
    default trial count); this keeps the old keyword-signature behaviour of
    failing loudly instead.
    """
    unknown = set(params) - set(defaults)
    if unknown:
        raise TypeError(
            f"unknown experiment parameters {sorted(unknown)}; "
            f"known: {sorted(defaults)}"
        )
    merged = dict(defaults)
    merged.update(params)
    return merged


def require_loop_engine(run: RunConfig) -> None:
    """Refuse a table engine before any seeding.

    Runners that build :class:`~repro.engine.simulation.Simulation` (or a
    process simulator) themselves run on no other engine, so taking
    ``--engine compiled|counts`` would record an engine that never ran.
    """
    if run.engine != "loop":
        raise ValueError(
            f"this experiment runs only on the loop engine, not {run.engine!r}; "
            "try --engine loop"
        )


def experiment_result(
    identifier: str, rows, config: RunConfig, wall_time: float
) -> ExperimentResult:
    """``rows`` as an :class:`ExperimentResult` stamped with the provenance of
    ``config`` (its seed only when it is an integer) and ``wall_time``."""
    return ExperimentResult(
        identifier=identifier,
        rows=list(rows),
        seed=config.seed if isinstance(config.seed, int) else None,
        engine=config.engine,
        stop=config.stop,
        jobs=config.jobs,
        trial_batch=config.trial_batch,
        faults=config.faults.to_dict() if config.faults is not None else None,
        scheduler=config.scheduler.to_dict() if config.scheduler is not None else None,
        byzantine=config.byzantine.to_dict() if config.byzantine is not None else None,
        wall_time=wall_time,
    )


def experiment_runner(
    identifier: str,
) -> Callable[[Callable[[Mapping, RunConfig], List[Dict]]], Callable]:
    """Adapt a ``(params, run) -> rows`` function to the uniform contract.

    The decorated callable is ``runner(params, run)`` and returns an
    :class:`ExperimentResult`.  The registry identifier is attached as
    ``runner.experiment_identifier`` so the explicit contract replaces
    signature introspection everywhere.
    """

    def decorate(fn: Callable[[Mapping, RunConfig], List[Dict]]) -> Callable:
        @functools.wraps(fn)
        def wrapper(params=None, run=None):
            if params is not None and not isinstance(params, Mapping):
                raise TypeError(
                    f"{fn.__name__} params must be a mapping of experiment "
                    f"parameters, got {type(params).__name__}"
                )
            if run is not None and not isinstance(run, RunConfig):
                raise TypeError(
                    f"{fn.__name__} run must be a RunConfig, got {type(run).__name__}"
                )
            config = run if run is not None else RunConfig(seed=DEFAULT_EXPERIMENT_SEED)
            started = time.perf_counter()
            rows = fn(dict(params or {}), config)
            return experiment_result(identifier, rows, config, time.perf_counter() - started)

        wrapper.experiment_identifier = identifier
        wrapper.__wrapped__ = fn
        return wrapper

    return decorate


__all__ = [
    "DEFAULT_EXPERIMENT_SEED",
    "experiment_result",
    "experiment_runner",
    "read_params",
    "require_loop_engine",
]
