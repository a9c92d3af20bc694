"""Population-protocol simulation engine.

This subpackage implements the standard population protocol model used by the
paper: ``n`` anonymous agents, a complete interaction graph, and a scheduler
that at each discrete step selects a uniformly random *ordered* pair of agents
(initiator, responder).  Parallel time is the number of interactions divided
by ``n``.

Public surface
--------------
* :class:`~repro.engine.state.AgentState` -- base class for field-based agent
  states.
* :class:`~repro.engine.protocol.PopulationProtocol` -- abstract base class a
  protocol implements (transition function, correctness predicate,
  initial/adversarial configurations).
* :class:`~repro.engine.configuration.Configuration` -- a snapshot of all
  agents' states with multiset-style helpers.
* :class:`~repro.engine.scheduler.PairScheduler` /
  :class:`~repro.engine.scheduler.UniformPairScheduler` -- the batched
  pair-scheduler contract and its uniform default (adversarial
  implementations live in :mod:`repro.adversary.schedulers`).
* :class:`~repro.engine.simulation.Simulation` -- the per-interaction loop
  with convergence / stabilization / silence detection and instrumentation
  hooks.
* :class:`~repro.engine.compiled.ProtocolCompiler` /
  :class:`~repro.engine.compiled.CompiledProtocol` -- integer-encoding of a
  protocol's reachable state space into dense transition tables.
* :class:`~repro.engine.batch_simulation.BatchSimulation` -- the compiled
  batch engine applying whole scheduler windows with NumPy fancy indexing
  (million-agent populations).
* :class:`~repro.engine.counts_simulation.CountsSimulation` -- the agent-free
  counts engine advancing whole windows on a state-count vector in O(S^2)
  per window, independent of ``n`` (``n = 1e8``-``1e9`` populations for
  fixed-state-space protocols).
* :class:`~repro.engine.core.EngineCore` -- what those three share: the
  default cap, the stop-check loop, stop resolution and plan execution.
* :class:`~repro.engine.results.SimulationResult` /
  :class:`~repro.engine.results.TrialStatistics` -- result records.

The three engines and how to choose between them are described in
``docs/ARCHITECTURE.md``.
"""

from repro.engine.batch_simulation import BatchSimulation
from repro.engine.compiled import CompilationError, CompiledProtocol, ProtocolCompiler
from repro.engine.configuration import Configuration
from repro.engine.counts_simulation import CountsSimulation
from repro.engine.hooks import CountingHook, InteractionHook, TraceRecorder
from repro.engine.protocol import PopulationProtocol
from repro.engine.results import SimulationResult, TrialStatistics
from repro.engine.rng import make_rng, spawn_rngs
from repro.engine.run_config import ENGINES, STOPS, RunConfig, make_simulation
from repro.engine.scheduler import PairScheduler, UniformPairScheduler, ordered_pair_index
from repro.engine.simulation import Simulation
from repro.engine.state import AgentState
from repro.engine.trial_batch import CountsTrialBatchSimulation, TrialBatchSimulation

__all__ = [
    "AgentState",
    "BatchSimulation",
    "CompilationError",
    "CompiledProtocol",
    "Configuration",
    "CountingHook",
    "CountsSimulation",
    "CountsTrialBatchSimulation",
    "ENGINES",
    "InteractionHook",
    "PairScheduler",
    "PopulationProtocol",
    "ProtocolCompiler",
    "RunConfig",
    "STOPS",
    "Simulation",
    "SimulationResult",
    "TraceRecorder",
    "TrialBatchSimulation",
    "TrialStatistics",
    "UniformPairScheduler",
    "make_rng",
    "make_simulation",
    "ordered_pair_index",
    "spawn_rngs",
]
