"""The per-interaction loop engine.

:class:`Simulation` repeatedly asks the scheduler for an ordered pair of
agents and applies the protocol transition, tracking the number of
interactions (and hence parallel time).  Stopping conditions -- correctness,
stabilization, silence, or an arbitrary predicate -- are evaluated every
``check_interval`` interactions since they can be expensive (the check loop
lives in :class:`~repro.engine.core.EngineCore`).

This engine is fully general (any protocol, instrumentation hooks) but pays
Python-call overhead per interaction; for compilable protocols at large ``n``
use :class:`~repro.engine.batch_simulation.BatchSimulation` instead -- see
``docs/ARCHITECTURE.md`` for the tradeoffs.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.engine.configuration import Configuration
from repro.engine.core import DEFAULT_CAP_CUBIC_FACTOR, EngineCore
from repro.engine.hooks import InteractionHook
from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import RngLike, make_rng
from repro.engine.scheduler import PairScheduler, UniformPairScheduler
from repro.telemetry import metrics as _metrics


class Simulation(EngineCore):
    """Runs one execution of a population protocol."""

    ENGINE = "loop"

    def __init__(
        self,
        protocol: PopulationProtocol,
        configuration: Optional[Configuration] = None,
        rng: RngLike = None,
        hooks: Optional[Sequence[InteractionHook]] = None,
        scheduler_batch_size: int = 4096,
        scheduler: Optional[PairScheduler] = None,
    ):
        self.protocol = protocol
        self.rng = make_rng(rng)
        self.configuration = (
            configuration if configuration is not None else protocol.initial_configuration(self.rng)
        )
        if len(self.configuration) != protocol.n:
            raise ValueError(
                f"configuration has {len(self.configuration)} agents but protocol expects {protocol.n}"
            )
        if scheduler is not None and scheduler.n != protocol.n:
            raise ValueError(
                f"scheduler is for population size {scheduler.n}, protocol has {protocol.n}"
            )
        self.scheduler: PairScheduler = (
            scheduler
            if scheduler is not None
            else UniformPairScheduler(protocol.n, rng=self.rng, batch_size=scheduler_batch_size)
        )
        self.hooks: List[InteractionHook] = list(hooks) if hooks else []
        self.interactions = 0

    # perfbench's tracer wraps run and run_until per engine class through
    # ``vars(cls)``, so they are bound here rather than only inherited.
    run = EngineCore.run
    run_until = EngineCore.run_until

    # -- basic stepping -----------------------------------------------------------

    def step(self) -> None:
        """Execute a single interaction."""
        initiator_id, responder_id = self.scheduler.next_pair()
        states = self.configuration.states
        self.protocol.transition(states[initiator_id], states[responder_id], self.rng)
        self.interactions += 1
        for hook in self.hooks:
            hook.on_interaction(self.interactions, initiator_id, responder_id, self.configuration)

    def _steps(self, num_interactions: int) -> None:
        """Execute exactly ``num_interactions`` interactions; each call counts
        as one loop-engine window in telemetry."""
        profile = _metrics._PROFILING
        marker = time.perf_counter() if profile else 0.0
        # Local-variable binding keeps the hot loop as tight as pure Python allows.
        transition = self.protocol.transition
        next_pair = self.scheduler.next_pair
        states = self.configuration.states
        rng = self.rng
        hooks = self.hooks
        if hooks:
            for _ in range(num_interactions):
                i, j = next_pair()
                transition(states[i], states[j], rng)
                self.interactions += 1
                for hook in hooks:
                    hook.on_interaction(self.interactions, i, j, self.configuration)
        else:
            for _ in range(num_interactions):
                i, j = next_pair()
                transition(states[i], states[j], rng)
            self.interactions += num_interactions
        if profile:
            _metrics.record_stage_seconds("loop", "table_apply", time.perf_counter() - marker)
        # The loop engine has no windows; count each run(k) as one.
        if _metrics._ENABLED:
            _metrics.record_window("loop", num_interactions)

    # -- what differs from the table engines ----------------------------------------

    def _resolve_stop(self, kind: str):
        """The protocol's own predicate for ``kind`` (honest-scope under a
        byzantine overlay, whose view replaces ``self.protocol``)."""
        name = {"correct": "is_correct", "stabilized": "has_stabilized", "silent": "is_silent"}
        return getattr(self.protocol, name[kind]), None

    def _apply_fault_event(self, campaign, index: int) -> None:
        campaign.apply_to_configuration(index, self.protocol, self.configuration)

    def _install_byzantine(self, spec):
        """Re-seat the run on the byzantine overlay (see its module docs).

        The loop engine is the general one, but a persistent adversary is
        defined *by* the compiled table (the hostile strategies are table
        transforms), so installing compiles the protocol -- non-compilable
        protocols raise the compiler's usual error.  Agent states become
        tagged states, the protocol becomes the overlay's view (honest pairs
        still run the base ``transition``; pairs involving adversaries go
        through the extended table), and the stop predicates switch to
        honest-scope semantics via the view.
        """
        from repro.adversary.byzantine import (
            build_byzantine_overlay,
            byzantine_selection_rng,
        )
        from repro.engine.compiled import ProtocolCompiler

        compiled = ProtocolCompiler().compile(self.protocol)
        overlay = build_byzantine_overlay(self.protocol, compiled, spec)
        indices = compiled.encode_configuration(self.configuration)
        marked = overlay.draw_marking(
            byzantine_selection_rng(self.rng), compiled.state_counts(indices)
        )
        extended = overlay.mark_indices(indices, marked)
        for agent, state_index in enumerate(extended):
            self.configuration[agent] = overlay.compiled.states[int(state_index)].clone()
        self.protocol = overlay.view
        return overlay


__all__ = ["DEFAULT_CAP_CUBIC_FACTOR", "Simulation"]
