"""The engine core: what the sequential and the trial-batched engines share.

:class:`~repro.engine.simulation.Simulation`,
:class:`~repro.engine.batch_simulation.BatchSimulation` and
:class:`~repro.engine.counts_simulation.CountsSimulation` differ in how they
hold a configuration and advance it, not in how a run is judged.  The paper
ends every run on one of three stop notions -- correct, stabilized, silent --
checked at ``check_interval`` boundaries up to an interaction cap, and every
engine executes a :class:`~repro.engine.run_config.RunConfig` plan the same
way.  :class:`EngineCore` owns that once: the default cap, the check loop
with its ``on_check`` hook, telemetry probes and result construction, the
``run_until_*`` wrappers, and plan execution (scheduler install, Byzantine
overlay, fault timeline).

An engine implements only what differs:

* ``_steps(k)`` -- advance exactly ``k`` interactions (:meth:`EngineCore.run`
  checks ``k`` and hands a ``RunConfig`` to :meth:`EngineCore._run_plan`);
* ``_install_byzantine(spec)`` -- re-seat its state on the overlay and return
  it (the core guards "already installed" and "before any interaction");
* ``_install_scheduler(spec)`` and ``_apply_fault_event(campaign, index)``
  when the per-agent defaults below do not fit;
* ``_resolve_stop(kind)`` -- the loop engine maps stop kinds onto the
  protocol's own predicates; the table engines inherit the default;
* checkpoint state (table engines).

:class:`TrialBatchCore` owns the same judging for the trial-batched engines
of :mod:`repro.engine.trial_batch`, trial by trial, and
:func:`unbatchable_reason` names the plans they refuse; a batched engine
implements one round, ``_advance(live, budget)``, and the per-trial views
the stop predicates read.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.engine.configuration import Configuration
from repro.engine.hooks import InteractionHook
from repro.engine.protocol import PopulationProtocol
from repro.engine.results import SimulationResult
from repro.engine.run_config import RunConfig
from repro.telemetry import metrics as _metrics

#: Default cap on interactions, expressed as a multiple of ``n ** 3``: the
#: quadratic-*parallel-time* baseline protocol (``Silent-n-state-SSR``,
#: Theorem 2.4) needs Theta(n^2) parallel time = Theta(n^3) interactions from
#: its worst case, so the default cap must scale cubically for it to finish.
DEFAULT_CAP_CUBIC_FACTOR = 40.0


def default_cap(n: int) -> int:
    """The interaction cap used when a run sets none."""
    return int(DEFAULT_CAP_CUBIC_FACTOR * n * n * n)


def _stop_check(engine: str, stopped: Callable[..., bool], *args) -> bool:
    """Evaluate ``stopped(*args)`` as one stop check: timed as the
    ``stop_check`` stage under ``--profile`` and counted in
    ``repro_stop_checks_total``."""
    marker = time.perf_counter() if _metrics._PROFILING else 0.0
    hit = bool(stopped(*args))
    if _metrics._PROFILING:
        _metrics.record_stage_seconds(engine, "stop_check", time.perf_counter() - marker)
    if _metrics._ENABLED:
        _metrics.record_stop_check(engine)
    return hit


def resolve_stop(protocol: PopulationProtocol, compiled, kind: str):
    """Resolve a stop kind on a compiled table to ``(predicate, counts_predicate)``.

    Preference order: the protocol's ``compiled_predicates()`` fast path on
    the state-count vector; for silence, the table-exact
    :meth:`~repro.engine.compiled.CompiledProtocol.counts_silent`; otherwise
    the protocol's configuration predicate on a decoded configuration.
    """
    fast = protocol.compiled_predicates().get(kind)
    if fast is not None:
        return None, (lambda counts: fast(counts, compiled))
    if kind == "silent":
        return None, compiled.counts_silent
    slow = {
        "correct": protocol.is_correct,
        "stabilized": protocol.has_stabilized,
    }[kind]
    return slow, None


class EngineCore:
    """Stop checks and plan execution shared by the sequential engines."""

    #: Engine label on results and telemetry.
    ENGINE: str

    protocol: PopulationProtocol
    interactions: int
    #: Interaction hooks, notified when a run ends (loop engine only).
    hooks: Sequence[InteractionHook] = ()
    #: The fault campaign of the last ``run(config)`` with a FaultPlan
    #: (checkpoints and digests; see :mod:`repro.adversary.campaign`).
    campaign = None
    #: The installed ByzantineOverlay of a ``run(config)`` with a
    #: ByzantineSpec (see :mod:`repro.adversary.byzantine`).
    _byzantine = None
    #: Checkpoint hook: called as ``on_check(self)`` at every
    #: ``check_interval`` boundary inside :meth:`run_until` where the run is
    #: about to continue (stop condition false, cap not reached).  It must not
    #: consume ``self.rng`` -- the table engines' ``checkpoint_state`` does
    #: not -- or resumed runs lose bit-identity with uninterrupted ones.
    on_check: Optional[Callable[["EngineCore"], None]] = None

    @property
    def n(self) -> int:
        """Population size."""
        return self.protocol.n

    @property
    def parallel_time(self) -> float:
        """Interactions executed so far divided by the population size."""
        return self.interactions / self.protocol.n

    # -- running until a condition ----------------------------------------------

    def run_until(
        self,
        predicate: Optional[Callable[[Configuration], bool]] = None,
        max_interactions: Optional[int] = None,
        check_interval: Optional[int] = None,
        reason: str = "predicate",
        counts_predicate: Optional[Callable[[np.ndarray], bool]] = None,
    ) -> SimulationResult:
        """Run until a stopping condition holds or the cap is reached.

        Exactly one of ``predicate`` (evaluated on :attr:`configuration`,
        which the table engines decode -- the slow path) or
        ``counts_predicate`` (evaluated on the table engines' ``S``-length
        state-count vector -- the fast path) must be given.  It is checked
        before the first interaction and then after every ``check_interval``
        interactions (default: ``n``), so the reported stopping interaction
        count is accurate to within one check interval.  The cap defaults to
        :func:`default_cap`.
        """
        if (predicate is None) == (counts_predicate is None):
            raise ValueError("pass exactly one of predicate or counts_predicate")
        n = self.protocol.n
        if max_interactions is None:
            max_interactions = default_cap(n)
        if check_interval is None:
            check_interval = n
        if check_interval < 1:
            raise ValueError(f"check_interval must be positive, got {check_interval}")

        def stopped() -> bool:
            if counts_predicate is not None:
                return counts_predicate(self.state_counts)
            return predicate(self.configuration)

        engine = self.ENGINE
        while True:
            hit = _stop_check(engine, stopped)
            if hit or self.interactions >= max_interactions:
                result = SimulationResult(
                    n=n,
                    interactions=self.interactions,
                    stopped=hit,
                    reason=reason if hit else "cap",
                    engine=engine,
                )
                for hook in self.hooks:
                    hook.on_run_end(self.interactions, self.configuration)
                return result
            if self.on_check is not None:
                self.on_check(self)
            self.run(min(check_interval, max_interactions - self.interactions))

    def _resolve_stop(self, kind: str):
        """Resolve a stop kind to ``(predicate, counts_predicate)``.

        The table engines' form: :func:`resolve_stop` on the engine's table,
        or, with a byzantine overlay installed, the overlay's honest-scope
        counts predicate over the extended histogram.
        """
        if self._byzantine is not None:
            return None, self._byzantine.resolve_stop(kind)
        return resolve_stop(self.protocol, self.compiled, kind)

    def _run_until_kind(self, kind: str, kwargs: Dict) -> SimulationResult:
        predicate, counts_predicate = self._resolve_stop(kind)
        kwargs.setdefault("reason", kind)
        return self.run_until(
            predicate=predicate, counts_predicate=counts_predicate, **kwargs
        )

    def run_until_correct(self, **kwargs) -> SimulationResult:
        """Run until the protocol's correctness predicate holds (convergence)."""
        return self._run_until_kind("correct", kwargs)

    def run_until_stabilized(self, **kwargs) -> SimulationResult:
        """Run until the protocol's stabilization predicate holds."""
        return self._run_until_kind("stabilized", kwargs)

    def run_until_silent(self, **kwargs) -> SimulationResult:
        """Run until the configuration is silent (no transition changes it)."""
        return self._run_until_kind("silent", kwargs)

    # -- plan execution ---------------------------------------------------------

    def run(self, num_interactions) -> Optional[SimulationResult]:
        """Execute a :class:`RunConfig` plan, or exactly ``num_interactions``.

        Passing a :class:`~repro.engine.run_config.RunConfig` runs until the
        configured stop condition (or cap) and returns the
        :class:`SimulationResult` -- the one entry point of every engine, so
        harness code never dispatches on the engine or the stop condition.
        Passing an integer executes exactly that many interactions through
        the engine's ``_steps`` and returns ``None``.
        """
        if isinstance(num_interactions, RunConfig):
            return self._run_plan(num_interactions)
        if num_interactions < 0:
            raise ValueError(f"num_interactions must be non-negative, got {num_interactions}")
        self._steps(num_interactions)
        return None

    def _run_plan(self, config: RunConfig) -> SimulationResult:
        """Run until ``config.stop`` holds, honouring the config's caps.

        ``RunConfig`` validates ``stop`` against ``STOPS``, and every stop in
        that catalogue has a ``run_until_<stop>`` method.

        A ``config.scheduler`` spec replaces the engine's scheduler for the
        plan; a ``config.byzantine`` spec installs the overlay before any
        interaction.  A ``config.faults`` plan is executed mid-run: the
        engine advances to each event's interaction count, applies it, and
        evaluates the stop condition only after the final event -- so the
        result measures recovery from the last burst.
        ``config.max_interactions`` stays an *absolute* cap, shared by the
        fault timeline and the recovery phase: events scheduled beyond the
        cap never fire (the run stops at the cap, and the result's
        ``last_fault_at`` records the last event that actually applied).
        """
        if config.scheduler is not None:
            self._install_scheduler(config.scheduler)
        overlay = None
        if config.byzantine is not None:
            if self._byzantine is not None:
                raise RuntimeError("a byzantine overlay is already installed")
            if self.interactions:
                raise RuntimeError(
                    "the byzantine overlay must be installed before any interaction"
                )
            overlay = self._byzantine = self._install_byzantine(config.byzantine)
        campaign = None
        if config.faults is not None and config.faults.events:
            from repro.adversary.campaign import FaultCampaign

            cap = config.max_interactions
            if cap is None:
                cap = default_cap(self.protocol.n)
            campaign = self.campaign = FaultCampaign(config.faults, self.rng)
            for index, event in enumerate(config.faults.events):
                if event.at > cap:
                    break  # the cap truncates the fault timeline
                if self.interactions < event.at:
                    self.run(event.at - self.interactions)
                self._apply_fault_event(campaign, index)
        result = getattr(self, f"run_until_{config.stop}")(
            max_interactions=config.max_interactions,
            check_interval=config.check_interval,
        )
        if overlay is not None:
            overlay.annotate(result)
        if campaign is not None:
            campaign.annotate(result)
        return result

    def _install_scheduler(self, spec) -> None:
        """Replace the pair scheduler, built with the engine's generator."""
        self.scheduler = spec.build(self.protocol.n, rng=self.rng)

    def _apply_fault_event(self, campaign, index: int) -> None:
        """Apply fault event ``index`` on the engine's encoded state."""
        campaign.apply_to_batch(index, self)

    # -- table-engine argument checks -------------------------------------------

    def _check_fault(self, agent_ids, state_indices):
        """Validate an ``apply_fault`` burst; returns both as int64 arrays."""
        agent_ids = np.asarray(agent_ids, dtype=np.int64)
        state_indices = np.asarray(state_indices, dtype=np.int64)
        if agent_ids.shape != state_indices.shape or agent_ids.ndim != 1:
            raise ValueError("agent_ids and state_indices must be 1-D and equal length")
        if len(agent_ids) == 0:
            return agent_ids, state_indices
        n = self.protocol.n
        if int(agent_ids.min()) < 0 or int(agent_ids.max()) >= n:
            raise ValueError(f"agent_ids out of range for population size {n}")
        if len(np.unique(agent_ids)) != len(agent_ids):
            raise ValueError("agent_ids contains duplicates")
        num_states = self.compiled.num_states
        if int(state_indices.min()) < 0 or int(state_indices.max()) >= num_states:
            raise ValueError("state indices out of range for the compiled state space")
        return agent_ids, state_indices

    def _check_checkpoint(self, payload: Dict) -> Dict:
        """The checks every ``restore_checkpoint_state`` starts with.

        Rejects a payload captured by another engine, a run the engine
        cannot resume (its ``_checkpoint_guard``), and a generator state of
        another bit-generator type; returns the generator state to install.
        """
        if payload.get("engine") != self.ENGINE:
            raise ValueError(
                f"checkpoint was captured by engine {payload.get('engine')!r}, "
                f"not {self.ENGINE!r}"
            )
        self._checkpoint_guard()
        generator_state = dict(payload["bit_generator"])
        expected = type(self.rng.bit_generator).__name__
        if generator_state.get("bit_generator") != expected:
            raise ValueError(
                f"checkpoint holds {generator_state.get('bit_generator')!r} "
                f"generator state, engine uses {expected!r}"
            )
        return generator_state


def unbatchable_reason(config: RunConfig) -> Optional[str]:
    """Why the trial-batched engines cannot honour ``config`` (None if they can).

    Fault plans with events, non-uniform schedulers and byzantine overlays
    are per-trial constructs.  The batched engines refuse them with this
    reason; the harness falls back to per-trial execution (the batched path
    is an optimization, not a semantic switch) and warns with it, so an
    ignored ``--trial-batch`` is never silent.
    """
    if config.faults is not None and config.faults.events:
        return "fault campaigns run per trial"
    if config.scheduler is not None and getattr(config.scheduler, "kind", None) != "uniform":
        return "adversarial schedulers run per trial"
    if config.byzantine is not None:
        return "byzantine overlays run per trial"
    return None


class TrialBatchCore:
    """The check loop shared by the trial-batched engines.

    Trial ``t`` is judged exactly as :meth:`EngineCore.run_until` judges one
    run: checked before its first interaction and at each of its own
    ``check_interval`` boundaries, stopped on the condition or the cap.  A
    trial that stops is *frozen*: it leaves the live set and is never
    advanced again.  An engine supplies:

    * ``_advance(live, budget)`` -- one round: each trial in ``live`` applies
      at most its ``budget`` interactions and adds them to ``_applied``;
    * ``_trial_counts(trial)`` and ``_trial_configuration(trial)`` -- one
      trial's state-count vector and decoded configuration, for the counts
      and configuration predicates of :func:`resolve_stop`.
    """

    #: Engine label on results and telemetry.
    ENGINE: str

    protocol: PopulationProtocol
    #: Per-trial applied interaction counts, advanced by ``_advance``.
    _applied: np.ndarray
    _ran = False

    @property
    def n(self) -> int:
        """Population size (per trial)."""
        return self.protocol.n

    @property
    def trials(self) -> int:
        """Number of trials in the batch."""
        return len(self._applied)

    def run(self, config: RunConfig) -> List[SimulationResult]:
        """Run every trial until ``config.stop`` or the cap; results in trial order.

        One-shot; plans :func:`unbatchable_reason` refuses raise
        ``NotImplementedError``.
        """
        if not isinstance(config, RunConfig):
            raise TypeError(f"run() takes a RunConfig, got {type(config).__name__}")
        if self._ran:
            raise RuntimeError(f"{type(self).__name__}.run() is one-shot per instance")
        self._ran = True
        refusal = unbatchable_reason(config)
        if refusal is not None:
            raise NotImplementedError(
                f"trial-batched execution cannot run this plan: {refusal}"
            )

        n = self.protocol.n
        engine = self.ENGINE
        predicate, counts_predicate = resolve_stop(self.protocol, self.compiled, config.stop)
        cap = default_cap(n) if config.max_interactions is None else config.max_interactions
        check = n if config.check_interval is None else config.check_interval
        results: List[Optional[SimulationResult]] = [None] * self.trials
        live_mask = np.ones(self.trials, dtype=bool)
        next_check = np.zeros(self.trials, dtype=np.int64)

        def stopped(trial: int) -> bool:
            if counts_predicate is not None:
                return counts_predicate(self._trial_counts(trial))
            return predicate(self._trial_configuration(trial))

        def judge(trial: int) -> None:
            """Check one trial: freeze it, or set its next boundary."""
            hit = _stop_check(engine, stopped, trial)
            applied = int(self._applied[trial])
            if hit or applied >= cap:
                results[trial] = SimulationResult(
                    n=n,
                    interactions=applied,
                    stopped=hit,
                    reason=config.stop if hit else "cap",
                    engine=engine,
                )
                live_mask[trial] = False
                self._on_freeze(trial)
            else:
                next_check[trial] = min(applied + check, cap)

        for trial in range(self.trials):
            judge(trial)
        while live_mask.any():
            live = np.nonzero(live_mask)[0]
            self._advance(live, next_check[live] - self._applied[live])
            for index in np.nonzero(self._applied[live] >= next_check[live])[0]:
                judge(int(live[index]))
        return results  # type: ignore[return-value]

    def _on_freeze(self, trial: int) -> None:
        """Called once, when ``trial`` stops or reaches the cap."""


__all__ = [
    "DEFAULT_CAP_CUBIC_FACTOR",
    "EngineCore",
    "TrialBatchCore",
    "default_cap",
    "resolve_stop",
    "unbatchable_reason",
]
