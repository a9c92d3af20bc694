"""Trial-axis batched execution: run a whole sweep as one simulation.

Every statistical result in the reproduction is a mean over tens-to-hundreds
of independent trials, yet :class:`~repro.engine.batch_simulation.BatchSimulation`
and :class:`~repro.engine.counts_simulation.CountsSimulation` advance exactly
one trial per NumPy dispatch.  The classes here batch the *trial axis* into
the arrays themselves, so one dispatch advances every live trial of a sweep:

* :class:`TrialBatchSimulation` -- the compiled engine over a ``(T, n)``
  encoded-state matrix (flattened, with trial ``t`` owning agents
  ``[t * n, (t + 1) * n)``, so the existing conflict-scan machinery applies
  unchanged across trials: agents of different trials can never collide).
* :class:`CountsTrialBatchSimulation` -- the counts engine over a ``(T, S)``
  count matrix, where one broadcast binomial/multinomial draw from a frozen
  per-trial law serves all live trials of the window.

The compiled RNG-stream regime
------------------------------
``TrialBatchSimulation`` is an *exact* execution regime with a documented
per-trial random-stream contract.  Trial ``t`` owns one generator (the
harness builds it from the ``t``-th child of ``spawn_seed_sequences``, the
same child the per-trial path uses) and consumes it in a schedule that
depends **only on that trial's own history**:

1. pair draws -- one :func:`~repro.engine.scheduler.draw_uniform_pairs` call
   of a fixed ``chunk`` whenever the trial's buffer empties;
2. branch draws (randomized protocols only) -- one ``rng.random(k)`` call
   per round in which the trial applies ``k >= 1`` active pairs.

Because neither the refill points, the per-round segment lengths (determined
by the trial's own pairs, states, and conflict positions), nor the branch
draws depend on the other trials in the batch, **per-trial results are
bit-identical for every batch composition and every ``jobs`` layout**:
running trial ``i`` alone, in a batch of 100, or on worker 3 of 4 consumes
the exact same stream and produces the exact same
:class:`~repro.engine.results.SimulationResult`.  This is the batched
extension of the harness invariant "parallelism redistributes work, never
randomness".  Relative to the *sequential* engines the regime consumes the
generator differently, so cross-regime equivalence is statistical (the same
convergence-time law; held by ``tests/engine/test_engine_equivalence.py``),
exactly as loop-vs-compiled always was.

Round structure (compiled)
--------------------------
Each round concatenates the next buffered pair slice of every live trial
into one flat array, computes the table rows and the ``changes`` mask
jointly, finds each trial's first ordering conflict with the same
epoch-tagged scatter/gather trick as :class:`BatchSimulation` (positions are
global flat indices; trials occupy disjoint agent ranges, so one scan serves
all), applies every active pre-conflict pair of every trial in a **single**
packed gather/scatter, and advances each trial by its own segment length.
The unconsumed buffer tail is *kept* (not discarded): the drawn pairs are
i.i.d. and independent of the states, and the conflict position is a
stopping time, so re-examining the tail next round against fresh states is
exact -- and keeping it is what makes the per-trial stream consumption
independent of segment boundaries.

Convergence-masked freezing
---------------------------
Stop conditions are evaluated per trial at that trial's own
``check_interval`` boundaries (slices never cross a boundary).  A trial
that stops -- or hits the interaction cap -- is *frozen*: it leaves the
live set, its rows are never indexed again, and its state row is guaranteed
untouched for the remainder of the run (a Hypothesis property test pins
this).  Stragglers keep running with no wasted work on finished trials.

Limits
------
* Fault plans, non-uniform schedulers and byzantine overlays are per-trial
  constructs: :func:`unbatchable_reason` names the rule a config breaks,
  ``run`` raises ``NotImplementedError`` with it, and the harness falls back
  to per-trial execution with the same reason.
* One-shot: ``run(config)`` may be called once per instance.

The counts regime
-----------------
``CountsTrialBatchSimulation`` shares one *batch-level* generator across all
trials (derived via :func:`~repro.engine.rng.batch_seed_sequence` from the
batch's first trial seed, so it is independent of every per-trial seeding
stream and deterministic across ``jobs`` layouts for a fixed
``trial_batch``).  Because the draw order interleaves trials, counts results
are **deterministic for a fixed (seed, trial_batch, jobs-composition)** but
not bitwise invariant across batch sizes -- equivalence to the sequential
counts engine is statistical, held by the same KS matrix.  The window law is
the exact ordered-pair law of :class:`CountsSimulation` frozen at the window
start, evaluated over the *static* active state-pair support (empty cells
carry zero probability, so one support table serves every trial), with the
same drift-capped window sizing and matching-feasibility rejection --
halving only the overdrawn trials' windows.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.engine.batch_simulation import BatchSimulation, _scatter_first
from repro.engine.compiled import CompiledProtocol, ProtocolCompiler
from repro.engine.core import default_cap, resolve_stop
from repro.engine.counts_simulation import (
    DEFAULT_DRIFT_CAP,
    _HARD_WINDOW_CAP,
    active_pair_tables,
    dense_pair_terms,
    pair_flows,
)
from repro.engine.protocol import PopulationProtocol
from repro.engine.results import SimulationResult
from repro.engine.rng import RngLike, make_rng
from repro.engine.run_config import RunConfig
from repro.engine.scheduler import draw_uniform_pair_matrix
from repro.telemetry import metrics as _metrics

#: Fixed per-trial pair-buffer length.  Part of the compiled RNG-stream
#: regime: refills happen every ``TRIAL_CHUNK`` consumed pairs of a trial,
#: so changing it changes the per-trial streams (it is therefore a module
#: constant, not a tuning knob threaded through configs).
TRIAL_CHUNK = 4096

#: Initial per-trial segment-length EMA (same prior as ``BatchSimulation``).
_EMA_PRIOR = 512.0

#: Per-trial slice widths are capped at this multiple of the trial's
#: segment-length EMA.  Like ``TRIAL_CHUNK`` this is part of the stream
#: regime (for randomized protocols the per-round branch-draw granularity
#: depends on the slice segmentation), so it is a fixed module constant.
#: 1.2 empirically minimizes re-examination waste against round overhead.
_SLICE_EMA_FACTOR = 1.2

#: Epoch-biased conflict tags: an agent's first active occurrence in the
#: current round is stored as ``position - epoch * _EPOCH_BIAS``, so entries
#: left over from earlier rounds compare strictly larger than any tag of the
#: current round and one ``min(tag_i, tag_j) < position - bias`` comparison
#: replaces a separate epoch-tag array.  Positions are bounded by the round's
#: slice total (far below the bias), and the epoch counter wraps with one
#: O(T n) buffer reset every ``_EPOCH_WRAP`` rounds.
_EPOCH_BIAS = 1 << 40
_EPOCH_WRAP = 1 << 21
_STALE_TAG = 1 << 62


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


def _reject_unbatchable(config: RunConfig) -> None:
    reason = unbatchable_reason(config)
    if reason is not None:
        raise NotImplementedError(f"trial-batched execution cannot run this plan: {reason}")


class TrialBatchSimulation:
    """Runs ``T`` independent compiled-engine trials as one batched execution.

    Parameters
    ----------
    protocol:
        The (shared) protocol.  All trials run the same compiled table.
    rngs:
        One ``numpy.random.Generator`` per trial, already used for that
        trial's configuration seeding (the harness passes the generators it
        builds from ``spawn_seed_sequences`` children).  The engine consumes
        them under the regime documented in the module docstring.
    indices:
        ``(T, n)`` encoded starting states, one row per trial.  Mutually
        exclusive with ``configurations``.
    configurations:
        ``T`` starting :class:`Configuration` objects (encoded here).
    compiled / compiler:
        Share or build the compiled table (compatibility-checked exactly
        like :class:`BatchSimulation`).
    record_freezes:
        When true, a copy of each trial's state row is snapshotted at the
        moment the trial freezes, into :attr:`freeze_snapshots` -- the debug
        surface of the freeze-immutability property test.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        rngs: Sequence[np.random.Generator],
        indices: Optional[np.ndarray] = None,
        configurations: Optional[Sequence] = None,
        compiled: Optional[CompiledProtocol] = None,
        compiler: Optional[ProtocolCompiler] = None,
        record_freezes: bool = False,
    ):
        self.protocol = protocol
        self.rngs = [make_rng(rng) for rng in rngs]
        trials = len(self.rngs)
        if trials < 1:
            raise ValueError("need at least one trial generator")
        if compiled is None:
            compiled = (compiler or ProtocolCompiler()).compile(protocol)
        else:
            BatchSimulation._check_compiled_compatible(compiled, protocol)
        self.compiled = compiled

        n = protocol.n
        if (indices is None) == (configurations is None):
            raise ValueError("pass exactly one of indices or configurations")
        if configurations is not None:
            if len(configurations) != trials:
                raise ValueError(
                    f"got {len(configurations)} configurations for {trials} trials"
                )
            indices = np.stack(
                [compiled.encode_configuration(c) for c in configurations]
            )
        indices = np.asarray(indices)
        if indices.shape != (trials, n):
            raise ValueError(
                f"indices must have shape ({trials}, {n}), got {indices.shape}"
            )
        if indices.size and (
            int(indices.min()) < 0 or int(indices.max()) >= compiled.num_states
        ):
            raise ValueError("state indices out of range for the compiled state space")
        self._states = indices.astype(np.int32).reshape(-1).copy()

        self._trials = trials
        self._chunk = TRIAL_CHUNK
        # Per-trial pair buffers, refilled lazily so a trial's draw count
        # depends only on its own consumption (the bit-identity contract).
        self._buf_init = np.empty((trials, self._chunk), dtype=np.int64)
        self._buf_resp = np.empty((trials, self._chunk), dtype=np.int64)
        self._cursor = np.full(trials, self._chunk, dtype=np.int64)  # empty => refill
        self._applied = np.zeros(trials, dtype=np.int64)
        self._ema = np.full(trials, _EMA_PRIOR, dtype=np.float64)
        # Epoch-biased per-(trial, agent) conflict-scan scratch, flat T*n
        # (see _EPOCH_BIAS above).
        self._first_active = np.full(trials * n, _STALE_TAG, dtype=np.int64)
        self._epoch = 0
        self._ran = False
        #: Trial index -> state-row copy taken at freeze time (only with
        #: ``record_freezes=True``).
        self.freeze_snapshots: Optional[Dict[int, np.ndarray]] = (
            {} if record_freezes else None
        )

    # -- views ----------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Population size (per trial)."""
        return self.protocol.n

    @property
    def trials(self) -> int:
        """Number of trials in the batch."""
        return self._trials

    @property
    def state_rows(self) -> np.ndarray:
        """The ``(T, n)`` state-index matrix (live view; treat as read-only)."""
        return self._states.reshape(self._trials, self.protocol.n)

    @property
    def interactions(self) -> np.ndarray:
        """Per-trial applied interaction counts (copy)."""
        return self._applied.copy()

    def trial_state_counts(self, trial: int) -> np.ndarray:
        """Histogram of one trial's state indices (length ``S``)."""
        return np.bincount(
            self.state_rows[trial], minlength=self.compiled.num_states
        )

    # -- execution -------------------------------------------------------------------

    def _stopped(self, trial: int, predicate, counts_predicate) -> bool:
        if counts_predicate is not None:
            return bool(counts_predicate(self.trial_state_counts(trial)))
        row = self.state_rows[trial]
        return bool(predicate(self.compiled.decode_configuration(row)))

    def run(self, config: RunConfig) -> List[SimulationResult]:
        """Execute all trials until ``config.stop`` (or the cap) and return
        the per-trial :class:`SimulationResult` records in trial order.

        One-shot: a second call raises.  Plans :func:`unbatchable_reason`
        refuses raise ``NotImplementedError`` (see module docstring).
        """
        if not isinstance(config, RunConfig):
            raise TypeError(f"run() takes a RunConfig, got {type(config).__name__}")
        if self._ran:
            raise RuntimeError("TrialBatchSimulation.run() is one-shot per instance")
        self._ran = True
        _reject_unbatchable(config)

        protocol = self.protocol
        compiled = self.compiled
        n = protocol.n
        predicate, counts_predicate = resolve_stop(protocol, compiled, config.stop)
        cap = config.max_interactions
        if cap is None:
            cap = default_cap(n)
        check = config.check_interval if config.check_interval is not None else n
        reason = config.stop

        trials = self._trials
        results: List[Optional[SimulationResult]] = [None] * trials
        live_mask = np.ones(trials, dtype=bool)

        def freeze(trial: int, stopped: bool, why: str) -> None:
            results[trial] = SimulationResult(
                n=n,
                interactions=int(self._applied[trial]),
                stopped=stopped,
                reason=why,
                engine="compiled",
            )
            live_mask[trial] = False
            if self.freeze_snapshots is not None:
                self.freeze_snapshots[trial] = self.state_rows[trial].copy()

        # Pre-run check, like run_until: stop first, then the cap.
        for trial in range(trials):
            if self._stopped(trial, predicate, counts_predicate):
                freeze(trial, True, reason)
            elif cap <= 0:
                freeze(trial, False, "cap")

        next_check = np.full(trials, min(check, cap), dtype=np.int64)
        changes = compiled.changes
        num_states = compiled.num_states
        states = self._states
        chunk = self._chunk
        flat_init = self._buf_init.reshape(-1)
        flat_resp = self._buf_resp.reshape(-1)

        while live_mask.any():
            live = np.nonzero(live_mask)[0]
            exhausted = live[self._cursor[live] >= chunk]
            if len(exhausted):
                # One fixed-size draw per refill, from each trial's own
                # stream.  Buffers store *global* agent ids (trial offset
                # folded in at refill time), saving two adds per round.
                refill_init, refill_resp = draw_uniform_pair_matrix(
                    [self.rngs[trial] for trial in exhausted], n, chunk
                )
                offsets = (exhausted * n)[:, None]
                self._buf_init[exhausted] = refill_init + offsets
                self._buf_resp[exhausted] = refill_resp + offsets
                self._cursor[exhausted] = 0
                if _metrics._ENABLED:
                    _metrics.record_scheduler_refill(len(exhausted))

            cursor = self._cursor[live]
            widths = np.minimum(chunk - cursor, next_check[live] - self._applied[live])
            slice_cap = np.maximum(64, (_SLICE_EMA_FACTOR * self._ema[live]).astype(np.int64) + 1)
            widths = np.minimum(widths, slice_cap)
            total = int(widths.sum())
            ends = np.cumsum(widths)
            starts = ends - widths
            global_pos = np.arange(total, dtype=np.int64)
            rep = np.repeat(np.arange(len(live)), widths)
            flat = global_pos + (live * chunk + cursor - starts)[rep]
            gi = flat_init[flat]
            gj = flat_resp[flat]
            # int32 throughout: S * S always fits (the dense S x S tables
            # already bound S far below 2**15.5 by memory alone).
            rows = states[gi] * np.int32(num_states)
            rows += states[gj]
            active = changes[rows]

            # Conflict scan.  A pair at position p must end its trial's
            # segment when either of its agents was touched by an *earlier*
            # active pair of the slice -- null-classified pairs included,
            # because their stale reads could misclassify them.  Each agent's
            # first active occurrence is scatter-recorded as the epoch-biased
            # tag ``position - epoch * _EPOCH_BIAS``: entries from earlier
            # epochs carry a strictly larger value than any fresh tag, so one
            # gather-and-compare replaces the separate epoch-tag array and
            # the scan costs ~3 full-slice ops.
            t_end_global = ends.copy()
            act = np.nonzero(active)[0]
            if len(act):
                act_i = gi[act]
                act_j = gj[act]
                self._epoch += 1
                if self._epoch >= _EPOCH_WRAP:
                    self._first_active.fill(_STALE_TAG)
                    self._epoch = 1
                bias = self._epoch * _EPOCH_BIAS
                agents = np.empty(2 * len(act), dtype=np.int64)
                agents[0::2] = act_i
                agents[1::2] = act_j
                positions = np.empty(2 * len(act), dtype=np.int64)
                positions[0::2] = act - bias
                positions[1::2] = positions[0::2]
                _scatter_first(
                    self._first_active, agents, positions, sentinel=total - bias
                )
                stale_first = np.minimum(
                    self._first_active[gi], self._first_active[gj]
                )
                conflicted = np.nonzero(stale_first < global_pos - bias)[0]
                if len(conflicted):
                    # Per-trial first conflict: the (few) flagged positions
                    # fold into the segment ends via an unbuffered minimum.
                    np.minimum.at(t_end_global, rep[conflicted], conflicted)

                rep_act = rep[act]
                keep = np.nonzero(act < t_end_global[rep_act])[0]
                if len(keep):
                    applied_rows = rows[act[keep]]
                    if compiled.branch_cumprob is None:
                        packed = compiled.packed_result[applied_rows]
                    else:
                        # One rng.random(k) per trial with k >= 1 active
                        # pairs, in live (= trial) order, matching the flat
                        # (trial-major) pair order of the kept actives.
                        per_trial = np.bincount(rep_act[keep], minlength=len(live))
                        draws = [
                            self.rngs[trial].random(int(count))
                            for trial, count in zip(live, per_trial)
                            if count > 0
                        ]
                        uniforms = np.concatenate(draws)
                        cumulative = compiled.branch_cumprob[applied_rows]
                        branch = (uniforms[:, None] >= cumulative).sum(axis=1)
                        np.minimum(branch, compiled.max_branches - 1, out=branch)
                        packed = compiled.packed_result[applied_rows, branch]
                    targets = np.empty(2 * len(keep), dtype=np.int64)
                    targets[0::2] = act_i[keep]
                    targets[1::2] = act_j[keep]
                    states[targets] = packed.view(np.int32)

            t_end_local = t_end_global - starts
            self._cursor[live] = cursor + t_end_local
            self._applied[live] += t_end_local
            self._ema[live] += 0.25 * (t_end_local - self._ema[live])
            if _metrics._ENABLED:
                # One aggregate window per vectorized round across all live
                # trials -- per-trial windows would cost a Python loop here.
                _metrics.record_window("compiled", int(t_end_local.sum()))

            at_boundary = np.nonzero(self._applied[live] >= next_check[live])[0]
            for index in at_boundary:
                trial = int(live[index])
                applied = int(self._applied[trial])
                if _metrics._ENABLED:
                    _metrics.record_stop_check("compiled")
                if self._stopped(trial, predicate, counts_predicate):
                    freeze(trial, True, reason)
                elif applied >= cap:
                    freeze(trial, False, "cap")
                else:
                    next_check[trial] = min(applied + check, cap)

        return results  # type: ignore[return-value]


class CountsTrialBatchSimulation:
    """Runs ``T`` independent counts-engine trials on a ``(T, S)`` count matrix.

    One batch-level generator drives the sampling; the window law, drift cap,
    and matching-feasibility rejection are those of
    :class:`~repro.engine.counts_simulation.CountsSimulation` (uniform
    scheduler, frozen at each window start), evaluated vectorized over the
    leading trial axis.  See the module docstring for the determinism
    contract.

    Parameters
    ----------
    protocol:
        The (shared) protocol; all trials run the same compiled table.
    counts:
        ``(T, S)`` integer matrix; every row sums to ``protocol.n``.
    rng:
        The batch-level generator (or seed).
    drift_cap / max_window:
        Tau-leap knobs, as on :class:`CountsSimulation`.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        counts: np.ndarray,
        rng: RngLike = None,
        compiled: Optional[CompiledProtocol] = None,
        compiler: Optional[ProtocolCompiler] = None,
        drift_cap: float = DEFAULT_DRIFT_CAP,
        max_window: Optional[int] = None,
    ):
        if not 0.0 < drift_cap <= 1.0:
            raise ValueError(f"drift_cap must be in (0, 1], got {drift_cap}")
        if max_window is not None and max_window < 1:
            raise ValueError(f"max_window must be positive, got {max_window}")
        if protocol.n < 2:
            raise ValueError("the counts engine needs a population of at least 2")
        self.protocol = protocol
        self.rng = make_rng(rng)
        if compiled is None:
            compiled = (compiler or ProtocolCompiler()).compile(protocol)
        else:
            BatchSimulation._check_compiled_compatible(compiled, protocol)
        self.compiled = compiled

        raw = np.asarray(counts)
        matrix = raw.astype(np.int64)
        num_states = compiled.num_states
        if matrix.ndim != 2 or matrix.shape[1] != num_states or not np.array_equal(matrix, raw):
            raise ValueError(
                f"counts must be an integer matrix of shape (T, {num_states}), "
                f"got {raw.shape} dtype {raw.dtype}"
            )
        if matrix.shape[0] < 1:
            raise ValueError("need at least one trial row")
        if matrix.min(initial=0) < 0:
            raise ValueError("counts must be non-negative")
        sums = matrix.sum(axis=1)
        if not np.all(sums == protocol.n):
            raise ValueError(
                f"every counts row must sum to the population size {protocol.n}; "
                f"got row sums {sums.tolist()}"
            )
        self._matrix = matrix.copy()
        self._trials = matrix.shape[0]
        self._support = active_pair_tables(compiled)
        self._drift_cap = float(drift_cap)
        self._max_window = None if max_window is None else int(max_window)
        self._applied = np.zeros(self._trials, dtype=np.int64)
        self._ran = False

    # -- views ----------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Population size (per trial)."""
        return self.protocol.n

    @property
    def trials(self) -> int:
        """Number of trials in the batch."""
        return self._trials

    @property
    def count_rows(self) -> np.ndarray:
        """The ``(T, S)`` count matrix (live view; treat as read-only)."""
        return self._matrix

    # -- execution -------------------------------------------------------------------

    def _stopped(self, trial: int, predicate, counts_predicate) -> bool:
        marker = time.perf_counter() if _metrics._PROFILING else 0.0
        counts = self._matrix[trial]
        if counts_predicate is not None:
            hit = bool(counts_predicate(counts))
        else:
            indices = np.repeat(np.arange(len(counts)), counts).astype(np.int32)
            hit = bool(predicate(self.compiled.decode_configuration(indices)))
        if _metrics._PROFILING:
            _metrics.record_stage_seconds("counts", "stop_check", time.perf_counter() - marker)
        return hit

    def run(self, config: RunConfig) -> List[SimulationResult]:
        """Execute all trials until ``config.stop`` (or the cap); trial order.

        One-shot; plans :func:`unbatchable_reason` refuses raise
        ``NotImplementedError`` (the harness runs those per trial).
        """
        if not isinstance(config, RunConfig):
            raise TypeError(f"run() takes a RunConfig, got {type(config).__name__}")
        if self._ran:
            raise RuntimeError("CountsTrialBatchSimulation.run() is one-shot per instance")
        self._ran = True
        _reject_unbatchable(config)

        protocol = self.protocol
        n = protocol.n
        num_states = self.compiled.num_states
        predicate, counts_predicate = resolve_stop(protocol, self.compiled, config.stop)
        cap = config.max_interactions
        if cap is None:
            cap = default_cap(n)
        check = config.check_interval if config.check_interval is not None else n
        reason = config.stop

        trials = self._trials
        results: List[Optional[SimulationResult]] = [None] * trials
        live_mask = np.ones(trials, dtype=bool)

        def freeze(trial: int, stopped: bool, why: str) -> None:
            results[trial] = SimulationResult(
                n=n,
                interactions=int(self._applied[trial]),
                stopped=stopped,
                reason=why,
                engine="counts",
            )
            live_mask[trial] = False

        for trial in range(trials):
            if self._stopped(trial, predicate, counts_predicate):
                freeze(trial, True, reason)
            elif cap <= 0:
                freeze(trial, False, "cap")

        next_check = np.full(trials, min(check, cap), dtype=np.int64)
        support = self._support
        x, y = support["x"], support["y"]
        diagonal = support["diagonal"]
        denominator = float(n) * float(n - 1)
        rng = self.rng
        # --profile stages, split as in CountsSimulation._advance: the law and
        # window sizing are "scheduler_draw"; draws, retries and the update
        # are "table_apply"; _stopped times "stop_check".
        profile = _metrics._PROFILING

        while live_mask.any():
            marker = time.perf_counter() if profile else 0.0
            live = np.nonzero(live_mask)[0]
            count = len(live)
            cells = self._matrix[live].astype(np.float64)
            # Frozen uniform law over the static active support:
            # P[x, y] = c_x (c_y - [x = y]) / (n (n - 1)); empty cells
            # contribute exactly zero, so the support needs no per-trial
            # filtering.
            probs = cells[:, x] * (cells[:, y] - diagonal) / denominator
            np.maximum(probs, 0.0, out=probs)
            total_active = probs.sum(axis=1)

            # Drift-capped window per trial (same rule as CountsSimulation):
            # expected removals from any state stay below drift_cap * count.
            removal = pair_flows(cells.shape, *dense_pair_terms(probs, x, y, num_states))
            with np.errstate(divide="ignore", invalid="ignore"):
                allowance = np.where(removal > 0.0, cells / removal, np.inf)
            drift_window = self._drift_cap * allowance.min(axis=1)
            remaining = next_check[live] - self._applied[live]
            windows = np.minimum(remaining, _HARD_WINDOW_CAP)
            capped = np.maximum(np.minimum(drift_window, 1e18), 1.0).astype(np.int64)
            # Silent trials (no active probability) jump straight to their
            # next boundary: the remaining draws are all null and commute.
            if _metrics._ENABLED:
                _metrics.record_drift_cap(
                    int(np.count_nonzero((total_active > 0.0) & (capped < windows)))
                )
            windows = np.where(total_active > 0.0, np.minimum(windows, capped), windows)
            if self._max_window is not None:
                windows = np.minimum(windows, self._max_window)
            if profile:
                now = time.perf_counter()
                _metrics.record_stage_seconds("counts", "scheduler_draw", now - marker)
                marker = now

            events = np.zeros((count, len(x)), dtype=np.int64)
            consumed = np.zeros((count, num_states), dtype=np.int64)
            sample = np.nonzero(total_active > 0.0)[0]
            while len(sample):
                pvals = probs[sample] / total_active[sample, None]
                hits = rng.binomial(
                    windows[sample], np.minimum(total_active[sample], 1.0)
                )
                drawn = rng.multinomial(hits, pvals)
                used = pair_flows(
                    (len(sample), num_states), *dense_pair_terms(drawn, x, y, num_states)
                )
                # Matching feasibility per trial: no state may supply more
                # initiators+responders than it holds.  Only the overdrawn
                # trials halve and resample; feasible trials keep their draw.
                overdrawn = (used > self._matrix[live[sample]]).any(axis=1)
                feasible = ~overdrawn
                if _metrics._ENABLED:
                    _metrics.record_halving(int(np.count_nonzero(overdrawn)))
                events[sample[feasible]] = drawn[feasible]
                consumed[sample[feasible]] = used[feasible]
                windows[sample[overdrawn]] = np.maximum(
                    windows[sample[overdrawn]] // 2, 1
                )
                sample = sample[overdrawn]

            if support["num_branches"] > 1:
                # Split each pair's events over its branches: (count, K, B).
                events = rng.multinomial(events, support["branch_pvals"])
            produced = pair_flows(
                cells.shape, *dense_pair_terms(events, *support["outputs"], num_states)
            )
            self._matrix[live] += produced - consumed
            self._applied[live] += windows
            if profile:
                _metrics.record_stage_seconds(
                    "counts", "table_apply", time.perf_counter() - marker
                )
            if _metrics._ENABLED:
                _metrics.record_window("counts", int(windows.sum()))

            at_boundary = np.nonzero(self._applied[live] >= next_check[live])[0]
            for index in at_boundary:
                trial = int(live[index])
                applied = int(self._applied[trial])
                if _metrics._ENABLED:
                    _metrics.record_stop_check("counts")
                if self._stopped(trial, predicate, counts_predicate):
                    freeze(trial, True, reason)
                elif applied >= cap:
                    freeze(trial, False, "cap")
                else:
                    next_check[trial] = min(applied + check, cap)

        return results  # type: ignore[return-value]


__all__ = [
    "CountsTrialBatchSimulation",
    "TRIAL_CHUNK",
    "TrialBatchSimulation",
    "unbatchable_reason",
]
