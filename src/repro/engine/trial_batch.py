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

Both inherit ``run(config)`` from :class:`~repro.engine.core.TrialBatchCore`,
which judges each trial; an engine here supplies one round, ``_advance``, and
the per-trial views its stop predicates read.

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
The core checks each trial at its own ``check_interval`` boundaries (a
round never crosses one).  A trial that stops -- or hits the interaction
cap -- is *frozen*: it leaves the live set, its rows are never indexed
again, and its state row stays untouched for the rest of the run (a
Hypothesis property test pins this).  Stragglers keep running with no
wasted work on finished trials.

Limits
------
* Fault plans, non-uniform schedulers and byzantine overlays are per-trial
  constructs: :func:`~repro.engine.core.unbatchable_reason` names the rule a
  config breaks, ``run`` raises ``NotImplementedError`` with it, and the
  harness falls back to per-trial execution with the same reason.
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
halving only the overdrawn trials' windows.  The law lives in two buffers
allocated once per run, and the draws run over the *drawable* pairs only:
those some live trial can draw, plus the support's last pair, which keeps
the generator stream of a draw over the whole support.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro.engine.batch_simulation import _scatter_first
from repro.engine.compiled import CompiledProtocol, ProtocolCompiler, table_for
from repro.engine.configuration import Configuration
from repro.engine.core import TrialBatchCore
from repro.engine.counts_simulation import (
    DEFAULT_DRIFT_CAP,
    _HARD_WINDOW_CAP,
    active_pair_tables,
    dense_pair_terms,
    pair_flows,
)
from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import RngLike, make_rng
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


class TrialBatchSimulation(TrialBatchCore):
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
        Share or build the compiled table (see
        :func:`~repro.engine.compiled.table_for`).
    record_freezes:
        When true, a copy of each trial's state row is snapshotted at the
        moment the trial freezes, into :attr:`freeze_snapshots` -- the debug
        surface of the freeze-immutability property test.
    """

    ENGINE = "compiled"

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
        self.compiled = compiled = table_for(protocol, compiled, compiler)

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
        self._states = compiled.checked_indices(indices, (trials, n)).reshape(-1)

        # Per-trial pair buffers, refilled lazily so a trial's draw count
        # depends only on its own consumption (the bit-identity contract).
        self._buf_init = np.empty((trials, TRIAL_CHUNK), dtype=np.int64)
        self._buf_resp = np.empty((trials, TRIAL_CHUNK), dtype=np.int64)
        self._cursor = np.full(trials, TRIAL_CHUNK, dtype=np.int64)  # empty => refill
        self._applied = np.zeros(trials, dtype=np.int64)
        self._ema = np.full(trials, _EMA_PRIOR, dtype=np.float64)
        # Epoch-biased per-(trial, agent) conflict-scan scratch, flat T*n
        # (see _EPOCH_BIAS above).
        self._first_active = np.full(trials * n, _STALE_TAG, dtype=np.int64)
        self._epoch = 0
        #: Trial index -> state-row copy taken at freeze time (only with
        #: ``record_freezes=True``).
        self.freeze_snapshots: Optional[Dict[int, np.ndarray]] = (
            {} if record_freezes else None
        )

    @property
    def state_rows(self) -> np.ndarray:
        """The ``(T, n)`` state-index matrix (live view; treat as read-only)."""
        return self._states.reshape(self.trials, self.protocol.n)

    @property
    def interactions(self) -> np.ndarray:
        """Per-trial applied interaction counts (copy)."""
        return self._applied.copy()

    # -- what the core loop asks for --------------------------------------------------

    def _trial_counts(self, trial: int) -> np.ndarray:
        return np.bincount(self.state_rows[trial], minlength=self.compiled.num_states)

    def _trial_configuration(self, trial: int) -> Configuration:
        return self.compiled.decode_configuration(self.state_rows[trial])

    def _on_freeze(self, trial: int) -> None:
        if self.freeze_snapshots is not None:
            self.freeze_snapshots[trial] = self.state_rows[trial].copy()

    def _advance(self, live: np.ndarray, budget: np.ndarray) -> None:
        """One round over the live trials (see "Round structure" above)."""
        profile = _metrics._PROFILING
        marker = time.perf_counter() if profile else 0.0
        n = self.protocol.n
        chunk = TRIAL_CHUNK
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
        if profile:
            now = time.perf_counter()
            _metrics.record_stage_seconds("compiled", "scheduler_draw", now - marker)
            marker = now

        compiled = self.compiled
        states = self._states
        cursor = self._cursor[live]
        widths = np.minimum(chunk - cursor, budget)
        slice_cap = np.maximum(64, (_SLICE_EMA_FACTOR * self._ema[live]).astype(np.int64) + 1)
        widths = np.minimum(widths, slice_cap)
        total = int(widths.sum())
        ends = np.cumsum(widths)
        starts = ends - widths
        global_pos = np.arange(total, dtype=np.int64)
        rep = np.repeat(np.arange(len(live)), widths)
        flat = global_pos + (live * chunk + cursor - starts)[rep]
        gi = self._buf_init.reshape(-1)[flat]
        gj = self._buf_resp.reshape(-1)[flat]
        # int32 throughout: S * S always fits (the dense S x S tables
        # already bound S far below 2**15.5 by memory alone).
        rows = states[gi] * np.int32(compiled.num_states)
        rows += states[gj]
        active = compiled.changes[rows]

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
        if profile:
            _metrics.record_stage_seconds(
                "compiled", "table_apply", time.perf_counter() - marker
            )
        if _metrics._ENABLED:
            # One aggregate window per vectorized round across all live
            # trials -- per-trial windows would cost a Python loop here.
            _metrics.record_window("compiled", int(t_end_local.sum()))


class CountsTrialBatchSimulation(TrialBatchCore):
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
    """

    ENGINE = "counts"

    def __init__(
        self,
        protocol: PopulationProtocol,
        counts: np.ndarray,
        rng: RngLike = None,
        compiled: Optional[CompiledProtocol] = None,
        compiler: Optional[ProtocolCompiler] = None,
    ):
        if protocol.n < 2:
            raise ValueError("the counts engine needs a population of at least 2")
        self.protocol = protocol
        self.rng = make_rng(rng)
        self.compiled = compiled = table_for(protocol, compiled, compiler)

        self._matrix = matrix = compiled.checked_counts(counts, np.shape(counts)[:1])
        if matrix.shape[0] < 1:
            raise ValueError("need at least one trial row")
        self._support = active_pair_tables(compiled)
        self._applied = np.zeros(matrix.shape[0], dtype=np.int64)
        # The window law and its scratch, K * T entries each, reused by every
        # round (see _advance).
        size = len(self._support["x"]) * matrix.shape[0]
        self._law = np.empty(size)
        self._scratch = np.empty(size)

    @property
    def count_rows(self) -> np.ndarray:
        """The ``(T, S)`` count matrix (live view; treat as read-only)."""
        return self._matrix

    # -- what the core loop asks for --------------------------------------------------

    def _trial_counts(self, trial: int) -> np.ndarray:
        return self._matrix[trial]

    def _trial_configuration(self, trial: int) -> Configuration:
        counts = self._matrix[trial]
        indices = np.repeat(np.arange(len(counts)), counts).astype(np.int32)
        return self.compiled.decode_configuration(indices)

    def _advance(self, live: np.ndarray, budget: np.ndarray) -> None:
        """One window per live trial, from the law frozen at its start.  As in
        ``CountsSimulation._advance``, the law and window sizing are the
        "scheduler_draw" stage; draws, retries and the update "table_apply"."""
        profile = _metrics._PROFILING
        marker = time.perf_counter() if profile else 0.0
        support = self._support
        x, y = support["x"], support["y"]
        num_states = self.compiled.num_states
        n = self.protocol.n
        rng = self.rng
        count = len(live)
        pairs = len(x)
        cells = self._matrix[live].astype(np.float64)
        # Frozen uniform law over the static active support, pair-major in
        # the run's buffers: law[k, t] = c_x (c_y - [x = y]) / (n (n - 1))
        # for pair k = (x, y) and live trial t.  Empty cells contribute
        # exactly zero, so the support needs no per-trial filtering.
        law = self._law[: pairs * count].reshape(pairs, count)
        scratch = self._scratch[: pairs * count].reshape(pairs, count)
        np.take(cells.T, x, axis=0, out=law, mode="clip")
        np.take(cells.T, y, axis=0, out=scratch, mode="clip")
        scratch -= support["diagonal"][:, None]
        law *= scratch
        law /= float(n) * float(n - 1)
        np.maximum(law, 0.0, out=law)
        # ``law.T`` is laid out as the gather ``cells[:, x]`` comes back
        # (column-major), so each trial's total adds its terms in the same
        # order: pairwise along a lone row, left to right for two or more.
        total_active = law.T.sum(axis=1)

        # Draws run over the drawable pairs only: those some live trial can
        # draw (a nonzero row sum, as the law is never negative), and the
        # last pair.  Generator.multinomial draws nothing for a
        # zero-probability category and gives the last one the remainder,
        # so dropping the other zero columns leaves the stream as it was.
        weight = np.matmul(law, np.ones(count), out=self._scratch[:pairs])
        if pairs:
            weight[-1] = 1.0
        drawable = np.flatnonzero(weight)
        probs = law[drawable].T
        x, y = x[drawable], y[drawable]

        # Drift-capped window per trial (same rule as CountsSimulation):
        # expected removals from any state stay below DEFAULT_DRIFT_CAP * count.
        removal = pair_flows(cells.shape, *dense_pair_terms(probs, x, y, num_states))
        with np.errstate(divide="ignore", invalid="ignore"):
            allowance = np.where(removal > 0.0, cells / removal, np.inf)
        drift_window = DEFAULT_DRIFT_CAP * allowance.min(axis=1)
        windows = np.minimum(budget, _HARD_WINDOW_CAP)
        capped = np.maximum(np.minimum(drift_window, 1e18), 1.0).astype(np.int64)
        # Silent trials (no active probability) jump straight to their
        # next boundary: the remaining draws are all null and commute.
        if _metrics._ENABLED:
            _metrics.record_drift_cap(
                int(np.count_nonzero((total_active > 0.0) & (capped < windows)))
            )
        windows = np.where(total_active > 0.0, np.minimum(windows, capped), windows)
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
            # Split each drawable pair's events over its branches.
            events = rng.multinomial(events, support["branch_pvals"][drawable])
        outputs = [side[drawable].ravel() for side in support["outputs"]]
        produced = pair_flows(cells.shape, *dense_pair_terms(events, *outputs, num_states))
        self._matrix[live] += produced - consumed
        self._applied[live] += windows
        if profile:
            _metrics.record_stage_seconds(
                "counts", "table_apply", time.perf_counter() - marker
            )
        if _metrics._ENABLED:
            _metrics.record_window("counts", int(windows.sum()))


__all__ = [
    "CountsTrialBatchSimulation",
    "TRIAL_CHUNK",
    "TrialBatchSimulation",
]
